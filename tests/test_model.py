import json
import operator
import re
from dataclasses import fields

import numpy as np
import pytest

from hopformer import (ModelConfig, Tensor, augment, build_head_masks,
                       build_mask, embed_tokens, encode, encoder_layer, forward,
                       generate_erdos_renyi, influence_matrix, init_model, load_model,
                       named_parameters, predict_graph, predict_node, readout,
                       relabel_nodes, save_model)
from hopformer import analysis as analysis_mod
from hopformer import autograd as ops
from hopformer import model as model_mod
from hopformer import training
from hopformer.graphs import Graph, GraphError
from hopformer.autograd import ShapeError
from hopformer.model import CHECKPOINT_MAGIC, MAX_WEIGHTS, LayerParams

from helpers import (augmented_distances, dense_vanilla_encoder, path3_graph,
                     random_graph, single_edge_graph, triangle_graph)


def small_cfg(**over):
    base = dict(hidden_dim=8, head_hops=(1, 3), num_layers=2, ffn_dim=16,
                num_heads=2, task="node_classification", num_classes=3, seed=0)
    base.update(over)
    return ModelConfig(**base)


def _no_weights(*args):
    raise AssertionError("a weight array was drawn")


class TestModelConfig:
    def test_head_dim(self):
        assert small_cfg(hidden_dim=8, num_heads=4, head_hops=(1, 2, 3, 4)).head_dim == 2

    def test_rejects_indivisible_hidden_dim(self):
        with pytest.raises(ValueError, match="divide"):
            small_cfg(hidden_dim=10, num_heads=4, head_hops=(1, 2, 3, 4))

    def test_rejects_wrong_hop_count(self):
        with pytest.raises(ValueError, match="head_hops"):
            small_cfg(head_hops=(1, 2, 3))

    def test_rejects_bad_rates(self):
        with pytest.raises(ValueError, match="dropout"):
            small_cfg(dropout=1.0)

    def test_rejects_unknown_task(self):
        with pytest.raises(ValueError, match="task"):
            small_cfg(task="link_prediction")

    def test_classification_needs_num_classes(self):
        with pytest.raises(ValueError, match="num_classes"):
            small_cfg(num_classes=None)

    @pytest.mark.parametrize("field,value", [
        ("hidden_dim", 8.5), ("hidden_dim", True), ("num_layers", 1.5), ("ffn_dim", "16"),
        ("num_heads", False), ("num_classes", 2.5), ("output_dim", float("nan")),
        ("seed", 0.5), ("seed", float("inf"))])
    def test_integer_field_refuses_fractions_booleans_and_non_numbers(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got {value!r}$"):
            small_cfg(**{field: value})

    @pytest.mark.parametrize("hops,message", [
        ((1.5, 3), "head_hops entry 0 must be an integer, got 1.5"),
        ((1, True), "head_hops entry 1 must be an integer, got True"),
        ([1, [3]], "head_hops entry 1 must be an integer, got [3]"),
        ("13", "head_hops must be a list of integers, got '13'"),
        (3, "head_hops must be a list of integers, got 3")])
    def test_head_hops_entries_are_not_truncated(self, hops, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            small_cfg(head_hops=hops)

    @pytest.mark.parametrize("field", ["dropout", "attention_dropout"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), True, "0.1"])
    def test_rate_must_be_a_finite_number(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be a finite number"):
            small_cfg(**{field: value})

    @pytest.mark.parametrize("field", ["hidden_dim", "ffn_dim", "output_dim", "num_classes"])
    @pytest.mark.parametrize("value", [0, -2])
    def test_dimension_must_be_positive(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be positive, got {value}$"):
            small_cfg(**{field: value})

    def test_seed_must_be_non_negative(self):
        # a negative seed used to fail later, inside numpy, in init_model
        with pytest.raises(ValueError, match="^seed must be non-negative, got -1$"):
            small_cfg(seed=-1)

    def test_weight_count_is_capped_before_allocation(self):
        # 4d^2 + 2df + f + 5d = 568 weights per layer and (d + 1) * 3 = 27 in the
        # head at d = 8, f = 16 and 3 classes; the configs are only built
        fits = (MAX_WEIGHTS - 27) // 568
        assert small_cfg(num_layers=fits).num_layers == fits
        with pytest.raises(ValueError, match=f"^{568 * (fits + 1) + 27} weights .* are past "
                                             f"the cap of {MAX_WEIGHTS}$"):
            small_cfg(num_layers=fits + 1)
        with pytest.raises(ValueError, match=r"^568000000027 weights \(0 inputs, hidden_dim=8, "
                                             r"ffn_dim=16, num_layers=1000000000, 3 outputs\)"):
            small_cfg(num_layers=10**9)

    def test_head_and_input_weights_count_toward_the_cap(self, monkeypatch):
        # no layers, yet the head alone is past the cap; nothing is allocated
        with pytest.raises(ValueError, match=r"^3221225475 weights .*num_layers=0, 3 outputs"):
            small_cfg(num_layers=0, hidden_dim=2**30)
        with pytest.raises(ValueError, match=f"1073741824 outputs.* cap of {MAX_WEIGHTS}$"):
            small_cfg(num_classes=2**30)
        with pytest.raises(ValueError, match=f"1073741824 outputs.* cap of {MAX_WEIGHTS}$"):
            small_cfg(task="graph_regression", output_dim=2**30)
        # d_v + d_e input columns are known only to init_model, which checks
        # them before it draws a weight
        monkeypatch.setattr(model_mod, "_glorot", _no_weights)
        with pytest.raises(ValueError, match=r"^2147483675 weights \(268435456 inputs, .*"
                                             r"num_layers=0, 3 outputs\)"):
            init_model(small_cfg(num_layers=0), d_v=2**28 - 1, d_e=1)

    def test_integral_numbers_are_stored_as_python_ints(self):
        cfg = small_cfg(hidden_dim=np.int64(8), head_hops=[np.int32(1), 3.0], num_layers=2.0,
                        num_classes=np.uint8(3), seed=np.int64(5))
        assert cfg == small_cfg(head_hops=(1, 3), seed=5)
        for value in (cfg.hidden_dim, cfg.num_layers, cfg.num_classes, cfg.seed,
                      *cfg.head_hops):
            assert type(value) is int
        assert type(small_cfg(dropout=np.float32(0.5)).dropout) is float


class TestInitModel:
    @pytest.mark.parametrize("dims,message", [
        (dict(d_v=2.5), "d_v must be an integer, got 2.5"),
        (dict(d_v=2, d_e=True), "d_e must be an integer, got True"),
        (dict(d_v=0), "d_v must be positive, got 0"),
        (dict(d_v=2, d_e=-1), "d_e must be non-negative, got -1")])
    def test_feature_dims_must_be_integers(self, dims, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            init_model(small_cfg(), **dims)

    def test_deterministic_under_seed(self):
        a = init_model(small_cfg(), d_v=3)
        b = init_model(small_cfg(), d_v=3)
        for name, t in named_parameters(a).items():
            assert np.array_equal(t.values, named_parameters(b)[name].values), name

    def test_seed_changes_weights(self):
        a = init_model(small_cfg(), d_v=3)
        b = init_model(small_cfg(seed=1), d_v=3)
        assert not np.array_equal(a.proj_node.values, b.proj_node.values)

    def test_layer_norm_initialized_to_identity_params(self):
        m = init_model(small_cfg(), d_v=3)
        assert np.array_equal(m.layers[0].ln1_gamma.values, np.ones((1, 8)))
        assert np.array_equal(m.layers[0].ln1_beta.values, np.zeros((1, 8)))

    def test_no_edge_projector_without_edge_features(self):
        assert init_model(small_cfg(), d_v=3, d_e=0).proj_edge is None
        assert init_model(small_cfg(), d_v=3, d_e=2).proj_edge is not None


    def test_fused_projection_holds_the_per_head_draws_in_seeded_order(self):
        # reference: every weight drawn from one default_rng(seed) in the
        # per-head order, each Q/K/V head block with its own (d, d_h) limit
        cfg = small_cfg(seed=7)
        d, d_h, f = cfg.hidden_dim, cfg.head_dim, cfg.ffn_dim
        m = init_model(cfg, d_v=3, d_e=2)
        rng = np.random.default_rng(cfg.seed)

        def draw(fan_in, fan_out):
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            return rng.uniform(-limit, limit, size=(fan_in, fan_out))

        assert np.array_equal(m.proj_node.values, draw(3, d))
        assert np.array_equal(m.proj_edge.values, draw(2, d))
        for lp in m.layers:
            assert lp.wqkv.values.shape == (d, 3 * d)
            for block in range(3 * cfg.num_heads):   # Q heads, K heads, V heads
                cols = slice(block * d_h, (block + 1) * d_h)
                assert np.array_equal(lp.wqkv.values[:, cols], draw(d, d_h))
            assert np.array_equal(lp.wo.values, draw(d, d))
            assert np.array_equal(lp.ffn_w1.values, draw(d, f))
            assert np.array_equal(lp.ffn_w2.values, draw(f, d))
        assert np.array_equal(m.head_w.values, draw(d, cfg.num_classes))

    def test_layer_parameter_names_are_the_layer_fields(self):
        m = init_model(small_cfg(), d_v=3)
        names = [f.name for f in fields(LayerParams)]
        assert "wqkv" in names and not {"wq", "wk", "wv"} & set(names)
        assert all(isinstance(getattr(m.layers[0], n), Tensor) for n in names)
        layer1 = [n for n in named_parameters(m) if n.startswith("layer1.")]
        assert layer1 == [f"layer1.{n}" for n in names]


class TestEmbedTokens:
    def test_identity_projector_passes_features_through(self):
        g = Graph(num_nodes=2, edges=np.array([[0, 1]]),
                  node_features=np.array([[1.0, 2.0], [3.0, 4.0]]))
        m = init_model(small_cfg(hidden_dim=2, num_heads=2, head_hops=(1, 1),
                                 ffn_dim=4), d_v=2)
        m.proj_node.values = np.eye(2)
        h = embed_tokens(m, g)
        assert np.array_equal(h.values[:2], g.node_features)

    def test_featureless_edge_tokens_are_zero_rows(self):
        g = path3_graph()
        ag = augment(g)
        m = init_model(small_cfg(), d_v=1)
        h = embed_tokens(m, g)
        assert h.values.shape == (5, 8)
        assert np.all(h.values[3:] == 0.0)

    def test_edge_features_projected(self):
        g = Graph(num_nodes=2, edges=np.array([[0, 1]]),
                  node_features=np.ones((2, 1)), edge_features=np.array([[2.0, 3.0]]))
        m = init_model(small_cfg(), d_v=1, d_e=2)
        h = embed_tokens(m, g)
        assert np.allclose(h.values[2], g.edge_features @ m.proj_edge.values)

    def test_dimension_mismatch(self):
        g = path3_graph()
        m = init_model(small_cfg(), d_v=4)
        with pytest.raises(Exception, match="dim"):
            embed_tokens(m, g)

    def test_per_token_map_permutes_rows(self):
        rng = np.random.default_rng(0)
        g = random_graph(rng, max_nodes=6, feature_dim=3)
        m = init_model(small_cfg(), d_v=3)
        perm = rng.permutation(g.num_nodes)
        g2 = relabel_nodes(g, perm)
        h1 = embed_tokens(m, g).values
        h2 = embed_tokens(m, g2).values
        assert np.allclose(h2[perm], h1[:g.num_nodes])


class TestEncoderLayer:
    def test_zero_sublayers_identity_under_pre_norm(self):
        # with the norm inside the residual branch, zero W_O and zero FFN
        # out-projection leave the input untouched (residuals only)
        cfg = small_cfg(norm="pre")
        m = init_model(cfg, d_v=1)
        g = path3_graph()
        ag = augment(g)
        masks = build_head_masks(ag, [0, 0])
        lp = m.layers[0]
        lp.wo.values = np.zeros_like(lp.wo.values)
        lp.ffn_w2.values = np.zeros_like(lp.ffn_w2.values)
        z = Tensor(np.random.default_rng(1).standard_normal((5, 8)))
        out = encoder_layer(z, masks, lp, cfg)
        assert np.array_equal(out.values, z.values)

    def test_single_head_full_mask_equals_vanilla_layer(self):
        cfg = small_cfg(hidden_dim=8, num_heads=1, head_hops=(64,), num_layers=1)
        g = generate_erdos_renyi(4, 1.0, seed=5)
        ag = augment(g)
        m = init_model(cfg, d_v=1)
        masks = build_head_masks(ag, [64])
        assert masks[0].nnz == ag.total_tokens ** 2
        h = forward(m, g, ag, masks)
        oracle = dense_vanilla_encoder(m, g.node_features,
                                       np.zeros((ag.num_edge_tokens, 8)))
        assert np.abs(h.values - oracle).max() <= 1e-10

    def test_one_matmul_per_layer_projects_q_k_and_v(self, monkeypatch):
        cfg = small_cfg()
        m = init_model(cfg, d_v=1)
        g = path3_graph()
        ag = augment(g)
        rights = []
        real = ops.matmul

        def counting(a, b):
            rights.append(b)
            return real(a, b)

        monkeypatch.setattr(ops, "matmul", counting)
        forward(m, g, ag, build_head_masks(ag, list(cfg.head_hops)))
        for lp in m.layers:
            assert sum(b is lp.wqkv for b in rights) == 1
        # node embedding, then wqkv, wo, ffn_w1 and ffn_w2 per layer
        assert len(rights) == 1 + 4 * cfg.num_layers

    def test_wrong_mask_count(self):
        cfg = small_cfg()
        m = init_model(cfg, d_v=1)
        g = path3_graph()
        ag = augment(g)
        with pytest.raises(Exception, match="masks"):
            encoder_layer(Tensor(np.zeros((5, 8))), [build_mask(ag, 1)],
                          m.layers[0], cfg)


class TestForward:
    def test_zero_layers_is_embedding(self):
        cfg = small_cfg(num_layers=0)
        g = path3_graph()
        ag = augment(g)
        m = init_model(cfg, d_v=1)
        masks = build_head_masks(ag, list(cfg.head_hops))
        h = forward(m, g, ag, masks)
        assert np.array_equal(h.values, embed_tokens(m, g).values)

    def test_deterministic(self):
        cfg = small_cfg()
        g = random_graph(np.random.default_rng(2), max_nodes=6, feature_dim=2)
        ag = augment(g)
        m = init_model(cfg, d_v=2)
        masks = build_head_masks(ag, list(cfg.head_hops))
        a = forward(m, g, ag, masks).values
        b = forward(m, g, ag, masks).values
        assert np.array_equal(a, b)

    def test_far_token_perturbation_leaves_row_bit_identical(self):
        # single layer, single head with hop budget n: zeroing a token beyond
        # n leaves every nearer row untouched
        n = 2
        cfg = small_cfg(hidden_dim=8, num_heads=1, head_hops=(n,), num_layers=1)
        g = path3_graph()                      # tokens: a b c e_ab e_bc
        ag = augment(g)
        dist = augmented_distances(ag)
        m = init_model(cfg, d_v=1)
        masks = build_head_masks(ag, [n])
        base = forward(m, g, ag, masks).values
        for j in range(g.num_nodes):
            feats = np.array(g.node_features, copy=True)
            feats[j] = 0.0
            g2 = Graph(num_nodes=g.num_nodes, edges=g.edges, node_features=feats)
            pert = forward(m, g2, ag, masks).values
            for i in range(ag.total_tokens):
                if dist[i, j] > n:
                    assert np.array_equal(pert[i], base[i]), (i, j)

    def test_two_layers_compose_receptive_fields(self):
        n = 1
        cfg = small_cfg(hidden_dim=8, num_heads=1, head_hops=(n,), num_layers=2)
        rng = np.random.default_rng(3)
        g = Graph(num_nodes=5,
                  edges=np.array([[0, 1], [1, 2], [2, 3], [3, 4]]),
                  node_features=rng.standard_normal((5, 2)))
        ag = augment(g)
        dist = augmented_distances(ag)
        m = init_model(cfg, d_v=2)
        masks = build_head_masks(ag, [n])
        from hopformer import influence_matrix
        infl = influence_matrix(m, masks)
        reach = (dist >= 0) & (dist <= 2 * n)
        assert not infl[~reach].any()
        # and composition genuinely extends past a single layer's budget
        assert infl[(dist == 2)].any()

    def test_permutation_equivariance_of_node_rows(self):
        cfg = small_cfg()
        rng = np.random.default_rng(4)
        g = random_graph(rng, max_nodes=8, feature_dim=3)
        m = init_model(cfg, d_v=3)
        perm = rng.permutation(g.num_nodes)
        g2 = relabel_nodes(g, perm)
        ag1, ag2 = augment(g), augment(g2)
        h1 = forward(m, g, ag1, build_head_masks(ag1, list(cfg.head_hops))).values
        h2 = forward(m, g2, ag2, build_head_masks(ag2, list(cfg.head_hops))).values
        assert np.abs(h2[perm] - h1[:g.num_nodes]).max() <= 1e-12


class TestReadout:
    def test_sum_of_onehot_rows_is_histogram(self):
        rows = np.array([[1, 0, 0], [0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=float)
        out = readout(Tensor(rows), "sum")
        assert out.values.tolist() == [[2.0, 1.0, 1.0]]

    def test_mean_of_identical_rows(self):
        rows = np.tile([1.5, -2.0], (7, 1))
        out = readout(Tensor(rows), "mean")
        assert np.allclose(out.values, [[1.5, -2.0]])

    def test_readout_invariant_under_relabeling(self):
        cfg = small_cfg()
        rng = np.random.default_rng(6)
        g = random_graph(rng, max_nodes=8, feature_dim=3)
        m = init_model(cfg, 3)
        ag = augment(g)
        h = forward(m, g, ag, build_head_masks(ag, list(cfg.head_hops)))
        base = {mode: readout(h, mode).values for mode in ("mean", "sum")}
        for _ in range(5):
            g2 = relabel_nodes(g, rng.permutation(g.num_nodes))
            ag2 = augment(g2)
            h2 = forward(m, g2, ag2, build_head_masks(ag2, list(cfg.head_hops)))
            for mode in ("mean", "sum"):
                diff = np.abs(readout(h2, mode).values - base[mode]).max()
                assert diff <= 1e-12, (mode, diff)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            readout(Tensor(np.ones((2, 2))), "max")


class TestPredictHeads:
    def test_zero_weight_head_uniform_logits_argmax_zero(self):
        cfg = small_cfg()
        m = init_model(cfg, d_v=1)
        m.head_w.values = np.zeros_like(m.head_w.values)
        g = path3_graph()
        ag = augment(g)
        masks = build_head_masks(ag, list(cfg.head_hops))
        logits = predict_node(m, forward(m, g, ag, masks), g.num_nodes)
        assert logits.values.shape == (3, 3)
        assert np.all(logits.values == 0.0)
        assert logits.values.argmax(axis=1).tolist() == [0, 0, 0]

    def test_node_logits_ignore_edge_rows(self):
        cfg = small_cfg()
        m = init_model(cfg, d_v=1)
        g = path3_graph()
        h = np.random.default_rng(5).standard_normal((5, 8))
        a = predict_node(m, Tensor(h), g.num_nodes).values
        h2 = np.array(h, copy=True)
        h2[3:] += 100.0
        b = predict_node(m, Tensor(h2), g.num_nodes).values
        assert np.array_equal(a, b)

    def test_predict_graph_shapes(self):
        cfg = small_cfg(task="graph_regression", num_classes=None, output_dim=1)
        m = init_model(cfg, d_v=1)
        out = predict_graph(m, Tensor(np.ones((1, 8))))
        assert out.values.shape == (1, 1)

    def test_task_mismatch(self):
        m = init_model(small_cfg(), d_v=1)
        with pytest.raises(ValueError):
            predict_graph(m, Tensor(np.ones((1, 8))))
        m2 = init_model(small_cfg(task="graph_classification"), d_v=1)
        with pytest.raises(ValueError):
            predict_node(m2, Tensor(np.ones((5, 8))), 3)

    def test_node_head_refuses_fewer_rows_than_nodes(self):
        m = init_model(small_cfg(num_classes=2), d_v=1)
        with pytest.raises(ShapeError, match="needs 60 node rows, h has 10 rows"):
            predict_node(m, Tensor(np.ones((10, 8))), 60)

    @pytest.mark.parametrize("num_nodes, message", [
        (True, "num_nodes must be an integer, got True"),
        (2.5, "num_nodes must be an integer, got 2.5"),
        ("3", "num_nodes must be an integer, got '3'"),
        (-1, "num_nodes must be non-negative, got -1")])
    def test_node_count_follows_the_integer_rule(self, num_nodes, message):
        # True scored one row, and 2.5 or "3" raised a bare TypeError
        m = init_model(small_cfg(num_classes=2), d_v=1)
        with pytest.raises(GraphError, match=f"^{re.escape(message)}$"):
            predict_node(m, Tensor(np.ones((10, 8))), num_nodes)
        assert predict_node(m, Tensor(np.ones((10, 8))), 3.0).values.shape == (3, 2)


def batch_graphs(rng, d_e=0, labels=None):
    """Graphs for a batch: random ones, an edgeless one, a single node, and a
    path of 79 tokens, past the kernel's small-graph bound, whose hop-1 mask is
    sparse enough for the nnz attention path."""
    graphs = [random_graph(rng, max_nodes=7, feature_dim=3) for _ in range(5)]
    graphs.insert(2, Graph(num_nodes=4, edges=np.zeros((0, 2), dtype=int),
                           node_features=rng.standard_normal((4, 3))))
    graphs.append(Graph(num_nodes=1, edges=np.zeros((0, 2), dtype=int),
                        node_features=rng.standard_normal((1, 3))))
    graphs.append(Graph(num_nodes=40, edges=np.column_stack([np.arange(39), np.arange(1, 40)]),
                        node_features=rng.standard_normal((40, 3))))
    out = []
    for i, g in enumerate(graphs):
        out.append(Graph(num_nodes=g.num_nodes, edges=g.edges, node_features=g.node_features,
                         edge_features=rng.standard_normal((g.num_edges, d_e)) if d_e else None,
                         node_labels=rng.integers(0, 2, g.num_nodes),
                         graph_label=None if labels is None else labels(i)))
    return out


BATCH_CASES = [
    # task, norm, readout, edge feature dim
    ("node_classification", "post", "mean", 0),
    ("graph_classification", "post", "mean", 0),
    ("graph_classification", "pre", "sum", 2),
    ("graph_regression", "post", "sum", 0),
    ("graph_regression", "pre", "mean", 2),
]


class TestGraphBatch:
    """A batch's stacked forward against a forward per graph."""

    def setup_case(self, task, norm, mode, d_e, **over):
        cfg = small_cfg(task=task, norm=norm, readout=mode, head_hops=(1, 4),
                        num_classes=None if task == "graph_regression" else 2, **over)
        rng = np.random.default_rng(17)
        graphs = batch_graphs(rng, d_e, labels=lambda i: i % 2)
        ags = [augment(g) for g in graphs]
        masks = [build_head_masks(a, list(cfg.head_hops)) for a in ags]
        return init_model(cfg, 3, d_e), graphs, ags, masks

    def per_graph(self, m, g, ag, masks, **kw):
        h = forward(m, g, ag, masks, **kw)
        if m.cfg.task == "node_classification":
            return predict_node(m, h, g.num_nodes).values
        return predict_graph(m, readout(h, m.cfg.readout)).values

    def test_the_batch_covers_both_attention_paths(self):
        _, _, ags, masks = self.setup_case(*BATCH_CASES[1])
        assert {ops._runs_dense(mk) for gm in masks for mk in gm} == {False, True}

    @pytest.mark.parametrize("task,norm,mode,d_e", BATCH_CASES)
    def test_each_graph_matches_its_own_forward(self, task, norm, mode, d_e):
        m, graphs, ags, masks = self.setup_case(task, norm, mode, d_e)
        with ops.scratch_tape():
            h = forward(m, graphs, ags, masks)
            rows = np.cumsum([0] + [a.total_tokens for a in ags])
            for b, (g, a, gm) in enumerate(zip(graphs, ags, masks)):
                alone = forward(m, g, a, gm).values
                assert np.abs(h.values[rows[b]:rows[b + 1]] - alone).max() <= 1e-12
                if task == "node_classification":
                    got = predict_node(m, Tensor(h.values[rows[b]:rows[b + 1]]),
                                       g.num_nodes).values
                    assert np.abs(got - self.per_graph(m, g, a, gm)).max() <= 1e-12
            if task != "node_classification":
                items = np.arange(len(graphs))[::-1]
                batched = training._outputs(m, graphs, masks, [items])[0].values
                for row, i in zip(batched, items):
                    want = self.per_graph(m, graphs[i], ags[i], masks[i])
                    assert np.abs(row - want[0]).max() <= 1e-12

    @pytest.mark.parametrize("task,norm,mode,d_e", BATCH_CASES)
    def test_dropout_draws_each_graph_from_its_own_seed(self, task, norm, mode, d_e):
        m, graphs, ags, masks = self.setup_case(task, norm, mode, d_e, dropout=0.3,
                                                attention_dropout=0.3)
        ids = [7, 3, 11, 0, 5, 2, 9, 4]
        with ops.scratch_tape():
            h = forward(m, graphs, ags, masks, training=True, rng_seed=40, graph_ids=ids)
            rows = np.cumsum([0] + [a.total_tokens for a in ags])
            differs = False
            for b, (g, a, gm) in enumerate(zip(graphs, ags, masks)):
                alone = forward(m, g, a, gm, training=True, rng_seed=40 + ids[b]).values
                assert np.abs(h.values[rows[b]:rows[b + 1]] - alone).max() <= 1e-12
                plain = forward(m, g, a, gm).values
                differs |= not np.allclose(alone, plain)
            assert differs   # dropout acted
            if task != "node_classification":
                seed = 123
                items = [5, 0, 7, 3]
                batched = training._outputs(m, graphs, masks, [items], training=True,
                                            seed=seed)[0].values
                for row, i in zip(batched, items):
                    want = self.per_graph(m, graphs[i], ags[i], masks[i], training=True,
                                          rng_seed=seed + i)
                    assert np.abs(row - want[0]).max() <= 1e-12

    def test_gradients_match_the_sum_of_per_graph_gradients(self):
        m, graphs, ags, masks = self.setup_case("graph_classification", "pre", "sum", 2,
                                                dropout=0.2, attention_dropout=0.2)
        params = named_parameters(m)

        def grads(run):
            for p in params.values():
                p.grad = None
            ops.backward(run())
            return {k: np.zeros_like(p.values) if p.grad is None else p.grad
                    for k, p in params.items()}

        items = list(range(len(graphs)))
        labels = np.array([g.graph_label for g in graphs])
        batched = grads(lambda: training._loss(
            "graph_classification",
            training._outputs(m, graphs, masks, [items], training=True, seed=5)[0], labels))
        summed = {}
        for i in items:
            gi = grads(lambda: training._loss(
                "graph_classification",
                training._outputs(m, graphs, masks, [[i]], training=True, seed=5)[0],
                labels[[i]]))
            for k, v in gi.items():
                summed[k] = summed.get(k, 0.0) + v / len(items)
        for k in params:
            assert np.abs(batched[k] - summed[k]).max() <= 1e-12, k

    def test_attention_flops_of_a_batch_are_the_sum_over_its_graphs(self):
        m, graphs, ags, masks = self.setup_case(*BATCH_CASES[2])
        with ops.scratch_tape():
            with ops.count_attention_flops() as batch:
                forward(m, graphs, ags, masks)
            with ops.count_attention_flops() as alone:
                for g, a, gm in zip(graphs, ags, masks):
                    forward(m, g, a, gm)
        assert batch.attention_flops == alone.attention_flops > 0
        assert batch.executed_flops == alone.executed_flops > batch.attention_flops

    def test_one_forward_and_one_attention_call_per_layer(self, monkeypatch):
        m, graphs, ags, masks = self.setup_case(*BATCH_CASES[1])
        calls = []
        real = ops.sparse_masked_attention
        monkeypatch.setattr(ops, "sparse_masked_attention",
                            lambda *a, **k: calls.append(a[3]) or real(*a, **k))
        with ops.scratch_tape():
            training._outputs(m, graphs, masks, [range(len(graphs))])
        assert len(calls) == m.cfg.num_layers
        # graph-major: each graph's head-mask list, as given, goes down to the kernel
        assert all(len(c) == len(graphs) and all(map(operator.is_, c, masks)) for c in calls)
        assert all(len(heads) == m.cfg.num_heads for c in calls for heads in c)

    def test_mismatched_batch_masks_refused(self):
        m, graphs, ags, masks = self.setup_case(*BATCH_CASES[1])
        swapped = masks[:1] + masks[2:3] + masks[1:2] + masks[3:]
        with pytest.raises(ShapeError, match="batch graph 1: mask 0 covers"):
            forward(m, graphs[:4], ags[:4], swapped[:4])
        with pytest.raises(ShapeError, match="3 head-mask lists"):
            forward(m, graphs[:4], ags[:4], masks[:3])

    @pytest.mark.parametrize("num_layers", [0, 2])
    def test_empty_batch_refused_before_any_tape_entry(self, num_layers):
        m = init_model(small_cfg(num_layers=num_layers), 3)
        with ops.scratch_tape() as tape:
            with pytest.raises(ShapeError, match="^forward got an empty batch; a batch holds "
                                                 "at least one graph$"):
                forward(m, [], None, [])
            assert tape == []

    @pytest.mark.parametrize("batch", ["empty", "mixed", "graph entry a mask", "head-major"])
    def test_encoder_layer_refuses_a_batch_off_the_layout(self, batch):
        # one graph's head masks, or a non-empty list over graphs of them
        m, _, ags, masks = self.setup_case(*BATCH_CASES[1])
        (a0, a1), (b0, b1) = masks[:2]
        assert a0.size != b0.size
        bad = {"empty": [], "mixed": [a0, [b0, b1]], "graph entry a mask": [[a0, a1], b0],
               "head-major": [[a0, b0], [a1, b1]]}[batch]
        want = ("^graph 0's head masks cover" if batch == "head-major" else
                "^encoder_layer takes a non-empty list over graphs, each a non-empty list of "
                "that graph's head masks$")
        with ops.scratch_tape() as tape:
            with pytest.raises(ShapeError, match=want):
                encoder_layer(Tensor(np.zeros((1, 8))), bad, m.layers[0], m.cfg)
            assert tape == []


def empty_graph() -> Graph:
    return Graph(num_nodes=0, edges=np.zeros((0, 2), dtype=int), node_features=np.zeros((0, 3)))


class TestEmptyGraph:
    """A graph of no nodes has no token rows: alone its forward gives none,
    and in a batch it adds no rows and no grads.  Pooling refuses it."""

    @staticmethod
    def model(dropout):
        return init_model(small_cfg(task="graph_classification", num_classes=2,
                                    head_hops=(1, 4), dropout=dropout,
                                    attention_dropout=dropout), 3)

    @pytest.mark.parametrize("dropout", [0.0, 0.3])
    def test_forward_alone_gives_no_rows(self, dropout):
        m, g = self.model(dropout), empty_graph()
        ag = augment(g)
        masks = build_head_masks(ag, list(m.cfg.head_hops))
        with ops.scratch_tape():
            h = forward(m, g, ag, masks, training=True, rng_seed=2)
            assert h.values.shape == (0, m.cfg.hidden_dim)
            assert forward(m, g, ag, masks).values.shape == (0, m.cfg.hidden_dim)
            assert encode(m, Tensor(np.zeros((0, 8))), masks).values.shape == (0, 8)
            with pytest.raises(ShapeError, match=r"segment sizes \[0\] do not split 0 rows"):
                readout(h, "mean")

    @pytest.mark.parametrize("where", [0, 3])   # first and mid-batch
    @pytest.mark.parametrize("dropout", [0.0, 0.3])
    def test_adds_no_rows_or_grads_to_a_batch(self, where, dropout):
        m = self.model(dropout)
        params = named_parameters(m)
        graphs = batch_graphs(np.random.default_rng(19))
        ids = list(range(len(graphs)))
        runs = []
        for gs, gi in [(graphs, ids), (graphs[:where] + [empty_graph()] + graphs[where:],
                                       ids[:where] + [99] + ids[where:])]:
            ags = [augment(g) for g in gs]
            masks = [build_head_masks(a, list(m.cfg.head_hops)) for a in ags]
            for p in params.values():
                p.grad = None
            with ops.scratch_tape():
                h = forward(m, gs, ags, masks, training=True, rng_seed=3, graph_ids=gi)
                weights = Tensor(np.arange(1.0, m.cfg.hidden_dim + 1).reshape(-1, 1))
                ops.backward(ops.sum_all(ops.matmul(h, weights)))
            runs.append([h.values.tobytes()] + [None if params[k].grad is None else
                                                params[k].grad.tobytes() for k in sorted(params)])
        assert runs[0] == runs[1] and runs[0].count(None) < len(params)


class TestBatchOfOne:
    """One graph is a batch of one: same results, same refusals."""

    @pytest.mark.parametrize("norm", ["post", "pre"])
    def test_forward_of_one_graph_is_a_batch_of_one(self, norm):
        cfg = small_cfg(norm=norm, head_hops=(1, 4), dropout=0.3, attention_dropout=0.3)
        g = batch_graphs(np.random.default_rng(5), 2)[-1]   # 12-node path, edge features
        ag = augment(g)
        masks = build_head_masks(ag, list(cfg.head_hops))
        m = init_model(cfg, 3, 2)
        params = named_parameters(m)
        w = Tensor(np.random.default_rng(6).standard_normal((cfg.hidden_dim, 1)))
        runs = []
        for args in [(g, ag, masks), ([g], [ag], [masks])]:
            for p in params.values():
                p.grad = None
            h = forward(m, *args, training=True, rng_seed=9)
            ops.backward(ops.sum_all(ops.matmul(h, w)))
            runs.append([h.values] + [params[k].grad for k in params])
        for a, b in zip(*runs):
            assert np.array_equal(a, b)
        with ops.scratch_tape():
            assert not np.allclose(runs[0][0], forward(m, g, ag, masks).values)   # dropout acted

    BAD_MASKS = {
        "hop budget": (lambda ag, other: build_head_masks(ag, [1, 2]),
                       "mask 1 has hop budget 2, config says 3"),
        "token count": (lambda ag, other: build_head_masks(other, [1, 3]),
                        "mask 0 covers 3 tokens, expected 5"),
        "head count": (lambda ag, other: build_head_masks(ag, [1]), "got 1 masks for 2 heads"),
        # a non-mask entry failed with a bare AttributeError on .size
        "None entry": (lambda ag, other: [None] + build_head_masks(ag, [3]),
                       "mask 0 is a NoneType, not a HopMask"),
        "string entry": (lambda ag, other: build_head_masks(ag, [1]) + ["hop 3"],
                         "mask 1 is a str, not a HopMask"),
        "not a list": (lambda ag, other: None,
                       "head masks must be a list of HopMask, got NoneType"),
    }

    def bad_case(self, fault):
        m = init_model(small_cfg(), d_v=1)
        g = path3_graph()
        ag = augment(g)
        make, message = self.BAD_MASKS[fault]
        return m, g, ag, make(ag, augment(single_edge_graph())), message

    @pytest.mark.parametrize("fault", BAD_MASKS)
    def test_forward_and_encode_refuse_a_graphs_bad_masks(self, fault):
        m, g, ag, masks, message = self.bad_case(fault)
        with ops.scratch_tape():
            with pytest.raises(ShapeError, match=f"batch graph 0: {message}"):
                forward(m, g, ag, masks)
            with pytest.raises(ShapeError, match=f"^{message}"):
                encode(m, embed_tokens(m, g), masks)

    def test_forward_reads_nothing_from_the_augmented_graph_slot(self):
        # the slot held the graph's AugmentedGraph, and forward refused another
        # graph's or a non-graph there; no computation reads it
        cfg = small_cfg(dropout=0.3, attention_dropout=0.3)
        m = init_model(cfg, d_v=1)
        g = path3_graph()
        ag = augment(g)
        masks = build_head_masks(ag, list(cfg.head_hops))
        runs = []
        for slot in (ag, augment(triangle_graph()), None, "ag"):
            with ops.scratch_tape() as tape:
                h = forward(m, g, slot, masks, training=True, rng_seed=3)
                runs.append((h.values.tobytes(), len(tape)))
        assert runs[0][1] > 0
        assert runs[1:] == runs[:1] * 3

    # influence_matrix takes T from the masks, so its token-count fault is
    # masks of two sizes
    INFLUENCE_BAD_MASKS = {**BAD_MASKS, "token count": (
        lambda ag, other: build_head_masks(ag, [1]) + build_head_masks(other, [3]),
        "mask 1 covers 3 tokens, expected 5")}

    @pytest.mark.parametrize("head", [None, 0])
    @pytest.mark.parametrize("fault", INFLUENCE_BAD_MASKS)
    def test_influence_matrix_refuses_bad_masks(self, fault, head):
        m = init_model(small_cfg(), d_v=1)
        make, message = self.INFLUENCE_BAD_MASKS[fault]
        masks = make(augment(path3_graph()), augment(single_edge_graph()))
        with pytest.raises(ShapeError, match=f"^{message}"):
            influence_matrix(m, masks, head=head)

    @pytest.mark.parametrize("head", [None, 0])
    def test_influence_matrix_checks_the_masks_once(self, monkeypatch, head):
        m = init_model(small_cfg(), d_v=1)
        ag = augment(path3_graph())
        calls = []
        real = model_mod._check_masks

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(model_mod, "_check_masks", counted)
        monkeypatch.setattr(analysis_mod, "_check_masks", counted)
        influence_matrix(m, build_head_masks(ag, [1, 3]), head=head)
        assert len(calls) == 1


class TestNodeRows:
    """``forward(rows=N)``: the last layer computes a node task's N node rows
    alone, equal to the first N rows of the full forward."""

    def setup_case(self, norm, num_layers=2, edges=True, **over):
        cfg = small_cfg(norm=norm, head_hops=(1, 24), num_layers=num_layers, **over)
        g = batch_graphs(np.random.default_rng(5), 2)[-1 if edges else 2]
        ag = augment(g)
        return init_model(cfg, 3, 2), g, ag, build_head_masks(ag, list(cfg.head_hops))

    def test_the_case_has_edge_tokens_and_both_attention_paths(self):
        _, g, ag, masks = self.setup_case("post")
        assert 0 < g.num_nodes < ag.total_tokens
        assert {ops._runs_dense(mk) for mk in masks} == {False, True}

    @pytest.mark.parametrize("norm", ["post", "pre"])
    @pytest.mark.parametrize("num_layers", [1, 2])
    def test_node_rows_and_gradients_match_the_full_forward(self, norm, num_layers):
        m, g, ag, masks = self.setup_case(norm, num_layers, dropout=0.2, attention_dropout=0.2)
        params = named_parameters(m)
        n = g.num_nodes
        w = Tensor(np.random.default_rng(6).standard_normal((m.cfg.hidden_dim, 1)))
        runs = []
        for rows in (None, n):
            for p in params.values():
                p.grad = None
            h = forward(m, g, ag, masks, training=True, rng_seed=9, rows=rows)
            nodes = predict_node(m, h, n)
            ops.backward(ops.sum_all(nodes))
            runs.append((h.values[:n], nodes.values, {k: p.grad for k, p in params.items()}))
        (full_h, full_logits, full_grads), (h_n, logits, grads) = runs
        assert h_n.shape == (n, m.cfg.hidden_dim)
        assert np.array_equal(h_n, full_h)
        assert np.array_equal(logits, full_logits)
        for k in params:
            assert np.abs(grads[k] - full_grads[k]).max() <= 1e-12, k
        with ops.scratch_tape():   # dropout acted
            assert not np.allclose(h_n, forward(m, g, ag, masks, rows=n).values)

    @pytest.mark.parametrize("norm", ["post", "pre"])
    @pytest.mark.parametrize("num_layers", [0, 1, 2])
    def test_a_row_set_is_those_rows_of_the_full_forward(self, norm, num_layers):
        m, g, ag, masks = self.setup_case(norm, num_layers)
        params = named_parameters(m)
        rows = np.sort(np.random.default_rng(7).choice(ag.total_tokens, 9, replace=False))
        assert rows[0] > 0   # not a leading range
        runs = []
        for asked in (None, rows):
            for p in params.values():
                p.grad = None
            with ops.scratch_tape():
                h = forward(m, g, ag, masks, training=True, rows=asked)
                picked = ops.take_rows(h, rows) if asked is None else h
                ops.backward(ops.sum_all(picked))
            runs.append((picked.values, {k: p.grad for k, p in params.items()}))
        (full, full_grads), (got, grads) = runs
        assert np.array_equal(got, full)
        for k in params:
            assert (grads[k] is None) == (full_grads[k] is None), k
            if grads[k] is not None:
                assert np.abs(grads[k] - full_grads[k]).max() <= 1e-12, k

    def test_all_rows_and_no_layers(self):
        m, g, ag, masks = self.setup_case("post")
        t = ag.total_tokens
        with ops.scratch_tape():
            full = forward(m, g, ag, masks).values
            assert np.array_equal(forward(m, g, ag, masks, rows=t).values, full)
            m0, *_ = self.setup_case("post", num_layers=0)
            h0 = forward(m0, g, ag, masks, rows=3).values
            assert np.array_equal(h0, forward(m0, g, ag, masks).values[:3])

    @pytest.mark.parametrize("rows", [0, -1, 80, 2.5])
    def test_rows_outside_the_graph_refused(self, rows):
        m, g, ag, masks = self.setup_case("post")
        assert ag.total_tokens == 79
        message = "rows must be an integer" if rows == 2.5 else r"rows must be in \[1, 79\]"
        with ops.scratch_tape(), pytest.raises(ValueError, match=message):
            forward(m, g, ag, masks, rows=rows)

    def test_rows_of_a_batch_refused(self):
        m, g, ag, masks = self.setup_case("post")
        with ops.scratch_tape():
            with pytest.raises(ShapeError, match="one graph, got a batch of 2"):
                forward(m, [g, g], [ag, ag], [masks, masks], rows=g.num_nodes)
            with pytest.raises(ShapeError, match="one graph, got a batch of 2"):
                encoder_layer(Tensor(np.ones((158, 8))), [[mk, mk] for mk in masks],
                              m.layers[0], m.cfg, rows=4)


class TestPoolSegments:
    def test_sum_and_mean_per_segment_with_gradients(self):
        x = Tensor(np.arange(12.0).reshape(6, 2), requires_grad=True)
        with ops.scratch_tape():
            out = ops.pool_segments(x, [1, 3, 2], mean=True)
            assert np.array_equal(out.values, [[0, 1], [4, 5], [9, 10]])
            assert np.array_equal(ops.pool_segments(x, [1, 3, 2]).values,
                                  [[0, 1], [12, 15], [18, 20]])
        assert ops.grad_check(lambda t: ops.sum_all(ops.relu(
            ops.pool_segments(t, [2, 4], mean=True))), x) < 1e-8

    @pytest.mark.parametrize("sizes", [[2, 2], [5, 0], [], [7], [[2], [3]], 5])
    def test_sizes_must_split_every_row(self, sizes):
        with pytest.raises(ShapeError, match="segment sizes"):
            ops.pool_segments(Tensor(np.ones((5, 2))), sizes)

    @pytest.mark.parametrize("sizes, message", [
        ([2.5, 2.5], "segment sizes must hold integers, got 2.5 at index 0"),
        ([True, 3], "segment sizes must hold integers, got a boolean at index 0"),
        ([np.True_, 3], "segment sizes must hold integers, got a boolean at index 0"),
        ([2.5, 1.5], "segment sizes must hold integers, got 2.5 at index 0")])
    def test_fraction_or_boolean_size_refused(self, sizes, message):
        # sizes were cast to int64, so [2.5, 2.5] pooled as [2, 2], [True, 3]
        # as [1, 3], and [2.5, 1.5] was refused as [2, 1]
        with pytest.raises(GraphError, match=f"^{re.escape(message)}$"):
            readout(Tensor(np.ones((4, 2))), "mean", sizes)

    def test_integral_float_sizes_are_the_integers(self):
        h = Tensor(np.arange(8.0).reshape(4, 2))
        assert np.array_equal(readout(h, "mean", [2.0, 2.0]).values,
                              readout(h, "mean", [2, 2]).values)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        cfg = small_cfg()
        m = init_model(cfg, d_v=3, d_e=2)
        path = tmp_path / "model.json"
        save_model(m, str(path))
        m2 = load_model(str(path))
        assert m2.cfg == cfg
        for name, t in named_parameters(m).items():
            assert np.array_equal(t.values, named_parameters(m2)[name].values), name

    @pytest.mark.parametrize("value, got", [
        pytest.param("x", "must hold numbers, got 'x'", id="x"),
        pytest.param([[0.0], [0.0, 1.0]], "must be numeric rows of equal length", id="value1"),
        pytest.param({"a": 1}, "must hold numbers, got {'a': 1}", id="value2"),
        pytest.param([["0", "x"]], "must hold numbers, got '0' at index [0, 0]", id="value3")])
    def test_non_numeric_parameter_rejected_by_name(self, tmp_path, value, got):
        # numpy's "could not convert", "inhomogeneous shape" and a bare
        # TypeError came out without the parameter's name
        path = tmp_path / "model.json"
        save_model(init_model(small_cfg(), d_v=1), str(path))
        obj = json.loads(path.read_text())
        obj["params"]["layer0.wo"] = value
        path.write_text(json.dumps(obj))
        with pytest.raises(GraphError, match=f"^checkpoint param layer0.wo {re.escape(got)}$"):
            load_model(str(path))

    @pytest.mark.parametrize("entry, got", [("0.5", "'0.5'"), (True, "a boolean"),
                                            (None, "None")])
    def test_parameter_entries_that_are_not_numbers_refused_by_index(self, tmp_path, entry,
                                                                     got):
        # a numeric string loaded as its number, a boolean as 0 or 1, and None
        # read as "a non-finite value"
        path = tmp_path / "model.json"
        save_model(init_model(small_cfg(), d_v=1), str(path))
        obj = json.loads(path.read_text())
        obj["params"]["layer0.wo"][1][2] = entry
        path.write_text(json.dumps(obj))
        with pytest.raises(GraphError, match=f"^checkpoint param layer0.wo must hold numbers, "
                                             f"got {re.escape(got)} at index \\[1, 2\\]$"):
            load_model(str(path))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_parameter_rejected_by_name(self, tmp_path, bad):
        path = tmp_path / "model.json"
        save_model(init_model(small_cfg(), d_v=1), str(path))
        obj = json.loads(path.read_text())
        obj["params"]["head.bias"][0][1] = bad
        path.write_text(json.dumps(obj))
        with pytest.raises(ValueError, match="head.bias"):
            load_model(str(path))

    def test_per_head_checkpoint_magic_refused_by_name(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(init_model(small_cfg(), d_v=1), str(path))
        obj = json.loads(path.read_text())
        assert "layer0.wqkv" in obj["params"]
        obj["magic"] = "HOPFORMER1"
        path.write_text(json.dumps(obj))
        with pytest.raises(ValueError, match="HOPFORMER1"):
            load_model(str(path))

    def test_checkpoint_past_the_weight_cap_refused(self, tmp_path, monkeypatch):
        path = tmp_path / "model.json"
        save_model(init_model(small_cfg(), d_v=1), str(path))
        obj = json.loads(path.read_text())
        for field, value in (("config", dict(obj["config"], num_layers=10**9)), ("d_v", 2**28)):
            path.write_text(json.dumps(dict(obj, **{field: value})))
            monkeypatch.setattr(model_mod, "_glorot", _no_weights)
            with pytest.raises(ValueError, match=f"past the cap of {MAX_WEIGHTS}$"):
                load_model(str(path))

    def test_numpy_integer_config_saves_the_same_bytes(self, tmp_path):
        plain, numpy_ints = tmp_path / "a.json", tmp_path / "b.json"
        save_model(init_model(small_cfg(), d_v=3), str(plain))
        save_model(init_model(small_cfg(hidden_dim=np.int64(8), num_heads=np.int64(2)),
                              d_v=np.int64(3)), str(numpy_ints))
        assert numpy_ints.read_bytes() == plain.read_bytes()

    def test_checkpoint_text_is_indented_sorted_json_with_a_final_newline(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(init_model(small_cfg(), d_v=1), str(path))
        text = path.read_text()
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"

    def test_unencodable_checkpoint_leaves_the_file_untouched(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("previous\n")
        m = init_model(small_cfg(), d_v=1)
        m.d_e = object()
        with pytest.raises(TypeError):
            save_model(m, str(path))
        assert path.read_text() == "previous\n"

    def test_truncated_checkpoint_names_the_file(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(init_model(small_cfg(), d_v=1), str(path))
        path.write_text(path.read_text()[:40])
        with pytest.raises(GraphError, match=f"^{re.escape(str(path))}: invalid JSON at "
                                             r"line \d+, column \d+: "):
            load_model(str(path))

    @pytest.mark.parametrize("obj, message", [
        ([], "checkpoint {} must be a JSON object, got list"),
        ({"magic": CHECKPOINT_MAGIC}, "checkpoint {} is missing required field 'config'"),
        ({"magic": CHECKPOINT_MAGIC, "config": [], "d_v": 1, "d_e": 0, "params": {}},
         "checkpoint {} field 'config' must be a JSON object, got list"),
    ])
    def test_malformed_checkpoint_names_what_is_wrong(self, tmp_path, obj, message):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(GraphError) as info:
            load_model(str(path))
        assert str(info.value) == message.format(path)

    @pytest.mark.parametrize("edit, problem", [
        (lambda c: c.update(foo=1), "has unknown field 'foo'"),
        (lambda c: c.pop("hidden_dim"), "is missing required field 'hidden_dim'")])
    def test_config_fields_checked_naming_the_checkpoint(self, tmp_path, edit, problem):
        path = tmp_path / "model.json"
        save_model(init_model(small_cfg(), d_v=1), str(path))
        obj = json.loads(path.read_text())
        edit(obj["config"])
        path.write_text(json.dumps(obj))
        accepted = ", ".join(f.name for f in fields(ModelConfig))
        with pytest.raises(GraphError) as info:
            load_model(str(path))
        assert str(info.value) == (f"checkpoint {path} field 'config' {problem}; "
                                   f"accepted fields: {accepted}")

    @pytest.mark.parametrize("edit, message", [
        (lambda p: p.pop("layer0.wo"), "checkpoint parameter names do not match the config: "
                                       "layer0.wo is missing"),
        (lambda p: p.update(extra=[[0.0]]), "checkpoint parameter names do not match the "
                                            "config: extra is unknown"),
        (lambda p: p.update({"head.bias": [[0.0, 0.0]]}),
         "checkpoint param head.bias has shape (1, 2), expected (1, 3)")])
    def test_parameters_must_match_the_config_by_name_and_shape(self, tmp_path, edit,
                                                                 message):
        path = tmp_path / "model.json"
        save_model(init_model(small_cfg(), d_v=1), str(path))
        obj = json.loads(path.read_text())
        edit(obj["params"])
        path.write_text(json.dumps(obj))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_model(str(path))

    def test_params_must_be_an_object(self, tmp_path):
        path = tmp_path / "[m].json"   # read as a file, never as JSON text
        save_model(init_model(small_cfg(), d_v=1), str(path))
        obj = json.loads(path.read_text())
        obj["params"] = list(obj["params"])
        path.write_text(json.dumps(obj))
        with pytest.raises(GraphError, match="field 'params' must be a JSON object, got list"):
            load_model(str(path))

    def test_magic_string_present_and_checked(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(init_model(small_cfg(), d_v=1), str(path))
        text = path.read_text()
        assert CHECKPOINT_MAGIC in text
        bad = tmp_path / "bad.json"
        bad.write_text(text.replace(CHECKPOINT_MAGIC, "NOTAMODEL"))
        with pytest.raises(ValueError, match="magic"):
            load_model(str(bad))
