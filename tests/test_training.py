import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

from hopformer import (ModelConfig, Tensor, TrainConfig, TrainingAbort,
                       adam_step, augment, backward, build_head_masks,
                       cross_entropy, evaluate, forward, generate_erdos_renyi, init_adam_state,
                       init_model, mae, named_parameters, predict_node, split_indices,
                       train)
from hopformer import autograd as ops
from hopformer import training
from hopformer.autograd import ShapeError
from hopformer.graphs import Graph, GraphError
from hopformer.model import copy_parameter_values, named_parameters, set_parameter_values

from helpers import spy_on_paths


def node_cfg(**over):
    base = dict(hidden_dim=8, head_hops=(1, 3), num_layers=1, ffn_dim=16,
                num_heads=2, task="node_classification", num_classes=2, seed=0)
    base.update(over)
    return ModelConfig(**base)


def labelled_graph(n=12, seed=0, num_classes=2):
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(n, k=1)
    keep = rng.random(iu.shape[0]) < 0.3
    return Graph(num_nodes=n, edges=np.column_stack([iu[keep], ju[keep]]),
                 node_features=rng.standard_normal((n, 3)),
                 node_labels=rng.integers(0, num_classes, size=n))


class TestCrossEntropy:
    def test_uniform_logits(self):
        loss = cross_entropy(Tensor(np.zeros((5, 4))), np.zeros(5, dtype=int))
        assert loss.values[0, 0] == pytest.approx(np.log(4.0), abs=1e-12)

    def test_saturated_true_class(self):
        logits = np.zeros((1, 3))
        logits[0, 1] = 30.0
        loss = cross_entropy(Tensor(logits), np.array([1]))
        assert loss.values[0, 0] < 1e-10

    def test_no_rows_refused(self):
        with pytest.raises(ValueError, match="at least one row"):
            cross_entropy(Tensor(np.zeros((0, 2))), np.zeros(0, dtype=int))

    def test_label_count_must_match_rows(self):
        with pytest.raises(ValueError, match="^3 labels for 2 rows$"):
            cross_entropy(Tensor(np.zeros((2, 2))), np.array([0, 1, 1]))

    def test_out_of_range_label(self):
        with pytest.raises(ValueError, match="label"):
            cross_entropy(Tensor(np.zeros((2, 2))), np.array([0, 2]))

    @pytest.mark.parametrize("labels, message", [
        ([1.0, 1.5], "got 1.5 at index 1"),   # not truncated to class 1
        ([np.nan, 0], "got nan at index 0"),
        (np.array([0.0, np.inf]), "got inf at index 1"),
        ([0, True], "got a boolean at index 1"),
    ])
    def test_non_integer_label_refused_naming_it(self, labels, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")   # no numpy cast warning on the way
            with pytest.raises(GraphError, match=f"^labels must hold integers, {message}"):
                cross_entropy(Tensor(np.zeros((2, 2))), labels)

    def test_integral_float_labels_read_as_classes(self):
        logits = Tensor(np.array([[0.0, 3.0], [1.0, -1.0]]))
        assert np.array_equal(cross_entropy(logits, [1.0, 0.0]).values,
                              cross_entropy(logits, np.array([1, 0])).values)

    def test_gradient_is_softmax_minus_onehot(self):
        logits = Tensor(np.array([[1.0, 2.0, 0.5]]), requires_grad=True)
        loss = cross_entropy(logits, np.array([2]))
        backward(loss)
        p = np.exp(logits.values[0]) / np.exp(logits.values[0]).sum()
        expect = p.copy()
        expect[2] -= 1.0
        assert np.allclose(logits.grad[0], expect, atol=1e-12)


class TestMae:
    def test_exact_match(self):
        assert mae(Tensor(np.ones((3, 1))), np.ones(3)).values[0, 0] == 0.0

    def test_unit_offset(self):
        assert mae(Tensor(np.ones((3, 1)) + 1.0), np.ones(3)).values[0, 0] == 1.0

    def test_mixed_offsets(self):
        pred = Tensor(np.array([[1.0], [-3.0]]))
        assert mae(pred, np.zeros(2)).values[0, 0] == pytest.approx(2.0)

    def test_subgradient_zero_at_ties(self):
        pred = Tensor(np.array([[1.0], [2.0]]), requires_grad=True)
        backward(mae(pred, np.array([1.0, 0.0])))
        assert pred.grad[0, 0] == 0.0
        assert pred.grad[1, 0] == pytest.approx(0.5)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            mae(Tensor(np.ones((3, 1))), np.ones(4))

    @pytest.mark.parametrize("rows, targets", [(2, 4), (2, 1), (0, 0)])
    def test_target_count_must_match_pred_naming_both(self, rows, targets):
        with pytest.raises(ValueError, match=re.escape(
                f"mae needs one target per entry of pred ({rows}, 1), got {targets} targets")):
            mae(Tensor(np.ones((rows, 1))), np.ones(targets))


class TestAdam:
    def test_zero_gradient_leaves_params(self):
        p = Tensor(np.ones((2, 2)), requires_grad=True)
        params = {"p": p}
        state = init_adam_state(params)
        adam_step(params, {"p": np.zeros((2, 2))}, state, lr=0.1)
        assert np.array_equal(p.values, np.ones((2, 2)))

    def test_missing_grad_steps_as_a_zero_grad(self):
        def run(grads):
            params = {"a": Tensor(np.full((2, 2), 0.5)), "b": Tensor(np.full((1, 3), -1.0))}
            state = init_adam_state(params)
            for _ in range(3):
                adam_step(params, dict(grads), state, lr=0.1, weight_decay=0.2)
            return [p.values for p in params.values()]

        g = {"a": np.full((2, 2), 0.25)}
        for got, want in zip(run(g), run({**g, "b": np.zeros((1, 3))})):
            assert np.array_equal(got, want)

    def test_first_step_is_lr_times_sign(self):
        rng = np.random.default_rng(0)
        g = rng.standard_normal((3, 3))
        p = Tensor(np.zeros((3, 3)), requires_grad=True)
        params = {"p": p}
        adam_step(params, {"p": g}, init_adam_state(params), lr=1e-3)
        assert np.allclose(p.values, -1e-3 * np.sign(g), atol=1e-9)

    def test_bit_identical_trajectories(self):
        def run():
            p = Tensor(np.full((2, 2), 0.5), requires_grad=True)
            params = {"p": p}
            state = init_adam_state(params)
            for step in range(20):
                g = p.values * 2.0 + step
                adam_step(params, {"p": g}, state, lr=1e-2, weight_decay=1e-4)
            return p.values

        assert np.array_equal(run(), run())

    def test_decoupled_weight_decay(self):
        p = Tensor(np.full((1, 1), 2.0), requires_grad=True)
        params = {"p": p}
        adam_step(params, {"p": np.zeros((1, 1))}, init_adam_state(params),
                  lr=0.1, weight_decay=0.5)
        # zero gradient: only the decay term moves the weight
        assert p.values[0, 0] == pytest.approx(2.0 - 0.1 * 0.5 * 2.0)


class TestSplits:
    def test_sizes_and_cover(self):
        cfg = TrainConfig(learning_rate=0.1, epochs=1, seed=3)
        tr, va, te = split_indices(100, cfg)
        assert len(tr) == 60 and len(va) == 20 and len(te) == 20
        assert sorted(np.concatenate([tr, va, te]).tolist()) == list(range(100))

    def test_integral_float_n_is_the_integer(self):
        cfg = TrainConfig(learning_rate=0.1, epochs=1, seed=3)
        for x, y in zip(split_indices(10.0, cfg), split_indices(10, cfg)):
            assert x.tobytes() == y.tobytes()

    @pytest.mark.parametrize("n, message", [
        (10.5, "n must be an integer, got 10.5"), (True, "n must be an integer, got True"),
        (-1, "n must be non-negative, got -1")])
    def test_fraction_boolean_or_negative_n_refused(self, n, message):
        # 10.5 raised numpy's AxisError
        cfg = TrainConfig(learning_rate=0.1, epochs=1, seed=3)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            split_indices(n, cfg)

    def test_deterministic(self):
        cfg = TrainConfig(learning_rate=0.1, epochs=1, seed=3)
        a = split_indices(50, cfg)
        b = split_indices(50, cfg)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_fractions_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum"):
            TrainConfig(learning_rate=0.1, epochs=1, train_frac=0.5, val_frac=0.5,
                        test_frac=0.5)

    @pytest.mark.parametrize("fracs, field, value", [
        ((1.2, -0.2, 0.0), "train_frac", 1.2), ((0.6, -0.2, 0.6), "val_frac", -0.2),
        ((0.0, -0.5, 1.5), "val_frac", -0.5), ((0.0, 0.0, 1.0 + 1e-12), "test_frac", 1.0 + 1e-12)])
    def test_each_fraction_must_lie_in_unit_interval(self, fracs, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be in \\[0, 1\\], got {value}$"):
            TrainConfig(learning_rate=0.1, epochs=1, train_frac=fracs[0], val_frac=fracs[1],
                        test_frac=fracs[2])

    def test_fractions_at_the_ends_of_the_interval_are_accepted(self):
        cfg = TrainConfig(learning_rate=0.1, epochs=1, train_frac=1.0, val_frac=0.0,
                          test_frac=0.0)
        assert cfg.train_frac == 1.0


class TestTrainConfigBoundary:
    @pytest.mark.parametrize("field", ["learning_rate", "weight_decay", "train_frac",
                                       "val_frac", "test_frac"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), True, "0.1"])
    def test_float_field_must_be_a_finite_number(self, field, value):
        kwargs = dict(learning_rate=0.1, epochs=1)
        kwargs[field] = value
        with pytest.raises(ValueError, match=f"^{field} must be a finite number, got "):
            TrainConfig(**kwargs)

    @pytest.mark.parametrize("field", ["epochs", "batch_size", "seed", "early_stop_patience"])
    @pytest.mark.parametrize("value", [2.5, True, float("nan"), "3", None])
    def test_integer_field_refuses_fractions_booleans_and_non_numbers(self, field, value):
        kwargs = dict(learning_rate=0.1, epochs=1)
        kwargs[field] = value
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got "):
            TrainConfig(**kwargs)

    @pytest.mark.parametrize("field,value", [("seed", -5), ("early_stop_patience", -1)])
    def test_count_must_be_non_negative(self, field, value):
        # a negative seed used to fail later, inside numpy, in split_indices,
        # and a negative patience acted as 0
        kwargs = dict(learning_rate=0.1, epochs=1)
        kwargs[field] = value
        with pytest.raises(ValueError, match=f"^{field} must be non-negative, got {value}$"):
            TrainConfig(**kwargs)

    @pytest.mark.parametrize("field", ["learning_rate", "weight_decay"])
    def test_rate_must_be_non_negative(self, field):
        # a negative weight decay grew every weight by lr * |weight_decay|
        # per Adam step instead of shrinking it
        kwargs = dict(learning_rate=0.1, epochs=1)
        kwargs[field] = -1.0
        with pytest.raises(ValueError, match=f"^{field} must be non-negative, got -1.0$"):
            TrainConfig(**kwargs)
        kwargs[field] = 0.0
        assert getattr(TrainConfig(**kwargs), field) == 0.0

    def test_integral_numbers_are_stored_as_python_ints(self):
        cfg = TrainConfig(learning_rate=np.float32(0.5), epochs=np.int64(3), batch_size=4.0,
                          seed=np.uint16(2), early_stop_patience=np.int8(1))
        assert cfg == TrainConfig(learning_rate=0.5, epochs=3, batch_size=4, seed=2,
                                  early_stop_patience=1)
        for value in (cfg.epochs, cfg.batch_size, cfg.seed, cfg.early_stop_patience):
            assert type(value) is int
        assert type(cfg.learning_rate) is float


class TestTrainNodeTask:
    def _setup(self, **cfg_over):
        g = labelled_graph()
        cfg = node_cfg(**cfg_over)
        ag = augment(g)
        masks = build_head_masks(ag, list(cfg.head_hops))
        model = init_model(cfg, g.node_feature_dim)
        return g, masks, model

    def test_zero_lr_keeps_initial_params(self):
        g, masks, model = self._setup()
        before = copy_parameter_values(model)
        train(model, g, masks, TrainConfig(learning_rate=0.0, epochs=5, seed=0))
        for name, t in named_parameters(model).items():
            assert np.array_equal(t.values, before[name]), name

    def test_zero_epochs_empty_history(self):
        g, masks, model = self._setup()
        before = copy_parameter_values(model)
        _, history = train(model, g, masks, TrainConfig(learning_rate=0.1, epochs=0))
        assert len(history) == 0
        assert history.best_epoch is None
        for name, t in named_parameters(model).items():
            assert np.array_equal(t.values, before[name]), name

    def test_rerun_bit_identical(self):
        tc = TrainConfig(learning_rate=1e-2, epochs=8, seed=1)
        runs = []
        for _ in range(2):
            g, masks, model = self._setup()
            _, history = train(model, g, masks, tc)
            runs.append((history.train_loss, history.val_metric, history.test_metric,
                         copy_parameter_values(model)))
        assert runs[0][0] == runs[1][0]
        assert runs[0][1] == runs[1][1]
        assert runs[0][2] == runs[1][2]
        for name in runs[0][3]:
            assert np.array_equal(runs[0][3][name], runs[1][3][name])

    def test_rerun_bit_identical_with_dropout(self):
        tc = TrainConfig(learning_rate=1e-2, epochs=6, seed=2)
        losses = []
        for _ in range(2):
            g, masks, model = self._setup(dropout=0.3, attention_dropout=0.3)
            _, history = train(model, g, masks, tc)
            losses.append(history.train_loss)
        assert losses[0] == losses[1]

    def test_nan_loss_aborts_with_context(self):
        g, masks, model = self._setup()
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingAbort, match="epoch"):
                train(model, g, masks, TrainConfig(learning_rate=1e150, epochs=10))

    def test_history_lengths_match_epochs_run(self):
        g, masks, model = self._setup()
        _, history = train(model, g, masks, TrainConfig(learning_rate=1e-2, epochs=7))
        assert len(history.train_loss) == len(history.val_metric) \
            == len(history.test_metric) == len(history.seconds) == 7


class TestLossDecreases:
    def test_single_adam_step_on_convex_head(self):
        # head-only fixture: fixed representations, affine head, cross entropy
        rng = np.random.default_rng(4)
        h = Tensor(rng.standard_normal((20, 6)))
        labels = rng.integers(0, 3, size=20)
        w = Tensor(rng.standard_normal((6, 3)) * 0.1, requires_grad=True)
        b = Tensor(np.zeros((1, 3)), requires_grad=True)
        params = {"w": w, "b": b}
        state = init_adam_state(params)

        def loss_tensor():
            return cross_entropy(ops.add(ops.matmul(h, w), b), labels)

        first = loss_tensor()
        before = float(first.values[0, 0])
        backward(first)
        adam_step(params, {k: p.grad for k, p in params.items()}, state, lr=1e-4)
        with ops.scratch_tape():
            after = float(loss_tensor().values[0, 0])
        assert after < before


class TestEvaluate:
    def test_all_correct_fixture(self):
        g = labelled_graph(seed=5)
        cfg = node_cfg()
        masks = build_head_masks(augment(g), list(cfg.head_hops))
        model = init_model(cfg, g.node_feature_dim)
        # bend the graph's labels to whatever the model currently predicts
        with ops.scratch_tape():
            h = forward(model, g, augment(g), masks)
            from hopformer import predict_node
            pred = predict_node(model, h, g.num_nodes).values.argmax(axis=1)
        g2 = Graph(num_nodes=g.num_nodes, edges=g.edges, node_features=g.node_features,
                   node_labels=pred)
        assert evaluate(model, g2, masks, np.arange(g.num_nodes)) == 1.0

    def test_zero_head_accuracy_near_chance(self):
        c = 4
        g = labelled_graph(n=200, seed=6, num_classes=c)
        cfg = node_cfg(num_classes=c)
        masks = build_head_masks(augment(g), list(cfg.head_hops))
        model = init_model(cfg, g.node_feature_dim)
        model.head_w.values = np.zeros_like(model.head_w.values)
        acc = evaluate(model, g, masks, np.arange(200))
        # uniform logits tie-break to class 0: accuracy is the class-0 rate
        sigma = np.sqrt((1 / c) * (1 - 1 / c) / 200)
        assert abs(acc - 1 / c) <= 5 * sigma
        assert acc == (g.node_labels == 0).mean()

    def test_node_split_repeating_a_node_refused(self, monkeypatch):
        # a split is a set: [3, 1, 3, 3] would weight node 3 three times
        g = labelled_graph(seed=5)
        cfg = node_cfg()
        masks = build_head_masks(augment(g), list(cfg.head_hops))
        model = init_model(cfg, g.node_feature_dim)
        monkeypatch.setattr(training, "forward", lambda *a, **k: pytest.fail("forward ran"))
        with pytest.raises(ValueError, match="the evaluated split holds index 3 more than once"):
            evaluate(model, g, masks, np.array([3, 1, 3, 3]))

    def test_empty_split_rejected(self):
        g = labelled_graph()
        cfg = node_cfg()
        masks = build_head_masks(augment(g), list(cfg.head_hops))
        model = init_model(cfg, g.node_feature_dim)
        with pytest.raises(ValueError, match="empty"):
            evaluate(model, g, masks, np.array([], dtype=int))

    def test_shuffle_invariant(self):
        g = labelled_graph(seed=7)
        cfg = node_cfg()
        masks = build_head_masks(augment(g), list(cfg.head_hops))
        model = init_model(cfg, g.node_feature_dim)
        split = np.arange(g.num_nodes)
        shuffled = np.random.default_rng(8).permutation(split)
        assert evaluate(model, g, masks, split) == evaluate(model, g, masks, shuffled)

    def test_graph_level_shuffle_invariant(self):
        graphs = tiny_graph_dataset()
        cfg = ModelConfig(hidden_dim=8, head_hops=(2, 4), num_layers=1, ffn_dim=16,
                          num_heads=2, task="graph_classification", num_classes=2,
                          seed=3)
        masks = [build_head_masks(augment(g), list(cfg.head_hops)) for g in graphs]
        model = init_model(cfg, 2)
        split = np.arange(len(graphs))
        shuffled = np.random.default_rng(9).permutation(split)
        assert evaluate(model, graphs, masks, split) == \
            evaluate(model, graphs, masks, shuffled)


def tiny_graph_dataset(num=12, seed=9):
    # triangles labelled 1, length-2 paths labelled 0
    rng = np.random.default_rng(seed)
    graphs = []
    for i in range(num):
        if i % 2 == 0:
            g = Graph(num_nodes=3, edges=np.array([[0, 1], [1, 2]]),
                      node_features=rng.standard_normal((3, 2)), graph_label=0)
        else:
            g = Graph(num_nodes=3, edges=np.array([[0, 1], [1, 2], [0, 2]]),
                      node_features=rng.standard_normal((3, 2)), graph_label=1)
        graphs.append(g)
    return graphs


class TestGraphLevelTraining:
    def test_classification_learns_structure(self):
        cfg = ModelConfig(hidden_dim=8, head_hops=(2, 4), num_layers=1, ffn_dim=16,
                          num_heads=2, task="graph_classification", num_classes=2,
                          readout="mean", seed=0)
        graphs = tiny_graph_dataset()
        masks = [build_head_masks(augment(g), list(cfg.head_hops)) for g in graphs]
        model = init_model(cfg, 2)
        tc = TrainConfig(learning_rate=1e-2, epochs=40, batch_size=4, seed=0)
        model, history = train(model, graphs, masks, tc)
        assert history.train_loss[-1] < history.train_loss[0]
        tr, _, _ = split_indices(len(graphs), tc)
        assert evaluate(model, graphs, masks, tr) >= 0.8

    def test_regression_mae_goes_down(self):
        cfg = ModelConfig(hidden_dim=8, head_hops=(2, 4), num_layers=1, ffn_dim=16,
                          num_heads=2, task="graph_regression", readout="sum", seed=0)
        rng = np.random.default_rng(10)
        graphs = []
        for _ in range(10):
            n = int(rng.integers(3, 6))
            iu, ju = np.triu_indices(n, k=1)
            keep = rng.random(iu.shape[0]) < 0.6
            edges = np.column_stack([iu[keep], ju[keep]])
            graphs.append(Graph(num_nodes=n, edges=edges,
                                node_features=np.ones((n, 1)),
                                graph_label=float(len(edges)) / n))
        masks = [build_head_masks(augment(g), list(cfg.head_hops)) for g in graphs]
        model = init_model(cfg, 1)
        tc = TrainConfig(learning_rate=1e-2, epochs=30, batch_size=5, seed=1)
        model, history = train(model, graphs, masks, tc)
        assert history.train_loss[-1] < history.train_loss[0]

    def test_regression_perfect_predictions_give_zero_mae(self):
        pred = Tensor(np.array([[1.0], [2.0], [3.0]]))
        assert mae(pred, np.array([1.0, 2.0, 3.0])).values[0, 0] == 0.0

    def test_edge_features_flow_through_training(self):
        rng = np.random.default_rng(11)
        graphs = []
        for i in range(8):
            edges = np.array([[0, 1], [1, 2]]) if i % 2 == 0 else \
                np.array([[0, 1], [1, 2], [0, 2]])
            graphs.append(Graph(num_nodes=3, edges=edges,
                                node_features=rng.standard_normal((3, 2)),
                                edge_features=rng.standard_normal((len(edges), 3)),
                                graph_label=i % 2))
        cfg = ModelConfig(hidden_dim=8, head_hops=(2, 4), num_layers=1, ffn_dim=16,
                          num_heads=2, task="graph_classification", num_classes=2,
                          seed=0)
        masks = [build_head_masks(augment(g), list(cfg.head_hops)) for g in graphs]
        model = init_model(cfg, 2, d_e=3)
        before = model.proj_edge.values.copy()
        tc = TrainConfig(learning_rate=1e-2, epochs=10, batch_size=4, seed=0)
        model, history = train(model, graphs, masks, tc)
        assert history.train_loss[-1] < history.train_loss[0]
        assert not np.array_equal(model.proj_edge.values, before)


def regression_dataset(num=10, seed=10):
    rng = np.random.default_rng(seed)
    graphs = []
    for _ in range(num):
        n = int(rng.integers(3, 6))
        iu, ju = np.triu_indices(n, k=1)
        keep = rng.random(iu.shape[0]) < 0.6
        edges = np.column_stack([iu[keep], ju[keep]])
        graphs.append(Graph(num_nodes=n, edges=edges, node_features=np.ones((n, 1)),
                            graph_label=float(len(edges)) / n))
    return graphs


def task_fixture(task, dropout=0.2):
    """(model, dataset, masks, train config) for one task, small and seeded."""
    hops = (1, 3)
    if task == "node_classification":
        dataset = labelled_graph(n=20, seed=12)
        cfg = node_cfg(head_hops=hops, dropout=dropout)
        d_v = dataset.node_feature_dim
        masks = build_head_masks(augment(dataset), list(hops))
    else:
        dataset = tiny_graph_dataset() if task == "graph_classification" \
            else regression_dataset()
        cfg = ModelConfig(hidden_dim=8, head_hops=hops, num_layers=1, ffn_dim=16,
                          num_heads=2, task=task, dropout=dropout, seed=1,
                          num_classes=2 if task == "graph_classification" else None)
        d_v = dataset[0].node_feature_dim
        masks = [build_head_masks(augment(g), list(hops)) for g in dataset]
    tc = TrainConfig(learning_rate=2e-2, epochs=6, batch_size=3, seed=4)
    return init_model(cfg, d_v), dataset, masks, tc


TASKS = ["node_classification", "graph_classification", "graph_regression"]


class TestStackedHeadsDigest:
    """Stacking a graph's dense heads into one pass changes no result: seeded
    node and graph task trains give byte-identical parameters and history
    with the stacking bound at 0 (every dense head on its own) and at its
    default, every head held on the dense path on both sides."""

    @staticmethod
    def case(task):
        rng = np.random.default_rng(6)
        hops = (1, 2, 4, 8)
        if task == "node_classification":
            dataset = labelled_graph(n=14, seed=5)
            masks = build_head_masks(augment(dataset), list(hops))
        else:
            dataset = [Graph(num_nodes=n, edges=generate_erdos_renyi(n, 0.3, seed=n).edges,
                             node_features=rng.standard_normal((n, 3)), graph_label=n % 2)
                       for n in range(2, 16)]
            masks = [build_head_masks(augment(g), list(hops)) for g in dataset]
        cfg = ModelConfig(hidden_dim=8, head_hops=hops, num_layers=2, ffn_dim=8, num_heads=4,
                          dropout=0.1, attention_dropout=0.1, task=task, num_classes=2,
                          seed=3)
        return init_model(cfg, 3), dataset, masks, TrainConfig(
            learning_rate=1e-2, epochs=3, batch_size=4, seed=7)

    @pytest.mark.parametrize("task", ["node_classification", "graph_classification"])
    def test_train_is_byte_identical_without_stacking(self, task, monkeypatch):
        # the bound also sends small graphs' sparse heads to the dense path;
        # density 0 keeps every head there at either bound
        monkeypatch.setattr(ops, "DENSE_MIN_DENSITY", 0.0)
        calls = spy_on_paths(monkeypatch)
        runs = []
        for bound in (ops.STACK_MAX_TOKENS, 0):
            monkeypatch.setattr(ops, "STACK_MAX_TOKENS", bound)
            calls.clear()
            model, history = train(*self.case(task))
            runs.append((copy_parameter_values(model), history))
            assert {c.kind for c in calls} == {"multi-head" if bound > 0 else "one-head"}
        (params, history), (params_0, history_0) = runs
        assert params.keys() == params_0.keys()
        for name in params:
            assert params[name].tobytes() == params_0[name].tobytes(), name
        for name in ("train_loss", "val_metric", "test_metric", "best_epoch"):
            assert getattr(history, name) == getattr(history_0, name), name


class TestNonFiniteAttentionAborts:
    """A NaN that reaches the attention kernel's queries gives non-finite
    output rows on every kernel path, so the loss is non-finite and training
    aborts rather than training on."""

    @pytest.mark.parametrize("path", ["nnz", "one-head", "multi-head"])
    @pytest.mark.parametrize("task", ["node_classification", "graph_classification"])
    def test_nan_query_weight_aborts(self, path, task, monkeypatch):
        monkeypatch.setattr(ops, "DENSE_MIN_DENSITY", 2.0 if path == "nnz" else 0.0)
        monkeypatch.setattr(ops, "STACK_MAX_TOKENS", 10**6 if path == "multi-head" else 0)
        calls = spy_on_paths(monkeypatch)
        model, dataset, masks, tc = TestStackedHeadsDigest.case(task)
        named_parameters(model)["layer0.wqkv"].values[0, 0] = np.nan   # head 0's first q column
        with np.errstate(invalid="ignore", over="ignore"):
            # the first forward's loss, before any update could spread the NaN
            with pytest.raises(TrainingAbort, match=r"loss \(epoch 0, step 0\)"):
                train(model, dataset, masks, tc)
        assert calls and {c.kind for c in calls} == {path}


class TestNodeRowsInTraining:
    """A node task's last layer computes its node rows alone; graph tasks run
    every row of every layer."""

    def test_meter_counts_node_rows_in_the_last_layer_only(self):
        g = labelled_graph(n=20, seed=12)
        ag = augment(g)
        cfg = node_cfg(num_layers=3, head_hops=(1, 4))
        model = init_model(cfg, g.node_feature_dim)
        masks = build_head_masks(ag, list(cfg.head_hops))
        n, t, d_h = g.num_nodes, ag.total_tokens, cfg.head_dim
        with ops.scratch_tape(), ops.count_attention_flops() as meter:
            training._outputs(model, g, {0: masks}, [np.arange(n)])
        logical = executed = 0
        for mk in masks:
            node_nnz = int(mk.indptr[n])
            dense = mk.nnz >= ops.DENSE_MIN_DENSITY * t * t
            logical += 2 * ops.attention_flops(mk.nnz, d_h) + ops.attention_flops(node_nnz, d_h)
            executed += (2 * ops.attention_flops(t * t, d_h) + ops.attention_flops(n * t, d_h)
                         if dense else 2 * ops.attention_flops(mk.nnz, d_h)
                         + ops.attention_flops(node_nnz, d_h))
            assert node_nnz < mk.nnz
        assert meter.attention_flops == logical
        assert meter.executed_flops == executed
        assert executed > logical   # a head ran on the dense path

    def test_evaluate_meter_counts_layer_one_and_the_split_rows(self):
        # evaluate runs its last layer on the rows it scores alone: per head,
        # layer 1's stored entries and then the split rows' (r x T cells
        # executed on the dense path)
        g = labelled_graph(n=20, seed=12)
        ag = augment(g)
        cfg = node_cfg(num_layers=2, head_hops=(1, 4))
        model = init_model(cfg, g.node_feature_dim)
        masks = build_head_masks(ag, list(cfg.head_hops))
        t, d_h = ag.total_tokens, cfg.head_dim
        split = np.array([13, 2, 7, 19, 5])
        with ops.count_attention_flops() as meter:
            evaluate(model, g, masks, split)
        logical = executed = 0
        for mk in masks:
            split_nnz = int(np.diff(mk.indptr)[split].sum())
            dense = ops._runs_dense(mk)
            logical += ops.attention_flops(mk.nnz, d_h) + ops.attention_flops(split_nnz, d_h)
            executed += (ops.attention_flops(t * t, d_h) + ops.attention_flops(split.size * t, d_h)
                         if dense else ops.attention_flops(mk.nnz + split_nnz, d_h))
        assert meter.attention_flops == logical
        assert meter.executed_flops == executed
        assert executed > logical   # a head ran on the dense path

    @pytest.mark.parametrize("dropout", [0.0, 0.2])
    def test_edgeless_graph_trains_as_the_full_forward(self, monkeypatch, dropout):
        # N = T: asking for a set of node rows is taking those rows of the
        # forward on every row
        rng = np.random.default_rng(3)
        g = Graph(num_nodes=15, edges=np.zeros((0, 2), dtype=int),
                  node_features=rng.standard_normal((15, 3)), node_labels=rng.integers(0, 2, 15))
        tc = TrainConfig(learning_rate=2e-2, epochs=4, seed=3)

        def run():
            model = init_model(node_cfg(dropout=dropout, attention_dropout=dropout), 3)
            model, h = train(model, g, None, tc)
            return (h.train_loss, h.val_metric, h.test_metric, h.best_epoch), \
                copy_parameter_values(model)

        with_rows = run()
        real = training.forward
        monkeypatch.setattr(training, "forward",
                            lambda *a, rows=None, **kw: ops.take_rows(real(*a, **kw), rows))
        without_rows = run()
        assert with_rows[0] == without_rows[0]
        for k, v in with_rows[1].items():
            assert np.array_equal(v, without_rows[1][k]), k

    @pytest.mark.parametrize("task", ["graph_classification", "graph_regression"])
    def test_graph_tasks_run_every_row(self, monkeypatch, task):
        model, dataset, masks, tc = task_fixture(task)
        shapes = []
        real = ops.sparse_masked_attention
        monkeypatch.setattr(ops, "sparse_masked_attention", lambda q, k, *a, **kw: (
            shapes.append((q.values.shape, k.values.shape)) or real(q, k, *a, **kw)))
        train(model, dataset, masks, tc)
        assert shapes and all(qs == ks for qs, ks in shapes)


class TestOnePredictionPath:
    def test_node_task_runs_two_forwards_per_epoch(self, monkeypatch):
        model, g, masks, tc = task_fixture("node_classification")
        calls = []
        real = training.forward

        def counting(*args, **kwargs):
            calls.append(kwargs.get("training", False))
            return real(*args, **kwargs)

        monkeypatch.setattr(training, "forward", counting)
        _, history = train(model, g, masks, tc)
        assert len(history) == tc.epochs
        assert calls == [True, False] * tc.epochs

    @pytest.mark.parametrize("dropout, attention_dropout, patience, forwards", [
        (0.0, 0.0, 50, lambda e: e + 1),
        (0.0, 0.0, 0, lambda e: e + 1),     # early stop ends the run
        (0.2, 0.0, 50, lambda e: 2 * e),
        (0.0, 0.2, 50, lambda e: 2 * e)])
    def test_node_task_forwards_per_run(self, monkeypatch, dropout, attention_dropout,
                                        patience, forwards):
        # without dropout the forward that scores an epoch is the next
        # epoch's training forward; with any dropout each epoch runs two
        g = labelled_graph(n=20, seed=12)
        model = init_model(node_cfg(dropout=dropout, attention_dropout=attention_dropout),
                           g.node_feature_dim)
        tc = TrainConfig(learning_rate=2e-2, epochs=12, seed=4, early_stop_patience=patience)
        calls = []
        real = training.forward
        monkeypatch.setattr(training, "forward",
                            lambda *a, **kw: calls.append(1) or real(*a, **kw))
        _, history = train(model, g, None, tc)
        assert (len(history) < tc.epochs) == (patience == 0)
        assert len(calls) == forwards(len(history))

    @pytest.mark.parametrize("given", [True, False])
    @pytest.mark.parametrize("task", TASKS)
    def test_train_augments_only_to_build_masks(self, monkeypatch, task, given):
        # given masks need no augmented graph; with masks=None each graph's
        # masks are built from one augment call
        model, dataset, masks, tc = task_fixture(task)
        seen = []
        real = training.augment
        monkeypatch.setattr(training, "augment", lambda g: seen.append(id(g)) or real(g))
        train(model, dataset, masks if given else None, tc)
        graphs = [dataset] if task == "node_classification" else dataset
        assert sorted(seen) == ([] if given else sorted(id(g) for g in graphs))

    @pytest.mark.parametrize("task", TASKS)
    def test_best_epoch_test_metric_equals_evaluate(self, task):
        model, dataset, masks, tc = task_fixture(task)
        model, history = train(model, dataset, masks, tc)
        n = dataset.num_nodes if task == "node_classification" else len(dataset)
        _, idx_val, idx_test = split_indices(n, tc)
        best = history.best_epoch
        assert history.test_metric[best] == evaluate(model, dataset, masks, idx_test)
        assert history.val_metric[best] == evaluate(model, dataset, masks, idx_val)

    @pytest.mark.parametrize("task", TASKS[1:])
    def test_epoch_loss_is_the_mean_over_train_graphs(self, task):
        # with lr = 0 every batch sees the same parameters, so the size-weighted
        # mean of the batch losses is the mean of the per-graph losses
        model, graphs, masks, tc = task_fixture(task)
        frozen = TrainConfig(learning_rate=0.0, epochs=1, batch_size=tc.batch_size,
                             seed=tc.seed)
        _, history = train(model, graphs, masks, frozen)
        idx_train, _, _ = split_indices(len(graphs), frozen)
        losses = []
        with ops.scratch_tape():
            for i in idx_train:
                out = training._outputs(model, graphs, masks, [[i]], training=True,
                                        seed=tc.seed * 100003)[0]
                target = np.array([graphs[i].graph_label])
                losses.append(training._loss(task, out, target).values[0, 0])
        assert history.train_loss[0] == pytest.approx(np.mean(losses), rel=1e-12)

    def test_missing_graph_label_rejected_before_any_forward(self, monkeypatch):
        graphs = tiny_graph_dataset(num=5)
        graphs[1] = Graph(num_nodes=3, edges=np.array([[0, 1]]),
                          node_features=np.ones((3, 2)))
        cfg = ModelConfig(hidden_dim=8, head_hops=(1, 3), num_layers=1, ffn_dim=16,
                          num_heads=2, task="graph_classification", num_classes=2)
        masks = [build_head_masks(augment(g), [1, 3]) for g in graphs]
        model = init_model(cfg, 2)

        def no_forward(*args, **kwargs):
            raise AssertionError("forward ran")

        monkeypatch.setattr(training, "forward", no_forward)
        with pytest.raises(GraphError, match="graph 1 has no graph_label"):
            train(model, graphs, masks, TrainConfig(learning_rate=1e-2, epochs=2))
        with pytest.raises(GraphError, match="graph 1 has no graph_label"):
            evaluate(model, graphs, masks, np.arange(3))

    @pytest.mark.parametrize("fracs, split", [((0.6, 0.4, 0.0), "test"),
                                              ((0.8, 0.0, 0.2), "val"),
                                              ((0.0, 0.5, 0.5), "train")])
    def test_empty_split_rejected_before_any_forward(self, monkeypatch, fracs, split):
        graphs = tiny_graph_dataset(num=3)
        cfg = ModelConfig(hidden_dim=8, head_hops=(1, 3), num_layers=1, ffn_dim=16,
                          num_heads=2, task="graph_classification", num_classes=2)
        masks = [build_head_masks(augment(g), [1, 3]) for g in graphs]
        calls = []
        real = training.forward
        monkeypatch.setattr(training, "forward",
                            lambda *a, **k: calls.append(1) or real(*a, **k))
        tc = TrainConfig(learning_rate=1e-2, epochs=2, train_frac=fracs[0],
                         val_frac=fracs[1], test_frac=fracs[2])
        with pytest.raises(ValueError, match=f"the {split} split of 3 graphs is empty"):
            train(init_model(cfg, 2), graphs, masks, tc)
        assert calls == []

    def test_empty_node_split_names_the_node_count(self):
        g = labelled_graph(n=4)
        cfg = node_cfg()
        masks = build_head_masks(augment(g), list(cfg.head_hops))
        tc = TrainConfig(learning_rate=1e-2, epochs=1, train_frac=0.9, val_frac=0.1,
                         test_frac=0.0)
        with pytest.raises(ValueError, match="split of 4 nodes is empty"):
            train(init_model(cfg, 3), g, masks, tc)

    def test_zero_node_graph_rejected_before_any_forward(self, monkeypatch):
        graphs = tiny_graph_dataset(num=6)
        graphs[4] = Graph(num_nodes=0, edges=np.zeros((0, 2)),
                          node_features=np.zeros((0, 2)), graph_label=0)
        cfg = ModelConfig(hidden_dim=8, head_hops=(1, 3), num_layers=1, ffn_dim=16,
                          num_heads=2, task="graph_classification", num_classes=2)
        masks = [build_head_masks(augment(g), [1, 3]) for g in graphs]
        model = init_model(cfg, 2)

        def no_forward(*args, **kwargs):
            raise AssertionError("forward ran")

        monkeypatch.setattr(training, "forward", no_forward)
        with pytest.raises(GraphError, match="graph 4"):
            train(model, graphs, masks, TrainConfig(learning_rate=1e-2, epochs=2))
        with pytest.raises(GraphError, match="graph 4"):
            evaluate(model, graphs, masks, np.arange(3))


def reference_node_train(model, g, masks, tc):
    """The two-forward loop, from public pieces: each epoch a training
    forward, its backward and an Adam step, then a scoring forward for val
    and test; the checkpoint at the best val, ties to the lower loss."""
    idx_train, idx_val, idx_test = split_indices(g.num_nodes, tc)
    scored = [np.sort(idx_val), np.sort(idx_test)]
    params = named_parameters(model)
    state = init_adam_state(params)
    losses, vals, tests = [], [], []
    best_epoch = best_val = best_loss = None
    best_params = copy_parameter_values(model)
    since_best = 0
    for epoch in range(tc.epochs):
        training.zero_grads(params)
        with ops.scratch_tape():
            out = training._outputs(model, g, {0: masks}, [idx_train], training=True,
                                    seed=tc.seed * 100003 + epoch)[0]
            loss = training._loss(model.cfg.task, out, g.node_labels[idx_train])
            backward(loss)
        adam_step(params, training.collect_grads(params), state, tc.learning_rate,
                  weight_decay=tc.weight_decay)
        val, test = training._scores(model, g, {0: masks}, g.node_labels, scored)
        losses.append(float(loss.values[0, 0]))
        vals.append(val)
        tests.append(test)
        if best_val is None or val > best_val or (val == best_val and losses[-1] < best_loss):
            best_epoch, best_loss = epoch, losses[-1]
            best_params = copy_parameter_values(model)
        if best_val is None or val > best_val:
            best_val, since_best = val, 0
        else:
            since_best += 1
            if since_best > tc.early_stop_patience:
                break
    set_parameter_values(model, best_params)
    return losses, vals, tests, best_epoch


class TestHeldForwardMatchesTheReferenceLoop:
    @pytest.mark.parametrize("seed, epochs, patience, weight_decay", [
        (0, 8, 50, 0.0), (1, 8, 50, 1e-2), (2, 10, 50, 0.0), (3, 40, 1, 0.0)])
    def test_train_is_the_two_forward_loop_bit_for_bit(self, seed, epochs, patience,
                                                       weight_decay):
        g = labelled_graph(n=24, seed=seed)
        cfg = node_cfg(num_layers=2, head_hops=(1, 3), seed=seed)
        masks = build_head_masks(augment(g), list(cfg.head_hops))
        tc = TrainConfig(learning_rate=2e-2, epochs=epochs, seed=seed,
                         early_stop_patience=patience, weight_decay=weight_decay)
        model, history = train(init_model(cfg, g.node_feature_dim), g, masks, tc)
        ref_model = init_model(cfg, g.node_feature_dim)
        losses, vals, tests, best_epoch = reference_node_train(ref_model, g, masks, tc)
        assert (len(losses) < epochs) == (patience == 1)   # early stop ran
        assert history.train_loss == losses
        assert history.val_metric == vals
        assert history.test_metric == tests
        assert history.best_epoch == best_epoch
        for name, p in named_parameters(ref_model).items():
            assert named_parameters(model)[name].values.tobytes() == p.values.tobytes(), name
        _, _, idx_test = split_indices(g.num_nodes, tc)
        assert evaluate(model, g, masks, idx_test) == history.test_metric[best_epoch]


OWNED_TAPE_RUNS = [("node_classification", 0.0), ("node_classification", 0.2),
                   ("graph_classification", 0.2)]


class TestTrainOwnsItsTape:
    """train records on a tape of its own and leaves the caller's as it was,
    for the held node-task forward and for the per-step loop alike."""

    @pytest.mark.parametrize("task, dropout", OWNED_TAPE_RUNS)
    def test_abort_leaves_no_entry_on_the_callers_tape(self, task, dropout):
        model, dataset, masks, _ = task_fixture(task, dropout)
        with ops.scratch_tape() as tape, np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingAbort):
                train(model, dataset, masks, TrainConfig(learning_rate=1e150, epochs=10))
            assert tape == []

    @pytest.mark.parametrize("task, dropout", OWNED_TAPE_RUNS)
    def test_callers_entry_is_neither_run_nor_cleared(self, task, dropout):
        model, dataset, masks, tc = task_fixture(task, dropout)
        ran = []
        with ops.scratch_tape() as tape:
            ops.record(lambda: ran.append(1))
            entry = tape[0]
            _, history = train(model, dataset, masks, tc)
            assert len(history) == tc.epochs
            assert ran == [] and tape == [entry]


def batched_task_fixture(task):
    """A graph task with the options a stacked batch must keep apart per graph:
    pre-norm, sum readout, edge features, both dropouts and odd graph sizes."""
    rng = np.random.default_rng(21)
    graphs = []
    for i in range(14):
        n = int(rng.integers(1, 7))
        iu, ju = np.triu_indices(n, k=1)
        edges = np.column_stack([iu, ju])[rng.random(iu.size) < 0.5]
        graphs.append(Graph(num_nodes=n, edges=edges,
                            node_features=rng.standard_normal((n, 2)),
                            edge_features=rng.standard_normal((len(edges), 3)),
                            graph_label=(i % 2) if task == "graph_classification"
                            else float(len(edges)) / n))
    cfg = ModelConfig(hidden_dim=8, head_hops=(1, 4), num_layers=2, ffn_dim=16,
                      num_heads=2, task=task, norm="pre", readout="sum", dropout=0.2,
                      attention_dropout=0.2, seed=2,
                      num_classes=2 if task == "graph_classification" else None)
    tc = TrainConfig(learning_rate=2e-2, epochs=5, batch_size=4, seed=6)
    return init_model(cfg, 2, d_e=3), graphs, tc


class TestBatchedGraphTasks:
    @pytest.mark.parametrize("task", TASKS[1:])
    def test_evaluate_equals_the_recorded_metrics_bit_for_bit(self, task):
        model, graphs, tc = batched_task_fixture(task)
        masks = [build_head_masks(augment(g), [1, 4]) for g in graphs]
        model, history = train(model, graphs, masks, tc)
        _, idx_val, idx_test = split_indices(len(graphs), tc)
        best = history.best_epoch
        assert history.val_metric[best] == evaluate(model, graphs, masks, idx_val)
        assert history.test_metric[best] == evaluate(model, graphs, masks, idx_test)

    @pytest.mark.parametrize("task", TASKS)
    def test_masks_none_builds_the_configured_masks(self, task):
        if task == "node_classification":
            model, dataset, masks, tc = task_fixture(task)
            model2 = task_fixture(task)[0]
        else:
            (model, dataset, tc), model2 = batched_task_fixture(task), \
                batched_task_fixture(task)[0]
            masks = [build_head_masks(augment(g), [1, 4]) for g in dataset]
        _, given = train(model, dataset, masks, tc)
        _, built = train(model2, dataset, None, tc)
        assert given.train_loss == built.train_loss
        assert given.val_metric == built.val_metric
        for a, b in zip(named_parameters(model).values(), named_parameters(model2).values()):
            assert np.array_equal(a.values, b.values)
        split = np.arange(3)
        assert evaluate(model2, dataset, None, split) == evaluate(model, dataset, masks, split)

    def test_one_forward_per_batch_and_per_scored_split(self, monkeypatch):
        model, graphs, tc = batched_task_fixture("graph_classification")
        calls = []
        real = training.forward

        def counting(m, g, *args, **kwargs):
            calls.append((kwargs.get("training", False), len(g)))
            return real(m, g, *args, **kwargs)

        monkeypatch.setattr(training, "forward", counting)
        train(model, graphs, None, tc)
        idx_train, idx_val, idx_test = split_indices(len(graphs), tc)
        sizes = [min(tc.batch_size, idx_train.size - lo)
                 for lo in range(0, idx_train.size, tc.batch_size)]
        epoch = [(True, s) for s in sizes] + [(False, idx_val.size), (False, idx_test.size)]
        assert calls == epoch * tc.epochs


def graph_task_inputs():
    graphs = tiny_graph_dataset(num=6)
    cfg = ModelConfig(hidden_dim=8, head_hops=(1, 3), num_layers=1, ffn_dim=16,
                      num_heads=2, task="graph_classification", num_classes=2)
    masks = [build_head_masks(augment(g), [1, 3]) for g in graphs]
    return init_model(cfg, 2), graphs, masks


def relabelled(g, label):
    return Graph(num_nodes=g.num_nodes, edges=g.edges, node_features=g.node_features,
                 graph_label=label)


def refeatured(g, node_features=None, edge_features=None):
    return Graph(num_nodes=g.num_nodes, edges=g.edges,
                 node_features=g.node_features if node_features is None else node_features,
                 edge_features=edge_features, graph_label=g.graph_label)


# fault -> (error, message after the graph's name) for graph 1, a triangle
FIT_FAULTS = {
    "node dim": (GraphError, " has node/edge feature dims 1/0, the model expects 2/0"),
    "edge features, no edge projector": (
        GraphError, " has node/edge feature dims 2/3, the model expects 2/0"),
    "no edge features, an edge projector": (
        GraphError, " has node/edge feature dims 2/0, the model expects 2/3"),
    "mask count": (ShapeError, ": got 1 masks for 2 heads"),
    "mask size": (ShapeError, ": mask 0 covers 5 tokens, expected 6"),
    "mask budget": (ShapeError, ": mask 1 has hop budget 2, config says 3"),
}


def fit_fault(fault):
    """``graph_task_inputs`` with ``fault`` in graph 1."""
    model, graphs, masks = graph_task_inputs()
    g = graphs[1]
    if fault == "node dim":
        graphs[1] = refeatured(g, node_features=np.ones((3, 1)))
    elif fault == "edge features, no edge projector":
        graphs[1] = refeatured(g, edge_features=np.ones((3, 3)))
    elif fault == "no edge features, an edge projector":
        model = init_model(model.cfg, 2, 3)
        graphs = [x if i == 1 else refeatured(x, edge_features=np.ones((x.num_edges, 3)))
                  for i, x in enumerate(graphs)]
    elif fault == "mask count":
        masks[1] = masks[1][:1]
    elif fault == "mask size":
        masks[1] = masks[0]     # a path's masks (5 tokens)
    else:
        masks[1] = build_head_masks(augment(g), [1, 2])
    return model, graphs, masks


class TestPrepare:
    """Each refusal of ``_prepare`` comes from ``train`` and ``evaluate`` alike,
    names the item and runs no forward."""

    @staticmethod
    def refused_without_forward(monkeypatch, model, dataset, masks, match, error=ValueError):
        calls = []
        real = training.forward
        monkeypatch.setattr(training, "forward",
                            lambda *a, **k: calls.append(1) or real(*a, **k))
        n = dataset.num_nodes if isinstance(dataset, Graph) else len(dataset)
        with pytest.raises(error, match=match):
            train(model, dataset, masks, TrainConfig(learning_rate=1e-2, epochs=2))
        with pytest.raises(error, match=match):
            evaluate(model, dataset, masks, np.arange(n))
        assert calls == []

    @pytest.mark.parametrize("label, shown", [(1.5, "1.5"), (5, "5"), (-1, "-1")])
    def test_graph_class_outside_the_classes_refused(self, monkeypatch, label, shown):
        model, graphs, masks = graph_task_inputs()
        graphs[3] = relabelled(graphs[3], label)
        self.refused_without_forward(
            monkeypatch, model, graphs, masks,
            rf"graph 3 has graph_label {shown}, not a class in \[0, 2\)", GraphError)

    def test_node_class_outside_the_classes_refused(self, monkeypatch):
        g = labelled_graph()
        labels = g.node_labels.copy()
        labels[5] = 3
        g = Graph(num_nodes=g.num_nodes, edges=g.edges, node_features=g.node_features,
                  node_labels=labels)
        cfg = node_cfg()
        masks = build_head_masks(augment(g), list(cfg.head_hops))
        self.refused_without_forward(monkeypatch, init_model(cfg, 3), g, masks,
                                     r"node 5 has label 3, not a class in \[0, 2\)",
                                     GraphError)

    @pytest.mark.parametrize("task, message", [
        ("node_classification", "node classification trains on a single Graph"),
        ("graph_classification", "graph-level tasks train on a list of Graphs")])
    def test_dataset_of_the_wrong_kind_refused(self, monkeypatch, task, message):
        model, graphs, masks = graph_task_inputs()
        model = init_model(replace(model.cfg, task=task), 2)
        dataset, masks = (graphs, masks) if task == "node_classification" else (
            graphs[0], masks[0])
        self.refused_without_forward(monkeypatch, model, dataset, masks, f"^{message}$")

    def test_node_task_without_node_labels_refused(self, monkeypatch):
        g = labelled_graph()
        g = Graph(num_nodes=g.num_nodes, edges=g.edges, node_features=g.node_features)
        cfg = node_cfg()
        masks = build_head_masks(augment(g), list(cfg.head_hops))
        self.refused_without_forward(monkeypatch, init_model(cfg, 3), g, masks,
                                     "^node classification requires node_labels$")

    def test_integral_float_graph_class_trains_as_that_class(self):
        model, graphs, masks = graph_task_inputs()
        as_float = [relabelled(g, float(g.graph_label)) for g in graphs]
        assert evaluate(model, as_float, masks, np.arange(6)) == \
            evaluate(model, graphs, masks, np.arange(6))

    def test_multi_output_regression_refused(self, monkeypatch):
        # graph labels are single numbers: train failed at its first step
        # after building every mask, and evaluate scored column 0 alone
        graphs = regression_dataset()
        cfg = ModelConfig(hidden_dim=8, head_hops=(1, 3), num_layers=1, ffn_dim=16,
                          num_heads=2, task="graph_regression", output_dim=2)
        for masks in (None, [build_head_masks(augment(g), [1, 3]) for g in graphs]):
            self.refused_without_forward(
                monkeypatch, init_model(cfg, 1), graphs, masks,
                "^graph_regression trains on one graph_label per graph, so output_dim must "
                "be 1, got 2$")

    def test_regression_targets_are_not_class_checked(self):
        graphs = regression_dataset()
        cfg = ModelConfig(hidden_dim=8, head_hops=(1, 3), num_layers=1, ffn_dim=16,
                          num_heads=2, task="graph_regression")
        masks = [build_head_masks(augment(g), [1, 3]) for g in graphs]
        assert np.isfinite(evaluate(init_model(cfg, 1), graphs, masks, np.arange(10)))

    def test_node_feature_dim_of_every_graph_checked(self, monkeypatch):
        model, graphs, masks = graph_task_inputs()
        g = graphs[4]
        graphs[4] = Graph(num_nodes=g.num_nodes, edges=g.edges,
                          node_features=np.ones((g.num_nodes, 1)), graph_label=g.graph_label)
        self.refused_without_forward(
            monkeypatch, model, graphs, masks,
            "graph 4 has node/edge feature dims 1/0, the model expects 2/0", GraphError)

    def test_edge_feature_dim_of_every_graph_checked(self, monkeypatch):
        model, graphs, masks = graph_task_inputs()
        g = graphs[2]
        graphs[2] = Graph(num_nodes=g.num_nodes, edges=g.edges, node_features=g.node_features,
                          edge_features=np.ones((g.num_edges, 3)), graph_label=g.graph_label)
        self.refused_without_forward(
            monkeypatch, model, graphs, masks,
            "graph 2 has node/edge feature dims 2/3, the model expects 2/0", GraphError)

    def test_one_mask_list_per_graph(self, monkeypatch):
        model, graphs, masks = graph_task_inputs()
        self.refused_without_forward(monkeypatch, model, graphs, masks[:-1],
                                     "5 head-mask lists for 6 graphs")

    @pytest.mark.parametrize("entry, kind", [(None, "NoneType"), ("hop 3", "str")])
    def test_a_non_mask_head_entry_refused_by_head(self, monkeypatch, entry, kind):
        # failed with a bare AttributeError on .size
        g = labelled_graph()
        cfg = node_cfg()
        masks = build_head_masks(augment(g), list(cfg.head_hops))
        masks[1] = entry
        self.refused_without_forward(monkeypatch, init_model(cfg, 3), g, masks,
                                     f"^the graph: mask 1 is a {kind}, not a HopMask$",
                                     ShapeError)

    @pytest.mark.parametrize("entry, kind", [(None, "NoneType"), ("masks", "str")])
    def test_a_graphs_non_list_masks_refused_by_graph(self, monkeypatch, entry, kind):
        # a None entry passed the checks, then failed with a bare TypeError
        model, graphs, masks = graph_task_inputs()
        masks[3] = entry
        self.refused_without_forward(
            monkeypatch, model, graphs, masks,
            f"^graph 3: head masks must be a list of HopMask, got {kind}$", ShapeError)

    def test_each_mask_list_covers_its_graph(self, monkeypatch):
        model, graphs, masks = graph_task_inputs()
        masks[1] = masks[0]     # a path's masks (5 tokens) for a triangle (6 tokens)
        self.refused_without_forward(monkeypatch, model, graphs, masks,
                                     "graph 1: mask 0 covers 5 tokens, expected 6")

    @pytest.mark.parametrize("fault", FIT_FAULTS)
    def test_train_evaluate_and_forward_refuse_a_misfit_graph_alike(self, monkeypatch, fault):
        error, text = FIT_FAULTS[fault]
        model, graphs, masks = fit_fault(fault)
        self.refused_without_forward(monkeypatch, model, graphs, masks,
                                     f"^graph 1{re.escape(text)}$", error)
        with ops.scratch_tape() as tape:
            with pytest.raises(error, match=f"^batch graph 1{re.escape(text)}$"):
                forward(model, graphs, [augment(g) for g in graphs], masks)
            assert tape == []

    @pytest.mark.parametrize("split, match", [
        ([0, 6], r"the evaluated split holds index 6, outside \[0, 6\)"),
        ([-1, 2], r"the evaluated split holds index -1, outside \[0, 6\)"),
        ([0.5, 2], "the evaluated split must hold integers"),
        ([4, 1, 4], "the evaluated split holds index 4 more than once"),
        ([], "the evaluated split of 6 graphs is empty")])
    def test_bad_evaluated_split_refused(self, monkeypatch, split, match):
        model, graphs, masks = graph_task_inputs()
        monkeypatch.setattr(training, "forward", lambda *a, **k: pytest.fail("forward ran"))
        with pytest.raises(ValueError, match=match):
            evaluate(model, graphs, masks, split)

    @pytest.mark.parametrize("given", [True, False])
    def test_evaluate_augments_only_to_build_its_splits_masks(self, monkeypatch, given):
        model, graphs, masks = graph_task_inputs()
        seen = []
        real = training.augment
        monkeypatch.setattr(training, "augment", lambda g: seen.append(id(g)) or real(g))
        evaluate(model, graphs, masks if given else None, [4, 1])
        assert sorted(seen) == ([] if given else sorted([id(graphs[1]), id(graphs[4])]))
