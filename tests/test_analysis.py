import hashlib
import re
import tracemalloc

import numpy as np
import pytest

from hopformer import (ModelConfig, ShapeError, augment, avg_shortest_path,
                       build_head_masks, clustering_coefficient,
                       dataset_small_world, flop_count, attention_flop_count,
                       flops_vs_nnz_report, generate_erdos_renyi,
                       generate_watts_strogatz, influence_matrix, init_model,
                       receptive_field_probe, small_world_report)
from hopformer import analysis
from hopformer import masks as masks_mod
from hopformer.graphs import Graph, GraphError

from helpers import (augmented_distances, brute_avg_path, brute_clustering,
                     brute_components_and_diameter,
                     path3_graph, random_graph, shuffled_reversed_copy,
                     single_edge_graph, star_graph, triangle_graph)


class TestClustering:
    def test_triangle(self):
        assert clustering_coefficient(triangle_graph()) == 1.0

    def test_path3(self):
        assert clustering_coefficient(path3_graph()) == 0.0

    def test_star(self):
        assert clustering_coefficient(star_graph()) == 0.0

    def test_ring_lattice(self):
        g = generate_watts_strogatz(20, 4, 0.0, seed=0)
        assert clustering_coefficient(g) == pytest.approx(0.5, abs=1e-12)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            g = random_graph(rng, max_nodes=12)
            assert clustering_coefficient(g) == pytest.approx(
                brute_clustering(g), abs=1e-12)


class TestAvgShortestPath:
    def test_triangle(self):
        assert avg_shortest_path(triangle_graph()) == 1.0

    def test_path3(self):
        assert avg_shortest_path(path3_graph()) == pytest.approx(4 / 3, abs=1e-12)

    def test_star(self):
        assert avg_shortest_path(star_graph()) == pytest.approx(1.5, abs=1e-12)

    def test_too_small(self):
        g = Graph(num_nodes=1, edges=np.zeros((0, 2)), node_features=np.ones((1, 1)))
        with pytest.raises(ValueError):
            avg_shortest_path(g)

    def test_disconnected_uses_reachable_pairs(self):
        g = Graph(num_nodes=4, edges=np.array([[0, 1], [2, 3]]),
                  node_features=np.ones((4, 1)))
        assert avg_shortest_path(g) == 1.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            g = random_graph(rng, max_nodes=12)
            assert avg_shortest_path(g) == pytest.approx(brute_avg_path(g), abs=1e-12)


class TestSmallWorldReport:
    def test_components_and_diameter(self):
        g = Graph(num_nodes=5, edges=np.array([[0, 1], [1, 2], [3, 4]]),
                  node_features=np.ones((5, 1)))
        rep = small_world_report(g)
        assert rep.num_components == 2
        assert rep.diameter_of_largest_component == 2
        assert rep.clustering == 0.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            g = random_graph(rng, max_nodes=14, p=float(rng.uniform(0.0, 0.3)))
            rep = small_world_report(g)
            assert (rep.num_components, rep.diameter_of_largest_component) == \
                brute_components_and_diameter(g)
            assert rep.avg_path_length == avg_shortest_path(g)

    def test_edge_order_and_orientation_do_not_matter(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            g = random_graph(rng, max_nodes=16, p=float(rng.uniform(0.0, 0.4)))
            assert small_world_report(shuffled_reversed_copy(g, rng)) == small_world_report(g)

    @pytest.mark.parametrize("edges, diameter", [
        ([[0, 1], [1, 2], [3, 4], [4, 5], [3, 5]], 2),   # path first, then triangle
        ([[0, 1], [1, 2], [0, 2], [3, 4], [4, 5]], 1),   # triangle first, then path
    ])
    def test_tied_largest_component_is_the_first(self, edges, diameter):
        g = Graph(num_nodes=6, edges=np.array(edges), node_features=np.ones((6, 1)))
        rep = small_world_report(g)
        assert rep.num_components == 2
        assert rep.diameter_of_largest_component == diameter

    @pytest.mark.parametrize("n", [63, 64, 65, 127, 128, 129])
    def test_word_edges_match_scipy_shortest_path(self, n):
        csgraph = pytest.importorskip("scipy.sparse.csgraph")
        sparse = pytest.importorskip("scipy.sparse")
        rng = np.random.default_rng([n, 9])
        for p in (0.01, 0.03, 0.2):   # many components, a few, one
            g = generate_erdos_renyi(n, p, seed=int(rng.integers(2**31)))
            rep = small_world_report(g)
            rows = g.edges.ravel()
            adj = sparse.csr_matrix((np.ones(rows.size), (rows, g.edges[:, ::-1].ravel())),
                                    shape=(n, n))
            dist = csgraph.shortest_path(adj, unweighted=True)
            reach = np.isfinite(dist) & (dist > 0)
            assert rep.avg_path_length == pytest.approx(
                dist[reach].mean() if reach.any() else 0.0, abs=1e-12)
            labels = csgraph.connected_components(adj, directed=False)[1]
            sizes = np.bincount(labels)
            # ties: the component of the smallest node id
            largest = labels == labels[np.flatnonzero(sizes[labels] == sizes.max())[0]]
            assert rep.num_components == sizes.size
            assert rep.diameter_of_largest_component == int(
                dist[np.ix_(largest, largest)].max())

    # sha256 of repr(small_world_report(g)), computed with the key search
    # that the bit-row search replaced: the reports must not move
    PINNED = {
        "ws50": (lambda: generate_watts_strogatz(50, 6, 0.1, seed=1),
                 "fced941ffcaf6e13894c7de73bbcaae0a0e8668d347cff9d9df688a2d67efe61"),
        "ring300": (lambda: generate_watts_strogatz(300, 2, 0.0, seed=3),
                    "d5cdbb61cebef2701a65cc7d643c2bc1dcaf9cf3a06bc03fc60188d29dc7008b"),
        "er40": (lambda: generate_erdos_renyi(40, 0.04, seed=6),
                 "1c53c7b5ef989a7d3ea21c61f71fcb954bf9ca40886d437e7a72d0c414c66355"),
        "multi_block": (lambda: generate_watts_strogatz(1100, 4, 0.1, seed=3),
                        "cdfffe0a44e18385bc79f6b500f44e4cb6d7b80dafcb7be8801af171da985330"),
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_pinned_digests(self, name):
        make, digest = self.PINNED[name]
        assert hashlib.sha256(repr(small_world_report(make())).encode()).hexdigest() == digest

    def test_dataset_means(self):
        tri, p3 = triangle_graph(), path3_graph()
        assert dataset_small_world([tri, tri]) == (1.0, 1.0)
        c, l = dataset_small_world([tri, p3])
        assert c == pytest.approx(0.5)
        assert l == pytest.approx(7 / 6, abs=1e-12)
        single = dataset_small_world([p3])
        assert single == (clustering_coefficient(p3), avg_shortest_path(p3))

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            dataset_small_world([])

    def test_small_world_signature_of_ws_sweep(self):
        # seed-averaged: rewiring shortens paths fast while clustering decays
        # slowly, the regime separating beta = 0.1 from both extremes
        betas = (0.0, 0.1, 1.0)
        mean_c = {}
        mean_l = {}
        for beta in betas:
            cs, ls = [], []
            for seed in range(10):
                g = generate_watts_strogatz(50, 6, beta, seed=seed)
                cs.append(clustering_coefficient(g))
                ls.append(avg_shortest_path(g))
            mean_c[beta] = np.mean(cs)
            mean_l[beta] = np.mean(ls)
        assert mean_l[0.0] > mean_l[0.1] > mean_l[1.0]
        assert mean_c[0.1] >= 0.6 * mean_c[0.0]
        assert mean_c[1.0] <= 0.5 * mean_c[0.0]


def _edge_graph(n, edges):
    return Graph(num_nodes=n, edges=np.array(edges, dtype=np.int64).reshape(-1, 2),
                 node_features=np.ones((n, 1)))


def _scipy_report(g):
    """(avg path length, components, largest component's diameter) from
    scipy's csgraph, ties to the component of the smallest node id."""
    csgraph = pytest.importorskip("scipy.sparse.csgraph")
    sparse = pytest.importorskip("scipy.sparse")
    n = g.num_nodes
    adj = sparse.csr_matrix((np.ones(2 * g.num_edges), (g.edges.ravel(),
                                                         g.edges[:, ::-1].ravel())),
                            shape=(n, n))
    dist = csgraph.shortest_path(adj, unweighted=True)
    reach = np.isfinite(dist) & (dist > 0)
    count, labels = csgraph.connected_components(adj, directed=False)
    sizes = np.bincount(labels)
    largest = labels == labels[np.flatnonzero(sizes[labels] == sizes.max())[0]]
    return (dist[reach].mean() if reach.any() else 0.0, count,
            int(dist[np.ix_(largest, largest)].max()))


def _dense_clustering(g):
    """Mean local clustering from the diagonal of A^3 (twice each node's
    neighbour links), a dense matrix count independent of the bit rows."""
    n = g.num_nodes
    a = np.zeros((n, n))
    a[g.edges[:, 0], g.edges[:, 1]] = a[g.edges[:, 1], g.edges[:, 0]] = 1.0
    deg = a.sum(axis=1)
    links2 = np.einsum("ij,ji->i", a @ a, a)
    ok = deg >= 2
    return float((links2[ok] / (deg[ok] * (deg[ok] - 1))).sum() / n)


class TestColumnBlocks:
    """The small-world search runs over column blocks of 64 * w columns,
    w = max(1, BLOCK_CELLS // (2E + n)) words.  Shrinking BLOCK_CELLS splits
    a report into many blocks, of odd widths and with a last block narrower
    than a word, and the report must not move."""

    GRAPHS = {
        # 1100 = 17 * 64 + 12; past the key search's old bound, n * 2E > 2^20
        "ws1100": generate_watts_strogatz(1100, 4, 0.1, seed=3),
        "er400": generate_erdos_renyi(400, 0.2, seed=0),
        "er150_sparse": generate_erdos_renyi(150, 0.012, seed=4),   # components, isolated nodes
        "ws200_two_parts": Graph(
            num_nodes=200, node_features=np.ones((200, 1)),
            edges=np.vstack([generate_watts_strogatz(120, 6, 0.2, seed=2).edges,
                             generate_watts_strogatz(70, 4, 0.5, seed=5).edges + 130])),
        "edgeless": _edge_graph(70, []),
        "n2_edge": _edge_graph(2, [[0, 1]]),
        "n2_edgeless": _edge_graph(2, []),
    }

    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_blocks_equal_one_block_scipy_and_dense_clustering(self, monkeypatch, name):
        g = self.GRAPHS[name]
        n, cells = g.num_nodes, 2 * g.num_edges + g.num_nodes
        assert -(-n // 64) * cells <= masks_mod.BLOCK_CELLS   # one block by default
        whole = small_world_report(g)
        avg, count, diameter = _scipy_report(g)
        assert whole.avg_path_length == pytest.approx(avg, abs=1e-12)
        assert (whole.num_components, whole.diameter_of_largest_component) == (count, diameter)
        assert whole.clustering == pytest.approx(_dense_clustering(g), abs=1e-12)
        for words in (1, 3, 5):   # blocks of 64, 192 and 320 columns
            monkeypatch.setattr(masks_mod, "BLOCK_CELLS", words * cells)
            assert small_world_report(g) == whole
            assert clustering_coefficient(g) == whole.clustering
            assert avg_shortest_path(g) == whole.avg_path_length

    def test_a_later_block_keeps_an_earlier_larger_eccentricity(self, monkeypatch):
        # the path 0 - 2 - 3 - ... - 65 - 1: its ends 0 and 1 lie in the first
        # 64-column block, and the second block (nodes 64, 65) is nearer to
        # both, so the diameter 65 survives only as a maximum over blocks
        g = _edge_graph(66, [[0, 2], *([k, k + 1] for k in range(2, 65)), [65, 1]])
        monkeypatch.setattr(masks_mod, "BLOCK_CELLS", 2 * g.num_edges + g.num_nodes)
        rep = small_world_report(g)
        assert (rep.num_components, rep.diameter_of_largest_component) == (1, 65)
        assert rep.avg_path_length == pytest.approx(brute_avg_path(g), abs=1e-12)

    def test_a_component_keeps_the_label_of_its_first_block(self, monkeypatch):
        # the path 0 - 128 - 129 and the triangle 1, 2, 3 tie as the largest
        # components; the path holds node 0 and so wins the tie, though its
        # members in the last 64-column block would label it 128
        g = _edge_graph(130, [[0, 128], [128, 129], [1, 2], [2, 3], [1, 3]])
        monkeypatch.setattr(masks_mod, "BLOCK_CELLS", 2 * g.num_edges + g.num_nodes)
        rep = small_world_report(g)
        assert (rep.num_components, rep.diameter_of_largest_component) == (126, 2)

    def test_memory_stays_within_the_block_bound(self, monkeypatch):
        # tracemalloc sees numpy's array buffers.  At 2^16 cells a block is 2
        # words wide, and the 6000-node search runs in 47 blocks; one block
        # would gather (2E + n) x 94 words, over 3 times the bound (a one-block
        # pass of this graph peaked at 41.6 MB, the 47 blocks at 2.3 MB)
        g = generate_erdos_renyi(6000, 0.0005, seed=3)
        cells = 2**16
        monkeypatch.setattr(masks_mod, "BLOCK_CELLS", cells)
        n, links = g.num_nodes, 2 * g.num_edges
        bound = 4 * 8 * cells + 96 * (n + links)
        assert 8 * (links + n) * -(-n // 64) > 3 * bound
        tracemalloc.start()
        try:
            small_world_report(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound


def probe_cfg(hops, d=8):
    return ModelConfig(hidden_dim=d, head_hops=tuple(hops), num_layers=1,
                       ffn_dim=2 * d, num_heads=len(hops),
                       task="graph_regression", seed=0)


def _count_probes(monkeypatch) -> list:
    """The calls to the probe forward, one entry each, from now on."""
    calls = []
    real = analysis._probe_output
    monkeypatch.setattr(analysis, "_probe_output",
                        lambda *a: calls.append(a) or real(*a))
    return calls


class TestReceptiveFieldProbe:
    def test_identity_mask_probe_returns_self(self):
        g = path3_graph()
        ag = augment(g)
        cfg = probe_cfg([0])
        model = init_model(cfg, 1)
        masks = build_head_masks(ag, [0])
        for i in range(ag.total_tokens):
            # FFN and residuals are per-token, so only i itself can influence i
            assert receptive_field_probe(model, masks, i) == {i}

    def test_single_edge_probe_within_mask_row(self):
        g = single_edge_graph()
        ag = augment(g)                       # tokens a=0, b=1, e=2
        cfg = probe_cfg([1])
        model = init_model(cfg, 2)
        masks = build_head_masks(ag, [1])
        probe = receptive_field_probe(model, masks, 0)
        assert probe <= {0, 2}

    def test_probe_subset_of_mask_support(self):
        rng = np.random.default_rng(31)
        for trial in range(5):
            g = random_graph(rng, max_nodes=7)
            ag = augment(g)
            hops = [int(rng.integers(0, 4)) for _ in range(2)]
            cfg = probe_cfg(hops)
            model = init_model(cfg, g.node_feature_dim)
            masks = build_head_masks(ag, hops)
            infl = influence_matrix(model, masks, seed=trial)
            dist = augmented_distances(ag)
            reach = (dist >= 0) & (dist <= max(hops))
            assert not infl[~reach].any()

    def test_distinct_hops_resolve_distance_three_token(self):
        # path a-b-c: tokens a=0, b=1, c=2, e_ab=3, e_bc=4; dist(a, e_bc) = 3
        g = path3_graph()
        ag = augment(g)
        dist = augmented_distances(ag)
        assert dist[0, 4] == 3
        model = init_model(probe_cfg([1, 3]), 1)
        masks = build_head_masks(ag, [1, 3])
        hop1 = influence_matrix(model, masks, head=0)
        hop3 = influence_matrix(model, masks, head=1)
        full = influence_matrix(model, masks)
        assert not hop1[0, 4]
        assert hop3[0, 4]
        assert full[0, 4]

    @pytest.mark.parametrize("head, message", [
        (2, "head must be one of the model's heads 0..1, got 2"),
        (-1, "head must be one of the model's heads 0..1, got -1"),
        (1.5, "head must be an integer, got 1.5"),
        (True, "head must be an integer, got True"),
        ("1", "head must be an integer, got '1'")])
    def test_head_outside_the_model_refused_before_any_probe(self, head, message,
                                                             monkeypatch):
        # a slice past the last head is empty and would compare equal
        # everywhere; True was head 1, and 1.5 a TypeError from the slice
        ag = augment(path3_graph())
        model = init_model(probe_cfg([1, 3]), 1)
        probes = _count_probes(monkeypatch)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            influence_matrix(model, build_head_masks(ag, [1, 3]), head=head)
        assert probes == []

    def test_integral_float_head_is_that_head(self):
        ag = augment(path3_graph())
        model = init_model(probe_cfg([1, 3]), 1)
        masks = build_head_masks(ag, [1, 3])
        assert np.array_equal(influence_matrix(model, masks, head=1.0),
                              influence_matrix(model, masks, head=1))

    @pytest.mark.parametrize("token, message", [
        (-1, "token must be in [0, 5) for 5 tokens, got -1"),
        (5, "token must be in [0, 5) for 5 tokens, got 5"),
        (1.5, "token must be an integer, got 1.5"),
        (True, "token must be an integer, got True")])
    def test_token_outside_the_graph_refused_before_any_probe(self, token, message,
                                                              monkeypatch):
        # -1 gave the last token's field and True token 1's; 5 and 1.5 raised
        # IndexError after all T + 1 probe forwards
        ag = augment(path3_graph())
        model = init_model(probe_cfg([1, 3]), 1)
        probes = _count_probes(monkeypatch)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            receptive_field_probe(model, build_head_masks(ag, [1, 3]), token)
        assert probes == []

    def test_integral_float_token_is_that_token(self):
        ag = augment(path3_graph())
        model = init_model(probe_cfg([1, 3]), 1)
        masks = build_head_masks(ag, [1, 3])
        assert receptive_field_probe(model, masks, 4.0) == receptive_field_probe(model, masks, 4)

    def test_uniform_hops_cannot_resolve_it(self):
        g = path3_graph()
        ag = augment(g)
        model = init_model(probe_cfg([1, 1]), 1)
        masks = build_head_masks(ag, [1, 1])
        assert not influence_matrix(model, masks, head=0)[0, 4]
        assert not influence_matrix(model, masks, head=1)[0, 4]
        assert not influence_matrix(model, masks)[0, 4]


class TestFlopModel:
    def test_attention_term_linear_in_nnz(self):
        g = generate_erdos_renyi(10, 0.3, seed=41)
        ag = augment(g)
        cfg = probe_cfg([2, 2])
        masks = build_head_masks(ag, [2, 2])
        base = attention_flop_count(cfg, masks)
        doubled = attention_flop_count(cfg, masks + masks)
        assert doubled == 2 * base

    def test_identity_masks_closed_form(self):
        g = generate_erdos_renyi(8, 0.4, seed=43)
        ag = augment(g)
        t = ag.total_tokens
        for num_heads, layers in ((2, 1), (4, 3)):
            cfg = ModelConfig(hidden_dim=8, head_hops=(0,) * num_heads,
                              num_layers=layers, ffn_dim=16, num_heads=num_heads,
                              task="graph_regression", seed=0)
            masks = build_head_masks(ag, [0] * num_heads)
            expect = num_heads * t * (4 * cfg.head_dim + 5) * layers
            assert attention_flop_count(cfg, masks) == expect

    def test_total_flops_affine_in_nnz_with_zero_residual(self):
        g = generate_watts_strogatz(30, 4, 0.2, seed=3)
        ag = augment(g)
        cfg = ModelConfig(hidden_dim=8, head_hops=(1, 1, 1, 1), num_layers=1,
                          ffn_dim=16, num_heads=4, task="graph_regression", seed=0)
        xs, ys = [], []
        for hops in ([1, 2, 3, 4], [2, 2, 4, 4], [1, 1, 1, 6], [3, 3, 3, 3]):
            masks = build_head_masks(ag, hops)
            xs.append(sum(m.nnz for m in masks))
            ys.append(flop_count(cfg, g, masks))
        slope, intercept = np.polyfit(xs, ys, 1)
        fitted = slope * np.asarray(xs) + intercept
        assert np.abs(fitted - np.asarray(ys)).max() < 1e-6 * max(ys)
        assert slope > 0

    def test_edge_features_cost_their_projector(self):
        # the edge projector is a (d_e x d) matmul over the M edge tokens
        g = generate_erdos_renyi(10, 0.4, seed=5)
        with_edges = Graph(num_nodes=g.num_nodes, edges=g.edges, node_features=g.node_features,
                           edge_features=np.ones((g.num_edges, 3)))
        cfg = probe_cfg([1, 2])
        masks = build_head_masks(augment(g), [1, 2])
        assert g.num_edges > 0
        assert flop_count(cfg, with_edges, masks) - flop_count(cfg, g, masks) == \
            2 * g.num_edges * 3 * cfg.hidden_dim

    def test_another_graphs_masks_refused(self):
        # a 5-node graph costed with an 8-node graph's masks returned 13588
        small, large = (generate_erdos_renyi(n, 0.5, seed=1) for n in (5, 8))
        masks = build_head_masks(augment(large), [1, 2])
        t_small, t_large = (x.num_nodes + x.num_edges for x in (small, large))
        with pytest.raises(ShapeError,
                           match=f"^mask 0 covers {t_large} tokens, expected {t_small}$"):
            flop_count(probe_cfg([1, 2]), small, masks)

    @pytest.mark.parametrize("count", [0, 2, 5])
    def test_a_mask_count_other_than_the_heads_refused(self, count):
        # on 4 heads, 2 masks or none were priced: work no forward can do
        g = generate_erdos_renyi(12, 0.2, seed=47)
        masks = build_head_masks(augment(g), [1, 2, 3, 4, 5])[:count]
        with pytest.raises(ShapeError, match=f"^got {count} masks for 4 heads$"):
            flop_count(probe_cfg([1, 2, 3, 4]), g, masks)

    @pytest.mark.parametrize("entry, kind", [(None, "NoneType"), ("hop 2", "str")])
    def test_a_non_mask_entry_refused_by_head(self, entry, kind):
        g = generate_erdos_renyi(12, 0.2, seed=47)
        masks = build_head_masks(augment(g), [1, 2])
        masks[1] = entry
        with pytest.raises(ShapeError, match=f"^mask 1 is a {kind}, not a HopMask$"):
            flop_count(probe_cfg([1, 2]), g, masks)

    @pytest.mark.parametrize("task", ["graph_classification", "graph_regression",
                                      "node_classification"])
    def test_zero_node_graph(self, task):
        # a graph-level count priced readout and prediction head, 42 FLOPs at
        # hidden 8, 2 classes and mean readout, for a graph no forward can pool
        g = Graph(num_nodes=0, edges=np.zeros((0, 2)), node_features=np.zeros((0, 1)))
        cfg = ModelConfig(hidden_dim=8, head_hops=(1, 2), num_layers=1, ffn_dim=16,
                          num_heads=2, task=task, readout="mean",
                          num_classes=None if task == "graph_regression" else 2, seed=0)
        masks = build_head_masks(augment(g), [1, 2])
        if task == "node_classification":
            assert flop_count(cfg, g, masks) == 0
            return
        with pytest.raises(GraphError, match="^the graph has no nodes; graph-level tasks "
                                             "need at least one$"):
            flop_count(cfg, g, masks)

    def test_flop_count_monotone_in_nnz(self):
        g = generate_erdos_renyi(12, 0.2, seed=47)
        ag = augment(g)
        cfg = probe_cfg([1, 2])
        counts = []
        for hops in ([0, 0], [1, 1], [2, 3], [4, 6]):
            masks = build_head_masks(ag, hops)
            counts.append(flop_count(cfg, g, masks))
        assert counts == sorted(counts)
        assert len(set(counts)) == len(counts)


class TestFlopsReport:
    def test_constant_totals_fit_with_r_squared_one(self):
        # with no layers every total is the same; polyfit's rounding left
        # ss_res ~1e-16 over ss_tot = 0, a ZeroDivisionError
        graphs = [Graph(num_nodes=4, edges=np.array([[0, 1], [1, 2], [2, 3]]),
                        node_features=np.ones((4, 1))) for _ in range(5)]
        cfg = ModelConfig(hidden_dim=8, head_hops=(1, 1), num_layers=0, ffn_dim=16,
                          num_heads=2, task="graph_regression")
        report = flops_vs_nnz_report(graphs, [[1, 1], [1, 2], [2, 2]], cfg)
        assert len({r.total_flops for r in report.rows}) == 1
        assert report.r_squared == 1.0

    def test_report_fit_and_instrumented_agreement(self):
        graphs = [generate_watts_strogatz(20, 4, beta, seed=s)
                  for beta, s in ((0.0, 0), (0.2, 1), (0.6, 2))]
        cfg = ModelConfig(hidden_dim=8, head_hops=(3, 6, 12, 24), num_layers=1,
                          ffn_dim=16, num_heads=4, task="graph_regression", seed=0)
        report = flops_vs_nnz_report(
            graphs, [[3, 6, 12, 24], [3, 3, 6, 12], [3, 3, 3, 6], [3, 3, 3, 3]], cfg)
        assert len(report.rows) == 12
        assert report.slope > 0
        assert report.r_squared > 0.999
        # independent least-squares oracle over the emitted rows
        x = np.array([r.total_mask_nnz for r in report.rows], dtype=float)
        y = np.array([r.total_flops for r in report.rows], dtype=float)
        slope, intercept = np.polyfit(x, y, 1)
        assert slope == pytest.approx(report.slope)
        ss_res = float(((y - (slope * x + intercept)) ** 2).sum())
        ss_tot = float(((y - y.mean()) ** 2).sum())
        assert 1 - ss_res / ss_tot == pytest.approx(report.r_squared)

    def test_requires_three_configs(self):
        g = generate_erdos_renyi(6, 0.5, seed=0)
        cfg = probe_cfg([1, 2])
        with pytest.raises(ValueError, match="3"):
            flops_vs_nnz_report([g], [[1, 2], [2, 3]], cfg)

    def test_empty_graph_list_rejected(self):
        with pytest.raises(ValueError, match="non-empty graph list"):
            flops_vs_nnz_report([], [[1, 2], [2, 3], [3, 4]], probe_cfg([1, 2]))

    def test_zero_node_graph_refused_by_index(self):
        empty = Graph(num_nodes=0, edges=np.zeros((0, 2)), node_features=np.zeros((0, 1)))
        graphs = [generate_watts_strogatz(12, 4, 0.3, seed=0), empty]
        with pytest.raises(GraphError, match="^graph 1 has no nodes; graph-level tasks "
                                             "need at least one$"):
            flops_vs_nnz_report(graphs, [[1, 1], [1, 3], [2, 4]], probe_cfg([1, 2]))

    def test_degenerate_fit_rejected(self):
        g = Graph(num_nodes=4, edges=np.zeros((0, 2)), node_features=np.ones((4, 1)))
        cfg = probe_cfg([1, 2])
        # edgeless graph: every hop budget yields the identity mask
        with pytest.raises(ValueError, match="degenerate"):
            flops_vs_nnz_report([g], [[1, 2], [3, 4], [5, 6]], cfg)

    def test_csv_has_schema_and_fit(self, tmp_path):
        import io
        graphs = [generate_watts_strogatz(12, 4, 0.3, seed=0)]
        cfg = probe_cfg([1, 2])
        report = flops_vs_nnz_report(graphs, [[1, 1], [1, 3], [2, 4]], cfg)
        buf = io.StringIO()
        report.to_csv(buf)
        text = buf.getvalue()
        assert text.startswith("# schema:")
        assert "# fit:" in text
        assert len([ln for ln in text.splitlines() if not ln.startswith("#")]) == 3
