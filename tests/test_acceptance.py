"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines on passing runs too.
"""

import time

import numpy as np

import hopformer as hf
from hopformer import autograd as ops
from hopformer.graphs import Graph
from hopformer.model import named_parameters

from helpers import (augmented_distances, brute_avg_path, brute_clustering,
                     dense_attention_oracle, dense_reachability_oracle,
                     dense_vanilla_encoder, mask_to_dense, path3_graph,
                     random_graph, random_graph_max_tokens, star_graph,
                     triangle_graph)


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[acceptance {num:02d}] {name}: {status}" + (f" ({detail})" if detail else "")
    print(line)
    import conftest
    conftest.ACCEPTANCE_LINES.append(line)
    assert ok, f"criterion {num}: {name} ({detail})"


def test_01_sparse_kernel_matches_masked_dense_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(200):
        g = random_graph_max_tokens(rng, max_tokens=40)
        ag = hf.augment(g)
        t = ag.total_tokens
        mask = hf.build_mask(ag, int(rng.integers(0, 6)))
        qv, kv, vv = rng.standard_normal((3, t, 4))
        out = hf.sparse_masked_attention(hf.Tensor(qv), hf.Tensor(kv),
                                         hf.Tensor(vv), mask)
        oracle = dense_attention_oracle(qv, kv, vv, mask_to_dense(mask))
        worst = max(worst, float(np.abs(out.values - oracle).max()))
    elapsed = time.perf_counter() - t0
    _report(1, "sparse kernel equals masked-dense oracle",
            worst <= 1e-10 and elapsed < 30.0,
            f"200 graphs, max abs err {worst:.2e}, {elapsed:.1f}s")


def test_02_mask_matches_dense_reachability_oracle():
    rng = np.random.default_rng(102)
    checked = 0
    for _ in range(200):
        g = random_graph_max_tokens(rng, max_tokens=40)
        ag = hf.augment(g)
        n = int(rng.integers(0, 7))
        exact = np.array_equal(mask_to_dense(hf.build_mask(ag, n)),
                               dense_reachability_oracle(ag, n))
        if not exact:
            _report(2, "hop masks equal dense reachability oracle", False,
                    f"mismatch at graph {checked}, n={n}")
        checked += 1
    _report(2, "hop masks equal dense reachability oracle", True,
            f"{checked} graphs exact")


def test_03_single_layer_locality_exhaustive():
    rng = np.random.default_rng(103)
    graphs = []
    while len(graphs) < 20:
        g = random_graph_max_tokens(rng, max_tokens=30, feature_dim=2)
        if g.num_edges > 0:
            graphs.append(g)
    violations = 0
    pairs = 0
    for gi, g in enumerate(graphs):
        ag = hf.augment(g)
        dist = augmented_distances(ag)
        for n in (0, 1, 2, 3):
            cfg = hf.ModelConfig(hidden_dim=8, head_hops=(n,), num_layers=1,
                                 ffn_dim=16, num_heads=1, task="graph_regression",
                                 seed=gi)
            model = hf.init_model(cfg, 2)
            masks = hf.build_head_masks(ag, [n])
            infl = hf.influence_matrix(model, masks, seed=gi)
            far = (dist < 0) | (dist > n)
            violations += int((infl & far).sum())
            pairs += int(far.sum())
    _report(3, "single-layer outputs bit-identical outside the hop ball",
            violations == 0, f"{pairs} far pairs over 20 graphs x 4 budgets, "
            f"{violations} violations")


def test_04_distinct_hop_heads_resolve_distance_three_token():
    g = path3_graph()                     # tokens a=0 b=1 c=2 e_ab=3 e_bc=4
    ag = hf.augment(g)
    dist = augmented_distances(ag)
    assert dist[0, 4] == 3
    masks_13 = hf.build_head_masks(ag, [1, 3])

    cfg = hf.ModelConfig(hidden_dim=8, head_hops=(1, 3), num_layers=1, ffn_dim=16,
                         num_heads=2, task="graph_regression", seed=0)
    model = hf.init_model(cfg, 1)
    hop1_sees = hf.influence_matrix(model, masks_13, head=0)[0, 4]
    hop3_sees = hf.influence_matrix(model, masks_13, head=1)[0, 4]
    concat_sees = hf.influence_matrix(model, masks_13)[0, 4]

    cfg_uni = hf.ModelConfig(hidden_dim=8, head_hops=(1, 1), num_layers=1, ffn_dim=16,
                             num_heads=2, task="graph_regression", seed=0)
    model_uni = hf.init_model(cfg_uni, 1)
    masks_11 = hf.build_head_masks(ag, [1, 1])
    uniform_sees = any([
        hf.influence_matrix(model_uni, masks_11, head=0)[0, 4],
        hf.influence_matrix(model_uni, masks_11, head=1)[0, 4],
        hf.influence_matrix(model_uni, masks_11)[0, 4],
    ])
    ok = hop3_sees and not hop1_sees and concat_sees and not uniform_sees
    _report(4, "hop-{1,3} heads separate a distance-3 token, hop-{1,1} cannot", ok,
            f"hop1={hop1_sees}, hop3={hop3_sees}, concat={concat_sees}, "
            f"uniform={uniform_sees}")


def test_05_full_model_gradients_match_finite_differences():
    t0 = time.perf_counter()
    rng = np.random.default_rng(105)
    g = Graph(num_nodes=5, edges=np.array([[0, 1], [1, 2], [2, 3], [3, 4]]),
              node_features=rng.standard_normal((5, 3)),
              node_labels=np.array([0, 1, 0, 1, 1]))
    ag = hf.augment(g)
    assert ag.total_tokens == 9
    cfg = hf.ModelConfig(hidden_dim=8, head_hops=(1, 3), num_layers=2, ffn_dim=16,
                         num_heads=2, task="node_classification", num_classes=2,
                         seed=3)
    model = hf.init_model(cfg, 3)
    masks = hf.build_head_masks(ag, list(cfg.head_hops))
    params = named_parameters(model)

    def loss_value() -> float:
        with ops.scratch_tape():
            h = hf.forward(model, g, ag, masks)
            logits = hf.predict_node(model, h, g.num_nodes)
            return float(hf.cross_entropy(logits, g.node_labels).values[0, 0])

    for p in params.values():
        p.grad = None
    h = hf.forward(model, g, ag, masks)
    loss = hf.cross_entropy(hf.predict_node(model, h, g.num_nodes), g.node_labels)
    ops.backward(loss)

    eps = 1e-5
    worst = 0.0
    worst_name = ""
    count = 0
    for name, p in params.items():
        analytic = p.grad if p.grad is not None else np.zeros_like(p.values)
        work = np.array(p.values, copy=True)
        p.values = work
        for idx in np.ndindex(*work.shape):
            base = work[idx]
            work[idx] = base + eps
            fp = loss_value()
            work[idx] = base - eps
            fm = loss_value()
            work[idx] = base
            numeric = (fp - fm) / (2 * eps)
            a = float(analytic[idx])
            rel = abs(a - numeric) / max(1.0, abs(a), abs(numeric))
            count += 1
            if rel > worst:
                worst, worst_name = rel, name
    elapsed = time.perf_counter() - t0
    _report(5, "full-model gradient matches central finite differences",
            worst <= 1e-4 and elapsed < 60.0,
            f"{count} coordinates, worst rel err {worst:.2e} at {worst_name}, "
            f"{elapsed:.1f}s")


def test_06_flops_linear_in_total_mask_nnz():
    graphs = [hf.generate_watts_strogatz(60, 4, beta, seed=s)
              for beta, s in ((0.0, 0), (0.15, 1), (0.5, 2))]
    cfg = hf.ModelConfig(hidden_dim=8, head_hops=(3, 6, 12, 24), num_layers=1,
                         ffn_dim=16, num_heads=4, task="graph_regression", seed=0)
    report = hf.flops_vs_nnz_report(
        graphs, [[3, 6, 12, 24], [3, 3, 6, 12], [3, 3, 3, 6], [3, 3, 3, 3]], cfg)
    ok = report.r_squared > 0.999 and report.slope > 0
    _report(6, "counted FLOPs fit a line in total mask nnz", ok,
            f"slope {report.slope:.2f}, r^2 {report.r_squared:.6f}, "
            f"{len(report.rows)} rows (instrumented kernel agreed exactly)")


def test_07_small_world_metrics_match_brute_force():
    assert hf.clustering_coefficient(triangle_graph()) == 1.0
    assert hf.avg_shortest_path(triangle_graph()) == 1.0
    assert hf.clustering_coefficient(path3_graph()) == 0.0
    assert abs(hf.avg_shortest_path(path3_graph()) - 4 / 3) <= 1e-12
    assert hf.clustering_coefficient(star_graph()) == 0.0
    assert abs(hf.avg_shortest_path(star_graph()) - 1.5) <= 1e-12

    rng = np.random.default_rng(107)
    worst_c = worst_l = 0.0
    for _ in range(500):
        g = random_graph(rng, max_nodes=12)
        worst_c = max(worst_c, abs(hf.clustering_coefficient(g) - brute_clustering(g)))
        worst_l = max(worst_l, abs(hf.avg_shortest_path(g) - brute_avg_path(g)))
    ok = worst_c <= 1e-12 and worst_l <= 1e-12
    _report(7, "clustering and path length match brute force on 500 graphs", ok,
            f"max err clustering {worst_c:.1e}, path {worst_l:.1e}; "
            "triangle/P3/star fixed values reproduced")


def test_08_sbm_training_reaches_thresholds():
    results = []
    for seed in (0, 1, 2):
        t0 = time.perf_counter()
        g = hf.generate_sbm((30, 30), 0.3, 0.02, seed=seed)
        ag, masks = hf.prepare_graph(g, [1, 3, 6, 12])
        cfg = hf.ModelConfig(hidden_dim=16, head_hops=(1, 3, 6, 12), num_layers=2,
                             ffn_dim=32, num_heads=4, task="node_classification",
                             num_classes=2, seed=seed)
        model = hf.init_model(cfg, g.node_feature_dim)
        tc = hf.TrainConfig(learning_rate=1e-2, epochs=200, seed=seed)
        model, history = hf.train(model, g, masks, tc)
        idx_train, _, idx_test = hf.split_indices(g.num_nodes, tc)
        train_acc = hf.evaluate(model, g, masks, idx_train)
        test_acc = hf.evaluate(model, g, masks, idx_test)
        elapsed = time.perf_counter() - t0
        results.append((seed, train_acc, test_acc, elapsed, len(history)))
    ok = all(tr >= 0.95 and te >= 0.85 and dt < 120.0
             for _, tr, te, dt, _ in results)
    detail = "; ".join(f"seed {s}: train {tr:.3f}, test {te:.3f}, {dt:.0f}s/{ep}ep"
                       for s, tr, te, dt, ep in results)
    _report(8, "two-block SBM training hits 0.95 train / 0.85 test", ok, detail)


def test_09_saturated_masks_reduce_to_vanilla_encoder():
    g = hf.generate_watts_strogatz(12, 4, 0.3, seed=1)
    ag = hf.augment(g)
    dist = augmented_distances(ag)
    assert (dist >= 0).all(), "fixture must be connected"
    diam = int(dist.max())
    cfg = hf.ModelConfig(hidden_dim=8, head_hops=(diam, diam + 3, diam + 7, diam + 11),
                         num_layers=2, ffn_dim=16, num_heads=4,
                         task="graph_regression", seed=2)
    model = hf.init_model(cfg, 1)
    masks = hf.build_head_masks(ag, list(cfg.head_hops))
    assert all(m.nnz == ag.total_tokens ** 2 for m in masks)
    got = hf.forward(model, g, ag, masks).values
    oracle = dense_vanilla_encoder(model, g.node_features,
                                   np.zeros((ag.num_edge_tokens, cfg.hidden_dim)))
    err = float(np.abs(got - oracle).max())
    _report(9, "hop budgets past the diameter reproduce the vanilla encoder",
            err <= 1e-10, f"max abs err {err:.2e}")


def test_10_graph_prediction_invariant_under_relabeling():
    rng = np.random.default_rng(110)
    cfg = hf.ModelConfig(hidden_dim=8, head_hops=(1, 2, 3, 6), num_layers=2,
                         ffn_dim=16, num_heads=4, task="graph_classification",
                         num_classes=3, readout="mean", seed=4)
    model = hf.init_model(cfg, 3)
    worst = 0.0
    for gi in range(10):
        g = random_graph(rng, max_nodes=10, feature_dim=3)
        ag = hf.augment(g)
        masks = hf.build_head_masks(ag, list(cfg.head_hops))
        with ops.scratch_tape():
            h = hf.forward(model, g, ag, masks)
            base = hf.predict_graph(model, hf.readout(h, cfg.readout)).values
        for _ in range(50):
            perm = rng.permutation(g.num_nodes)
            g2 = hf.relabel_nodes(g, perm)
            ag2 = hf.augment(g2)
            masks2 = hf.build_head_masks(ag2, list(cfg.head_hops))
            with ops.scratch_tape():
                h2 = hf.forward(model, g2, ag2, masks2)
                pred = hf.predict_graph(model, hf.readout(h2, cfg.readout)).values
            worst = max(worst, float(np.abs(pred - base).max()))
    _report(10, "graph-level prediction invariant under node relabeling",
            worst <= 1e-6, f"10 graphs x 50 relabelings, max abs diff {worst:.2e}")
