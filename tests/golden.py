"""Seeded digests of the package's results, for ``tests/golden.json``.

Each case builds its inputs from a seed, builds every graph's head masks,
trains a fresh model and evaluates it on the train, val and test splits, and
records sha256 digests of:

- ``masks``: every graph's head masks (budget, size, CSR arrays and dtypes);
- ``train``: the trained parameters, in checkpoint order, and the history's
  losses, metrics and best epoch (not its seconds);
- ``evaluate``: the score of each split;

next to two readable summary floats.  The benchmark's three in-process
workloads run at seeds 3 and 4, built by ``bench/workloads.make_inputs``; the
extra cases cover what no workload does: dropout and attention dropout,
edge features, ``graph_regression``, ``sum`` readout, ``pre`` norm, weight
decay, and a dropout batch of graphs above ``autograd.STACK_MAX_TOKENS``.

Digests are bit-identical only within one numpy and BLAS build, on CPUs
with the same SIMD features, and at one BLAS thread, so the script runs only
with ``OPENBLAS_NUM_THREADS=1`` and records the build and the CPU features
(``hopformer.cli._numeric_build``).  Print the record as JSON, or rewrite
``tests/golden.json`` with ``--write``:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/golden.py [--write]

A change that moves seeded results rewrites the file and says which digests
moved and why.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden.json"
SEEDS = (3, 4)
WORKLOADS = ("sbm_node", "er_graph", "sparse_large")


def _digest(items) -> str:
    """sha256 over arrays (dtype, shape and bytes) and Python numbers."""
    h = hashlib.sha256()
    for x in items:
        a = np.asarray(x)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _case(hf, data, model_cfg, train_cfg, d_v, d_e=0) -> dict:
    node_task = model_cfg.task == "node_classification"
    graphs = [data] if node_task else list(data)
    mask_sets = [hf.build_head_masks(hf.augment(g), list(model_cfg.head_hops)) for g in graphs]
    masks = mask_sets[0] if node_task else mask_sets
    model, history = hf.train(hf.init_model(model_cfg, d_v, d_e), data, masks, train_cfg)
    n_items = data.num_nodes if node_task else len(data)
    scores = [hf.evaluate(model, data, masks, split)
              for split in hf.split_indices(n_items, train_cfg)]
    return {
        "masks": _digest(x for heads in mask_sets for mk in heads
                         for x in (mk.hop_budget, mk.size, mk.indptr, mk.indices)),
        "train": _digest([t.values for t in hf.named_parameters(model).values()]
                         + [history.train_loss, history.val_metric, history.test_metric,
                            -1 if history.best_epoch is None else history.best_epoch]),
        "evaluate": _digest(scores),
        "summary": {"final_train_loss": history.train_loss[-1], "test_score": scores[2]},
    }


def _with_edge_features(hf, graphs, seed: int, d_e: int):
    rng = np.random.default_rng([seed, 5])
    return [hf.Graph(num_nodes=g.num_nodes, edges=g.edges, node_features=g.node_features,
                     edge_features=rng.standard_normal((g.num_edges, d_e)),
                     graph_label=g.graph_label) for g in graphs]


def _regression_labels(hf, graphs):
    # the edge density: a float target the node features hint at
    return [hf.Graph(num_nodes=g.num_nodes, edges=g.edges, node_features=g.node_features,
                     graph_label=2.0 * g.num_edges / (g.num_nodes * (g.num_nodes - 1)))
            for g in graphs]


def _large_graphs(hf, seed: int):
    """24 labelled ER graphs of 10-30 nodes (p 0.3): most above
    STACK_MAX_TOKENS tokens, some at most it."""
    rng = np.random.default_rng([seed, 9])
    graphs = []
    for i in range(24):
        n = int(rng.integers(10, 31))
        g = hf.generate_erdos_renyi(n, 0.3, seed=int(rng.integers(2**31)))
        graphs.append(hf.Graph(num_nodes=n, edges=g.edges,
                               node_features=rng.standard_normal((n, 3)), graph_label=i % 2))
    return graphs


def cases(hf, workloads) -> dict:
    out = {}
    for name in WORKLOADS:
        for seed in SEEDS:
            data, model_cfg, train_cfg, d_v = workloads.make_inputs(
                hf, workloads.WORKLOADS[name], seed)
            out[f"{name}.seed{seed}"] = _case(hf, data, model_cfg, train_cfg, d_v)
    dropout = dict(dropout=0.1, attention_dropout=0.1)
    data, model_cfg, train_cfg, d_v = workloads.make_inputs(hf, workloads.WORKLOADS["sbm_node"], 3)
    out["sbm_node.dropout"] = _case(hf, data, replace(model_cfg, **dropout), train_cfg, d_v)
    data, model_cfg, train_cfg, d_v = workloads.make_inputs(hf, workloads.WORKLOADS["er_graph"], 3)
    data, train_cfg = data[:48], replace(train_cfg, epochs=2, early_stop_patience=2)
    for name, cfg, graphs, d_e in [
            ("er_graph.dropout", replace(model_cfg, **dropout), data, 0),
            ("er_graph.edge_features", model_cfg, _with_edge_features(hf, data, 3, 2), 2),
            ("er_graph.graph_regression",
             replace(model_cfg, task="graph_regression", num_classes=None),
             _regression_labels(hf, data), 0),
            ("er_graph.sum_readout", replace(model_cfg, readout="sum"), data, 0),
            ("er_graph.pre_norm", replace(model_cfg, norm="pre"), data, 0)]:
        out[name] = _case(hf, graphs, cfg, train_cfg, d_v, d_e)
    out["er_graph.weight_decay"] = _case(hf, data, model_cfg,
                                         replace(train_cfg, weight_decay=0.01), d_v)
    out["large_graphs.dropout"] = _case(
        hf, _large_graphs(hf, 3), replace(model_cfg, head_hops=(1, 2, 3, 6), **dropout),
        train_cfg, 3)
    return out


def record() -> dict:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import hopformer as hf
    import workloads
    from hopformer.cli import _numeric_build

    return {"build": _numeric_build(), "cases": cases(hf, workloads)}


def main(argv: list[str]) -> int:
    if os.environ.get("OPENBLAS_NUM_THREADS") != "1":
        print("run with OPENBLAS_NUM_THREADS=1: the digests are taken at one BLAS thread",
              file=sys.stderr)
        return 2
    text = json.dumps(record(), indent=1, sort_keys=True) + "\n"
    if argv[1:] == ["--write"]:
        GOLDEN.write_text(text)
        print(f"wrote {GOLDEN}")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
