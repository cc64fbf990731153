"""Seeded workload inputs and the independent references the benchmark checks
the program against.  Everything here is a pure function of the seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    task: str                 # "node_classification" or "graph_classification"
    head_hops: tuple[int, ...]
    epochs: int               # per train() call; early-stop patience equals it
    evals: int                # evaluate() calls on the test split per unit
    via_cli: bool
    # Output floors, from the values the seed version reaches on many seeds
    # with a margin (worst seen in README.md): the last epoch's training loss
    # must not exceed loss_ceiling, and the returned (best-validation) model
    # must reach train_acc_floor on the train split.  sbm_node has no
    # accuracy floor: with 12 validation nodes the best-validation model is
    # on some seeds the epoch-0 one, at chance, so its loss ceiling is set
    # well below ln 2 instead.
    loss_ceiling: float
    train_acc_floor: float | None


WORKLOADS = {
    w.name: w for w in [
        Workload("sbm_node", "node_classification", (1, 3, 6, 12), epochs=5, evals=12,
                 via_cli=False, loss_ceiling=0.55, train_acc_floor=None),
        Workload("er_graph", "graph_classification", (1, 2, 4, 8), epochs=3, evals=10,
                 via_cli=False, loss_ceiling=0.5, train_acc_floor=0.75),
        Workload("sparse_large", "node_classification", (1, 2, 3, 4), epochs=3, evals=6,
                 via_cli=False, loss_ceiling=0.65, train_acc_floor=0.7),
        Workload("cli_train", "graph_classification", (1, 2, 4, 8), epochs=3, evals=10,
                 via_cli=True, loss_ceiling=0.5, train_acc_floor=0.75),
    ]
}

SBM_SMALL = dict(sizes=(30, 30), p_in=0.3, p_out=0.02)
SBM_LARGE = dict(sizes=(1000, 1000), p_in=0.004, p_out=0.0002)
ER_GRAPHS, ER_P, ER_FEATURES = 128, 0.3, 4


def _expected_sbm_edges(sizes, p_in, p_out) -> float:
    n = sum(sizes)
    inside = sum(s * (s - 1) // 2 for s in sizes)
    return inside * p_in + (n * (n - 1) // 2 - inside) * p_out


def _sbm_of_expected_size(hf, seed: int, sizes, p_in, p_out, tol: int):
    # Edge counts spread by about +-5% between seeds, and attention cost grows
    # with the square of the token count.  The seed therefore picks the first
    # generate_sbm draw whose edge count is within tol of the expected count,
    # so that every seed gives about the same amount of work.
    target = _expected_sbm_edges(sizes, p_in, p_out)
    for k in range(10_000):
        g = hf.generate_sbm(sizes, p_in, p_out, seed=seed * 10_000 + k)
        if abs(g.num_edges - target) <= tol:
            return g
    raise RuntimeError(f"no SBM draw within {tol} edges of {target} for seed {seed}")


def _er_dataset(hf, seed: int, splits):
    # Node counts run through 8..15 in turn within each of the train, val and
    # test splits, in a seeded order, so every split (and so every epoch and
    # every evaluate() call) holds the same multiset of sizes for every seed.
    # The label says whether the graph is denser than p; node feature 0
    # carries a weak hint of it so a few epochs suffice to learn above chance.
    rng = np.random.default_rng([seed, 7])
    sizes = np.empty(ER_GRAPHS, dtype=np.int64)
    for split in splits:
        sizes[split] = rng.permutation(np.resize(np.arange(8, 16), len(split)))
    graphs = []
    for n in sizes:
        n = int(n)
        g = hf.generate_erdos_renyi(n, ER_P, seed=int(rng.integers(2**31)))
        label = int(g.num_edges > ER_P * n * (n - 1) / 2)
        x = rng.standard_normal((n, ER_FEATURES))
        x[:, 0] += 0.5 if label else -0.5
        graphs.append(hf.Graph(num_nodes=n, edges=g.edges, node_features=x,
                               graph_label=label))
    return graphs


def make_inputs(hf, wl: Workload, seed: int):
    """(dataset, ModelConfig, TrainConfig, node feature dim) for one workload and seed.

    Node tasks get one Graph; graph tasks a list of Graphs.
    """
    train_cfg = hf.TrainConfig(learning_rate=1e-2, epochs=wl.epochs, batch_size=32,
                               seed=seed, early_stop_patience=wl.epochs)
    if wl.name == "sbm_node":
        data = _sbm_of_expected_size(hf, seed, **SBM_SMALL, tol=2)
    elif wl.name == "sparse_large":
        data = _sbm_of_expected_size(hf, seed, **SBM_LARGE, tol=20)
    else:
        data = _er_dataset(hf, seed, hf.split_indices(ER_GRAPHS, train_cfg))
    node_task = wl.task == "node_classification"
    d_v = data.node_feature_dim if node_task else data[0].node_feature_dim
    model_cfg = hf.ModelConfig(hidden_dim=16, head_hops=wl.head_hops, num_layers=2,
                               ffn_dim=32, num_heads=4, task=wl.task, num_classes=2,
                               seed=seed)
    return data, model_cfg, train_cfg, d_v


# ---------------------------------------------------------------------------
# References


def reference_row_counts(ag, budgets) -> np.ndarray:
    """Per-budget, per-token count of tokens within the budget, by a plain
    Python BFS from every token (independent of masks.build_mask)."""
    t = ag.total_tokens
    nbrs = [ag.indices[ag.indptr[u]:ag.indptr[u + 1]].tolist() for u in range(t)]
    deepest = max(budgets)
    counts = np.zeros((len(budgets), t), dtype=np.int64)
    for s in range(t):
        seen = {s}
        frontier = [s]
        reached = [1]                      # tokens within d hops, d = 0, 1, ...
        for _ in range(deepest):
            nxt = []
            for u in frontier:
                for w in nbrs[u]:
                    if w not in seen:
                        seen.add(w)
                        nxt.append(w)
            reached.append(reached[-1] + len(nxt))
            frontier = nxt
        for b, budget in enumerate(budgets):
            counts[b, s] = reached[budget]
    return counts


ORACLE_BLOCK = 256


def dense_attention_oracle(q, k, v, mask) -> np.ndarray:
    """Masked dense softmax attention, computed a block of rows at a time so
    a large mask never needs a T x T array."""
    t, d = q.shape
    out = np.empty_like(q)
    rows, cols, indptr = mask.row_indices, mask.indices, mask.indptr
    for lo in range(0, t, ORACLE_BLOCK):
        hi = min(t, lo + ORACLE_BLOCK)
        allowed = np.zeros((hi - lo, t), dtype=bool)
        seg = slice(indptr[lo], indptr[hi])
        allowed[rows[seg] - lo, cols[seg]] = True
        scores = np.where(allowed, (q[lo:hi] @ k.T) / np.sqrt(d), -np.inf)
        e = np.exp(scores - scores.max(axis=1, keepdims=True))
        out[lo:hi] = (e / e.sum(axis=1, keepdims=True)) @ v
    return out
