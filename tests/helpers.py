"""Shared fixtures and independent oracles for the test suite.

Oracles here deliberately use different algorithms from the library:
per-edge neighbour lists instead of one sorted CSR build, dense matrix
reachability instead of BFS, full dense attention instead of the sparse
kernel, Floyd-Warshall instead of BFS path sums, and O(n^3) triangle counting
for clustering.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from hopformer import AugmentedGraph, Graph
from hopformer import autograd
from hopformer.graphs import EDGE_TOKEN, NODE_TOKEN
from hopformer.masks import HopMask
from hopformer.model import Model


# ---------------------------------------------------------------------------
# Small fixture graphs


def single_edge_graph() -> Graph:
    return Graph(num_nodes=2, edges=np.array([[0, 1]]), node_features=np.eye(2))


def triangle_graph() -> Graph:
    return Graph(num_nodes=3, edges=np.array([[0, 1], [1, 2], [0, 2]]),
                 node_features=np.ones((3, 1)))


def path3_graph() -> Graph:
    return Graph(num_nodes=3, edges=np.array([[0, 1], [1, 2]]),
                 node_features=np.ones((3, 1)))


def star_graph() -> Graph:
    return Graph(num_nodes=4, edges=np.array([[0, 1], [0, 2], [0, 3]]),
                 node_features=np.ones((4, 1)))


def random_graph(rng: np.random.Generator, max_nodes: int = 12,
                 feature_dim: int = 1, p: float | None = None) -> Graph:
    n = int(rng.integers(2, max_nodes + 1))
    if p is None:
        p = float(rng.uniform(0.05, 0.6))
    iu, ju = np.triu_indices(n, k=1)
    keep = rng.random(iu.shape[0]) < p
    edges = np.column_stack([iu[keep], ju[keep]])
    return Graph(num_nodes=n, edges=edges,
                 node_features=rng.standard_normal((n, feature_dim)))


def random_graph_max_tokens(rng: np.random.Generator, max_tokens: int,
                            feature_dim: int = 1) -> Graph:
    """Random graph whose augmented token count stays within max_tokens."""
    while True:
        n = int(rng.integers(2, max(3, max_tokens // 2)))
        g = random_graph_fixed_n(rng, n, feature_dim)
        if n + g.num_edges <= max_tokens:
            return g


def random_graph_fixed_n(rng: np.random.Generator, n: int,
                         feature_dim: int = 1) -> Graph:
    p = float(rng.uniform(0.05, 0.5))
    iu, ju = np.triu_indices(n, k=1)
    keep = rng.random(iu.shape[0]) < p
    edges = np.column_stack([iu[keep], ju[keep]])
    return Graph(num_nodes=n, edges=edges,
                 node_features=rng.standard_normal((n, feature_dim)))


def shuffled_reversed_copy(g: Graph, rng: np.random.Generator) -> Graph:
    """``g`` with its edge list in a random order and about half of its edges
    written (v, u)."""
    edges = g.edges[rng.permutation(g.num_edges)]
    flip = rng.random(g.num_edges) < 0.5
    edges[flip] = edges[flip, ::-1]
    return Graph(num_nodes=g.num_nodes, edges=edges, node_features=g.node_features)


# ---------------------------------------------------------------------------
# Reference augmentation: per-node neighbour lists built edge by edge


def reference_augment(g: Graph) -> AugmentedGraph:
    n, m = g.num_nodes, g.num_edges
    t = n + m
    node_nbrs: list[list[int]] = [[] for _ in range(n)]
    for j in range(m):
        u, v = int(g.edges[j, 0]), int(g.edges[j, 1])
        node_nbrs[u].append(n + j)
        node_nbrs[v].append(n + j)
    indptr = np.zeros(t + 1, dtype=np.int64)
    chunks: list[np.ndarray] = []
    for u in range(n):
        indptr[u + 1] = indptr[u] + len(node_nbrs[u])
        chunks.append(np.asarray(node_nbrs[u], dtype=np.int64))
    for j in range(m):
        u, v = int(g.edges[j, 0]), int(g.edges[j, 1])
        indptr[n + j + 1] = indptr[n + j] + 2
        chunks.append(np.asarray(sorted((u, v)), dtype=np.int64))
    indices = np.concatenate(chunks) if chunks else np.zeros(0, dtype=np.int64)
    kind = np.concatenate([
        np.full(n, NODE_TOKEN, dtype=np.int8),
        np.full(m, EDGE_TOKEN, dtype=np.int8),
    ])
    return AugmentedGraph(
        num_node_tokens=n,
        num_edge_tokens=m,
        indptr=indptr,
        indices=indices,
        token_kind=kind,
        edge_token_origin=np.asarray(g.edges, dtype=np.int64).reshape(-1, 2).copy(),
    )


# ---------------------------------------------------------------------------
# Dense oracles


def dense_augmented_adjacency(ag) -> np.ndarray:
    t = ag.total_tokens
    a = np.zeros((t, t), dtype=bool)
    for i in range(t):
        a[i, ag.neighbors(i)] = True
    return a


def dense_reachability_oracle(ag, n: int) -> np.ndarray:
    """Indicator of sum_{k=0..n} A^k > 0 via boolean matrix powers."""
    a = dense_augmented_adjacency(ag)
    reach = np.eye(ag.total_tokens, dtype=bool)
    power = np.eye(ag.total_tokens, dtype=bool)
    for _ in range(n):
        power = power @ a
        reach = reach | power
    return reach


def mask_to_dense(mask: HopMask) -> np.ndarray:
    out = np.zeros((mask.size, mask.size), dtype=bool)
    out[mask.row_indices, mask.indices] = True
    return out


def dense_attention_oracle(qv: np.ndarray, kv: np.ndarray, vv: np.ndarray,
                           support: np.ndarray) -> np.ndarray:
    """Full score matrix, -inf off support, row softmax, times values."""
    d_h = qv.shape[1]
    scores = qv @ kv.T / np.sqrt(d_h)
    scores = np.where(support, scores, -np.inf)
    scores = scores - scores.max(axis=1, keepdims=True)
    weights = np.exp(scores)
    weights /= weights.sum(axis=1, keepdims=True)
    return weights @ vv


def dense_attention_weights_oracle(qv, kv, support) -> np.ndarray:
    d_h = qv.shape[1]
    scores = qv @ kv.T / np.sqrt(d_h)
    scores = np.where(support, scores, -np.inf)
    scores = scores - scores.max(axis=1, keepdims=True)
    weights = np.exp(scores)
    return weights / weights.sum(axis=1, keepdims=True)


def reference_sparse_path(qv, kv, vv, mask: HopMask, dropmult):
    """The row-layout nnz attention kernel: (nnz, d_h) row gathers, einsum
    scores, reduceat over axis 0 and one bincount per column for the key and
    value scatters.  Same contract as ``autograd._sparse_path`` given the
    mask's CSR pair."""
    t, d_h = qv.shape
    row, col, indptr = mask.row_indices, mask.indices, mask.indptr
    inv_sqrt = 1.0 / np.sqrt(d_h)
    scores = np.einsum("ij,ij->i", qv[row], kv[col]) * inv_sqrt
    rowmax = np.maximum.reduceat(scores, indptr[:-1]) if scores.size else scores
    expd = np.exp(scores - rowmax[row])
    denom = np.add.reduceat(expd, indptr[:-1]) if expd.size else expd
    alpha = expd / denom[row]
    applied = alpha if dropmult is None else alpha * dropmult
    out = np.add.reduceat(applied[:, None] * vv[col], indptr[:-1], axis=0) \
        if applied.size else np.zeros((t, d_h))

    def scatter_rows(values):
        out = np.empty((t, values.shape[1]))
        for j in range(values.shape[1]):
            out[:, j] = np.bincount(col, weights=values[:, j], minlength=t)
        return out

    def grads(g):
        gr = g[row]
        d_applied = np.einsum("ij,ij->i", gr, vv[col])
        d_alpha = d_applied if dropmult is None else d_applied * dropmult
        rowdot = np.add.reduceat(alpha * d_alpha, indptr[:-1])
        dscore = alpha * (d_alpha - rowdot[row]) * inv_sqrt
        return (np.add.reduceat(dscore[:, None] * kv[col], indptr[:-1], axis=0),
                scatter_rows(dscore[:, None] * qv[row]),
                scatter_rows(applied[:, None] * gr))

    return out, grads


def augmented_distances(ag) -> np.ndarray:
    """All-pairs shortest-path distances on the augmented graph (-1 = unreachable)."""
    t = ag.total_tokens
    dist = np.full((t, t), -1, dtype=np.int64)
    for s in range(t):
        dist[s, s] = 0
        frontier = [s]
        d = 0
        while frontier:
            d += 1
            nxt = []
            for u in frontier:
                for w in ag.neighbors(u):
                    if dist[s, w] < 0:
                        dist[s, w] = d
                        nxt.append(int(w))
            frontier = nxt
    return dist


def dense_vanilla_encoder(model: Model, x_nodes: np.ndarray,
                          edge_vals: np.ndarray | None) -> np.ndarray:
    """Unmasked vanilla Transformer encoder on the same weights, plain numpy."""
    cfg = model.cfg
    z = x_nodes @ model.proj_node.values
    if edge_vals is not None:
        z = np.vstack([z, edge_vals])
    for lp in model.layers:
        attn_in = _ln(z, lp.ln1_gamma.values, lp.ln1_beta.values) if cfg.norm == "pre" else z
        heads = []
        d, d_h = cfg.hidden_dim, cfg.head_dim
        wqkv = lp.wqkv.values   # [Q heads | K heads | V heads]
        for h in range(cfg.num_heads):
            lo = h * d_h
            q = attn_in @ wqkv[:, lo:lo + d_h]
            k = attn_in @ wqkv[:, d + lo:d + lo + d_h]
            v = attn_in @ wqkv[:, 2 * d + lo:2 * d + lo + d_h]
            scores = q @ k.T / np.sqrt(cfg.head_dim)
            scores -= scores.max(axis=1, keepdims=True)
            w = np.exp(scores)
            w /= w.sum(axis=1, keepdims=True)
            heads.append(w @ v)
        attn = np.concatenate(heads, axis=1) @ lp.wo.values
        res1 = z + attn
        t1 = _ln(res1, lp.ln1_gamma.values, lp.ln1_beta.values) if cfg.norm == "post" else res1
        ffn_in = _ln(t1, lp.ln2_gamma.values, lp.ln2_beta.values) if cfg.norm == "pre" else t1
        hidden = np.maximum(ffn_in @ lp.ffn_w1.values + lp.ffn_b1.values, 0.0)
        ffn = hidden @ lp.ffn_w2.values + lp.ffn_b2.values
        res2 = t1 + ffn
        z = _ln(res2, lp.ln2_gamma.values, lp.ln2_beta.values) if cfg.norm == "post" else res2
    return z


def _ln(x, gamma, beta, eps=1e-5):
    mu = x.mean(axis=1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * gamma + beta


# ---------------------------------------------------------------------------
# Brute-force small-world oracles (different algorithms from the library)


def brute_clustering(g: Graph) -> float:
    n = g.num_nodes
    if n == 0:
        return 0.0
    adj = np.zeros((n, n), dtype=bool)
    for u, v in g.edges:
        adj[u, v] = adj[v, u] = True
    total = 0.0
    for v in range(n):
        deg = int(adj[v].sum())
        if deg < 2:
            continue
        links = 0
        nbrs = np.flatnonzero(adj[v])
        for a in nbrs:
            for b in nbrs:
                if a < b and adj[a, b]:
                    links += 1
        total += 2.0 * links / (deg * (deg - 1))
    return total / n


def _floyd_warshall(g: Graph) -> np.ndarray:
    n = g.num_nodes
    dist = np.full((n, n), np.inf)
    np.fill_diagonal(dist, 0.0)
    for u, v in g.edges:
        dist[u, v] = dist[v, u] = 1.0
    for k in range(n):
        dist = np.minimum(dist, dist[:, k:k + 1] + dist[k:k + 1, :])
    return dist


def brute_avg_path(g: Graph) -> float:
    """Floyd-Warshall average over reachable ordered pairs."""
    n = g.num_nodes
    dist = _floyd_warshall(g)
    off = ~np.eye(n, dtype=bool)
    reachable = np.isfinite(dist) & off
    if not reachable.any():
        return 0.0
    return float(dist[reachable].mean())


def brute_components_and_diameter(g: Graph) -> tuple[int, int]:
    """Component count and the largest component's diameter by Floyd-Warshall;
    among equally large components the one holding the smallest node id wins."""
    dist = _floyd_warshall(g)
    reach = np.isfinite(dist)
    components = {tuple(np.flatnonzero(row)) for row in reach}
    largest = max(sorted(components), key=len)
    return len(components), int(dist[np.ix_(largest, largest)].max())


# ---------------------------------------------------------------------------
# Spying on the attention kernel's paths


@dataclass
class PathCall:
    """One call of an attention path function: its name, its arguments, and
    whether the kernel was recording on a tape when it made the call."""

    name: str
    args: tuple
    recording: bool

    @property
    def kind(self) -> str:
        """The call's path, "nnz", or for a dense call its stack, "one-head"
        or "multi-head"."""
        if self.name == "_sparse_path":
            return "nnz"
        return "one-head" if len(self.args[3]) == 1 else "multi-head"


def spy_on_paths(monkeypatch, around=None) -> list[PathCall]:
    """Wrap the attention kernel's two path functions, ``_sparse_path`` and
    ``_dense_path``, so that each call appends a :class:`PathCall` to the
    returned list, in call order, and then runs the path.  With ``around``,
    ``around(path, args)`` runs it instead, and its result is the call's."""
    calls = []
    for name in ("_sparse_path", "_dense_path"):
        def spy(*args, _name=name, _path=getattr(autograd, name)):
            calls.append(PathCall(_name, args, autograd._state.recording))
            return _path(*args) if around is None else around(_path, args)
        monkeypatch.setattr(autograd, name, spy)
    return calls


def refuse(what: str):
    """A stand-in for a search function that fails the test if called."""
    def refused(*args):
        raise AssertionError(f"the search {what}")
    return refused
