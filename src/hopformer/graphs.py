"""Input graphs, JSON loading, random generators, and edge-to-node augmentation.

A :class:`Graph` is an undirected edge list plus dense per-node (and optional
per-edge) feature matrices.  :func:`augment` rewrites it into the token graph
the attention masks are built on: every original edge becomes an extra token
wired to its two endpoints, so node and edge attributes can be attended over
uniformly while the structure stays sparse.  :func:`csr_from_pairs` is the
package's one edge-list-to-CSR step; the hop masks share its ``indptr`` step.
"""

from __future__ import annotations

import json
import math
import os
import warnings
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, fields

import numpy as np

NODE_TOKEN = 0
EDGE_TOKEN = 1


class GraphError(ValueError):
    """Malformed input: a structurally invalid graph, an input file (graph,
    dataset, run config or checkpoint) that is not valid JSON or lacks a
    required field, or a value that breaks the package's integer or number
    rules (:func:`_int_value`, :func:`_finite_value` and their array forms)."""


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _int_field(name: str, values, low: int | None = None) -> np.ndarray:
    """``values`` as int64.  Booleans and numbers with a fractional part are
    refused, not truncated; integral floats (as from ``np.zeros``) pass.  A
    value below ``low`` is refused, naming the smallest (see :func:`_int_value`)."""
    def refuse(got, at):
        at = [int(i) for i in at]
        raise GraphError(f"{name} must hold integers, got {got} at index "
                         f"{at[0] if len(at) == 1 else at}")

    if isinstance(values, (list, tuple)):
        cells = np.asarray(values, dtype=object)
        if not {bool, np.bool_}.isdisjoint(map(type, cells.flat)):
            first = next(i for i, x in enumerate(cells.flat) if type(x) in (bool, np.bool_))
            refuse("a boolean", np.unravel_index(first, cells.shape))
    try:
        arr = np.asarray(values)
    except ValueError as e:   # ragged or nested lists
        raise GraphError(f"{name} must hold integers, got nested or ragged lists") from e
    if arr.size and arr.dtype.kind not in "iuf":
        raise GraphError(f"{name} must hold integers, got {arr.dtype} values")
    if arr.dtype.kind == "f":
        bad = np.argwhere(~np.isfinite(arr) | (np.floor(arr) != arr))
        if bad.size:
            refuse(repr(float(arr[tuple(bad[0])])), bad[0])
    arr = arr.astype(np.int64)
    if low is not None and arr.size:
        _int_value(name, int(arr.min()), low)
    return arr


def _is_number(x) -> bool:
    return isinstance(x, (int, float, np.integer, np.floating)) and not isinstance(
        x, (bool, np.bool_))


def _is_float(x) -> bool:
    return isinstance(x, (float, np.floating))


def _int_value(name: str, x, low: int | None = None) -> int:
    """``x`` as a Python int, by the rule of :func:`_int_field`: booleans,
    non-numbers, numbers with a fractional part and values below ``low`` (0
    asks for a non-negative value, 1 for a positive one) raise
    ``GraphError`` naming the field; integral floats pass."""
    if not _is_number(x) or _is_float(x) and not (math.isfinite(x) and x.is_integer()):
        raise GraphError(f"{name} must be an integer, got {x!r}")
    if low is not None and x < low:
        raise GraphError(f"{name} must be {'positive' if low else 'non-negative'}, got {int(x)}")
    return int(x)


def _finite_value(name: str, x) -> float:
    """``x`` if it is a finite number (numpy scalars as Python numbers);
    booleans, NaN and infinities raise ``GraphError`` naming the field."""
    if not _is_number(x) or _is_float(x) and not math.isfinite(x):
        raise GraphError(f"{name} must be a finite number, got {x!r}")
    return x.item() if isinstance(x, np.generic) else x


def _finite_rows(name: str, values) -> np.ndarray:
    """``values`` copied to float64, refusing ragged rows and NaN or infinite entries."""
    try:
        arr = np.array(values, dtype=np.float64)
    except (TypeError, ValueError) as e:
        raise GraphError(f"{name} must be numeric rows of equal length") from e
    bad = ~np.isfinite(arr)
    if bad.any():
        row = int(np.argwhere(bad)[0][0]) if arr.ndim else 0
        raise GraphError(f"{name} row {row} has a non-finite value")
    return arr


@dataclass(frozen=True)
class Graph:
    """Undirected graph with node features and optional edge features/labels.

    Edges are unordered pairs; self-loops and parallel edges are rejected at
    construction with a message naming the offending edge.  Integer fields
    must hold integers (nothing is truncated), features must be finite, and a
    graph label must be an integer or a finite number.
    """

    num_nodes: int
    edges: np.ndarray                      # (M, 2) int64
    node_features: np.ndarray              # (N, d_v) float64
    edge_features: np.ndarray | None = None   # (M, d_e) float64
    node_labels: np.ndarray | None = None      # (N,) int64
    graph_label: float | int | None = None

    def __post_init__(self):
        n = _int_value("num_nodes", self.num_nodes, 0)
        if self.graph_label is not None:
            _finite_value("graph_label", self.graph_label)
        object.__setattr__(self, "num_nodes", n)
        edges = _int_field("edges", self.edges)
        if edges.size and (edges.ndim != 2 or edges.shape[1] != 2):
            raise GraphError(f"edges must have shape (M, 2), got {edges.shape}")
        edges = edges.reshape(-1, 2)
        for i, (u, v) in enumerate(edges):
            if u < 0 or u >= n or v < 0 or v >= n:
                raise GraphError(f"edge {i} = ({u}, {v}) has an endpoint outside [0, {n})")
            if u == v:
                raise GraphError(f"edge {i} = ({u}, {v}) is a self-loop")
        seen: dict[tuple[int, int], int] = {}
        for i, (u, v) in enumerate(edges):
            key = (min(u, v), max(u, v))
            if key in seen:
                raise GraphError(f"duplicate edge ({u}, {v}) at positions {seen[key]} and {i}")
            seen[key] = i
        feats = _finite_rows("node_features", self.node_features)
        if feats.ndim != 2 or feats.shape[0] != n:
            raise GraphError(
                f"node_features must be 2-D with {n} rows, got shape {feats.shape}")
        object.__setattr__(self, "edges", _frozen(edges))
        object.__setattr__(self, "node_features", _frozen(feats))
        if self.edge_features is not None:
            ef = _finite_rows("edge_features", self.edge_features)
            if ef.ndim != 2 or ef.shape[0] != len(edges):
                raise GraphError(
                    f"edge_features must be 2-D with {len(edges)} rows, got shape {ef.shape}")
            object.__setattr__(self, "edge_features", _frozen(ef))
        if self.node_labels is not None:
            lab = _int_field("node_labels", self.node_labels).reshape(-1)
            if lab.shape[0] != n:
                raise GraphError(f"node_labels must have length {n}, got {lab.shape[0]}")
            object.__setattr__(self, "node_labels", _frozen(lab))

    @property
    def num_edges(self) -> int:
        return int(self.edges.shape[0])

    @property
    def node_feature_dim(self) -> int:
        return int(self.node_features.shape[1])

    @property
    def edge_feature_dim(self) -> int:
        return 0 if self.edge_features is None else int(self.edge_features.shape[1])


@dataclass(frozen=True)
class AugmentedGraph:
    """Token graph: node tokens 0..N-1 followed by one token per original edge.

    ``indptr``/``indices`` hold the symmetric adjacency in CSR form with
    ascending column order per row; every edge token has exactly its two
    endpoints as neighbours, so there are 4*M stored (directed) entries.
    """

    num_node_tokens: int
    num_edge_tokens: int
    indptr: np.ndarray            # (T+1,) int64
    indices: np.ndarray           # (4M,) int64
    token_kind: np.ndarray        # (T,) int8, NODE_TOKEN / EDGE_TOKEN
    edge_token_origin: np.ndarray  # (M, 2) int64

    @property
    def total_tokens(self) -> int:
        return self.num_node_tokens + self.num_edge_tokens

    @property
    def num_directed_links(self) -> int:
        return int(self.indices.shape[0])

    def neighbors(self, token: int) -> np.ndarray:
        return self.indices[self.indptr[token]:self.indptr[token + 1]]


def csr_indptr(rows: np.ndarray, t: int) -> np.ndarray:
    """Row pointers of t CSR rows holding the row-major entries of ``rows``."""
    indptr = np.zeros(t + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=t), out=indptr[1:])
    return indptr


def csr_from_pairs(rows: np.ndarray, cols: np.ndarray,
                   t: int) -> tuple[np.ndarray, np.ndarray]:
    """int64 CSR ``(indptr, indices)`` of t rows, one entry per int64 pair
    ``(rows[k], cols[k])``; one stable sort by ``rows * t + cols`` orders them."""
    order = np.argsort(rows * t + cols, kind="stable")
    return csr_indptr(rows, t), cols[order]


def augment(g: Graph) -> AugmentedGraph:
    """Expand each edge into a token linked to its endpoints.

    Token i < N is node i; token N + j is edge j.  The adjacency carries the
    four directed links (u,e), (e,u), (v,e), (e,v) per edge and nothing else,
    so node tokens only neighbour edge tokens and vice versa.
    """
    n, m = g.num_nodes, g.num_edges
    ends, e = g.edges.ravel(), np.repeat(np.arange(n, n + m, dtype=np.int64), 2)
    indptr, indices = csr_from_pairs(np.concatenate([ends, e]), np.concatenate([e, ends]), n + m)
    return AugmentedGraph(
        num_node_tokens=n,
        num_edge_tokens=m,
        indptr=_frozen(indptr),
        indices=_frozen(indices),
        token_kind=_frozen(np.repeat(np.array([NODE_TOKEN, EDGE_TOKEN], dtype=np.int8),
                                     [n, m])),
        edge_token_origin=_frozen(g.edges.copy()),
    )


# ---------------------------------------------------------------------------
# JSON graph files


def _file_prefix(source) -> str:
    """``"<path>: "`` if ``source`` names a file (any path-like, or a one-line
    str not opening like JSON), else ``""``."""
    if isinstance(source, os.PathLike) or (isinstance(source, str) and "\n" not in source
                                           and source.lstrip()[:1] not in "[{"):
        return f"{os.fspath(source)}: "
    return ""


def _read_json(source):
    """The package's one input reader.  Parses a file (see :func:`_file_prefix`),
    a stream, or the JSON text itself; invalid JSON is a ``GraphError`` that,
    for a file, starts with its path."""
    where = _file_prefix(source)
    if where:
        with open(source, "r", encoding="utf-8") as fh:
            source = fh.read()
    elif hasattr(source, "read"):
        source = source.read()
    try:
        return json.loads(source.decode("utf-8") if isinstance(source, bytes) else source)
    except json.JSONDecodeError as e:
        raise GraphError(
            f"{where}invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}") from e


def _json_object(what: str, obj, required=()) -> dict:
    """``obj`` if it is a JSON object holding every field in ``required``;
    otherwise a ``GraphError`` that starts with ``what``."""
    if not isinstance(obj, dict):
        raise GraphError(f"{what} must be a JSON object, got {type(obj).__name__}")
    for key in required:
        if key not in obj:
            raise GraphError(f"{what} is missing required field '{key}'")
    return obj


def _config_from_obj(what: str, obj, cls):
    """``cls(**obj)`` for a config dataclass ``cls`` and a JSON object holding
    each of its required fields and no unknown one; otherwise a ``GraphError``
    that starts with ``what`` and lists the accepted fields."""
    names = [f.name for f in fields(cls)]
    unknown = [k for k in _json_object(what, obj) if k not in names]
    missing = [f.name for f in fields(cls) if f.name not in obj
               and f.default is MISSING and f.default_factory is MISSING]
    if unknown or missing:
        problem = (f"has unknown field '{unknown[0]}'" if unknown
                   else f"is missing required field '{missing[0]}'")
        raise GraphError(f"{what} {problem}; accepted fields: {', '.join(names)}")
    return cls(**obj)


def _graph_from_obj(obj) -> Graph:
    _json_object("graph object", obj, ("num_nodes", "edges", "node_features"))
    raw_edges = obj["edges"]
    if not isinstance(raw_edges, list) or any(
            not isinstance(e, list) or len(e) != 2 for e in raw_edges):
        raise GraphError("field 'edges' must be an array of [u, v] pairs")
    # the integer rule runs first, so [True, 0] is refused, not merged with (1, 0)
    edges = _symmetrize(_int_field("edges", raw_edges).tolist(),
                        obj.get("edge_features") is not None)
    feats = _finite_rows("node_features", obj["node_features"])
    return Graph(
        num_nodes=obj["num_nodes"],
        edges=edges,
        node_features=feats.reshape(-1, 1) if feats.ndim == 1 else feats,
        edge_features=obj.get("edge_features"),
        node_labels=obj.get("node_labels"),
        graph_label=obj.get("graph_label"),
    )


def _symmetrize(raw_edges: list, has_edge_features: bool) -> list[list[int]]:
    # (u,v) together with (v,u) is treated as a directed input and merged with
    # a warning; a repeated orientation is a parallel edge and is rejected.
    # With edge features a merge would leave one feature row too many, so a
    # reversed pair is rejected too.
    kept: list[list[int]] = []
    position: dict[tuple[int, int], int] = {}   # orientation -> where it came
    merged = 0
    for i, (u, v) in enumerate(raw_edges):
        if (u, v) in position:
            raise GraphError(f"duplicate edge ({u}, {v}) at position {i}")
        first = position.get((v, u))
        position[(u, v)] = i
        if first is None:
            kept.append([u, v])
        elif has_edge_features:
            raise GraphError(f"edge ({u}, {v}) at position {i} reverses edge ({v}, {u}) at "
                             f"position {first}; with edge_features each edge is listed once")
        else:
            merged += 1
    if merged:
        warnings.warn(
            f"symmetrized directed input: merged {merged} reversed edge pair(s)",
            stacklevel=3)
    return kept


@contextmanager
def _naming(source):
    """Prefix a ``GraphError`` raised inside with the path when ``source``
    names a file, as invalid-JSON errors are."""
    try:
        yield
    except GraphError as e:
        if not _file_prefix(source):
            raise
        raise GraphError(f"{_file_prefix(source)}{e}") from e


def load_graph(source) -> Graph:
    """Load a single graph from a JSON file path, byte/str stream, or text."""
    obj = _read_json(source)
    with _naming(source):
        if isinstance(obj, list):
            raise GraphError("expected a single graph object, got an array (use load_dataset)")
        return _graph_from_obj(obj)


def load_dataset(source) -> list[Graph]:
    """Load one graph or an array of graphs; always returns a list."""
    obj = _read_json(source)
    with _naming(source):
        if isinstance(obj, dict):
            return [_graph_from_obj(obj)]
        if not isinstance(obj, list):
            raise GraphError("top-level JSON must be a graph object or an array of them")
        out = []
        for i, item in enumerate(obj):
            try:
                out.append(_graph_from_obj(item))
            except GraphError as e:
                raise GraphError(f"graph {i}: {e}") from e
        return out


def graph_to_obj(g: Graph) -> dict:
    obj = {
        "num_nodes": g.num_nodes,
        "edges": g.edges.tolist(),
        "node_features": g.node_features.tolist(),
    }
    if g.edge_features is not None:
        obj["edge_features"] = g.edge_features.tolist()
    if g.node_labels is not None:
        obj["node_labels"] = g.node_labels.tolist()
    if g.graph_label is not None:
        obj["graph_label"] = np.asarray(g.graph_label).item()   # numpy scalars too
    return obj


def _write_json(path, obj) -> None:
    """The package's one JSON file writer: indented, sorted keys, a final
    newline.  The text is built before the file is opened, so an object that
    cannot be encoded raises without touching the file."""
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def save_graph(g: Graph, path: str) -> None:
    _write_json(path, graph_to_obj(g))


# ---------------------------------------------------------------------------
# Random generators.  All are deterministic under ``seed`` and attach node
# features (a constant scalar, or the SBM's block-shifted Gaussians) so
# generated graphs are trainable as-is.  A probability is a number in
# [0, 1], and ``seed`` a non-negative integer by the package's integer rule;
# anything else is refused by name before any draw.


def _probability(name: str, p) -> float:
    if not _is_number(p):
        raise GraphError(f"{name} must be a number, got {p!r}")
    if not 0.0 <= p <= 1.0:
        raise GraphError(f"{name} must be in [0, 1], got {p}")
    return p


def generate_watts_strogatz(n: int, k: int, beta: float, seed: int = 0) -> Graph:
    """Ring lattice over n nodes, k nearest neighbours, rewired with prob beta.

    Rewiring replaces one endpoint of each lattice edge independently, never
    creating self-loops or parallel edges, so the edge count stays n*k/2.
    ``n`` and ``k`` follow the package's integer rule (``10.0`` is 10).
    """
    n, k = _int_value("n", n), _int_value("k", k)
    if k <= 0 or k % 2 != 0:
        raise GraphError(f"k must be a positive even integer, got {k}")
    if n <= k:
        raise GraphError(f"n must exceed k, got n={n}, k={k}")
    beta = _probability("beta", beta)
    rng = np.random.default_rng(_int_value("seed", seed, 0))
    adj: list[set[int]] = [set() for _ in range(n)]
    edge_list: list[tuple[int, int]] = []
    for j in range(1, k // 2 + 1):
        for i in range(n):
            u, v = i, (i + j) % n
            adj[u].add(v)
            adj[v].add(u)
            edge_list.append((u, v))
    if beta > 0:
        for idx, (u, v) in enumerate(edge_list):
            if rng.random() >= beta:
                continue
            # up to n attempts; skip the rewire if u is saturated
            for _ in range(n):
                w = int(rng.integers(n))
                if w != u and w not in adj[u]:
                    adj[u].discard(v)
                    adj[v].discard(u)
                    adj[u].add(w)
                    adj[w].add(u)
                    edge_list[idx] = (u, w)
                    break
    edges = sorted((min(u, v), max(u, v)) for u, v in edge_list)
    return Graph(
        num_nodes=n,
        edges=np.asarray(edges, dtype=np.int64).reshape(-1, 2),
        node_features=np.ones((n, 1)),
    )


def _kept_pairs(rng: np.random.Generator, n: int, p_max: float, p_of=None) -> np.ndarray:
    """The node pairs (i, j), i < j < n, in row-major order, each kept when
    its uniform draw is below its probability: ``p_of(i, j)`` (arrays of
    pairs, at most ``p_max``), or ``p_max`` without it.  The draws are one per
    pair in that order, made in row chunks of at most ``masks.BLOCK_CELLS``
    pairs: ``Generator.random`` gives the same stream in chunks as in one
    call, and no array but the kept pairs holds more than a chunk's pairs.
    A draw below its probability is below ``p_max``, so only those below it
    are read back as pairs."""
    from .masks import BLOCK_CELLS   # masks imports this module
    # row i's pairs start at first[i] in the row-major order
    first = np.concatenate([[0], np.cumsum(np.arange(n - 1, -1, -1))])
    parts = [np.zeros((0, 2), dtype=np.int64)]
    lo = 0
    while lo < n:
        hi = max(lo + 1, int(np.searchsorted(first, first[lo] + BLOCK_CELLS, "right")) - 1)
        u = rng.random(int(first[hi] - first[lo]))
        at = np.flatnonzero(u < p_max)
        u, at = u[at], at + first[lo]
        i = np.searchsorted(first, at, "right") - 1
        j = at - first[i] + i + 1
        keep = slice(None) if p_of is None else u < p_of(i, j)
        parts.append(np.column_stack([i[keep], j[keep]]))
        lo = hi
    return np.concatenate(parts)


def generate_erdos_renyi(n: int, p: float, seed: int = 0) -> Graph:
    """G(n, p): each unordered pair kept independently with probability p."""
    n = _int_value("n", n, 1)
    p = _probability("p", p)
    edges = _kept_pairs(np.random.default_rng(_int_value("seed", seed, 0)), n, p)
    return Graph(num_nodes=n, edges=edges, node_features=np.ones((n, 1)))


def generate_sbm(sizes: tuple[int, ...], p_in: float, p_out: float, seed: int = 0) -> Graph:
    """Stochastic block model with block labels; the training sanity fixture.

    Each node's 8 Gaussian features are shifted by +/-0.2 according to its
    block: individually too noisy to classify well, but denoised by
    aggregation over the (homophilous) neighbourhood, so solving the task
    requires using the structure.  ``sizes`` follows the package's integer
    rule (``5.0`` is 5; a fraction, a boolean or a negative size is refused).
    """
    sizes = _int_field("sizes", sizes)
    if sizes.ndim != 1 or np.any(sizes < 0):
        raise GraphError(f"sizes must be a flat sequence of non-negative block sizes, "
                         f"got {sizes.tolist()}")
    p_in, p_out = _probability("p_in", p_in), _probability("p_out", p_out)
    seed = _int_value("seed", seed, 0)
    n = int(sum(sizes))
    blocks = np.repeat(np.arange(len(sizes)), sizes)
    edges = _kept_pairs(np.random.default_rng(seed), n, max(p_in, p_out),
                        lambda i, j: np.where(blocks[i] == blocks[j], p_in, p_out))
    shift = np.where(blocks % 2 == 0, 0.2, -0.2)
    feats = shift[:, None] + np.random.default_rng([seed, 5]).standard_normal((n, 8))
    return Graph(num_nodes=n, edges=edges, node_features=feats, node_labels=blocks)


def relabel_nodes(g: Graph, perm: np.ndarray) -> Graph:
    """Rename node i to perm[i]; edge list order is preserved.  ``perm``
    follows the package's integer rule (``2.0`` is 2, a fraction or a
    boolean is refused)."""
    perm = _int_field("perm", perm)
    if perm.shape != (g.num_nodes,) or not np.array_equal(np.sort(perm),
                                                          np.arange(g.num_nodes)):
        raise GraphError("perm must be a permutation of 0..N-1")
    feats = np.empty_like(g.node_features)
    feats[perm] = g.node_features
    labels = None
    if g.node_labels is not None:
        labels = np.empty_like(g.node_labels)
        labels[perm] = g.node_labels
    return Graph(
        num_nodes=g.num_nodes,
        edges=perm[g.edges],
        node_features=feats,
        edge_features=None if g.edge_features is None else g.edge_features.copy(),
        node_labels=labels,
        graph_label=g.graph_label,
    )
