"""Small-world metrics, receptive-field probing, and FLOP accounting.

Clustering and average shortest-path length are computed on the ORIGINAL
graph (the augmented token graph is an implementation device, not the object
being characterized), by one bit-row search per graph at every size: the
masks' bitset BFS run over column blocks of the reach (:func:`_summary`).
The FLOP model is analytic and uses fixed conventions:
one multiply-add = 2 FLOPs; exp, divide, subtract, and add count 1 each;
layer norm costs 5 per element and relu 1 per element.  The attention term is
the sparse kernel's own counter definition, so instrumented runs must agree
with it exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .autograd import Tensor, attention_flops, count_attention_flops, no_grad
from .graphs import Graph, GraphError, _int_value, augment, csr_from_pairs
from . import masks as masks_mod
from .masks import HopMask, _reach_levels, build_head_masks
from .model import (Model, ModelConfig, _check_mask_list, _check_masks, _check_nodes,
                    _encode, encoder_layer, forward, init_model)

FLOP_CONVENTIONS = ("multiply-add=2; exp/div/sub/add=1; layer_norm=5 per element; "
                    "relu=1 per element; attention=nnz*(4*d_h+5) per head per layer")


# ---------------------------------------------------------------------------
# Small-world measures (on the original graph)


@dataclass(frozen=True)
class SmallWorldReport:
    clustering: float
    avg_path_length: float
    num_components: int
    diameter_of_largest_component: int


# bits set in each byte value; np.bitwise_count needs numpy 2.0
_BYTE_BITS = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)


def _popcount(words: np.ndarray) -> np.ndarray:
    """Set bits per row of a 2-D C-contiguous uint64 array, as int64."""
    return _BYTE_BITS[words.view(np.uint8)].sum(axis=1, dtype=np.int64)


def _summary(g: Graph, last: int):
    """``(clustering, component, eccentricity, total, pairs)`` of the original
    graph from one bit-row search (``masks._reach_levels``) to level ``last``:
    per node the smallest node id in its component and its largest distance
    within it, then the sum of distances over reachable ordered pairs u != v
    and their number.  All but the clustering need ``last`` >= n - 1.

    The search runs over column blocks of w = max(1, BLOCK_CELLS // (2E + n))
    words, so each level's gather of 2E + n rows stays within BLOCK_CELLS
    words unless 2E + n alone exceeds it.  Within a block, row i's bit count
    grows at level d by the nodes at distance d from i.  For an edge (u, v),
    the level-1 rows N(u) + u and N(v) + v share u, v and the common
    neighbours: the popcount of their AND minus 2, summed over u's edges, is
    twice the links among u's neighbours.
    """
    n = g.num_nodes
    indptr, indices = csr_from_pairs(g.edges.ravel(), g.edges[:, ::-1].ravel(), n)
    deg = np.diff(indptr)
    sources = np.repeat(np.arange(n), deg)
    width = 64 * max(1, masks_mod.BLOCK_CELLS // max(indices.size + n, 1))
    shared = np.zeros(indices.size, dtype=np.int64)
    component = np.full(n, n, dtype=np.int64)   # n: no label yet
    eccentricity = np.zeros(n, dtype=np.int64)
    total = pairs = 0
    for lo in range(0, n, width):
        counts, count = np.zeros(n, dtype=np.int64), 0
        for level, reach in enumerate(_reach_levels(indptr, indices, n, last, lo,
                                                    min(lo + width, n))):
            if level == 1:
                both = reach[sources]
                both &= reach[indices]
                shared += _popcount(both)
            grown = _popcount(reach)
            np.maximum(eccentricity, level, out=eccentricity, where=grown > counts)
            count, was = int(grown.sum()), count
            total += level * (count - was)
            counts = grown
        pairs += count
        # a row's lowest set bit is the smallest node id reachable from it,
        # and the first block that sets one holds it
        rows = np.flatnonzero((counts > 0) & (component == n))
        word = np.argmax(reach[rows] != 0, axis=1)
        bits = np.unpackbits(reach[rows, word].view(np.uint8).reshape(-1, 8), axis=1,
                             bitorder="little")
        component[rows] = lo + 64 * word + np.argmax(bits, axis=1)
    ok = deg >= 2
    # twice the links among each node's neighbours, exact in float64
    links2 = np.bincount(sources, weights=shared, minlength=n)[ok] - 2 * deg[ok]
    clustering = 0.0
    # a Python float sum in node order, as the ratios were always added
    for r in (links2 / (deg[ok] * (deg[ok] - 1))).tolist():
        clustering += r
    return clustering / n if n else 0.0, component, eccentricity, total, pairs - n


def clustering_coefficient(g: Graph) -> float:
    """Mean over nodes of 2 * (edges among neighbours) / (deg * (deg - 1)).

    Nodes of degree < 2 contribute 0 (the ratio is undefined there).
    """
    return _summary(g, 1)[0]


def avg_shortest_path(g: Graph) -> float:
    """BFS all-pairs average over reachable ordered pairs u != v.

    Disconnected graphs average over within-component pairs only; an edgeless
    graph has no such pairs and yields 0.
    """
    return small_world_report(g).avg_path_length


def small_world_report(g: Graph) -> SmallWorldReport:
    n = g.num_nodes
    if n < 2:
        raise ValueError(f"average path length needs at least 2 nodes, got {n}")
    clustering, component, eccentricity, total, pairs = _summary(g, n)
    # a component's label is its smallest node id, so counting labels by id
    # gives each component's size at its label (np.unique's first call
    # imports numpy.ma: 12-22 ms of a CLI run on 2 vCPUs)
    sizes = np.bincount(component)
    largest = component == np.argmax(sizes)   # ties: smallest node id
    return SmallWorldReport(
        clustering=clustering,
        avg_path_length=total / pairs if pairs else 0.0,
        num_components=int(np.count_nonzero(sizes)),
        diameter_of_largest_component=int(eccentricity[largest].max()),
    )


def dataset_small_world(graphs: list[Graph]) -> tuple[float, float]:
    """Unweighted means of per-graph clustering and path length, read off one
    :func:`small_world_report` per graph."""
    if not graphs:
        raise ValueError("dataset_small_world needs a non-empty list")
    reports = [small_world_report(g) for g in graphs]
    return (float(np.mean([r.clustering for r in reports])),
            float(np.mean([r.avg_path_length for r in reports])))


# ---------------------------------------------------------------------------
# Receptive-field probing


def _probe_output(model: Model, z_values: np.ndarray, masks: list[list[HopMask]],
                  head: int | None) -> np.ndarray:
    with no_grad():
        if head is None:
            return np.array(_encode(model, Tensor(z_values), masks, [0], False).values,
                            copy=True)
        if not model.layers:
            raise ValueError("head-slice probing needs at least one layer")
        _, concat = encoder_layer(Tensor(z_values), masks, model.layers[0], model.cfg,
                                  return_heads=True)
        d_h = model.cfg.head_dim
        return np.array(concat.values[:, head * d_h:(head + 1) * d_h], copy=True)


def influence_matrix(model: Model, masks: list[HopMask], *, head: int | None = None,
                     seed: int = 0) -> np.ndarray:
    """Boolean T x T matrix, T the masks' size: entry (i, j) is True iff
    perturbing the input embedding of token j changes output row i (bitwise
    comparison).

    With ``head`` set, rows are compared on that head's slice of the first
    layer's concatenated attention output (before the output projection).
    The head masks are checked against the model once, before the first
    probe: one per head, each with its head's budget, all of one size.
    ``head`` and ``seed`` follow the package's integer rule (``1.0`` is 1, a
    fraction or a boolean is refused) and are checked then too.
    """
    t = _check_masks(model, masks)
    seed = _int_value("seed", seed, 0)
    if head is not None:
        head = _int_value("head", head)
        if not 0 <= head < model.cfg.num_heads:
            raise ValueError(f"head must be one of the model's heads "
                             f"0..{model.cfg.num_heads - 1}, got {head}")
    masks = [[mk] for mk in masks]   # one graph: a batch of one
    rng = np.random.default_rng([seed, 211])
    z0 = rng.standard_normal((t, model.cfg.hidden_dim))
    delta = rng.standard_normal(model.cfg.hidden_dim)
    base = _probe_output(model, z0, masks, head)
    out = np.zeros((t, t), dtype=bool)
    for j in range(t):
        zp = np.array(z0, copy=True)
        zp[j] += delta
        pert = _probe_output(model, zp, masks, head)
        out[:, j] = np.any(pert != base, axis=1)
    return out


def receptive_field_probe(model: Model, masks: list[HopMask], token: int) -> set[int]:
    """Tokens whose input perturbation changes output row ``token``, an index
    in [0, T) by the package's integer rule, checked before the first probe."""
    t = _check_masks(model, masks)
    token = _int_value("token", token)
    if not 0 <= token < t:
        raise ValueError(f"token must be in [0, {t}) for {t} tokens, got {token}")
    return set(np.flatnonzero(influence_matrix(model, masks)[token]).tolist())


# ---------------------------------------------------------------------------
# FLOP accounting


def attention_flop_count(cfg: ModelConfig, masks: list[HopMask]) -> int:
    """Attention-only forward FLOPs across all heads and layers."""
    per_layer = sum(attention_flops(m.nnz, cfg.head_dim) for m in masks)
    return cfg.num_layers * per_layer


def flop_count(cfg: ModelConfig, g: Graph, masks: list[HopMask]) -> int:
    """Analytic forward-pass FLOPs of the full model on graph ``g`` and its
    head masks; the projectors cost node and edge tokens at their own
    feature dims.  Refused, as no forward could do the work: a mask list
    that is not one HopMask per head of ``cfg``, a mask that does not cover
    g's N + M tokens, and a graph of no nodes on a graph-level task.  The
    masks' hop budgets are free: a count may price budgets
    ``cfg.head_hops`` does not list."""
    if not isinstance(g, Graph):
        raise GraphError(f"flop_count prices a Graph, got {type(g).__name__}")
    _check_nodes(cfg, g, "the graph")
    n, t = g.num_nodes, g.num_nodes + g.num_edges
    _check_mask_list(masks, cfg.num_heads, t)
    d, f = cfg.hidden_dim, cfg.ffn_dim
    total = 2 * d * (n * g.node_feature_dim + g.num_edges * g.edge_feature_dim)
    dense_layer = (
        6 * t * d * d        # fused Q/K/V projection (d x 3d)
        + 2 * t * d * d      # output projection
        + 2 * t * d          # two residual adds
        + 10 * t * d         # two layer norms at 5 per element
        + 2 * t * d * f + t * f   # FFN in-projection + bias
        + t * f                   # relu
        + 2 * t * f * d + t * d   # FFN out-projection + bias
    )
    total += cfg.num_layers * dense_layer
    total += attention_flop_count(cfg, masks)
    if cfg.task == "node_classification":
        c = cfg.num_classes
        total += 2 * n * d * c + n * c
    else:
        out_dim = cfg.num_classes if cfg.task == "graph_classification" else cfg.output_dim
        total += t * d + (d if cfg.readout == "mean" else 0)   # pooling
        total += 2 * d * out_dim + out_dim
    return total


@dataclass(frozen=True)
class FlopRow:
    graph_index: int
    head_hops: tuple[int, ...]
    total_mask_nnz: int
    total_flops: int
    attention_flops: int


@dataclass(frozen=True)
class FlopReport:
    rows: list[FlopRow]
    slope: float
    intercept: float
    r_squared: float

    def to_csv(self, fh) -> None:
        fh.write("# schema: graph_index,head_hops,total_mask_nnz,total_flops,attention_flops\n")
        fh.write(f"# conventions: {FLOP_CONVENTIONS}\n")
        fh.write(f"# fit: slope={self.slope!r} intercept={self.intercept!r} "
                 f"r_squared={self.r_squared!r}\n")
        for r in self.rows:
            hops = "-".join(str(h) for h in r.head_hops)
            fh.write(f"{r.graph_index},{hops},{r.total_mask_nnz},{r.total_flops},"
                     f"{r.attention_flops}\n")


def _linear_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_res = float((resid * resid).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    # a constant y is fit exactly by the zero-slope line; ss_res then holds
    # only polyfit's rounding
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), r2


def flops_vs_nnz_report(graphs: list[Graph], hop_configs: list[list[int]],
                        cfg: ModelConfig) -> FlopReport:
    """Counted FLOPs against total mask nnz across hop configurations.

    Each row's attention term is cross-checked against an instrumented
    forward pass of the sparse kernel; any disagreement is a hard error.
    """
    if not graphs:
        raise ValueError("flops_vs_nnz_report needs a non-empty graph list, got []")
    if len(hop_configs) < 3:
        raise ValueError(f"need at least 3 hop configurations, got {len(hop_configs)}")
    for gi, g in enumerate(graphs):
        _check_nodes(cfg, g, f"graph {gi}")
    rows: list[FlopRow] = []
    for gi, g in enumerate(graphs):
        ag = augment(g)
        for config in hop_configs:
            run_cfg = replace(cfg, head_hops=tuple(config))
            masks = build_head_masks(ag, list(config))
            nnz_total = sum(m.nnz for m in masks)
            total = flop_count(run_cfg, g, masks)
            attn = attention_flop_count(run_cfg, masks)
            model = init_model(run_cfg, g.node_feature_dim, g.edge_feature_dim)
            with count_attention_flops() as meter, no_grad():
                forward(model, g, None, masks)
            if meter.attention_flops != attn:
                raise RuntimeError(
                    f"instrumented attention FLOPs {meter.attention_flops} != "
                    f"analytic {attn} (graph {gi}, hops {config})")
            rows.append(FlopRow(gi, tuple(config), nnz_total, total, attn))
    x = np.asarray([r.total_mask_nnz for r in rows], dtype=np.float64)
    y = np.asarray([r.total_flops for r in rows], dtype=np.float64)
    if np.all(x == x[0]):
        raise ValueError("degenerate fit: every configuration has the same total nnz")
    slope, intercept, r2 = _linear_fit(x, y)
    return FlopReport(rows=rows, slope=slope, intercept=intercept, r_squared=r2)
