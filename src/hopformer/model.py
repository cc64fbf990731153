"""Encoder assembly: input projectors, masked multi-head attention layers,
feed-forward blocks, readout, and task heads.

The layer is a vanilla Transformer encoder layer whose only structural
ingredient is the per-head reachability mask handed to the sparse attention
kernel: one fused Q/K/V projection per layer feeds every head, and the heads
differ only in their masks.  Normalization defaults to post-norm (after each
residual add); a config switch selects pre-norm.  Projectors are bias-free so
edge tokens of a graph without edge features enter as exact zero rows.

Everything below the public entry points runs on a batch of graphs, their
token rows stacked and each head holding the list of the graphs' masks; a
single graph is a batch of one, wrapped as such on the entry's first line.

A node task's head reads only the node-token rows, so its last layer computes
those rows alone (``forward(..., rows=N)``), or only the nodes it scores
(``rows`` a sorted set of node indices): their queries attend over every
token's keys and values, with each head's kernel path still chosen by the
size of its whole mask, then by its density.  Graph tasks pool every token
and run every row of every layer.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import autograd as ops
from .autograd import Tensor, ShapeError
from .graphs import (Graph, GraphError, _config_from_obj, _finite_rows, _finite_value,
                     _int_field, _int_value, _json_object, _read_json, _write_json)
from .masks import HopMask

CHECKPOINT_MAGIC = "HOPFORMER2"

TASKS = ("node_classification", "graph_classification", "graph_regression")
READOUTS = ("mean", "sum")
NORMS = ("post", "pre")

# 2^28 float64 weights are 2 GiB, before gradients and Adam moments
MAX_WEIGHTS = 2**28


@dataclass(frozen=True)
class ModelConfig:
    hidden_dim: int
    head_hops: tuple[int, ...]
    num_layers: int
    ffn_dim: int
    num_heads: int = 4
    dropout: float = 0.0
    attention_dropout: float = 0.0
    task: str = "node_classification"
    readout: str = "mean"
    num_classes: int | None = None
    output_dim: int = 1
    norm: str = "post"
    seed: int = 0

    def __post_init__(self):
        for name, low in (("hidden_dim", 1), ("num_layers", 0), ("ffn_dim", 1),
                          ("num_heads", None), ("output_dim", 1), ("seed", 0)):
            object.__setattr__(self, name, _int_value(name, getattr(self, name), low))
        if self.num_classes is not None:
            object.__setattr__(self, "num_classes", _int_value("num_classes", self.num_classes, 1))
        if isinstance(self.head_hops, (str, bytes)) or not hasattr(self.head_hops, "__iter__"):
            raise ValueError(f"head_hops must be a list of integers, got {self.head_hops!r}")
        object.__setattr__(self, "head_hops", tuple(
            _int_value(f"head_hops entry {i}", h, 0) for i, h in enumerate(self.head_hops)))
        for name in ("dropout", "attention_dropout"):
            r = _finite_value(name, getattr(self, name))
            if not 0.0 <= r < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {r}")
            object.__setattr__(self, name, r)
        if self.num_heads < 1 or self.hidden_dim % self.num_heads != 0:
            raise ValueError(
                f"num_heads ({self.num_heads}) must divide hidden_dim ({self.hidden_dim})")
        if len(self.head_hops) != self.num_heads:
            raise ValueError(
                f"head_hops has {len(self.head_hops)} entries for {self.num_heads} heads")
        if self.task not in TASKS:
            raise ValueError(f"task must be one of {TASKS}, got {self.task!r}")
        if self.readout not in READOUTS:
            raise ValueError(f"readout must be one of {READOUTS}, got {self.readout!r}")
        if self.norm not in NORMS:
            raise ValueError(f"norm must be one of {NORMS}, got {self.norm!r}")
        if self.task.endswith("classification") and not self.num_classes:
            raise ValueError(f"num_classes required for task {self.task!r}")
        _check_weights(self, 0)

    @property
    def head_dim(self) -> int:
        return self.hidden_dim // self.num_heads


def _check_weights(cfg: ModelConfig, inputs: int) -> None:
    # from the sizes alone, before any allocation: input projections of d_v + d_e = inputs
    # columns; per layer Q/K/V and output projections, FFN weights and biases, two layer norms
    d, f = cfg.hidden_dim, cfg.ffn_dim
    out_dim = cfg.num_classes if cfg.task.endswith("classification") else cfg.output_dim
    n = inputs * d + cfg.num_layers * (4 * d * d + 2 * d * f + f + 5 * d) + (d + 1) * out_dim
    if n > MAX_WEIGHTS:
        raise ValueError(f"{n} weights ({inputs} inputs, hidden_dim={d}, ffn_dim={f}, num_layers="
                         f"{cfg.num_layers}, {out_dim} outputs) are past the cap of {MAX_WEIGHTS}")


@dataclass
class LayerParams:
    """One encoder layer's weights in checkpoint order.  ``wqkv`` (d x 3d) is
    laid out [Q heads | K heads | V heads]: head h's query is columns
    h*d_h:(h+1)*d_h, and its key and value are those columns plus d and 2d."""

    wqkv: Tensor
    wo: Tensor
    ln1_gamma: Tensor
    ln1_beta: Tensor
    ln2_gamma: Tensor
    ln2_beta: Tensor
    ffn_w1: Tensor
    ffn_b1: Tensor
    ffn_w2: Tensor
    ffn_b2: Tensor


@dataclass
class Model:
    cfg: ModelConfig
    d_v: int
    d_e: int
    proj_node: Tensor
    proj_edge: Tensor | None
    layers: list[LayerParams]
    head_w: Tensor
    head_b: Tensor


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def init_model(cfg: ModelConfig, d_v: int, d_e: int = 0) -> Model:
    """Glorot-uniform weights, zero biases, unit layer-norm gains; seeded."""
    d_v, d_e = _int_value("d_v", d_v, 1), _int_value("d_e", d_e, 0)
    _check_weights(cfg, d_v + d_e)
    rng = np.random.default_rng(cfg.seed)
    d, d_h, f = cfg.hidden_dim, cfg.head_dim, cfg.ffn_dim

    def param(fan_in, fan_out):
        return Tensor(_glorot(rng, fan_in, fan_out), requires_grad=True)

    def const(values):
        return Tensor(values, requires_grad=True)

    proj_node = param(d_v, d)
    proj_edge = param(d_e, d) if d_e > 0 else None
    layers = []
    for _ in range(cfg.num_layers):
        # per-head Glorot blocks, drawn Q heads, then K heads, then V heads
        wqkv = np.hstack([_glorot(rng, d, d_h) for _ in range(3 * cfg.num_heads)])
        layers.append(LayerParams(
            wqkv=Tensor(wqkv, requires_grad=True),
            wo=param(d, d),
            ln1_gamma=const(np.ones((1, d))),
            ln1_beta=const(np.zeros((1, d))),
            ln2_gamma=const(np.ones((1, d))),
            ln2_beta=const(np.zeros((1, d))),
            ffn_w1=param(d, f),
            ffn_b1=const(np.zeros((1, f))),
            ffn_w2=param(f, d),
            ffn_b2=const(np.zeros((1, d))),
        ))
    out_dim = cfg.num_classes if cfg.task.endswith("classification") else cfg.output_dim
    head_w = param(d, out_dim)
    head_b = const(np.zeros((1, out_dim)))
    return Model(cfg=cfg, d_v=d_v, d_e=d_e, proj_node=proj_node, proj_edge=proj_edge,
                 layers=layers, head_w=head_w, head_b=head_b)


def named_parameters(m: Model) -> dict[str, Tensor]:
    """Flat parameter dict in a fixed order (optimizer and checkpoint order)."""
    out: dict[str, Tensor] = {"proj_node": m.proj_node}
    if m.proj_edge is not None:
        out["proj_edge"] = m.proj_edge
    for l, lp in enumerate(m.layers):
        for f in fields(LayerParams):
            out[f"layer{l}.{f.name}"] = getattr(lp, f.name)
    out["head.weight"] = m.head_w
    out["head.bias"] = m.head_b
    return out


def embed_tokens(m: Model, g: Graph | list[Graph]) -> Tensor:
    """Project node features (rows 0..N-1) and edge features (rows N..T-1)
    into the shared token space; featureless edge tokens come out as zeros.

    ``g`` may also be a list, a batch of graphs: each graph's T rows, nodes
    then edges, follow the previous graph's.  Every token's features fill one
    row of ``d_v + d_e`` columns, node features in the first ``d_v`` and edge
    features in the rest, zeros elsewhere, so the whole batch is one product
    with ``proj_node`` stacked over ``proj_edge``.  :func:`_check_graph`
    checks each graph first.
    """
    if isinstance(g, Graph):   # one graph: a batch of one
        g = [g]
    for b, x in enumerate(g):
        _check_graph(m, x, f"batch graph {b}")
    feats = np.zeros((sum(x.num_nodes + x.num_edges for x in g), m.d_v + m.d_e))
    lo = 0
    for x in g:
        feats[lo:lo + x.num_nodes, :m.d_v] = x.node_features
        lo += x.num_nodes
        if m.d_e and x.num_edges:
            feats[lo:lo + x.num_edges, m.d_v:] = x.edge_features
        lo += x.num_edges
    proj = m.proj_node if m.proj_edge is None else ops.concat_rows([m.proj_node, m.proj_edge])
    return ops.matmul(Tensor(feats), proj)


def _ffn(z: Tensor, lp: LayerParams) -> Tensor:
    hidden = ops.relu(ops.add(ops.matmul(z, lp.ffn_w1), lp.ffn_b1))
    return ops.add(ops.matmul(hidden, lp.ffn_w2), lp.ffn_b2)


def encoder_layer(z: Tensor, masks: list[HopMask] | list[list[HopMask]], lp: LayerParams,
                  cfg: ModelConfig, *, training: bool = False, seed=None,
                  return_heads: bool = False, rows=None):
    """One encoder layer: masked MHSA with residual, then FFN with residual.

    ``masks`` holds one HopMask per head and ``seed`` the layer's dropout
    seed.  For a batch of graphs whose token rows are stacked in ``z``, each
    head's entry is instead the list of the graphs' masks in row order, and
    ``seed`` the list of the graphs' seeds: every graph's rows then come out
    as a layer on that graph alone with its seed gives them.  An unset seed
    is 0 for every graph, so dropout stays deterministic.  With
    ``return_heads`` the per-head attention outputs (concatenated, before the
    output projection) are returned alongside the layer output.

    With ``rows`` (one graph only; an int r for its first r rows, or a
    sorted array of row indices) the layer computes only those output rows:
    their queries attend over the keys and values of all T rows, and the
    residuals, output projection, layer norms, FFN and dropout run on those
    rows alone.  They equal those rows of the full layer's output, up to
    rounding of the weight gradients, which sum over fewer rows.  Training
    with dropout takes a leading range only.
    """
    if len(masks) != cfg.num_heads:
        raise ShapeError(f"got {len(masks)} masks for {cfg.num_heads} heads")
    if isinstance(masks[0], HopMask):   # one graph: a batch of one
        masks, seed = [[mk] for mk in masks], None if seed is None else [seed]
    sizes = [mk.size for mk in masks[0]]
    rows = ops._query_rows(rows, sizes, training and (
        cfg.dropout > 0.0 or cfg.attention_dropout > 0.0))
    # int64 segment sizes, which dropout takes without a per-element scan
    sizes = np.array(sizes if rows is None else [ops._set_len(rows)], dtype=np.int64)
    seeds = [[0]] * len(masks[0]) if seed is None else [list(s) for s in seed]

    def site(tag):
        """The dropout seeds of one site, one per graph."""
        return [s + [tag] for s in seeds]

    attn_in = ops.layer_norm(z, lp.ln1_gamma, lp.ln1_beta) if cfg.norm == "pre" else z
    q, k, v = ops.split_cols(ops.matmul(attn_in, lp.wqkv), 3)
    concat = ops.sparse_masked_attention(
        q if rows is None else ops.take_rows(q, ops._row_index(rows)), k, v, masks,
        dropout_rate=cfg.attention_dropout,
        dropout_seed=[site(h) for h in range(cfg.num_heads)], training=training, rows=rows)
    attn = ops.matmul(concat, lp.wo)
    attn = ops.dropout(attn, cfg.dropout, site(101), training, sizes)
    res1 = ops.add(z if rows is None else ops.take_rows(z, ops._row_index(rows)), attn)
    t1 = ops.layer_norm(res1, lp.ln1_gamma, lp.ln1_beta) if cfg.norm == "post" else res1
    ffn_in = ops.layer_norm(t1, lp.ln2_gamma, lp.ln2_beta) if cfg.norm == "pre" else t1
    ffn = ops.dropout(_ffn(ffn_in, lp), cfg.dropout, site(102), training, sizes)
    res2 = ops.add(t1, ffn)
    out = ops.layer_norm(res2, lp.ln2_gamma, lp.ln2_beta) if cfg.norm == "post" else res2
    return (out, concat) if return_heads else out


def _check_mask_list(masks, num_heads: int, total_tokens: int | None = None) -> int:
    """A list or tuple of ``num_heads`` HopMasks, each over ``total_tokens``
    tokens (by default the first mask's); an entry that is not one, or that
    covers another count, is refused by its head's index.  Returns the token
    count."""
    if not isinstance(masks, (list, tuple)):
        raise ShapeError(f"head masks must be a list of HopMask, got {type(masks).__name__}")
    if len(masks) != num_heads:
        raise ShapeError(f"got {len(masks)} masks for {num_heads} heads")
    for h, mask in enumerate(masks):
        if not isinstance(mask, HopMask):
            raise ShapeError(f"mask {h} is a {type(mask).__name__}, not a HopMask")
    total_tokens = masks[0].size if total_tokens is None else total_tokens
    for h, mask in enumerate(masks):
        if mask.size != total_tokens:
            raise ShapeError(f"mask {h} covers {mask.size} tokens, expected {total_tokens}")
    return total_tokens


def _check_masks(m: Model, masks: list[HopMask], total_tokens: int | None = None) -> int:
    """One graph's head masks: :func:`_check_mask_list`, and each with its
    head's budget; returns the token count."""
    total_tokens = _check_mask_list(masks, m.cfg.num_heads, total_tokens)
    for h, (mask, budget) in enumerate(zip(masks, m.cfg.head_hops)):
        if mask.hop_budget != budget:
            raise ShapeError(f"mask {h} has hop budget {mask.hop_budget}, config says {budget}")
    return total_tokens


def _check_graph(m: Model, g: Graph, name: str, masks=...) -> None:
    """The one rule for a graph fitting the model, a refusal naming ``name``:
    a Graph with node features of dim ``d_v`` and, with edges, exactly
    ``d_e`` edge-feature columns.  Given ``masks`` (None too, which is
    refused), they are its head masks by :func:`_check_masks`, over its
    N + M tokens."""
    if not isinstance(g, Graph):
        raise GraphError(f"{name} is a {type(g).__name__}, not a Graph")
    if g.node_feature_dim != m.d_v or g.num_edges and g.edge_feature_dim != m.d_e:
        raise GraphError(f"{name} has node/edge feature dims {g.node_feature_dim}/"
                         f"{g.edge_feature_dim}, the model expects {m.d_v}/{m.d_e}")
    if masks is not ...:
        try:
            _check_masks(m, masks, g.num_nodes + g.num_edges)
        except ShapeError as e:
            raise ShapeError(f"{name}: {e}") from e


def _check_nodes(cfg: ModelConfig, g: Graph, name: str) -> None:
    """Graph-level tasks' rule, a refusal naming ``name``: at least one node
    (a forward runs a graph of none, but its readout has no row to pool)."""
    if g.num_nodes == 0 and cfg.task != "node_classification":
        raise GraphError(f"{name} has no nodes; graph-level tasks need at least one")


def _encode(m: Model, z: Tensor, masks: list[list[HopMask]], seeds: list[int],
            training: bool, rows=None) -> Tensor:
    """The layer stack on a batch's stacked token rows, given per head the
    list of the graphs' masks (already checked) and one seed per graph.  With
    ``rows`` (one graph, a row set as ``autograd._query_rows`` returns it)
    the last layer computes only those rows, and only they are returned."""
    for l, lp in enumerate(m.layers):
        z = encoder_layer(z, masks, lp, m.cfg, training=training,
                          seed=[[s, l] for s in seeds],
                          rows=rows if l == len(m.layers) - 1 else None)
    if not m.layers and rows is not None:
        z = ops.take_rows(z, ops._row_index(rows))
    return z


def encode(m: Model, z: Tensor, masks: list[HopMask]) -> Tensor:
    """Run the layer stack, in eval mode, on one graph's token embeddings
    (T x d) and head masks."""
    _check_masks(m, masks, z.values.shape[0])
    return _encode(m, z, [[mk] for mk in masks], [0], False)


def forward(m: Model, g: Graph | list[Graph], _ag,
            masks: list[HopMask] | list[list[HopMask]], *, training: bool = False,
            rng_seed=None, graph_ids=None, rows=None) -> Tensor:
    """Embed and encode; returns the T x d token representations.

    ``g`` and ``masks`` may also be parallel lists over a batch of graphs
    (``masks`` then holds each graph's head-mask list); one graph is a batch
    of one.  The result stacks each graph's T rows in batch order, and every
    graph attends only within its own rows.  Graph b draws its dropout from
    ``rng_seed + graph_ids[b]`` (``graph_ids`` defaults to the batch
    positions; an unset ``rng_seed`` is 0 for every graph), so its rows equal
    those of a forward on it alone with that seed, up to rounding.  Both
    follow the package's integer rule (``2.0`` is 2, a boolean or a fraction
    is refused) and may not be negative.

    ``rows`` (one graph only) asks for a set of token rows alone: an int r
    in [1, T] for the first r, a node task's N node rows, or a sorted array
    of row indices, such as the nodes a split scores.  The last layer then
    computes only those rows, every earlier layer all T, since the kept rows
    attend over every token.  They equal those rows of a full forward; only
    rounding in the weight gradients differs.  A set that is unsorted,
    repeats an index, leaves [0, T) or is empty is refused, naming the
    entry, and so is a set that is not a leading range in a training
    forward that draws dropout, whose seeded draws are made for leading
    rows.  Graph tasks pool every token and so leave it unset.

    ``g`` gives the token layout (nodes, then edges).  The third argument is
    not read; it stays positional so calls that pass the graph's
    AugmentedGraph there still run.  :func:`_check_graph` checks each graph
    and its masks before any tape entry.
    """
    if isinstance(g, Graph):   # one graph: a batch of one
        g, masks = [g], [masks]
    if not all(isinstance(x, (list, tuple)) for x in (g, masks)):
        raise ShapeError("forward takes a Graph and its head masks, or parallel lists of them")
    ids = range(len(g)) if graph_ids is None else _int_field("graph_ids", graph_ids, 0)
    if np.ndim(ids) != 1:
        raise ShapeError(f"graph_ids must be a list of integers, got {graph_ids!r}")
    if not len(g) == len(masks) == len(ids):
        raise ShapeError(f"a batch of {len(g)} graphs got {len(masks)} head-mask lists "
                         f"and {len(ids)} graph ids")
    seed = 0 if rng_seed is None else _int_value("rng_seed", rng_seed, 0)
    for b, (x, gm) in enumerate(zip(g, masks)):
        _check_graph(m, x, f"batch graph {b}", gm)
    rows = ops._query_rows(rows, [x.num_nodes + x.num_edges for x in g], training and (
        m.cfg.dropout > 0.0 or m.cfg.attention_dropout > 0.0))
    seeds = [0] * len(g) if rng_seed is None else [seed + int(i) for i in ids]
    return _encode(m, embed_tokens(m, g), [list(hm) for hm in zip(*masks)], seeds,
                   training, rows)


def readout(h: Tensor, mode: str, sizes=None) -> Tensor:
    """Permutation-invariant pooling over ALL token rows (node and edge).

    For a batch, ``sizes`` lists each graph's row count, and the result holds
    one pooled row per graph.
    """
    if mode not in READOUTS:
        raise ValueError(f"readout must be one of {READOUTS}, got {mode!r}")
    return ops.pool_segments(h, [h.values.shape[0]] if sizes is None else sizes,
                             mean=mode == "mean")


def predict_node(m: Model, h: Tensor, num_nodes: int) -> Tensor:
    """Apply the shared node head to node-token rows only; logits N x C.

    ``h`` holds the graph's token rows, nodes first, or just its N node rows
    (a forward with ``rows=N``); fewer rows than nodes are refused.  For a
    forward that asked for a set of node rows, ``num_nodes`` is the set's
    size, and the logits are the set's, in its order.  ``num_nodes`` follows
    the package's integer rule and may not be negative."""
    if m.cfg.task != "node_classification":
        raise ValueError(f"predict_node needs a node_classification model, got {m.cfg.task!r}")
    num_nodes = _int_value("num_nodes", num_nodes, 0)
    if h.values.shape[0] < num_nodes:
        raise ShapeError(f"predict_node needs {num_nodes} node rows, h has "
                         f"{h.values.shape[0]} rows")
    nodes = h if h.values.shape[0] == num_nodes else ops.row_slice(h, 0, num_nodes)
    return ops.add(ops.matmul(nodes, m.head_w), m.head_b)


def predict_graph(m: Model, h_graph: Tensor) -> Tensor:
    """Apply the graph head to pooled representations, one row per graph."""
    if m.cfg.task == "node_classification":
        raise ValueError("predict_graph needs a graph-level model")
    return ops.add(ops.matmul(h_graph, m.head_w), m.head_b)


# ---------------------------------------------------------------------------
# Checkpoints


def save_model(m: Model, path: str) -> None:
    obj = {
        "magic": CHECKPOINT_MAGIC,
        "config": asdict(m.cfg),
        "d_v": m.d_v,
        "d_e": m.d_e,
        "params": {name: t.values.tolist() for name, t in named_parameters(m).items()},
    }
    _write_json(path, obj)


def load_model(path: str) -> Model:
    obj = _json_object(f"checkpoint {path}", _read_json(Path(path)),
                       ("magic", "config", "d_v", "d_e", "params"))
    if obj["magic"] != CHECKPOINT_MAGIC:
        raise ValueError(f"not a model checkpoint (magic {obj['magic']!r})")
    # ModelConfig turns the head_hops list into a tuple
    cfg = _config_from_obj(f"checkpoint {path} field 'config'", obj["config"], ModelConfig)
    m = init_model(cfg, obj["d_v"], obj["d_e"])
    params = named_parameters(m)
    stored = _json_object(f"checkpoint {path} field 'params'", obj["params"])
    odd = sorted(set(stored) ^ set(params))
    if odd:
        raise ValueError(f"checkpoint parameter names do not match the config: {odd[0]} is "
                         f"{'unknown' if odd[0] in stored else 'missing'}")
    for name, t in params.items():
        arr = _finite_rows(f"checkpoint param {name}", stored[name])
        if arr.shape != t.values.shape:
            raise ValueError(
                f"checkpoint param {name} has shape {arr.shape}, expected {t.values.shape}")
        t.values = arr
    return m


def copy_parameter_values(m: Model) -> dict[str, np.ndarray]:
    return {name: np.array(t.values, copy=True) for name, t in named_parameters(m).items()}


def set_parameter_values(m: Model, values: dict[str, np.ndarray]) -> None:
    for name, t in named_parameters(m).items():
        t.values = np.array(values[name], copy=True)
