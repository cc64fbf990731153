"""Minimal reverse-mode differentiation on dense 2-D float64 arrays.

A primitive computes its forward values eagerly, defines ``grad_fn(g)`` that
adds its inputs' grads given its output's grad ``g``, and returns
``primitive(values, grad_fn)``: the one place that wraps the values in a
:class:`Tensor` and records the output with its ``grad_fn`` on a per-thread
tape.  (:func:`record` takes a closure of no arguments, for multi-output
primitives.)  :func:`backward` walks the tape in reverse, calling each
``grad_fn`` whose output received a grad, which accumulates into
``Tensor.grad``, then clears the tape.  A recorded ``grad_fn`` keeps the
arrays its backward reads alive until then.

Two context managers choose what is recorded.  Inside :func:`no_grad`, for a
forward whose result is only read (scoring, ``evaluate``, the probes, FLOP
counting), ``primitive`` and ``record`` check one per-thread flag and leave
the tape alone, so each ``grad_fn`` and what it holds is freed as soon as the
forward is past it; values are the same as when recorded.
:func:`scratch_tape` gives a forward that is differentiated (``train``,
``grad_check``'s analytic pass) a tape of its own, recording even inside
``no_grad``.

The one non-standard primitive is :func:`sparse_masked_attention`, which
evaluates scaled dot-product attention only on the stored entries of a
reachability mask: excluded pairs enter neither the scores nor the softmax
normalization, in forward or backward.

The kernel picks one of two paths per mask from its size and density.  A
mask of at most ``STACK_MAX_TOKENS`` tokens (a small graph) always takes the
masked dense path: at that size, for a layer of several heads, the nnz
path's fixed numpy-call cost outweighs the dense path's cost for the cells
off the support at nearly every density (the table beside the constant).
A larger mask takes the nnz path below ``DENSE_MIN_DENSITY``.  The nnz path
works on stored entries only, in a column layout: q, k, v and the upstream
gradient are transposed once to contiguous (d_h, T) arrays.  CSR rows are
sorted, so a query-side array reaches each row's stored entries by
``np.repeat`` over the row counts, and a key-side array by one ``take`` of
the column ids; no per-entry row ids are built.
The forward's scores are one column sum of a product of two (d_h, nnz)
blocks, and per-row sums are one ``np.add.reduceat`` along the nnz axis.
The backward runs one head dimension at a time on nnz-long vectors, so it
holds no (d_h, nnz) block.  The number of numpy calls per kernel call grows
with d_h, not with nnz.  The masked dense path computes the T x T scores
with BLAS, adds the mask's cached additive bias (0.0 on the support, -inf
off it; none for a full mask), keeps ``np.exp`` on finite values by a clamp
at ``EXP_FLOOR``, and runs its backward as four matrix products.  It scores
T^2 <= max(nnz / DENSE_MIN_DENSITY, STACK_MAX_TOKENS^2) cells: linear in nnz
above the small-graph bound, and at most STACK_MAX_TOKENS^2 cells per head
below it.  Both paths give the same results up to rounding.

The kernel takes a batch of graphs and a layer's heads in one call, which
records one tape entry: a list over graphs of each graph's H head masks,
with q, k and v holding the graphs' token rows stacked and H * d_h columns,
head h's in columns h*d_h:(h+1)*d_h.  One mask is a batch of one graph and
one head.  The batch runs graph by graph on views of each graph's rows, so
a graph's results are those of a call on it alone; an empty graph makes no
part.  Row-wise primitives need no such form, as they act on each row
alone; :func:`dropout` draws a batch's keep mask per segment, one tensor
being one segment, and :func:`pool_segments` pools each segment's rows into
one.

The dense path works on exact-shape (heads, T, T) stacks, with no padding,
of any H >= 1 heads: one ``np.matmul`` per product, which runs the same
GEMM per head as a stack of that head alone, and row reductions over the
last axis, which see the same rows.  So a head's results do not depend on
the heads stacked with it.  A graph of at most ``STACK_MAX_TOKENS`` tokens
runs every head as one stack, whatever the heads' densities, paying the
path's numpy-call overhead once per graph and layer, and makes no nnz-path
call; a larger graph runs each head on the path its mask picks, a dense
head as a stack of one.  Each part draws its attention dropout and adds its
FLOP counts where it runs, and writes its results into its heads' columns
of one (rows, H * d_h) array, which is the layer's concatenation of the
heads.

On one graph the kernel also takes the queries of only a sorted set of its
rows, ``rows``, keys and values keeping all T; unset, q holds all T rows.
It then reads only the set's CSR rows and the set's rows of the dense bias,
so its work scales with the set's stored entries.  A leading range r reads
the CSR prefix (``indptr[:r+1]`` and the first ``indptr[r]`` stored entries)
and the first r bias rows as views; any other set gathers its CSR rows with
one ``repeat``, ``arange`` and ``take``.  A node task's last encoder layer
computes its node rows this way, and its ``evaluate`` only the rows it
scores; graph tasks pool every token and run full calls.  The path is still
the one the whole mask's size and density pick.

Determinism: on the nnz path per-row sums (``reduceat``) run in ascending
column order (CSR order) and the key and value scatters (one ``bincount`` per
column) in stored-entry order; the dense path runs fixed BLAS products.
Identical inputs produce bit-identical outputs.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .graphs import GraphError, _int_field, _int_value, _is_number
from .masks import HopMask


class ShapeError(ValueError):
    """Incompatible operand shapes."""


class Tensor:
    """Dense 2-D float64 array participating in the recorded computation."""

    __slots__ = ("values", "grad", "requires_grad")

    def __init__(self, values, requires_grad: bool = False):
        arr = np.atleast_2d(np.asarray(values, dtype=np.float64))
        if arr.ndim != 2:
            raise ShapeError(f"tensors are 2-D, got shape {arr.shape}")
        self.values = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    def _accum(self, g: np.ndarray) -> None:
        self.grad = g if self.grad is None else self.grad + g

    def __repr__(self) -> str:
        return f"Tensor(shape={self.values.shape}, requires_grad={self.requires_grad})"


class _ThreadState(threading.local):
    """Per thread: the active tape, whether primitives record on it, and the
    open FLOP meters."""

    def __init__(self):
        self.tape = []
        self.recording = True
        self.meters = []


_state = _ThreadState()


def _tape() -> list:
    """The active tape: one ``(output, grad_fn)`` entry per primitive call, in
    the order the calls ran (``output`` is None for a :func:`record` entry)."""
    return _state.tape


def record(backward_fn) -> None:
    """Record a closure that :func:`backward` calls with no arguments, for
    multi-output and custom primitives; inside :func:`no_grad`, drop it."""
    if _state.recording:
        _state.tape.append((None, backward_fn))


def primitive(values, grad_fn) -> Tensor:
    """``values`` as a new Tensor whose backward calls ``grad_fn(out.grad)``.

    :func:`backward` skips the call when no grad reached the output, so
    ``grad_fn`` needs no check of its own.  The tape keeps the pair
    ``(out, grad_fn)`` rather than a guarding closure: building one more
    closure per call cost about 0.4 us on 2 vCPUs, +10% on the smallest
    primitives.  Inside :func:`no_grad` nothing is recorded.
    """
    out = Tensor(values)
    if _state.recording:
        _state.tape.append((out, grad_fn))
    return out


@contextmanager
def no_grad():
    """Record nothing inside the block, for a forward whose result is only
    read: :func:`primitive` and :func:`record` leave the tape alone, so each
    backward closure, and the arrays it holds, is freed as soon as the
    forward is done with its inputs.  Values are the same as when recorded.

    The flag is the thread's and is put back however the block ends.  A
    :func:`scratch_tape` block inside records on its own tape; a ``no_grad``
    block inside a ``scratch_tape`` block records nothing.
    """
    prev = _state.recording
    _state.recording = False
    try:
        yield
    finally:
        _state.recording = prev


@contextmanager
def scratch_tape():
    """Record on a fresh tape inside the block, even inside :func:`no_grad`,
    and put the thread's tape and recording flag back, untouched, however the
    block ends.

    What the block records stays on its tape until a :func:`backward` in the
    block walks and clears it, or the block ends and drops it: a forward
    recorded in one step may be differentiated in a later step of the same
    block (``train`` holds its node-task forward across the Adam step this
    way).  It is for forwards that are differentiated; a forward whose grads
    are unwanted runs under :func:`no_grad` instead.
    """
    prev, prev_recording = _state.tape, _state.recording
    _state.tape, _state.recording = [], True
    try:
        yield _state.tape
    finally:
        _state.tape, _state.recording = prev, prev_recording


def backward(loss: Tensor) -> None:
    """Populate grads of everything feeding a scalar loss; clears the tape.

    The tape walked is the active one: the innermost :func:`scratch_tape`
    block's, holding everything recorded in that block since its last
    backward, or else the thread's."""
    if loss.values.shape != (1, 1):
        raise ShapeError(f"loss must be scalar (1, 1), got shape {loss.values.shape}")
    t = _tape()
    if not t:
        raise RuntimeError("backward called on an empty tape")
    loss._accum(np.ones((1, 1)))
    for out, fn in reversed(t):
        if out is None:
            fn()
        elif out.grad is not None:
            fn(out.grad)
    t.clear()


# ---------------------------------------------------------------------------
# FLOP metering for the sparse kernel


def attention_flops(nnz: int, head_dim: int) -> int:
    """Forward FLOPs of one masked-attention call.

    Per stored entry: 2*d_h for the score dot product (multiply-add = 2),
    1 to scale, 4 for the softmax (max-subtract, exp, sum-accumulate, divide),
    and 2*d_h to accumulate the weighted value row.  Both counts follow the
    package's integer rule; ``head_dim`` is positive.
    """
    return _int_value("nnz", nnz, 0) * (4 * _int_value("head_dim", head_dim, 1) + 5)


@dataclass
class FlopMeter:
    """``attention_flops`` is the paper's cost model, nnz-based on every path;
    ``executed_flops`` counts the entries the kernel actually scored, which on
    the masked dense path is all T^2 of them.  A call on a query row set of r
    rows counts the set's stored entries, and r x T cells executed on the
    dense path."""

    attention_flops: int = 0
    executed_flops: int = 0


@contextmanager
def count_attention_flops():
    """Collect the attention FLOPs of every sparse kernel call in the block."""
    meter = FlopMeter()
    _state.meters.append(meter)
    try:
        yield meter
    finally:
        _state.meters.pop()


# ---------------------------------------------------------------------------
# Dense primitives


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.values.shape[1] != b.values.shape[0]:
        raise ShapeError(f"matmul mismatch: {a.values.shape} @ {b.values.shape}")
    av, bv = a.values, b.values

    def grad_fn(g):
        a._accum(g @ bv.T)
        b._accum(av.T @ g)

    return primitive(av @ bv, grad_fn)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; b may also be a single row broadcast over a's rows."""
    sa, sb = a.values.shape, b.values.shape
    broadcast = sb == (1, sa[1]) and sa[0] != 1
    if not broadcast and sa != sb:
        raise ShapeError(f"add mismatch: {sa} vs {sb}")

    def grad_fn(g):
        a._accum(g)
        b._accum(g.sum(axis=0, keepdims=True) if broadcast else g)

    return primitive(a.values + b.values, grad_fn)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    return primitive(c * a.values, lambda g: a._accum(c * g))


def relu(a: Tensor) -> Tensor:
    pos = a.values > 0
    return primitive(np.where(pos, a.values, 0.0), lambda g: a._accum(g * pos))


def _concat(parts: list[Tensor], axis: int) -> Tensor:
    """The body of concat_rows (axis 0) and concat_cols (axis 1)."""
    name, kept, unit = ("concat_rows", "column", "cols") if axis == 0 else (
        "concat_cols", "row", "rows")
    n = parts[0].values.shape[1 - axis]
    for p in parts:
        if p.values.shape[1 - axis] != n:
            raise ShapeError(f"{name} {kept} mismatch: {p.values.shape} vs {n} {unit}")
    offsets = np.cumsum([0] + [p.values.shape[axis] for p in parts])

    def grad_fn(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            p._accum(g[lo:hi] if axis == 0 else g[:, lo:hi])

    return primitive(np.concatenate([p.values for p in parts], axis=axis), grad_fn)


def concat_cols(parts: list[Tensor]) -> Tensor:
    return _concat(parts, 1)


def concat_rows(parts: list[Tensor]) -> Tensor:
    return _concat(parts, 0)


def split_cols(a: Tensor, n: int) -> list[Tensor]:
    """``a`` cut into ``n`` equal-width column blocks; inverse of concat_cols.
    ``n`` is a positive count by the package's integer rule."""
    parts = [Tensor(p) for p in np.split(a.values, _int_value("n", n, 1), axis=1)]

    def bwd():
        if any(p.grad is not None for p in parts):
            a._accum(np.concatenate([np.zeros_like(p.values) if p.grad is None else p.grad
                                     for p in parts], axis=1))

    record(bwd)
    return parts


def take_rows(a: Tensor, rows) -> Tensor:
    """``a[rows]`` for a slice or an array of distinct row indices, all within
    the n rows of ``a``: nothing is clipped or wrapped, and a repeated row is
    refused, since the backward assigns each row's grad once rather than
    summing it."""
    n = a.values.shape[0]
    if isinstance(rows, slice):
        if rows.step is not None or not 0 <= rows.start <= rows.stop <= n:
            raise ShapeError(f"row slice {rows.start}:{rows.stop} is not within the {n} rows")
    elif np.size(rows):
        if not 0 <= np.min(rows) <= np.max(rows) < n:
            raise ShapeError(f"row indices {np.min(rows)}..{np.max(rows)} "
                             f"are not all in [0, {n})")
        counts = np.bincount(np.reshape(rows, -1), minlength=n)
        if counts.max() > 1:
            first = next(r for r in np.reshape(rows, -1).tolist() if counts[r] > 1)
            raise ShapeError(f"row index {first} is taken more than once")

    def grad_fn(g):
        full = np.zeros_like(a.values)
        full[rows] = g
        a._accum(full)

    return primitive(a.values[rows].copy(), grad_fn)


def row_slice(a: Tensor, start: int, stop: int) -> Tensor:
    """Rows ``start:stop`` of ``a``; both bounds follow the package's integer
    rule, and :func:`take_rows` refuses a slice outside ``a``."""
    return take_rows(a, slice(_int_value("start", start), _int_value("stop", stop)))


def sum_all(a: Tensor) -> Tensor:
    return primitive([[a.values.sum()]], lambda g: a._accum(np.full_like(a.values, g[0, 0])))


def sum_rows(a: Tensor) -> Tensor:
    return pool_segments(a, [a.values.shape[0]])


def mean_rows(a: Tensor) -> Tensor:
    return pool_segments(a, [a.values.shape[0]], mean=True)


def pool_segments(a: Tensor, sizes, mean: bool = False) -> Tensor:
    """One row per segment of consecutive rows of ``a``: their sum, or with
    ``mean`` their mean.  ``sizes`` lists the segments' row counts, each at
    least 1, summing to the row count of ``a``; they follow the package's
    integer rule (``2.0`` is 2, a fraction or a boolean is refused)."""
    sizes = _int_field("segment sizes", sizes)
    if sizes.ndim != 1 or sizes.size == 0 or sizes.min() < 1 or sizes.sum() != a.values.shape[0]:
        raise ShapeError(f"segment sizes {sizes.tolist()} do not split "
                         f"{a.values.shape[0]} rows into non-empty segments")
    starts = np.concatenate(([0], np.cumsum(sizes[:-1])))
    pooled = np.add.reduceat(a.values, starts, axis=0)
    if mean:
        pooled /= sizes[:, None]

    def grad_fn(g):
        a._accum(np.repeat(g / sizes[:, None] if mean else g, sizes, axis=0))

    return primitive(pooled, grad_fn)


LAYER_NORM_EPS = 1e-5


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    d = x.values.shape[1]
    if gamma.values.shape != (1, d) or beta.values.shape != (1, d):
        raise ShapeError(
            f"layer_norm params must be (1, {d}), got {gamma.values.shape} and {beta.values.shape}")
    mu = x.values.mean(axis=1, keepdims=True)
    xc = x.values - mu
    var = (xc * xc).mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat = xc * inv
    gv = gamma.values

    def grad_fn(g):
        gamma._accum((g * xhat).sum(axis=0, keepdims=True))
        beta._accum(g.sum(axis=0, keepdims=True))
        dxhat = g * gv
        x._accum(inv * (dxhat - dxhat.mean(axis=1, keepdims=True)
                        - xhat * (dxhat * xhat).mean(axis=1, keepdims=True)))

    return primitive(xhat * gv + beta.values, grad_fn)


def dropout(x: Tensor, rate: float, seed, training_flag: bool, sizes=None) -> Tensor:
    """Inverted dropout; identity when not training or rate is 0.

    ``sizes`` lists the row counts of consecutive segments of ``x`` and
    ``seed`` holds one seed per segment; each segment draws its keep mask from
    its own seed exactly as a call on that segment alone would.  Without
    ``sizes``, ``x`` is one segment and ``seed`` its seed.  An unset (None)
    seed is 0, so every draw is reproducible.  Sizes follow the package's
    integer rule in every mode (``2.0`` is 2, a fraction or a boolean is
    refused).
    """
    if sizes is not None:
        sizes = _int_field("segment sizes", sizes)
        if sizes.ndim != 1:
            raise ShapeError(f"segment sizes must be a flat list, got {sizes.tolist()}")
    seeds, sizes = ([seed], [x.values.shape[0]]) if sizes is None else (seed, sizes.tolist())
    _check_rate(rate)
    n, d = x.values.shape
    # checked in every mode, as sparse_masked_attention checks its seeds, so a
    # mismatch shows at evaluation too, not only once training starts
    if sum(sizes) != n or len(seeds) != len(sizes):
        raise ShapeError(f"{len(seeds)} seeds and segment sizes summing to {sum(sizes)} "
                         f"for {n} rows")
    if not training_flag or rate == 0.0:
        return x
    draws = [np.random.default_rng(0 if s is None else s).random((r, d))
             for s, r in zip(seeds, sizes)]
    draw = draws[0] if len(draws) == 1 else np.concatenate(draws)
    keep = (draw >= rate) / (1.0 - rate)
    return primitive(x.values * keep, lambda g: x._accum(g * keep))


def _check_rate(rate: float) -> None:
    """Refuse a dropout rate that is not a number (a boolean included) or lies
    outside [0, 1): NaN and negative rates would drop nothing, and a rate of 1
    or more every weight."""
    if not _is_number(rate):
        raise GraphError(f"dropout rate must be a number, got {rate!r}")
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")


# ---------------------------------------------------------------------------
# Sparse masked attention


def _masked_softmax(qt: np.ndarray, kt: np.ndarray, col: np.ndarray,
                    starts: np.ndarray) -> np.ndarray:
    # Scores and row softmax on (d_h, T) column layouts: the key columns
    # gathered and the query columns repeated by row count into (d_h, nnz)
    # blocks, one column sum, and row max and sum as reduceat over the CSR
    # row starts, repeated back over each row's entries.
    counts = np.diff(starts, append=col.size)
    scores = np.repeat(qt, counts, axis=1)
    scores *= kt.take(col, axis=1)
    scores = scores.sum(axis=0)
    scores *= 1.0 / np.sqrt(qt.shape[0])
    scores -= np.repeat(np.maximum.reduceat(scores, starts), counts)
    expd = np.exp(scores, out=scores)
    return expd / np.repeat(np.add.reduceat(expd, starts), counts)


# Masks of more than STACK_MAX_TOKENS tokens with nnz >= DENSE_MIN_DENSITY *
# T^2 run on the masked dense path, sparser ones on the nnz path.  Per-call
# forward + backward, d_h = 4, float64, numpy 2.4.6 with OpenBLAS 0.3.31 on 2
# vCPUs, medians of 21 interleaved calls, column-layout nnz path vs dense
# path (masked by the additive bias):
#   SBM hop masks, T = 344:   density 0.06: 0.57 vs 1.04 ms; 0.14: 1.04 vs 1.02 ms;
#                             0.41: 4.2 vs 1.08 ms; 1.00: 11 vs 0.87 ms
#   SBM hop masks, T = 1305:  density 0.05: 7.1 vs 24 ms; 0.19: 27 vs 24 ms;
#                             0.32: 62 vs 26 ms
#   ring hop masks, T = 340:  density 0.10: 0.76 vs 1.09 ms; 0.14: 1.17 vs 1.21 ms;
#                             0.25: 2.5 vs 1.45 ms
#   ring hop masks, T = 1212: density 0.10: 14 vs 22 ms; 0.15: 24 vs 24 ms;
#                             0.25: 39 vs 24 ms
# At T <= 44 the dense path is faster at every density (ring, T = 44, density
# 0.07: 191 vs 75 us), which is why small graphs skip this rule (see
# STACK_MAX_TOKENS).  The paths break even near density 0.14-0.15; a
# second run, 1.5x slower throughout, put it at the same densities.  0.25
# keeps the dense path at least 1.6x faster wherever it is chosen, keeps the
# 14% hop-3 heads of the SBM node task on the nnz path, where the two paths
# take about the same time, and bounds the T x T buffers by T^2 <= 4 * nnz.
DENSE_MIN_DENSITY = 0.25


def _query_rows(rows, sizes: list[int], dropout: bool):
    """``rows`` checked as a query row set of a batch of masks of ``sizes``
    tokens.  The batch must be one mask, of t tokens, and the set an int r
    in [1, t], shorthand for range(r), or a non-empty 1-D array of row
    indices in [0, t), strictly ascending.  Both follow the package's integer rule (``2.0``
    is 2, a fraction or a boolean is refused), and a refusal names the bad
    entry or shape.  Returns None when ``rows`` is unset or all t rows, an
    int r when the set is the leading range(r), else the set as an int64
    array.  With ``dropout`` (a forward that draws dropout) only a leading
    range passes: the draws of a leading range are the first rows of the
    draws for all rows."""
    if rows is None:
        return None
    if len(sizes) != 1:
        raise ShapeError(f"rows asks for query rows of one graph, got a batch of {len(sizes)}")
    t = sizes[0]
    if np.ndim(rows) == 0:
        r = _int_value("rows", rows)
        if not 1 <= r <= t:
            raise ShapeError(f"rows must be in [1, {t}] for {t} tokens, got {r}")
        return None if r == t else r
    idx = _int_field("rows", rows)
    if idx.ndim != 1 or idx.size == 0:
        raise ShapeError(f"rows must be a non-empty 1-D set of row indices, "
                         f"got shape {idx.shape}")
    bad = np.flatnonzero((idx < 0) | (idx >= t))
    if bad.size:
        raise ShapeError(f"rows entry {bad[0]} is {idx[bad[0]]}, outside [0, {t})")
    bad = np.flatnonzero(idx[1:] <= idx[:-1])
    if bad.size:
        i = bad[0] + 1
        how = "repeats" if idx[i] == idx[i - 1] else "is below"
        raise ShapeError(f"rows entry {i} ({idx[i]}) {how} entry {i - 1} ({idx[i - 1]}); "
                         f"rows must strictly ascend")
    if idx[-1] == idx.size - 1:   # ascending from 0 with no gap: range(r)
        return None if idx.size == t else idx.size
    if dropout:
        i = int(np.argmax(idx != np.arange(idx.size)))
        raise ShapeError(f"rows entry {i} is {idx[i]}, not {i}: a forward that draws "
                         f"dropout takes a leading range of rows")
    return idx


def _row_index(rows):
    """The index of a query row set, as :func:`_query_rows` returns it: a
    slice for a leading range, so that indexing with it gives a view."""
    return slice(0, rows) if isinstance(rows, int) else rows


def _set_len(rows) -> int:
    """The number of rows of a query row set."""
    return rows if isinstance(rows, int) else rows.size


def _set_nnz(b: HopMask, rows) -> int:
    """The stored entries of a query row set's rows of ``b``."""
    if isinstance(rows, int):
        return int(b.indptr[rows])
    return int((b.indptr[rows + 1] - b.indptr[rows]).sum())


def _csr_rows(b: HopMask, rows) -> tuple[np.ndarray, np.ndarray]:
    """(col, starts) of a query row set's rows of ``b`` (see
    :func:`_query_rows`; an int r is range(r)): the stored entries' column
    ids and the rows' starts in them.  A leading range r gives views of the
    first ``indptr[r]`` column ids and the first r row starts (no copy);
    another set gathers its rows' column ids, in row order, by one ``take``.
    """
    if isinstance(rows, int):
        return b.indices[:b.indptr[rows]], b.indptr[:rows]
    lo = b.indptr[rows]
    counts = b.indptr[rows + 1] - lo
    starts = np.cumsum(counts) - counts
    return b.indices.take(np.repeat(lo - starts, counts)
                          + np.arange(starts[-1] + counts[-1])), starts


def _sparse_path(qv, kv, vv, csr, dropmult):
    """Attention over the stored entries of a CSR pair ``(col, starts)``:
    the stored entries' column ids and the rows' starts in them.  Returns
    (out, grads(g)).

    The r rows of ``qv`` are the queries of the pair's r rows, which attend
    over all T rows of ``kv`` and ``vv``; the path reads only those rows'
    stored entries.  Works on (d_h, T) transposes.  Rows are sorted, so a
    query-side array reaches its row's entries by ``np.repeat`` over the
    row counts, and a key-side one by a ``take`` of the column ids; row sums
    are ``reduceat`` over the row starts, and the key and value scatters one
    ``bincount`` per column.  The forward works on (d_h, nnz) blocks.  The
    backward keeps none alive until it runs, and runs one head dimension at
    a time, so it holds nothing larger than a few nnz-long vectors.
    """
    t, d_h = kv.shape
    col, starts = csr
    qt, kt, vt = (np.ascontiguousarray(a.T) for a in (qv, kv, vv))
    inv_sqrt = 1.0 / np.sqrt(d_h)
    alpha = _masked_softmax(qt, kt, col, starts)
    applied = alpha if dropmult is None else alpha * dropmult
    vals = vt.take(col, axis=1)
    vals *= applied
    out = np.add.reduceat(vals, starts, axis=1)

    def grads(g):
        counts = np.diff(starts, append=col.size)
        gt = np.ascontiguousarray(g.T)
        dq, dk, dv = np.empty_like(qt), np.empty_like(kt), np.empty_like(vt)
        # wd is <v_j, g_i> per entry, summed over d in order from +0.0 as a
        # column sum of the (d_h, nnz) block is (so an all -0.0 sum is +0.0);
        # dv takes the same repeated g rows
        wd = 0.0
        for d in range(d_h):
            g_rows = np.repeat(gt[d], counts)
            term = vt[d].take(col)
            term *= g_rows
            wd += term
            g_rows *= applied
            dv[d] = np.bincount(col, weights=g_rows, minlength=t)
            del term, g_rows   # at most three nnz-long vectors at a time
        # alpha * d_alpha == applied * d_applied, so dropout needs no own term
        wd *= applied
        dscore = wd   # in place: wd is not read again
        dscore -= alpha * np.repeat(np.add.reduceat(wd, starts), counts)
        dscore *= inv_sqrt
        for d in range(d_h):
            term = kt[d].take(col)
            term *= dscore
            np.add.reduceat(term, starts, out=dq[d])
            term = np.repeat(qt[d], counts)
            term *= dscore
            dk[d] = np.bincount(col, weights=term, minlength=t)
        return dq.T, dk.T, dv.T

    return out.T, grads


# The masked dense path's softmax clamps shifted scores at EXP_FLOOR, so
# np.exp only sees finite values: over -inf it takes numpy's slow path.  At
# T = 339 with 30% of the cells off the support (2 vCPUs, best of 5), exp took
# 766 us with -inf there against 117 us on the clamped scores, and writing
# the -inf by np.copyto(..., where=~support) took 800 us against 145 us for
# adding the bias.  e^-700 (about 9.9e-305) is still a normal
# double; e^-709 ... e^-745 are subnormal and e^-746 underflows to 0.  An
# off-support cell's clamped e^-700 is cleared back to an exact +0.0 by
# adding the -inf bias and taking the maximum with 0.  An on-support shifted
# score below -700 gets the weight e^-700 / sum instead of e^x / sum, both
# below 1e-304; every other weight is bit-identical to masking with -inf
# before the exp.
EXP_FLOOR = -700.0


def _dense_softmax(scores: np.ndarray, biases) -> np.ndarray:
    """Row softmax over the last axis of an (H, r, T) stack of ``scores``, in
    place, masked by the ``(head, bias)`` pairs: ``scores[head]`` gets the
    additive ``bias`` (0.0 on the support, -inf off it) and exact +0.0
    weights where it is -inf.  A head no pair names keeps every entry.

    The shifted scores of a biased head are clamped at ``EXP_FLOOR`` before
    the exp, and the bias is added to its weights again, whose maximum with
    0 clears the off-support cells before the row sums."""
    blocks = [(scores[h], bias) for h, bias in biases]
    for block, bias in blocks:
        block += bias
    scores -= scores.max(axis=-1, keepdims=True)
    for block, _ in blocks:
        # np.maximum, not fmax or clip: a NaN score stays NaN
        np.maximum(block, EXP_FLOOR, out=block)
    alpha = np.exp(scores, out=scores)
    if blocks:
        for block, bias in blocks:
            block += bias
        np.maximum(alpha, 0.0, out=alpha)   # a weight that no bias reached is already >= 0
    alpha /= alpha.sum(axis=-1, keepdims=True)
    return alpha


# The small-graph bound.  A graph of at most STACK_MAX_TOKENS tokens runs
# every head on the masked dense path as one (heads, T, T) stack, whatever
# the heads' densities; a larger graph picks each head's path by density and
# runs one stack per dense head.
#
# Stacking, on dense heads alone.  Forward plus backward, d_h = 4, random
# masks of densities 0.45-1 (the last head full), float64, numpy 2.4.6 with
# OpenBLAS 0.3.31 on 2 vCPUs (Xeon, 4 MiB L2), medians of 41-201 interleaved
# calls; one stack of all the heads over one stack per head:
#   T:        8    16    24    32    48    64    96   128   192   256   339
#   2 heads: 0.57  0.61  0.62  0.64  0.71  0.82  0.86  0.90  1.36  1.02  1.16
#   4 heads: 0.35  0.40  0.42  0.47  0.59  0.65  1.05  1.41  1.41  1.59  2.15
# Below T = 96 the per-call numpy overhead, paid once per graph instead of
# once per head, dominates; above it the (heads, T, T) temporaries outgrow
# the cache that one head's fit.
#
# Every head dense, against the density rule as it then ran a batch (each
# head's sparse blocks joined into one block-diagonal nnz-path call, the
# dense ones stacked).  One call, forward plus
# backward, 4 heads at hop budgets 1, 2, 4, 8, d_h = 4, same host, medians of
# 21-41 interleaved calls; all-dense time over density-rule time, head
# densities in brackets:
#   ring (Watts-Strogatz k = 2, beta = 0), one graph:
#     T = 16 (0.19-1.00): 0.51;  32 (0.09-0.53): 0.44;  48 (0.06-0.35):
#     0.37-0.39;  64 (0.05-0.27): 0.42-0.50;  80, 96: 1.00 (bound passed)
#   ER (p = 0.3), one graph: T = 13-59 (hop 1: 0.22-0.06): 0.47-0.57
#   32 equal rings:  T = 16: 0.90;  32: 0.90;  40: 0.88-0.91;
#                    48: 0.88-1.00;  56: 0.98-1.08;  64: 1.05-1.13
#   32 ER graphs:    n = 7 (T 13): 0.89;  12 (T 31): 0.85;  14 (T 40):
#                    0.83-0.90;  16 (T 51): 0.82-0.83;  17 (T 56): 0.94-0.98;
#                    18 (T 63): 0.90-0.95
#   32 mixed sizes:  rings T 16-64: 0.86;  ER n 8-15 (T 15-60, mean 29):
#                    0.83;  ER n 8-18: 0.92
# With 4 heads, only batches of equal rings at T 56-64 lose, by 4-13%.  With
# fewer heads, mostly sparse, a batch loses more, since each graph's dense
# call then replaces a share of one joined nnz-path call: the same 32 mixed
# sizes at hop 1 alone read 2.45 (ER) and 2.66 (rings), at hops 1, 2 0.99
# and 1.36, and at hop 8 alone 0.98-0.99.  A bound of 48
# instead cut that loss to 2-4% but cost 32 ER graphs at T 56-63 17-18%,
# since their dense heads then run as one stack each (same calls, bound 48
# against 64 vs the density rule: ER n = 17 1.18 vs 0.94, n = 18 1.17 vs
# 0.95).  So 64 stays.  Every dense stack here is at most 64^2 cells a head.
# The kernel now runs a batch graph by graph, so the density rule would make
# one nnz-path call per small graph and sparse head, not one per head: the
# batch ratios above were measured against that cheaper, joined side.
STACK_MAX_TOKENS = 64


def _runs_dense(b: HopMask) -> bool:
    """Whether a block of tokens takes the masked dense path: every block of
    at most ``STACK_MAX_TOKENS`` tokens, and a larger one whose density is at
    least ``DENSE_MIN_DENSITY``.  A block of no tokens takes neither path."""
    return 0 < b.size and (b.size <= STACK_MAX_TOKENS
                           or b.nnz >= DENSE_MIN_DENSITY * b.size * b.size)


def _dense_path(q3, k3, v3, masks: list[HopMask], dropmults, rows):
    """The masked dense path of one graph's heads, H >= 1 of them: ``q3``
    holds the queries of the masks' query row set ``rows`` (an int r for
    range(r), T for all rows, or an array of row indices), r of them, as (r,
    H, d_h), ``k3`` and ``v3`` the keys and values of all T rows as (T, H,
    d_h), head i's mask being ``masks[i]`` and its attention dropout
    multipliers ``dropmults[i]`` (all None without dropout; only a leading
    range draws dropout).  Returns (out, grads(g)) in the (r, H, d_h)
    layout; off-support weights are exact zeros.

    Each product is one ``np.matmul`` over the heads, which runs the same
    GEMM per head as a stack of that head alone, and each row reduction sees
    one row; so a head's results do not depend on the heads stacked with it.
    A head whose mask is not full is masked by adding the set's rows of its
    cached ``dense_bias`` (a view for a leading range) to its (r, T) slice
    of the scores, with ``np.exp`` kept on finite values
    (:func:`_dense_softmax`); a full head (nnz = T^2) skips the masking and
    builds no bias.  Attention dropout places a head's draws on the cells of
    its stored entries in the first r rows, whose CSR order is their
    row-major order (``HopMask._dense_cells``)."""
    qs, ks, vs = (a.transpose(1, 0, 2) for a in (q3, k3, v3))
    r, t = qs.shape[1], ks.shape[1]
    inv_sqrt = 1.0 / np.sqrt(ks.shape[2])
    scores = qs @ ks.transpose(0, 2, 1)
    scores *= inv_sqrt
    alpha = _dense_softmax(scores, [(i, b.dense_bias[_row_index(rows)])
                                    for i, b in enumerate(masks) if _set_nnz(b, rows) < r * t])
    if dropmults[0] is None:
        drop = None
        applied = alpha
    else:
        drop = np.zeros((len(masks), r, t))
        for i, (b, dm) in enumerate(zip(masks, dropmults)):
            drop[i][b._dense_cells(r)] = dm
        applied = alpha * drop

    def grads(g3):
        g = g3.transpose(1, 0, 2)
        d_alpha = g @ vs.transpose(0, 2, 1)
        if drop is not None:
            d_alpha *= drop
        d_alpha -= np.einsum("hij,hij->hi", alpha, d_alpha)[:, :, None]
        d_alpha *= alpha
        d_alpha *= inv_sqrt
        return ((d_alpha @ ks).transpose(1, 0, 2),
                (d_alpha.transpose(0, 2, 1) @ qs).transpose(1, 0, 2),
                (applied.transpose(0, 2, 1) @ g).transpose(1, 0, 2))

    return (applied @ vs).transpose(1, 0, 2), grads


def _by_head(n: int, n_heads: int, d_h: int, cells) -> np.ndarray:
    """The (n, n_heads * d_h) array, head h in columns h*d_h:(h+1)*d_h, of
    the ``(rows, heads, values)`` cells, each written as the iterable gives
    it, values shaped as indexing the (n, n_heads, d_h) view with (rows,
    heads) gives.  It is the transpose of an (n_heads * d_h, n) array: the
    nnz path's (d_h, T) results copy into it contiguously, and its
    consumers, such as ``split_cols``'s concatenation of the q, k and v
    grads, read the transpose in one pass."""
    out = np.empty((n_heads, d_h, n))
    cols = out.transpose(2, 0, 1)
    for rows, heads, values in cells:
        cols[rows, heads] = values
    return out.reshape(n_heads * d_h, n).T


def _graph_heads(mask, what: str) -> tuple[int, list[int]]:
    """``mask`` checked as a non-empty list over graphs, each of H head masks
    of one size.  Returns (H, each graph's token count)."""
    if not (isinstance(mask, (list, tuple)) and mask and all(
            isinstance(heads, (list, tuple)) and heads
            and all(isinstance(mk, HopMask) for mk in heads) for heads in mask)):
        raise ShapeError(f"{what} takes a non-empty list over graphs, each a non-empty "
                         f"list of that graph's head masks")
    for b, heads in enumerate(mask):
        if len(heads) != len(mask[0]) or any(mk.size != heads[0].size for mk in heads):
            raise ShapeError(f"graph {b}'s head masks cover {[mk.size for mk in heads]} tokens; "
                             f"every graph needs {len(mask[0])} head masks of one size")
    return len(mask[0]), [heads[0].size for heads in mask]


def sparse_masked_attention(q: Tensor, k: Tensor, v: Tensor,
                            mask: HopMask | list[list[HopMask]], *,
                            dropout_rate: float = 0.0, dropout_seed=None,
                            training: bool = False, rows=None) -> Tensor:
    """Scaled dot-product attention restricted to the mask support.

    For each row i, the softmax over scores <q_i, k_j>/sqrt(d_h) normalizes
    over the stored (i, j) only, and the output row is the resulting convex
    combination of value rows.  A mask of at most ``STACK_MAX_TOKENS``
    tokens, and a larger one at least ``DENSE_MIN_DENSITY`` dense, runs as
    BLAS products over the T x T score matrix, masked by an additive bias
    that is -inf off the support: at most max(nnz / DENSE_MIN_DENSITY,
    STACK_MAX_TOKENS^2) entries.  A larger, sparser mask runs on the nnz
    path, whose work is proportional to nnz(mask) * d_h in both
    directions.  ``dropout_rate``, in [0, 1), drops
    individual attention weights (inverted scaling) when training, drawing
    one number per stored entry in CSR order, so a seed keeps the same
    weights on either path.  An unset (None) seed is 0, so every draw is
    reproducible.

    ``mask`` is one HopMask (one graph, one head) or a batch: a non-empty
    list over graphs, ``mask[b]`` holding graph b's H head masks, all of one
    size, and ``dropout_seed[b][h]`` the seed of graph b's head h.  Graph b
    covers the next ``mask[b][0].size`` rows of q, k and v; q, k, v and the
    output hold H * d_h columns, head h's being columns h*d_h:(h+1)*d_h.
    Graph b's rows of head h's columns equal, bit for bit, a call on those
    rows and columns alone with ``mask[b][h]`` and its seed.  The graphs run
    one after another, each on views of its rows; a graph of no tokens makes
    no call and adds no rows to the output and no grads.  A graph of at most
    ``STACK_MAX_TOKENS`` tokens makes one dense-path call on a (heads, T, T)
    stack of all its heads and no nnz-path call.  Above that, each head
    makes one call on the graph: an nnz-path call when its mask is sparse, a
    dense-path call on a stack of one when it is dense.

    With one graph, ``rows`` asks for the queries of only a set of its rows,
    q holding those rows and k and v all T: a sorted array of row indices,
    or an int r for range(r) (see :func:`_query_rows`); unset, q holds all T
    rows.  The output and q's grad then have a row per set row, equal to those
    rows of a call on all of them, and the call does only those rows' work
    (their stored entries, or r x T cells on the dense path).  The path is
    still the one the whole mask's size and density pick.  Attention dropout
    needs a leading range, and keeps the weights a call on all rows draws
    for these rows; another set is refused when training with dropout.

    Under :func:`no_grad` the call builds no ``grad_fn``, and each part's
    backward closure is dropped as soon as that part's output is written.
    """
    _check_rate(dropout_rate)
    if isinstance(mask, HopMask):   # one graph, one head: a batch of one
        mask, dropout_seed = [[mask]], [[dropout_seed]]
    n_heads, sizes = _graph_heads(mask, "sparse_masked_attention")
    (n_q, width), n_kv = q.values.shape, k.values.shape[0]
    if k.values.shape != v.values.shape or width != k.values.shape[1]:
        raise ShapeError(
            f"q/k/v shapes do not fit: {q.values.shape}, {k.values.shape}, {v.values.shape}")
    if width % n_heads:
        raise ShapeError(f"q/k/v have {width} columns, which is not {n_heads} heads "
                         f"times a head dimension")
    d_h = width // n_heads
    seeds = [[None] * n_heads] * len(sizes) if dropout_seed is None else dropout_seed
    if len(seeds) != len(sizes) or any(len(s) != n_heads for s in seeds):
        raise ShapeError(f"{len(sizes)} graphs of {n_heads} heads got dropout seed lists of "
                         f"lengths {[len(s) for s in seeds]}; each graph needs one per head")
    if sum(sizes) != n_kv:
        raise ShapeError(f"mask is for {sum(sizes)} tokens, "
                         f"inputs have {n_kv} rows")
    drawing = training and dropout_rate > 0.0
    query = _query_rows(rows, sizes, drawing)
    n_set = n_kv if query is None else _set_len(query)
    if n_q != n_set:
        raise ShapeError(f"q has {n_q} rows for a set of {n_set} query rows")
    ends = np.cumsum(sizes).tolist()
    blocks = [slice(hi - size, hi) for size, hi in zip(sizes, ends)]
    # each block's q rows and query row set
    q_rows, n_rows = (blocks, sizes) if query is None else ([slice(0, n_q)], [query])

    def prepare(b: HopMask, r, seed, dense: bool):
        # One head's part on block mask b and query row set r: add its FLOP
        # counts and draw its attention dropout multipliers, the first
        # indptr[r] numbers of the whole mask's draw, which are the weights a
        # call on all rows keeps for its first r rows (a row set that draws
        # dropout is a leading range r).
        for meter in _state.meters:
            nnz = _set_nnz(b, r)
            meter.attention_flops += attention_flops(nnz, d_h)
            meter.executed_flops += attention_flops(_set_len(r) * b.size if dense else nnz, d_h)
        if drawing:
            return (np.random.default_rng(0 if seed is None else seed).random(b.indptr[r])
                    >= dropout_rate) / (1.0 - dropout_rate)
        return None

    # Each part runs some heads on some rows and gives (q rows, k/v rows,
    # heads, out, grads), out and grads shaped as indexing the (rows, H, d_h)
    # views of q, k and v with (rows, heads) gives.  Its out is written as
    # soon as it is made; its grads closure, and the arrays it holds, is kept
    # only when the call is recorded.
    q3, k3, v3 = (a.values.reshape(a.values.shape[0], n_heads, d_h) for a in (q, k, v))
    recording = _state.recording
    parts = []   # (q rows, k/v rows, heads, grads) of each part, when recording

    def output_of(qr, r, h, o, grads):
        if recording:
            parts.append((qr, r, h, grads))
        return qr, h, o

    def part_outputs():
        # Graph by graph, each on views of its own rows.  A graph of at most
        # STACK_MAX_TOKENS tokens runs all its heads, every one dense, as one
        # stack; a larger one each head on its own path, a dense head as a
        # stack of one.  A graph of no tokens makes no part.
        for b, (qr, r, n) in enumerate(zip(q_rows, blocks, n_rows)):
            if not sizes[b]:
                continue
            stacks = ([slice(0, n_heads)] if sizes[b] <= STACK_MAX_TOKENS
                      else [slice(h, h + 1) for h in range(n_heads)])
            for hi in stacks:
                heads = mask[b][hi]
                dense = _runs_dense(heads[0])
                drops = [prepare(m, n, s, dense) for m, s in zip(heads, seeds[b][hi])]
                if dense:
                    yield output_of(qr, r, hi, *_dense_path(
                        q3[qr, hi], k3[r, hi], v3[r, hi], heads, drops, n))
                else:
                    h = hi.start
                    yield output_of(qr, r, h, *_sparse_path(
                        q3[qr, h], k3[r, h], v3[r, h], _csr_rows(heads[0], n), drops[0]))

    out = _by_head(n_q, n_heads, d_h, part_outputs())
    if not recording:
        return primitive(out, None)

    def grad_fn(g):
        g3 = g.reshape(n_q, n_heads, d_h)
        # Last part first: on one graph the largest budget's pass, usually the
        # last head's, then runs while no other part's grads are held, which
        # keeps the backward's peak memory down.
        part_grads = [grads(g3[qr, h]) for qr, _, h, grads in reversed(parts)][::-1]
        cells = [(qr, r, h, d) for (qr, r, h, _), d in zip(parts, part_grads)]
        q._accum(_by_head(n_q, n_heads, d_h, [(qr, h, d[0]) for qr, _, h, d in cells]))
        k._accum(_by_head(n_kv, n_heads, d_h, [(r, h, d[1]) for _, r, h, d in cells]))
        v._accum(_by_head(n_kv, n_heads, d_h, [(r, h, d[2]) for _, r, h, d in cells]))

    return primitive(out, grad_fn)


# ---------------------------------------------------------------------------
# Gradient verification


GRAD_CHECK_EPS = 1e-5


def grad_check(f, x: Tensor) -> float:
    """Max relative error between f's analytic gradient at x and central
    finite differences of step ``GRAD_CHECK_EPS``: max |a - n| / max(1, |a|, |n|)
    over coordinates.

    f must map x to a scalar Tensor.  Grads of other tensors touched by f are
    disturbed; callers re-zero before training on.
    """
    orig_values, orig_grad = x.values, x.grad
    work = np.array(orig_values, copy=True)
    x.values = work
    try:
        x.grad = None
        with scratch_tape():
            out = f(x)
            if out.values.shape != (1, 1):
                raise ShapeError(f"grad_check needs a scalar f, got shape {out.values.shape}")
            backward(out)
        analytic = np.zeros_like(work) if x.grad is None else np.array(x.grad, copy=True)

        numeric = np.zeros_like(work)
        with no_grad():
            for idx in np.ndindex(*work.shape):
                base = work[idx]
                work[idx] = base + GRAD_CHECK_EPS
                fp = float(f(x).values[0, 0])
                work[idx] = base - GRAD_CHECK_EPS
                fm = float(f(x).values[0, 0])
                work[idx] = base
                numeric[idx] = (fp - fm) / (2.0 * GRAD_CHECK_EPS)
    finally:
        x.values = orig_values
        x.grad = orig_grad
    rel = np.abs(analytic - numeric) / np.maximum(
        1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float(rel.max()) if rel.size else 0.0
