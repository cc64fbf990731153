"""Minimal reverse-mode differentiation on dense 2-D float64 arrays.

Each primitive computes its result eagerly and records a backward closure on
a per-thread tape; :func:`backward` walks the tape in reverse, accumulating
into ``Tensor.grad``, then clears it.  The one non-standard primitive is
:func:`sparse_masked_attention`, which evaluates scaled dot-product attention
only on the stored entries of a reachability mask: excluded pairs enter
neither the scores nor the softmax normalization, in forward or backward.

The kernel picks one of two paths per call from the mask's density.  Below
``DENSE_MIN_DENSITY`` the nnz path gathers and reduces over stored entries
only.  At or above it the masked dense path computes the T x T scores with
BLAS, sets off-support scores to -inf, and runs its backward as four matrix
products; since T^2 <= nnz / DENSE_MIN_DENSITY there, its memory and work
stay linear in nnz.  Both paths give the same results up to rounding.

Determinism: on the nnz path per-row reductions run in ascending column order
(CSR order) and scatter accumulations in stored-entry order; the dense path
runs fixed BLAS products.  Identical inputs produce bit-identical outputs.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

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


_state = threading.local()


def _tape() -> list:
    """The active tape: backward closures in the order their primitives ran."""
    t = getattr(_state, "tape", None)
    if t is None:
        t = _state.tape = []
    return t


def record(backward_fn) -> None:
    """Record a backward closure for a custom primitive on the active tape."""
    _tape().append(backward_fn)


@contextmanager
def scratch_tape():
    """Run recording on a throwaway tape (forwards whose grads are unwanted)."""
    prev = _tape()
    _state.tape = []
    try:
        yield _state.tape
    finally:
        _state.tape = prev


def backward(loss: Tensor) -> None:
    """Populate grads of everything feeding a scalar loss; clears the tape."""
    if loss.values.shape != (1, 1):
        raise ShapeError(f"loss must be scalar (1, 1), got shape {loss.values.shape}")
    t = _tape()
    if not t:
        raise RuntimeError("backward called on an empty tape")
    loss._accum(np.ones((1, 1)))
    for fn in reversed(t):
        fn()
    t.clear()


# ---------------------------------------------------------------------------
# FLOP metering for the sparse kernel


def attention_flops(nnz: int, head_dim: int) -> int:
    """Forward FLOPs of one masked-attention call.

    Per stored entry: 2*d_h for the score dot product (multiply-add = 2),
    1 to scale, 4 for the softmax (max-subtract, exp, sum-accumulate, divide),
    and 2*d_h to accumulate the weighted value row.
    """
    return nnz * (4 * head_dim + 5)


@dataclass
class FlopMeter:
    """``attention_flops`` is the paper's cost model, nnz-based on every path;
    ``executed_flops`` counts the entries the kernel actually scored, which on
    the masked dense path is all T^2 of them."""

    attention_flops: int = 0
    executed_flops: int = 0


def _meters() -> list[FlopMeter]:
    m = getattr(_state, "meters", None)
    if m is None:
        m = _state.meters = []
    return m


@contextmanager
def count_attention_flops():
    """Collect the attention FLOPs of every sparse kernel call in the block."""
    meter = FlopMeter()
    _meters().append(meter)
    try:
        yield meter
    finally:
        _meters().pop()


# ---------------------------------------------------------------------------
# Dense primitives


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.values.shape[1] != b.values.shape[0]:
        raise ShapeError(f"matmul mismatch: {a.values.shape} @ {b.values.shape}")
    av, bv = a.values, b.values
    out = Tensor(av @ bv)

    def bwd():
        if out.grad is None:
            return
        a._accum(out.grad @ bv.T)
        b._accum(av.T @ out.grad)

    _tape().append(bwd)
    return out


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; b may also be a single row broadcast over a's rows."""
    sa, sb = a.values.shape, b.values.shape
    broadcast = sb == (1, sa[1]) and sa[0] != 1
    if not broadcast and sa != sb:
        raise ShapeError(f"add mismatch: {sa} vs {sb}")
    out = Tensor(a.values + b.values)

    def bwd():
        if out.grad is None:
            return
        a._accum(out.grad)
        b._accum(out.grad.sum(axis=0, keepdims=True) if broadcast else out.grad)

    _tape().append(bwd)
    return out


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    out = Tensor(c * a.values)

    def bwd():
        if out.grad is None:
            return
        a._accum(c * out.grad)

    _tape().append(bwd)
    return out


def relu(a: Tensor) -> Tensor:
    pos = a.values > 0
    out = Tensor(np.where(pos, a.values, 0.0))

    def bwd():
        if out.grad is None:
            return
        a._accum(out.grad * pos)

    _tape().append(bwd)
    return out


def concat_cols(parts: list[Tensor]) -> Tensor:
    rows = parts[0].values.shape[0]
    for p in parts:
        if p.values.shape[0] != rows:
            raise ShapeError(f"concat_cols row mismatch: {p.values.shape} vs {rows} rows")
    widths = [p.values.shape[1] for p in parts]
    out = Tensor(np.concatenate([p.values for p in parts], axis=1))
    offsets = np.cumsum([0] + widths)

    def bwd():
        if out.grad is None:
            return
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            p._accum(out.grad[:, lo:hi])

    _tape().append(bwd)
    return out


def split_cols(a: Tensor, n: int) -> list[Tensor]:
    """``a`` cut into ``n`` equal-width column blocks; inverse of concat_cols."""
    parts = [Tensor(p) for p in np.split(a.values, n, axis=1)]

    def bwd():
        if any(p.grad is not None for p in parts):
            a._accum(np.concatenate([np.zeros_like(p.values) if p.grad is None else p.grad
                                     for p in parts], axis=1))

    _tape().append(bwd)
    return parts


def concat_rows(parts: list[Tensor]) -> Tensor:
    cols = parts[0].values.shape[1]
    for p in parts:
        if p.values.shape[1] != cols:
            raise ShapeError(f"concat_rows column mismatch: {p.values.shape} vs {cols} cols")
    heights = [p.values.shape[0] for p in parts]
    out = Tensor(np.concatenate([p.values for p in parts], axis=0))
    offsets = np.cumsum([0] + heights)

    def bwd():
        if out.grad is None:
            return
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            p._accum(out.grad[lo:hi])

    _tape().append(bwd)
    return out


def take_rows(a: Tensor, rows) -> Tensor:
    """``a[rows]`` for a slice or an array of distinct row indices."""
    out = Tensor(a.values[rows].copy())

    def bwd():
        if out.grad is None:
            return
        g = np.zeros_like(a.values)
        g[rows] = out.grad
        a._accum(g)

    _tape().append(bwd)
    return out


def row_slice(a: Tensor, start: int, stop: int) -> Tensor:
    return take_rows(a, slice(start, stop))


def sum_all(a: Tensor) -> Tensor:
    out = Tensor([[a.values.sum()]])

    def bwd():
        if out.grad is None:
            return
        a._accum(np.full_like(a.values, out.grad[0, 0]))

    _tape().append(bwd)
    return out


def sum_rows(a: Tensor) -> Tensor:
    out = Tensor(a.values.sum(axis=0, keepdims=True))

    def bwd():
        if out.grad is None:
            return
        a._accum(np.broadcast_to(out.grad, a.values.shape).copy())

    _tape().append(bwd)
    return out


def mean_rows(a: Tensor) -> Tensor:
    n = a.values.shape[0]
    out = Tensor(a.values.mean(axis=0, keepdims=True))

    def bwd():
        if out.grad is None:
            return
        a._accum(np.broadcast_to(out.grad / n, a.values.shape).copy())

    _tape().append(bwd)
    return out


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    d = x.values.shape[1]
    if gamma.values.shape != (1, d) or beta.values.shape != (1, d):
        raise ShapeError(
            f"layer_norm params must be (1, {d}), got {gamma.values.shape} and {beta.values.shape}")
    mu = x.values.mean(axis=1, keepdims=True)
    xc = x.values - mu
    var = (xc * xc).mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = Tensor(xhat * gamma.values + beta.values)
    gv = gamma.values

    def bwd():
        if out.grad is None:
            return
        g = out.grad
        gamma._accum((g * xhat).sum(axis=0, keepdims=True))
        beta._accum(g.sum(axis=0, keepdims=True))
        dxhat = g * gv
        x._accum(inv * (dxhat - dxhat.mean(axis=1, keepdims=True)
                        - xhat * (dxhat * xhat).mean(axis=1, keepdims=True)))

    _tape().append(bwd)
    return out


def dropout(x: Tensor, rate: float, seed, training_flag: bool) -> Tensor:
    """Inverted dropout; identity when not training or rate is 0."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if not training_flag or rate == 0.0:
        return x
    rng = np.random.default_rng(seed)
    keep = (rng.random(x.values.shape) >= rate) / (1.0 - rate)
    out = Tensor(x.values * keep)

    def bwd():
        if out.grad is None:
            return
        x._accum(out.grad * keep)

    _tape().append(bwd)
    return out


# ---------------------------------------------------------------------------
# Sparse masked attention


def _scatter_rows(values: np.ndarray, idx: np.ndarray, t: int) -> np.ndarray:
    # Deterministic scatter-add of (nnz, d) rows into t bins.
    out = np.empty((t, values.shape[1]))
    for j in range(values.shape[1]):
        out[:, j] = np.bincount(idx, weights=values[:, j], minlength=t)
    return out


def attention_weights(qv: np.ndarray, kv: np.ndarray, mask: HopMask) -> np.ndarray:
    """Softmax weights over each row's mask support, aligned with mask.indices.

    Scores are computed only for stored (i, j) pairs; the per-row max is
    subtracted before exponentiation and each row normalizes over its own
    support, so off-support weights are exactly zero by construction.
    """
    row, col, indptr = mask.row_indices, mask.indices, mask.indptr
    d_h = qv.shape[1]
    inv_sqrt = 1.0 / np.sqrt(d_h)
    scores = np.einsum("ij,ij->i", qv[row], kv[col]) * inv_sqrt
    rowmax = np.maximum.reduceat(scores, indptr[:-1]) if scores.size else scores
    expd = np.exp(scores - rowmax[row])
    denom = np.add.reduceat(expd, indptr[:-1]) if expd.size else expd
    return expd / denom[row]


# Masks with nnz >= DENSE_MIN_DENSITY * T^2 run on the masked dense path,
# sparser ones on the nnz path.  Per-call forward + backward, d_h = 4,
# float64, OpenBLAS 0.3.31 on 2 vCPUs, nnz path vs dense path:
#   SBM hop masks, T = 333:   density 0.06: 1.2 vs 2.1 ms; 0.14: 3.1 vs 1.8 ms;
#                             1.00: 47 vs 1.1 ms
#   SBM hop masks, T = 1212:  density 0.07: 29 vs 34 ms; 0.14: 64 vs 36 ms
#   ring hop masks, density 0.25: 8.1 vs 1.5 ms (T = 340), 104 vs 20 ms (T = 1212)
# At T <= 44 the dense path is faster at every density.  The paths break even
# near density 0.1, where repeated timings differ by up to 2x.  0.25 keeps
# the dense path about 5x faster wherever it is chosen, keeps heads near the
# break-even (such as the 14% hop-3 heads of the SBM node task) on one path
# for every seed, and bounds the T x T buffers by T^2 <= 4 * nnz.
DENSE_MIN_DENSITY = 0.25


def _sparse_path(qv, kv, vv, mask: HopMask, dropmult):
    """Attention over the stored entries only; returns (out, grads(g))."""
    t, d_h = qv.shape
    row, col, indptr = mask.row_indices, mask.indices, mask.indptr
    inv_sqrt = 1.0 / np.sqrt(d_h)
    alpha = attention_weights(qv, kv, mask)
    applied = alpha if dropmult is None else alpha * dropmult
    out = np.add.reduceat(applied[:, None] * vv[col], indptr[:-1], axis=0) \
        if applied.size else np.zeros((t, d_h))

    def grads(g):
        gr = g[row]
        d_applied = np.einsum("ij,ij->i", gr, vv[col])
        d_alpha = d_applied if dropmult is None else d_applied * dropmult
        rowdot = np.add.reduceat(alpha * d_alpha, indptr[:-1])
        dscore = alpha * (d_alpha - rowdot[row]) * inv_sqrt
        return (np.add.reduceat(dscore[:, None] * kv[col], indptr[:-1], axis=0),
                _scatter_rows(dscore[:, None] * qv[row], col, t),
                _scatter_rows(applied[:, None] * gr, col, t))

    return out, grads


def _dense_path(qv, kv, vv, mask: HopMask, dropmult):
    """Attention as T x T BLAS products with -inf scores off the support;
    off-support weights are exact zeros.  Returns (out, grads(g))."""
    t, d_h = qv.shape
    inv_sqrt = 1.0 / np.sqrt(d_h)
    support = mask.dense_support
    scores = qv @ kv.T
    scores *= inv_sqrt
    if mask.nnz < t * t:
        np.copyto(scores, -np.inf, where=~support)
    scores -= scores.max(axis=1, keepdims=True)
    alpha = np.exp(scores, out=scores)
    alpha /= alpha.sum(axis=1, keepdims=True)
    if dropmult is None:
        drop = None
        applied = alpha
    else:
        drop = np.zeros((t, t))
        drop[support] = dropmult   # row-major order of the support is CSR order
        applied = alpha * drop

    def grads(g):
        d_alpha = g @ vv.T
        if drop is not None:
            d_alpha *= drop
        d_alpha -= np.einsum("ij,ij->i", alpha, d_alpha)[:, None]
        d_alpha *= alpha
        d_alpha *= inv_sqrt
        return d_alpha @ kv, d_alpha.T @ qv, applied.T @ g

    return applied @ vv, grads


def sparse_masked_attention(q: Tensor, k: Tensor, v: Tensor, mask: HopMask, *,
                            dropout_rate: float = 0.0, dropout_seed=None,
                            training: bool = False) -> Tensor:
    """Scaled dot-product attention restricted to the mask support.

    For each row i, the softmax over scores <q_i, k_j>/sqrt(d_h) normalizes
    over the stored (i, j) only, and the output row is the resulting convex
    combination of value rows.  Masks sparser than ``DENSE_MIN_DENSITY`` run
    on the nnz path, whose work is proportional to nnz(mask) * d_h in both
    directions; denser ones run as BLAS products over the T x T score matrix
    with -inf off the support, which is at most nnz / DENSE_MIN_DENSITY
    entries.  ``dropout_rate`` drops individual attention weights (inverted
    scaling) when training, drawing one number per stored entry in CSR order,
    so a seed keeps the same weights on either path.
    """
    if q.values.shape != k.values.shape or q.values.shape != v.values.shape:
        raise ShapeError(
            f"q/k/v shapes differ: {q.values.shape}, {k.values.shape}, {v.values.shape}")
    t, d_h = q.values.shape
    if mask.size != t:
        raise ShapeError(f"mask is for {mask.size} tokens, inputs have {t} rows")
    dropmult = None
    if training and dropout_rate > 0.0:
        rng = np.random.default_rng(dropout_seed)
        dropmult = (rng.random(mask.nnz) >= dropout_rate) / (1.0 - dropout_rate)
    dense = mask.nnz >= DENSE_MIN_DENSITY * t * t
    path = _dense_path if dense else _sparse_path
    out_vals, grads = path(q.values, k.values, v.values, mask, dropmult)
    out = Tensor(out_vals)

    for meter in _meters():
        meter.attention_flops += attention_flops(mask.nnz, d_h)
        meter.executed_flops += attention_flops(t * t if dense else mask.nnz, d_h)

    def bwd():
        if out.grad is None:
            return
        dq, dk, dv = grads(out.grad)
        q._accum(dq)
        k._accum(dk)
        v._accum(dv)

    _tape().append(bwd)
    return out


# ---------------------------------------------------------------------------
# Gradient verification


def grad_check(f, x: Tensor, eps: float = 1e-5) -> float:
    """Max relative error between f's analytic gradient at x and central
    finite differences: max |a - n| / max(1, |a|, |n|) over coordinates.

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
        for idx in np.ndindex(*work.shape):
            base = work[idx]
            work[idx] = base + eps
            with scratch_tape():
                fp = float(f(x).values[0, 0])
            work[idx] = base - eps
            with scratch_tape():
                fm = float(f(x).values[0, 0])
            work[idx] = base
            numeric[idx] = (fp - fm) / (2.0 * eps)
    finally:
        x.values = orig_values
        x.grad = orig_grad
    rel = np.abs(analytic - numeric) / np.maximum(
        1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float(rel.max()) if rel.size else 0.0
