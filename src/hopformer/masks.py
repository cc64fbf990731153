"""Head-specific n-hop reachability masks over the augmented token graph.

A mask stores, in CSR form, every token pair (i, j) whose shortest-path
distance in the augmented graph is at most the head's hop budget.  Budgets
count hops on the augmented graph, where one hop of the original graph costs
two (node -> edge token -> node).

Every head's mask comes from one level-synchronous, multi-source breadth-first
search (:func:`hop_distances`) that labels each reachable pair with its hop
distance up to the largest budget; a head's mask is the filter ``dist <= n``.
Sources run in blocks sized so that the search's transient arrays stay
within ``BLOCK_CELLS`` entries.  A level expands the frontier's
``(source, token)`` keys through the CSR, which costs t^2 * degree once the
reach is dense.  So a search that fits one block, whose ``seen`` buffer
already holds the whole t x t reach, finishes on bit rows once a key level
would expand more neighbours than a bit level gathers words: each row of the
reach packed into uint64 words, and a level ORs each row's neighbours' rows
into it (a multi-source bitset BFS, as in Then et al., VLDB 2014).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .graphs import AugmentedGraph, _frozen, _int_value, csr_indptr


@dataclass(frozen=True, eq=False)
class HopMask:
    """Boolean T x T reachability matrix in CSR form, diagonal always present.

    Construction checks the CSR structure and raises ``ValueError`` naming
    the first bad row: every row needs at least one column, and columns lie
    in [0, T) and strictly ascend within their row.  ``hop_budget`` and
    ``size`` follow the package's integer rule (``2.0`` is 2, a fraction is
    refused) and may not be negative.  The mask and its arrays are frozen (a
    list, a writable array, a view, another integer dtype or an empty
    sequence of any dtype is stored as a read-only int64 copy), so the
    checked structure and the views cached from it cannot drift apart, and
    the kernel reads one index dtype.

    Two read-only views are built from the CSR on first use, each by the
    reader that needs it, and cached: ``row_indices`` for dumps and
    reference checks, and ``dense_bias`` (a T x T float64 array, 0.0 on the
    support and -inf off it), which masks the scores of the attention
    kernel's masked dense path.  The nnz path builds neither.
    """

    hop_budget: int
    size: int
    indptr: np.ndarray   # (T+1,) int64
    indices: np.ndarray  # (nnz,) int64, strictly ascending within each row

    def __post_init__(self):
        for name in ("hop_budget", "size"):
            value = _int_value(f"mask {name}", getattr(self, name))
            if value < 0:
                raise ValueError(f"mask {name} must be non-negative, got {value}")
            object.__setattr__(self, name, value)
        # np.asarray([]) is float64; an empty sequence holds no non-integer
        indptr, indices = (a.astype(np.int64) if a.size == 0 else a
                           for a in (np.asarray(self.indptr), np.asarray(self.indices)))
        if indptr.dtype.kind not in "iu" or indices.dtype.kind not in "iu":
            raise ValueError(f"mask indptr and indices must be integer arrays, "
                             f"got {indptr.dtype} and {indices.dtype}")
        # build_mask's arrays are kept as they are.  An unsigned value past
        # the int64 range turns negative here, and the checks below refuse it.
        for name, a in (("indptr", indptr), ("indices", indices)):
            if a.dtype != np.int64 or a.flags.writeable or not a.flags.owndata:
                object.__setattr__(self, name, _frozen(a.astype(np.int64)))
        # O(T + nnz) structure check: the attention kernel's row reductions
        # assume every row holds at least one in-range, ascending column.
        # Slices and ufunc reductions rather than np.diff and array methods:
        # most masks are small, and this runs once per mask.
        t, indptr, indices = self.size, self.indptr, self.indices
        if indptr.shape != (t + 1,) or indices.ndim != 1:
            raise ValueError(f"mask for {t} tokens needs indptr of shape ({t + 1},) and 1-D "
                             f"indices, got {indptr.shape} and {indices.shape}")
        if indptr[0] != 0 or indptr[-1] != indices.size:
            raise ValueError(f"mask indptr must run from 0 to nnz = {indices.size}, "
                             f"got {indptr[0]} to {indptr[-1]}")
        if t == 0:
            return
        counts = indptr[1:] - indptr[:-1]
        if np.minimum.reduce(counts) <= 0:
            i = int(np.argmax(counts <= 0))
            if counts[i] < 0:
                raise ValueError(f"mask indptr decreases at row {i}")
            raise ValueError(f"mask row {i} is empty; every row needs at least one entry")
        # as unsigned, a negative column compares above every valid one
        if np.maximum.reduce(indices.view(np.uint64)) >= t:
            i = int(indptr.searchsorted(np.argmax((indices < 0) | (indices >= t)), "right")) - 1
            raise ValueError(f"mask row {i} has a column outside [0, {t})")
        step_ok = indices[1:] > indices[:-1]
        step_ok[indptr[1:-1] - 1] = True   # steps across a row boundary
        if not np.logical_and.reduce(step_ok):
            i = int(indptr.searchsorted(np.argmin(step_ok), "right")) - 1
            raise ValueError(f"mask row {i} has columns that do not strictly ascend")

    @property
    def nnz(self) -> int:
        return int(self.indices.shape[0])

    @cached_property
    def row_indices(self) -> np.ndarray:
        """Row id of each stored entry, aligned with ``indices`` (cached).

        For dumps and reference checks: the attention kernel reaches a row's
        entries by its count and never builds this view."""
        return _frozen(self._dense_cells(self.size)[0])

    @cached_property
    def dense_bias(self) -> np.ndarray:
        """The mask as an additive float64 T x T score bias (cached): 0.0 on
        the support, -inf off it.

        8 T^2 bytes.  The attention kernel asks for it only on masks that
        take its dense path and are not full: one of at most
        ``autograd.STACK_MAX_TOKENS`` (64) tokens, at most 32 KiB, or one
        whose density is at least ``autograd.DENSE_MIN_DENSITY`` (0.25, so
        T^2 <= 4 nnz), at most 32 bytes per stored entry.
        """
        bias = np.full((self.size, self.size), -np.inf)
        bias[self._dense_cells(self.size)] = 0.0
        return _frozen(bias)

    def _dense_cells(self, r: int) -> tuple[np.ndarray, np.ndarray]:
        """(row ids, column ids) of the stored entries of the first ``r``
        rows, in CSR order, which is the row-major order of their cells.
        The row ids are made here and dropped: the dense path places
        attention dropout draws with them and never builds the nnz-long
        ``row_indices`` view (about 2 MB over the er_graph masks)."""
        return (np.repeat(np.arange(r, dtype=np.int64), np.diff(self.indptr[:r + 1])),
                self.indices[:self.indptr[r]])

    def row(self, i: int) -> np.ndarray:
        """The column ids of row ``i``, a view; ``i`` must lie in [0, T)."""
        i = _int_value("row", i)
        if not 0 <= i < self.size:
            raise ValueError(f"mask row {i} is outside [0, {self.size})")
        return self.indices[self.indptr[i]:self.indptr[i + 1]]


# Bound on the transient arrays of one search block.  A block of B sources
# has a B x T ``seen`` buffer (bytes), frontiers and output of at most B x T
# keys, and per level at most B x nnz expanded neighbours (each source expands
# each stored link at most once).  B = BLOCK_CELLS // max(T, nnz), at least
# one, keeps all of them within BLOCK_CELLS entries.  A search that fits one
# block (T * max(T, nnz) <= BLOCK_CELLS) may finish on bit rows, whose arrays
# (the packed reach, a T x T dist buffer, a gather of nnz x ceil(T/64) words)
# hold at most T^2 entries each, so the same bound covers them.
#
# Such a search switches at the first level, short of its last, whose key
# expansion would exceed the nnz * ceil(T/64) words one bit level gathers.
# Medians of interleaved build_head_masks calls, keys only -> switched, numpy
# 2.4.6 on 2 vCPUs, seed 3, budgets up to 4 (shallow) and 1,3,6,12,24,48
# (deep):
#   sbm_node, T = 341, budgets 1,3,6,12:          17.3 -> 6.4 ms
#   er_graph, 128 graphs, T <= 54, budgets 1..8:   48.7 -> 44.2 ms
#   Watts-Strogatz          T   shallow            deep
#   beta 0,   n=20,  k=4    60   0.27 -> 0.25 ms    0.77 -> 0.62 ms
#   beta 0,   n=100, k=6   400   1.39 -> 1.06       18.5 -> 11.9
#   beta 0,   n=160, k=4   480   0.92 (keys)        15.2 (keys)
#   beta 0.1, n=20,  k=4    60   0.30 -> 0.27       0.84 -> 0.64
#   beta 0.1, n=100, k=6   400   1.77 -> 1.33       18.9 -> 8.6
#   beta 0.1, n=160, k=4   480   1.20 (keys)        31.4 -> 18.3
#   beta 1,   n=20,  k=4    60   0.36 -> 0.31       0.83 -> 0.62
#   beta 1,   n=100, k=6   400   3.22 -> 2.45       23.8 -> 10.6
#   beta 1,   n=160, k=4   480   2.44 (keys)        40.6 -> 19.0
#   n=250, k=6, any beta  1000   multi-block, keys: 3.5-9.1 and 70-223 ms
#   ring (k=2), n=300      600   keys at every level: 8.8 ms deep
# In a separate interleaved run, bit rows from the first level took 9.8 ms
# against 6.7 on keys for the n=300 ring (deep), whose frontiers stay short.  Switching at the last level made
# beta 1, n=160, k=4 shallow 1.19x slower: one bit level does not repay
# packing the reach and unpacking it.
BLOCK_CELLS = 2**20


def hop_distance_blocks(indptr: np.ndarray, indices: np.ndarray, t: int, max_hops: int):
    """Yield ``(rows, cols, dist)`` for consecutive blocks of source rows.

    Together the blocks list, in row-major order, every pair (i, j) of the
    t-node CSR graph ``indptr``/``indices`` with hop distance
    dist(i, j) <= max_hops.  Each block is one multi-source, level-synchronous
    BFS: a frontier of ``(source - s0) * t + node`` keys, s0 the block's first
    source, expands through the CSR one level at a time, keeping only keys not
    yet seen.  Levels stop at
    ``min(max_hops, t - 1)`` or at an empty frontier; ``dist`` has the
    smallest unsigned dtype that holds the last level.

    A key level costs one expanded neighbour per frontier key and link, which
    grows like t^2 * degree once the reach is dense.  So a search that runs
    as one block (``t * max(t, nnz) <= BLOCK_CELLS``) switches to
    :func:`_bit_levels`, which finishes it on packed bit rows, at the first
    level, short of the last, whose expansion would hold more entries than
    the ``nnz * ceil(t / 64)`` words a bit level gathers.  Edgeless graphs
    never switch (``0 > 0`` is false), nor does any multi-block search.  The
    triples, their order and the ``dist`` dtype do not depend on the switch.
    """
    if max_hops < 0:
        raise ValueError(f"hop budget must be non-negative, got {max_hops}")
    levels = min(max_hops, max(t - 1, 0))
    dist_dtype = np.min_scalar_type(levels)
    starts, degrees = indptr[:-1], np.diff(indptr)
    block = max(1, BLOCK_CELLS // max(t, indices.size, 1))
    # one bit level gathers nnz rows of ceil(t/64) words; -1 keeps a
    # multi-block search on keys
    bit_words = indices.size * -(-t // 64) if block >= t else -1
    seen = np.zeros(min(block, t) * t, dtype=bool)
    for s0 in range(0, t, block):
        b = min(block, t - s0)
        frontier = np.arange(b, dtype=np.int64) * (t + 1) + s0   # (i - s0) * t + i
        seen[frontier] = True
        keys, dist = [frontier], [np.zeros(b, dtype=dist_dtype)]
        for level in range(1, levels + 1):
            node = frontier % t
            deg = degrees[node]
            ends = np.cumsum(deg)
            if 0 <= bit_words < ends[-1] and level < levels:
                yield _bit_levels(indptr, indices, t, seen, keys, dist, level, levels)
                return
            pos = np.arange(ends[-1], dtype=np.int64) + np.repeat(starts[node] - ends + deg, deg)
            reach = np.repeat(frontier - node, deg) + indices[pos]
            # the sorted unique new keys, as np.unique gives them; it hashes
            # before it sorts and took about twice as long on hop masks
            fresh = np.sort(reach[~seen[reach]])
            if fresh.size == 0:
                break
            frontier = fresh[np.concatenate(([True], fresh[1:] != fresh[:-1]))]
            seen[frontier] = True
            keys.append(frontier)
            dist.append(np.full(frontier.size, level, dtype=dist_dtype))
        keys, dist = np.concatenate(keys), np.concatenate(dist)
        seen[keys] = False
        order = np.argsort(keys)
        keys = keys[order]
        yield keys // t + s0, keys % t, dist[order]


def _bit_levels(indptr: np.ndarray, indices: np.ndarray, t: int, seen: np.ndarray,
                keys: list, dist: list, first: int, last: int):
    """Finish a one-block search at levels ``first..last`` on bit rows.

    ``seen`` is the t x t reach up to level ``first - 1`` and ``keys``/``dist``
    its levels.  Row i of the reach is packed into little-endian uint64 words
    (column c is bit c % 64 of word c // 64), and a level sets
    ``reach[i] |= OR of reach[j] over i's CSR row``: one gather and one
    ``np.bitwise_or.reduceat``.  This pull step is exact for any directed CSR
    (j within d - 1 of c and i -> j put c within d of i).  Levels stop at
    ``last`` or at the first level that sets no bit.  Each level's new bits
    write their level into a t x t dist buffer, and the final reach, unpacked,
    gives the row-major triples in one ``np.flatnonzero``.
    """
    dist_buf = np.zeros(t * t, dtype=dist[0].dtype)
    dist_buf[np.concatenate(keys)] = np.concatenate(dist)
    # row t stays zero: the gather's last entry, pulled by a trailing row
    # without links; reduceat's value for every row without links is reset
    packed = np.zeros((t + 1, 8 * -(-t // 64)), dtype=np.uint8)
    packed[:t, :-(-t // 8)] = np.packbits(seen.reshape(t, t), axis=1, bitorder="little")
    reach = packed.view("<u8")
    links = np.append(indices, t)
    unlinked = np.flatnonzero(indptr[1:] == indptr[:-1])
    for level in range(first, last + 1):
        pulled = np.bitwise_or.reduceat(reach[links], indptr[:-1], axis=0)
        pulled[unlinked] = 0   # reduceat gives an empty segment its next entry
        new_bits = pulled & ~reach[:t]
        r, w = np.nonzero(new_bits)   # the words that gained bits
        if r.size == 0:
            break
        reach[:t] |= new_bits
        # nonzero runs about 2.5x faster on a bool view than on uint8
        bit = np.flatnonzero(np.unpackbits(
            np.asarray(new_bits[r, w], dtype="<u8").view(np.uint8), bitorder="little").view(bool))
        dist_buf[(r * t + w * 64)[bit >> 6] + (bit & 63)] = level
    flat = np.flatnonzero(
        np.unpackbits(packed[:t], axis=1, count=t, bitorder="little").view(bool))
    return flat // t, flat % t, dist_buf[flat]


def hop_distances(indptr: np.ndarray, indices: np.ndarray, t: int,
                  max_hops: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-major ``(rows, cols, dist)`` of every pair within ``max_hops``.

    The concatenation of :func:`hop_distance_blocks`; within a row, columns
    ascend, so ``rows``/``cols`` filtered by ``dist <= n`` are a CSR mask.
    """
    parts = list(hop_distance_blocks(indptr, indices, t, max_hops))
    if not parts:
        return (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64),
                np.zeros(0, dtype=np.min_scalar_type(0)))
    return tuple(np.concatenate(col) for col in zip(*parts))


def _mask_within(rows: np.ndarray, cols: np.ndarray, dist: np.ndarray, t: int,
                 n: int) -> HopMask:
    # the pairs are already row-major with ascending columns: no sort
    keep = dist <= n
    return HopMask(hop_budget=n, size=t, indptr=_frozen(csr_indptr(rows[keep], t)),
                   indices=_frozen(cols[keep]))


def build_mask(ag: AugmentedGraph, n: int) -> HopMask:
    """Reachability within n hops of the augmented graph.

    Row i of the result lists, in ascending order, every token j with
    dist(i, j) <= n; n = 0 yields the identity.
    """
    return build_head_masks(ag, [n])[0]


def build_head_masks(ag: AugmentedGraph, hops: list[int]) -> list[HopMask]:
    """One mask per head from a single search to ``max(hops)``; identical
    budgets share a single underlying mask.  Budgets follow the package's
    integer rule: ``2.0`` is 2, a boolean or a fraction is refused."""
    hops = [_int_value(f"hop budget {i}", n) for i, n in enumerate(hops)]
    if not hops:
        raise ValueError("hops must be non-empty")
    if min(hops) < 0:
        raise ValueError(f"hop budget must be non-negative, got {min(hops)}")
    t = ag.total_tokens
    rows, cols, dist = hop_distances(ag.indptr, ag.indices, t, max(hops))
    cache: dict[int, HopMask] = {}
    out = []
    for n in hops:
        if n not in cache:
            cache[n] = _mask_within(rows, cols, dist, t, n)
        out.append(cache[n])
    return out


def mask_stats(m: HopMask) -> dict:
    """nnz, density, and row-degree statistics over stored entries."""
    row_deg = np.diff(m.indptr)
    t = m.size
    return {
        "nnz": m.nnz,
        "density": m.nnz / (t * t) if t else 0.0,
        "max_row_degree": int(row_deg.max()) if t else 0,
        "mean_row_degree": float(row_deg.mean()) if t else 0.0,
    }


def write_mask_dump(m: HopMask, fh) -> None:
    """Dump format: header 'T nnz n_hop', then one sorted 'row col' per line."""
    fh.write(f"{m.size} {m.nnz} {m.hop_budget}\n")
    # one write of Python ints: numpy scalars formatted line by line took
    # 2-3x as long on a dense hop-12 mask (118,336 entries)
    fh.write("".join(f"{r} {c}\n" for r, c in zip(m.row_indices.tolist(), m.indices.tolist())))
