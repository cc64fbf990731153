"""Head-specific n-hop reachability masks over the augmented token graph.

A mask stores, in CSR form, every token pair (i, j) whose shortest-path
distance in the augmented graph is at most the head's hop budget.  Budgets
count hops on the augmented graph, where one hop of the original graph costs
two (node -> edge token -> node).

Every head's mask comes from one level-synchronous, multi-source
breadth-first search from all tokens to the largest budget, and which search
runs depends only on its size (:func:`_one_block`).  A search whose t x t
reach fits ``BLOCK_CELLS`` runs on bit rows from level 0
(:func:`_reach_levels`): each row of the reach packed into uint64 words, and
a level ORs each row's neighbours' rows into it (a multi-source bitset BFS,
as in Then et al., VLDB 2014).  A head's mask is the reach after its budget's
level, so no per-pair distance is ever written.  A larger search
(:func:`hop_distances`) runs its sources in blocks sized so that its
transient arrays stay within ``BLOCK_CELLS`` entries; a level expands the
frontier's ``(source, token)`` keys through the CSR and labels each new pair
with its hop distance, and a head's mask is the filter ``dist <= n``.  The
key search serves these multi-block hop masks only: ``analysis`` runs the
bit rows at every size, over column blocks of the reach.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .graphs import AugmentedGraph, GraphError, _frozen, _int_value, csr_indptr


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
            object.__setattr__(self, name, _int_value(f"mask {name}", getattr(self, name), 0))
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


# Bound on the transient arrays of one search.  A key search runs its sources
# in blocks of B = BLOCK_CELLS // max(T, nnz), at least one: a block has a
# B x T ``seen`` buffer (bytes), frontiers and output of at most B x T keys,
# and per level at most B x nnz expanded neighbours (each source expands each
# stored link at most once), all within BLOCK_CELLS entries.  A search that
# fits one block (T * max(T, nnz) <= BLOCK_CELLS, :func:`_one_block`) runs on
# bit rows instead, whose arrays (the packed reach, T x ceil(T/64) words; a
# gather of (nnz + T) x ceil(T/64) words; one unpacked T x T snapshot of
# bytes) stay within the same bound.
#
# Medians of 21 interleaved build_head_masks calls, the earlier search (keys,
# switching to bit rows once a key level would expand more neighbours than a
# bit level gathers words) -> bit rows from level 0, numpy 2.4.6 on a shared
# 2-vCPU host, seed 3, budgets 1,2,3,4 (shallow) and 1,3,6,12,24,48 (deep):
#   sbm_node, T = 341, budgets 1,3,6,12:          6.7 -> 3.6 ms
#   er_graph, 128 graphs, T <= 54, budgets 1..8:  45.6 -> 28.2 ms
#   Watts-Strogatz          T   shallow             deep
#   beta 0,   n=20,  k=4    60   0.25 -> 0.19 ms     0.52 -> 0.29 ms
#   beta 0,   n=100, k=6   400   1.09 -> 1.15        12.4 -> 7.7
#   beta 0,   n=160, k=4   480   1.02 -> 1.28        16.3 -> 7.5
#   beta 0.1, n=20,  k=4    60   0.32 -> 0.24        0.64 -> 0.36
#   beta 0.1, n=100, k=6   400   1.55 -> 1.36        12.9 -> 6.8
#   beta 0.1, n=160, k=4   480   1.35 -> 1.44        18.7 -> 10.9
#   beta 1,   n=20,  k=4    60   0.34 -> 0.24        0.58 -> 0.32
#   beta 1,   n=100, k=6   400   2.01 -> 1.54        14.6 -> 5.3
#   beta 1,   n=160, k=4   480   1.94 -> 1.95        21.5 -> 9.8
#   ring (k=2), n=300      600   0.77 -> 1.70        6.83 -> 7.33
#   n=250, k=6, any beta  1000   multi-block: keys, unchanged
# analysis.small_world_report, bit rows in column blocks at every size
# (before: keys past n * max(n, 2E) > BLOCK_CELLS), medians of 3-21
# interleaved calls, one BLAS thread: 128 er_graph graphs 20.9 -> 19.1 ms;
# beta 1, n=160, k=4 0.70 -> 0.53; n=300 ring 11.9 -> 12.4; past the old
# bound, the 2000-node sparse_large SBM 586 -> 65, ER n=400, p=0.2 205 ->
# 12.7, beta 0.1, n=1100, k=4 152 -> 19, beta 0.01, n=2000, k=4 461 -> 302.
# Thin reaches lose: the ring (2.2x on shallow masks, 1.07x deep, 5.7x on its
# n=2000 report), the beta 0, n=2000, k=4 report (3.7x) and shallow masks of
# the larger low-beta lattices (up to 1.26x).  A key level expands a short
# frontier there, while a bit level still gathers every row and each
# snapshot unpacks all T x T bits.  No benchmark workload has such graphs.
BLOCK_CELLS = 2**20


def _one_block(t: int, nnz: int) -> bool:
    """Whether a hop-mask search over t tokens and nnz links runs as one
    block of sources, and so on bit rows (:func:`_reach_levels`) rather than
    on keys (:func:`hop_distances`)."""
    return t * max(t, nnz) <= BLOCK_CELLS


def _reach_levels(indptr: np.ndarray, indices: np.ndarray, t: int, last: int,
                  lo: int = 0, hi: int | None = None):
    """Yield the packed reach of every source of the t-node CSR graph over
    columns [lo, hi) (all t by default; lo a multiple of 64) after levels 0,
    1, ...: a fresh (t, ceil((hi - lo)/64)) little-endian uint64 array whose
    row i holds column c, as bit c % 64 of word (c - lo) // 64, iff
    dist(i, c) is at most the level.  Level 0 is the identity.

    Each level sets ``reach[i] |= OR of reach[j] over i's CSR row``: one
    gather and one ``np.bitwise_or.reduceat`` over the rows with each row's
    own id put first, so no segment is empty (a multi-source bitset BFS, as
    in Then et al., VLDB 2014).  The pull step is exact for any directed CSR:
    j within d - 1 of c and i -> j put c within d of i.  No column is read
    for another, so a column block is the whole reach's columns.  Levels stop
    at ``min(last, t - 1)`` or before the first level that sets no bit, whose
    reach would repeat the last one yielded.
    """
    hi = t if hi is None else hi
    ids, cols = np.arange(t), np.arange(lo, hi)
    reach = np.zeros((t, -(-(hi - lo) // 64)), dtype="<u8")
    reach[cols, (cols - lo) >> 6] = np.uint64(1) << (cols & 63).astype(np.uint64)
    starts = indptr[:-1] + ids
    # the self-first links written into an empty array: np.insert took 8.8
    # us against 3.3 us on a 12-node ER graph (timeit, best of 5 x 2000)
    links = np.empty(indices.size + t, dtype=indices.dtype)
    links[starts] = ids
    rest = np.ones(links.size, dtype=bool)
    rest[starts] = False
    links[rest] = indices
    yield reach
    for _ in range(min(last, t - 1)):
        grown = np.bitwise_or.reduceat(reach[links], starts, axis=0)
        if np.array_equal(grown, reach):
            return
        reach = grown
        yield reach


def _snapshot_csr(reach: np.ndarray, t: int) -> tuple[np.ndarray, np.ndarray]:
    """The int64 CSR ``(indptr, indices)`` of a packed reach, columns
    ascending, unpacked row by row into a t x t bool array."""
    bits = np.unpackbits(reach.view(np.uint8), axis=1, count=t, bitorder="little").view(bool)
    indptr = np.zeros(t + 1, dtype=np.int64)
    np.cumsum(np.count_nonzero(bits, axis=1), out=indptr[1:])
    return indptr, np.flatnonzero(bits) % t


def hop_distances(indptr: np.ndarray, indices: np.ndarray, t: int,
                  max_hops: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-major ``(rows, cols, dist)`` of every pair (i, j) of the t-node CSR
    graph ``indptr``/``indices`` with dist(i, j) <= max_hops; within a row,
    columns ascend, so ``rows``/``cols`` filtered by ``dist <= n`` are a CSR
    mask.  The package runs it only for hop masks of more than one block
    (:func:`_one_block`).

    Sources run in blocks of ``BLOCK_CELLS // max(t, nnz)``, each one
    multi-source, level-synchronous BFS: a frontier of ``(source - s0) * t +
    node`` keys, s0 the block's first source, expands through the CSR one
    level at a time, keeping only keys not yet seen.  Levels stop at
    ``min(max_hops, t - 1)`` or at an empty frontier; ``dist`` has the
    smallest unsigned dtype that holds the last level.
    """
    max_hops = _int_value("hop budget", max_hops, 0)
    levels = min(max_hops, max(t - 1, 0))
    dist_dtype = np.min_scalar_type(levels)
    starts, degrees = indptr[:-1], np.diff(indptr)
    block = max(1, BLOCK_CELLS // max(t, indices.size, 1))
    seen = np.zeros(min(block, t) * t, dtype=bool)
    # one empty part first, so that t = 0 lists no pair in the same dtypes
    parts = [(np.zeros(0, dtype=np.int64),) * 2 + (np.zeros(0, dtype=dist_dtype),)]
    for s0 in range(0, t, block):
        b = min(block, t - s0)
        frontier = np.arange(b, dtype=np.int64) * (t + 1) + s0   # (i - s0) * t + i
        seen[frontier] = True
        keys, dist = [frontier], [np.zeros(b, dtype=dist_dtype)]
        for level in range(1, levels + 1):
            node = frontier % t
            deg = degrees[node]
            ends = np.cumsum(deg)
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
        parts.append((keys // t + s0, keys % t, dist[order]))
    return tuple(np.concatenate(col) for col in zip(*parts))


def build_mask(ag: AugmentedGraph, n: int) -> HopMask:
    """Reachability within n hops of the augmented graph.

    Row i of the result lists, in ascending order, every token j with
    dist(i, j) <= n; n = 0 yields the identity.
    """
    return build_head_masks(ag, [n])[0]


def build_head_masks(ag: AugmentedGraph, hops: list[int]) -> list[HopMask]:
    """One mask per head from a single search to ``max(hops)``; identical
    budgets share a single underlying mask.  Budgets follow the package's
    integer rule: ``2.0`` is 2, a boolean, a fraction or a negative budget is
    refused by its entry, and so is a string, as ``ModelConfig`` refuses one
    for ``head_hops``.

    A one-block search (:func:`_one_block`) turns the bit-row reach at each
    budget into its mask, and budgets past the level where the reach stops
    growing share that last reach's arrays; a larger one filters the key
    search's distances per budget."""
    if not isinstance(ag, AugmentedGraph):
        raise GraphError(f"build_head_masks takes an AugmentedGraph (from augment), "
                         f"got {type(ag).__name__}")
    if isinstance(hops, (str, bytes)) or not hasattr(hops, "__iter__"):
        raise ValueError(f"hops must be a list of integers, got {hops!r}")
    hops = [_int_value(f"hop budget {i}", n, 0) for i, n in enumerate(hops)]
    if not hops:
        raise ValueError("hops must be non-empty")
    t = ag.total_tokens
    if _one_block(t, ag.indices.size):
        csr = {}
        for level, reach in enumerate(_reach_levels(ag.indptr, ag.indices, t, max(hops))):
            if level in hops:
                csr[level] = tuple(map(_frozen, _snapshot_csr(reach, t)))
        if level not in csr:   # the reach stopped growing before max(hops)
            csr[level] = tuple(map(_frozen, _snapshot_csr(reach, t)))
        masks = {n: HopMask(n, t, *csr[min(n, level)]) for n in set(hops)}
    else:
        rows, cols, dist = hop_distances(ag.indptr, ag.indices, t, max(hops))
        masks = {}
        for n in set(hops):   # the pairs are row-major, columns ascending: no sort
            keep = dist <= n
            masks[n] = HopMask(n, t, _frozen(csr_indptr(rows[keep], t)), _frozen(cols[keep]))
    return [masks[n] for n in hops]


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
