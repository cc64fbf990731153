"""Head-specific n-hop reachability masks over the augmented token graph.

A mask stores, in CSR form, every token pair (i, j) whose shortest-path
distance in the augmented graph is at most the head's hop budget.  Budgets
count hops on the augmented graph, where one hop of the original graph costs
two (node -> edge token -> node).  Masks are built by truncated breadth-first
search from every source token; nothing dense is ever materialized.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graphs import AugmentedGraph, _frozen


@dataclass(eq=False)
class HopMask:
    """Boolean T x T reachability matrix in CSR form, diagonal always present."""

    hop_budget: int
    size: int
    indptr: np.ndarray   # (T+1,) int64
    indices: np.ndarray  # (nnz,) int64, ascending within each row
    _row_indices: np.ndarray | None = field(default=None, repr=False)
    _dense_support: np.ndarray | None = field(default=None, repr=False)

    @property
    def nnz(self) -> int:
        return int(self.indices.shape[0])

    @property
    def row_indices(self) -> np.ndarray:
        """Row id of each stored entry, aligned with ``indices`` (cached)."""
        if self._row_indices is None:
            self._row_indices = _frozen(
                np.repeat(np.arange(self.size, dtype=np.int64), np.diff(self.indptr)))
        return self._row_indices

    @property
    def dense_support(self) -> np.ndarray:
        """The mask as a boolean T x T array (cached).

        T^2 bytes: the attention kernel asks for it only on masks whose
        density is at least ``autograd.DENSE_MIN_DENSITY``.
        """
        if self._dense_support is None:
            support = np.zeros((self.size, self.size), dtype=bool)
            support[self.row_indices, self.indices] = True
            self._dense_support = _frozen(support)
        return self._dense_support

    def row(self, i: int) -> np.ndarray:
        return self.indices[self.indptr[i]:self.indptr[i + 1]]


def build_mask(ag: AugmentedGraph, n: int) -> HopMask:
    """Reachability within n hops of the augmented graph, one BFS per source.

    Row i of the result lists, in ascending order, every token j with
    dist(i, j) <= n; n = 0 yields the identity.
    """
    if n < 0:
        raise ValueError(f"hop budget must be non-negative, got {n}")
    t = ag.total_tokens
    aip, aidx = ag.indptr, ag.indices
    row_sizes = np.empty(t, dtype=np.int64)
    rows: list[np.ndarray] = []
    for s in range(t):
        visited = np.zeros(t, dtype=bool)
        visited[s] = True
        frontier = np.asarray([s], dtype=np.int64)
        for _ in range(n):
            if frontier.size == 0:
                break
            nbr = np.concatenate([aidx[aip[u]:aip[u + 1]] for u in frontier])
            nbr = nbr[~visited[nbr]]
            if nbr.size == 0:
                break
            visited[nbr] = True
            frontier = np.unique(nbr)
        support = np.flatnonzero(visited)
        row_sizes[s] = support.shape[0]
        rows.append(support)
    indptr = np.zeros(t + 1, dtype=np.int64)
    np.cumsum(row_sizes, out=indptr[1:])
    indices = np.concatenate(rows) if rows else np.zeros(0, dtype=np.int64)
    return HopMask(hop_budget=n, size=t, indptr=_frozen(indptr), indices=_frozen(indices))


def build_head_masks(ag: AugmentedGraph, hops: list[int]) -> list[HopMask]:
    """One mask per head; identical budgets share a single underlying mask."""
    if not hops:
        raise ValueError("hops must be non-empty")
    cache: dict[int, HopMask] = {}
    out = []
    for n in hops:
        if n not in cache:
            cache[n] = build_mask(ag, n)
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
    rows = m.row_indices
    for r, c in zip(rows, m.indices):
        fh.write(f"{r} {c}\n")
