import dataclasses
import hashlib
import io
import re
import tracemalloc

import numpy as np
import pytest

from hopformer import (AugmentedGraph, Graph, ModelConfig, Tensor, augment, build_head_masks,
                       build_mask, generate_erdos_renyi, generate_sbm, generate_watts_strogatz,
                       mask_stats, sparse_masked_attention)
from hopformer import masks as masks_mod
from hopformer.graphs import GraphError
from hopformer.masks import HopMask, hop_distances, write_mask_dump

from helpers import (augmented_distances, dense_reachability_oracle,
                     mask_to_dense, random_graph, refuse, single_edge_graph)


@pytest.fixture
def single_edge_ag():
    return augment(single_edge_graph())


class TestBuildMask:
    def test_single_edge_hop1(self, single_edge_ag):
        assert build_mask(single_edge_ag, 1).nnz == 7

    def test_single_edge_hop0_is_identity(self, single_edge_ag):
        m = build_mask(single_edge_ag, 0)
        assert m.nnz == 3
        assert np.array_equal(mask_to_dense(m), np.eye(3, dtype=bool))

    def test_single_edge_hop2_full(self, single_edge_ag):
        m = build_mask(single_edge_ag, 2)
        assert m.nnz == 9
        assert mask_to_dense(m).all()

    def test_two_components_block_diagonal(self):
        g = Graph(num_nodes=4, edges=np.array([[0, 1], [2, 3]]),
                  node_features=np.ones((4, 1)))
        ag = augment(g)
        m = build_mask(ag, 100)
        assert m.nnz == 18
        dense = mask_to_dense(m)
        assert np.array_equal(dense, dense_reachability_oracle(ag, 100))

    def test_negative_hop_rejected(self, single_edge_ag):
        with pytest.raises(ValueError):
            build_mask(single_edge_ag, -1)

    def test_oracle_equivalence_random(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            g = random_graph(rng, max_nodes=10)
            ag = augment(g)
            n = int(rng.integers(0, 7))
            assert np.array_equal(mask_to_dense(build_mask(ag, n)),
                                  dense_reachability_oracle(ag, n))

    def test_support_is_distance_ball(self):
        rng = np.random.default_rng(5)
        g = random_graph(rng, max_nodes=9)
        ag = augment(g)
        dist = augmented_distances(ag)
        for n in (0, 1, 2, 4):
            dense = mask_to_dense(build_mask(ag, n))
            expect = (dist >= 0) & (dist <= n)
            assert np.array_equal(dense, expect)

    def test_monotone_in_hops(self):
        rng = np.random.default_rng(13)
        g = random_graph(rng, max_nodes=10)
        ag = augment(g)
        prev = mask_to_dense(build_mask(ag, 0))
        for n in range(1, 7):
            cur = mask_to_dense(build_mask(ag, n))
            assert (prev <= cur).all()
            prev = cur

    def test_saturation_at_diameter(self):
        g = generate_erdos_renyi(8, 0.9, seed=2)
        ag = augment(g)
        t = ag.total_tokens
        dist = augmented_distances(ag)
        diam = int(dist.max())
        assert (dist >= 0).all()
        sat = build_mask(ag, diam)
        assert sat.nnz == t * t
        assert build_mask(ag, diam + 5).nnz == t * t

    def test_symmetry(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            g = random_graph(rng, max_nodes=9)
            ag = augment(g)
            dense = mask_to_dense(build_mask(ag, int(rng.integers(0, 5))))
            assert np.array_equal(dense, dense.T)

    def test_parity_of_token_kinds(self):
        # bipartite structure: node/node pairs at even distance, node/edge at odd
        rng = np.random.default_rng(19)
        g = random_graph(rng, max_nodes=9)
        ag = augment(g)
        dist = augmented_distances(ag)
        kind = ag.token_kind
        m = build_mask(ag, 5)
        for i, j in zip(m.row_indices, m.indices):
            d = dist[i, j]
            if kind[i] == kind[j]:
                assert d % 2 == 0
            else:
                assert d % 2 == 1

    def test_isolated_node_row_is_diagonal_only(self):
        g = Graph(num_nodes=3, edges=np.array([[0, 1]]), node_features=np.ones((3, 1)))
        ag = augment(g)
        m = build_mask(ag, 50)
        assert m.row(2).tolist() == [2]

    @pytest.mark.parametrize("i", [-1, 3, 4, 1.5, True, "1"])
    def test_row_outside_the_mask_refused(self, single_edge_ag, i):
        # row(-1) sliced indptr[-1]:indptr[0] to an empty row, row(T) raised
        # numpy's IndexError and row(2.0) numpy's index TypeError
        m = build_mask(single_edge_ag, 1)
        if isinstance(i, int) and not isinstance(i, bool):
            message = f"mask row {i} is outside [0, 3)"
        else:
            message = f"row must be an integer, got {i!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            m.row(i)

    def test_integral_float_row_is_the_integer(self, single_edge_ag):
        m = build_mask(single_edge_ag, 1)
        assert np.array_equal(m.row(2.0), m.row(2)) and m.row(np.int64(0)).tolist() == [0, 2]
        assert np.array_equal(m.row(2), m.indices[m.indptr[2]:m.indptr[3]])

    def test_rows_sorted_ascending(self):
        g = generate_erdos_renyi(7, 0.5, seed=9)
        ag = augment(g)
        m = build_mask(ag, 3)
        for i in range(ag.total_tokens):
            row = m.row(i)
            assert np.array_equal(row, np.sort(row))


class TestBuildHeadMasks:
    def test_dedup_shares_objects(self, single_edge_ag):
        masks = build_head_masks(single_edge_ag, [1, 1, 2, 2])
        assert masks[0] is masks[1]
        assert masks[2] is masks[3]
        assert masks[0] is not masks[2]
        assert len({id(m) for m in masks}) == 2

    def test_single_zero_hop(self, single_edge_ag):
        masks = build_head_masks(single_edge_ag, [0])
        assert len(masks) == 1
        assert masks[0].nnz == 3

    def test_nnz_monotone_across_budgets(self):
        g = generate_erdos_renyi(40, 0.05, seed=4)
        ag = augment(g)
        masks = build_head_masks(ag, [3, 6, 12, 24])
        nnzs = [m.nnz for m in masks]
        assert nnzs == sorted(nnzs)

    def test_nnz_monotone_at_citation_network_scale(self):
        # 183 nodes / ~300 edges, the size regime of small web-graph datasets
        g = generate_erdos_renyi(183, 0.018, seed=12)
        ag = augment(g)
        masks = build_head_masks(ag, [3, 6, 12, 24])
        nnzs = [m.nnz for m in masks]
        assert nnzs == sorted(nnzs)
        assert len(set(nnzs)) == len(nnzs)

    def test_empty_hops_rejected(self, single_edge_ag):
        with pytest.raises(ValueError):
            build_head_masks(single_edge_ag, [])

    def test_integral_float_budget_is_the_integer(self):
        ag = augment(generate_erdos_renyi(12, 0.3, seed=2))
        (got,), (want,) = build_head_masks(ag, [2.0]), build_head_masks(ag, [2])
        assert type(got.hop_budget) is int and got.hop_budget == 2
        for name in ("indptr", "indices", "row_indices"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
        assert got.dense_bias.tobytes() == want.dense_bias.tobytes()

    @pytest.mark.parametrize("hops,message", [
        ([1.5], "hop budget 0 must be an integer, got 1.5"),
        ([True, 2], "hop budget 0 must be an integer, got True"),
        ([1, 2.5], "hop budget 1 must be an integer, got 2.5")])
    def test_fraction_or_boolean_budget_refused(self, single_edge_ag, hops, message):
        # range() raised a bare TypeError on a fraction, and True built a
        # mask whose hop_budget was True
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build_head_masks(single_edge_ag, hops)

    @pytest.mark.parametrize("source", [single_edge_graph, lambda: None, lambda: "graph"])
    def test_a_graph_that_is_not_augmented_is_refused(self, source):
        # a Graph raised a bare AttributeError on total_tokens
        g = source()
        with pytest.raises(GraphError, match="^build_head_masks takes an AugmentedGraph "
                                             rf"\(from augment\), got {type(g).__name__}$"):
            build_head_masks(g, [1])

    @pytest.mark.parametrize("hops", ["12", b"12", 3])
    def test_a_string_or_a_number_of_budgets_is_refused(self, single_edge_ag, hops):
        # "12" was read one character at a time: "hop budget 0 must be an
        # integer, got '1'"
        with pytest.raises(ValueError,
                           match=f"^hops must be a list of integers, got {re.escape(repr(hops))}$"):
            build_head_masks(single_edge_ag, hops)
        with pytest.raises(ValueError, match="^head_hops must be a list of integers"):
            ModelConfig(hidden_dim=4, head_hops=hops, num_layers=1, ffn_dim=4, num_heads=2,
                        num_classes=2)


class TestMaskStats:
    def test_identity(self):
        g = Graph(num_nodes=5, edges=np.zeros((0, 2)), node_features=np.ones((5, 1)))
        stats = mask_stats(build_mask(augment(g), 0))
        assert stats["nnz"] == 5
        assert stats["density"] == pytest.approx(0.2)

    def test_full(self):
        from hopformer.masks import HopMask
        full = HopMask(hop_budget=9, size=4,
                       indptr=np.arange(0, 17, 4, dtype=np.int64),
                       indices=np.tile(np.arange(4, dtype=np.int64), 4))
        stats = mask_stats(full)
        assert stats["density"] == pytest.approx(1.0)
        assert stats["max_row_degree"] == 4

    def test_mean_row_degree(self, single_edge_ag):
        stats = mask_stats(build_mask(single_edge_ag, 1))
        assert stats["mean_row_degree"] == pytest.approx(7 / 3)


class TestFrozenMask:
    @pytest.mark.parametrize("field,value", [
        ("indptr", np.array([0, 1, 1, 7])), ("indices", np.arange(7)), ("size", 4),
        ("hop_budget", 2), ("row_indices", np.zeros(7, dtype=np.int64)),
        ("dense_bias", np.zeros((3, 3)))])
    def test_assigning_a_field_raises(self, single_edge_ag, field, value):
        m = build_mask(single_edge_ag, 1)
        before = (m.indptr.copy(), m.indices.copy(), m.row_indices.copy())
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(m, field, value)
        assert all(np.array_equal(a, b) for a, b in
                   zip(before, (m.indptr, m.indices, m.row_indices)))

    @pytest.mark.parametrize("cache", ["row_indices", "dense_bias"])
    def test_cache_keyword_is_refused(self, single_edge_ag, cache):
        m = build_mask(single_edge_ag, 1)
        with pytest.raises(TypeError, match=cache):
            HopMask(m.hop_budget, m.size, m.indptr, m.indices,
                    **{cache: np.zeros(m.nnz, dtype=np.int64)})

    def test_caches_fill_once_from_the_checked_structure(self, single_edge_ag):
        m = build_mask(single_edge_ag, 1)
        rows = m.row_indices
        assert rows is m.row_indices
        assert np.array_equal(rows, np.repeat(np.arange(3), np.diff(m.indptr)))
        assert np.array_equal(m.dense_bias, np.where(mask_to_dense(m), 0.0, -np.inf))
        assert m.dense_bias.dtype == np.float64
        assert not np.signbit(m.dense_bias[mask_to_dense(m)]).any()   # +0.0 on the support
        for cache in ("row_indices", "dense_bias"):
            assert getattr(m, cache) is getattr(m, cache)
            assert not getattr(m, cache).flags.writeable, cache
        assert "row_indices" not in repr(m) and "dense_bias" not in repr(m)

    def test_caller_arrays_are_copied_and_stay_writable(self):
        indptr, indices = np.array([0, 1, 2]), np.array([0, 1])
        m = HopMask(1, 2, indptr, indices)
        indptr[1], indices[0] = 2, 1
        assert m.indptr.tolist() == [0, 1, 2] and m.indices.tolist() == [0, 1]
        assert indptr.flags.writeable and indices.flags.writeable
        assert not m.indptr.flags.writeable and not m.indices.flags.writeable

    @pytest.mark.parametrize("dtype", [np.uint64, np.uint32, np.int32, np.int16])
    def test_other_integer_dtypes_are_stored_as_int64(self, dtype):
        m = HopMask(1, 2, np.array([0, 1, 2], dtype=dtype), np.array([0, 1], dtype=dtype))
        assert m.indptr.dtype == m.indices.dtype == np.int64
        assert m.indptr.tolist() == [0, 1, 2] and m.indices.tolist() == [0, 1]
        assert not m.indptr.flags.writeable and not m.indices.flags.writeable

    def test_read_only_views_are_copied(self):
        base = np.array([0, 1, 2, 0, 1])
        indptr, indices = base[:3], base[3:]
        indptr.setflags(write=False)
        indices.setflags(write=False)
        m = HopMask(1, 2, indptr, indices)
        base[1] = 2
        assert m.indptr.tolist() == [0, 1, 2]
        assert m.indptr is not indptr and m.indices is not indices

    def test_built_masks_keep_their_own_read_only_arrays(self, single_edge_ag):
        for m in build_head_masks(single_edge_ag, [0, 1, 2]):
            for a in (m.indptr, m.indices):
                assert a.flags.owndata and not a.flags.writeable
            again = HopMask(m.hop_budget, m.size, m.indptr, m.indices)
            assert again.indptr is m.indptr and again.indices is m.indices


class TestMaskFields:
    """Hand-built masks: the integer fields follow the package's integer
    rule, and index lists are taken as arrays."""

    def test_integral_float_fields_are_stored_as_ints(self):
        m = HopMask(1.0, 2.0, np.array([0, 1, 2]), np.array([0, 1]))
        assert (m.hop_budget, m.size) == (1, 2)
        assert type(m.hop_budget) is int and type(m.size) is int
        # the kernel, which slices by size, runs on it
        q = Tensor(np.eye(2))
        assert np.array_equal(sparse_masked_attention(q, q, q, m).values, np.eye(2))

    @pytest.mark.parametrize("field,value", [("size", 2.5), ("hop_budget", 1.5),
                                             ("size", True), ("hop_budget", "1"),
                                             ("size", -1), ("hop_budget", -2)])
    def test_bad_integer_fields_are_refused_naming_the_field(self, field, value):
        kw = dict(hop_budget=1, size=2, indptr=np.array([0, 1, 2]), indices=np.array([0, 1]))
        kw[field] = value
        with pytest.raises(ValueError, match=f"^mask {field} must be"):
            HopMask(**kw)

    def test_index_lists_are_stored_as_read_only_int64_arrays(self):
        m = HopMask(1, 2, [0, 1, 2], [0, 1])
        assert m.indptr.dtype == m.indices.dtype == np.int64
        assert m.indptr.tolist() == [0, 1, 2] and m.indices.tolist() == [0, 1]
        assert not m.indptr.flags.writeable and not m.indices.flags.writeable

    @pytest.mark.parametrize("indptr,indices,dtypes", [
        ([0, 1, 2], [0.0, 1.0], "int64 and float64"),
        ([0.0, 1.0, 2.0], [0, 1], "float64 and int64")])
    def test_non_integer_lists_are_refused_naming_the_dtype(self, indptr, indices, dtypes):
        with pytest.raises(ValueError, match=f"must be integer arrays, got {dtypes}$"):
            HopMask(1, 2, indptr, indices)

    @pytest.mark.parametrize("indices", [[], (), np.array([]), np.array([], dtype=np.float32),
                                         np.array([], dtype=np.uint8)])
    def test_empty_index_sequences_are_stored_as_int64(self, indices):
        # np.asarray([]) is float64, but an empty sequence holds no non-integer
        m = HopMask(0, 0, [0], indices)
        assert m.indptr.dtype == m.indices.dtype == np.int64
        assert m.indptr.tolist() == [0] and m.nnz == 0
        assert not m.indices.flags.writeable

    @pytest.mark.parametrize("indptr,indices,dtypes", [
        ([0.0], [], "float64 and int64"),
        (np.array([0, 1], dtype=np.float32), [0], "float32 and int64")])
    def test_non_empty_float_sequence_is_still_refused(self, indptr, indices, dtypes):
        with pytest.raises(ValueError, match=f"must be integer arrays, got {dtypes}$"):
            HopMask(0, len(indptr) - 1, indptr, indices)


class TestDumpFormat:
    def test_header_and_sorted_pairs(self, single_edge_ag):
        m = build_mask(single_edge_ag, 1)
        buf = io.StringIO()
        write_mask_dump(m, buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == f"3 {m.nnz} 1"
        pairs = [tuple(map(int, line.split())) for line in lines[1:]]
        assert len(pairs) == m.nnz
        assert pairs == sorted(pairs)

    @pytest.mark.parametrize("g,n", [
        (single_edge_graph(), 0), (Graph(num_nodes=1, edges=np.zeros((0, 2)),
                                         node_features=np.ones((1, 1))), 3),
        (generate_erdos_renyi(12, 0.3, seed=2), 2),
        (generate_sbm((30, 30), 0.3, 0.02, seed=3), 12)],
        ids=["identity", "T1", "er", "dense_sbm"])
    def test_joined_dump_equals_the_per_line_format(self, g, n):
        m = build_mask(augment(g), n)
        per_line = io.StringIO()
        per_line.write(f"{m.size} {m.nnz} {m.hop_budget}\n")
        for r, c in zip(m.row_indices, m.indices):   # numpy scalars, one line each
            per_line.write(f"{r} {c}\n")
        joined = io.StringIO()
        write_mask_dump(m, joined)
        assert joined.getvalue().encode() == per_line.getvalue().encode()


def _edgeless(n):
    return Graph(num_nodes=n, edges=np.zeros((0, 2)), node_features=np.ones((n, 1)))


def _path(n):
    return Graph(num_nodes=n, edges=np.column_stack([np.arange(n - 1), np.arange(1, n)]),
                 node_features=np.ones((n, 1)))


def _block_sources(monkeypatch, ag, max_hops):
    """``hop_distances``' output and the number of sources of each of its
    blocks, read off the keys that each block sorts once."""
    t, real, sources = ag.total_tokens, np.argsort, []

    def spy(keys):
        sources.append(np.count_nonzero(np.bincount(keys // t)))
        return real(keys)
    with monkeypatch.context() as m:
        m.setattr(np, "argsort", spy)
        out = hop_distances(ag.indptr, ag.indices, t, max_hops)
    return out, sources


def _assert_masks_equal(a, b):
    assert a.hop_budget == b.hop_budget and a.size == b.size
    assert a.indptr.dtype == b.indptr.dtype == np.int64
    assert a.indices.dtype == b.indices.dtype == np.int64
    assert a.indptr.tobytes() == b.indptr.tobytes()
    assert a.indices.tobytes() == b.indices.tobytes()


class TestSinglePassSearch:
    """One multi-source BFS to the largest budget serves every head."""

    BUDGETS = [0, 1, 2, 3, 5, 8]

    def _check_against_oracle(self, ag, hops):
        masks = build_head_masks(ag, hops)
        for n, m in zip(hops, masks):
            assert m.hop_budget == n
            oracle = dense_reachability_oracle(ag, min(n, ag.total_tokens))
            assert np.array_equal(mask_to_dense(m), oracle), n
        return masks

    def test_oracle_on_seeded_random_graphs(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            g = random_graph(rng, max_nodes=12, p=float(rng.uniform(0.0, 0.5)))
            hops = [int(h) for h in rng.choice(self.BUDGETS, size=4)]
            self._check_against_oracle(augment(g), hops)

    @pytest.mark.parametrize("g", [
        _edgeless(1), _edgeless(6), _path(2),
        Graph(num_nodes=5, edges=np.array([[0, 1], [1, 2]]),
              node_features=np.ones((5, 1))),                        # isolated 3, 4
        Graph(num_nodes=6, edges=np.array([[0, 1], [2, 3], [3, 4], [4, 5]]),
              node_features=np.ones((6, 1))),                        # two components
    ], ids=["T1", "edgeless", "single_edge", "isolated_nodes", "disconnected"])
    def test_degenerate_graphs(self, g):
        ag = augment(g)
        masks = self._check_against_oracle(ag, [0, 1, 3, 10**9])
        assert np.array_equal(mask_to_dense(masks[0]), np.eye(ag.total_tokens, dtype=bool))

    def test_huge_budget_is_clamped(self):
        ag = augment(generate_erdos_renyi(9, 0.3, seed=3))
        t = ag.total_tokens
        huge, longest = build_mask(ag, 10**9), build_mask(ag, t - 1)
        assert huge.hop_budget == 10**9
        assert huge.indptr.tobytes() == longest.indptr.tobytes()
        assert huge.indices.tobytes() == longest.indices.tobytes()
        assert np.array_equal(mask_to_dense(huge), dense_reachability_oracle(ag, t))

    def test_distances_match_bfs_oracle(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            ag = augment(random_graph(rng, max_nodes=10))
            t = ag.total_tokens
            rows, cols, dist = hop_distances(ag.indptr, ag.indices, t, 10**9)
            expect = augmented_distances(ag)
            got = np.full((t, t), -1, dtype=np.int64)
            got[rows, cols] = dist
            assert np.array_equal(got, expect)
            assert np.all(np.diff(rows * t + cols) > 0)   # row-major, no repeats

    def test_distance_dtype_holds_long_paths(self):
        # a 200-node path has 399 tokens and distances up to 398 > 255
        g = _path(200)
        ag = augment(g)
        rows, cols, dist = hop_distances(ag.indptr, ag.indices, ag.total_tokens, 10**9)
        nodes = (rows < 200) & (cols < 200)
        assert int(dist.max()) == 398
        assert np.array_equal(dist[nodes].astype(np.int64),
                              2 * np.abs(rows[nodes] - cols[nodes]))
        assert build_mask(ag, 397).nnz == ag.total_tokens ** 2 - 2
        assert build_mask(ag, 10**9).nnz == ag.total_tokens ** 2

    def test_many_source_blocks(self, monkeypatch):
        # blocks of BLOCK_CELLS // nnz sources (at least 1) against one block
        ag = augment(generate_erdos_renyi(30, 0.1, seed=7))
        t = ag.total_tokens
        one_block = build_head_masks(ag, [1, 3, 6])
        whole = hop_distances(ag.indptr, ag.indices, t, 6)
        nnz = ag.indices.size
        assert nnz > t
        for cells in (1, t - 1, nnz - 1, 2 * nnz, 3 * nnz + 2, 7 * nnz):
            monkeypatch.setattr(masks_mod, "BLOCK_CELLS", cells)
            out, sources = _block_sources(monkeypatch, ag, 6)
            per_block = max(1, cells // nnz)
            assert len(sources) == -(-t // per_block) > 1
            assert sources[:-1] == [per_block] * (len(sources) - 1) and sum(sources) == t
            for a, b in zip(out, whole):
                assert a.dtype == b.dtype and np.array_equal(a, b)
            for a, b in zip(build_head_masks(ag, [1, 3, 6]), one_block):
                _assert_masks_equal(a, b)
        assert np.array_equal(mask_to_dense(one_block[2]), dense_reachability_oracle(ag, 6))

    def test_memory_stays_within_the_block_bound(self, monkeypatch):
        # tracemalloc sees numpy's array buffers.  At 2^17 cells the 7464-token
        # search runs 7 sources per block; one block of all sources would keep
        # a T x T seen buffer of 55.7 MB (the blocks peaked at 2.7 MB).  The
        # output's pairs, P of them, cost O(P) beyond the block bound
        ag = augment(generate_erdos_renyi(3000, 0.001, seed=3))
        cells = 2**17
        monkeypatch.setattr(masks_mod, "BLOCK_CELLS", cells)
        t = ag.total_tokens
        assert not masks_mod._one_block(t, ag.indices.size)
        tracemalloc.start()
        try:
            masks = build_head_masks(ag, [1, 2])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        bound = 4 * 8 * cells + 64 * masks[1].nnz
        assert t * t > 6 * bound and peak < bound

    def test_budgets_nest(self):
        ag = augment(generate_erdos_renyi(25, 0.12, seed=5))
        masks = build_head_masks(ag, [6, 0, 2, 4, 1])
        dense = {m.hop_budget: mask_to_dense(m) for m in masks}
        for lo, hi in zip(sorted(dense)[:-1], sorted(dense)[1:]):
            assert (dense[lo] <= dense[hi]).all()

    def test_equal_budgets_share_one_object(self):
        ag = augment(generate_erdos_renyi(12, 0.3, seed=1))
        masks = build_head_masks(ag, [4, 2, 4, 2, 9])
        assert masks[0] is masks[2] and masks[1] is masks[3]
        assert len({id(m) for m in masks}) == 3

    def test_reruns_bitwise_equal(self):
        ag = augment(generate_erdos_renyi(20, 0.2, seed=8))
        for a, b in zip(build_head_masks(ag, [1, 3, 6, 12]),
                        build_head_masks(ag, [1, 3, 6, 12])):
            _assert_masks_equal(a, b)

    def test_one_call_equals_separate_build_mask_calls(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            ag = augment(random_graph(rng, max_nodes=14))
            hops = [1, 3, 6, 12]
            for m, n in zip(build_head_masks(ag, hops), hops):
                _assert_masks_equal(m, build_mask(ag, n))

    def test_negative_budget_in_list_rejected(self, single_edge_ag):
        with pytest.raises(ValueError, match="non-negative"):
            build_head_masks(single_edge_ag, [2, -1])
        with pytest.raises(ValueError, match="non-negative"):
            hop_distances(single_edge_ag.indptr, single_edge_ag.indices, 3, -1)


def _csr(dense: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return (np.concatenate(([0], np.cumsum(dense.sum(axis=1)))).astype(np.int64),
            np.nonzero(dense)[1].astype(np.int64))


def _searches(monkeypatch, ag, hops):
    """``build_head_masks`` as the package runs it, which must take bit rows,
    and with ``BLOCK_CELLS`` one below the search's T * max(T, nnz), which
    splits its sources into blocks and so keeps it on keys."""
    t, nnz = ag.total_tokens, ag.indices.size
    assert masks_mod._one_block(t, nnz)
    with monkeypatch.context() as m:
        m.setattr(masks_mod, "hop_distances", refuse("expanded a key level"))
        bits = build_head_masks(ag, hops)
    with monkeypatch.context() as m:
        m.setattr(masks_mod, "BLOCK_CELLS", t * max(t, nnz, 1) - 1)
        m.setattr(masks_mod, "_reach_levels", refuse("used bit rows"))
        keys = build_head_masks(ag, hops)
    return bits, keys


def _unpacked(reach, t):
    return np.unpackbits(reach.view(np.uint8), axis=1, count=t, bitorder="little").view(bool)


def _mask_digest(masks):
    h = hashlib.sha256()
    for m in masks:
        h.update(np.int64(m.hop_budget).tobytes())
        h.update(m.indptr.tobytes())
        h.update(m.indices.tobytes())
    return h.hexdigest()


class TestBitRows:
    """A one-block search runs on packed bit rows from level 0; its masks
    equal the key search's, byte for byte."""

    BUDGETS = (0, 1, 2, 3, 6, 12, 48, 10**9)

    @pytest.mark.parametrize("g", [
        generate_erdos_renyi(40, 0.1, seed=3), generate_erdos_renyi(14, 0.3, seed=4),
        generate_watts_strogatz(100, 6, 0.0, seed=3),
        generate_watts_strogatz(100, 6, 0.1, seed=3),
        generate_watts_strogatz(100, 6, 1.0, seed=4),
        generate_watts_strogatz(300, 2, 0.0, seed=3),
        generate_sbm((30, 30), 0.3, 0.02, seed=3), generate_sbm((20, 25), 0.3, 0.03, seed=4),
    ], ids=["er40", "er14", "ws0", "ws0.1", "ws1", "ring", "sbm_node", "sbm45"])
    def test_seeded_graphs_equal_the_key_search(self, monkeypatch, g):
        ag = augment(g)
        for n in self.BUDGETS:
            for a, b in zip(*_searches(monkeypatch, ag, [n])):
                _assert_masks_equal(a, b)

    @pytest.mark.parametrize("g", [
        _edgeless(1), _edgeless(7), _path(2),
        Graph(num_nodes=8, edges=np.array([[0, 1], [1, 2], [0, 2], [2, 3]]),
              node_features=np.ones((8, 1))),                     # isolated 4-7
        Graph(num_nodes=9, edges=np.array([[0, 1], [1, 2], [0, 2], [4, 5], [5, 6],
                                           [4, 6], [6, 7]]),
              node_features=np.ones((9, 1))),                     # two components
    ], ids=["T1", "edgeless", "single_edge", "isolated_tokens", "disconnected"])
    def test_degenerate_graphs_equal_the_key_search(self, monkeypatch, g):
        ag = augment(g)
        for n in self.BUDGETS:
            for a, b in zip(*_searches(monkeypatch, ag, [n])):
                _assert_masks_equal(a, b)

    def test_edgeless_graph_stops_at_level_0(self):
        # no level sets a bit: the identity is the only reach
        ag = augment(_edgeless(7))
        levels = list(masks_mod._reach_levels(ag.indptr, ag.indices, 7, 10**9))
        assert len(levels) == 1
        assert np.array_equal(_unpacked(levels[0], 7), np.eye(7, dtype=bool))

    def test_head_masks_equal_the_key_search(self, monkeypatch):
        ag = augment(generate_sbm((30, 30), 0.3, 0.02, seed=3))
        hops = [0, 12, 3, 12, 40, 10**6, 40]   # budget 0, repeats, past the diameter
        bits, keys = _searches(monkeypatch, ag, hops)
        for masks in (bits, keys):
            assert masks[1] is masks[3] and masks[4] is masks[6]
            assert len({id(m) for m in masks}) == 5
            assert masks[5].nnz == masks[4].nnz == ag.total_tokens ** 2
        for a, b in zip(bits, keys):
            _assert_masks_equal(a, b)

    def test_asymmetric_csr(self):
        # the generator alone, level by level, against the key search's
        # distances on a directed CSR
        rng = np.random.default_rng(43)
        for _ in range(40):
            t = int(rng.integers(1, 140))
            dense = rng.random((t, t)) < rng.uniform(0.0, 0.1)
            indptr, indices = _csr(dense)
            rows, cols, dist = hop_distances(indptr, indices, t, 10**9)
            last = int(dist.max())
            for cap in (0, 1, 2, 5, 10**9):
                levels = list(masks_mod._reach_levels(indptr, indices, t, cap))
                # it stops at the cap or before the first level that sets no bit
                assert len(levels) == min(cap, last) + 1
                for d, reach in enumerate(levels):
                    assert reach.dtype == np.dtype("<u8") and reach.shape == (t, -(-t // 64))
                    want = np.zeros((t, t), dtype=bool)
                    keep = dist <= d
                    want[rows[keep], cols[keep]] = True
                    assert np.array_equal(_unpacked(reach, t), want)
                    # the padding past column t - 1 stays clear
                    assert np.unpackbits(reach.view(np.uint8), axis=1,
                                         bitorder="little")[:, t:].sum() == 0

    def test_masks_match_scipy_shortest_path(self):
        csgraph = pytest.importorskip("scipy.sparse.csgraph")
        sparse = pytest.importorskip("scipy.sparse")
        hops = [1, 3, 6, 12, 48]
        for g in (generate_sbm((30, 30), 0.3, 0.02, seed=3),
                  generate_watts_strogatz(100, 6, 0.1, seed=3),
                  generate_erdos_renyi(14, 0.3, seed=4), _edgeless(3)):
            ag = augment(g)
            dist = _scipy_distances(sparse, csgraph, ag)
            for n, m in zip(hops, build_head_masks(ag, hops)):
                assert np.array_equal(mask_to_dense(m), dist <= n)

    @pytest.mark.parametrize("t", [63, 64, 65, 127, 128, 129])
    def test_word_edges_match_scipy_shortest_path(self, t):
        # token counts at and around the 64-bit word boundaries, nodes drawn
        # so that some graphs split into components and leave isolated nodes
        csgraph = pytest.importorskip("scipy.sparse.csgraph")
        sparse = pytest.importorskip("scipy.sparse")
        rng = np.random.default_rng([t, 5])
        for n in (t, t // 2 + 1, t // 3 + 1):
            pairs = np.argwhere(np.triu(np.ones((n, n), dtype=bool), 1))
            edges = pairs[rng.choice(len(pairs), t - n, replace=False)]
            ag = augment(Graph(num_nodes=n, edges=edges, node_features=np.ones((n, 1))))
            assert ag.total_tokens == t and masks_mod._one_block(t, ag.indices.size)
            dist = _scipy_distances(sparse, csgraph, ag)
            for m in build_head_masks(ag, [0, 10**9]):
                assert np.array_equal(mask_to_dense(m), dist <= m.hop_budget)

    # sha256 of the masks, computed with the search that bit rows from
    # level 0 replaced (keys, then bit rows past a switch rule): no mask may move
    PINNED = {
        "sbm": (lambda: generate_sbm((30, 30), 0.3, 0.02, seed=3), [0, 1, 3, 6, 12, 10**9],
                "3956b37efe28deb1b392408b0a338bfc8a46ac581d9357289615e5a321a4df57"),
        "er": (lambda: generate_erdos_renyi(15, 0.3, seed=8), [1, 2, 4, 8],
               "e7d211e28431df570044748d164e545cdcd11573dbaa3f602457565b4285281f"),
        "ws": (lambda: generate_watts_strogatz(100, 6, 0.1, seed=3), [1, 2, 3, 4, 48],
               "585f849e797395275d81b8a38ef4332b40e628a5fdb1bba8e5a35b1c88329ac4"),
        "ring": (lambda: generate_watts_strogatz(300, 2, 0.0, seed=3), [1, 3, 6, 12, 24, 48],
                 "afb896d3b777d9272699a1994d43fa901be0a5c240b6d289fb3dced4d105c414"),
        "multi_block": (lambda: generate_watts_strogatz(250, 6, 1.0, seed=3), [1, 2, 3, 4],
                        "9f511940ac1d8d947ec29b2eb0943405339dd3c2a7b885915b0f080582e03db5"),
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_pinned_digests(self, name):
        make, hops, digest = self.PINNED[name]
        assert _mask_digest(build_head_masks(augment(make()), hops)) == digest


def _scipy_distances(sparse, csgraph, ag):
    t = ag.total_tokens
    adj = sparse.csr_matrix((np.ones(ag.indices.size), ag.indices, ag.indptr), shape=(t, t))
    return csgraph.shortest_path(adj, unweighted=True)


class TestSearchDispatch:
    """Which search runs depends only on its size: a one-block search never
    expands a key level, and a multi-block search never uses bit rows."""

    @pytest.mark.parametrize("g, hops", [
        (generate_sbm((30, 30), 0.3, 0.02, seed=3), [1, 3, 6, 12]),
        (generate_erdos_renyi(15, 0.3, seed=8), [1, 2, 4, 8]),
        (generate_watts_strogatz(300, 2, 0.0, seed=3), [1, 3, 6, 12, 24, 48]),
        (_edgeless(1), [0, 5]),
    ], ids=["sbm_node", "er_graph", "ring", "T1"])
    def test_one_block_searches_never_expand_keys(self, monkeypatch, g, hops):
        ag = augment(g)
        assert masks_mod._one_block(ag.total_tokens, ag.indices.size)
        monkeypatch.setattr(masks_mod, "hop_distances", refuse("expanded a key level"))
        build_head_masks(ag, hops)

    def test_multi_block_ring_never_uses_bit_rows(self, monkeypatch):
        ag = augment(generate_watts_strogatz(500, 2, 0.0, seed=3))
        assert not masks_mod._one_block(ag.total_tokens, ag.indices.size)
        monkeypatch.setattr(masks_mod, "_reach_levels", refuse("used bit rows"))
        masks = build_head_masks(ag, [1, 3, 6, 12, 24, 48])
        assert masks[-1].nnz < ag.total_tokens ** 2

    def test_multi_block_searches_never_use_bit_rows(self, monkeypatch):
        ag = augment(generate_sbm((30, 30), 0.3, 0.02, seed=3))
        t, nnz = ag.total_tokens, ag.indices.size
        monkeypatch.setattr(masks_mod, "_reach_levels", refuse("used bit rows"))
        for cells in (1, t * nnz // 3, t * nnz - 1):
            monkeypatch.setattr(masks_mod, "BLOCK_CELLS", cells)
            assert build_head_masks(ag, [12])[0].nnz == t * t

    def test_the_rule_is_the_block_bound(self, monkeypatch):
        # one cell below T * max(T, nnz) splits the sources and runs keys;
        # at it they are one block on bit rows
        ag = augment(generate_erdos_renyi(15, 0.3, seed=8))
        t, nnz = ag.total_tokens, ag.indices.size
        for cells, one in ((t * nnz - 1, False), (t * nnz, True)):
            with monkeypatch.context() as m:
                m.setattr(masks_mod, "BLOCK_CELLS", cells)
                assert masks_mod._one_block(t, nnz) is one
                assert (len(_block_sources(m, ag, 3)[1]) == 1) is one
                m.setattr(masks_mod, "hop_distances" if one else "_reach_levels",
                          refuse("took the other search"))
                build_head_masks(ag, [1, 2, 4, 8])


def _sparse_large_graph() -> Graph:
    """The benchmark's sparse_large graph at seed 3 (bench/workloads.py)."""
    import sys
    from pathlib import Path

    import hopformer

    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    return workloads.make_inputs(hopformer, workloads.WORKLOADS["sparse_large"], 3)[0]


def _built_cases():
    """(graph, budgets): edgeless, one-node and no-node graphs, er_graph-sized
    ER graphs and an sbm_node-sized SBM at budgets 0 to past their
    augmented diameter (at most 2 * (nodes - 1)), and sparse_large's graph,
    a multi-block search, at its benchmark budgets and 0."""
    rng = np.random.default_rng(36)
    small = [_edgeless(0), _edgeless(1), _edgeless(4), single_edge_graph(),
             *(generate_erdos_renyi(n, 0.3, seed=int(rng.integers(2**31))) for n in (8, 12, 15)),
             generate_sbm((30, 30), 0.3, 0.02, seed=3)]
    return [(g, list(range(2 * g.num_nodes + 2))) for g in small] + [
        (_sparse_large_graph(), [0, 1, 2, 3, 4])]


class TestPackageBuiltValues:
    """``augment`` and ``build_head_masks`` build their results without the
    public constructors' checks; what they build must pass those checks
    unchanged: nothing refused, and equal read-only int64 arrays."""

    @staticmethod
    def assert_same_arrays(built, again):
        for name in ("indptr", "indices"):
            a = getattr(built, name)
            assert a.dtype == np.int64 and not a.flags.writeable
            assert np.array_equal(getattr(again, name), a)

    def test_rebuilt_by_the_public_constructors_unchanged(self):
        searches = []
        for g, budgets in _built_cases():
            ag = augment(g)
            again = AugmentedGraph(ag.num_node_tokens, ag.num_edge_tokens, ag.indptr,
                                   ag.indices, ag.token_kind, ag.edge_token_origin)
            assert (again.num_node_tokens, again.num_edge_tokens) == (g.num_nodes, g.num_edges)
            self.assert_same_arrays(ag, again)
            assert not ag.token_kind.flags.writeable and not ag.edge_token_origin.flags.writeable
            for mk, n in zip(build_head_masks(ag, budgets), budgets):
                again = HopMask(mk.hop_budget, mk.size, mk.indptr, mk.indices)
                assert (again.hop_budget, again.size) == (n, ag.total_tokens)
                assert type(mk.hop_budget) is type(mk.size) is int
                self.assert_same_arrays(mk, again)
            searches.append(masks_mod._one_block(ag.total_tokens, ag.indices.size))
        assert searches == [True] * (len(searches) - 1) + [False]

    def test_augment_and_build_head_masks_run_no_csr_check(self, monkeypatch):
        from hopformer import graphs as graphs_mod

        calls = []
        real = graphs_mod._int_csr

        def spy(*args):
            calls.append(args[0])
            return real(*args)

        for mod in (graphs_mod, masks_mod):
            monkeypatch.setattr(mod, "_int_csr", spy)
        for g, budgets in _built_cases():
            build_head_masks(augment(g), budgets)
        assert calls == []
        mk = build_mask(augment(single_edge_graph()), 1)
        HopMask(mk.hop_budget, mk.size, mk.indptr, mk.indices)
        assert calls == ["mask"]
