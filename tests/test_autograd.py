import re
import tracemalloc

import numpy as np
import pytest

from hopformer import (Graph, ShapeError, Tensor, augment, backward, build_head_masks,
                       build_mask, generate_erdos_renyi, generate_sbm, generate_watts_strogatz,
                       grad_check, sparse_masked_attention, attention_flops,
                       count_attention_flops)
from hopformer import autograd as ops
from hopformer.graphs import GraphError
from hopformer.masks import HopMask
from hopformer.training import cross_entropy, mae

from helpers import (dense_attention_oracle, dense_attention_weights_oracle,
                     mask_to_dense, random_graph, reference_sparse_path, single_edge_graph,
                     spy_on_paths)


def full_mask_for(g):
    ag = augment(g)
    return build_mask(ag, 2 * ag.total_tokens)


def softmax_weights(qv, kv, mask):
    """The nnz path's softmax weights over each row's mask support, aligned
    with ``mask.indices``."""
    return ops._masked_softmax(np.ascontiguousarray(qv.T), np.ascontiguousarray(kv.T),
                               *ops._joined_csr([mask], mask.size))


class TestDensePrimitives:
    def test_matmul_identity(self):
        x = Tensor(np.arange(12.0).reshape(3, 4))
        out = ops.matmul(Tensor(np.eye(3)), x)
        assert np.array_equal(out.values, x.values)

    def test_matmul_shape_error_names_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            ops.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    def test_matmul_backward(self):
        x = Tensor(np.random.default_rng(0).standard_normal((3, 2)), requires_grad=True)
        w = Tensor(np.random.default_rng(1).standard_normal((2, 4)), requires_grad=True)
        backward(ops.sum_all(ops.matmul(x, w)))
        assert np.allclose(w.grad, x.values.T @ np.ones((3, 4)))
        assert np.allclose(x.grad, np.ones((3, 4)) @ w.values.T)

    def test_relu_gradient(self):
        x = Tensor(np.array([[-1.0, 2.0, 0.0]]), requires_grad=True)
        backward(ops.sum_all(ops.relu(x)))
        assert x.grad.tolist() == [[0.0, 1.0, 0.0]]

    def test_add_broadcast_bias(self):
        x = Tensor(np.zeros((3, 2)), requires_grad=True)
        b = Tensor(np.array([[1.0, 2.0]]), requires_grad=True)
        out = ops.add(x, b)
        assert np.array_equal(out.values, np.tile([1.0, 2.0], (3, 1)))
        backward(ops.sum_all(out))
        assert np.array_equal(b.grad, np.array([[3.0, 3.0]]))

    def test_layer_norm_constant_row(self):
        gamma = Tensor(np.full((1, 4), 2.0))
        beta = Tensor(np.full((1, 4), 0.5))
        out = ops.layer_norm(Tensor(np.full((1, 4), 7.0)), gamma, beta)
        assert np.allclose(out.values, 0.5)

    def test_layer_norm_normalizes(self):
        x = Tensor(np.random.default_rng(2).standard_normal((5, 8)))
        out = ops.layer_norm(x, Tensor(np.ones((1, 8))), Tensor(np.zeros((1, 8))))
        assert np.allclose(out.values.mean(axis=1), 0.0, atol=1e-12)
        assert np.allclose(out.values.std(axis=1), 1.0, atol=1e-3)

    def test_sum_backward_is_ones(self):
        x = Tensor(np.random.default_rng(3).standard_normal((4, 3)), requires_grad=True)
        backward(ops.sum_all(x))
        assert np.array_equal(x.grad, np.ones((4, 3)))

    def test_concat_cols_backward_splits(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.ones((2, 3)), requires_grad=True)
        out = ops.concat_cols([a, b])
        assert out.values.shape == (2, 5)
        backward(ops.sum_all(ops.scale(out, 2.0)))
        assert np.array_equal(a.grad, np.full((2, 2), 2.0))
        assert np.array_equal(b.grad, np.full((2, 3), 2.0))

    def test_split_cols_inverts_concat_cols(self):
        rng = np.random.default_rng(3)
        parts = [Tensor(rng.standard_normal((4, 2)), requires_grad=True) for _ in range(3)]
        split = ops.split_cols(ops.concat_cols(parts), 3)
        assert all(np.array_equal(s.values, p.values) for s, p in zip(split, parts))
        r = rng.standard_normal((6, 1))
        backward(ops.sum_all(ops.matmul(ops.concat_cols(split), Tensor(r))))
        for i, p in enumerate(parts):
            assert np.array_equal(p.grad, np.ones((4, 1)) @ r[2 * i:2 * i + 2].T)

    def test_split_cols_backward_concatenates_part_grads(self):
        x = Tensor(np.random.default_rng(4).standard_normal((3, 6)), requires_grad=True)
        a, b, c = ops.split_cols(x, 3)
        backward(ops.sum_all(ops.concat_cols([ops.scale(c, 3.0), a, ops.scale(b, 2.0)])))
        assert np.array_equal(x.grad, np.repeat([[1.0, 2.0, 3.0]], 2, axis=1).repeat(3, 0))

    def test_split_cols_grad_check_on_one_fed_part(self):
        rng = np.random.default_rng(5)
        w = Tensor(rng.standard_normal((2, 3)))
        x = Tensor(rng.standard_normal((4, 6)), requires_grad=True)

        def f(t):
            return ops.sum_all(ops.relu(ops.matmul(ops.split_cols(t, 3)[1], w)))

        assert grad_check(f, x) < 1e-8

    def test_split_cols_parts_without_grad_get_zeros(self):
        x = Tensor(np.ones((2, 6)), requires_grad=True)
        parts = ops.split_cols(x, 3)
        backward(ops.sum_all(parts[1]))
        expect = np.zeros((2, 6))
        expect[:, 2:4] = 1.0
        assert np.array_equal(x.grad, expect)

    def test_split_cols_leaves_input_without_grad_when_no_part_is_used(self):
        x = Tensor(np.ones((2, 4)), requires_grad=True)
        ops.split_cols(x, 2)
        backward(ops.sum_all(Tensor(np.ones((1, 1)))))
        assert x.grad is None

    def test_row_slice_backward(self):
        x = Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
        backward(ops.sum_all(ops.row_slice(x, 1, 3)))
        expect = np.zeros((4, 3))
        expect[1:3] = 1.0
        assert np.array_equal(x.grad, expect)

    @pytest.mark.parametrize("take, message", [
        (lambda x: ops.row_slice(x, 0, 60), "row slice 0:60 is not within the 10 rows"),
        (lambda x: ops.row_slice(x, -2, 4), "row slice -2:4 is not within the 10 rows"),
        (lambda x: ops.row_slice(x, 5, 3), "row slice 5:3 is not within the 10 rows"),
        (lambda x: ops.take_rows(x, np.array([3, 10])),
         r"row indices 3\.\.10 are not all in \[0, 10\)"),
        (lambda x: ops.take_rows(x, [3, -1]), r"row indices -1\.\.3 are not all in \[0, 10\)")])
    def test_rows_outside_the_tensor_are_refused_not_clipped(self, take, message):
        with ops.scratch_tape() as tape:
            with pytest.raises(ShapeError, match=message):
                take(Tensor(np.ones((10, 8))))
            assert tape == []

    @pytest.mark.parametrize("start, stop, message", [
        (0, True, "stop must be an integer, got True"),
        (True, 3, "start must be an integer, got True"),
        (0, 2.5, "stop must be an integer, got 2.5"),
        ("1", 3, "start must be an integer, got '1'")])
    def test_row_slice_bounds_follow_the_integer_rule(self, start, stop, message):
        # True was read as 1, and 2.5 or "1" raised a bare TypeError
        with pytest.raises(GraphError, match=f"^{re.escape(message)}$"):
            ops.row_slice(Tensor(np.ones((10, 8))), start, stop)
        assert np.array_equal(ops.row_slice(Tensor(np.arange(10.0)[:, None]), 1.0, 3.0).values,
                              [[1.0], [2.0]])

    @pytest.mark.parametrize("rows, first", [([1, 1], 1), (np.array([3, 1, 3, 1]), 3),
                                             (np.array([0, 9, 4, 9]), 9)])
    def test_repeated_rows_are_refused(self, rows, first):
        # the backward assigns each taken row's grad once: a repeated row
        # would get one of its grads, not their sum
        with ops.scratch_tape() as tape:
            with pytest.raises(ShapeError, match=f"^row index {first} is taken more than once$"):
                ops.take_rows(Tensor(np.ones((10, 8))), rows)
            assert tape == []

    def test_dropout_inactive_is_identity(self):
        x = Tensor(np.ones((3, 3)))
        assert ops.dropout(x, 0.5, 0, False) is x
        assert ops.dropout(x, 0.0, 0, True) is x

    def test_dropout_deterministic_and_scaled(self):
        x = Tensor(np.ones((50, 20)))
        a = ops.dropout(x, 0.25, 42, True)
        b = ops.dropout(x, 0.25, 42, True)
        assert np.array_equal(a.values, b.values)
        kept = a.values != 0
        assert np.allclose(a.values[kept], 1 / 0.75)
        assert 0.55 < kept.mean() < 0.9

    @pytest.mark.parametrize("sizes", [None, [30, 20]])
    def test_unseeded_dropout_is_seed_0(self, sizes):
        # an unset seed drew from OS entropy: two identical calls differed
        x = Tensor(np.ones((50, 20)))
        unset, zero = (None, 0) if sizes is None else ([None, None], [0, 0])
        a, b = (ops.dropout(x, 0.5, unset, True, sizes) for _ in range(2))
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.values, ops.dropout(x, 0.5, zero, True, sizes).values)

    def test_dropout_of_a_tensor_is_one_segment(self):
        # a tensor and its seed are a batch of one segment, bit for bit
        runs = []
        for seed, sizes in [([4, 2], None), ([[4, 2]], [6])]:
            x = Tensor(np.arange(18.0).reshape(6, 3), requires_grad=True)
            out = ops.dropout(x, 0.4, seed, True, sizes)
            backward(ops.sum_all(ops.scale(out, 1.5)))
            runs.append([out.values, x.grad])
        for a, b in zip(*runs):
            assert np.array_equal(a, b)
        assert (runs[0][0] == 0).any()

    def test_dropout_bad_rate(self):
        with pytest.raises(ValueError):
            ops.dropout(Tensor(np.ones((2, 2))), 1.0, 0, True)

    @pytest.mark.parametrize("rate", ["0.5", None, False, [0.1]])
    @pytest.mark.parametrize("training", [True, False])
    def test_dropout_rates_that_are_not_numbers_refused_by_name(self, rate, training):
        # "0.5" and None raised a bare TypeError, and False ran as rate 0
        x = Tensor(np.ones((4, 2)))
        mask = build_mask(augment(generate_erdos_renyi(3, 1.0, seed=0)), 1)
        q = Tensor(np.ones((mask.size, 2)))
        for call in (lambda: ops.dropout(x, rate, 0, training),
                     lambda: sparse_masked_attention(q, q, q, mask, dropout_rate=rate,
                                                     training=training)):
            with pytest.raises(GraphError, match=f"^dropout rate must be a number, "
                                                 f"got {re.escape(repr(rate))}$"):
                call()

    @pytest.mark.parametrize("rate, training", [(0.0, True), (0.3, False)])
    @pytest.mark.parametrize("seeds, sizes", [([1, 2], [5]), ([1], [2, 2]), ([1, 2], [2, 2])])
    def test_dropout_seed_and_size_mismatch_refused_in_every_mode(self, rate, training,
                                                                   seeds, sizes):
        # the segments are checked before the identity shortcut, as
        # sparse_masked_attention checks its seeds in every mode
        with pytest.raises(ShapeError, match="seeds and segment sizes summing to"):
            ops.dropout(Tensor(np.ones((5, 3))), rate, seeds, training, sizes=sizes)

    @pytest.mark.parametrize("training", [True, False])
    def test_dropout_integral_float_sizes_are_the_integers(self, training):
        # in training mode np.random's draw raised a bare TypeError on 2.0
        x = Tensor(np.arange(12.0).reshape(4, 3))
        got = ops.dropout(x, 0.5, [1, 2], training, [2.0, 2.0])
        assert np.array_equal(got.values, ops.dropout(x, 0.5, [1, 2], training, [2, 2]).values)

    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("sizes, message", [
        ([1.5, 2.5], "segment sizes must hold integers, got 1.5 at index 0"),
        ([True, 3], "segment sizes must hold integers, got a boolean at index 0")])
    def test_dropout_fraction_or_boolean_size_refused(self, training, sizes, message):
        with pytest.raises(GraphError, match=f"^{re.escape(message)}$"):
            ops.dropout(Tensor(np.ones((4, 3))), 0.5, [1, 2], training, sizes)

    @pytest.mark.parametrize("training", [True, False])
    def test_dropout_nested_sizes_refused(self, training):
        with pytest.raises(ShapeError, match=re.escape("flat list, got [[2], [2]]")):
            ops.dropout(Tensor(np.ones((4, 3))), 0.5, [1, 2], training, [[2], [2]])

    def test_backward_requires_scalar(self):
        x = Tensor(np.ones((2, 2)))
        y = ops.scale(x, 2.0)
        with pytest.raises(ShapeError):
            backward(y)

    def test_backward_requires_nonempty_tape(self):
        with ops.scratch_tape():
            with pytest.raises(RuntimeError):
                backward(Tensor([[1.0]]))


class TestSparseMaskedAttention:
    def test_identity_mask_returns_values(self):
        g = single_edge_graph()
        ag = augment(g)
        mask = build_mask(ag, 0)
        rng = np.random.default_rng(0)
        q, k, v = (Tensor(rng.standard_normal((3, 4))) for _ in range(3))
        out = sparse_masked_attention(q, k, v, mask)
        assert np.array_equal(out.values, v.values)

    def test_zero_keys_full_mask_gives_row_mean(self):
        g = generate_erdos_renyi(4, 1.0, seed=0)
        mask = full_mask_for(g)
        t = mask.size
        rng = np.random.default_rng(1)
        q = Tensor(rng.standard_normal((t, 3)))
        k = Tensor(np.zeros((t, 3)))
        v = Tensor(rng.standard_normal((t, 3)))
        out = sparse_masked_attention(q, k, v, mask)
        assert np.allclose(out.values, np.tile(v.values.mean(axis=0), (t, 1)), atol=1e-12)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(2)
        g = generate_erdos_renyi(4, 0.9, seed=3)   # T = 4 + M, connected
        ag = augment(g)
        mask = build_mask(ag, 3)
        t = ag.total_tokens
        q, k, v = (Tensor(rng.standard_normal((t, 4))) for _ in range(3))
        out = sparse_masked_attention(q, k, v, mask)
        oracle = dense_attention_oracle(q.values, k.values, v.values, mask_to_dense(mask))
        assert np.abs(out.values - oracle).max() <= 1e-10

    def test_full_mask_equals_textbook_dense_attention(self):
        g = generate_erdos_renyi(5, 1.0, seed=4)
        mask = full_mask_for(g)
        t = mask.size
        assert mask.nnz == t * t
        rng = np.random.default_rng(5)
        qv, kv, vv = rng.standard_normal((3, t, 4))
        out = sparse_masked_attention(Tensor(qv), Tensor(kv), Tensor(vv), mask)
        scores = qv @ kv.T / 2.0          # sqrt(d_h) = 2, no masking at all
        w = np.exp(scores - scores.max(axis=1, keepdims=True))
        w /= w.sum(axis=1, keepdims=True)
        assert np.abs(out.values - w @ vv).max() <= 1e-10

    def test_weights_zero_off_support(self):
        rng = np.random.default_rng(4)
        g = random_graph(rng, max_nodes=6)
        ag = augment(g)
        mask = build_mask(ag, 1)
        t = ag.total_tokens
        q, k = rng.standard_normal((2, t, 4))
        alpha = softmax_weights(q, k, mask)
        dense = np.zeros((t, t))
        dense[mask.row_indices, mask.indices] = alpha
        support = mask_to_dense(mask)
        assert np.all(dense[~support] == 0.0)
        oracle = dense_attention_weights_oracle(q, k, support)
        assert np.abs(dense[support] - oracle[support]).max() <= 1e-12

    def test_row_sums_one(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            g = random_graph(rng, max_nodes=8)
            ag = augment(g)
            mask = build_mask(ag, int(rng.integers(0, 4)))
            t = ag.total_tokens
            alpha = softmax_weights(rng.standard_normal((t, 4)),
                                    rng.standard_normal((t, 4)), mask)
            sums = np.add.reduceat(alpha, mask.indptr[:-1])
            assert np.abs(sums - 1.0).max() <= 1e-12

    def test_shape_mismatch(self):
        g = single_edge_graph()
        mask = build_mask(augment(g), 1)
        with pytest.raises(ShapeError):
            sparse_masked_attention(Tensor(np.ones((3, 4))), Tensor(np.ones((3, 4))),
                                    Tensor(np.ones((3, 5))), mask)
        with pytest.raises(ShapeError):
            sparse_masked_attention(Tensor(np.ones((2, 4))), Tensor(np.ones((2, 4))),
                                    Tensor(np.ones((2, 4))), mask)

    def test_deterministic_bitwise(self):
        rng = np.random.default_rng(6)
        g = generate_erdos_renyi(10, 0.3, seed=6)
        ag = augment(g)
        mask = build_mask(ag, 4)
        t = ag.total_tokens
        qv, kv, vv = rng.standard_normal((3, t, 8))
        a = sparse_masked_attention(Tensor(qv), Tensor(kv), Tensor(vv), mask)
        b = sparse_masked_attention(Tensor(qv.copy()), Tensor(kv.copy()),
                                    Tensor(vv.copy()), mask)
        assert np.array_equal(a.values, b.values)

    def test_backward_touches_only_support(self):
        # gradient w.r.t. keys/values of a token outside every row's support is 0
        rng = np.random.default_rng(7)
        g = single_edge_graph()
        ag = augment(g)
        mask = build_mask(ag, 1)
        t = ag.total_tokens
        q = Tensor(rng.standard_normal((t, 2)), requires_grad=True)
        k = Tensor(rng.standard_normal((t, 2)), requires_grad=True)
        v = Tensor(rng.standard_normal((t, 2)), requires_grad=True)
        out = sparse_masked_attention(q, k, v, mask)
        # loss reads only row 0; tokens 1 (node b) is outside row 0's support {0, 2}
        backward(ops.sum_all(ops.row_slice(out, 0, 1)))
        assert np.all(k.grad[1] == 0.0)
        assert np.all(v.grad[1] == 0.0)

    def test_attention_dropout_deterministic(self):
        rng = np.random.default_rng(8)
        g = generate_erdos_renyi(6, 0.6, seed=8)
        ag = augment(g)
        mask = build_mask(ag, 2)
        t = ag.total_tokens
        qv, kv, vv = rng.standard_normal((3, t, 4))
        a = sparse_masked_attention(Tensor(qv), Tensor(kv), Tensor(vv), mask,
                                    dropout_rate=0.5, dropout_seed=3, training=True)
        b = sparse_masked_attention(Tensor(qv), Tensor(kv), Tensor(vv), mask,
                                    dropout_rate=0.5, dropout_seed=3, training=True)
        c = sparse_masked_attention(Tensor(qv), Tensor(kv), Tensor(vv), mask,
                                    dropout_rate=0.5, dropout_seed=4, training=True)
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)

    @pytest.mark.parametrize("n, p", [(6, 0.6), (40, 0.05)])   # dense path, nnz path
    def test_unseeded_attention_dropout_is_seed_0(self, n, p):
        # an unset seed drew from OS entropy: two identical calls differed
        rng = np.random.default_rng(8)
        mask = build_mask(augment(generate_erdos_renyi(n, p, seed=8)), 1)
        q, k, v = (Tensor(x) for x in rng.standard_normal((3, mask.size, 4)))
        a, b, zero = (sparse_masked_attention(q, k, v, mask, dropout_rate=0.5, training=True,
                                              **seed) for seed in ({}, {}, {"dropout_seed": 0}))
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.values, zero.values)

    @pytest.mark.parametrize("rate", [1.0, 1.5, -0.1, float("nan")])
    @pytest.mark.parametrize("training", [True, False])
    def test_attention_dropout_rate_outside_unit_interval_refused(self, rate, training):
        # a rate of 1 returned all-NaN rows on both paths, one above 1 zeroed
        # every weight, and a negative or NaN rate dropped nothing
        g = generate_sbm((10, 10), 0.3, 0.05, seed=0)
        sparse, dense = build_head_masks(augment(g), [1, 3])
        t = sparse.size
        assert sparse.nnz < ops.DENSE_MIN_DENSITY * t * t <= dense.nnz
        qv, kv, vv = np.random.default_rng(0).standard_normal((3, t, 4))
        for mask, rows in [(sparse, t), (dense, t), (sparse, 20), (dense, 20)]:
            with ops.scratch_tape() as tape:
                with pytest.raises(ValueError,
                                   match=rf"^dropout rate must be in \[0, 1\), got {rate}$"):
                    sparse_masked_attention(Tensor(qv[:rows]), Tensor(kv), Tensor(vv), mask,
                                            dropout_rate=rate, dropout_seed=1,
                                            training=training)
                assert tape == []

    def test_flop_meter_counts_formula(self):
        g = generate_erdos_renyi(6, 0.5, seed=9)
        ag = augment(g)
        mask = build_mask(ag, 2)
        t = ag.total_tokens
        rng = np.random.default_rng(9)
        q, k, v = (Tensor(rng.standard_normal((t, 4))) for _ in range(3))
        with count_attention_flops() as meter:
            sparse_masked_attention(q, k, v, mask)
            sparse_masked_attention(q, k, v, mask)
        assert meter.attention_flops == 2 * attention_flops(mask.nnz, 4)
        assert attention_flops(mask.nnz, 4) == mask.nnz * (4 * 4 + 5)


def _ring_mask(nodes: int, hops: int):
    """Hop mask on the augmented ring of ``nodes`` nodes (T = 2 * nodes), where
    every row holds min(2 * hops + 1, T) tokens."""
    return build_mask(augment(generate_watts_strogatz(nodes, 2, 0.0, seed=0)), hops)


def _dense_by_density(mask) -> bool:
    return mask.nnz >= ops.DENSE_MIN_DENSITY * mask.size ** 2


def _runs_dense(mask) -> bool:
    """The kernel's path rule: every mask of at most STACK_MAX_TOKENS tokens
    runs dense, a larger one by its density, and one of no tokens on neither."""
    return 0 < mask.size and (mask.size <= ops.STACK_MAX_TOKENS or _dense_by_density(mask))


# Past the small-graph bound, one mask per side of the density threshold and
# one exactly on it; within it, a sparse mask, a partial one and a full one.
DISPATCH_MASKS = {
    "nnz": lambda: _ring_mask(40, 2),          # T = 80, density 5/80
    "threshold": lambda: _ring_mask(34, 8),    # T = 68, density 17/68
    "dense": lambda: _ring_mask(16, 8),        # density 17/32, off-support entries
    "full": lambda: _ring_mask(16, 16),
    "small": lambda: _ring_mask(16, 2),        # T = 32, density 5/32
}
EXPECT_DENSE = {"nnz": False, "threshold": True, "dense": True, "full": True, "small": True}


def _nnz_path(qv, kv, vv, mask, dropmult):
    """The nnz path on one mask: its CSR pair as ``_joined_csr`` gives it."""
    return ops._sparse_path(qv, kv, vv, ops._joined_csr([mask], qv.shape[0]), dropmult)


def _one_head_dense_path(qv, kv, vv, mask, dropmult):
    """The dense path on one mask: a stack of one head, in the 2-D layout."""
    out, grads = ops._dense_path(qv[:, None], kv[:, None], vv[:, None], [mask], [dropmult],
                                 qv.shape[0])
    return out[:, 0], lambda g: tuple(d[:, 0] for d in grads(g[:, None]))


PATHS = {"nnz": _nnz_path, "dense": _one_head_dense_path}


def _qkv(t, d_h=4, seed=0):
    return np.random.default_rng(seed).standard_normal((3, t, d_h))


class TestDensityDispatch:
    @pytest.mark.parametrize("name", DISPATCH_MASKS)
    def test_dispatch_and_meter_follow_density(self, name, monkeypatch):
        mask = DISPATCH_MASKS[name]()
        t = mask.size
        assert _runs_dense(mask) == EXPECT_DENSE[name]
        assert (t > ops.STACK_MAX_TOKENS) == (name in ("nnz", "threshold"))
        if name == "threshold":
            assert mask.nnz == ops.DENSE_MIN_DENSITY * t * t
        if name == "small":
            assert not _dense_by_density(mask)
        calls = spy_on_paths(monkeypatch)
        q, k, v = (Tensor(a) for a in _qkv(t))
        with count_attention_flops() as meter:
            sparse_masked_attention(q, k, v, mask)
        assert meter.attention_flops == attention_flops(mask.nnz, 4)
        executed = t * t if EXPECT_DENSE[name] else mask.nnz
        assert meter.executed_flops == attention_flops(executed, 4)
        assert [c.kind for c in calls] == ["one-head" if EXPECT_DENSE[name] else "nnz"]

    def test_nnz_path_never_builds_a_dense_bias(self):
        mask = DISPATCH_MASKS["nnz"]()
        q, k, v = (Tensor(a, requires_grad=True) for a in _qkv(mask.size))
        backward(ops.sum_all(sparse_masked_attention(q, k, v, mask)))
        assert "dense_bias" not in vars(mask)

    @pytest.mark.parametrize("call", ["one mask", "prefix", "joined batch"])
    def test_nnz_path_never_builds_row_indices(self, call):
        # the path reaches a row's entries by its count; a mask's nnz-long
        # row-id cache is for dumps and reference checks only
        masks = BATCHES["nnz"]() if call == "joined batch" else [DISPATCH_MASKS["nnz"]()]
        n = sum(b.size for b in masks)
        qv, kv, vv, g = np.random.default_rng(23).standard_normal((4, n, 4))
        r = n // 3 if call == "prefix" else n
        _attention_run(qv[:r], kv, vv, masks, g[:r], rows=r if call == "prefix" else None)
        assert all("row_indices" not in vars(b) for b in masks)

    @pytest.mark.parametrize("name", DISPATCH_MASKS)
    @pytest.mark.parametrize("path", PATHS)
    def test_each_path_matches_dense_oracle(self, name, path):
        mask = DISPATCH_MASKS[name]()
        qv, kv, vv = _qkv(mask.size, seed=1)
        out, _ = PATHS[path](qv, kv, vv, mask, None)
        oracle = dense_attention_oracle(qv, kv, vv, mask_to_dense(mask))
        assert np.abs(out - oracle).max() <= 1e-10

    @pytest.mark.parametrize("name", DISPATCH_MASKS)
    @pytest.mark.parametrize("rate", [0.0, 0.3])
    def test_paths_agree_on_outputs_and_grads(self, name, rate):
        mask = DISPATCH_MASKS[name]()
        qv, kv, vv = _qkv(mask.size, seed=2)
        g = np.random.default_rng(3).standard_normal(qv.shape)
        dropmult = None if rate == 0.0 else (
            np.random.default_rng(4).random(mask.nnz) >= rate) / (1.0 - rate)
        out_s, grads_s = _nnz_path(qv, kv, vv, mask, dropmult)
        out_d, grads_d = PATHS["dense"](qv, kv, vv, mask, dropmult)
        assert np.abs(out_s - out_d).max() <= 1e-12
        for gs, gd in zip(grads_s(g), grads_d(g)):
            assert np.abs(gs - gd).max() <= 1e-12

    @pytest.mark.parametrize("name", ["nnz", "dense"])
    def test_same_seed_keeps_same_weights_on_either_path(self, name):
        # the public call draws one number per stored entry in CSR order; the
        # other path fed those draws must give the same output
        mask = DISPATCH_MASKS[name]()
        qv, kv, vv = _qkv(mask.size, seed=5)
        out = sparse_masked_attention(Tensor(qv), Tensor(kv), Tensor(vv), mask,
                                      dropout_rate=0.4, dropout_seed=[7, 1],
                                      training=True).values
        dropmult = (np.random.default_rng([7, 1]).random(mask.nnz) >= 0.4) / 0.6
        other = PATHS["nnz" if EXPECT_DENSE[name] else "dense"]
        ref, _ = other(qv, kv, vv, mask, dropmult)
        assert np.abs(out - ref).max() <= 1e-12

    @pytest.mark.parametrize("name", ["nnz", "dense"])
    def test_one_mask_is_a_batch_of_one(self, name):
        # outputs and grads of a call on one mask equal those of the call on
        # the list holding it, bit for bit, with attention dropout on
        mask = DISPATCH_MASKS[name]()
        assert _runs_dense(mask) == EXPECT_DENSE[name]
        runs = []
        for blocks, seed in [(mask, [7, 1]), ([mask], [[7, 1]])]:
            q, k, v = (Tensor(a, requires_grad=True) for a in _qkv(mask.size, seed=11))
            out = sparse_masked_attention(q, k, v, blocks, dropout_rate=0.3,
                                          dropout_seed=seed, training=True)
            backward(ops.sum_all(ops.matmul(out, Tensor(np.arange(1.0, 5.0).reshape(4, 1)))))
            runs.append([out.values, q.grad, k.grad, v.grad])
        for a, b in zip(*runs):
            assert np.array_equal(a, b)

    def test_one_dropout_seed_per_mask_block(self):
        mask = DISPATCH_MASKS["nnz"]()
        q, k, v = (Tensor(np.vstack([a, a])) for a in _qkv(mask.size))
        with pytest.raises(ShapeError, match="1 dropout seeds for 2 mask blocks"):
            sparse_masked_attention(q, k, v, [mask, mask], dropout_rate=0.3,
                                    dropout_seed=[[7]], training=True)

    @pytest.mark.parametrize("name", ["nnz", "dense"])
    @pytest.mark.parametrize("which", [0, 1, 2])
    def test_grad_check_each_path(self, name, which, monkeypatch):
        if name == "nnz":   # the small mask takes the density rule
            monkeypatch.setattr(ops, "STACK_MAX_TOKENS", 0)
        mask = _ring_mask(8, 1 if name == "nnz" else 4)   # T = 16
        assert _runs_dense(mask) == EXPECT_DENSE[name]
        fixed = [Tensor(a) for a in _qkv(mask.size, d_h=3, seed=6)]

        def f(x):
            args = list(fixed)
            args[which] = x
            out = sparse_masked_attention(*args, mask, dropout_rate=0.3,
                                          dropout_seed=2, training=True)
            return ops.sum_all(ops.matmul(out, Tensor(np.arange(1.0, 4.0).reshape(3, 1))))

        x = Tensor(fixed[which].values.copy(), requires_grad=True)
        assert grad_check(f, x) < 1e-4

    @pytest.mark.parametrize("name", ["nnz", "dense"])
    def test_backward_touches_only_support_on_each_path(self, name):
        # the loss reads row 0 only; tokens outside its support get no gradient
        mask = DISPATCH_MASKS[name]()
        assert _runs_dense(mask) == EXPECT_DENSE[name]
        q, k, v = (Tensor(a, requires_grad=True) for a in _qkv(mask.size, seed=8))
        out = sparse_masked_attention(q, k, v, mask)
        backward(ops.sum_all(ops.row_slice(out, 0, 1)))
        outside = ~mask_to_dense(mask)[0]
        assert outside.any()
        assert np.all(k.grad[outside] == 0.0)
        assert np.all(v.grad[outside] == 0.0)
        assert np.all(q.grad[1:] == 0.0)

    def test_dense_path_bitwise_rerun(self):
        mask = DISPATCH_MASKS["dense"]()
        qv, kv, vv = _qkv(mask.size, seed=9)
        runs = []
        for _ in range(2):
            q, k, v = (Tensor(a.copy(), requires_grad=True) for a in (qv, kv, vv))
            out = sparse_masked_attention(q, k, v, mask, dropout_rate=0.2,
                                          dropout_seed=1, training=True)
            backward(ops.sum_all(ops.scale(out, 1.5)))
            runs.append([out.values, q.grad, k.grad, v.grad])
        for a, b in zip(*runs):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("graph, hops, dense", [
        (lambda: _edgeless(1), 3, True),     # T = 1
        (lambda: _edgeless(3), 2, True),     # edgeless, density 1/3
        (lambda: _edgeless(70), 2, False),   # edgeless, density 1/70
        (single_edge_graph, 0, True),        # hop 0, density 1/3
        (lambda: generate_watts_strogatz(40, 2, 0.0), 0, False),   # hop 0, 1/80
    ])
    def test_identity_masks_return_values(self, graph, hops, dense):
        mask = build_mask(augment(graph()), hops)
        assert mask.nnz == mask.size and _runs_dense(mask) == dense
        qv, kv, vv = _qkv(mask.size, seed=10)
        q, k, v = (Tensor(a, requires_grad=True) for a in (qv, kv, vv))
        out = sparse_masked_attention(q, k, v, mask)
        assert np.array_equal(out.values, vv)
        backward(ops.sum_all(out))
        assert np.all(q.grad == 0.0) and np.all(k.grad == 0.0)
        assert np.array_equal(v.grad, np.ones_like(vv))


def _copyto_stacked_path(q3, k3, v3, supports, dropmults):
    """Reference stacked dense path: the heads' boolean supports stacked and
    -inf written off them by ``np.copyto`` before the row max, exp and sum.
    Same contract as ``autograd._dense_path`` given ``supports``, one r x T
    boolean array per head."""
    qs, ks, vs = (a.transpose(1, 0, 2) for a in (q3, k3, v3))
    r, t = qs.shape[1], ks.shape[1]
    inv_sqrt = 1.0 / np.sqrt(ks.shape[2])
    support = np.stack(supports)
    scores = qs @ ks.transpose(0, 2, 1)
    scores *= inv_sqrt
    if not support.all():
        np.copyto(scores, -np.inf, where=~support)
    scores -= scores.max(axis=2, keepdims=True)
    alpha = np.exp(scores, out=scores)
    alpha /= alpha.sum(axis=2, keepdims=True)
    drop = None
    applied = alpha
    if dropmults[0] is not None:
        drop = np.zeros((len(supports), r, t))
        drop[support] = np.concatenate(dropmults)
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


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal shapes and equal bytes in C order: +0.0 and -0.0 differ, and a
    NaN equals the same NaN."""
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _mask_of_density(rng, t: int, density: float) -> HopMask:
    """Hand-built mask holding the diagonal and ceil(density * t^2) cells in
    all, the rest at random; at least the diagonal, and short of full for a
    density below 1."""
    support = np.eye(t, dtype=bool)
    off = np.flatnonzero(~support)
    cells = min(int(np.ceil(density * t * t)), t * t - (density < 1.0))
    support.flat[rng.choice(off, max(0, cells - t), replace=False)] = True
    return _mask_of_support(support)


def _mask_of_support(support: np.ndarray) -> HopMask:
    """The mask of a boolean T x T support whose rows are all non-empty."""
    return HopMask(hop_budget=0, size=support.shape[0], indices=np.nonzero(support)[1],
                   indptr=np.concatenate([[0], np.cumsum(support.sum(axis=1))]))


def _prefix_dropmult(rng, mask: HopMask, r: int, rate: float):
    """Attention dropout multipliers of the mask's first r rows, or None."""
    if rate == 0.0:
        return None
    return (rng.random(mask.indptr[r]) >= rate) / (1.0 - rate)


EQUIV_TOKENS = [1, 8, 31, 64, 65, 339]
# head densities of the stacks: full heads among partial ones, only partial, only
# full, and one-head stacks, which is how a graph past STACK_MAX_TOKENS runs
EQUIV_STACKS = {"mixed": [1.0, 0.25, 0.99, 0.6, 1.0], "partial": [0.3, 0.8], "full": [1.0, 1.0],
                "one partial": [0.9], "one full": [1.0]}


def _prefix_rows(t: int) -> list[int]:
    return sorted({1, max(1, t // 3), t})


class TestAdditiveBiasMasking:
    """The masked dense path adds a cached float bias (0.0 on the support,
    -inf off it) and clamps the shifted scores at EXP_FLOOR before the exp.
    Against -inf written off the support before the exp, outputs and grads
    are bit-identical unless an on-support shifted score lies below
    EXP_FLOOR."""

    @pytest.mark.parametrize("t", EQUIV_TOKENS)
    @pytest.mark.parametrize("rate", [0.0, 0.3])
    def test_stacked_path_equals_copyto_reference_bit_for_bit(self, t, rate):
        rng = np.random.default_rng([t, int(rate * 10), 1])
        for kind, densities in EQUIV_STACKS.items():
            masks = [_mask_of_density(rng, t, d) for d in densities]
            h = len(masks)
            for r in _prefix_rows(t):
                q3 = 3.0 * rng.standard_normal((r, h, 4))
                k3, v3 = rng.standard_normal((2, t, h, 4))
                g3 = rng.standard_normal((r, h, 4))
                dropmults = [_prefix_dropmult(rng, b, r, rate) for b in masks]
                out, grads = ops._dense_path(q3, k3, v3, masks, dropmults, r)
                ref_out, ref_grads = _copyto_stacked_path(
                    q3, k3, v3, [mask_to_dense(b)[:r] for b in masks], dropmults)
                assert _same_bits(out, ref_out), (kind, r)
                for got, ref in zip(grads(g3), ref_grads(g3)):
                    assert _same_bits(got, ref), (kind, r)

    @pytest.mark.parametrize("t", [8, 64, 65, 339])
    @pytest.mark.parametrize("densities", [[0.3], [0.3, 1.0, 0.7]], ids=["one-head", "multi-head"])
    def test_dropout_on_stored_cells_equals_the_support_scatter(self, t, densities, monkeypatch):
        # the draws land on the same cells as through a boolean support, so
        # the kept weights, outputs and grads do not change
        rng = np.random.default_rng([t, len(densities), 2])
        masks = [_mask_of_density(rng, t, d) for d in densities]
        supports = {id(b): mask_to_dense(b) for b in masks}
        h = len(masks)
        dropped = 0
        for r in _prefix_rows(t):
            q3 = 3.0 * rng.standard_normal((r, h, 4))
            k3, v3 = rng.standard_normal((2, t, h, 4))
            g3 = rng.standard_normal((r, h, 4))
            dropmults = [_prefix_dropmult(rng, b, r, 0.3) for b in masks]
            dropped += sum(int((dm == 0.0).sum()) for dm in dropmults)
            out, grads = ops._dense_path(q3, k3, v3, masks, dropmults, r)
            with monkeypatch.context() as patch:
                # the reference placement: drop[i][support[:r]] = dm, each
                # head's draws scattered through its boolean T x T support,
                # whose cells in row-major order are the stored entries in
                # CSR order
                patch.setattr(HopMask, "_dense_cells", lambda b, n: supports[id(b)][:n])
                ref_out, ref_grads = ops._dense_path(q3, k3, v3, masks, dropmults, r)
            assert _same_bits(out, ref_out), r
            for got, ref in zip(grads(g3), ref_grads(g3)):
                assert _same_bits(got, ref), r
        assert dropped > 0

    def test_cases_cover_partial_and_full_masks(self):
        # every stacked head takes the dense path, and is partial below
        # density 1 and full at it
        rng = np.random.default_rng(0)
        for t in EQUIV_TOKENS[1:]:
            for d in sorted({d for densities in EQUIV_STACKS.values() for d in densities}):
                nnz = _mask_of_density(rng, t, d).nnz
                assert nnz >= ops.DENSE_MIN_DENSITY * t * t
                assert (nnz == t * t) == (d == 1.0)

    @pytest.mark.parametrize("stack", ["one-head", "multi-head"])
    def test_off_support_weights_are_positive_zeros(self, stack):
        # with V the identity (d_h = T) the output rows are the weights; a
        # second head is full, on the queries and keys in reverse order
        rng = np.random.default_rng(41)
        t = 31
        mask = _mask_of_density(rng, t, 0.4)
        qv, kv = 3.0 * rng.standard_normal((2, t, t))
        masks = [mask, _mask_of_density(rng, t, 1.0)][:1 if stack == "one-head" else 2]
        h = len(masks)
        q3, k3 = (np.stack([a, a[::-1]], axis=1)[:, :h] for a in (qv, kv))
        out, _ = ops._dense_path(q3, k3, np.stack([np.eye(t)] * h, axis=1), masks, [None] * h,
                                 t)
        weights = out[:, 0]
        assert np.all(out[:, 1:] > 0.0)
        off = ~mask_to_dense(mask)
        assert off.any()
        assert np.all(weights[off] == 0.0) and not np.signbit(weights[off]).any()
        assert np.all(weights[~off] > 0.0)

    @pytest.mark.parametrize("stack", ["one-head", "multi-head"])
    def test_far_tail_scores_give_finite_normalized_rows(self, stack):
        # d_h = 1 and q = 1, so row i's scores are the keys: key 0 (on every
        # row) is the row max, keys 1 and 2 lie 720 and 800 below it, on
        # rows 0-3 only; V is the identity, so the output rows are the
        # weights.  A second head is full, on the same queries and keys.
        t = 8
        support = np.eye(t, dtype=bool)
        support[:, 0] = True
        support[:4, 1:3] = True
        mask = _mask_of_support(support)
        assert ops.DENSE_MIN_DENSITY * t * t <= mask.nnz < t * t
        qv = np.ones((t, 1))
        kv = np.array([[0.0], [-720.0], [-800.0], [-1.0], [-2.0], [-3.0], [-0.5], [-4.0]])
        assert kv[1, 0] < ops.EXP_FLOOR and kv[2, 0] < -746.0
        masks = [mask, _mask_of_support(np.ones((t, t), dtype=bool))][
            :1 if stack == "one-head" else 2]
        h = len(masks)
        out, _ = ops._dense_path(*(np.stack([a] * h, axis=1) for a in (qv, kv, np.eye(t))),
                                 masks, [None] * h, t)
        weights = out[:, 0]
        assert np.isfinite(out).all()
        assert np.abs(weights.sum(axis=1) - 1.0).max() <= 1e-15
        oracle = dense_attention_oracle(qv, kv, np.eye(t), support)
        assert np.abs(weights - oracle).max() <= 1e-10
        assert np.all(weights[:4, 1:3] <= 1e-300)
        # rows without a far-tail score equal the -inf masking bit for bit
        ref, _ = _copyto_stacked_path(qv[:, None], kv[:, None], np.eye(t)[:, None], [support],
                                      [None])
        assert _same_bits(weights[4:], ref[4:, 0])

    @pytest.mark.parametrize("path", ["nnz", "one-head", "multi-head"])
    @pytest.mark.parametrize("site", ["q", "k", "v"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_gives_non_finite_rows(self, path, site, bad):
        # every output row the bad entry reaches holds a non-finite value, so a
        # training loss over them is non-finite and training aborts
        mask = _ring_mask(8, 1 if path == "nnz" else 3)   # T = 16, density 3/16 or 7/16
        assert _dense_by_density(mask) == (path != "nnz") and mask.nnz < mask.size ** 2
        t, j = mask.size, 5
        qv, kv, vv = _qkv(t, seed=12)
        qv[:, 0] = np.abs(qv[:, 0]) + 0.1   # an inf key gives +inf scores
        {"q": qv, "k": kv, "v": vv}[site][j, 0] = bad
        reached = [j] if site == "q" else np.flatnonzero(mask_to_dense(mask)[:, j])
        with np.errstate(invalid="ignore", over="ignore"):
            if path == "multi-head":
                q3, k3, v3 = (np.stack([a, np.ones_like(a)], axis=1) for a in (qv, kv, vv))
                out3, _ = ops._dense_path(q3, k3, v3, [mask, mask], [None, None], t)
                assert np.isfinite(out3[:, 1]).all()   # the other head is untouched
                out = out3[:, 0]
            else:
                out, _ = PATHS["nnz" if path == "nnz" else "dense"](qv, kv, vv, mask, None)
        assert (~np.isfinite(out[reached])).any(axis=1).all()

    @pytest.mark.parametrize("call", ["one mask", "stacked"])
    def test_full_mask_builds_no_dense_cache(self, call):
        mask = DISPATCH_MASKS["full"]()
        t = mask.size
        masks = mask if call == "one mask" else [[mask], [mask]]
        width = 4 if call == "one mask" else 8
        qv, kv, vv, g = np.random.default_rng(42).standard_normal((4, t, width))
        _attention_run(qv, kv, vv, masks, g)
        assert "dense_bias" not in vars(mask)

    @pytest.mark.parametrize("call", ["one mask", "prefix", "stacked"])
    def test_call_without_dropout_builds_only_the_bias(self, call):
        mask = DISPATCH_MASKS["dense"]()
        assert _runs_dense(mask) and mask.size <= ops.STACK_MAX_TOKENS
        t = mask.size
        r = t // 3 if call == "prefix" else t
        rows = r if call == "prefix" else None
        masks = [[mask], [mask]] if call == "stacked" else mask
        width = 8 if call == "stacked" else 4
        qv, kv, vv, g = np.random.default_rng(43).standard_normal((4, t, width))
        _attention_run(qv[:r], kv, vv, masks, g[:r], rows=rows)
        assert "dense_bias" in vars(mask) and "row_indices" not in vars(mask)
        # dropout places its draws on the stored cells without a cached view
        _attention_run(qv[:r], kv, vv, masks, g[:r], rows=rows, dropout_rate=0.3,
                       dropout_seed=[[1], [2]] if call == "stacked" else 1, training=True)
        assert "row_indices" not in vars(mask)


def _edgeless(nodes):
    return Graph(num_nodes=nodes, edges=np.zeros((0, 2)), node_features=np.ones((nodes, 1)))


def _random_csr_mask(rng, t: int, density: float) -> HopMask:
    """Hand-built mask: each row a random ascending column set, never empty
    and not necessarily holding the diagonal."""
    support = rng.random((t, t)) < density
    support[np.arange(t), rng.integers(0, t, t)] = True
    indptr = np.concatenate([[0], np.cumsum(support.sum(axis=1))]).astype(np.int64)
    return HopMask(hop_budget=0, size=t, indptr=indptr,
                   indices=np.nonzero(support)[1].astype(np.int64))


def _seeded_mask(seed: int) -> HopMask:
    rng = np.random.default_rng(seed)
    if seed % 2:
        return _random_csr_mask(rng, int(rng.integers(2, 60)), float(rng.uniform(0.01, 0.6)))
    return build_mask(augment(random_graph(rng, max_nodes=20)), int(rng.integers(0, 6)))


def _compare_with_reference(mask, d_h, rate, seed):
    t = mask.size
    rng = np.random.default_rng(seed)
    qv, kv, vv, g = rng.standard_normal((4, t, d_h))
    dropmult = None if rate == 0.0 else (rng.random(mask.nnz) >= rate) / (1.0 - rate)
    out, grads = _nnz_path(qv, kv, vv, mask, dropmult)
    ref_out, ref_grads = reference_sparse_path(qv, kv, vv, mask, dropmult)
    assert out.shape == (t, d_h)
    assert np.abs(out - ref_out).max(initial=0.0) <= 1e-13
    for got, ref in zip(grads(g), ref_grads(g)):
        assert got.shape == (t, d_h)
        assert np.abs(got - ref).max(initial=0.0) <= 1e-13


def _int32_mask(mask: HopMask) -> HopMask:
    """The same mask with 32-bit ``indptr`` and ``indices``."""
    return HopMask(hop_budget=mask.hop_budget, size=mask.size,
                   indptr=mask.indptr.astype(np.int32), indices=mask.indices.astype(np.int32))


# Graph batches for the joined nnz-path call.  "mixed" interleaves nnz blocks
# (one of them an edgeless graph's identity mask) with dense ones (one of them
# a one-token graph, one a small sparse mask); in "nnz" every block takes the
# nnz path, each past the small-graph bound.
BATCHES = {
    "mixed": lambda: [_ring_mask(40, 2), build_mask(augment(_edgeless(1)), 3),
                      build_mask(augment(_edgeless(70)), 2), _ring_mask(16, 8),
                      _large_random_mask(2), _ring_mask(16, 2), _ring_mask(6, 1)],
    "nnz": lambda: [build_mask(augment(_edgeless(70)), 2), _ring_mask(40, 2),
                    _int32_mask(_ring_mask(40, 6)), _large_random_mask(3)],
}
BATCH_PATHS = {"mixed": [False, True, False, True, False, True, True],
               "nnz": [False, False, False, False]}


def _large_random_mask(seed: int) -> HopMask:
    """A hand-built mask of 65-100 tokens, sparse enough for the nnz path."""
    rng = np.random.default_rng([seed, 65])
    return _random_csr_mask(rng, int(rng.integers(65, 101)), float(rng.uniform(0.01, 0.15)))


class TestJoinedNnzBlocks:
    """A batch's nnz blocks run as one block-diagonal nnz-path call."""

    @pytest.mark.parametrize("kind", BATCHES)
    @pytest.mark.parametrize("rate", [0.0, 0.3])
    def test_batch_equals_a_call_per_block(self, kind, rate):
        # a call on one mask runs that mask's ops alone; the batch must match
        # it bit for bit in out, dq, dk and dv
        masks = BATCHES[kind]()
        assert [_runs_dense(b) for b in masks] == BATCH_PATHS[kind]
        ends = np.cumsum([b.size for b in masks])
        qv, kv, vv, g = np.random.default_rng(21).standard_normal((4, ends[-1], 4))
        seeds = [[b, 5] for b in range(len(masks))]
        kw = dict(dropout_rate=rate, training=True)
        batch, _ = _attention_run(qv, kv, vv, masks, g, dropout_seed=seeds, **kw)
        for b, (mask, hi) in enumerate(zip(masks, ends)):
            rows = slice(hi - mask.size, hi)
            alone, _ = _attention_run(qv[rows], kv[rows], vv[rows], mask, g[rows],
                                      dropout_seed=seeds[b], **kw)
            for got, want in zip(batch, alone):
                assert np.array_equal(got[rows], want)

    @pytest.mark.parametrize("kind", BATCHES)
    def test_one_nnz_path_call_and_one_dense_call_per_dense_block(self, kind, monkeypatch):
        masks = BATCHES[kind]()
        calls = spy_on_paths(monkeypatch)
        n = sum(b.size for b in masks)
        q, k, v = (Tensor(a) for a in np.random.default_rng(22).standard_normal((3, n, 4)))
        with ops.scratch_tape():
            backward(ops.sum_all(sparse_masked_attention(q, k, v, masks)))
        nnz_calls = [c.args for c in calls if c.kind == "nnz"]
        assert len(nnz_calls) == 1
        assert sorted(c.kind for c in calls) == ["nnz"] + ["one-head"] * sum(BATCH_PATHS[kind])
        # the rows are gathered only when the batch mixes the paths
        in_place = [np.shares_memory(a, t.values) for a, t in zip(nnz_calls[0][:3], (q, k, v))]
        assert in_place == [kind == "nnz"] * 3

    @pytest.mark.parametrize("dtype", [np.uint64, np.uint32, np.int32])
    def test_any_integer_index_dtype_gives_the_int64_results(self, dtype):
        # a hand-built mask's indices are stored as int64, so every integer
        # dtype runs the same ops, alone and inside an all-nnz batch
        masks = BATCHES["nnz"]()
        other = [HopMask(hop_budget=b.hop_budget, size=b.size, indptr=b.indptr.astype(dtype),
                         indices=b.indices.astype(dtype)) for b in masks]
        n = sum(b.size for b in masks)
        qv, kv, vv, g = np.random.default_rng(24).standard_normal((4, n, 4))
        for want, got, rows in [(masks, other, slice(None)),
                                (masks[1], other[1], slice(0, masks[1].size))]:
            ref, _ = _attention_run(qv[rows], kv[rows], vv[rows], want, g[rows])
            res, _ = _attention_run(qv[rows], kv[rows], vv[rows], got, g[rows])
            for a, b in zip(ref, res):
                assert np.array_equal(a, b)

    def test_empty_batch_refused_before_any_tape_entry(self):
        x = Tensor(np.zeros((0, 4)))
        with ops.scratch_tape() as tape:
            for kw in ({}, dict(dropout_rate=0.3, dropout_seed=[], training=True)):
                with pytest.raises(ShapeError, match="^a batch needs at least one mask$"):
                    sparse_masked_attention(x, x, x, [], **kw)
            assert tape == []


class TestColumnLayoutNnzPath:
    """The (d_h, nnz) column-layout nnz path against the row-layout reference
    kernel, its determinism and what its backward closure keeps alive."""

    @pytest.mark.parametrize("seed", range(48))
    def test_matches_row_layout_reference(self, seed):
        _compare_with_reference(_seeded_mask(seed), d_h=(1, 3, 4, 8)[seed % 4],
                                rate=0.0 if seed % 8 < 4 else 0.3, seed=seed)

    @pytest.mark.parametrize("graph, hops", [
        (lambda: _edgeless(1), 0),      # T = 1
        (lambda: _edgeless(1), 4),
        (lambda: _edgeless(7), 3),      # edgeless: identity at every budget
        (single_edge_graph, 0),         # hop 0
        (lambda: generate_watts_strogatz(12, 2, 0.0), 0),
    ])
    @pytest.mark.parametrize("rate", [0.0, 0.3])
    @pytest.mark.parametrize("d_h", [1, 3, 4, 8])
    def test_matches_reference_on_identity_masks(self, graph, hops, rate, d_h):
        mask = build_mask(augment(graph()), hops)
        assert mask.nnz == mask.size
        _compare_with_reference(mask, d_h, rate, seed=d_h)

    def test_softmax_weights_are_the_kernels_softmax(self):
        mask = _seeded_mask(3)
        qv, kv, vv = _qkv(mask.size, seed=11)
        alpha = softmax_weights(qv, kv, mask)
        out, _ = _nnz_path(qv, kv, vv, mask, None)
        assert np.abs(np.add.reduceat(alpha, mask.indptr[:-1]) - 1.0).max() <= 1e-12
        assert np.array_equal(out, np.add.reduceat(alpha[:, None] * vv[mask.indices],
                                                   mask.indptr[:-1], axis=0))

    @pytest.mark.parametrize("rate", [0.0, 0.3])
    def test_reruns_bitwise_identical(self, rate):
        mask = _ring_mask(40, 6)
        assert not _runs_dense(mask)
        qv, kv, vv = _qkv(mask.size, d_h=3, seed=12)
        g = np.random.default_rng(13).standard_normal(qv.shape)
        dropmult = None if rate == 0.0 else (
            np.random.default_rng(14).random(mask.nnz) >= rate) / (1.0 - rate)
        runs = []
        for _ in range(2):
            out, grads = _nnz_path(qv.copy(), kv.copy(), vv.copy(), mask, dropmult)
            runs.append([out, *grads(g.copy())])
        for a, b in zip(*runs):
            assert np.array_equal(a, b)

    @staticmethod
    def owned_closure_bytes(fn, mask):
        """Bytes of the arrays ``fn``'s closure holds, not counting views of
        the mask's own ``indptr``, ``indices`` and ``row_indices``."""
        own = (mask.indptr, mask.indices, mask.row_indices)
        arrays = [c.cell_contents for c in fn.__closure__
                  if isinstance(c.cell_contents, np.ndarray)]
        return sum(a.nbytes for a in arrays if not any(np.shares_memory(a, m) for m in own))

    @pytest.mark.parametrize("rate", [0.0, 0.3])
    def test_backward_closure_keeps_no_gathered_block(self, rate):
        # alpha and applied (nnz each) plus the three (d_h, T) transposes;
        # one gathered (d_h, nnz) block would alone exceed the bound
        mask = _ring_mask(200, 20)        # T = 400, 41 entries per row
        t, d_h = mask.size, 4
        bound = 8 * (2 * mask.nnz + 3 * t * d_h)
        assert not _runs_dense(mask) and 8 * d_h * mask.nnz > bound
        qv, kv, vv = _qkv(t, d_h=d_h, seed=15)
        dropmult = None if rate == 0.0 else (
            np.random.default_rng(16).random(mask.nnz) >= rate) / (1.0 - rate)
        _, grads = _nnz_path(qv, kv, vv, mask, dropmult)
        assert self.owned_closure_bytes(grads, mask) <= bound
        # the count does see a held gathered block next to the mask's views
        block = np.ascontiguousarray(kv.T).take(mask.indices, axis=1)
        col = mask.indices
        assert self.owned_closure_bytes(lambda: (block, col), mask) == block.nbytes > bound

    @pytest.mark.parametrize("rate", [0.0, 0.3])
    def test_backward_allocates_no_gathered_block(self, rate):
        # what grads(g) allocates at its peak: a few nnz-long vectors, the
        # (d_h, T) transpose of g and the three (d_h, T) grads; one gathered
        # (d_h, nnz) block would alone exceed the bound
        mask = _ring_mask(200, 20)        # T = 400, 41 entries per row
        t, d_h = mask.size, 8
        bound = 8 * (6 * mask.nnz + 4 * t * d_h)
        assert not _runs_dense(mask) and 8 * d_h * mask.nnz > bound
        qv, kv, vv, g = np.random.default_rng(17).standard_normal((4, t, d_h))
        dropmult = None if rate == 0.0 else (
            np.random.default_rng(18).random(mask.nnz) >= rate) / (1.0 - rate)
        _, grads = _nnz_path(qv, kv, vv, mask, dropmult)
        tracemalloc.start()
        try:
            grads(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound


# (indptr, indices, size, message): hand-built masks the kernel cannot run
MALFORMED_MASKS = {
    # unchecked, the nnz path gives an interior empty row the next row's
    # value and dies in reduceat on a trailing one; the dense path gives NaN
    "interior_empty_row": ([0, 1, 1, 2], [0, 2], 3, "row 1 is empty"),
    "trailing_empty_row": ([0, 1, 2, 2], [0, 1], 3, "row 2 is empty"),
    "empty_row_at_dense_density": ([0, 3, 3, 6], [0, 1, 2, 0, 1, 2], 3, "row 1 is empty"),
    "indptr_length": ([0, 1, 2], [0, 1], 3, r"indptr of shape \(4,\)"),
    "indptr_start": ([1, 2, 3, 4], [0, 1, 2, 0], 3, "from 0 to nnz = 4, got 1"),
    "indptr_end": ([0, 1, 2, 4], [0, 1, 2], 3, "from 0 to nnz = 3, got 0 to 4"),
    "indptr_decreases": ([0, 2, 1, 3], [0, 1, 2], 3, "decreases at row 1"),
    "column_too_large": ([0, 1, 2, 3], [0, 1, 3], 3, r"row 2 has a column outside \[0, 3\)"),
    "negative_column": ([0, 1, 2, 3], [0, -1, 2], 3, "row 1 has a column outside"),
    "descending_columns": ([0, 1, 3, 4], [0, 2, 1, 2], 3, "row 1 has columns that do not"),
    "repeated_column": ([0, 1, 3, 4], [0, 1, 1, 2], 3, "row 1 has columns that do not"),
    "float_indices": ([0, 1, 2, 3], [0.0, 1.0, 2.0], 3, "integer arrays"),
}


class TestMalformedMasks:
    @pytest.mark.parametrize("name", MALFORMED_MASKS)
    def test_rejected_naming_the_row(self, name):
        indptr, indices, size, message = MALFORMED_MASKS[name]
        with pytest.raises(ValueError, match=message):
            HopMask(hop_budget=1, size=size, indptr=np.array(indptr, dtype=np.int64),
                    indices=np.array(indices))

    def test_unsigned_decreasing_indptr_rejected(self):
        # unsigned row counts would wrap to large positive numbers
        with pytest.raises(ValueError, match="decreases at row 1"):
            HopMask(hop_budget=1, size=3, indptr=np.array([0, 2, 1, 3], dtype=np.uint64),
                    indices=np.array([0, 1, 2], dtype=np.uint64))

    def test_unsigned_column_past_the_int64_range_rejected(self):
        # stored as int64 it reads -1, which the column range check refuses
        with pytest.raises(ValueError, match=r"row 1 has a column outside \[0, 3\)"):
            HopMask(hop_budget=1, size=3, indptr=np.array([0, 1, 2, 3], dtype=np.uint64),
                    indices=np.array([0, 2**64 - 1, 2], dtype=np.uint64))

    def test_built_masks_pass_unchanged(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            for m in build_head_masks(augment(random_graph(rng, max_nodes=15)), [0, 1, 3, 9]):
                again = HopMask(m.hop_budget, m.size, m.indptr, m.indices)
                assert again.indptr is m.indptr and again.indices is m.indices


class TestGradCheck:
    def test_quadratic_exact(self):
        def f(x):
            return ops.scale(_sq_norm(x), 0.5)   # 0.5 * ||x||^2, gradient is x

        x = Tensor(np.random.default_rng(10).standard_normal((4, 3)), requires_grad=True)
        assert grad_check(f, x) < 1e-8

    def test_masked_attention_pooled(self):
        g = generate_erdos_renyi(3, 1.0, seed=11)   # T = 6 tokens
        ag = augment(g)
        assert ag.total_tokens == 6
        mask = build_mask(ag, 2)
        rng = np.random.default_rng(11)
        kv = Tensor(rng.standard_normal((6, 4)))
        vv = Tensor(rng.standard_normal((6, 4)))

        def f(x):
            out = sparse_masked_attention(x, kv, vv, mask)
            return ops.sum_all(out)

        x = Tensor(rng.standard_normal((6, 4)), requires_grad=True)
        assert grad_check(f, x) < 1e-4

    def test_detects_corrupted_backward(self):
        def bad_double(x):
            out = Tensor(2.0 * x.values)

            def bwd():
                if out.grad is None:
                    return
                x._accum(3.0 * out.grad)   # wrong on purpose: forward is 2x

            ops.record(bwd)
            return out

        def f(x):
            return ops.sum_all(bad_double(x))

        x = Tensor(np.ones((2, 2)), requires_grad=True)
        assert grad_check(f, x) > 1e-2

    def test_composite_model_style_chain(self):
        rng = np.random.default_rng(12)
        w1 = Tensor(rng.standard_normal((3, 5)))
        w2 = Tensor(rng.standard_normal((5, 1)))

        def f(x):
            h = ops.relu(ops.matmul(x, w1))
            return ops.sum_all(ops.matmul(h, w2))

        x = Tensor(rng.standard_normal((4, 3)) + 0.5, requires_grad=True)
        assert grad_check(f, x) < 1e-4

    def test_restores_state(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        before = x.values.copy()
        grad_check(lambda t: ops.sum_all(t), x)
        assert np.array_equal(x.values, before)
        assert x.grad is None

    def test_attention_dropout_backward(self):
        # a fixed dropout seed makes the drop pattern part of the function,
        # so finite differences still apply
        g = generate_erdos_renyi(3, 1.0, seed=13)
        ag = augment(g)
        mask = build_mask(ag, 2)
        rng = np.random.default_rng(13)
        kv = Tensor(rng.standard_normal((6, 4)))
        vv = Tensor(rng.standard_normal((6, 4)))

        def f(x):
            out = sparse_masked_attention(x, kv, vv, mask, dropout_rate=0.4,
                                          dropout_seed=9, training=True)
            return ops.sum_all(out)

        x = Tensor(rng.standard_normal((6, 4)), requires_grad=True)
        assert grad_check(f, x) < 1e-4

    def test_graph_head_chain_backward(self):
        # encode -> readout -> affine head -> mae, differentiated w.r.t. the
        # input embeddings
        from hopformer import (ModelConfig, build_head_masks, init_model,
                               mae, predict_graph, readout)
        from hopformer.model import encode

        g = generate_erdos_renyi(4, 0.8, seed=14)
        ag = augment(g)
        cfg = ModelConfig(hidden_dim=8, head_hops=(1, 3), num_layers=1, ffn_dim=16,
                          num_heads=2, task="graph_regression", seed=0)
        model = init_model(cfg, 1)
        masks = build_head_masks(ag, [1, 3])

        def f(z):
            h = encode(model, z, masks)
            pred = predict_graph(model, readout(h, "mean"))
            return mae(pred, np.array([0.7]))

        z = Tensor(np.random.default_rng(14).standard_normal(
            (ag.total_tokens, 8)), requires_grad=True)
        assert grad_check(f, z) < 1e-4


def _sq_norm(x):
    prod = Tensor(x.values * x.values)

    def bwd():
        if prod.grad is None:
            return
        x._accum(2.0 * x.values * prod.grad)

    ops.record(bwd)
    return ops.sum_all(prod)


class TestConcurrentTapes:
    def test_threads_get_independent_tapes(self):
        # independent forward/backward per thread must match serial results
        import threading

        rng = np.random.default_rng(15)
        inputs = [rng.standard_normal((6, 4)) for _ in range(4)]
        w_vals = rng.standard_normal((4, 3))

        def compute(x_vals):
            x = Tensor(x_vals, requires_grad=True)
            w = Tensor(w_vals, requires_grad=True)
            backward(ops.sum_all(ops.relu(ops.matmul(x, w))))
            return x.grad, w.grad

        serial = [compute(x) for x in inputs]
        results = [None] * len(inputs)

        def worker(i):
            results[i] = compute(inputs[i])

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(len(inputs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for (sx, sw), (tx, tw) in zip(serial, results):
            assert np.array_equal(sx, tx)
            assert np.array_equal(sw, tw)


def _operands() -> dict:
    rng = np.random.default_rng(16)
    return {name: Tensor(rng.standard_normal(shape), requires_grad=True)
            for name, shape in (("x", (6, 4)), ("y", (6, 4)), ("z", (6, 4)),
                                ("w", (4, 3)), ("gamma", (1, 4)), ("beta", (1, 4)))}


def _triangle_mask():
    return build_mask(augment(generate_erdos_renyi(3, 1.0, seed=13)), 2)   # T = 6


# Every single-output primitive, the two losses included, on the operands
SINGLE_OUTPUT_PRIMITIVES = {
    "matmul": lambda t: ops.matmul(t["x"], t["w"]),
    "add": lambda t: ops.add(t["x"], t["y"]),
    "add_broadcast": lambda t: ops.add(t["x"], t["beta"]),
    "scale": lambda t: ops.scale(t["x"], 2.5),
    "relu": lambda t: ops.relu(t["x"]),
    "concat_cols": lambda t: ops.concat_cols([t["x"], t["y"]]),
    "concat_rows": lambda t: ops.concat_rows([t["x"], t["y"]]),
    "take_rows": lambda t: ops.take_rows(t["x"], np.array([4, 1])),
    "row_slice": lambda t: ops.row_slice(t["x"], 1, 3),
    "sum_all": lambda t: ops.sum_all(t["x"]),
    "sum_rows": lambda t: ops.sum_rows(t["x"]),
    "mean_rows": lambda t: ops.mean_rows(t["x"]),
    "layer_norm": lambda t: ops.layer_norm(t["x"], t["gamma"], t["beta"]),
    "dropout": lambda t: ops.dropout(t["x"], 0.5, 7, True),
    "sparse_masked_attention": lambda t: sparse_masked_attention(
        t["x"], t["y"], t["z"], _triangle_mask(), dropout_rate=0.3, dropout_seed=2,
        training=True),
    "cross_entropy": lambda t: cross_entropy(t["x"], np.array([0, 1, 2, 3, 0, 1])),
    "mae": lambda t: mae(t["x"], np.zeros((6, 4))),
}


class TestPrimitiveRecording:
    @pytest.mark.parametrize("name", sorted(SINGLE_OUTPUT_PRIMITIVES))
    def test_one_tape_entry_and_no_grads_when_output_is_unused(self, name):
        operands = _operands()
        other = Tensor(np.ones((2, 2)), requires_grad=True)
        with ops.scratch_tape() as tape:
            SINGLE_OUTPUT_PRIMITIVES[name](operands)
            assert len(tape) == 1
            backward(ops.sum_all(other))
        assert other.grad is not None
        assert all(t.grad is None for t in operands.values())

    def test_primitive_wraps_values_like_a_tensor(self):
        with ops.scratch_tape():
            out = ops.primitive([1, 2], lambda g: None)
        assert isinstance(out, Tensor)
        assert out.values.dtype == np.float64 and out.shape == (1, 2)
        assert out.grad is None and not out.requires_grad

    def test_grad_fn_runs_only_when_the_output_has_a_grad(self):
        calls = []
        with ops.scratch_tape():
            ops.primitive(np.zeros((2, 3)), calls.append)
            backward(ops.sum_all(Tensor(np.ones((1, 1)))))
            assert calls == []
            out = ops.primitive(np.zeros((2, 3)), calls.append)
            backward(ops.scale(ops.sum_all(out), 3.0))
        assert len(calls) == 1 and calls[0] is out.grad
        assert np.array_equal(out.grad, np.full((2, 3), 3.0))

    def test_custom_primitive_passes_grad_check(self):
        def square(x):
            return ops.primitive(x.values ** 2, lambda g: x._accum(2.0 * x.values * g))

        x = Tensor(np.random.default_rng(17).standard_normal((3, 2)), requires_grad=True)
        assert grad_check(lambda t: ops.sum_all(square(t)), x) < 1e-8


# ---------------------------------------------------------------------------
# Queries for a set of a mask's rows

ORACLE_TOL = 1e-10   # acceptance 01's tolerance


# Per head, the masks of a graph batch, for one call per layer.  In "batch"
# (an edgeless graph, a one-token graph, rings and a random graph) every head
# mixes the paths across graphs: the two graphs past the small-graph bound run
# every head on the nnz path, and the small graphs' stacks mix partial and
# full supports.  In "large" one graph, past the bound, runs
# two heads on the nnz path and has two dense heads, each its own stack.
# "one" is a single graph with both paths, for query row sets.
LAYER_CASES = {
    "batch": ((1, 2, 4, 8), lambda: [
        _edgeless(3), _ring(40), _edgeless(1), _ring(6), _edgeless(70), _ring(10),
        random_graph(np.random.default_rng(40), max_nodes=10)]),
    "large": ((1, 4, 24, 40), lambda: [_ring(16), _ring(40), _ring(12)]),
    "one": ((1, 2, 12, 40), lambda: [_ring(40)]),
}


def _ring(nodes: int) -> Graph:
    return generate_watts_strogatz(nodes, 2, 0.0, seed=0)


def _layer_masks(kind: str) -> list[list[HopMask]]:
    hops, graphs = LAYER_CASES[kind]
    per_graph = [build_head_masks(augment(g), list(hops)) for g in graphs()]
    return [list(head) for head in zip(*per_graph)]


def _stacked_sizes(masks) -> list[int]:
    """The token counts of the graphs with at least two dense heads."""
    return [head0.size for b, head0 in enumerate(masks[0])
            if sum(_runs_dense(head[b]) for head in masks) > 1]


def _head_cols(h: int, d_h: int) -> slice:
    return slice(h * d_h, (h + 1) * d_h)


class TestOneCallPerLayer:
    """One call on a layer's heads, q/k/v holding H * d_h columns, against
    one call per head on its columns: out, dq, dk and dv bit for bit."""

    D_H = 3

    def run_both(self, masks, r=None, rate=0.0, seed=0):
        n_heads, d_h = len(masks), self.D_H
        n = sum(b.size for b in masks[0])
        kw = dict(dropout_rate=rate, training=True, rows=r)
        r = n if r is None else r
        qv, kv, vv, g = np.random.default_rng(seed).standard_normal((4, n, n_heads * d_h))
        seeds = [[[b, 9, h] for b in range(len(masks[0]))] for h in range(n_heads)]
        layer, meter = _attention_run(qv[:r], kv, vv, masks, g[:r], dropout_seed=seeds, **kw)
        heads = [_attention_run(qv[:r, _head_cols(h, d_h)], kv[:, _head_cols(h, d_h)],
                                vv[:, _head_cols(h, d_h)], masks[h], g[:r, _head_cols(h, d_h)],
                                dropout_seed=seeds[h], **kw) for h in range(n_heads)]
        return layer, meter, heads

    def assert_equal_per_head(self, layer, heads):
        for h, (alone, _) in enumerate(heads):
            for got, want in zip(layer, alone):
                assert np.array_equal(got[:, _head_cols(h, self.D_H)], want)

    def test_cases_cover_the_paths(self):
        masks = _layer_masks("batch")
        dense = [[_runs_dense(b) for b in head] for head in masks]
        assert all(set(head) == {False, True} for head in dense)
        assert any({masks[h][b].nnz == masks[h][b].size ** 2
                    for h in range(len(masks)) if dense[h][b]} == {False, True}
                   for b in range(len(masks[0])))
        assert {b.size for b in masks[0]} >= {1, 3}
        masks = _layer_masks("large")
        large = [b for b, m in enumerate(masks[0]) if m.size > ops.STACK_MAX_TOKENS]
        assert [[_runs_dense(head[b]) for head in masks] for b in large] == [
            [False, False, True, True]]
        assert max(_stacked_sizes(masks)) > ops.STACK_MAX_TOKENS >= min(_stacked_sizes(masks))
        masks = _layer_masks("one")
        assert {_runs_dense(head[0]) for head in masks} == {False, True}
        assert len(_stacked_sizes(masks)) == 1

    @pytest.mark.parametrize("kind", ["batch", "large"])
    @pytest.mark.parametrize("stack", ["default", "never", "always"])
    @pytest.mark.parametrize("rate", [0.0, 0.3])
    def test_layer_call_equals_a_call_per_head(self, kind, stack, rate, monkeypatch):
        if stack != "default":
            monkeypatch.setattr(ops, "STACK_MAX_TOKENS", 0 if stack == "never" else 10**6)
        masks = _layer_masks(kind)
        calls = spy_on_paths(monkeypatch)
        layer, _, heads = self.run_both(masks, rate=rate, seed=1)
        self.assert_equal_per_head(layer, heads)
        # (T, heads) of each dense-path call: in the layer call, one per graph
        # of at most STACK_MAX_TOKENS tokens with a dense head, and one per
        # dense head of a larger graph; then one per dense block of each
        # head's own call
        hops = LAYER_CASES[kind][0]
        dense = [[h for h in range(len(masks)) if _runs_dense(masks[h][b])]
                 for b in range(len(masks[0]))]
        sizes = [b.size for b in masks[0]]
        layer_calls = [(t, group) for t, hs in zip(sizes, dense) if hs
                       for group in ([hs] if t <= ops.STACK_MAX_TOKENS else [[h] for h in hs])]
        head_calls = [(t, [h]) for h in range(len(masks)) for t, hs in zip(sizes, dense)
                      if h in hs]
        got = [(c.args[3][0].size, [hops.index(b.hop_budget) for b in c.args[3]])
               for c in calls if c.name == "_dense_path"]
        assert got == layer_calls + head_calls
        if stack == "default":
            assert layer_calls == {
                "batch": [(3, [0, 1, 2, 3]), (1, [0, 1, 2, 3]), (12, [0, 1, 2, 3]),
                          (20, [0, 1, 2, 3]), (18, [0, 1, 2, 3])],
                "large": [(32, [0, 1, 2, 3]), (80, [2]), (80, [3]), (24, [0, 1, 2, 3])]}[kind]

    @pytest.mark.parametrize("stack", ["never", "always"])
    @pytest.mark.parametrize("rate", [0.0, 0.3])
    def test_query_prefix(self, stack, rate, monkeypatch):
        monkeypatch.setattr(ops, "STACK_MAX_TOKENS", 0 if stack == "never" else 10**6)
        masks = _layer_masks("one")
        t = masks[0][0].size
        for r in [1, t // 2, t]:
            layer, _, heads = self.run_both(masks, r=r, rate=rate, seed=r)
            assert layer[0].shape == layer[1].shape == (r, len(masks) * self.D_H)
            self.assert_equal_per_head(layer, heads)

    @pytest.mark.parametrize("nodes", [1, 5])
    @pytest.mark.parametrize("stack", ["never", "always"])
    def test_edgeless_graph(self, nodes, stack, monkeypatch):
        monkeypatch.setattr(ops, "STACK_MAX_TOKENS", 0 if stack == "never" else 10**6)
        masks = [[m] for m in build_head_masks(augment(_edgeless(nodes)), [0, 1, 2])]
        layer, _, heads = self.run_both(masks, rate=0.3, seed=2)
        self.assert_equal_per_head(layer, heads)
        # identity masks: every token attends to itself alone
        plain, _, _ = self.run_both(masks, seed=2)
        vv = np.random.default_rng(2).standard_normal((4, nodes, 9))[2]
        assert np.array_equal(plain[0], vv)

    def test_one_tape_entry_and_the_flops_of_the_heads(self):
        masks = _layer_masks("batch")
        n = sum(b.size for b in masks[0])
        q, k, v = (Tensor(a) for a in np.random.default_rng(3).standard_normal(
            (3, n, len(masks) * self.D_H)))
        with ops.scratch_tape() as tape:
            sparse_masked_attention(q, k, v, masks)
            assert len(tape) == 1
        _, meter, heads = self.run_both(masks, seed=3)
        assert meter.attention_flops == sum(m.attention_flops for _, m in heads) > 0
        assert meter.executed_flops == sum(m.executed_flops for _, m in heads)

    def test_columns_not_a_multiple_of_the_heads_refused(self):
        masks = _layer_masks("batch")
        n = sum(b.size for b in masks[0])
        x = Tensor(np.zeros((n, 10)))
        with ops.scratch_tape() as tape:
            with pytest.raises(ShapeError, match="have 10 columns, which is not 4 heads"):
                sparse_masked_attention(x, x, x, masks)
            assert tape == []

    def test_heads_over_other_blocks_refused(self):
        masks = _layer_masks("batch")
        masks[2] = masks[2][1:] + masks[2][:1]
        n = sum(b.size for b in masks[0])
        x = Tensor(np.zeros((n, 12)))
        with pytest.raises(ShapeError, match="head 2's masks are for"):
            sparse_masked_attention(x, x, x, masks)

    def test_one_seed_list_per_head(self):
        masks = _layer_masks("batch")
        n = sum(b.size for b in masks[0])
        x = Tensor(np.zeros((n, 12)))
        with pytest.raises(ShapeError, match="got 3 dropout seed lists for 4 heads"):
            sparse_masked_attention(x, x, x, masks, dropout_rate=0.3, training=True,
                                    dropout_seed=[[0] * len(masks[0])] * 3)


class TestSmallGraphBound:
    """A graph of at most STACK_MAX_TOKENS tokens runs every head on the
    masked dense path as one stack, whatever the heads' densities; a larger
    graph picks each head's path by its density."""

    HOPS = (1, 2, 12, 40)

    @staticmethod
    def ring_plus_isolated(nodes: int, isolated: int) -> Graph:
        """A ring of ``nodes`` nodes and ``isolated`` more nodes without edges:
        2 * nodes + isolated tokens."""
        ring = _ring(nodes)
        return Graph(num_nodes=nodes + isolated, edges=ring.edges,
                     node_features=np.ones((nodes + isolated, 1)))

    def test_a_batch_of_small_graphs_makes_one_dense_call_per_graph_and_layer(
            self, monkeypatch):
        from hopformer import ModelConfig, forward, init_model

        rng = np.random.default_rng(9)
        graphs = [_ring(32), _edgeless(5), self.ring_plus_isolated(20, 3),
                  *(Graph(num_nodes=n, edges=generate_erdos_renyi(n, 0.3, seed=n).edges,
                          node_features=rng.standard_normal((n, 1))) for n in (8, 12, 15))]
        hops = (1, 2, 4, 8)
        ags = [augment(g) for g in graphs]
        masks = [build_head_masks(ag, list(hops)) for ag in ags]
        sizes = [ag.total_tokens for ag in ags]
        assert max(sizes) == ops.STACK_MAX_TOKENS
        assert sum(not _dense_by_density(mk) for gm in masks for mk in gm) > len(graphs)
        cfg = ModelConfig(hidden_dim=8, head_hops=hops, num_layers=2, ffn_dim=8, num_heads=4,
                          task="graph_classification", num_classes=2, seed=0)
        model = init_model(cfg, 1)
        calls = spy_on_paths(monkeypatch)
        with ops.no_grad(), count_attention_flops() as meter:
            forward(model, graphs, ags, masks)
        assert [c.kind for c in calls] == ["multi-head"] * len(graphs) * cfg.num_layers
        assert [[b.size for b in c.args[3]] for c in calls] == [
            [t] * cfg.num_heads for t in sizes] * cfg.num_layers
        d_h = cfg.head_dim
        assert meter.executed_flops == cfg.num_layers * cfg.num_heads * sum(
            attention_flops(t * t, d_h) for t in sizes)
        assert meter.attention_flops == cfg.num_layers * sum(
            attention_flops(mk.nnz, d_h) for gm in masks for mk in gm)

    @pytest.mark.parametrize("isolated", [0, 1])
    def test_one_token_past_the_bound_follows_density(self, isolated, monkeypatch):
        # a 64-token ring, and the same ring with one isolated node: its hop 1
        # and 2 masks are sparse, hop 12 partial and hop 40 (nearly) full
        masks = [[mk] for mk in build_head_masks(
            augment(self.ring_plus_isolated(32, isolated)), list(self.HOPS))]
        t = masks[0][0].size
        assert t == ops.STACK_MAX_TOKENS + isolated
        assert [_dense_by_density(head[0]) for head in masks] == [False, False, True, True]
        qv, kv, vv = np.random.default_rng(10).standard_normal((3, t, 4 * 3))
        calls = spy_on_paths(monkeypatch)
        with count_attention_flops() as meter:
            sparse_masked_attention(Tensor(qv), Tensor(kv), Tensor(vv), masks)
        if isolated:
            assert [c.kind for c in calls] == ["nnz", "nnz", "one-head", "one-head"]
            executed = [masks[0][0].nnz, masks[1][0].nnz, t * t, t * t]
        else:
            assert [c.kind for c in calls] == ["multi-head"] and len(calls[0].args[3]) == 4
            executed = [t * t] * 4
        assert meter.executed_flops == sum(attention_flops(n, 3) for n in executed)

    @pytest.mark.parametrize("case", ["small batch", "large graph"])
    def test_dense_calls_take_views_of_q_k_v(self, case, monkeypatch):
        # a small graph stacks all its heads and a larger one each dense head
        # alone: either way the heads are a slice of the head axis, so every
        # dense-path call reads q, k and v in place, with no copy
        if case == "small batch":
            graphs = [_ring(32), _edgeless(5), _ring(10), self.ring_plus_isolated(20, 3)]
        else:
            graphs = [self.ring_plus_isolated(32, 1), _ring(40)]
        per_graph = [build_head_masks(augment(g), list(self.HOPS)) for g in graphs]
        masks = [[gm[h] for gm in per_graph] for h in range(len(self.HOPS))]
        n = sum(b.size for b in masks[0])
        q, k, v = (Tensor(a, requires_grad=True)
                   for a in np.random.default_rng(12).standard_normal((3, n, 4 * 3)))
        calls = spy_on_paths(monkeypatch)
        with ops.scratch_tape():
            backward(ops.sum_all(sparse_masked_attention(q, k, v, masks, dropout_rate=0.3,
                                                         dropout_seed=[[1] * len(graphs)] * 4,
                                                         training=True)))
        dense_calls = [c for c in calls if c.name == "_dense_path"]
        assert {c.kind for c in dense_calls} == (
            {"multi-head"} if case == "small batch" else {"one-head"})
        assert len(dense_calls) == (len(graphs) if case == "small batch" else 4)
        for c in dense_calls:
            for a, t in zip(c.args[:3], (q, k, v)):
                assert np.shares_memory(a, t.values)

    @pytest.mark.parametrize("r", [1, 7, 32])
    def test_a_small_prefix_scores_r_times_t_cells_on_every_head(self, r):
        masks = [[mk] for mk in build_head_masks(augment(_ring(16)), list(self.HOPS))]
        t = masks[0][0].size
        assert not _dense_by_density(masks[0][0])
        qv, kv, vv = np.random.default_rng(11).standard_normal((3, t, 4 * 3))
        with count_attention_flops() as meter:
            out = sparse_masked_attention(Tensor(qv[:r]), Tensor(kv), Tensor(vv), masks, rows=r)
        assert out.values.shape == (r, 12)
        assert meter.executed_flops == 4 * attention_flops(r * t, 3)
        assert meter.attention_flops == sum(attention_flops(int(head[0].indptr[r]), 3)
                                            for head in masks)


class TestEmptyBlocks:
    """A block of no tokens (an empty graph's mask) makes no kernel part: a
    call on it alone gives no rows, and in a batch it adds no rows, grads or
    path calls, on every grouping of the dense heads and with every block
    forced onto the nnz path."""

    D_H = 3

    @pytest.mark.parametrize("where", ["alone", "first", "mid"])
    @pytest.mark.parametrize("forced", ["default", "nnz", "one-head"])
    @pytest.mark.parametrize("rate", [0.0, 0.3])
    def test_empty_block_makes_no_part(self, where, forced, rate, monkeypatch):
        if forced == "nnz":
            monkeypatch.setattr(ops, "DENSE_MIN_DENSITY", 2.0)
        if forced == "one-head":
            monkeypatch.setattr(ops, "STACK_MAX_TOKENS", 0)
        masks = _layer_masks("batch") if where != "alone" else [[] for _ in range(4)]
        at = {"alone": 0, "first": 0, "mid": 3}[where]
        with_empty = [head[:at] + [HopMask(0, 0, [0], [])] + head[at:] for head in masks]
        n = sum(b.size for b in with_empty[0])
        qv, kv, vv, g = np.random.default_rng(44).standard_normal((4, n, 4 * self.D_H))
        seeds = [[[b, h] for b in range(len(with_empty[0]))] for h in range(4)]
        kw = dict(dropout_rate=rate, training=True)
        calls = spy_on_paths(monkeypatch)
        got, meter = _attention_run(qv, kv, vv, with_empty, g, **kw, dropout_seed=seeds)
        kinds = [c.kind for c in calls]
        if where == "alone":
            assert [a.shape for a in got] == [(0, 4 * self.D_H)] * 4 and kinds == []
            assert meter.attention_flops == meter.executed_flops == 0
            return
        calls.clear()
        want, want_meter = _attention_run(
            qv, kv, vv, masks, g, **kw,
            dropout_seed=[head[:at] + head[at + 1:] for head in seeds])
        assert [c.kind for c in calls] == kinds and len(kinds) > 1
        for a, b in zip(got, want):
            assert np.array_equal(a, b)
        assert meter == want_meter


def _weighted_sum(out: Tensor, g: np.ndarray) -> Tensor:
    """sum(out * g): a scalar whose gradient with respect to ``out`` is ``g``."""
    return ops.primitive([[float((out.values * g).sum())]], lambda gg: out._accum(g * gg[0, 0]))


def _attention_run(qv, kv, vv, mask, g, **kw):
    """Output, q/k/v grads and the FLOP meter of one kernel call, under the
    upstream gradient ``g`` (shaped like the output)."""
    q, k, v = (Tensor(a, requires_grad=True) for a in (qv, kv, vv))
    with ops.scratch_tape(), count_attention_flops() as meter:
        out = sparse_masked_attention(q, k, v, mask, **kw)
        backward(_weighted_sum(out, g))
    return [out.values, q.grad, k.grad, v.grad], meter


def _dense_oracle_grads(qv, kv, vv, support, g):
    """q/k/v grads of the masked dense oracle, for as many query rows as
    ``qv`` and ``support`` hold."""
    w = dense_attention_weights_oracle(qv, kv, support)
    dw = g @ vv.T
    ds = w * (dw - (w * dw).sum(axis=1, keepdims=True)) / np.sqrt(qv.shape[1])
    return ds @ kv, ds.T @ qv, w.T @ g


def _row_set_case(seed: int) -> tuple[HopMask, int]:
    """(mask, N) for one seed, by seed % 8: a hand-built mask of more than
    STACK_MAX_TOKENS tokens on the nnz path; one of at most STACK_MAX_TOKENS
    tokens (the dense path); one of more, dense by density; or a hop mask of
    a random graph (sparse ones past the bound among them), a one-token
    graph, an edgeless graph, a graph with isolated nodes or a small random
    graph, N its node count.  N is drawn in [1, T] for the hand-built masks."""
    rng = np.random.default_rng([seed, 37])
    kind = seed % 8
    if kind >= 3:
        g = [lambda: random_graph(rng, max_nodes=60, p=float(rng.uniform(0.02, 0.1))),
             lambda: _edgeless(1),
             lambda: _edgeless(int(rng.integers(2, 9))),
             lambda: random_graph(rng, max_nodes=60, p=0.04),   # isolated nodes
             lambda: random_graph(rng, max_nodes=14)][kind - 3]()
        return build_mask(augment(g), int(rng.integers(0, 6))), g.num_nodes
    small = kind == 1
    t = int(rng.integers(2, ops.STACK_MAX_TOKENS + 1) if small else rng.integers(65, 100))
    mask = _random_csr_mask(rng, t, float(rng.uniform(0.0, 0.08) if kind == 0
                                          else rng.uniform(0.3, 0.9)))
    assert _runs_dense(mask) == (kind != 0)
    return mask, int(rng.integers(1, t + 1))


def _row_sets(rng, t: int, n: int) -> list[np.ndarray]:
    """Leading ranges of 1, n and t rows, the last row alone, and random
    subsets of 1, about t/3 and t - 1 rows."""
    sets = [np.arange(r) for r in sorted({1, n, t})] + [np.array([t - 1])]
    return sets + [np.sort(rng.choice(t, size, replace=False))
                   for size in sorted({1, max(1, t // 3), max(1, t - 1)})]


class TestQueryRowSets:
    """A call with the queries of a sorted set of a mask's rows (``rows``)
    against the call on all T rows and against the masked dense oracle: out
    and dq are the set's rows of the full call's (bit for bit on the nnz
    path, to rounding on the dense path), and dk and dv the full call's
    grads when no gradient reaches the rows off the set."""

    def test_cases_cover_both_paths_and_the_edge_cases(self):
        cases = [_row_set_case(seed) for seed in range(80)]
        sides = {(_runs_dense(mask), mask.size > ops.STACK_MAX_TOKENS) for mask, _ in cases}
        assert sides == {(False, True), (True, False), (True, True)}
        graphs = [case for seed, case in enumerate(cases) if seed % 8 >= 3]
        assert {_runs_dense(mask) for mask, _ in graphs} == {False, True}
        assert any(mask.size == 1 for mask, _ in graphs)
        assert any(mask.nnz == mask.size > 1 for mask, _ in graphs)   # identity: edgeless
        assert any(0 < n < mask.size for mask, n in graphs)           # nodes and edges
        assert any(mask.hop_budget > 0 and mask.nnz > mask.size       # an isolated token
                   and (np.diff(mask.indptr) == 1).any() for mask, _ in graphs)

    @pytest.mark.parametrize("seed", range(80))
    def test_row_set_is_those_rows_of_the_full_call(self, seed):
        mask, n = _row_set_case(seed)
        t, d_h = mask.size, (1, 3, 4)[seed % 3]
        dense = _runs_dense(mask)
        rng = np.random.default_rng(seed)
        qv, kv, vv, g = rng.standard_normal((4, t, d_h))
        support = mask_to_dense(mask)
        drop = dict(dropout_rate=0.3, dropout_seed=[seed, 2], training=True)
        for rows in _row_sets(rng, t, n):
            g_set = np.zeros_like(g)
            g_set[rows] = g[rows]
            leading = rows[-1] == rows.size - 1
            # attention dropout, on a leading range, keeps the weights the
            # full call draws for these rows
            for kw in [{}, drop] if leading else [{}]:
                full, _ = _attention_run(qv, kv, vv, mask, g_set, **kw)
                got, meter = _attention_run(qv[rows], kv, vv, mask, g[rows], rows=rows, **kw)
                assert got[0].shape == got[1].shape == (rows.size, d_h)
                for a, b in zip(got, [full[0][rows], full[1][rows], full[2], full[3]]):
                    if dense:
                        assert np.abs(a - b).max() <= 1e-12
                    else:
                        assert np.array_equal(a, b)
            nnz = int(np.diff(mask.indptr)[rows].sum())
            assert meter.attention_flops == attention_flops(nnz, d_h)
            assert meter.executed_flops == attention_flops(rows.size * t if dense else nnz, d_h)
            got, _ = _attention_run(qv[rows], kv, vv, mask, g[rows], rows=rows)
            oracle = [dense_attention_oracle(qv[rows], kv, vv, support[rows]),
                      *_dense_oracle_grads(qv[rows], kv, vv, support[rows], g[rows])]
            for a, b in zip(got, oracle):
                assert np.abs(a - b).max() <= ORACLE_TOL

    @pytest.mark.parametrize("name", DISPATCH_MASKS)
    def test_meter_counts_the_sets_entries(self, name):
        mask = DISPATCH_MASKS[name]()
        t, r = mask.size, mask.size // 2
        q, k, v = (Tensor(a) for a in _qkv(t))
        for rows in (r, np.arange(1, r + 1)):
            with count_attention_flops() as meter:
                sparse_masked_attention(Tensor(q.values[:r]), k, v, mask, rows=rows)
            nnz = int(np.diff(mask.indptr)[ops._row_index(rows)].sum())
            assert nnz < mask.nnz
            assert meter.attention_flops == attention_flops(nnz, 4)
            assert meter.executed_flops == attention_flops(
                r * t if EXPECT_DENSE[name] else nnz, 4)

    def test_the_whole_masks_density_picks_the_path(self):
        # the hop-3 mask of a path is sparse overall but dense in its first
        # rows; a call on them stays on the nnz path and builds no T x T support
        mask = build_mask(augment(Graph(num_nodes=40, edges=np.column_stack(
            [np.arange(39), np.arange(1, 40)]), node_features=np.ones((40, 1)))), 3)
        r = 2
        assert not _runs_dense(mask) and mask.indptr[r] >= ops.DENSE_MIN_DENSITY * r * r
        q, k, v = (Tensor(a) for a in _qkv(mask.size))
        with count_attention_flops() as meter:
            sparse_masked_attention(Tensor(q.values[:r]), k, v, mask, rows=r)
        assert meter.executed_flops == meter.attention_flops
        assert "dense_bias" not in vars(mask)

    def test_a_leading_range_reads_views_and_another_set_gathers(self, monkeypatch):
        mask = _ring_mask(40, 2)
        assert not _runs_dense(mask)
        csrs = []
        real = ops._joined_csr
        monkeypatch.setattr(ops, "_joined_csr",
                            lambda masks, rows: csrs.append(real(masks, rows)) or csrs[-1])
        q, k, v = (Tensor(a) for a in _qkv(mask.size))
        for rows in (np.arange(30), np.arange(1, 31)):
            sparse_masked_attention(Tensor(q.values[rows]), k, v, mask, rows=rows)
        (lead_col, lead_starts), (col, starts) = csrs
        assert np.shares_memory(lead_col, mask.indices)
        assert np.shares_memory(lead_starts, mask.indptr)
        assert not np.shares_memory(col, mask.indices)
        assert np.array_equal(col, mask.indices[mask.indptr[1]:mask.indptr[31]])
        assert np.array_equal(starts, mask.indptr[1:31] - mask.indptr[1])

    @pytest.mark.parametrize("stack", ["never", "always"])
    def test_a_layer_call_on_a_row_set_equals_a_call_per_head(self, stack, monkeypatch):
        monkeypatch.setattr(ops, "STACK_MAX_TOKENS", 0 if stack == "never" else 10**6)
        masks = _layer_masks("one")
        t, d_h = masks[0][0].size, 3
        rows = np.sort(np.random.default_rng(8).choice(t, t // 3, replace=False))
        qv, kv, vv, g = np.random.default_rng(9).standard_normal((4, t, len(masks) * d_h))
        layer, meter = _attention_run(qv[rows], kv, vv, masks, g[rows], rows=rows)
        flops = 0
        for h in range(len(masks)):
            cols = _head_cols(h, d_h)
            alone, head_meter = _attention_run(qv[rows, cols], kv[:, cols], vv[:, cols],
                                               masks[h], g[rows, cols], rows=rows)
            for got, want in zip(layer, alone):
                assert np.array_equal(got[:, cols], want)
            flops += head_meter.attention_flops
        assert meter.attention_flops == flops

    def test_refusals(self):
        mask = _ring_mask(6, 1)
        qv, kv, vv = _qkv(mask.size)
        q, k, v = Tensor(qv[[1, 4]]), Tensor(kv), Tensor(vv)
        with pytest.raises(ShapeError, match="q has 2 rows for a set of 3 query rows"):
            sparse_masked_attention(q, k, v, mask, rows=[1, 4, 5])
        with pytest.raises(ShapeError, match="rows asks for query rows of one graph, got a "
                                             "batch of 2"):
            sparse_masked_attention(q, Tensor(np.vstack([kv, kv])), Tensor(np.vstack([vv, vv])),
                                    [mask, mask], rows=[1, 4])
        # unset, q holds all T rows: fewer or more are refused, on one mask
        # and on a batch
        for n in (5, 13):
            with pytest.raises(ShapeError, match=f"q has {n} rows for a set of 12 query rows"):
                sparse_masked_attention(Tensor(np.resize(qv, (n, 4))), k, v, mask)
        with pytest.raises(ShapeError, match="q has 5 rows for a set of 24 query rows"):
            sparse_masked_attention(Tensor(qv[:5]), Tensor(np.vstack([kv, kv])),
                                    Tensor(np.vstack([vv, vv])), [mask, mask])
        with pytest.raises(ShapeError, match="rows entry 0 is 1, not 0: a forward that draws "
                                             "dropout takes a leading range"):
            sparse_masked_attention(q, k, v, mask, rows=[1, 4], dropout_rate=0.1,
                                    training=True)
        # without dropout drawn, the same set runs
        for kw in ({}, dict(dropout_rate=0.1), dict(training=True)):
            assert sparse_masked_attention(q, k, v, mask, rows=[1, 4], **kw).shape == (2, 4)


# ---------------------------------------------------------------------------
# Forwards that record nothing


class TestNoGrad:
    """Under no_grad, primitives leave the tape alone and give the values a
    recorded forward gives."""

    @pytest.mark.parametrize("kind", ["batch", "large", "one"])
    @pytest.mark.parametrize("rate", [0.0, 0.3])
    def test_kernel_outputs_and_flops_equal_the_recorded_ones(self, kind, rate):
        # "batch" and "large" run the nnz path and one-head and multi-head
        # dense stacks (see TestOneCallPerLayer), "one" a query prefix (``rows=r``) of both
        # paths
        masks = _layer_masks(kind)
        n, n_heads = sum(b.size for b in masks[0]), len(masks)
        r = n // 2 if kind == "one" else n
        qv, kv, vv = np.random.default_rng(5).standard_normal((3, n, n_heads * 3))
        seeds = [[[b, 9, h] for b in range(len(masks[0]))] for h in range(n_heads)]
        kw = dict(dropout_rate=rate, dropout_seed=seeds, training=True,
                  rows=r if kind == "one" else None)
        runs = []
        for context in (ops.scratch_tape, ops.no_grad):
            tape = ops._tape()
            before = len(tape)
            with context(), count_attention_flops() as meter:
                out = sparse_masked_attention(Tensor(qv[:r]), Tensor(kv), Tensor(vv), masks,
                                              **kw)
                recorded = len(ops._tape())
            assert ops._tape() is tape and len(tape) == before
            runs.append((out.values, meter.attention_flops, meter.executed_flops, recorded))
        (want, *want_flops, one_entry), (got, *got_flops, entries) = runs
        assert np.array_equal(got, want)
        assert got_flops == want_flops and want_flops[0] > 0
        assert one_entry == 1 and entries == before

    def test_each_part_closure_is_freed_once_its_output_is_written(self, monkeypatch):
        import weakref

        refs, alive_at_start = [], []

        def traced(path, args):
            alive_at_start.append(sum(ref() is not None for ref in refs))
            out, grads = path(*args)
            refs.append(weakref.ref(grads))
            return out, grads

        spy_on_paths(monkeypatch, around=traced)
        masks = _layer_masks("batch")
        n = sum(b.size for b in masks[0])
        q, k, v = (Tensor(a) for a in np.random.default_rng(6).standard_normal(
            (3, n, len(masks) * 3)))
        with ops.no_grad():
            sparse_masked_attention(q, k, v, masks)
        assert len(refs) > 3 and alive_at_start == [0] * len(refs)
        assert all(ref() is None for ref in refs)
        # recorded, every part's closure lives on the tape until the backward
        refs.clear()
        alive_at_start.clear()
        with ops.scratch_tape() as tape:
            sparse_masked_attention(q, k, v, masks)
            assert alive_at_start == list(range(len(refs)))
            assert all(ref() is not None for ref in refs)
            tape.clear()
        assert all(ref() is None for ref in refs)

    def test_inference_loop_leaves_the_tape_as_it_was(self):
        # the README's Library model: five recorded forwards leave 135 entries
        from hopformer import ModelConfig, forward, init_model

        g = generate_sbm((30, 30), p_in=0.3, p_out=0.02, seed=0)
        cfg = ModelConfig(hidden_dim=16, head_hops=(1, 3, 6, 12), num_layers=2, ffn_dim=32,
                          num_heads=4, task="node_classification", num_classes=2, seed=0)
        model = init_model(cfg, g.node_feature_dim)
        ag = augment(g)
        masks = build_head_masks(ag, list(cfg.head_hops))
        with ops.scratch_tape() as tape:
            recorded = [forward(model, g, ag, masks).values for _ in range(5)]
            assert len(tape) == 135
        tape = ops._tape()
        before = list(tape)
        with ops.no_grad():
            outs = [forward(model, g, ag, masks).values for _ in range(5)]
        assert ops._tape() is tape and tape == before
        for got, want in zip(outs, recorded):
            assert np.array_equal(got, want)

    def test_grad_check_inside_no_grad_gives_the_same_value(self):
        mask = _triangle_mask()
        rng = np.random.default_rng(7)
        kv, vv = (Tensor(rng.standard_normal((6, 4))) for _ in range(2))

        recording = []

        def f(x):
            recording.append(ops._state.recording)
            out = sparse_masked_attention(x, kv, vv, mask)
            return ops.sum_all(ops.layer_norm(out, Tensor(np.ones((1, 4))),
                                              Tensor(np.zeros((1, 4)))))

        x = Tensor(rng.standard_normal((6, 4)), requires_grad=True)
        plain = grad_check(f, x)
        with ops.no_grad():
            assert grad_check(f, x) == plain
        assert plain < 1e-4
        # the analytic pass records, the 2 * 24 numeric probes do not
        assert recording == 2 * ([True] + [False] * 48)

    def test_scratch_tape_inside_records_and_no_grad_inside_it_does_not(self):
        x = Tensor(np.arange(4.0).reshape(2, 2), requires_grad=True)
        with ops.no_grad():
            with ops.scratch_tape() as tape:
                a, b = ops.split_cols(ops.scale(x, 3.0), 2)
                assert len(tape) == 2
                with ops.no_grad():
                    ops.split_cols(ops.scale(x, 2.0), 2)
                assert len(tape) == 2
                backward(ops.sum_all(a))
            assert not ops._state.recording
        assert np.array_equal(x.grad, [[3.0, 0.0], [3.0, 0.0]])
        assert ops._state.recording

    def test_flag_is_restored_after_an_exception(self):
        def fail():
            ops.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

        with pytest.raises(ShapeError, match="matmul mismatch"):
            with ops.no_grad():
                fail()
        assert ops._state.recording
        for context in (ops.no_grad, ops.scratch_tape):
            with ops.no_grad():
                with pytest.raises(ShapeError, match="matmul mismatch"):
                    with context():
                        fail()
                assert not ops._state.recording
            assert ops._state.recording
        with ops.scratch_tape() as tape:
            ops.scale(Tensor(np.ones((1, 1))), 2.0)
            assert len(tape) == 1

    def test_another_thread_still_records(self):
        import threading

        rng = np.random.default_rng(8)
        x_vals, w_vals = rng.standard_normal((6, 4)), rng.standard_normal((4, 3))

        def compute():
            x, w = Tensor(x_vals, requires_grad=True), Tensor(w_vals, requires_grad=True)
            with ops.scratch_tape():
                backward(ops.sum_all(ops.relu(ops.matmul(x, w))))
            return x.grad, w.grad

        def worker():
            # the worker's own thread tape, no scratch_tape: it records
            ops.scale(Tensor(np.ones((1, 1))), 2.0)
            results.append((len(ops._tape()), compute()))

        serial, results = compute(), []
        with ops.no_grad():
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join(timeout=60)
        assert not thread.is_alive()
        (entries, (gx, gw)), = results
        assert entries == 1
        assert np.array_equal(gx, serial[0]) and np.array_equal(gw, serial[1])


class TestTapeUsers:
    """Only a forward that is differentiated records on a tape of its own;
    every other forward in the package runs under no_grad."""

    @staticmethod
    def users(path) -> dict[str, bool]:
        """For each function of the module that enters scratch_tape: whether
        it also calls backward."""
        import ast

        found = {}
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            called = {c.func.attr if isinstance(c.func, ast.Attribute) else
                      getattr(c.func, "id", None)
                      for c in ast.walk(fn) if isinstance(c, ast.Call)}
            if "scratch_tape" in called:
                found[fn.name] = "backward" in called
        return found

    def test_only_functions_that_call_backward_enter_scratch_tape(self):
        from pathlib import Path

        import hopformer

        package = Path(hopformer.__file__).resolve().parent
        users = {f"{p.stem}.{name}": differentiates for p in sorted(package.glob("*.py"))
                 for name, differentiates in self.users(p).items()}
        assert {name for name, differentiates in users.items() if not differentiates} == set()
        # the scan does see the two differentiated forwards
        assert set(users) == {"training.train", "autograd.grad_check"}

    def test_scoring_probing_and_counting_record_nothing(self, monkeypatch):
        from dataclasses import replace

        from hopformer import (ModelConfig, TrainConfig, evaluate, flops_vs_nnz_report,
                               influence_matrix, init_model, train)

        monkeypatch.setattr(ops, "STACK_MAX_TOKENS", 0)   # both paths on a small graph
        calls = spy_on_paths(monkeypatch)
        g = generate_sbm((8, 8), p_in=0.5, p_out=0.1, seed=1)
        cfg = ModelConfig(hidden_dim=8, head_hops=(1, 4), num_layers=1, ffn_dim=8, num_heads=2,
                          task="node_classification", num_classes=2, seed=0)
        model = init_model(cfg, g.node_feature_dim)
        masks = build_head_masks(augment(g), [1, 4])
        for run in (lambda: evaluate(model, g, None, np.arange(g.num_nodes)),
                    lambda: influence_matrix(model, masks),
                    lambda: influence_matrix(model, masks, head=1),
                    lambda: flops_vs_nnz_report([g], [[1, 1], [1, 2], [2, 4]], cfg)):
            calls.clear()
            run()
            assert calls and not any(c.recording for c in calls)
        # with dropout, train records its steps and scores val and test unrecorded
        calls.clear()
        model = init_model(replace(cfg, dropout=0.1), g.node_feature_dim)
        train(model, g, None, TrainConfig(learning_rate=0.01, epochs=2))
        assert [c.recording for c in calls] == 2 * (2 * [True] + 2 * [False])
