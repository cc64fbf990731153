"""Walkthrough: the sparse masked-attention kernel against a dense reference.

The kernel forms attention scores only for token pairs stored in the mask;
everything else is excluded from both the scores and the softmax
normalization.  A dense reference that sets off-support scores to -inf must
agree to machine precision.

Each call picks one of two paths from the mask's size and density.  A mask
of at most STACK_MAX_TOKENS (64) tokens, a small graph's, always takes the
masked dense path: at that size the nnz path's fixed numpy-call cost
outweighs the dense path's work on the cells off the support.  On a larger
mask, below DENSE_MIN_DENSITY the nnz path touches stored pairs only, so its
work is proportional to nnz(mask) rather than T^2.  At or above it the
masked dense path scores all T^2 pairs with BLAS and adds a bias that is
-inf off the support: on such masks T^2 is at most nnz / DENSE_MIN_DENSITY,
so the work is still linear in nnz, and BLAS does it many times faster than
the gather-and-reduce of the nnz path.  The provenance of both constants is
recorded next to them in hopformer/autograd.py.  The graph below has 90
tokens, so density picks each mask's path.

The FLOP meter keeps the paper's cost model, nnz * (4*d_h + 5), whichever
path runs; its executed count shows the T^2 work of dense-path calls.
"""

import numpy as np

from hopformer import (Tensor, attention_flops, augment, build_head_masks,
                       count_attention_flops, generate_watts_strogatz, no_grad,
                       sparse_masked_attention)
from hopformer.autograd import DENSE_MIN_DENSITY, STACK_MAX_TOKENS

g = generate_watts_strogatz(30, 4, 0.2, seed=0)
ag = augment(g)
t = ag.total_tokens
assert t > STACK_MAX_TOKENS
d_h = 8
rng = np.random.default_rng(1)
q, k, v = rng.standard_normal((3, t, d_h))

print(f"graph: {g.num_nodes} nodes -> {t} tokens, head dim {d_h}, "
      f"dense path at density >= {DENSE_MIN_DENSITY}")
print(f"{'hops':>4} {'nnz':>7} {'share of T^2':>12} {'path':>6} {'model FLOPs':>12} "
      f"{'executed FLOPs':>14} {'max err vs dense':>17}")

budgets = [1, 2, 4, 8, 16]
for hops, mask in zip(budgets, build_head_masks(ag, budgets)):
    # only FLOPs and values are read: no_grad records no backward closure
    with count_attention_flops() as meter, no_grad():
        out = sparse_masked_attention(Tensor(q), Tensor(k), Tensor(v), mask)

    # dense reference: full score matrix, -inf off support
    support = np.zeros((t, t), dtype=bool)
    support[mask.row_indices, mask.indices] = True
    scores = np.where(support, q @ k.T / np.sqrt(d_h), -np.inf)
    scores -= scores.max(axis=1, keepdims=True)
    w = np.exp(scores)
    w /= w.sum(axis=1, keepdims=True)
    dense = w @ v

    err = np.abs(out.values - dense).max()
    assert meter.attention_flops == attention_flops(mask.nnz, d_h)
    path = "dense" if meter.executed_flops == attention_flops(t * t, d_h) else "nnz"
    print(f"{hops:>4} {mask.nnz:>7} {mask.nnz / t**2:>11.1%} {path:>6} "
          f"{meter.attention_flops:>12,} {meter.executed_flops:>14,} {err:>17.2e}")

print("\nthe model FLOPs equal nnz * (4*d_h + 5) per call on either path, so the")
print("cost model tracks mask sparsity, not token count; past STACK_MAX_TOKENS tokens,")
print("dense-path calls execute at most 1 / DENSE_MIN_DENSITY times that.")
