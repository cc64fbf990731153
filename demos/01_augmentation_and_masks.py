"""Walkthrough: edge-to-node augmentation and n-hop reachability masks.

A path graph a-b-c turns into five tokens: three node tokens plus one token
per edge, each wired to its two endpoints.  Hop budgets then count steps on
that token graph, so one hop of the original graph costs two.
"""

import numpy as np

from hopformer import Graph, augment, build_head_masks, mask_stats

g = Graph(num_nodes=3, edges=np.array([[0, 1], [1, 2]]),
          node_features=np.ones((3, 1)))
ag = augment(g)

print(f"original graph: {g.num_nodes} nodes, {g.num_edges} edges")
print(f"augmented:      {ag.total_tokens} tokens "
      f"({ag.num_node_tokens} node + {ag.num_edge_tokens} edge), "
      f"{ag.num_directed_links} directed links (4 per edge)")
print()

names = ["a", "b", "c", "e_ab", "e_bc"]
for tok in range(ag.total_tokens):
    nbrs = ", ".join(names[j] for j in ag.neighbors(tok))
    print(f"  token {names[tok]:>4} -> {nbrs}")
print()

# Reachability grows with the hop budget until the mask saturates.
for n, m in enumerate(build_head_masks(ag, list(range(5)))):
    stats = mask_stats(m)
    row_a = ", ".join(names[j] for j in m.row(0))
    print(f"hops={n}: nnz={stats['nnz']:2d} density={stats['density']:.2f} "
          f"  token a reaches: {row_a}")
print()

# Heads sharing a budget share one mask object.
masks = build_head_masks(ag, [1, 1, 2, 4])
print("head masks for budgets [1, 1, 2, 4]:",
      f"{len({id(m) for m in masks})} distinct masks backing 4 heads")
