"""Walkthrough: training on a two-block stochastic block model.

Node features carry only a weak class signal (raw features alone classify at
roughly 70%); edges are heavily within-block.  Reaching high test accuracy
therefore requires aggregating over the graph structure, which is exactly
what the hop-masked heads provide.
"""

from hopformer import (ModelConfig, TrainConfig, augment, build_head_masks, evaluate,
                       generate_sbm, init_model, split_indices, train)

seed = 0
g = generate_sbm((30, 30), p_in=0.3, p_out=0.02, seed=seed)
ag = augment(g)
masks = build_head_masks(ag, [1, 3, 6, 12])
print(f"graph: {g.num_nodes} nodes, {g.num_edges} edges -> {ag.total_tokens} tokens")

# baseline: best threshold on the mean feature, no structure used
proj = g.node_features.mean(axis=1)
raw = max(((proj > 0) == (g.node_labels == 0)).mean(),
          ((proj < 0) == (g.node_labels == 0)).mean())
print(f"raw-feature linear baseline: {raw:.3f}")

cfg = ModelConfig(hidden_dim=16, head_hops=(1, 3, 6, 12), num_layers=2, ffn_dim=32,
                  num_heads=4, task="node_classification", num_classes=2, seed=seed)
model = init_model(cfg, g.node_feature_dim)
tc = TrainConfig(learning_rate=1e-2, epochs=200, seed=seed)
model, history = train(model, g, masks, tc)

idx_train, idx_val, idx_test = split_indices(g.num_nodes, tc)
print(f"\ntrained {len(history)} epochs (checkpoint from epoch {history.best_epoch})")
for e in range(0, len(history), max(1, len(history) // 8)):
    print(f"  epoch {e:3d}: loss {history.train_loss[e]:.4f} "
          f"val {history.val_metric[e]:.3f} test {history.test_metric[e]:.3f}")

print(f"\nfinal: train {evaluate(model, g, masks, idx_train):.3f}  "
      f"val {evaluate(model, g, masks, idx_val):.3f}  "
      f"test {evaluate(model, g, masks, idx_test):.3f}")
print("structure closes the gap the raw features leave open.")
