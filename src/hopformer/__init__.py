"""HopFormer: a graph Transformer whose only structural mechanism is
head-specific n-hop masked sparse attention over an augmented token graph."""

__version__ = "0.1.0"

from .graphs import (Graph, AugmentedGraph, GraphError, augment, load_graph,
                     load_dataset, save_graph, generate_watts_strogatz,
                     generate_erdos_renyi, generate_sbm, relabel_nodes)
from .masks import HopMask, build_mask, build_head_masks, mask_stats
from .autograd import (Tensor, backward, grad_check, no_grad, scratch_tape,
                       sparse_masked_attention,
                       attention_flops, count_attention_flops, ShapeError)
from .model import (ModelConfig, Model, init_model, named_parameters,
                    embed_tokens, encoder_layer, encode, forward, readout,
                    predict_node, predict_graph, save_model, load_model)
from .training import (TrainConfig, RunHistory, TrainingAbort, cross_entropy,
                       mae, adam_step, init_adam_state, split_indices, train,
                       evaluate, prepare_graph)
from .analysis import (SmallWorldReport, FlopReport, clustering_coefficient,
                       avg_shortest_path, small_world_report,
                       dataset_small_world, receptive_field_probe,
                       influence_matrix, flop_count, attention_flop_count,
                       flops_vs_nnz_report)

__all__ = [name for name in dir() if not name.startswith("_")]
