"""The benchmark's outside-in tracer (bench/tracing.py) names package
functions by module; a refactor that drops or renames one must fail here,
not only in a traced benchmark run."""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import hopformer as hf
from hopformer import autograd as ops

TRACING_PY = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def _traced_names(tracing):
    return [(mod, fn) for mod, fns in tracing.TRACED.items() for fn in fns]


def test_every_traced_name_resolves_in_its_module(tracing):
    missing = [f"{mod}.{fn}" for mod, fn in _traced_names(tracing)
               if not callable(getattr(importlib.import_module(f"hopformer.{mod}"), fn, None))]
    assert missing == []


def test_no_traced_primitive_runs_inside_another(tracing):
    # the per-layer primitive counts assume each traced primitive call is one
    # user-level op, not a nested call of one primitive by another
    g = hf.generate_erdos_renyi(5, 0.6, seed=1)
    graphs = [hf.Graph(num_nodes=g.num_nodes, edges=g.edges,
                       node_features=np.ones((5, 2)), graph_label=i % 2) for i in range(5)]
    cfg = hf.ModelConfig(hidden_dim=8, head_hops=(1, 2), num_layers=1, ffn_dim=8,
                         num_heads=2, dropout=0.1, attention_dropout=0.1,
                         task="graph_classification", num_classes=2)
    masks = [hf.build_head_masks(hf.augment(x), [1, 2]) for x in graphs]
    tracer = tracing.Tracer()
    with tracer.installed("unit"):
        hf.train(hf.init_model(cfg, 2), graphs, masks,
                 hf.TrainConfig(learning_rate=1e-2, epochs=1, batch_size=2))
    spans = tracer.spans
    prims = [s for s in spans if s.name in tracing.PRIMITIVES]
    assert {s.name for s in prims} >= {"autograd.matmul", "autograd.sparse_masked_attention",
                                       "autograd.dropout", "autograd.layer_norm"}
    nested = [s.name for s in prims
              if s.parent is not None and spans[s.parent].name in tracing.PRIMITIVES]
    assert nested == []
    assert getattr(ops.matmul, "__wrapped__", None) is None   # tracer uninstalled


def test_traced_graph_task_train_runs_one_forward_per_batch(tracing):
    # model.forward_useful_ratio divides by the model.forward spans inside
    # train(), so a graph task must keep going through model.forward
    rng = np.random.default_rng(3)
    graphs = [hf.Graph(num_nodes=n, edges=hf.generate_erdos_renyi(n, 0.5, seed=n).edges,
                       node_features=rng.standard_normal((n, 2)), graph_label=n % 2)
              for n in range(2, 12)]
    cfg = hf.ModelConfig(hidden_dim=8, head_hops=(1, 3), num_layers=2, ffn_dim=8,
                         num_heads=2, dropout=0.1, task="graph_classification",
                         num_classes=2)
    tc = hf.TrainConfig(learning_rate=1e-2, epochs=2, batch_size=3)
    tracer = tracing.Tracer()
    with tracer.installed("unit"):
        hf.train(hf.init_model(cfg, 2), graphs, None, tc)
    spans = tracer.spans
    forwards = [s for s in spans if s.name == "model.forward"]
    n_train = hf.split_indices(len(graphs), tc)[0].size
    assert len(forwards) == tc.epochs * (-(-n_train // tc.batch_size) + 2)
    nested = [s.name for s in spans if s.name in tracing.PRIMITIVES
              and s.parent is not None and spans[s.parent].name in tracing.PRIMITIVES]
    assert nested == []
