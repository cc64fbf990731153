"""Seeded boundary fuzz: one input of a small valid run is mutated at a time.

Library half: head-mask lists and datasets given to ``train``, ``evaluate``,
``forward`` and ``flop_count``.  CLI half: fields and entries of the graph
and run-config JSON read by ``hopformer train``, ``flops`` and ``analyze``.
Every case either runs or is refused with a ``GraphError``, ``ShapeError`` or
``ValueError`` (CLI exit 2) whose message names the mutated item; nothing
fails with ``AttributeError``, ``TypeError``, ``ZeroDivisionError`` or a
traceback.  The mutation kinds are enumerated; the graph, head, field and
value each case mutates are drawn from a seeded generator.
"""

import dataclasses
import inspect
import json
import re

import numpy as np
import pytest

import hopformer
from hopformer import (HopMask, ModelConfig, Tensor, TrainConfig, attention_flops, augment,
                       build_head_masks, build_mask, evaluate, flop_count, flops_vs_nnz_report,
                       forward, generate_erdos_renyi, generate_sbm, generate_watts_strogatz,
                       influence_matrix, init_model, load_model, predict_node,
                       receptive_field_probe, save_model, sparse_masked_attention,
                       split_indices, train)
from hopformer import autograd as ops
from hopformer.autograd import ShapeError, scratch_tape
from hopformer.cli import main
from hopformer.graphs import Graph, GraphError

REFUSED = (GraphError, ShapeError, ValueError)
SEEDS = [0, 1, 2]
TRAIN = TrainConfig(learning_rate=1e-2, epochs=1, batch_size=4)


def node_inputs():
    rng = np.random.default_rng(3)
    g = generate_erdos_renyi(10, 0.3, seed=3)
    g = Graph(num_nodes=10, edges=g.edges, node_features=rng.standard_normal((10, 3)),
              node_labels=rng.integers(0, 2, 10))
    cfg = ModelConfig(hidden_dim=8, head_hops=(1, 3), num_layers=1, ffn_dim=16,
                      num_heads=2, task="node_classification", num_classes=2)
    return init_model(cfg, 3), g


def graph_inputs():
    rng = np.random.default_rng(4)
    graphs = []
    for i, n in enumerate([4, 5, 6, 7, 8, 9]):
        g = generate_erdos_renyi(n, 0.5, seed=i)
        graphs.append(Graph(num_nodes=n, edges=g.edges,
                            node_features=rng.standard_normal((n, 2)), graph_label=i % 2))
    cfg = ModelConfig(hidden_dim=8, head_hops=(1, 2), num_layers=1, ffn_dim=16,
                      num_heads=2, task="graph_classification", num_classes=2)
    return init_model(cfg, 2), graphs


def head_masks(model, g):
    return build_head_masks(augment(g), list(model.cfg.head_hops))


def mask_mutations(rng, masks, other):
    """(kind, mutated head-mask list, substring its refusal must hold, or
    None for a list a forward can run)."""
    h = int(rng.integers(len(masks)))
    return [
        ("None", None, "head masks must be a list"),
        ("a string", "masks", "head masks must be a list"),
        ("another graph's masks", other,
         "mask 0 covers" if other[0].size != masks[0].size else None),
        ("one mask too few", masks[:-1], "masks for"),
        ("one mask too many", masks + [masks[h]], "masks for"),
        ("a None entry", masks[:h] + [None] + masks[h + 1:], f"mask {h} is a NoneType"),
        ("a string entry", masks[:h] + ["hop"] + masks[h + 1:], f"mask {h} is a str"),
        ("a tuple", tuple(masks), None),
    ]


def outcome(failures, case, call):
    """None when ``call`` runs, else the refusal's message; any other
    exception is recorded as a failure of ``case``."""
    try:
        with scratch_tape():
            call()
    except REFUSED as e:
        return str(e)
    except Exception as e:
        failures.append(f"{case}: {type(e).__name__}: {e}")
        return f"{type(e).__name__}: {e}"
    return None


def check(failures, case, message, *named):
    """A case given names must be refused, its message holding every one;
    a case given none may run or be refused."""
    if message is None:
        if named:
            failures.append(f"{case}: ran")
    elif not all(n in message for n in named):
        failures.append(f"{case}: {message!r} does not name {named}")


def naming(named, *context):
    """The names a refusal must hold: none for a runnable case."""
    return () if named is None else (*context, named)


@pytest.mark.parametrize("seed", SEEDS)
def test_mutated_head_masks_are_run_or_refused_by_name(seed):
    rng = np.random.default_rng([seed, 41])
    failures = []
    node_model, g = node_inputs()
    graph_model, graphs = graph_inputs()
    masks = [head_masks(graph_model, x) for x in graphs]
    # a node task: its one mask list mutated
    node_masks = head_masks(node_model, g)
    for kind, mutated, named in mask_mutations(rng, node_masks, masks[0]):
        case = f"node task, {kind}"
        named = None if mutated is None else named   # masks=None: built from the config
        for run in (lambda: train(node_model, g, mutated, TRAIN),
                    lambda: evaluate(node_model, g, mutated, np.arange(10))):
            check(failures, case, outcome(failures, case, run), *naming(named, "the graph"))
    # a graph task: graph i's mask list mutated
    i = int(rng.integers(len(graphs)))
    other = masks[(i + 1) % len(graphs)]
    for kind, mutated, named in mask_mutations(rng, masks[i], other):
        case = f"graph task, graph {i}, {kind}"
        lists = masks[:i] + [mutated] + masks[i + 1:]
        for run in (lambda: train(graph_model, graphs, lists, TRAIN),
                    lambda: evaluate(graph_model, graphs, lists, [i])):
            check(failures, case, outcome(failures, case, run), *naming(named, f"graph {i}"))
        # flop_count prices exactly the mask lists a forward can run
        ran = outcome(failures, case,
                      lambda: forward(graph_model, graphs[i], augment(graphs[i]), mutated))
        priced = outcome(failures, case,
                         lambda: flop_count(graph_model.cfg, graphs[i], mutated))
        check(failures, case, ran, *naming(named, "batch graph 0"))
        check(failures, case, priced, *naming(named))
        if (ran is None) != (priced is None):
            failures.append(f"{case}: forward {'ran' if ran is None else 'refused'}, "
                            f"flop_count {'priced it' if priced is None else 'refused'}")
    # a graph task: the whole argument mutated
    for whole, named in [("masks", "take a list of head-mask lists, got str"),
                         (7, "take a list of head-mask lists, got int"),
                         (masks[i], "2 head-mask lists for 6 graphs")]:
        case = f"graph task, masks {whole!r:.40}"
        for run in (lambda: train(graph_model, graphs, whole, TRAIN),
                    lambda: evaluate(graph_model, graphs, whole, [i])):
            check(failures, case, outcome(failures, case, run), named)
    assert not failures, "\n".join(failures)


@pytest.mark.parametrize("seed", SEEDS)
def test_mutated_datasets_are_run_or_refused_by_name(seed):
    rng = np.random.default_rng([seed, 43])
    failures = []
    node_model, g = node_inputs()
    graph_model, graphs = graph_inputs()
    i = int(rng.integers(len(graphs)))
    other = graphs[int(rng.integers(len(graphs)))]
    cases = [
        (node_model, None, "node classification trains on a single Graph"),
        (node_model, "graph", "node classification trains on a single Graph"),
        (node_model, [g], "node classification trains on a single Graph"),
        (graph_model, None, "graph-level tasks train on a list of Graphs"),
        (graph_model, "graphs", "graph-level tasks train on a list of Graphs"),
        (graph_model, graphs[0], "graph-level tasks train on a list of Graphs"),
        (graph_model, graphs[:i] + [None] + graphs[i + 1:], f"graph {i} is a NoneType"),
        (graph_model, graphs[:i] + ["g"] + graphs[i + 1:], f"graph {i} is a str"),
        (graph_model, graphs[:i] + [other] + graphs[i + 1:], None),
    ]
    for model, data, named in cases:
        case = f"{model.cfg.task}, dataset {data!r:.40}"
        for run in (lambda: train(model, data, None, TRAIN),
                    lambda: evaluate(model, data, None, [0])):
            check(failures, case, outcome(failures, case, run), *naming(named))
    for data in (None, "graph", 3):
        case = f"forward and flop_count of {data!r}"
        masks = head_masks(graph_model, graphs[0])
        ran = outcome(failures, case, lambda: forward(graph_model, data, None, masks))
        priced = outcome(failures, case, lambda: flop_count(graph_model.cfg, data, masks))
        check(failures, case, ran, "forward takes a Graph")
        check(failures, case, priced, "flop_count prices a Graph")
    assert not failures, "\n".join(failures)


@pytest.mark.parametrize("seed", SEEDS)
def test_mutated_forward_seeds_and_ids_are_refused_by_name(seed):
    # with dropout, rng_seed -3 and graph_ids [-5] failed inside numpy,
    # rng_seed 1.5 ran as 1, graph_ids 5 raised a bare TypeError and [1.5]
    # was truncated
    rng = np.random.default_rng([seed, 53])
    failures = []
    _, graphs = graph_inputs()
    cfg = ModelConfig(hidden_dim=8, head_hops=(1, 2), num_layers=1, ffn_dim=16, num_heads=2,
                      task="graph_classification", num_classes=2, dropout=0.2,
                      attention_dropout=0.2)
    model = init_model(cfg, 2)
    batch = [graphs[int(i)] for i in rng.choice(len(graphs), 3, replace=False)]
    masks = [head_masks(model, g) for g in batch]
    cases = [
        ("rng_seed 1.5", dict(rng_seed=1.5), "rng_seed"),
        ("rng_seed True", dict(rng_seed=True), "rng_seed"),
        ("rng_seed -3", dict(rng_seed=-3), "rng_seed"),
        ("rng_seed '1'", dict(rng_seed="1"), "rng_seed"),
        ("rng_seed 2.0", dict(rng_seed=2.0), None),
        ("graph_ids 5", dict(rng_seed=1, graph_ids=5), "graph_ids"),
        ("graph_ids [1.5, ...]", dict(rng_seed=1, graph_ids=[1.5, 2, 3]), "graph_ids"),
        ("graph_ids [-5, ...]", dict(rng_seed=1, graph_ids=[-5, 2, 3]), "graph_ids"),
        ("graph_ids [True, ...]", dict(rng_seed=1, graph_ids=[True, 2, 3]), "graph_ids"),
        ("graph_ids 'abc'", dict(rng_seed=1, graph_ids="abc"), "graph_ids"),
        ("graph_ids of floats", dict(rng_seed=1, graph_ids=[4.0, 2.0, 3.0]), None),
    ]
    for kind, kwargs, named in cases:
        case = f"forward, {kind}"
        ran = outcome(failures, case, lambda: forward(model, batch, None, masks, training=True,
                                                      **kwargs))
        check(failures, case, ran, *naming(named))
    assert not failures, "\n".join(failures)


@pytest.mark.parametrize("seed", SEEDS)
def test_mutated_forward_row_sets_are_refused_by_name(seed):
    # forward(rows=...) takes an int r for the first r token rows, or a sorted
    # set of row indices; a bad set is refused naming its entry or shape
    rng = np.random.default_rng([seed, 59])
    failures = []
    _, g = node_inputs()
    cfg = ModelConfig(hidden_dim=8, head_hops=(1, 3), num_layers=2, ffn_dim=16, num_heads=2,
                      task="node_classification", num_classes=2, dropout=0.2,
                      attention_dropout=0.2)
    model = init_model(cfg, 3)
    ag = augment(g)
    masks = head_masks(model, g)
    t = ag.total_tokens
    base = np.sort(rng.choice(np.arange(1, t), 6, replace=False))
    i = int(rng.integers(1, base.size))
    swapped, repeated, outside, fraction, boolean = (base.tolist() for _ in range(5))
    swapped[i - 1], swapped[i] = swapped[i], swapped[i - 1]
    repeated[i] = repeated[i - 1]
    outside[i] = int(rng.choice([-1, t, t + 7]))
    fraction[i] = base[i] + 0.5
    boolean[i] = True
    cases = [
        ("unsorted", swapped, {}, f"rows entry {i} "),
        ("a repeated index", repeated, {}, f"rows entry {i} "),
        ("an index outside the graph", outside, {}, f"rows entry {i} "),
        ("empty", [], {}, "shape (0,)"),
        ("a fraction", fraction, {}, f"at index {i}"),
        ("a boolean", boolean, {}, "boolean"),
        ("a boolean mask", np.arange(t) < 3, {}, "bool"),
        ("2-D", base.reshape(2, 3), {}, "shape (2, 3)"),
        ("not a leading range, training with dropout", base, dict(training=True),
         "rows entry 0 "),
        ("int 0", 0, {}, f"[1, {t}]"),
        ("int past T", t + 1, {}, f"[1, {t}]"),
        ("a set", base, {}, None),
        ("a set of floats", base.astype(float), {}, None),
        ("a leading range, training with dropout", np.arange(i), dict(training=True), None),
        ("every row, training with dropout", np.arange(t), dict(training=True), None),
    ]
    for kind, rows, kwargs, named in cases:
        case = f"forward, rows {kind}"
        ran = outcome(failures, case, lambda: forward(model, g, ag, masks, rows=rows, **kwargs))
        check(failures, case, ran, *naming(named, "rows"))
    case = "forward, rows of a batch of two graphs"
    ran = outcome(failures, case, lambda: forward(model, [g, g], [ag, ag], [masks, masks],
                                                  rows=base))
    check(failures, case, ran, "rows", "batch of 2")
    assert not failures, "\n".join(failures)


# ---------------------------------------------------------------------------
# CLI half

PATH = {"num_nodes": 4, "edges": [[0, 1], [1, 2], [2, 3]], "node_features": [[1.0]] * 4}
CONFIG = {
    "model": {"hidden_dim": 8, "head_hops": [1, 1], "num_layers": 1, "ffn_dim": 16,
              "num_heads": 2, "task": "graph_classification", "num_classes": 2,
              "seed": 0},
    "train": {"learning_rate": 1e-2, "epochs": 1, "batch_size": 2, "seed": 0},
}
# bounded values: no size, count or budget above 2
VALUES = [None, "x", -1, 0, 1, 2, 2.5, True, [], {}, [1], [[0, 1]]]
# what else a refusal may name a config field by: the heads a hop list must
# match, or the default task the field's absence leaves
ALIASES = {"num_heads": ("heads",), "task": ("node classification",)}


def dataset():
    """Five equal 4-node paths, labels alternating: with no layers every
    hop configuration's FLOP total is the same."""
    return [dict(PATH, graph_label=i % 2) for i in range(5)]


def run_cli(tmp_path, capsys, command, graphs, config):
    data, cfg = tmp_path / "data.json", tmp_path / "cfg.json"
    data.write_text(json.dumps(graphs))
    cfg.write_text(json.dumps(config))
    out = tmp_path / f"out-{command}"
    argv = {"train": ["train", str(data), "--config", str(cfg), "--output", str(out)],
            "flops": ["flops", str(data), "--config", str(cfg), "--hop-configs",
                      "1,1;1,2;2,2", "--output", str(out)],
            "analyze": ["analyze", str(data), "--output", str(out)]}[command]
    try:
        code = main(argv)
    except Exception as e:   # main lets it out: the installed command prints a traceback
        code = f"{type(e).__name__}: {e}"
    return code, capsys.readouterr().err


def cli_cases(rng):
    """(label, commands, graphs, config, substrings a refusal must hold)."""
    cases = []
    for section, fields in CONFIG.items():
        commands = ["train", "flops"] if section == "model" else ["train"]
        for field in fields:
            # 0 is every field's boundary; num_layers 0 makes the FLOP totals equal
            for value in [0] + [VALUES[k] for k in rng.choice(len(VALUES), 3, replace=False)]:
                config = json.loads(json.dumps(CONFIG))
                config[section][field] = value
                cases.append((f"{section}.{field} = {value!r}", commands, dataset(),
                              config, (field,) + ALIASES.get(field, ())))
            config = json.loads(json.dumps(CONFIG))
            del config[section][field]
            cases.append((f"{section}.{field} deleted", commands, dataset(), config,
                          (field,) + ALIASES.get(field, ())))
    for field in ["num_nodes", "edges", "node_features", "graph_label"]:
        i = int(rng.integers(5))
        for k in rng.choice(len(VALUES), 3, replace=False).tolist():
            graphs = dataset()
            graphs[i][field] = VALUES[k]
            cases.append((f"graph {i} {field} = {VALUES[k]!r}", ["train", "flops", "analyze"],
                          graphs, CONFIG, (f"graph {i}",)))
    i = int(rng.integers(5))
    for k in rng.choice(len(VALUES), 2, replace=False).tolist():
        graphs = dataset()
        graphs[i] = VALUES[k]
        cases.append((f"graph {i} = {VALUES[k]!r}", ["train", "flops", "analyze"], graphs,
                      CONFIG, (f"graph {i}",)))
    return cases


@pytest.mark.parametrize("seed", SEEDS)
def test_mutated_json_exits_zero_or_two_naming_the_item(tmp_path, capsys, seed):
    failures = []
    for label, commands, graphs, config, named in cli_cases(np.random.default_rng([seed, 47])):
        for command in commands:
            code, err = run_cli(tmp_path, capsys, command, graphs, config)
            if code not in (0, 2) or "Traceback" in err:
                failures.append(f"{command}, {label}: exit {code}: {err!r}")
            elif code == 2 and not (err.startswith("error: ")
                                    and any(n in err for n in named)):
                failures.append(f"{command}, {label}: {err!r} does not name {named}")
    assert not failures, "\n".join(failures)


# ---------------------------------------------------------------------------
# Checkpoints: one field or parameter of a saved model's JSON mutated


def checkpoint_mutations(rng, obj):
    """(kind, mutate(obj) in place, names of which a refusal must hold one,
    or None for a checkpoint that may load)."""
    cases = []
    for field in ("magic", "config", "d_v", "d_e", "params"):
        cases.append((f"{field} dropped", lambda o, f=field: o.pop(f), (field,)))
        cases.append((f"{field} renamed", lambda o, f=field: o.update({f + "_": o.pop(f)}),
                      (field,)))
    for field, values in [("magic", [2, None, ["HOPFORMER2"]]), ("config", [[], "config", 1]),
                          ("d_v", ["3", 2.5, True, -1, 0, None, [3]]),
                          ("d_e", ["2", 0.5, True, -1, None, {}]),
                          ("params", [[], "params", None])]:
        for value in values:
            cases.append((f"{field} = {value!r}", lambda o, f=field, v=value: o.update({f: v}),
                          (field,)))
    cfg = obj["config"]
    field = list(cfg)[int(rng.integers(len(cfg)))]
    # a config field whose default is its saved value may be dropped
    default = {f.name: f.default for f in dataclasses.fields(ModelConfig)}.get(field)
    cases.append((f"config field {field} dropped", lambda o: o["config"].pop(field),
                  None if default == cfg[field] else (field, *ALIASES.get(field, ()))))
    cases.append((f"config field {field} renamed",
                  lambda o: o["config"].update({field + "_": o["config"].pop(field)}),
                  (field + "_",)))
    for value in [2.5, True, "1", None, []]:
        cases.append((f"config field {field} = {value!r}",
                      lambda o, v=value: o["config"].update({field: v}), (field,)))
    params = obj["params"]
    name = list(params)[int(rng.integers(len(params)))]
    rows = params[name]
    i, j = (int(rng.integers(n)) for n in (len(rows), len(rows[0])))
    nan = [list(r) for r in rows]
    nan[i][j] = float("nan")
    cases += [
        (f"param {name} dropped", lambda o: o["params"].pop(name), (name,)),
        (f"param {name} renamed", lambda o: o["params"].update({name + "_": o["params"].pop(name)}),
         (name,)),
    ]
    for kind, value, named in [
            ("a string", "x", (name,)), ("a numeric string", "0.5", (name,)),
            ("strings", [[str(x) for x in r] for r in rows], None),
            ("ragged", [r[:1] if k == i else r for k, r in enumerate(rows)] if len(rows[0]) > 1
             else rows + [[0.0, 0.0]], (name,)),
            ("nested", [[r] for r in rows], (name,)),
            ("an object", {"a": 1}, (name,)),
            ("None", None, (name,)),
            ("a boolean", True, (name,)),
            ("booleans", [[True] * len(r) for r in rows], None),
            ("NaN at an entry", nan, (name,))]:
        cases.append((f"param {name} {kind}", lambda o, v=value: o["params"].update({name: v}),
                      named))
    return cases


@pytest.mark.parametrize("seed", SEEDS)
def test_mutated_checkpoints_are_loaded_or_refused_by_name(tmp_path, seed):
    # a parameter given as a string, a ragged list or an object failed with
    # numpy's conversion errors or a bare TypeError, naming no parameter
    rng = np.random.default_rng([seed, 61])
    failures = []
    model, _ = node_inputs()
    model = init_model(model.cfg, 3, 2)
    path = tmp_path / "model.json"
    save_model(model, str(path))
    saved = path.read_text()
    for kind, mutate, named in checkpoint_mutations(rng, json.loads(saved)):
        obj = json.loads(saved)
        mutate(obj)
        path.write_text(json.dumps(obj))
        case = f"checkpoint, {kind}"
        message = outcome(failures, case, lambda: load_model(str(path)))
        if named is not None and message is None:
            failures.append(f"{case}: loaded")
        elif named is not None and not any(n in message for n in named):
            failures.append(f"{case}: {message!r} does not name {named}")
    assert not failures, "\n".join(failures)


# ---------------------------------------------------------------------------
# Count and rate arguments: every public one fed the same bad values

SWEEP = [-1, 0, 2.5, True, "1", None]


def sweep_table():
    """{"<function or class>.<argument>": (call taking the value, the reprs
    of the SWEEP values it runs on, names of which a refusal holds one)}.
    Every other SWEEP value must be refused."""
    node_model, g = node_inputs()
    graph_model, graphs = graph_inputs()
    ag, masks = augment(g), head_masks(node_model, g)
    cfg = dict(hidden_dim=8, head_hops=(1, 2), num_layers=1, ffn_dim=16, num_heads=2,
               task="graph_classification", num_classes=2)
    four, h = Tensor(np.ones((4, 2))), Tensor(np.ones((10, 8)))
    q = Tensor(np.ones((ag.total_tokens, 2)))
    table = {}
    for name in ("hidden_dim", "ffn_dim", "num_heads", "num_classes", "output_dim"):
        table[f"ModelConfig.{name}"] = (
            lambda v, n=name: ModelConfig(**dict(cfg, **{n: v})), (), (name,))
    for name in ("num_layers", "seed", "dropout", "attention_dropout"):
        table[f"ModelConfig.{name}"] = (
            lambda v, n=name: ModelConfig(**dict(cfg, **{n: v})), ("0",), (name,))
    table["ModelConfig.head_hops"] = (
        lambda v: ModelConfig(**dict(cfg, head_hops=(v, 1))), ("0",), ("head_hops entry 0",))
    train_cfg = dict(learning_rate=1e-2, epochs=1)
    for name, runs in [("epochs", ("0",)), ("batch_size", ()), ("seed", ("0",)),
                       ("early_stop_patience", ("0",)), ("learning_rate", ("0", "2.5")),
                       ("weight_decay", ("-1", "0", "2.5"))]:
        table[f"TrainConfig.{name}"] = (
            lambda v, n=name: TrainConfig(**dict(train_cfg, **{n: v})), runs, (name,))
    for name in ("train_frac", "val_frac", "test_frac"):
        table[f"TrainConfig.{name}"] = (
            lambda v, n=name: TrainConfig(**dict(train_cfg, **{n: v})), (),
            (name, "split fractions"))
    table["HopMask.hop_budget"] = (lambda v: HopMask(v, 1, [0, 1], [0]), ("0",),
                                   ("mask hop_budget",))
    table["HopMask.size"] = (lambda v: HopMask(0, v, [0], []), ("0",), ("mask size",))
    table["Graph.num_nodes"] = (
        lambda v: Graph(num_nodes=v, edges=np.zeros((0, 2)), node_features=np.zeros((0, 1))),
        ("0",), ("num_nodes",))
    table["Graph.graph_label"] = (
        lambda v: Graph(num_nodes=1, edges=np.zeros((0, 2)), node_features=[[1.0]],
                        graph_label=v), ("-1", "0", "2.5", "None"), ("graph_label",))
    table.update({
        "generate_erdos_renyi.n": (lambda v: generate_erdos_renyi(v, 0.5), (), ("n",)),
        "generate_erdos_renyi.p": (lambda v: generate_erdos_renyi(4, v), ("0",), ("p",)),
        "generate_erdos_renyi.seed": (lambda v: generate_erdos_renyi(4, 0.5, v), ("0",),
                                      ("seed",)),
        "generate_watts_strogatz.n": (lambda v: generate_watts_strogatz(v, 2, 0.1), (), ("n",)),
        "generate_watts_strogatz.k": (lambda v: generate_watts_strogatz(6, v, 0.1), (), ("k",)),
        "generate_watts_strogatz.beta": (lambda v: generate_watts_strogatz(6, 2, v), ("0",),
                                         ("beta",)),
        "generate_watts_strogatz.seed": (lambda v: generate_watts_strogatz(6, 2, 0.1, v),
                                         ("0",), ("seed",)),
        "generate_sbm.sizes": (lambda v: generate_sbm([v, 3], 0.5, 0.1), ("0",), ("sizes",)),
        "generate_sbm.p_in": (lambda v: generate_sbm([3, 3], v, 0.1), ("0",), ("p_in",)),
        "generate_sbm.p_out": (lambda v: generate_sbm([3, 3], 0.5, v), ("0",), ("p_out",)),
        "generate_sbm.seed": (lambda v: generate_sbm([3, 3], 0.5, 0.1, v), ("0",), ("seed",)),
        "split_indices.n": (lambda v: split_indices(v, TRAIN), ("0",), ("n",)),
        "init_model.d_v": (lambda v: init_model(graph_model.cfg, v), (), ("d_v",)),
        "init_model.d_e": (lambda v: init_model(graph_model.cfg, 2, v), ("0",), ("d_e",)),
        "forward.rng_seed": (lambda v: forward(node_model, g, None, masks, rng_seed=v),
                             ("0", "None"), ("rng_seed",)),
        "forward.graph_ids": (lambda v: forward(graph_model, graphs[:1], None,
                                                [head_masks(graph_model, graphs[0])],
                                                graph_ids=[v]), ("0",), ("graph_ids",)),
        "forward.rows": (lambda v: forward(node_model, g, None, masks, rows=v), ("None",),
                         ("rows",)),
        "predict_node.num_nodes": (lambda v: predict_node(node_model, h, v), ("0",),
                                   ("num_nodes",)),
        "row_slice.start": (lambda v: ops.row_slice(four, v, 3), ("0",), ("start", "row slice")),
        "row_slice.stop": (lambda v: ops.row_slice(four, 0, v), ("0",), ("stop", "row slice")),
        "split_cols.n": (lambda v: ops.split_cols(four, v), (), ("n",)),
        "influence_matrix.head": (lambda v: influence_matrix(node_model, masks, head=v),
                                  ("0", "None"), ("head",)),
        "influence_matrix.seed": (lambda v: influence_matrix(node_model, masks, seed=v),
                                  ("0",), ("seed",)),
        "receptive_field_probe.token": (lambda v: receptive_field_probe(node_model, masks, v),
                                        ("0",), ("token",)),
        "dropout.rate": (lambda v: ops.dropout(four, v, 0, True), ("0",), ("dropout rate",)),
        "sparse_masked_attention.dropout_rate": (
            lambda v: sparse_masked_attention(q, q, q, masks[0], dropout_rate=v, training=True),
            ("0",), ("dropout rate",)),
        "attention_flops.nnz": (lambda v: attention_flops(v, 2), ("0",), ("nnz",)),
        "attention_flops.head_dim": (lambda v: attention_flops(4, v), (), ("head_dim",)),
        "build_mask.n": (lambda v: build_mask(ag, v), ("0",), ("hop budget",)),
        "build_head_masks.hops": (lambda v: build_head_masks(ag, [v, 1]), ("0",),
                                  ("hop budget 0",)),
        "flops_vs_nnz_report.hop_configs": (
            lambda v: flops_vs_nnz_report(graphs[:1], [[v, 1], [1, 1], [2, 2]],
                                          graph_model.cfg), ("0",), ("head_hops entry 0",)),
    })
    return table


def test_every_count_and_rate_argument_runs_or_is_refused_by_name():
    # predict_node's num_nodes and row_slice's bounds read True as 1 and
    # raised a bare TypeError on 2.5 or "3"; a dropout rate of "0.5" or None
    # raised a bare TypeError, and False ran as rate 0
    failures = []
    for arg, (call, runs, names) in sweep_table().items():
        for value in SWEEP:
            case = f"{arg} = {value!r}"
            message = outcome(failures, case, lambda: call(value))
            if repr(value) in runs:
                if message is not None:
                    failures.append(f"{case}: refused: {message}")
            elif message is None:
                failures.append(f"{case}: ran")
            elif not any(re.search(rf"\b{re.escape(n)}\b", message) for n in names):
                failures.append(f"{case}: {message!r} does not name {names}")
    assert not failures, "\n".join(failures)


def int_parameters() -> set[str]:
    """"<function or class>.<parameter>" for each int-annotated parameter of
    the public functions of ``hopformer`` and ``hopformer.autograd``, and
    each int-annotated field of the public dataclasses that check their
    fields on construction (those with a ``__post_init__``).  Annotations
    are strings under ``from __future__ import annotations``."""
    found = set()
    for module in (hopformer, ops):
        for name in getattr(module, "__all__", None) or dir(module):
            obj = getattr(module, name)
            if name.startswith("_") or getattr(obj, "__module__", "").split(".")[0] != "hopformer":
                continue
            if inspect.isfunction(obj):
                params = [(p.name, p.annotation)
                          for p in inspect.signature(obj).parameters.values()]
            elif dataclasses.is_dataclass(obj) and hasattr(obj, "__post_init__"):
                params = [(f.name, f.type) for f in dataclasses.fields(obj)]
            else:
                continue
            found.update(f"{obj.__name__}.{p}" for p, note in params
                         if isinstance(note, str) and re.search(r"\bint\b", note))
    return found


def test_the_sweep_table_covers_every_int_argument():
    found = int_parameters()
    assert {"ModelConfig.hidden_dim", "split_indices.n", "row_slice.start"} <= found
    assert not found - set(sweep_table()), sorted(found - set(sweep_table()))
