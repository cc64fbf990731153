"""Command-line entry point: reproducible runs over graph JSON files.

Subcommands: gen, augment, masks, train, analyze, flops.  All configuration
comes from JSON files plus a few override flags; no environment variables
affect numerics.  Every input file is read by ``graphs._read_json`` and
checked by ``graphs._json_object``, so every subcommand reports bad input the
same way: ``<path>: invalid JSON at line L, column C: ...``, ``<what> must be
a JSON object, got <type>`` or ``<what> is missing required field '<name>'``,
where ``<what>`` names the file (config sections also refuse unknown fields).
Exit codes: 0 success, 2 usage or input error, 3 runtime abort (non-finite
training loss).  Outputs are byte-identical across reruns with the same
inputs and seed, except for wall-clock fields (the manifest's timestamps and
the history's seconds column).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import flops_vs_nnz_report, small_world_report
from .graphs import (GraphError, _config_from_obj, _json_object, _read_json, _write_json,
                     augment, generate_erdos_renyi, generate_watts_strogatz, graph_to_obj,
                     load_dataset, load_graph)
from .masks import build_head_masks, mask_stats, write_mask_dump
from .model import ModelConfig, init_model, save_model
from .training import TrainConfig, TrainingAbort, train

DEFAULT_HOP_MENU = "1,3,6,12,24,48"
DEFAULT_HOP_CONFIGS = "3,6,12,24;3,3,6,12;3,3,3,6;3,3,3,3"

HOP_NOTE = ("Hop budgets count hops on the augmented token graph, where every "
            "original edge is an extra token: one original-graph hop equals "
            "TWO hops there.")


def _parse_hops(text: str) -> list[int]:
    try:
        hops = [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise ValueError(f"invalid hop list {text!r}; expected comma-separated integers")
    if not hops:
        raise ValueError("hop list is empty")
    return hops


def _parse_hop_configs(text: str) -> list[list[int]]:
    return [_parse_hops(part) for part in text.split(";") if part.strip() != ""]


def _read_dataset(path: str) -> list:
    """The graphs of a dataset file; a file holding none is refused.  Paths
    reach the loaders as ``Path``s, so "[g].json" is read as a file."""
    graphs = load_dataset(Path(path))
    if not graphs:
        raise ValueError(f"{path} holds no graphs")
    return graphs


# seeded results can round differently at another BLAS thread count
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _numeric_build() -> dict:
    """The numpy version, BLAS build and CPU SIMD features seeded results are
    bit-identical within: another build, or a CPU for which the BLAS picks
    other kernels at run time, may round a matrix product differently."""
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    return {"numpy": np.__version__,
            "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
            "cpu_simd": config["SIMD Extensions"]["found"]}


def _config_hash(obj) -> str:
    canonical = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _section(path: str, config_obj, name: str, cls):
    """``cls`` built from section ``name`` of the run config read from ``path``."""
    section = _json_object(f"run config {path}", config_obj, (name,))[name]
    return _config_from_obj(f"run config {path} section '{name}'", section, cls)


# ---------------------------------------------------------------------------
# Subcommand handlers


def cmd_gen(args) -> int:
    if args.model == "ws":
        g = generate_watts_strogatz(args.n, args.k, args.beta, seed=args.seed)
    else:
        g = generate_erdos_renyi(args.n, args.p, seed=args.seed)
    _write_json(args.output, graph_to_obj(g))
    print(f"wrote {args.output}: {g.num_nodes} nodes, {g.num_edges} edges")
    return 0


def cmd_augment(args) -> int:
    ag = augment(load_graph(Path(args.input)))
    obj = {
        "num_node_tokens": ag.num_node_tokens,
        "num_edge_tokens": ag.num_edge_tokens,
        "total_tokens": ag.total_tokens,
        "directed_links": ag.num_directed_links,
        "token_kind": ag.token_kind.tolist(),
        "adjacency": {"indptr": ag.indptr.tolist(), "indices": ag.indices.tolist()},
        "edge_token_origin": ag.edge_token_origin.tolist(),
    }
    _write_json(args.output, obj)
    print(f"wrote {args.output}: T={ag.total_tokens}, "
          f"directed links={ag.num_directed_links}")
    return 0


def cmd_masks(args) -> int:
    ag = augment(load_graph(Path(args.input)))
    hops = _parse_hops(args.hops)
    masks = build_head_masks(ag, hops)
    stats = {}
    for n, mask in sorted({m.hop_budget: m for m in masks}.items()):
        dump_path = f"{args.output}_hop{n}.txt"
        with open(dump_path, "w", encoding="utf-8") as fh:
            write_mask_dump(mask, fh)
        stats[str(n)] = mask_stats(mask)
        print(f"wrote {dump_path}: nnz={mask.nnz}")
    stats_path = f"{args.output}_stats.json"
    _write_json(stats_path, {"hops": hops, "total_tokens": ag.total_tokens,
                             "per_hop": stats})
    print(f"wrote {stats_path}")
    return 0


def cmd_train(args) -> int:
    started = datetime.now(timezone.utc).isoformat()
    config_obj = _read_json(Path(args.config))
    model_cfg = _section(args.config, config_obj, "model", ModelConfig)
    train_cfg = _section(args.config, config_obj, "train", TrainConfig)
    if args.seed is not None:
        model_cfg = replace(model_cfg, seed=args.seed)
        train_cfg = replace(train_cfg, seed=args.seed)

    graphs = _read_dataset(args.input)
    node_task = model_cfg.task == "node_classification"
    if node_task and len(graphs) != 1:
        raise ValueError("node classification expects a single-graph input file")
    model = init_model(model_cfg, graphs[0].node_feature_dim, graphs[0].edge_feature_dim)
    # train augments each graph once and builds its head masks from the config
    model, history = train(model, graphs[0] if node_task else graphs, None, train_cfg)

    # made only now, so a refused run leaves no output directory behind
    os.makedirs(args.output, exist_ok=True)
    checkpoint = os.path.join(args.output, "model.json")
    history_csv = os.path.join(args.output, "history.csv")
    manifest_path = os.path.join(args.output, "manifest.json")
    save_model(model, checkpoint)
    with open(history_csv, "w", encoding="utf-8") as fh:
        history.to_csv(fh)
    manifest = {
        "config_hash": _config_hash(config_obj),
        "seeds": [train_cfg.seed],
        "inputs": [args.input, args.config],
        "tool_version": __version__,
        "numeric_build": {**_numeric_build(), "blas_threads": {
            v: os.environ[v] for v in BLAS_THREAD_VARS if v in os.environ}},
        "started_at": started,
        "finished_at": datetime.now(timezone.utc).isoformat(),
        "artifacts": [checkpoint, history_csv, manifest_path],
    }
    _write_json(manifest_path, manifest)
    best = history.best_epoch if history.best_epoch is not None else -1
    print(f"wrote {checkpoint}, {history_csv}, {manifest_path} "
          f"({len(history)} epochs, best val at epoch {best})")
    return 0


def cmd_analyze(args) -> int:
    graphs = _read_dataset(args.input)
    reports = [small_world_report(g) for g in graphs]
    mean_c = float(np.mean([r.clustering for r in reports]))
    mean_l = float(np.mean([r.avg_path_length for r in reports]))
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write("# schema: graph_index,num_nodes,num_edges,clustering,"
                 "avg_path_length,num_components,diameter_of_largest_component\n")
        fh.write(f"# dataset_mean_clustering={mean_c!r}\n")
        fh.write(f"# dataset_mean_avg_path_length={mean_l!r}\n")
        for i, (g, r) in enumerate(zip(graphs, reports)):
            fh.write(f"{i},{g.num_nodes},{g.num_edges},{r.clustering!r},"
                     f"{r.avg_path_length!r},{r.num_components},"
                     f"{r.diameter_of_largest_component}\n")
    print(f"wrote {args.output}: {len(graphs)} graph(s), "
          f"mean clustering {mean_c:.4f}, mean path length {mean_l:.4f}")
    return 0


def cmd_flops(args) -> int:
    graphs = _read_dataset(args.input)
    cfg = _section(args.config, _read_json(Path(args.config)), "model", ModelConfig)
    hop_configs = _parse_hop_configs(args.hop_configs)
    report = flops_vs_nnz_report(graphs, hop_configs, cfg)
    with open(args.output, "w", encoding="utf-8") as fh:
        report.to_csv(fh)
    print(f"wrote {args.output}: slope={report.slope:.3f}, "
          f"r_squared={report.r_squared:.6f}")
    return 0


# ---------------------------------------------------------------------------
# Parser and dispatch


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="hopformer",
        description="Graph Transformer with head-specific n-hop masked sparse attention.",
        epilog=HOP_NOTE)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a random graph JSON file")
    g.add_argument("--model", choices=["ws", "er"], required=True,
                   help="ws = ring lattice with rewiring, er = G(n, p)")
    g.add_argument("--n", type=int, required=True, help="number of nodes")
    g.add_argument("--k", type=int, default=4, help="ws: neighbours per node (even)")
    g.add_argument("--beta", type=float, default=0.0, help="ws: rewiring probability")
    g.add_argument("--p", type=float, default=0.1, help="er: edge probability")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--output", required=True)
    g.set_defaults(func=cmd_gen)

    a = sub.add_parser("augment", help="write the augmented token graph as JSON")
    a.add_argument("input", help="graph JSON file")
    a.add_argument("--output", required=True)
    a.set_defaults(func=cmd_augment)

    m = sub.add_parser("masks", help="dump n-hop reachability masks and stats",
                       epilog=HOP_NOTE)
    m.add_argument("input", help="graph JSON file")
    m.add_argument("--hops", default=DEFAULT_HOP_MENU,
                   help=f"comma-separated hop budgets (default {DEFAULT_HOP_MENU})")
    m.add_argument("--output", required=True, help="output path prefix")
    m.set_defaults(func=cmd_masks)

    t = sub.add_parser("train", help="train a model from a run-config JSON")
    t.add_argument("input", help="graph or dataset JSON file")
    t.add_argument("--config", required=True,
                   help="run config JSON with 'model' and 'train' sections")
    t.add_argument("--output", required=True, help="output directory")
    t.add_argument("--seed", type=int, default=None, help="override the config seeds")
    t.set_defaults(func=cmd_train)

    an = sub.add_parser("analyze", help="small-world metrics per graph as CSV")
    an.add_argument("input", help="graph or dataset JSON file")
    an.add_argument("--output", required=True)
    an.set_defaults(func=cmd_analyze)

    f = sub.add_parser("flops", help="counted FLOPs vs mask nnz as CSV")
    f.add_argument("input", help="graph or dataset JSON file")
    f.add_argument("--config", required=True,
                   help="run config JSON with a 'model' section")
    f.add_argument("--hop-configs", default=DEFAULT_HOP_CONFIGS,
                   help="semicolon-separated comma lists "
                        f"(default {DEFAULT_HOP_CONFIGS!r})")
    f.add_argument("--output", required=True)
    f.set_defaults(func=cmd_flops)
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except TrainingAbort as e:
        print(f"aborted: {e}", file=sys.stderr)
        return 3
    except (GraphError, ValueError, OSError, KeyError, TypeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def cli_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    cli_entry()
