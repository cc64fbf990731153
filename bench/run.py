#!/usr/bin/env python3
"""hopformer benchmark: seeded training workloads, checked outputs, end-to-end
metrics, and a traced run for per-layer metrics.

    python3 bench/run.py --workload sbm_node --seed 0 --seconds 25 --trace 0

Run from the repository root; the package is imported from ``src/``.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``.
The line before it records the environment and sample counts.  See
bench/README.md for the workloads, metrics and how to compare two commits.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from pace import PACE_NOMINAL_S, PacedTimer
from tracing import PRIMITIVES, TRACED, SpanIndex, Tracer
from workloads import (WORKLOADS, dense_attention_oracle, make_inputs,
                       reference_row_counts)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
clock = time.perf_counter

MIN_UNITS = 3          # medians of set-up, epoch and run time need several units
SELF_SUM_RTOL = 1e-3   # the timer and the tracer's own wrapper around train()
ORACLE_TOL = 1e-10     # acceptance-01 tolerance for kernel vs masked dense oracle
REPLAY_REPEATS = 5
CHILD_TIMEOUT_S = 150


def import_program():
    """Import hopformer from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import hopformer
    where = Path(hopformer.__file__).resolve().parent
    if where != (SRC / "hopformer").resolve():
        raise ImportError(f"hopformer imported from {where}, not from {SRC}")
    return hopformer


# ---------------------------------------------------------------------------
# Environment


def _blas_threads():
    maps = Path("/proc/self/maps")
    if not maps.exists():
        return None
    libs = {line.split()[-1] for line in maps.read_text().splitlines()
            if "blas" in line.lower() and line.split()[-1].startswith("/")}
    names = ("openblas_get_num_threads", "openblas_get_num_threads64_",
             "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads")
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for name in names:
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_sha():
    if not (ROOT / ".git").exists():
        return None
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                         text=True, timeout=30)
    return out.stdout.strip() or None


def _src_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((SRC / "hopformer").rglob("*.py")):
        h.update(p.relative_to(SRC).as_posix().encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# Failure accounting


@dataclass
class Ledger:
    """Operations attempted and failed; an operation fails if it raises or
    any check on its output fails."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{what}: {'; '.join(problems)}")


# ---------------------------------------------------------------------------
# One unit of work: what a user does with the workload's inputs


@dataclass
class Unit:
    # Times at the reference pace (pace.py); ``raw`` holds the same in wall seconds.
    setup_s: float
    epoch_s: float
    eval_s: list
    run_s: float
    raw: dict
    masks: list          # per-graph lists of head masks
    model: object
    losses: list
    test_metric_at_best: float | None
    eval_results: list
    train_acc: float | None = None
    cli: dict | None = None


class Bench:
    def __init__(self, hf, wl, seed: int, ledger: Ledger):
        self.hf, self.wl, self.seed, self.ledger = hf, wl, seed, ledger
        self.data, self.model_cfg, self.train_cfg, self.d_v = make_inputs(hf, wl, seed)
        self.node_task = wl.task == "node_classification"
        self.graphs = [self.data] if self.node_task else list(self.data)
        n_items = self.data.num_nodes if self.node_task else len(self.data)
        self.idx_train, _, self.idx_test = hf.split_indices(n_items, self.train_cfg)
        self.work = WORK_ROOT / f"{wl.name}-{seed}-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        self.children = 0
        self.cli_paths = None
        self.reference = None
        self.first_unit: Unit | None = None

    # -- set-up, as the library and the train command do it ---------------

    def setup(self):
        hf, hops = self.hf, list(self.wl.head_hops)
        mask_sets = [hf.build_head_masks(hf.augment(g), hops) for g in self.graphs]
        model = hf.init_model(self.model_cfg, self.d_v)
        return mask_sets, model

    def _masks_arg(self, mask_sets):
        return mask_sets[0] if self.node_task else mask_sets

    def _evaluate_repeatedly(self, timer, model, mask_sets):
        raw, paced, results = [], [], []
        for _ in range(self.wl.evals):
            r, wall, at_pace = timer.time(self.hf.evaluate, model, self.data,
                                          self._masks_arg(mask_sets), self.idx_test)
            results.append(r)
            raw.append(wall)
            paced.append(at_pace)
        return raw, paced, results

    def unit_in_process(self) -> Unit:
        timer = PacedTimer()
        (mask_sets, model), setup_raw, setup_s = timer.time(self.setup)
        (model, history), train_raw, train_s = timer.time(
            self.hf.train, model, self.data, self._masks_arg(mask_sets), self.train_cfg)
        eval_raw, eval_s, results = self._evaluate_repeatedly(timer, model, mask_sets)
        epochs = max(len(history), 1)
        best = history.best_epoch
        return Unit(setup_s=setup_s, epoch_s=train_s / epochs, eval_s=eval_s,
                    run_s=setup_s + train_s + sum(eval_s),
                    raw={"setup_s": setup_raw, "epoch_s": train_raw / epochs,
                         "eval_s": eval_raw, "run_s": setup_raw + train_raw + sum(eval_raw)},
                    masks=mask_sets, model=model,
                    losses=list(history.train_loss),
                    test_metric_at_best=None if best is None else history.test_metric[best],
                    eval_results=results)

    # -- the CLI path: fresh interpreters through hopformer.cli.main -----------

    def write_cli_inputs(self):
        if self.cli_paths is not None:
            return self.cli_paths
        data_path = self.work / "dataset.json"
        objs = [self.hf.graphs.graph_to_obj(g) for g in self.graphs]
        data_path.write_text(json.dumps(objs[0] if self.node_task else objs))
        cfg = self.model_cfg
        config = {
            "model": {"hidden_dim": cfg.hidden_dim, "head_hops": list(cfg.head_hops),
                      "num_layers": cfg.num_layers, "ffn_dim": cfg.ffn_dim,
                      "num_heads": cfg.num_heads, "task": cfg.task,
                      "num_classes": cfg.num_classes, "seed": cfg.seed},
            "train": {"learning_rate": self.train_cfg.learning_rate,
                      "epochs": self.train_cfg.epochs,
                      "batch_size": self.train_cfg.batch_size,
                      "seed": self.train_cfg.seed,
                      "early_stop_patience": self.train_cfg.early_stop_patience},
        }
        config_path = self.work / "config.json"
        config_path.write_text(json.dumps(config))
        self.cli_paths = (data_path, config_path)
        return self.cli_paths

    def run_cli(self, argv: list[str], traced: bool) -> dict:
        self.children += 1
        report = self.work / f"child-{self.children}.json"
        cmd = [sys.executable, str(BENCH / "cli_child.py"), str(report),
               "1" if traced else "0", "--", *argv]
        spawned = time.monotonic()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        wall = time.monotonic() - spawned
        rep = json.loads(report.read_text()) if report.exists() else {}
        # The child takes its own pace probes, inside the measured wall time.
        probes = rep.get("pace")
        raw = wall - sum(probes) if probes else wall
        return {"raw_s": raw,
                "paced_s": raw * PACE_NOMINAL_S / statistics.mean(probes) if probes else raw,
                "startup_s": rep.get("main_at", spawned) - spawned,
                "exit": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr,
                "spans": rep.get("spans", [])}

    def cli_leg(self, traced: bool, tag: str) -> dict:
        """`hopformer analyze` then `hopformer train`, one after the other."""
        data_path, config_path = self.write_cli_inputs()
        out_dir = self.work / f"run-{tag}"
        analyze = self.run_cli(["analyze", str(data_path), "--output",
                                str(self.work / f"smallworld-{tag}.csv")], traced)
        train = self.run_cli(["train", str(data_path), "--config", str(config_path),
                              "--output", str(out_dir)], traced)
        return {"analyze": analyze, "train": train, "out_dir": out_dir,
                "csv": self.work / f"smallworld-{tag}.csv",
                "run_s": analyze["paced_s"] + train["paced_s"],
                "raw_run_s": analyze["raw_s"] + train["raw_s"],
                "train_scale": train["paced_s"] / train["raw_s"],
                "startup_s": analyze["startup_s"] + train["startup_s"]}

    def unit_cli(self, traced: bool, tag: str) -> Unit:
        # Set-up is timed before the CLI leg: right after waiting for a child,
        # this process runs slow for a while, and so would its pace probe.
        timer = PacedTimer()
        (mask_sets, _), setup_raw, setup_s = timer.time(self.setup)
        leg = self.cli_leg(traced, tag)
        losses, seconds, tests = [], [], []
        history_csv = leg["out_dir"] / "history.csv"
        if history_csv.exists():
            for line in history_csv.read_text().splitlines()[1:]:
                _, loss, _, test, sec = line.split(",")
                losses.append(float(loss))
                tests.append(float(test))
                seconds.append(float(sec))
        checkpoint = leg["out_dir"] / "model.json"
        model = self.hf.load_model(str(checkpoint)) if checkpoint.exists() else None
        eval_raw, eval_s, results = ([], [], []) if model is None else \
            self._evaluate_repeatedly(timer, model, mask_sets)
        best = _best_epoch(leg["train"]["stdout"])
        # Epoch times come from the child's history; the train command's
        # section sets their pace.
        epoch_raw = sum(seconds) / max(len(seconds), 1)
        return Unit(setup_s=setup_s, epoch_s=epoch_raw * leg["train_scale"],
                    eval_s=eval_s, run_s=leg["run_s"],
                    raw={"setup_s": setup_raw, "epoch_s": epoch_raw, "eval_s": eval_raw,
                         "run_s": leg["raw_run_s"]},
                    masks=mask_sets, model=model,
                    losses=losses,
                    test_metric_at_best=tests[best] if best is not None and best < len(tests)
                    else None,
                    eval_results=results, cli=leg)

    def unit(self, tag: str, tracer: Tracer | None = None) -> Unit:
        if self.wl.via_cli:
            u = self.unit_cli(traced=tracer is not None, tag=tag)
            if tracer is not None:
                for cmd in ("analyze", "train"):
                    tracer.extend(u.cli[cmd]["spans"], run_id=tag)
        elif tracer is not None:
            with tracer.installed(tag):
                u = self.unit_in_process()
        else:
            u = self.unit_in_process()
        self.check_unit(u, tag)
        return u

    # -- output checks ---------------------------------------------------

    def check_unit(self, u: Unit, tag: str) -> None:
        wl, rec = self.wl, self.ledger.record
        if self.reference is None:
            self.reference = [reference_row_counts(self.hf.augment(g), wl.head_hops)
                              for g in self.graphs]
        problems = []
        for gi, (masks, ref) in enumerate(zip(u.masks, self.reference)):
            for h, mask in enumerate(masks):
                if mask.nnz != int(ref[h].sum()):
                    problems.append(f"graph {gi} head {h}: nnz {mask.nnz} != {int(ref[h].sum())}")
                elif not np.array_equal(np.diff(mask.indptr), ref[h]):
                    problems.append(f"graph {gi} head {h}: row counts differ from reference")
        rec(f"{tag} set-up", problems[:5])

        problems = []
        if wl.via_cli:
            for cmd in ("analyze", "train"):
                c = u.cli[cmd]
                if c["exit"] != 0:
                    problems.append(f"{cmd} exited {c['exit']}: {c['stderr'].strip()[-300:]}")
            rows = [ln for ln in u.cli["csv"].read_text().splitlines()
                    if ln and not ln.startswith("#")] if u.cli["csv"].exists() else []
            if len(rows) != len(self.graphs):
                problems.append(f"analyze wrote {len(rows)} rows for {len(self.graphs)} graphs")
        if len(u.losses) != wl.epochs:
            problems.append(f"{len(u.losses)} epochs completed, {wl.epochs} requested")
        if not all(math.isfinite(x) for x in u.losses):
            problems.append(f"non-finite training loss {u.losses}")
        elif u.losses and u.losses[-1] > wl.loss_ceiling:
            problems.append(f"final train loss {u.losses[-1]:.4f} > {wl.loss_ceiling}")
        elif u.losses and u.losses[-1] >= u.losses[0]:
            problems.append(f"training loss did not fall: {u.losses[0]:.4f} -> {u.losses[-1]:.4f}")
        if u.model is not None:
            u.train_acc = self.hf.evaluate(u.model, self.data, self._masks_arg(u.masks),
                                           self.idx_train)
            if wl.train_acc_floor is not None and u.train_acc < wl.train_acc_floor:
                problems.append(f"train accuracy {u.train_acc:.4f} < {wl.train_acc_floor}")
        else:
            problems.append("no trained model")
        if self.first_unit is not None and u.losses != self.first_unit.losses:
            problems.append("training is not deterministic across units")
        rec(f"{tag} train", problems)

        first = self.first_unit.eval_results[0] if self.first_unit else None
        for r in u.eval_results:
            problems = []
            if r != u.test_metric_at_best:
                problems.append(f"evaluate gives {r}, history recorded {u.test_metric_at_best}")
            if first is not None and r != first:
                problems.append(f"evaluate gives {r}, first unit gave {first}")
            rec(f"{tag} evaluate", problems)
        if not u.eval_results:
            rec(f"{tag} evaluate", ["no evaluate call ran"])
        if self.first_unit is None:
            self.first_unit = u
        else:
            u.masks = u.model = None   # keep memory flat however many units run

    def check_kernel(self, mask_sets) -> None:
        """sparse_masked_attention vs a masked dense oracle on every real mask."""
        hf = self.hf
        rng = np.random.default_rng([self.seed, 11])
        d_h = self.model_cfg.head_dim
        for gi, masks in enumerate(mask_sets):
            for h, mask in enumerate({id(m): m for m in masks}.values()):
                q, k, v = (rng.standard_normal((mask.size, d_h)) for _ in range(3))
                with hf.scratch_tape():
                    got = hf.sparse_masked_attention(hf.Tensor(q), hf.Tensor(k),
                                                     hf.Tensor(v), mask).values
                err = float(np.abs(got - dense_attention_oracle(q, k, v, mask)).max())
                self.ledger.record(f"oracle graph {gi} hop {mask.hop_budget}",
                                   [] if err <= ORACLE_TOL else [f"max abs error {err:.3e}"])


def _best_epoch(stdout: str):
    marker = "best val at epoch "
    if marker not in stdout:
        return None
    return int(stdout.split(marker)[1].split(")")[0])


# ---------------------------------------------------------------------------
# Timed runs


def run_units(bench: Bench, seconds: float, traced: bool):
    """Units until the next would end past the deadline (at least MIN_UNITS,
    or one untraced/traced pair in a traced run).  A unit that raises, such
    as a TrainingAbort, is a failed operation and ends the loop."""
    deadline = clock() + seconds
    plain, traced_units = [], []
    tracer = Tracer() if traced else None
    try:
        if traced:
            # The first unit of a process runs cold (allocator growth, first
            # calls); with one untraced/traced pair it would bias the overhead.
            bench.unit("warmup")
        while True:
            t0 = clock()
            plain.append(bench.unit(f"plain{len(plain)}"))
            if traced:
                traced_units.append(bench.unit(f"unit{len(traced_units)}", tracer))
            took = clock() - t0
            enough = len(plain) >= (1 if traced else MIN_UNITS)
            if enough and clock() + took > deadline:
                break
    except Exception as e:   # the program failed; the ledger reports it
        bench.ledger.record("unit", [f"{type(e).__name__}: {e}"])
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
    return plain, traced_units, tracer


def peak_rss_mb(include_children: bool) -> float:
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def end_to_end(bench: Bench, units: list[Unit], rss: float) -> dict:
    evals = [t for u in units for t in u.eval_s]
    return {
        "setup_s": statistics.median(u.setup_s for u in units),
        "epoch_s": statistics.median(u.epoch_s for u in units),
        "eval_s.p50": statistics.median(evals),
        "eval_s.p90": statistics.quantiles(evals, n=10)[8],
        "run_s": statistics.median(u.run_s for u in units),
        "peak_rss_mb": rss,
    }


# ---------------------------------------------------------------------------
# Traced run: per-layer metrics


def _train_phase(idx: SpanIndex, epochs: int) -> tuple[dict, float]:
    """Per-layer numbers inside the one train() call of a traced unit, and
    the sum of every module's self time there.  Times are per epoch; counts
    are totals for the call."""
    spans = idx.spans
    trains = idx.named("training.train")
    if len(trains) != 1:
        raise RuntimeError(f"expected one train() span, found {len(trains)}")
    train = trains[0]
    sub = idx.subtree(train)

    def of(name):
        return [i for i in sub if spans[i].name == name]

    def per_epoch(name):
        return idx.total(of(name)) / epochs

    def self_of(module):
        return sum(idx.self_time[i] for i in sub
                   if spans[i].name.startswith(module + ".")) / epochs

    forwards = of("model.forward")
    train_s = spans[train].duration
    evaluate_s = idx.total(of("training.evaluate"))
    return {
        "autograd.matmul_s": per_epoch("autograd.matmul"),
        "autograd.matmul_calls": len(of("autograd.matmul")),
        "autograd.layer_norm_s": per_epoch("autograd.layer_norm"),
        "autograd.attention_s": per_epoch("autograd.sparse_masked_attention"),
        "autograd.backward_s": per_epoch("autograd.backward"),
        "autograd.primitive_calls": sum(1 for i in sub if spans[i].name in PRIMITIVES),
        "autograd.self_s": self_of("autograd"),
        "model.forward_s": per_epoch("model.forward"),
        "model.forward_calls": len(forwards),
        "model.forward_useful_ratio": len({spans[i].key for i in forwards}) / len(forwards),
        "model.embed_s": per_epoch("model.embed_tokens"),
        "model.encoder_layer_s": per_epoch("model.encoder_layer"),
        "model.self_s": self_of("model"),
        "graphs.augment_calls": len(of("graphs.augment")),
        "graphs.self_s": self_of("graphs"),
        "training.epoch_s": train_s / epochs,
        "training.evaluate_s": evaluate_s / epochs,
        "training.adam_step_s": per_epoch("training.adam_step"),
        "training.step_s": (train_s - evaluate_s) / epochs,
        "training.self_s": self_of("training"),
    }, sum(self_of(m) for m in TRACED)


def _cli_phase(idx: SpanIndex, leg: dict) -> dict:
    def total(*names):
        return sum(idx.total(idx.named(n)) for n in names)

    return {
        "graphs.load_dataset_s": total("graphs.load_dataset"),
        "analysis.small_world_s": total("analysis.small_world_report",
                                        "analysis.dataset_small_world"),
        "model.save_model_s": total("model.save_model"),
        "cli.startup_s": leg["startup_s"],
        "cli.train_cmd_s": total("cli.cmd_train"),
    }


def replay_attention(bench: Bench) -> dict:
    """Forward and backward(sum_all(.)) of the kernel alone, per head, on the
    workload's real masks and shapes; medians of REPLAY_REPEATS passes."""
    hf = bench.hf
    mask_sets = bench.first_unit.masks
    d_h = bench.model_cfg.head_dim
    rng = np.random.default_rng([bench.seed, 13])
    out = {}
    for h in range(bench.model_cfg.num_heads):
        fwd, bwd = [], []
        for _ in range(REPLAY_REPEATS):
            f_total = b_total = 0.0
            for masks in mask_sets:
                mask = masks[h]
                q, k, v = (hf.Tensor(rng.standard_normal((mask.size, d_h)), requires_grad=True)
                           for _ in range(3))
                with hf.scratch_tape():
                    t0 = clock()
                    y = hf.sparse_masked_attention(q, k, v, mask)
                    t1 = clock()
                    hf.backward(hf.autograd.sum_all(y))
                    t2 = clock()
                f_total += t1 - t0
                b_total += t2 - t1
            fwd.append(f_total)
            bwd.append(b_total)
        out[f"autograd.attn_fwd_s.h{h}"] = statistics.median(fwd)
        out[f"autograd.attn_bwd_s.h{h}"] = statistics.median(bwd)
        out[f"autograd.attn_flops.h{h}"] = sum(hf.attention_flops(m[h].nnz, d_h)
                                               for m in mask_sets)
    return out


def mask_metrics(bench: Bench) -> dict:
    mask_sets = bench.first_unit.masks
    out = {}
    square = sum(m[0].size ** 2 for m in mask_sets)
    for h in range(bench.model_cfg.num_heads):
        nnz = sum(m[h].nnz for m in mask_sets)
        out[f"masks.nnz.h{h}"] = nnz
        out[f"masks.density.h{h}"] = nnz / square
    return out


def flop_ratio(bench: Bench) -> float:
    """Attention FLOPs the kernel meter counts in one forward over the
    analytic attention_flop_count of the same masks."""
    hf = bench.hf
    mask_sets = bench.first_unit.masks
    model = hf.init_model(bench.model_cfg, bench.d_v)
    analytic = 0
    with hf.count_attention_flops() as meter, hf.scratch_tape():
        for g, masks in zip(bench.graphs, mask_sets):
            hf.forward(model, g, hf.augment(g), masks)
            analytic += hf.attention_flop_count(bench.model_cfg, masks)
    return meter.attention_flops / analytic


def per_layer(bench: Bench, plain: list[Unit], traced: list[Unit], tracer: Tracer,
              cli_leg: dict | None) -> tuple[dict, dict | None]:
    epochs = bench.wl.epochs
    rows, self_sums = [], []
    for i, u in enumerate(traced):
        idx = SpanIndex(tracer.spans, f"unit{i}")
        row, self_sum = _train_phase(idx, epochs)
        row["masks.build_s"] = idx.total(idx.named("masks.build_head_masks"))
        row["masks.distinct_budgets"] = (len(idx.named("masks.build_mask"))
                                         / max(len(idx.named("masks.build_head_masks")), 1))
        if bench.wl.via_cli:
            row.update(_cli_phase(idx, u.cli))
        rows.append(row)
        self_sums.append(self_sum)
    metrics = {k: statistics.median(r[k] for r in rows) for k in rows[0]}
    if cli_leg is not None:
        metrics.update(_cli_phase(SpanIndex(tracer.spans, "cli"), cli_leg))
    metrics.update(mask_metrics(bench))
    metrics.update(replay_attention(bench))
    metrics["analysis.flop_ratio"] = flop_ratio(bench)
    metrics["trace.overhead_s"] = (statistics.median(u.raw["run_s"] for u in traced)
                                   - statistics.median(u.raw["run_s"] for u in plain))
    metrics["trace.untraced_epoch_s"] = statistics.median(u.raw["epoch_s"] for u in plain)
    metrics["trace.spans"] = sum(1 for s in tracer.spans if s.run_id == "unit0")
    accounting = None if bench.wl.via_cli else trace_accounting(bench, plain, traced, self_sums)
    return metrics, accounting


def trace_accounting(bench: Bench, plain: list[Unit], traced: list[Unit],
                     self_sums: list[float]) -> dict:
    """Do the traced self times account for the untraced epoch time?

    For every traced unit, per epoch: the self times of all modules inside
    train() must lie within the tracing overhead of the untraced epoch_s,
    where the overhead is that unit's train() time, taken by the benchmark's
    own clock outside the tracer, minus the untraced epoch_s.  The self
    times of one span tree sum to its root, so what this catches is spans
    that lose time against the benchmark's clock: a span that ends before
    its call returns, or a different clock.  Each unit is one ledger
    operation.  In-process workloads only: the CLI workload's train() runs
    in a child the benchmark cannot time around.
    """
    untraced = statistics.median(u.raw["epoch_s"] for u in plain)
    rows = []
    for i, (u, self_sum) in enumerate(zip(traced, self_sums)):
        overhead = u.raw["epoch_s"] - untraced
        gap = self_sum - untraced
        ok = abs(gap) <= abs(overhead) + SELF_SUM_RTOL * u.raw["epoch_s"]
        bench.ledger.record(f"unit{i} trace accounting", [] if ok else [
            f"self times {self_sum:.5f} s/epoch are {gap:+.5f} from the untraced "
            f"{untraced:.5f}, outside the tracing overhead {overhead:+.5f}"])
        rows.append({"self_sum_epoch_s": self_sum, "traced_epoch_s": u.raw["epoch_s"],
                     "overhead_epoch_s": overhead, "holds": ok})
    return {"untraced_epoch_s": untraced, "units": rows}


# ---------------------------------------------------------------------------


def declared_metrics(trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="append the full record (environment included) as a JSON line")
    p.add_argument("--spans", help="with --trace 1, write every span as JSON lines")
    args = p.parse_args(argv)

    try:
        hf = import_program()
        declared = declared_metrics(bool(args.trace))
    except (ImportError, OSError, ValueError, KeyError) as e:
        print(f"error: cannot set up the benchmark: {e}", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    ledger = Ledger()
    bench = Bench(hf, wl, args.seed, ledger)
    try:
        plain, traced, tracer = run_units(bench, args.seconds, bool(args.trace))
        if not plain or (args.trace and not traced):
            print("error: no unit completed, so there is nothing to report", file=sys.stderr)
            return 1
        rss = peak_rss_mb(include_children=wl.via_cli)
        bench.check_kernel(bench.first_unit.masks)
        info = {"workload": wl.name, "seed": args.seed, "trace": args.trace,
                "env": environment(args.seed),
                "samples": {"units": len(plain), "evals": sum(len(u.eval_s) for u in plain),
                            "traced_units": len(traced),
                            **{k: [getattr(u, k) for u in plain]
                               for k in ("setup_s", "epoch_s", "run_s")},
                            "eval_s": [t for u in plain for t in u.eval_s],
                            "raw": {k: [u.raw[k] for u in plain]
                                    for k in ("setup_s", "epoch_s", "run_s")},
                            "raw_eval_s": [t for u in plain for t in u.raw["eval_s"]]},
                "outputs": {"final_train_loss": bench.first_unit.losses[-1],
                            "train_acc": bench.first_unit.train_acc,
                            "test_metric": bench.first_unit.test_metric_at_best}}
        if args.trace:
            leg = None if wl.via_cli else bench.cli_leg(traced=True, tag="trace")
            if leg is not None:
                tracer.extend(leg["analyze"]["spans"], run_id="cli")
                tracer.extend(leg["train"]["spans"], run_id="cli")
                for cmd in ("analyze", "train"):
                    ledger.record(f"cli {cmd}", [] if leg[cmd]["exit"] == 0 else
                                  [f"exited {leg[cmd]['exit']}"])
            metrics, info["trace_accounting"] = per_layer(bench, plain, traced, tracer, leg)
            if args.spans:
                tracer.write(args.spans)
        else:
            metrics = end_to_end(bench, plain, rss)
        info["fail_frac"] = {"failed": ledger.failed, "attempted": ledger.attempted}
        info["problems"] = ledger.problems[:20]
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
        if WORK_ROOT.exists() and not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()

    if set(metrics) != set(declared):
        print(f"error: metrics {sorted(set(metrics) ^ set(declared))} do not match "
              "BENCHMARK.json", file=sys.stderr)
        return 2
    result = {"correct": ledger.failed == 0, "attempted": ledger.attempted,
              "failed": ledger.failed,
              "metrics": {k: {"value": float(metrics[k]), "unit": declared[k]}
                          for k in declared}}
    print(json.dumps(info))
    if args.out:
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({**info, "result": result}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
