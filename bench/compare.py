#!/usr/bin/env python3
"""Compare two result sets of bench/run.py.

    python3 bench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the records that ``run.py --out FILE`` appends, one run per
line.  The i-th run of a workload in PARENT is paired with the i-th run of
that workload in CHANGE; make the pairs alternate which side runs first
(see bench/README.md).  For every (end-to-end metric, workload) the verdict
follows the benchmark rule:

* ``better``: the change wins at least 9/10 of the pairs (ties count for
  neither side), there are at least 10 pairs, and the medians differ by more
  than the parent's interquartile range;
* ``unresolved``: the parent's interquartile range, as a share of its
  median, is wider than the metric's bound, and not every change run beats
  every parent run;
* ``regression``: the change's median is worse than the parent's by more
  than the bound;
* ``within bound`` otherwise.

Per-layer metrics from traced runs (``--trace 1``) are listed as medians with
no verdict.  The exit code is 1 when any pair shows a regression, or the
change fails more operations than the parent.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(path):
    out = {}
    for line in Path(path).read_text().splitlines():
        if line.strip():
            rec = json.loads(line)
            out.setdefault((rec["workload"], rec["trace"]), []).append(rec)
    return out


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def verdict(a, b, better, bound):
    n = min(len(a), len(b))
    a, b = a[:n], b[:n]
    sign = 1.0 if better == "lower" else -1.0       # sign * (x - y) > 0: y beats x
    wins = sum(1 for x, y in zip(a, b) if sign * (x - y) > 0)
    q1a, meda, q3a = quartiles(a)
    _, medb, _ = quartiles(b)
    iqr = q3a - q1a
    spread = iqr / abs(meda) if meda else float("inf")
    worse_by = sign * (medb - meda) / abs(meda) if meda else 0.0
    if n >= MIN_PAIRS and wins >= WIN_SHARE * n and abs(medb - meda) > iqr \
            and sign * (meda - medb) > 0:
        v = "better"
    elif spread > bound:
        every = all(sign * (x - y) > 0 for x in a for y in b)
        v = "within bound (every change run better)" if every else "unresolved"
    elif worse_by > bound:
        v = "regression"
    else:
        v = "within bound"
    return {"pairs": n, "wins": wins, "parent": (q1a, meda, q3a), "change": quartiles(b),
            "spread": spread, "worse_by": worse_by, "verdict": v}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Compare two bench/run.py result sets.")
    p.add_argument("parent")
    p.add_argument("change")
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = load(args.parent), load(args.change)
    status = 0

    print(f"{'workload':13s} {'metric':12s} {'pairs':>5s} {'wins':>4s} "
          f"{'parent q1/med/q3':>32s} {'change q1/med/q3':>32s} {'spread':>7s} "
          f"{'worse':>7s} {'bound':>5s}  verdict")
    for wl in [w["name"] for w in spec["workloads"]]:
        pa, ch = parent.get((wl, 0), []), change.get((wl, 0), [])
        if not pa or not ch:
            print(f"{wl:13s} (no untraced runs on one side)")
            continue
        fail_a = sum(r["result"]["failed"] for r in pa)
        fail_b = sum(r["result"]["failed"] for r in ch)
        for m in spec["end_to_end"]:
            a = [r["result"]["metrics"][m["name"]]["value"] for r in pa]
            b = [r["result"]["metrics"][m["name"]]["value"] for r in ch]
            v = verdict(a, b, m["better"], m["bound"])
            if v["verdict"] == "regression":
                status = 1
            if v["verdict"] == "better" and fail_b > fail_a:
                v["verdict"] = "not counted (more failed operations)"
            fmt = "{:.4g}/{:.4g}/{:.4g}"
            print(f"{wl:13s} {m['name']:12s} {v['pairs']:5d} {v['wins']:4d} "
                  f"{fmt.format(*v['parent']):>32s} {fmt.format(*v['change']):>32s} "
                  f"{v['spread']:7.3f} {v['worse_by']:+7.3f} {m['bound']:5.2f}  {v['verdict']}")
        if fail_b > fail_a:
            status = 1
        print(f"{wl:13s} failed operations: parent {fail_a}, change {fail_b} "
              f"(of {sum(r['result']['attempted'] for r in pa)} / "
              f"{sum(r['result']['attempted'] for r in ch)} attempted)")

    for wl in [w["name"] for w in spec["workloads"]]:
        pa, ch = parent.get((wl, 1), []), change.get((wl, 1), [])
        if not pa or not ch:
            continue
        print(f"\n{wl}: per-layer medians (parent -> change), traced runs "
              f"{len(pa)} / {len(ch)}")
        for m in spec["per_layer"]:
            a = statistics.median(r["result"]["metrics"][m["name"]]["value"] for r in pa)
            b = statistics.median(r["result"]["metrics"][m["name"]]["value"] for r in ch)
            rel = f"{(b - a) / abs(a):+.1%}" if a else ""
            print(f"  {m['name']:30s} {a:12.5g} -> {b:12.5g} {m['unit']:6s} {rel}")
    return status


if __name__ == "__main__":
    sys.exit(main())
