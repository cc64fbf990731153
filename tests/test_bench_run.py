"""Smoke test of the benchmark harness end to end: ``bench/run.py`` runs one
short sbm_node run from the repository root, untraced and traced.  It guards
what the harness calls in the package (``forward`` with an augmented graph,
``Tensor(..., requires_grad=True)``, the traced names and the spans that
``model.forward_useful_ratio`` divides by), which only a run exercises."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_short_run_is_correct_and_reports_the_declared_metrics(trace, section):
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "sbm_node",
                           "--seed", "0", "--seconds", "1", "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in DECLARED[section]}
    assert not (ROOT / ".bench_work").exists()
