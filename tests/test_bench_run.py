"""Smoke test of the benchmark harness end to end: ``bench/run.py`` runs one
short sbm_node run from the repository root, untraced and traced.  It guards
what the harness calls in the package (``forward`` with an augmented graph in
its unread third slot, ``Tensor(..., requires_grad=True)``, the traced names
and the spans that ``model.forward_useful_ratio`` divides by), which only a
run exercises.  A short traced er_graph run covers graphs of at most 64
tokens, where every mask runs on the dense path whatever its density: the
harness checks each mask's kernel call against its oracle to 1e-10, the
model trained with each graph's heads in one dense stack against its output
floors, and ``flop_ratio`` runs a positional ``forward`` over every graph.
Both traced runs give their masks to ``train`` and ``evaluate``, which then
augment no graph."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def short_run(workload: str, trace: int) -> dict:
    """The result line of a one-second run of ``workload`` at seed 0."""
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", "0", "--seconds", "1", "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_short_run_is_correct_and_reports_the_declared_metrics(trace, section):
    result = short_run("sbm_node", trace)
    assert result["correct"] is True
    assert result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in DECLARED[section]}
    if trace:
        assert result["metrics"]["graphs.augment_calls"]["value"] == 0
    assert not (ROOT / ".bench_work").exists()


def test_short_small_graph_run_is_correct():
    result = short_run("er_graph", 1)
    assert result["correct"] is True
    assert result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in DECLARED["per_layer"]}
    assert result["metrics"]["graphs.augment_calls"]["value"] == 0
    assert not (ROOT / ".bench_work").exists()
