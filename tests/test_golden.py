"""The seeded digests of ``tests/golden.json`` (see ``tests/golden.py``):
a change that keeps results bit-identical leaves every digest as it is.
They are recomputed in a child process at one BLAS thread, set in the
child's environment.  On another numpy or BLAS build, or a CPU with other
SIMD features, the test skips and names both, as seeded results are
bit-identical only within one build and CPU."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_seeded_results_match_the_committed_digests():
    golden = json.loads((ROOT / "tests" / "golden.json").read_text())
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, str(ROOT / "tests" / "golden.py")], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    if got["build"] != golden["build"]:
        pytest.skip(f"digests were taken on {golden['build']}, this is {got['build']}")
    assert set(got["cases"]) == set(golden["cases"])
    moved = [f"{case} {part}" for case, want in sorted(golden["cases"].items())
             for part in ("masks", "train", "evaluate")
             if got["cases"][case][part] != want[part]]
    assert not moved, f"digests moved: {', '.join(moved)}"
