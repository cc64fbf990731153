"""The python blocks under README.md's ``## Library`` heading run, in order,
as one script in a fresh interpreter against the package in src/, so the
documented API cannot drift from the code."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def library_blocks() -> list[str]:
    """The fenced python blocks of the README's Library section, in order."""
    text = (ROOT / "README.md").read_text()
    section = re.search(r"^## Library\n(.*?)(?=^## )", text, re.M | re.S).group(1)
    return re.findall(r"^```python\n(.*?)^```", section, re.M | re.S)


def test_library_section_has_python_blocks():
    assert len(library_blocks()) >= 2


def test_library_examples_run(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", "\n".join(library_blocks())], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
