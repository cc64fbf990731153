"""numpy is the package's only runtime dependency.

Other packages installed next to it (scipy, hypothesis) may serve tests, so an
accidental import of one in the package would pass every other test.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# The top-level modules that importing the package and its CLI loads, besides
# the standard library, numpy and hopformer.  Modules the interpreter loaded
# at start-up (site hooks) are not the package's and are not counted.
PROBE = """
import sys
before = set(sys.modules)
import hopformer, hopformer.cli
loaded = {name.split(".")[0] for name in set(sys.modules) - before}
print(" ".join(sorted(loaded - set(sys.stdlib_module_names) - {"numpy", "hopformer"})))
"""


def run_probe(probe: str, *paths) -> list[str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *map(str, paths)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout.split()


def test_the_package_imports_only_numpy_and_the_standard_library():
    assert run_probe(PROBE) == []


def test_the_probe_sees_a_third_party_import(tmp_path):
    (tmp_path / "not_stdlib.py").write_text("")
    probe = PROBE.replace("import hopformer,", "import not_stdlib, hopformer,")
    assert run_probe(probe, tmp_path) == ["not_stdlib"]
