"""numpy is the package's only runtime dependency.

Other packages installed next to it (scipy, hypothesis) may serve tests, so an
accidental import of one in the package would pass every other test.  The CLI
also leaves numpy's lazily loaded submodules alone where it can: numpy.ma,
which ``np.unique`` imports on its first call, costs every run of the command.
"""

import ast
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


def run_probe(probe: str, *paths, args=()) -> list[str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *map(str, paths)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", probe, *map(str, args)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout.split()


def test_the_package_imports_only_numpy_and_the_standard_library():
    assert run_probe(PROBE) == []


def test_the_probe_sees_a_third_party_import(tmp_path):
    (tmp_path / "not_stdlib.py").write_text("")
    probe = PROBE.replace("import hopformer,", "import not_stdlib, hopformer,")
    assert run_probe(probe, tmp_path) == ["not_stdlib"]


# Runs ``hopformer analyze`` and ``hopformer train`` on a tiny graph-level
# dataset in one interpreter, then prints whether a plain ``import numpy``
# loaded numpy.ma and whether it is loaded after the two commands.
MA_PROBE = """
import json, sys
from pathlib import Path
import numpy as np
plain = "numpy.ma" in sys.modules
from hopformer.cli import main
d = Path(sys.argv[1])
rng = np.random.default_rng(0)
graphs = []
for i in range(10):
    n = 4 + i % 3
    iu, ju = np.triu_indices(n, k=1)
    keep = rng.random(iu.size) < 0.5
    graphs.append({"num_nodes": n, "edges": np.column_stack([iu[keep], ju[keep]]).tolist(),
                   "node_features": rng.standard_normal((n, 2)).tolist(),
                   "graph_label": i % 2})
(d / "data.json").write_text(json.dumps(graphs))
(d / "cfg.json").write_text(json.dumps({
    "model": {"hidden_dim": 8, "head_hops": [1, 2], "num_layers": 1, "ffn_dim": 8,
              "num_heads": 2, "task": "graph_classification", "num_classes": 2, "seed": 0},
    "train": {"learning_rate": 0.01, "epochs": 2, "seed": 0}}))
assert main(["analyze", str(d / "data.json"), "--output", str(d / "report.csv")]) == 0
assert main(["train", str(d / "data.json"), "--config", str(d / "cfg.json"),
             "--output", str(d / "run")]) == 0
print(plain, "numpy.ma" in sys.modules)
"""


def test_analyze_and_train_do_not_import_numpy_ma(tmp_path):
    plain, after = run_probe(MA_PROBE, args=[tmp_path])[-2:]
    assert plain == "True" or after == "False"


# pyproject.toml declares numpy>=1.24.  Names that numpy 2.0 added, and
# np.asarray's copy= keyword (also 2.0), would pass every test where only a
# newer numpy is installed, so the package source is scanned for them.
NUMPY_2_NAMES = {"bitwise_count", "astype", "concat", "unique_counts", "unique_values",
                 "unique_inverse", "unique_all", "isdtype", "cumulative_sum", "vecdot",
                 "permute_dims", "matrix_transpose"}


def numpy_2_uses(source: str) -> list[str]:
    """``line: name`` for every use in ``source`` of a numpy 2.0 name, read
    through ``np.``/``numpy.`` or imported from numpy, and of ``copy=``
    passed to ``np.asarray``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in ("np", "numpy") and node.attr in NUMPY_2_NAMES):
            found.append(f"{node.lineno}: np.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
            found += [f"{node.lineno}: {a.name}" for a in node.names if a.name in NUMPY_2_NAMES]
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and isinstance(node.func.value, ast.Name)
              and node.func.value.id in ("np", "numpy") and node.func.attr == "asarray"
              and any(k.arg == "copy" for k in node.keywords)):
            found.append(f"{node.lineno}: np.asarray(copy=)")
    return found


def test_the_package_needs_no_numpy_2_name():
    found = [f"{path.name}:{use}" for path in sorted((ROOT / "src").rglob("*.py"))
             for use in numpy_2_uses(path.read_text())]
    assert found == []


def test_the_numpy_floor_scan_sees_each_name():
    for name in sorted(NUMPY_2_NAMES):
        assert numpy_2_uses(f"import numpy as np\nnp.{name}(x)\n") == [f"2: np.{name}"]
        assert numpy_2_uses(f"x = numpy.{name}\n") == [f"1: np.{name}"]
        assert numpy_2_uses(f"from numpy import {name}\n") == [f"1: {name}"]
    assert numpy_2_uses("np.asarray(\n    x,\n    copy=False)\n") == ["1: np.asarray(copy=)"]
    assert numpy_2_uses("np.array(x, copy=False)\nnp.asarray(x)\nx.astype(int)\n") == []
