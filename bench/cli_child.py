"""Run one ``hopformer`` CLI command in a fresh interpreter, as the console
script would, and report when ``main`` was entered and how it exited.

Usage: python3 bench/cli_child.py REPORT.json TRACE(0|1) -- <hopformer args>

The report holds ``main_at`` (``time.monotonic()`` after interpreter start
and ``import hopformer.cli``), the exit code, the two pace probes (pace.py)
taken in this process right before and right after ``main``, and, with
TRACE=1, the spans of every package call the command made.  The probes run
here and not in the parent, which sleeps while the command runs and wakes
slower than it runs.
"""

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import hopformer.cli  # noqa: E402
from pace import pace  # noqa: E402  (this script's directory is on sys.path)


def run(report_path: str, traced: bool, argv: list[str]) -> int:
    main_at = time.monotonic()
    before = pace()
    if traced:
        from tracing import Tracer
        tracer = Tracer()
        with tracer.installed(run_id=0):
            code = hopformer.cli.main(argv)
        spans = [s.to_obj() for s in tracer.spans]
    else:
        code = hopformer.cli.main(argv)
        spans = []
    after = pace()
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump({"main_at": main_at, "exit": code, "pace": [before, after],
                   "spans": spans}, fh)
    return code


if __name__ == "__main__":
    if len(sys.argv) < 4 or sys.argv[3] != "--":
        sys.exit("usage: cli_child.py REPORT.json TRACE(0|1) -- <hopformer args>")
    sys.exit(run(sys.argv[1], sys.argv[2] == "1", sys.argv[4:]))
