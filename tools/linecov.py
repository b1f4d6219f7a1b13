"""List the lines of the package that no unit test runs.

A standard-library line tracer: it traces every frame whose code lives
under src/urnoverflow/ while pytest runs the unit suite in this process
(the acceptance suite is left out), then prints, per module, the
executable lines (from co_lines() of the compiled module and every code
object nested in it) that never ran, and pytest's own summary line.

    python tools/linecov.py

Code run only in a subprocess (a `python -m urnoverflow.cli` test) is not
seen.  Tracing slows every traced line, so a test with a wall-clock bound
can fail under the tracer; the failed ids and the summary line show it.
"""

from __future__ import annotations

import io
import os
import sys
import threading
from contextlib import redirect_stdout
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "urnoverflow"


def executable_lines(path: Path) -> set[int]:
    """Line numbers of every instruction in the module and its nested code."""
    lines, todo = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def main() -> int:
    prefix = str(PACKAGE) + "/"
    ran: dict[str, set[int]] = {}

    def local(frame, event, arg):
        ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        ran.setdefault(filename, set()).add(frame.f_lineno)
        return local

    sys.path.insert(0, str(PACKAGE.parent))
    os.chdir(ROOT)
    argv = ["-q", "-p", "no:cacheprovider", "tests", "--deselect", "tests/test_acceptance.py"]
    log = io.StringIO()
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        with redirect_stdout(log):
            code = pytest.main(argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    # the failed tests' ids, then the counts
    summary = log.getvalue().strip().splitlines()
    for line in summary:
        if line.startswith(("FAILED ", "ERROR ")):
            print(line)
    print(summary[-1] if summary else "pytest printed nothing")
    for path in sorted(PACKAGE.glob("*.py")):
        missed = sorted(executable_lines(path) - ran.get(str(path), set()))
        if missed:
            print(f"{path.name}: {', '.join(map(str, missed))}")
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
