"""List the lines of ``src/particle_paths`` that no test executes.

Run from anywhere, with the same extra arguments pytest takes::

    python tests/line_trace.py            # the whole suite under tests/
    python tests/line_trace.py -x -k cli  # any pytest selection

The suite runs in this process under ``sys.settrace``, which traces only
frames whose code lives in the package; each line a compiled code object
of the package can start is then reported, as ``path:line: source``,
unless some test ran it.  Code a test runs in a subprocess (the CLI's
``main()`` under ``python -m``) is not seen.  Only the standard library
and pytest are used, and pytest does not collect this file.
"""

import sys
import threading
import types
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "particle_paths"


def executable_lines(path: Path) -> set:
    """Every line that some code object compiled from ``path`` can start."""
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def main(args) -> int:
    prefix = str(PACKAGE) + "/"
    seen: dict = {}

    def trace(frame, event, arg):
        path = frame.f_code.co_filename
        if not path.startswith(prefix):
            return None
        hit = seen.setdefault(path, set()).add
        hit(frame.f_lineno)

        def local(frame, event, arg):
            hit(frame.f_lineno)
            return local

        return local

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *(args or [str(REPO / "tests")])])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    missed = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        source = path.read_text().splitlines()
        for line in sorted(executable_lines(path) - seen.get(str(path), set())):
            print(f"{path.relative_to(REPO)}:{line}: {source[line - 1].strip()}")
            missed += 1
    print(f"{missed} line(s) of src/particle_paths not executed")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
