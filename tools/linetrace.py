"""Which lines of the package does the test suite never run?

Runs the tier-1 suite (``tests/``) in this process under ``sys.settrace``
and prints ``file:line: source`` for each executable line of
``src/dropcompact/*.py`` that no test ran. A line run only in a child
process (a test that starts ``python -m dropcompact.cli``) counts as not
run. It is a report, not a gate: hypothesis draws can change what a run
reaches, so two runs may list different lines. The exit code is pytest's.

    python3 tools/linetrace.py                 # the whole suite
    python3 tools/linetrace.py -k checkpoint   # extra arguments go to pytest
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
FILES = {str(p): p for p in sorted((SRC / "dropcompact").glob("*.py"))}


def executable_lines(path: Path) -> set[int]:
    """The line numbers that the compiled module's code objects start."""
    lines, todo = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # None or 0: no line
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(SRC))  # the package's co_filename is then a FILES key
    ran: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def trace(frame, event, arg):
        return local if frame.f_code.co_filename in FILES else None

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests"), *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    for name, path in FILES.items():
        source = path.read_text(encoding="utf-8").splitlines()
        for line in sorted(executable_lines(path)):
            if (name, line) not in ran:
                print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
