#!/usr/bin/env python3
"""List the lines of src/maxsub that a test run never executes.

Runs pytest in this process under a `sys.settrace` tracer that records
the executed lines of src/maxsub/*.py, then prints, per file, the
statements inside function bodies (found with `ast`) that never ran, and
a total.  Stdlib only besides pytest itself; the tracer slows the run
about fivefold, so tier-1 takes several minutes, and a test that asserts
a time bound may fail under it.  Hypothesis runs its derandomized `ci`
profile (tests/conftest.py) unless HYPOTHESIS_PROFILE is set, so two runs
on one tree give one count.  Run from the repository root, with any
pytest arguments:
    python scripts/coverage.py [-x] [tests/test_structure.py ...]
"""

from __future__ import annotations

import ast
import os
import sys
import threading

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
SRC = os.path.join(ROOT, "src", "maxsub")
sys.path.insert(0, os.path.join(ROOT, "src"))


def _is_docstring(stmt: ast.stmt) -> bool:
    return (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)
            and isinstance(stmt.value.value, str))


def _spans(stmt: ast.stmt) -> tuple[range, ast.stmt | None]:
    """The lines whose execution shows stmt ran, and its first body
    statement: a compound statement runs its header (`if x:`) or, where the
    header compiles to nothing (`try:`, `while True:`), its first body
    statement."""
    body = [s for s in getattr(stmt, "body", ()) if not _is_docstring(s)]
    if body:
        return range(stmt.lineno, body[0].lineno), body[0]
    return range(stmt.lineno, stmt.end_lineno + 1), None


def body_statements(path: str) -> dict[int, tuple[range, ast.stmt | None]]:
    """{first line: spans} of every statement inside a function body,
    docstrings left out."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    out = {}
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if (isinstance(node, ast.stmt) and node is not fn
                    and not _is_docstring(node)):
                out[node.lineno] = _spans(node)
    return out


def unexecuted(path: str, ran: set[int]) -> tuple[list[int], int]:
    """The first lines of the body statements of path with no executed
    line, and the number of body statements."""
    stmts = body_statements(path)

    def executed(line: int) -> bool:
        span, first = stmts[line]
        if any(n in ran for n in span):
            return True
        return first is not None and executed(first.lineno)

    return sorted(n for n in stmts if not executed(n)), len(stmts)


class _Local:
    """The local tracer of one frame: records its lines.

    An object that returns itself, where a closure that named itself would
    leave a reference cycle behind every traced frame, and tests that count
    the cyclic garbage of library code would count those."""

    def __init__(self, seen: set[int]):
        self.seen = seen

    def __call__(self, frame, event, arg):
        if event == "line":
            self.seen.add(frame.f_lineno)
        return self


class LineTracer:
    """Records (file, line) for every line event in the files under SRC."""

    def __init__(self):
        self.lines: dict[str, set[int]] = {}

    def _global(self, frame, event, arg):
        path = frame.f_code.co_filename
        if not path.startswith(SRC):
            return None
        return _Local(self.lines.setdefault(path, set()))

    def start(self):
        threading.settrace(self._global)
        sys.settrace(self._global)

    def stop(self):
        sys.settrace(None)
        threading.settrace(None)


def main(argv: list[str]) -> int:
    import pytest

    os.chdir(ROOT)
    os.environ.setdefault("HYPOTHESIS_PROFILE", "ci")
    tracer = LineTracer()
    tracer.start()
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", *argv])
    finally:
        tracer.stop()
    missed_total = stmt_total = 0
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(SRC, name)
        missed, count = unexecuted(path, tracer.lines.get(path, set()))
        missed_total += len(missed)
        stmt_total += count
        if missed:
            print(f"src/maxsub/{name}: {len(missed)} of {count} not run: "
                  + ", ".join(map(str, missed)))
    print(f"total: {missed_total} of {stmt_total} function-body statements "
          f"not run (pytest exit {int(code)})")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
