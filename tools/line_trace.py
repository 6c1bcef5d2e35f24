#!/usr/bin/env python3
"""Statements inside functions of src/besselhr that no tier-1 test executes.

Usage:

    python3 tools/line_trace.py [checkout]

Runs the tests of <checkout> (default: the checkout holding this script)
in this process, with pytest -q, under a sys.settrace line tracer that
records only frames of files in <checkout>/src/besselhr.  Then it prints,
module by module, every statement inside a function (methods and nested
functions included, docstrings and global/nonlocal declarations left out)
that no test executed, as

    src/besselhr/<module>.py:<line>: <first line of the statement>

and a count.  A statement counts as executed when any line of it ran (for
a compound statement, any line of its header).  The exit status is
pytest's.

Only this process is traced: lines reached only through the subprocesses
of tests/test_cli.py's run_cli show as unexecuted.  Tracing slows the suite
several times over (a few minutes on a 2-core host).
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path


def _statements(tree: ast.Module):
    """(first line, last line) of each statement inside a function; for a
    compound statement the lines of its header."""
    spans = {}
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for stmt in ast.walk(fn):
            if stmt is fn or not isinstance(stmt, ast.stmt):
                continue
            if isinstance(stmt, (ast.Global, ast.Nonlocal)) or (
                isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)
            ):
                continue  # no bytecode, or a docstring
            body = getattr(stmt, "body", None)
            last = body[0].lineno - 1 if body else stmt.end_lineno
            first = min([d.lineno for d in getattr(stmt, "decorator_list", [])] + [stmt.lineno])
            spans[stmt.lineno] = (first, max(last, stmt.lineno))
    return sorted(spans.values())


def main(argv) -> int:
    root = Path(argv[1] if len(argv) > 1 else Path(__file__).resolve().parents[1]).resolve()
    package = root / "src" / "besselhr"
    prefix = str(package) + "/"
    sys.path.insert(0, str(root / "src"))
    import pytest

    hits = set()

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def call(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    sys.settrace(call)
    try:
        status = int(pytest.main(["-q", "-p", "no:cacheprovider", "--rootdir", str(root),
                                  str(root / "tests")]))
    finally:
        sys.settrace(None)
    imported = getattr(sys.modules.get("besselhr"), "__file__", "") or ""
    if not imported.startswith(prefix):
        print(f"besselhr was imported from {imported or 'nowhere'}, not {package}",
              file=sys.stderr)
        return 2

    missed = 0
    for path in sorted(package.glob("*.py")):
        lines = path.read_text().splitlines()
        ran = {line for file, line in hits if file == str(path)}
        for first, last in _statements(ast.parse("\n".join(lines), str(path))):
            if ran.isdisjoint(range(first, last + 1)):
                missed += 1
                print(f"{path.relative_to(root)}:{first}: {lines[first - 1].strip()}")
    print(f"{missed} statements inside functions of {package.relative_to(root)} "
          "not executed by the tests")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
