"""List the statement lines inside ``src/cywbench`` functions that tier-1 never runs.

Usage, from anywhere in a checkout::

    python3 tools/line_trace.py                 # the tier-1 tests
    python3 tools/line_trace.py tests/test_cli.py -k prescribe

The script runs pytest in-process, with the tier-1 options and any extra
arguments, under a ``sys.settrace`` tracer that records the lines executed
in the package's modules.  A plugin installs the tracer again before each
test's setup and call: a tracer set once at start-up misses most of the
pipeline, since code under test (hypothesis, for one) replaces or clears
it.  Then, for each module, it prints the statements inside functions
(methods and nested functions included) of which no line ran, grouped by
function.  A statement counts by its own lines: a compound statement by
its header, not its body; docstrings and statements that compile to no
code are left out.  Code run in a subprocess is not traced.  The exit
status is pytest's.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cywbench"
TIER1 = ["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"]
_BLOCKS = ("body", "orelse", "handlers", "finalbody", "cases")


class LineTracer:
    """Pytest plugin recording the executed lines of the package's files."""

    def __init__(self, files):
        self.files = set(files)
        self.hits = defaultdict(set)

    def _global(self, frame, event, arg):
        if frame.f_code.co_filename in self.files:
            return self._local
        return None

    def _local(self, frame, event, arg):
        if event == "line":
            self.hits[frame.f_code.co_filename].add(frame.f_lineno)
        return self._local

    def install(self):
        sys.settrace(self._global)
        threading.settrace(self._global)

    @pytest.hookimpl(tryfirst=True)
    def pytest_runtest_setup(self, item):
        self.install()

    @pytest.hookimpl(tryfirst=True)
    def pytest_runtest_call(self, item):
        self.install()


def _code_lines(code) -> set:
    """Lines that carry bytecode in ``code`` and every code object nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _own_lines(stmt: ast.stmt) -> range:
    """The lines of ``stmt`` that are not in a nested block of statements."""
    first = min([stmt.lineno] + [d.lineno for d in getattr(stmt, "decorator_list", [])])
    nested = [child.lineno for name in _BLOCKS for child in getattr(stmt, name, [])
              if hasattr(child, "lineno")]
    return range(first, min(nested) if nested else stmt.end_lineno + 1)


def _function_statements(tree: ast.Module):
    """(qualified function name, statement) for each statement inside a function.

    Docstrings are left out, and so is a ``try`` header (the statements of
    its blocks count).
    """
    scopes = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

    def visit(node, qualname, in_function):
        for name in _BLOCKS:
            for k, child in enumerate(getattr(node, name, [])):
                docstring = (k == 0 and isinstance(node, scopes)
                             and isinstance(child, ast.Expr)
                             and isinstance(child.value, ast.Constant)
                             and isinstance(child.value.value, str))
                if (in_function and isinstance(child, ast.stmt)
                        and not isinstance(child, ast.Try) and not docstring):
                    yield qualname, child
                if isinstance(child, scopes):
                    inner = f"{qualname}.{child.name}" if qualname else child.name
                    yield from visit(child, inner,
                                     in_function or not isinstance(child, ast.ClassDef))
                else:
                    yield from visit(child, qualname, in_function)

    yield from visit(tree, "", False)


def unrun_lines(path: Path, hits: set) -> dict:
    """{function: [first line of each statement no line of which ran]} for one module."""
    source = path.read_text()
    code_lines = _code_lines(compile(source, str(path), "exec"))
    out = defaultdict(list)
    for qualname, stmt in _function_statements(ast.parse(source)):
        own = set(_own_lines(stmt)) & code_lines
        if own and not own & hits:
            out[qualname].append(stmt.lineno)
    return out


def _ranges(lines) -> str:
    """``1, 2, 3, 7`` as ``1-3, 7``."""
    parts, start = [], None
    for k, line in enumerate(lines):
        if start is None:
            start = line
        if k + 1 == len(lines) or lines[k + 1] != line + 1:
            parts.append(str(start) if start == line else f"{start}-{line}")
            start = None
    return ", ".join(parts)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    paths = sorted(PACKAGE.glob("*.py"))
    tracer = LineTracer(str(p) for p in paths)
    os.chdir(ROOT)
    tracer.install()
    try:
        code = pytest.main(TIER1 + list(argv), plugins=[tracer])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    print("\nstatement lines inside functions that never ran:")
    for path in paths:
        unrun = unrun_lines(path, tracer.hits[str(path)])
        total = sum(len(v) for v in unrun.values())
        print(f"{path.relative_to(ROOT)}: {total}")
        for qualname, lines in unrun.items():
            print(f"  {qualname}: {_ranges(sorted(set(lines)))}")
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
