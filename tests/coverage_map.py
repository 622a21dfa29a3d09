"""Line-coverage map of the package, with the standard library alone.

Runs pytest in this process, with the given arguments, under
``sys.settrace``, and prints to stdout, sorted, every statement of the
package that never executed, one per line as ``module.py:line source``.
Docstrings and ``global`` declarations are not statements here.
pytest's own report goes to stderr, and the exit status is pytest's.
Code run in a subprocess is not seen.

    PYTHONPATH=src python tests/coverage_map.py -q -p no:cacheprovider tests

Over the whole suite, two maps list the same lines when Hypothesis
draws from a fixed seed and the argv fuzz, which reaches CLI branches
by chance, is left out; a line is then off the map only when a test of
its own runs it:

    PYTHONPATH=src python tests/coverage_map.py -q -p no:cacheprovider \
        --hypothesis-seed=0 tests perfbench --deselect \
        tests/test_records.py::test_main_answers_every_argv_with_exit_0_or_one_error_line

Tracing makes the suite about three times slower.
"""

from __future__ import annotations

import ast
import contextlib
import importlib.util
import sys
import threading
from pathlib import Path

import pytest


def _statements(source: str) -> dict[int, range]:
    # each statement's first line, with the lines an execution of it is
    # reported on: a compound statement's header, decorators included,
    # and a simple statement's every line.  A `global` or `nonlocal`
    # declaration runs nothing, so it is no statement here either.
    tree = ast.parse(source)
    docstrings = {
        id(node.body[0])
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and ast.get_docstring(node, clean=False) is not None
    }
    found = {}
    for node in ast.walk(tree):
        declaration = isinstance(node, (ast.Global, ast.Nonlocal))
        if not isinstance(node, ast.stmt) or declaration or id(node) in docstrings:
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        body = getattr(node, "body", None)
        last = max(node.lineno, body[0].lineno - 1) if body else node.end_lineno
        found[node.lineno] = range(first, last + 1)
    return found


def main(args: list[str]) -> int:
    # found without importing the package, so that its import is traced
    package = Path(importlib.util.find_spec("deutschpaths").submodule_search_locations[0])
    files = {str(path): path for path in sorted(package.glob("*.py"))}
    hits: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def enter(frame, event, arg):
        return local if frame.f_code.co_filename in files else None

    threading.settrace(enter)
    sys.settrace(enter)
    try:
        with contextlib.redirect_stdout(sys.stderr):
            code = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    for name, path in files.items():
        source = path.read_text()
        lines = source.splitlines()
        for line, reported in sorted(_statements(source).items()):
            if not any((name, n) in hits for n in reported):
                print(f"{path.name}:{line} {lines[line - 1].strip()}")
    return int(code)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
