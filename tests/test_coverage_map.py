"""The stdlib line-coverage map, run on the doctests alone."""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import deutschpaths

TESTS = Path(__file__).resolve().parent
PACKAGE = Path(deutschpaths.__file__).resolve().parent
LINE = re.compile(r"([_a-z]+\.py):([1-9][0-9]*) (\S.*)")


def test_the_map_lists_each_statement_never_run():
    result = subprocess.run(
        [sys.executable, "coverage_map.py", "-q", "-p", "no:cacheprovider", "test_docs.py"],
        cwd=TESTS,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert " passed" in result.stderr and "failed" not in result.stderr
    found = [LINE.fullmatch(line).groups() for line in result.stdout.splitlines()]
    keys = [(name, int(line)) for name, line, _ in found]
    assert keys == sorted(set(keys))
    for name, line, source in found:
        assert (PACKAGE / name).read_text().splitlines()[int(line) - 1].strip() == source
        assert not source.startswith('"""')
    # the doctests import every module, so each top-level statement ran,
    # and nothing runs the script's own entry in this process
    for path in PACKAGE.glob("*.py"):
        top = {node.lineno for node in ast.parse(path.read_text()).body}
        assert not top & {line for name, line in keys if name == path.name}
    assert ("__main__.py", "raise SystemExit(entry())") in {(n, s) for n, _, s in found}
