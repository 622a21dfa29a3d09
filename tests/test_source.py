"""Rules the package's source keeps, read from the files themselves."""

from __future__ import annotations

import ast
from pathlib import Path

import deutschpaths

SOURCES = sorted(Path(deutschpaths.__file__).parent.glob("*.py"))


def test_the_package_keeps_no_assert():
    # python -O strips assert statements, so none may carry a check
    found = [
        f"{source.name}:{node.lineno}"
        for source in SOURCES
        for node in ast.walk(ast.parse(source.read_text(), str(source)))
        if isinstance(node, ast.Assert)
    ]
    assert len(SOURCES) == 8
    assert found == []
