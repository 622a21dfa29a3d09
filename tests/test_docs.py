"""The examples in the package docstrings and in README.md, run as doctests."""

from __future__ import annotations

import doctest
import importlib
import pkgutil
from pathlib import Path

import pytest

import deutschpaths

MODULES = ["deutschpaths"] + [m.name for m in pkgutil.iter_modules(deutschpaths.__path__, "deutschpaths.")]
README = Path(__file__).resolve().parent.parent / "README.md"


@pytest.mark.parametrize("name", MODULES)
def test_docstring_examples(name):
    result = doctest.testmod(importlib.import_module(name), verbose=False)
    assert result.failed == 0


def test_readme_examples():
    result = doctest.testfile(str(README), module_relative=False, verbose=False)
    assert result.attempted > 0
    assert result.failed == 0
