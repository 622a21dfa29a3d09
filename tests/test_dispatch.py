"""``cli.main`` dispatches each argv as the top parser would.

The argv table and the reference live in ``dispatch_equivalence.py``,
which also runs the comparison without pytest; the last test runs it as
that script.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import dispatch_equivalence
from dispatch_equivalence import ARGVS, run

pytestmark = pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no digit limit before Python 3.10.7"
)


@pytest.mark.parametrize("name", sorted(ARGVS))
def test_main_dispatches_as_the_top_parser(name):
    assert run(ARGVS[name]) == run(ARGVS[name], reference=True)


@pytest.mark.parametrize(
    "name, code",
    [("help", 0), ("command-help", 0), ("unknown-command", 2), ("left-over-flag", 2)],
)
def test_the_top_parser_has_its_say(name, code):
    # a reference that printed nothing would agree with a main that did
    # the same, so these argvs must print help or an error of their own
    got, out, err = run(ARGVS[name])
    assert got == code
    assert (out if code == 0 else err).startswith("usage: deutschpaths")


def test_the_script_compares_every_argv():
    src = Path(__file__).parents[1] / "src"
    result = subprocess.run(
        [sys.executable, dispatch_equivalence.__file__],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
    )
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == f"{len(ARGVS)}/{len(ARGVS)} argvs dispatch alike\n"
