"""CLI stdout pinned byte for byte against the corpus in ``tests/golden``.

The case table lives in ``replay_golden.py``, which also replays the
corpus without pytest; the last test runs it as that script.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

import pytest

import replay_golden
from deutschpaths import cli
from replay_golden import CASES, GOLDEN, run_main


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden(name):
    code, out = run_main(CASES[name])
    assert code == 0
    assert out == (GOLDEN / name).read_text()


def test_every_subcommand_has_a_case():
    (subparsers,) = (
        action
        for action in cli._build_parser()[0]._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    unpinned = set(subparsers.choices) - {argv[0] for argv in CASES.values()}
    assert subparsers.choices and not unpinned, unpinned


def test_the_script_replays_the_corpus_in_both_orders():
    src = Path(__file__).parents[1] / "src"
    result = subprocess.run(
        [sys.executable, replay_golden.__file__],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
    )
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout.splitlines() == [
        f"{len(CASES)}/{len(CASES)} golden cases match ({label} pass)"
        for label in ("first", "reversed")
    ]


def test_the_script_replays_under_each_interpreter_given(tmp_path):
    # this interpreter replays the corpus; one that cannot start fails
    # the replay
    src = Path(__file__).parents[1] / "src"
    missing = str(tmp_path / "no-python")
    result = subprocess.run(
        [sys.executable, replay_golden.__file__, sys.executable, missing],
        env={**os.environ, "PYTHONPATH": str(src.resolve())},
        cwd=tmp_path,
        capture_output=True,
        text=True,
    )
    assert (result.returncode, result.stderr) == (1, "")
    lines = result.stdout.splitlines()
    assert lines[:2] == [
        f"{sys.executable}: {len(CASES)}/{len(CASES)} golden cases match ({label} pass)"
        for label in ("first", "reversed")
    ]
    assert len(lines) == 3 and lines[2].startswith(f"{missing}: cannot run: ")
