"""CLI stdout pinned byte for byte against the corpus in ``tests/golden``,
and ``main``'s dispatch against the top parser's.

The case tables live in ``replay_golden.py``, which also replays them
without pytest; the last tests run it as that script.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import replay_golden
from deutschpaths import cli
from replay_golden import ARGVS, CASES, GOLDEN, run

SCRIPT_LINES = [
    f"{len(CASES)}/{len(CASES)} golden cases match (first pass)",
    f"{len(CASES)}/{len(CASES)} golden cases match (reversed pass)",
    f"{len(ARGVS)}/{len(ARGVS)} argvs dispatch alike",
]


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden(name):
    assert run(CASES[name]) == (0, (GOLDEN / name).read_text(), "")


def test_every_subcommand_has_a_case():
    commands = cli._build_parser()[1]
    unpinned = set(commands) - {argv[0] for argv in CASES.values()}
    assert commands and not unpinned, unpinned


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


@pytest.fixture(scope="module")
def script_run():
    src = Path(__file__).parents[1] / "src"
    return subprocess.run(
        [sys.executable, replay_golden.__file__],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
    )


def test_the_script_replays_the_corpus_in_both_orders(script_run):
    assert (script_run.returncode, script_run.stderr) == (0, "")
    assert script_run.stdout.splitlines()[:2] == SCRIPT_LINES[:2]


def test_the_script_compares_every_argv(script_run):
    assert (script_run.returncode, script_run.stderr) == (0, "")
    assert script_run.stdout.splitlines()[2:] == SCRIPT_LINES[2:]


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
    assert lines[:3] == [f"{sys.executable}: {line}" for line in SCRIPT_LINES]
    assert len(lines) == 4 and lines[3].startswith(f"{missing}: cannot run: ")
