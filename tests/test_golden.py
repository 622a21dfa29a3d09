"""CLI stdout pinned byte for byte against the corpus in ``tests/golden``.

The case table lives in ``replay_golden.py``, which also replays the
corpus without pytest.
"""

from __future__ import annotations

import argparse

import pytest

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
        for action in cli._build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    unpinned = set(subparsers.choices) - {argv[0] for argv in CASES.values()}
    assert subparsers.choices and not unpinned, unpinned
