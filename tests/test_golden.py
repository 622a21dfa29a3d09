"""CLI stdout pinned byte for byte against the corpus in ``tests/golden``.

The case table lives in ``replay_golden.py``, which also replays the
corpus without pytest.
"""

from __future__ import annotations

import pytest

from replay_golden import CASES, GOLDEN, run_main


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden(name):
    code, out = run_main(CASES[name])
    assert code == 0
    assert out == (GOLDEN / name).read_text()
