"""CLI stdout pinned byte for byte against a committed corpus.

Each file under ``tests/golden`` holds the stdout of one invocation:
every named form's expansion, the series count, the count table, the
cross-check report and the canonical path listing, text and JSON.  A
change that keeps the package's behaviour keeps these bytes.
"""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

import pytest

from deutschpaths import FORM_NAMES, cli

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    **{f"gf-{form}-100.txt": ["gf", "--form", form, "--terms", "100"] for form in FORM_NAMES},
    **{
        f"gf-{form}-100.json": ["gf", "--form", form, "--terms", "100", "--json"]
        for form in FORM_NAMES
    },
    "count-2000-series.txt": ["count", "--length", "2000", "--method", "series"],
    "table-60.jsonl": ["table", "--max", "60", "--json"],
    "list-10.txt": ["list", "--length", "10"],
    "list-10.jsonl": ["list", "--length", "10", "--json"],
    "verify-8.txt": ["verify", "--max", "8"],
}


def run_main(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden(name):
    code, out = run_main(CASES[name])
    assert code == 0
    assert out == (GOLDEN / name).read_text()
