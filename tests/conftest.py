"""Fixtures shared by the test modules."""

from __future__ import annotations

import sys

import pytest


@pytest.fixture
def int_digit_limit():
    """Python's default int-to-str digit limit for the test's run.

    Pins the limit at 4300 whatever the interpreter was started with
    (``PYTHONINTMAXSTRDIGITS``, ``-X int_max_str_digits``), and restores
    the old value afterwards.  Python 3.10.0 to 3.10.6 have no limit,
    and the test is skipped there.
    """
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("no int-to-str digit limit before Python 3.10.7")
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(saved)
