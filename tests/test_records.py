"""Hostile input at the package's boundaries.

A record parser returns a value or raises its own record error, never
another exception.  Every count, length, order and size is exactly an
``int`` at or above its least value, or a ``ValueError`` names it.  The
CLI answers any argv with exit 0 and a quiet stderr, or with exit 2 and
one ``error:`` line, and answers it the same way when called again in
the same process.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import re
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from deutschpaths import (
    FORM_NAMES,
    SILVER_RATIO,
    Down,
    PathTokenError,
    TreeRecordError,
    TruncatedSeries,
    binet_half_companion,
    binet_pell,
    cli,
    count_mountains,
    count_nondecreasing_closed,
    count_nondecreasing_quadratic,
    count_square_first_tilings,
    count_tilings,
    enumerate_deutsch,
    enumerate_nondecreasing_direct,
    enumerate_nondecreasing_filter,
    enumerate_tilings,
    fibonacci,
    gf_coefficients,
    half_companion_pell,
    iter_decompositions,
    named_form,
    parse_path,
    path_from_json,
    pell,
    star_identity_holds,
    tree_from_json,
    verify,
)

HUGE = "9" * 5000

# token pieces: huge sizes, zeros, signs, and digits that are not ASCII
# (Arabic-Indic three, fullwidth one)
PIECES = ["U", "D", "D1", "D0", "D01", "D-1", "u", "d1", "D" + HUGE, "D٣", "D１", "٣"]

token_text = st.one_of(
    st.text(),
    st.lists(st.sampled_from(PIECES), max_size=8).map(" ".join),
    st.integers(min_value=0).map(lambda k: f"D{k}"),
)

# JSON text assembled from fragments, so the huge integers never pass
# through int-to-str themselves
json_scalars = st.one_of(
    st.sampled_from(["null", "true", "0", "-1", "1.5", "1e400", "NaN", HUGE, "-" + HUGE]),
    st.sampled_from(PIECES + ["s", "d", "x"]).map(json.dumps),
    st.text(max_size=8).map(json.dumps),
)
KEYS = st.sampled_from(["steps", "backbone", "bundles", "x"]).map(json.dumps)
json_text = st.one_of(
    st.text(),
    st.recursive(
        json_scalars,
        lambda inner: st.one_of(
            st.lists(inner, max_size=4).map(lambda xs: "[" + ",".join(xs) + "]"),
            st.dictionaries(KEYS, inner, max_size=3).map(
                lambda d: "{" + ",".join(f"{k}:{v}" for k, v in d.items()) + "}"
            ),
        ),
        max_leaves=12,
    ),
)

fuzz = settings(max_examples=100, suppress_health_check=[HealthCheck.function_scoped_fixture])


@fuzz
@given(text=token_text)
def test_parse_path_raises_only_token_errors(int_digit_limit, text):
    with contextlib.suppress(PathTokenError):
        parse_path(text)


@fuzz
@given(text=json_text)
def test_path_from_json_raises_only_token_errors(int_digit_limit, text):
    with contextlib.suppress(PathTokenError):
        path_from_json(text)


@fuzz
@given(text=json_text)
def test_tree_from_json_raises_only_record_errors(int_digit_limit, text):
    with contextlib.suppress(TreeRecordError):
        tree_from_json(text)


def _not_an_int(text: str) -> bool:
    try:
        int(text)
    except ValueError:
        return True
    return False


# Sizes are bounded by run time only.  A valid huge size, such as
# `count --length` with 30 digits, is left out: it runs unbounded.  Digit
# strings past the 4,300-digit limit are drawn, because argparse's int()
# rejects them before `main` lifts the limit.
over_long = st.builds(
    lambda sign, digits: sign + "7" * digits,
    st.sampled_from(["", "-", "+"]),
    st.integers(4301, 5000),
)
not_an_int = st.text(max_size=8).filter(_not_an_int)
size = st.one_of(st.integers(-3, 11).map(str), not_an_int, over_long)
verify_max = st.one_of(st.integers(-3, 1).map(str), not_an_int, over_long)
tree_text = st.one_of(
    json_text,
    st.sampled_from(['{"backbone":[],"bundles":[]}', '{"backbone":["d"],"bundles":[[["s","d"]]]}']),
)
form = st.one_of(st.sampled_from(FORM_NAMES), st.text(max_size=10))


def _words(*parts: str) -> st.SearchStrategy[list[str]]:
    return st.just(list(parts))


def _flag(name: str) -> st.SearchStrategy[list[str]]:
    return st.sampled_from([[], [name]])


def _option(name: str, values: st.SearchStrategy[str]) -> st.SearchStrategy[list[str]]:
    return st.one_of(st.just([]), values.map(lambda value: [name, value]))


def _argv(*parts: st.SearchStrategy) -> st.SearchStrategy[list[str]]:
    """argv joined from parts that each draw one word or a list of words."""
    return st.tuples(*parts).map(
        lambda drawn: [w for part in drawn for w in ([part] if isinstance(part, str) else part)]
    )


methods = st.sampled_from(["closed", "series", "brute", "direct", "guess"])
argv = st.one_of(
    _argv(_words("count", "--length"), size, _option("--method", methods)),
    _argv(_words("table", "--max"), size, _option("--brute-cap", size), _flag("--json")),
    _argv(_words("list", "--length"), size, _flag("--json")),
    _argv(_words("tree", "--path"), token_text, _flag("--json")),
    _argv(_words("path", "--tree"), tree_text),
    _argv(_words("gf", "--form"), form, _words("--terms"), size, _flag("--json")),
    _argv(_words("mountains", "--steps"), size),
    _argv(_words("tilings", "--length"), size, _flag("--first-square"), _flag("--list")),
    _argv(_words("verify", "--max"), verify_max, _flag("--json")),
)


def _run_main(words: list[str]) -> tuple[object, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(words)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    # `verify --json` records how long each check took
    return code, re.sub(r'"seconds":[^,}]*', '"seconds":_', out.getvalue()), err.getvalue()


@settings(fuzz, deadline=None)  # `verify` takes about 0.15 s per call
@given(words=argv)
def test_main_answers_every_argv_with_exit_0_or_one_error_line(int_digit_limit, words):
    code, out, err = first = _run_main(words)
    assert code in (0, 2)
    if code == 0:
        assert err == ""
    else:
        assert sum("error:" in line for line in err.splitlines()) == 1
    assert _run_main(words) == first


_Z = TruncatedSeries([0, 1], 4)
_WITH_EMPTY = named_form("with-empty")


def _series_of_order(order):
    return TruncatedSeries([1], order)


def _handler(handler, flag):
    # a CLI handler called with its flag set to a value argparse never gives
    other = dict(method="closed", form="bundle", brute_cap=0, json=False, list=False)
    return lambda value: handler(argparse.Namespace(**other, **{flag.strip("-"): value}))


# every public taker of a count, length, order or size: the name its
# refusal gives the argument, and the least value it takes
SIZE_TAKERS = {
    "fibonacci": (fibonacci, "n", -1),
    "pell": (pell, "n", 0),
    "half_companion_pell": (half_companion_pell, "n", 0),
    "binet_pell": (binet_pell, "n", 0),
    "binet_half_companion": (binet_half_companion, "n", 0),
    "count_nondecreasing_quadratic": (count_nondecreasing_quadratic, "n", 0),
    "count_nondecreasing_closed": (count_nondecreasing_closed, "n", 0),
    "count_mountains": (count_mountains, "k", 0),
    "enumerate_tilings": (enumerate_tilings, "n", 0),
    "count_tilings": (count_tilings, "n", 0),
    "count_square_first_tilings": (count_square_first_tilings, "n", 0),
    "QuadraticNumber.__pow__": (lambda exponent: SILVER_RATIO**exponent, "exponent", 0),
    "Down": (Down, "down-step size", 1),
    "enumerate_deutsch": (enumerate_deutsch, "n", 0),
    "enumerate_nondecreasing_filter": (enumerate_nondecreasing_filter, "n", 0),
    "enumerate_nondecreasing_direct": (enumerate_nondecreasing_direct, "n", 0),
    "iter_decompositions": (iter_decompositions, "total_length", 0),
    "TruncatedSeries": (_series_of_order, "order", 0),
    "RationalGF.coefficients": (_WITH_EMPTY.coefficients, "order", 0),
    "RationalGF.coefficient": (_WITH_EMPTY.coefficient, "n", 0),
    "gf_coefficients": (lambda order: gf_coefficients("bundle", order), "order", 0),
    "star_identity_holds": (lambda order: star_identity_holds(_Z, _Z, order), "order", 0),
    "timed_checks": (verify.timed_checks, "max_length", 0),
    "run_checks": (verify.run_checks, "max_length", 0),
    **{
        f"cli.{handler}": (_handler(getattr(cli, handler), flag), flag, 0)
        for handler, flag in (
            ("_cmd_count", "--length"),
            ("_cmd_table", "--max"),
            ("_cmd_list", "--length"),
            ("_cmd_gf", "--terms"),
            ("_cmd_mountains", "--steps"),
            ("_cmd_tilings", "--length"),
            ("_cmd_verify", "--max"),
        )
    },
}


@pytest.mark.parametrize("take, what, least", SIZE_TAKERS.values(), ids=SIZE_TAKERS)
@pytest.mark.parametrize("value", [2.5, 3.0, "3", Fraction(3), None, True], ids=repr)
def test_a_size_is_exactly_an_int(take, what, least, value):
    # equal to 3 or to 1 is not enough: 3.0 would print as D3.0, True would
    # run as n = 1, and a float or a string would end in a bare TypeError
    if take is _series_of_order and value is None:
        # the series' own default: the order its coefficients reach
        assert take(value).order == 0
        return
    message = f"^{re.escape(what)} must be an int, got {re.escape(repr(value))}$"
    with pytest.raises(ValueError, match=message):
        take(value)


@pytest.mark.parametrize("take, what, least", SIZE_TAKERS.values(), ids=SIZE_TAKERS)
def test_a_size_below_its_least_is_refused(take, what, least):
    with pytest.raises(ValueError, match=f"^{re.escape(what)} must be >= {least}$"):
        take(least - 1)
