"""Fault injection for the cross-check suite.

Each case breaks one function that ``verify`` calls, through the module
or class attribute ``verify`` uses, so that it answers wrongly on one
small input.  The full result list of ``verify --max 6`` is then pinned:
the targeted check must fail with the same name and detail as before, so
no check can go vacuous unnoticed.  A case keyed ``check.variant``
reaches another FAIL name of the same check.  Further tests pin that the
census walks ``enumerate_deutsch`` and ``iter_decompositions`` once each
per length and calls neither stream wrapper, that a check stops at its
first failure, and the records of ``verify --json``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import itertools
import json
import time
from fractions import Fraction

import pytest

from deutschpaths import cli, numbers, paths, series, trees, verify

MAX_LENGTH = 6

# check -> PASS name for ``verify --max 6``, in the order the CLI prints them
PASSING = {
    "conservation": "paths: every enumerated path stays on or above ground and ends there (n <= 6)",
    "filter-vs-direct": "paths: filtered and structural enumerations agree, in order (n <= 6)",
    "compose-decompose": "paths: compose inverts decompose (n <= 6)",
    "decompose-compose": "paths: decompose inverts compose (n <= 6)",
    "unit-down": "paths: unit-down restriction counts F(2n-1) and matches its series (2n <= 6)",
    "mountain-census": "paths: mountain census matches the binomial count and F(k-1) (k <= 6)",
    "tree-round-trip": "trees: encoding and decoding are mutually inverse and injective (n <= 6)",
    "tree-weight": "trees: weight splits into edges = up-steps plus doubles = down-steps (n <= 6)",
    "tree-dyck": "trees: unit-down paths mark every edge double (n <= 6)",
    "tree-count": "trees: trees of weight n are equinumerous with the paths (n <= 6)",
    "five-forms": "series: all five closed forms expand identically (order 64)",
    "series-vs-brute": "series: with-empty coefficients equal the brute census (n <= 6)",
    "mountain-series": "series: mountain coefficients equal F(k-1) and the brute census",
    "bundle-geometric": "series: bundle form equals the geometric closure of the mountain form (order 64)",
    "partial-fractions": "series: partial fraction pieces combine to integers (order 64)",
    "division": "series: division recomposes exactly under multiplication",
    "star": "series: star identity (a+b)* = b*(ab*)* on 60 random pairs (order 32)",
    "pell-binet": "numbers: Pell sequences match their Binet forms (n <= 64), silver ratio algebra holds",
    "closed-count-routes": "numbers: closed count, ring evaluation, series (n <= 64) and brute census (n <= 6) all agree",
    "mountain-binomials": "numbers: mountain binomial sums equal F(k-1) (k <= 64)",
    "tilings": "numbers: tilings count F(n+1), square-first matches its series, domino deletion bijects (n <= 20)",
}


def wrong_on(target, change):
    """Patch a one-argument function to answer ``change(answer)`` on ``target`` only."""

    def patch(original):
        def fake(arg):
            answer = original(arg)
            return change(answer) if arg == target else answer

        return fake

    return patch


def wrong_first_on(target, change):
    """Like ``wrong_on``, but only the first call on ``target`` answers wrongly."""

    def patch(original):
        def fake(arg):
            answer = original(arg)
            if arg != target or fake.missed:
                return answer
            fake.missed = True
            return change(answer)

        fake.missed = False
        return fake

    return patch


def coefficient_off(form, index, by=1):
    """Patch ``gf_coefficients`` to add ``by`` to one coefficient of one form."""

    def patch(original):
        def fake(name, order):
            coeffs = list(original(name, order))
            if name == form and index <= order:
                coeffs[index] += by
            return coeffs

        return fake

    return patch


def false_on_call(count):
    """Patch a predicate to answer False on its ``count``-th call; ``fake.calls`` counts."""

    def patch(original):
        def fake(*args):
            fake.calls += 1
            return fake.calls != count and original(*args)

        fake.calls = 0
        return fake

    return patch


def unequal_to(value):
    """Patch ``__eq__`` to answer False against ``value``, and rightly otherwise."""

    def patch(original):
        def fake(self, other):
            if type(other) is type(value) and original(other, value):
                return False
            return original(self, other)

        return fake

    return patch


def last_quotient_coefficient_off(original):
    """Patch ``TruncatedSeries.__truediv__`` to add 1 to the top coefficient."""

    def fake(self, other):
        quotient = original(self, other)
        return series.TruncatedSeries([*quotient.coefficients[:-1], quotient[-1] + 1])

    return fake


def drop_third(stream):
    return (item for i, item in enumerate(stream) if i != 2)


SQUARE, DOMINO = numbers.Piece.SQUARE, numbers.Piece.DOMINO


# check -> (module, attribute, patch, {check: (FAIL name, detail)}).  The
# failures are fixed literals: verify must keep reporting exactly these.
FAULTS = {
    "conservation": (
        paths,
        "enumerate_deutsch",
        wrong_on(4, lambda stream: itertools.chain(stream, [paths.parse_path("U D1 D1 U")])),
        {
            "conservation": (
                "paths: every enumerated path stays on or above ground and ends there (n <= 6)",
                "1 bad paths",
            ),
        },
    ),
    "filter-vs-direct": (
        paths.DeutschPath,
        "sort_key",
        wrong_on(paths.parse_path("U U U U U D5"), lambda key: (9,)),
        {
            "filter-vs-direct": (
                "paths: filtered and structural enumerations agree, in order",
                "streams differ at length 6",
            ),
        },
    ),
    "compose-decompose": (
        paths,
        "decompose",
        wrong_on(paths.parse_path("U U D1 D1"), lambda d: dataclasses.replace(d, homerun=(2,))),
        {
            "compose-decompose": ("paths: compose inverts decompose", "failed on 'U U D1 D1'"),
            "decompose-compose": (
                "paths: decompose inverts compose",
                "failed at length 4 on Decomposition(bundles=((), ()), homerun=(1, 1))",
            ),
        },
    ),
    # every well-typed decomposition survives compose and decompose, so
    # decompose errs, once: the census decomposes a length's composed
    # paths before its filtered ones, and the second call is right
    "decompose-compose": (
        paths,
        "decompose",
        wrong_first_on(paths.parse_path("U U D2"), lambda d: dataclasses.replace(d, homerun=(1, 1))),
        {
            "decompose-compose": (
                "paths: decompose inverts compose",
                "failed at length 3 on Decomposition(bundles=((), ()), homerun=(2,))",
            ),
        },
    ),
    "unit-down": (
        series,
        "gf_coefficients",
        coefficient_off("dyck-nondecreasing", 2),
        {
            "unit-down": (
                "paths: unit-down restriction counts F(2n-1) and matches its series (2n <= 6)",
                "brute [1, 1, 2, 5], fibonacci [1, 1, 2, 5], series [1, 1, 3, 5]",
            ),
        },
    ),
    "mountain-census": (
        numbers,
        "count_mountains",
        wrong_on(4, lambda c: c + 1),
        {
            "mountain-census": (
                "paths: mountain census matches the binomial count and F(k-1)",
                "k=4: census 2",
            ),
            "mountain-binomials": ("numbers: mountain binomial sums equal F(k-1)", "k=4"),
        },
    ),
    "tree-round-trip": (
        trees,
        "tree_to_path",
        wrong_on(
            trees.path_to_tree(paths.parse_path("U U D1 U D2")),
            lambda p: paths.DeutschPath(p.steps[:-1]),
        ),
        {
            "tree-round-trip": (
                "trees: tree decoding inverts encoding",
                "failed on 'U U D1 U D2'",
            ),
        },
    ),
    "tree-round-trip.collision": (
        trees,
        "path_to_tree",
        wrong_on(
            paths.parse_path("U U D2 U D1"),
            lambda tree: trees.path_to_tree(paths.parse_path("U U U D2 D1")),
        ),
        {
            # decoding fails on the same path, after the collision
            "tree-round-trip": (
                "trees: distinct paths map to distinct trees",
                "collision at length 5",
            ),
            "tree-count": (
                "trees: trees of weight n are equinumerous with the paths",
                "n=5: 5",
            ),
        },
    ),
    "tree-weight": (
        trees,
        "tree_statistics",
        wrong_on(
            trees.path_to_tree(paths.parse_path("U U D2 U D1")),
            lambda s: dataclasses.replace(
                s, edge_count=s.edge_count - 1, double_count=s.double_count + 1
            ),
        ),
        {
            "tree-weight": ("trees: doubles count the down-steps", "failed on 'U U D2 U D1'"),
        },
    ),
    "tree-dyck": (
        trees,
        "tree_statistics",
        wrong_on(
            trees.path_to_tree(paths.parse_path("U D1 U D1")),
            lambda s: dataclasses.replace(
                s, edge_count=s.edge_count + 1, double_count=s.double_count - 1
            ),
        ),
        {
            "tree-weight": ("trees: doubles count the down-steps", "failed on 'U D1 U D1'"),
            "tree-dyck": (
                "trees: unit-down paths mark every edge double",
                "failed on 'U D1 U D1'",
            ),
        },
    ),
    "tree-count": (
        numbers,
        "count_nondecreasing_closed",
        wrong_on(5, lambda c: c + 1),
        {
            "tree-count": (
                "trees: trees of weight n are equinumerous with the paths",
                "n=5: 6",
            ),
            "closed-count-routes": (
                "numbers: closed count equals ring evaluation and series",
                "n=5",
            ),
        },
    ),
    "series-vs-brute": (
        series,
        "gf_coefficients",
        coefficient_off("with-empty", 3),
        {
            "series-vs-brute": (
                "series: with-empty coefficients equal the brute census (n <= 6)",
                "series [1, 0, 1, 2, 3, 6, 15], brute [1, 0, 1, 1, 3, 6, 15]",
            ),
            "closed-count-routes": (
                "numbers: closed count equals ring evaluation and series",
                "n=3",
            ),
        },
    ),
    "mountain-series": (
        paths,
        "as_mountain",
        wrong_on(paths.parse_path("U U U D1 D2"), lambda m: None),
        {
            "mountain-census": (
                "paths: mountain census matches the binomial count and F(k-1)",
                "k=5: census 2",
            ),
            "mountain-series": (
                "series: mountain coefficients equal F(k-1) and the brute census",
                "",
            ),
        },
    ),
    "closed-count-routes": (
        paths,
        "is_nondecreasing",
        wrong_on(paths.parse_path("U U U D2 D1"), lambda answer: False),
        {
            "filter-vs-direct": (
                "paths: filtered and structural enumerations agree, in order",
                "streams differ at length 5",
            ),
            "tree-count": (
                "trees: trees of weight n are equinumerous with the paths",
                "n=5: 5",
            ),
            "series-vs-brute": (
                "series: with-empty coefficients equal the brute census (n <= 6)",
                "series [1, 0, 1, 1, 3, 6, 15], brute [1, 0, 1, 1, 3, 5, 15]",
            ),
            "closed-count-routes": (
                "numbers: closed count equals the brute census",
                "brute [1, 0, 1, 1, 3, 5, 15]",
            ),
        },
    ),
    "closed-count-routes.ring": (
        numbers,
        "count_nondecreasing_quadratic",
        wrong_on(10, lambda c: c + 1),
        {
            "closed-count-routes": (
                "numbers: closed count equals ring evaluation and series",
                "n=10",
            ),
        },
    ),
    # a fault at a check's top index fails it, so no range stops short
    "closed-count-routes.top": (
        numbers,
        "count_nondecreasing_quadratic",
        wrong_on(verify.SEQUENCE_LIMIT, lambda c: c + 1),
        {
            "closed-count-routes": (
                "numbers: closed count equals ring evaluation and series",
                "n=64",
            ),
        },
    ),
    "unit-down.non-integral": (
        series,
        "gf_coefficients",
        coefficient_off("dyck-nondecreasing", 2, Fraction(1, 2)),
        {
            "unit-down": (
                "paths: unit-down restriction counts F(2n-1) and matches its series (2n <= 6)",
                "brute [1, 1, 2, 5], fibonacci [1, 1, 2, 5], series [1, 1, 5/2, 5]",
            ),
        },
    ),
    "series-vs-brute.non-integral": (
        series,
        "gf_coefficients",
        coefficient_off("with-empty", 3, Fraction(1, 2)),
        {
            "series-vs-brute": (
                "series: with-empty coefficients equal the brute census (n <= 6)",
                "series [1, 0, 1, 3/2, 3, 6, 15], brute [1, 0, 1, 1, 3, 6, 15]",
            ),
            "closed-count-routes": (
                "numbers: closed count equals ring evaluation and series",
                "n=3",
            ),
        },
    ),
    "tree-weight.path-length": (
        trees,
        "tree_statistics",
        wrong_on(
            trees.path_to_tree(paths.parse_path("U U D2 U D1")),
            lambda s: dataclasses.replace(s, edge_count=s.edge_count + 1),
        ),
        {
            "tree-weight": ("trees: weight equals path length", "failed on 'U U D2 U D1'"),
        },
    ),
    "five-forms": (
        series,
        "named_form",
        wrong_on("cf-closure", lambda form: form * 2),
        {
            "five-forms": (
                "series: all five closed forms expand identically (order 64)",
                "disagreeing forms: ['cf-closure']",
            ),
        },
    ),
    "bundle-geometric": (
        series,
        "gf_coefficients",
        coefficient_off("bundle", 5),
        {
            "bundle-geometric": (
                "series: bundle form equals the geometric closure of the mountain form (order 64)",
                "",
            ),
        },
    ),
    "partial-fractions": (
        series,
        "gf_coefficients",
        coefficient_off("partial-fractions", 7, Fraction(1, 2)),
        {
            "partial-fractions": (
                "series: partial fraction pieces combine to integers (order 64)",
                "",
            ),
        },
    ),
    "division": (
        series.TruncatedSeries,
        "__truediv__",
        last_quotient_coefficient_off,
        {
            "bundle-geometric": (
                "series: bundle form equals the geometric closure of the mountain form (order 64)",
                "",
            ),
            "division": ("series: division recomposes exactly under multiplication", "trial 0"),
            "star": ("series: star identity (a+b)* = b*(ab*)*", "trial 0"),
        },
    ),
    "star": (
        series,
        "star_identity_holds",
        false_on_call(4),
        {
            "star": ("series: star identity (a+b)* = b*(ab*)*", "trial 3"),
        },
    ),
    "pell-binet": (
        numbers,
        "binet_pell",
        wrong_on(10, lambda p: p + 1),
        {
            "pell-binet": ("numbers: Pell recurrence matches Binet", "n=10"),
        },
    ),
    "pell-binet.top": (
        numbers,
        "binet_pell",
        wrong_on(verify.SEQUENCE_LIMIT, lambda p: p + 1),
        {
            "pell-binet": ("numbers: Pell recurrence matches Binet", "n=64"),
        },
    ),
    # the ring's own algebra: the silver ratio times its conjugate is -1
    "pell-binet.silver-ratio": (
        numbers.QuadraticNumber,
        "__eq__",
        unequal_to(numbers.QuadraticNumber(-1)),
        {
            "pell-binet": (
                "numbers: Pell sequences match their Binet forms (n <= 64), silver ratio algebra holds",
                "",
            ),
        },
    ),
    "mountain-binomials.top": (
        numbers,
        "count_mountains",
        wrong_on(verify.SEQUENCE_LIMIT, lambda c: c + 1),
        {
            "mountain-binomials": ("numbers: mountain binomial sums equal F(k-1)", "k=64"),
        },
    ),
    "pell-binet.half-companion": (
        numbers,
        "binet_half_companion",
        wrong_on(10, lambda h: h + 1),
        {
            "pell-binet": ("numbers: half companion recurrence matches Binet", "n=10"),
        },
    ),
    "tilings": (
        numbers,
        "count_tilings",
        wrong_on(7, lambda c: c + 1),
        {
            "tilings": ("numbers: tiling count equals F(n+1)", "n=7"),
        },
    ),
    "tilings.top": (
        numbers,
        "count_tilings",
        wrong_on(verify.TILING_LIMIT, lambda c: c + 1),
        {
            "tilings": ("numbers: tiling count equals F(n+1)", "n=20"),
        },
    ),
    "tilings.enumeration": (
        numbers,
        "enumerate_tilings",
        wrong_on(5, drop_third),
        {
            "tilings": ("numbers: tiling enumeration matches the count", "n=5"),
        },
    ),
    "tilings.square-first": (
        numbers,
        "count_square_first_tilings",
        wrong_on(6, lambda c: c + 1),
        {
            "tilings": ("numbers: square-first counts match their series", "n=6"),
        },
    ),
    "tilings.domino-deletion": (
        numbers,
        "delete_leading_domino",
        wrong_on((DOMINO, SQUARE, SQUARE), lambda t: (DOMINO,)),
        {
            "tilings": ("numbers: deleting the leading domino is a bijection", "n=3"),
        },
    ),
}


def cli_line(name: str, passed: bool, detail: str) -> str:
    if passed:
        return f"PASS {name}"
    return f"FAIL {name} ({detail})" if detail else f"FAIL {name}"


def assert_fault_fails(monkeypatch, fault, max_length=MAX_LENGTH):
    """Run ``verify --max max_length`` under ``fault`` and pin its report."""
    module, attribute, patch, failures = fault
    monkeypatch.setattr(module, attribute, patch(getattr(module, attribute)))
    # run the suite once, through the CLI, and keep what run_checks returned
    results = []
    run_checks = verify.run_checks

    def recording(max_length):
        results.extend(run_checks(max_length))
        return results

    monkeypatch.setattr(verify, "run_checks", recording)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["verify", "--max", str(max_length)])

    expected = [
        (failures[label][0], False, failures[label][1])
        if label in failures
        else (name.replace(f"<= {MAX_LENGTH})", f"<= {max_length})"), True, "")
        for label, name in PASSING.items()
    ]
    assert [(r.name, r.passed, r.detail) for r in results] == expected
    assert (code, err.getvalue()) == (1, "")
    assert out.getvalue().splitlines() == [
        *(cli_line(*row) for row in expected),
        f"{len(PASSING) - len(failures)}/{len(PASSING)} checks passed",
    ]


@pytest.mark.parametrize("check", FAULTS)
def test_fault_fails_its_check(monkeypatch, check):
    assert check.partition(".")[0] in FAULTS[check][3]
    assert_fault_fails(monkeypatch, FAULTS[check])


def test_a_decreasing_path_let_through_fails_compose(monkeypatch):
    # the first path whose valleys decrease has length 7; it has no
    # decomposition, and the census must say so instead of raising
    falling = paths.parse_path("U U D1 U D2 U D1")
    brute = "brute [1, 0, 1, 1, 3, 6, 15, 36]"
    fault = (
        paths,
        "is_nondecreasing",
        wrong_on(falling, lambda answer: True),
        {
            "filter-vs-direct": (
                "paths: filtered and structural enumerations agree, in order",
                "streams differ at length 7",
            ),
            "compose-decompose": (
                "paths: compose inverts decompose",
                "failed on 'U U D1 U D2 U D1'",
            ),
            "series-vs-brute": (
                "series: with-empty coefficients equal the brute census (n <= 7)",
                f"series [1, 0, 1, 1, 3, 6, 15, 35], {brute}",
            ),
            "closed-count-routes": ("numbers: closed count equals the brute census", brute),
        },
    )
    assert_fault_fails(monkeypatch, fault, max_length=7)


def test_a_ring_fault_inside_the_census_fails_tree_count(monkeypatch):
    # the census asks the closed route for every length it walks, and
    # the closed route raises when its ring check disagrees
    module, attribute, patch, failures = FAULTS["closed-count-routes.ring"]
    failures = {
        **failures,
        "tree-count": (
            "trees: trees of weight n are equinumerous with the paths",
            "n=10: closed form routes disagree at n=10",
        ),
    }
    assert_fault_fails(monkeypatch, (module, attribute, patch, failures), max_length=10)


def test_a_check_stops_at_its_first_failure(monkeypatch):
    fake = false_on_call(4)(series.star_identity_holds)
    monkeypatch.setattr(series, "star_identity_holds", fake)
    failed = [r for r in verify.run_checks(0) if not r.passed]
    assert [(r.name, r.detail) for r in failed] == [FAULTS["star"][3]["star"]]
    assert fake.calls == 4


def test_each_route_is_walked_once_per_length(monkeypatch):
    calls = dict.fromkeys(
        (
            "enumerate_deutsch",
            "enumerate_nondecreasing_filter",
            "enumerate_nondecreasing_direct",
            "iter_decompositions",
        ),
        0,
    )

    def counted(name, original):
        def wrapper(n):
            calls[name] += 1
            return original(n)

        return wrapper

    for name in calls:
        monkeypatch.setattr(paths, name, counted(name, getattr(paths, name)))
    assert all(r.passed for r in verify.run_checks(MAX_LENGTH))
    lengths = MAX_LENGTH + 1
    assert calls == {
        "enumerate_deutsch": lengths,
        "enumerate_nondecreasing_filter": 0,
        "enumerate_nondecreasing_direct": 0,
        "iter_decompositions": lengths,
    }


@pytest.mark.parametrize("wrong", [(12,), (13, 14)], ids=str)
def test_mountain_series_reads_the_whole_census(wrong):
    census = [numbers.count_mountains(k) for k in range(15)]
    assert list(verify._mountain_series_failures(14, census)) == []
    for k in wrong:
        census[k] += 1
    assert list(verify._mountain_series_failures(14, census)) == [(None, "")]


def test_closed_count_reads_a_census_past_the_series(monkeypatch):
    # the series stops at n = 64; the census is compared with the closed counts
    top = verify.SEQUENCE_LIMIT + 1
    census = [numbers.count_nondecreasing_closed(n) for n in range(top + 1)]
    assert list(verify._closed_count_failures(top, census)) == []
    wrong = [*census[:top], census[top] + 1]
    assert list(verify._closed_count_failures(top, wrong)) == [
        ("numbers: closed count equals the brute census", f"brute {wrong}")
    ]
    # a closed route that raises past the series fails a correct census
    ring = numbers.count_nondecreasing_quadratic
    monkeypatch.setattr(
        numbers, "count_nondecreasing_quadratic", wrong_on(top, lambda c: c + 1)(ring)
    )
    assert list(verify._closed_count_failures(top, census)) == [
        ("numbers: closed count equals the brute census", f"brute {census}")
    ]


def verify_json() -> tuple[int, list[dict]]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify", "--max", str(MAX_LENGTH), "--json"])
    return code, [json.loads(line) for line in out.getvalue().splitlines()]


def test_json_gives_the_census_then_one_record_per_check():
    code, records = verify_json()
    assert code == 0
    assert len(records) == 1 + len(PASSING) == 22
    for record in records:
        assert list(record) == ["name", "passed", "detail", "seconds"]
        assert type(record["seconds"]) is float and record["seconds"] >= 0
    census, *checks = records
    assert census["name"] == (
        "census: each enumeration route walked once per length (n <= 6)"
    )
    assert (census["passed"], census["detail"]) == (None, "")
    assert [(r["name"], r["passed"], r["detail"]) for r in checks] == [
        (name, True, "") for name in PASSING.values()
    ]


def test_json_exit_code_follows_the_checks(monkeypatch):
    fake = false_on_call(4)(series.star_identity_holds)
    monkeypatch.setattr(series, "star_identity_holds", fake)
    code, records = verify_json()
    assert code == 1
    failed = [(r["name"], r["detail"]) for r in records if r["passed"] is False]
    assert failed == [FAULTS["star"][3]["star"]]


def test_json_times_each_check_where_it_runs(monkeypatch):
    def slow_star():
        time.sleep(0.2)
        yield from ()

    monkeypatch.setattr(verify, "_star_identity_failures", slow_star)
    _, records = verify_json()
    seconds = {r["name"]: r["seconds"] for r in records}
    star = seconds.pop(PASSING["star"])
    assert star >= 0.2
    assert max(seconds.values()) < star
