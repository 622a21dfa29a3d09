"""Series engine: exact arithmetic, rational expansion, the named forms."""

from __future__ import annotations

import hashlib
import math
import operator
import re
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from deutschpaths import (
    FORM_NAMES,
    NonzeroConstantTermError,
    QuadraticNumber,
    RationalGF,
    SILVER_RATIO,
    TruncatedSeries,
    UnknownFormError,
    ZeroConstantTermError,
    coefficients_to_json,
    fibonacci,
    format_coefficients,
    gf_coefficients,
    named_form,
    series,
    star_identity_holds,
)

# every fraction in [-4, 4] with denominator at most 3, 0 first so that
# shrinking heads to small values; sampling from the 33 values draws far
# faster than st.fractions over the same domain
rationals = st.sampled_from(
    sorted(
        {Fraction(n, d) for d in (1, 2, 3) for n in range(-4 * d, 4 * d + 1)},
        key=lambda x: (abs(x), x < 0),
    )
)


def _series(coeffs, order=None):
    return TruncatedSeries(coeffs, order)


@pytest.fixture
def count_fractions(monkeypatch):
    """Swaps series.Fraction for a subclass that records each one built.

    Calling the fixture makes the swap and returns the record, so the
    operands can be built first.
    """

    def swap():
        built = []

        class CountingFraction(Fraction):
            def __new__(cls, *args, **kwargs):
                built.append(args)
                return super().__new__(cls, *args, **kwargs)

        monkeypatch.setattr(series, "Fraction", CountingFraction)
        return built

    return swap


class TestTruncatedSeries:
    def test_basic_algebra(self):
        z = TruncatedSeries([0, 1], 6)
        assert ((1 + z) * (1 - z)).coefficients[:3] == (1, 0, -1)
        assert (z * z).coefficients == (0, 0, 1, 0, 0, 0, 0)

    def test_operations_truncate_to_the_smaller_order(self):
        a = _series([1, 2, 3])
        b = _series([1, 1])
        assert (a + b).order == 1
        assert (a * b).order == 1

    def test_geometric_series(self):
        z = TruncatedSeries([0, 1], 6)
        assert (1 / (1 - z)).coefficients == (1,) * 7

    def test_fibonacci_series(self):
        z = TruncatedSeries([0, 1], 5)
        assert (1 / (1 - z - z * z)).coefficients == (1, 1, 2, 3, 5, 8)
        assert ((z * z) / (1 - z - z * z)).coefficients == (0, 0, 1, 1, 2, 3)

    def test_division_requires_constant_term(self):
        z = TruncatedSeries([0, 1], 4)
        with pytest.raises(ZeroConstantTermError):
            (1 - z) / z

    def test_bad_shapes_rejected(self):
        with pytest.raises(ValueError, match="^order must be >= 0$"):
            TruncatedSeries([1], -1)
        with pytest.raises(ValueError, match="^need at least one coefficient or an explicit order$"):
            TruncatedSeries([])

    def test_truncate_pads_and_trims(self):
        a = _series([1, 2], order=4)
        assert a.coefficients == (1, 2, 0, 0, 0)
        assert _series([1, 2, 3], order=1).coefficients == (1, 2)

    def test_operators_coerce_scalars(self):
        x, half = 1 + 2 * TruncatedSeries([0, 1], 3), Fraction(1, 2)
        assert (x - 3).coefficients == (-2, 2, 0, 0)
        assert (3 - x).coefficients == (2, -2, 0, 0)
        assert (3 / x).coefficients == (3, -6, 12, -24)
        assert (x - half).coefficients == (half, 2, 0, 0)
        assert (half - x).coefficients == (-half, -2, 0, 0)
        assert (half / x).coefficients == (half, -1, 2, -4)
        assert (x - x).coefficients == (0, 0, 0, 0)

    @given(
        st.lists(rationals, min_size=5, max_size=5),
        st.lists(rationals, min_size=5, max_size=5),
    )
    def test_multiplication_commutes(self, xs, ys):
        a, b = _series(xs), _series(ys)
        assert a * b == b * a

    @given(
        st.lists(rationals, min_size=8, max_size=8),
        st.lists(rationals, min_size=8, max_size=8),
    )
    def test_division_recomposes(self, xs, ys):
        if not ys[0]:
            ys[0] = Fraction(1)
        a, b = _series(xs), _series(ys)
        assert (a / b) * b == a


# The Fraction arithmetic the series engine used to run, kept here as
# an oracle for its integer arithmetic.
def _fraction_product(xs, ys):
    order = min(len(xs), len(ys)) - 1
    return [
        sum((Fraction(xs[i]) * ys[n - i] for i in range(n + 1)), Fraction(0))
        for n in range(order + 1)
    ]


def _fraction_quotient(xs, ys):
    order = min(len(xs), len(ys)) - 1
    out = []
    for n in range(order + 1):
        acc = Fraction(xs[n])
        for k in range(1, n + 1):
            acc -= ys[k] * out[n - k]
        out.append(acc / ys[0])
    return out


entries = st.one_of(
    st.integers(-9, 9), st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12))
)
# negative and fractional constant terms give a negative or fractional
# leading numerator to divide by
constant_terms = entries.filter(bool)
# a numerator, and a denominator with a nonzero constant term
rational_terms = st.tuples(
    st.lists(entries, max_size=5),
    st.builds(lambda q0, tail: [q0, *tail], constant_terms, st.lists(entries, max_size=4)),
)


class TestIntegerArithmetic:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(entries, min_size=1, max_size=10),
        constant_terms,
        st.lists(entries, max_size=9),
    )
    def test_matches_the_fraction_oracle(self, xs, y0, y_tail):
        ys = [y0, *y_tail]
        a, b = _series(xs), _series(ys)
        expected = {
            "+": [Fraction(x) + y for x, y in zip(xs, ys)],
            "-": [Fraction(x) - y for x, y in zip(xs, ys)],
            "*": _fraction_product(xs, ys),
            "/": _fraction_quotient(xs, ys),
            "neg": [-Fraction(x) for x in xs],
        }
        results = {"+": a + b, "-": a - b, "*": a * b, "/": a / b, "neg": -a}
        for op, result in results.items():
            assert result.coefficients == tuple(expected[op]), op
            assert all(type(c) is Fraction for c in result.coefficients), op
            # the same value built from its coefficients has the same form
            rebuilt = _series(expected[op])
            assert result == rebuilt, op
            assert hash(result) == hash(rebuilt) == hash(tuple(expected[op])), op

    @pytest.mark.parametrize(
        "built, computed",
        [
            (_series([Fraction(2, 4)], 3), _series([1], 3) / _series([2], 3)),
            # a negative constant term to an odd power: the scaled
            # denominator comes out negative before the sign is fixed
            (_series([Fraction(2, 4)], 2), _series([-3], 2) / _series([-6], 2)),
            (_series([Fraction(-1, 3), 1], 2), _series([1, -3], 2) / _series([-3], 2)),
            (_series([2, 4]), _series([Fraction(1, 3), Fraction(2, 3)]) * 6),
            (_series([0], 2), _series([Fraction(1, 2), 7, 1]) - _series([Fraction(1, 2), 7, 1])),
        ],
    )
    def test_equal_values_built_two_ways(self, built, computed):
        assert built == computed
        assert hash(built) == hash(computed) == hash(tuple(built.coefficients))
        assert repr(built) == repr(computed)
        for s in (built, computed):
            assert all(type(c) is Fraction for c in s.coefficients)
            assert all(type(s[n]) is Fraction for n in range(s.order + 1))

    def test_product_and_quotient_build_no_fraction(self, count_fractions):
        a = _series([Fraction(k - 7, k % 5 + 1) for k in range(33)])
        b = _series([1] + [Fraction(k % 7 - 3, k % 4 + 2) for k in range(1, 33)])
        built = count_fractions()
        assert (a * b).order == (a / b).order == 32
        assert built == []
        # the swap is seen: reading a coefficient out builds one
        assert a[1] == Fraction(-6, 2)
        assert len(built) == 1


class TestRationalGF:
    def test_dyck_form_expansion(self):
        gf = RationalGF([1, -2], [1, -3, 1])
        assert gf.coefficients(5) == (1, 1, 2, 5, 13, 34)

    def test_bundle_expansion(self):
        assert gf_coefficients("bundle", 5) == (1, 0, 1, 1, 3, 5)

    def test_constant(self):
        gf = RationalGF([1], [1])
        assert gf.coefficients(3) == (1, 0, 0, 0)

    def test_vanishing_denominator_rejected(self):
        with pytest.raises(ZeroConstantTermError):
            RationalGF([1], [0, 1])

    def test_matches_series_division(self):
        num, den = [0, 0, 1, -1, -1], [1, -2, -2, 2, 1]
        gf = RationalGF(num, den)
        direct = TruncatedSeries(num, 20) / TruncatedSeries(den, 20)
        assert gf.coefficients(20) == direct.coefficients

    def test_matches_series_division_with_fractions(self):
        # q0 = 2 and fractional coefficients on both sides
        half, third = Fraction(1, 2), Fraction(1, 3)
        num = [half, -third, 0, Fraction(5, 7)]
        den = [2, third, -half, 1, Fraction(-3, 4)]
        gf = RationalGF(num, den)
        direct = TruncatedSeries(num, 30) / TruncatedSeries(den, 30)
        assert gf.coefficients(30) == direct.coefficients
        assert all(type(c) is Fraction for c in gf.coefficients(30))
        assert [gf.coefficient(n) for n in range(31)] == list(direct.coefficients)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.one_of(st.integers(-5, 5), rationals), max_size=6),
        st.sampled_from([1, -1, 2, Fraction(1, 3)]),
        st.lists(st.one_of(st.integers(-5, 5), rationals), max_size=5),
        st.integers(0, 60),
    )
    def test_single_coefficient_matches_the_expansion(self, num, q0, den_tail, n):
        gf = RationalGF(num, [q0] + den_tail)
        value = gf.coefficient(n)
        assert type(value) is Fraction
        assert value == gf.coefficients(n)[n]

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(-9, 9), max_size=6),
        st.integers(-9, 9).filter(bool),
        st.lists(st.integers(-9, 9), max_size=5),
        st.integers(0, 70),
    )
    def test_single_coefficient_on_integer_polynomials(self, num, q0, den_tail, n):
        gf = RationalGF(num, [q0] + den_tail)
        assert gf.coefficient(n) == gf.coefficients(n)[n]

    @pytest.mark.parametrize(
        "num, den",
        [([3, -1, 4], [5]), ([7], [-2]), ([], [3]), ([], [2, 1]), ([0, 0, 0], [1, -1, 4])],
        ids=["constant-denominator", "constant", "zero", "zero-numerator", "zero-terms"],
    )
    def test_single_coefficient_of_degenerate_shapes(self, num, den):
        # a constant denominator and a zero numerator, whose products are
        # shorter than the last halving reads
        gf = RationalGF(num, den)
        expansion = gf.coefficients(70)
        assert [gf.coefficient(n) for n in range(71)] == list(expansion)

    @settings(max_examples=200, deadline=None)
    @given(rational_terms, st.sampled_from([1, -1, 6, Fraction(-2, 3)]))
    def test_stored_primitive_with_a_positive_constant_term(self, terms, factor):
        gf = RationalGF(*terms)
        assert math.gcd(*gf.numerator, *gf.denominator) == 1
        assert gf.denominator[0] > 0
        num, den = terms
        scaled = RationalGF([factor * c for c in num], [factor * c for c in den])
        assert (scaled.numerator, scaled.denominator) == (gf.numerator, gf.denominator)

    def test_a_common_factor_is_divided_out(self):
        gf = RationalGF([2, 4], [6, 2])
        assert (gf.numerator, gf.denominator) == ((1, 2), (3, 1))
        assert gf == RationalGF([1, 2], [3, 1])

    @pytest.mark.parametrize(
        "gf",
        [
            RationalGF([1], [2, -1]),
            RationalGF([Fraction(1, 3)], [3, -1]),
            RationalGF([2, -1], [-2, 1, 1]),
            RationalGF([2, 1], [2, 1]),
        ],
        ids=["one-over-2-minus-z", "fractional", "negative-constant-term", "one-over-q0-2"],
    )
    def test_values_are_ints_exactly_where_integral(self, gf):
        # the reader the CLI prints from, where the recurrence must divide
        assert gf.denominator[0] != 1
        coefficients = gf.coefficients(40)
        values = gf._values(40)
        assert values == list(coefficients)
        assert [type(v) for v in values] == [
            int if c.denominator == 1 else Fraction for c in coefficients
        ]

    def test_operators_coerce_scalars(self):
        z = RationalGF([0, 1], [1])
        assert (1 / (1 - z - z * z)).coefficients(5) == (1, 1, 2, 3, 5, 8)
        assert (z - 1).coefficients(2) == (-1, 1, 0)
        assert (Fraction(1, 2) * z + 3).coefficients(2) == (3, Fraction(1, 2), 0)
        assert (2 / (1 - z)).coefficients(3) == (2, 2, 2, 2)
        assert (z / 2).coefficients(1) == (0, Fraction(1, 2))
        x, half, one = 1 + 2 * z, Fraction(1, 2), [1]
        assert x - 3 == RationalGF([-2, 2], one)
        assert 3 - x == RationalGF([2, -2], one)
        assert 3 / x == RationalGF([3], [1, 2])
        assert x - half == RationalGF([half, 2], one)
        assert half - x == RationalGF([-half, -2], one)
        assert half / x == RationalGF([half], [1, 2])
        assert x - x == RationalGF([0], one)

    def test_equality_is_by_value(self):
        z = RationalGF([0, 1], [1])
        unreduced = RationalGF([1, 1], [1, 0, -1])
        assert unreduced == 1 / (1 - z)
        assert unreduced != 1 / (1 + z)
        one = RationalGF([1], [1])
        assert (1 - z) / (1 - z) == one
        assert 1 + z != one
        assert z != "z"

    def test_division_by_vanishing_numerator_rejected(self):
        z = RationalGF([0, 1], [1])
        with pytest.raises(ZeroConstantTermError):
            (1 - z) / z
        with pytest.raises(ZeroConstantTermError):
            1 / (z / (1 - z))
        with pytest.raises(ZeroConstantTermError):
            z / 0

    def test_operators_build_no_fraction(self, count_fractions):
        a, b = named_form("gamma"), named_form("partial-fractions")
        built = count_fractions()
        results = [a + b, a - b, a * b, a / b]
        assert built == []
        # the swap is seen: each coefficient read out builds one
        for result in results:
            built.clear()
            assert len(result.coefficients(20)) == 21
            assert len(built) == 21

    @settings(max_examples=200, deadline=None)
    @given(rational_terms, rational_terms, st.integers(0, 12))
    def test_operators_match_the_series_oracle(self, a_terms, b_terms, order):
        a, b = RationalGF(*a_terms), RationalGF(*b_terms)
        # each operand expanded by TruncatedSeries division alone
        sa, sb = (
            TruncatedSeries(p, order) / TruncatedSeries(q, order) for p, q in (a_terms, b_terms)
        )
        results = [a, b]
        for op in _OPERATORS:
            if op is operator.truediv and not sb[0]:
                with pytest.raises(ZeroConstantTermError, match="nonzero constant term"):
                    a / b
                continue
            results.append(op(a, b))
            assert results[-1].coefficients(order) == op(sa, sb).coefficients, op
        for x in results:
            assert eval(repr(x)) == x
            assert repr(eval(repr(x))) == repr(x)


# one invertible instance of each exact type, so a scalar divides by it
_EXACT = [
    SILVER_RATIO,
    TruncatedSeries([1, 2], 3),
    RationalGF([1, 2], [1]),
]
_OPERATORS = [operator.add, operator.sub, operator.mul, operator.truediv]
_LIFTS = {
    QuadraticNumber: lambda x, value: QuadraticNumber(value),
    TruncatedSeries: lambda x, value: TruncatedSeries([value], x.order),
    RationalGF: lambda x, value: RationalGF([value], [1]),
}
_DIVISION_BY_ZERO = {
    QuadraticNumber: ZeroDivisionError,
    TruncatedSeries: ZeroConstantTermError,
    RationalGF: ZeroConstantTermError,
}


@pytest.mark.parametrize("x", _EXACT, ids=lambda x: type(x).__name__)
def test_exact_types_reject_other_operands(x):
    name = type(x).__name__
    cases = [
        (lambda: x - "a", f"-: '{name}' and 'str'"),
        (lambda: "a" - x, f"-: 'str' and '{name}'"),
        (lambda: "a" / x, f"/: 'str' and '{name}'"),
    ]
    for attempt, operands in cases:
        with pytest.raises(TypeError) as excinfo:
            attempt()
        assert str(excinfo.value) == f"unsupported operand type(s) for {operands}"
    # Every operator, both ways round, fails as it would for a type of
    # the same name that defines no operators at all.
    stand_in = type(name, (), {})()
    others = [1.5, "a", None, [1, 1]]
    others += [y for y in _EXACT if type(y) is not type(x)]
    for op in _OPERATORS:
        for other in others:
            for operands, expected in (
                ((x, other), (stand_in, other)),
                ((other, x), (other, stand_in)),
            ):
                with pytest.raises(TypeError) as wanted:
                    op(*expected)
                with pytest.raises(TypeError) as excinfo:
                    op(*operands)
                assert str(excinfo.value) == str(wanted.value)
    # slotted all the way up: no instance carries a __dict__
    assert not hasattr(x, "__dict__")


@pytest.mark.parametrize("x", _EXACT, ids=lambda x: type(x).__name__)
@pytest.mark.parametrize("scalar", [3, Fraction(1, 2), True], ids=repr)
def test_exact_types_lift_int_and_fraction(x, scalar):
    lifted = _LIFTS[type(x)](x, scalar)
    for op in _OPERATORS:
        for result, expected in ((op(x, scalar), op(x, lifted)), (op(scalar, x), op(lifted, x))):
            assert type(result) is type(x)
            assert result == expected


# every place where an exact type takes a scalar from its caller
_HOLDERS = {
    "QuadraticNumber a": QuadraticNumber,
    "QuadraticNumber b": lambda value: QuadraticNumber(0, value),
    "TruncatedSeries": lambda value: TruncatedSeries([1, value], 3),
    "RationalGF numerator": lambda value: RationalGF([value], [1]),
    "RationalGF denominator": lambda value: RationalGF([1], [1, value]),
}


@pytest.mark.parametrize("hold", _HOLDERS.values(), ids=_HOLDERS)
@pytest.mark.parametrize("scalar", [0.1, "1/2", Decimal("0.5")], ids=repr)
def test_exact_types_refuse_other_scalars(hold, scalar):
    # a float would be held as its binary value and a string parsed
    got = re.escape(repr(scalar))
    wanted = rf"^(coordinate|coefficient) must be an int or a Fraction, got {got}$"
    with pytest.raises(ValueError, match=wanted):
        hold(scalar)
    assert hold(True) == hold(1)


# each reads the with-empty counts 1, 0, 1, 1, 3, ... through order 4,
# and names its argument
_ORDER_TAKERS = {
    "TruncatedSeries": (
        "order",
        lambda order: TruncatedSeries([1, 0, 1, 1, 3, 6], order).coefficients,
    ),
    "RationalGF.coefficients": ("order", named_form("with-empty").coefficients),
    "RationalGF.coefficient": ("n", named_form("with-empty").coefficient),
}


@pytest.mark.parametrize("what, take", _ORDER_TAKERS.values(), ids=_ORDER_TAKERS)
@pytest.mark.parametrize("order", [2.5, True, "3"], ids=repr)
def test_an_order_is_exactly_an_int(what, take, order):
    # a float or a string would end in a bare TypeError deep in the
    # slicing, and True would pass as the order 1
    with pytest.raises(ValueError, match=f"^{what} must be an int, got {re.escape(repr(order))}$"):
        take(order)
    with pytest.raises(ValueError, match=f"^{what} must be >= 0$"):
        take(-1)
    assert take(4) in ((1, 0, 1, 1, 3), 3)


@pytest.mark.parametrize("x", _EXACT, ids=lambda x: type(x).__name__)
def test_exact_types_keep_their_division_by_zero(x):
    error = _DIVISION_BY_ZERO[type(x)]
    with pytest.raises(error) as wanted:
        x / _LIFTS[type(x)](x, 0)
    for zero in (0, Fraction(0), False):
        with pytest.raises(error) as excinfo:
            x / zero
        assert type(excinfo.value) is error
        assert str(excinfo.value) == str(wanted.value)


@pytest.mark.parametrize(
    "x, zero",
    [
        (SILVER_RATIO, QuadraticNumber(0)),
        (TruncatedSeries([0, 1], 3), TruncatedSeries([0], 3)),
        (
            RationalGF([0, 1], [1]),
            RationalGF([0], [1]),
        ),
    ],
    ids=lambda x: type(x).__name__,
)
def test_exact_types_equal_only_their_own_type(x, zero):
    assert (x - x == 0) is False
    assert x - x == zero


def _gamma_series(z):
    return z * z / (1 - z / (1 - z / (1 - z * z)))


def _tree_form_series(z):
    mountain = z * z / (1 - z - z * z)
    hang = 1 / (1 - mountain)
    spine = (z * z) / (1 - (z + z * z) * hang)
    return 1 + spine * hang


# The composite forms in truncated series arithmetic, an engine that
# shares no arithmetic with RationalGF, as a check on the registry's values.
TRUNCATED_FORMS = {
    "partial-fractions": lambda z: (
        Fraction(1, 4) / (1 - z)
        + Fraction(1, 4) / (1 + z)
        + Fraction(1, 2) * (1 - 2 * z) / (1 - 2 * z - z * z)
    ),
    "continued-fraction": lambda z: 1 / (1 - (z * z) / (1 - z / (1 - z / (1 - z * z)))),
    "gamma": _gamma_series,
    "cf-closure": lambda z: 1 / (1 - _gamma_series(z)),
    "tree-form": _tree_form_series,
    "square-first-tilings": lambda z: 1 / (1 - z / (1 - z * z)),
    "edge-or-path": lambda z: z / (1 - z / (1 - z * z)),
}


# sha256 of format_coefficients over coefficients 0..400 of each form,
# pinned from the registry before its forms were stored primitive
FORM_DIGESTS = {
    "mountain": "16b43acdf18f70b5",
    "bundle": "cb14e26b6e609d89",
    "product": "104977385e78ba92",
    "with-empty": "a2030bedcc390317",
    "partial-fractions": "a2030bedcc390317",
    "continued-fraction": "a2030bedcc390317",
    "gamma": "49392f21b33b7233",
    "cf-closure": "a2030bedcc390317",
    "tree-form": "a2030bedcc390317",
    "dyck-nondecreasing": "f1b88536d744836e",
    "square-first-tilings": "e996b71f577d0732",
    "edge-or-path": "1fc25a44938de656",
}


class TestNamedForms:
    def test_registry_is_complete(self):
        assert FORM_NAMES == (
            "mountain",
            "bundle",
            "product",
            "with-empty",
            "partial-fractions",
            "continued-fraction",
            "gamma",
            "cf-closure",
            "tree-form",
            "dyck-nondecreasing",
            "square-first-tilings",
            "edge-or-path",
        )

    @pytest.mark.parametrize("name", FORM_NAMES)
    def test_each_form_is_one_shared_value(self, name):
        # built once at import, not once per call
        assert named_form(name) is named_form(name)

    @pytest.mark.parametrize("name", FORM_NAMES)
    def test_each_form_is_stored_primitive(self, name):
        # so its recurrence runs on the coefficients themselves, as ints
        form = named_form(name)
        assert form.denominator[0] == 1
        assert all(type(v) is int for v in form._values(400))
        text = format_coefficients(gf_coefficients(name, 400))
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == FORM_DIGESTS[name]

    def test_unknown_form(self):
        with pytest.raises(UnknownFormError):
            gf_coefficients("nope", 5)

    def test_with_empty_prefix(self):
        assert gf_coefficients("with-empty", 7) == (1, 0, 1, 1, 3, 6, 15, 35)

    def test_mountain_counts_fibonacci(self):
        coeffs = gf_coefficients("mountain", 20)
        assert coeffs[:7] == (0, 0, 1, 1, 2, 3, 5)
        assert all(coeffs[k] == fibonacci(k - 1) for k in range(2, 21))

    def test_product_is_with_empty_minus_one(self):
        with_empty = gf_coefficients("with-empty", 24)
        product = gf_coefficients("product", 24)
        assert with_empty[0] - product[0] == 1
        assert with_empty[1:] == product[1:]

    def test_all_total_forms_agree(self):
        reference = gf_coefficients("with-empty", 64)
        for name in ("partial-fractions", "continued-fraction", "cf-closure", "tree-form"):
            assert gf_coefficients(name, 64) == reference, name

    @pytest.mark.parametrize("name", sorted(TRUNCATED_FORMS))
    def test_truncated_series_route_agrees(self, name):
        z = TruncatedSeries([0, 1], 64)
        assert TRUNCATED_FORMS[name](z).coefficients == gf_coefficients(name, 64)

    def test_gamma_closure_matches_continued_fraction(self):
        gamma = TruncatedSeries(gf_coefficients("gamma", 32))
        closure = (1 / (1 - gamma)).coefficients
        assert closure == gf_coefficients("continued-fraction", 32)

    def test_dyck_expansion(self):
        assert gf_coefficients("dyck-nondecreasing", 5) == (1, 1, 2, 5, 13, 34)

    def test_tiling_forms(self):
        assert gf_coefficients("square-first-tilings", 7) == (1, 1, 1, 2, 3, 5, 8, 13)
        assert gf_coefficients("edge-or-path", 6) == (0, 1, 1, 1, 2, 3, 5)

    def test_integrality_of_partial_fractions(self):
        assert all(c.denominator == 1 for c in gf_coefficients("partial-fractions", 64))

    @pytest.mark.parametrize("name", FORM_NAMES)
    def test_single_coefficients_match_the_expansion(self, name):
        form = named_form(name)
        expansion = form.coefficients(4097)
        assert [form.coefficient(n) for n in range(301)] == list(expansion[:301])
        # where the halvings of n end on each side of the last one
        for n in {2**k + step for k in range(13) for step in (-1, 0, 1)}:
            assert form.coefficient(n) == expansion[n], n

    def test_order_zero(self):
        for name in FORM_NAMES:
            coeffs = gf_coefficients(name, 0)
            assert len(coeffs) == 1


class TestStarIdentity:
    def test_simple_instance(self):
        order = 24
        z = TruncatedSeries([0, 1], order)
        assert star_identity_holds(z, z * z, order)

    def test_layered_instance(self):
        # single edge against the mountain form, the layering behind the
        # continued fraction shapes
        order = 64
        z = TruncatedSeries([0, 1], order)
        mountain = TruncatedSeries(gf_coefficients("mountain", order))
        assert star_identity_holds(z, mountain, order)
        assert star_identity_holds(mountain, z, order)

    def test_rejects_nonzero_constant_term(self):
        order = 8
        z = TruncatedSeries([0, 1], order)
        with pytest.raises(NonzeroConstantTermError):
            star_identity_holds(1 + z, z, order)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(rationals, min_size=10, max_size=16),
        st.lists(rationals, min_size=10, max_size=16),
    )
    def test_random_pairs(self, xs, ys):
        order = 16
        a = _series([0] + xs, order)
        b = _series([0] + ys, order)
        assert star_identity_holds(a, b, order)


class TestFormatting:
    def test_plain(self):
        assert format_coefficients(gf_coefficients("with-empty", 5)) == "1, 0, 1, 1, 3, 6"

    def test_fractions_render_with_slash(self):
        assert format_coefficients((Fraction(1, 2), Fraction(3))) == "1/2, 3"

    def test_json_record(self):
        text = coefficients_to_json("bundle", gf_coefficients("bundle", 5))
        assert text == '{"form":"bundle","coeffs":["1","0","1","1","3","5"]}'
