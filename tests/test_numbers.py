"""Closed forms: silver-ratio arithmetic, Pell sequences, tilings."""

from __future__ import annotations

import builtins
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from deutschpaths import numbers
from deutschpaths import (
    DoesNotStartWithDominoError,
    NonIntegerResultError,
    Piece,
    QuadraticNumber,
    SILVER_CONJUGATE,
    SILVER_RATIO,
    SQRT2,
    binet_half_companion,
    binet_pell,
    count_mountains,
    count_nondecreasing_closed,
    count_nondecreasing_quadratic,
    count_square_first_tilings,
    count_tilings,
    delete_leading_domino,
    enumerate_tilings,
    fibonacci,
    gf_coefficients,
    half_companion_pell,
    pell,
    render_tiling,
)

# Frozen after cross-checking the series expansion of the with-empty form
# against the brute-force enumerators in verify.run_checks.
EXPECTED_COUNTS = [1, 0, 1, 1, 3, 6, 15, 35, 85, 204, 493, 1189, 2871]


class TestSequences:
    def test_fibonacci_values(self):
        assert [fibonacci(n) for n in range(-1, 11)] == [
            1, 0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55,
        ]

    def test_fibonacci_rejects_below_minus_one(self):
        with pytest.raises(ValueError, match="^n must be >= -1$"):
            fibonacci(-2)

    def test_pell_values(self):
        assert [pell(n) for n in range(7)] == [0, 1, 2, 5, 12, 29, 70]

    def test_half_companion_values(self):
        assert [half_companion_pell(n) for n in range(7)] == [1, 1, 3, 7, 17, 41, 99]

    @pytest.mark.parametrize(
        "sequence",
        [
            pell,
            half_companion_pell,
            binet_pell,
            binet_half_companion,
            count_nondecreasing_quadratic,
        ],
    )
    def test_negative_index_rejected(self, sequence):
        with pytest.raises(ValueError, match="^n must be >= 0$"):
            sequence(-1)

    @pytest.mark.parametrize("n", range(64))
    def test_binet_matches_recurrence(self, n):
        assert binet_pell(n) == pell(n)
        assert binet_half_companion(n) == half_companion_pell(n)

    def test_silver_pair_matches_the_recurrences(self):
        # the doubled pair against the two linear loops it replaces
        for n in range(2001):
            assert numbers._silver_pair(n) == (half_companion_pell(n), pell(n)), n
        assert numbers._silver_pair(10**5) == (half_companion_pell(10**5), pell(10**5))


def _counted(monkeypatch, owner, name):
    """Patch ``owner.name`` to count its calls; the returned list grows by one per call."""
    calls, original = [], getattr(owner, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


class TestQuadraticNumber:
    def test_silver_algebra(self):
        assert SILVER_RATIO * SILVER_CONJUGATE == QuadraticNumber(-1, 0)
        assert SILVER_RATIO + SILVER_CONJUGATE == QuadraticNumber(2, 0)
        assert SQRT2 * SQRT2 == QuadraticNumber(2, 0)

    def test_powers(self):
        assert SILVER_RATIO ** 2 == QuadraticNumber(3, 2)
        assert SILVER_RATIO ** 0 == QuadraticNumber(1, 0)
        with pytest.raises(ValueError, match="^exponent must be >= 0$"):
            QuadraticNumber(1) ** -1

    def test_power_squares_only_while_bits_remain(self, monkeypatch):
        products = _counted(monkeypatch, numbers, "_product")
        power = SILVER_RATIO ** 100
        # from the top bit down: one squaring per bit after the top one and
        # one product by the base per set bit after it
        assert len(products) == (100).bit_length() - 1 + bin(100).count("1") - 1 == 8
        assert power == QuadraticNumber(half_companion_pell(100), pell(100))

    def test_division_is_one_product_by_the_conjugate(self, monkeypatch):
        products = _counted(monkeypatch, numbers, "_product")
        conjugates = _counted(monkeypatch, QuadraticNumber, "conjugate")
        assert SILVER_RATIO / SILVER_CONJUGATE == QuadraticNumber(-3, -2)
        assert len(products) == 1
        assert conjugates == []

    @pytest.mark.parametrize(
        "base",
        [
            SILVER_CONJUGATE,
            QuadraticNumber(-3, 2),
            QuadraticNumber(Fraction(1, 2), Fraction(-2, 3)),
            QuadraticNumber(Fraction(5, 4), 1),
        ],
        ids=repr,
    )
    def test_power_is_the_repeated_product(self, base):
        product = QuadraticNumber(1)
        for exponent in range(71):
            power = base**exponent
            assert power == product, exponent
            assert repr(power) == repr(product), exponent
            product = product * base

    def test_a_power_holds_its_integral_coordinates_as_ints(self):
        # the power runs on bare coordinates, where a Fraction stays a
        # Fraction; the value built at the end holds an integral one as an
        # int: 1 + r/2 squared is 3/2 + r, and to the fourth 17/4 + 3r
        base = QuadraticNumber(1, Fraction(1, 2))
        integral = []
        for exponent in range(1, 40):
            power = base**exponent
            for coordinate in (power.a, power.b):
                whole = Fraction(coordinate).denominator == 1
                assert (type(coordinate) is int) == whole, (exponent, coordinate)
                integral += [exponent] if whole else []
        assert integral == [1, 2, 4]

    def test_division(self):
        one = QuadraticNumber(1, 0)
        assert one / SILVER_RATIO == -SILVER_CONJUGATE

    def test_norm_and_conjugate(self):
        x = QuadraticNumber(3, 2)
        assert x.conjugate() == QuadraticNumber(3, -2)
        assert x.norm() == Fraction(1)

    def test_integral_coordinates_stay_int(self):
        power = SILVER_RATIO**50
        assert type(power.a) is type(power.b) is int
        assert type((SILVER_RATIO / 2).a) is Fraction
        assert type((QuadraticNumber(Fraction(4, 2)) * SQRT2).b) is int
        assert QuadraticNumber(Fraction(3), 1) == QuadraticNumber(3, 1)
        assert hash(QuadraticNumber(Fraction(3), 1)) == hash(QuadraticNumber(3, Fraction(1)))
        assert repr(power / power) == "QuadraticNumber(1, 0)"
        assert str(SILVER_RATIO / 2) == "1/2 + 1/2*sqrt(2)"

    def test_division_of_huge_integral_values_stays_exact(self):
        # int / int would overflow to a float long before these sizes
        big = SILVER_RATIO**11000
        assert big / big == QuadraticNumber(1)
        assert (big / 2 ** 20000).b == Fraction(pell(11000), 2 ** 20000)

    @given(
        st.lists(
            st.one_of(
                st.integers(-50, 50),
                st.fractions(min_value=-9, max_value=9, max_denominator=6),
            ),
            min_size=4,
            max_size=4,
        ),
        st.integers(0, 12),
    )
    def test_ring_operations_never_give_a_float(self, coords, exponent):
        x, y = QuadraticNumber(*coords[:2]), QuadraticNumber(*coords[2:])
        results = [x + y, x - y, x * y, -x, x.conjugate(), x**exponent, 3 - x, x * 2]
        results += [x / y] if y.norm() else []
        results += [Fraction(1, 3) / x, 7 / x] if x.norm() else []
        for value in results:
            assert isinstance(value.a, (int, Fraction)), value
            assert isinstance(value.b, (int, Fraction)), value
        assert not isinstance(x.norm(), float)

    @given(
        st.lists(
            st.one_of(
                st.integers(-(10**30), 10**30),
                st.fractions(min_value=-9, max_value=9, max_denominator=6),
            ),
            min_size=4,
            max_size=4,
        )
    )
    def test_product_matches_the_four_product_formula(self, coords):
        a1, b1, a2, b2 = coords
        product = QuadraticNumber(a1, b1) * QuadraticNumber(a2, b2)
        # (a1 + b1 r)(a2 + b2 r) with r**2 = 2, one product per pair of terms
        expected = QuadraticNumber(a1 * a2 + 2 * b1 * b2, a1 * b2 + b1 * a2)
        assert product == expected
        assert repr(product) == repr(expected)

    def test_as_integer(self):
        assert QuadraticNumber(7, 0).as_integer() == 7
        with pytest.raises(NonIntegerResultError):
            QuadraticNumber(Fraction(1, 2), 0).as_integer()
        with pytest.raises(NonIntegerResultError):
            SQRT2.as_integer()

    def test_as_integer_names_the_fault_past_the_digit_limit(self, int_digit_limit):
        big = 10**5000 + 1
        with pytest.raises(NonIntegerResultError, match=r"^value has a sqrt\(2\) part$"):
            QuadraticNumber(big, 1).as_integer()
        with pytest.raises(NonIntegerResultError, match="^value is a fraction, not an integer$"):
            QuadraticNumber(Fraction(big, 2)).as_integer()

    def test_int_coercion(self):
        assert QuadraticNumber(1, 1) * 2 == QuadraticNumber(2, 2)
        assert 1 + SQRT2 == SILVER_RATIO
        assert QuadraticNumber(3, 1) - 1 == QuadraticNumber(2, 1)
        x, half = SILVER_RATIO, Fraction(1, 2)
        assert x - 3 == QuadraticNumber(-2, 1)
        assert 3 - x == QuadraticNumber(2, -1)
        assert 3 / x == QuadraticNumber(-3, 3)
        assert x - half == QuadraticNumber(half, 1)
        assert half - x == QuadraticNumber(-half, -1)
        assert half / x == QuadraticNumber(-half, half)
        assert 1 / x == QuadraticNumber(-1, 1)
        assert x - x == QuadraticNumber(0, 0)


class TestClosedCounts:
    def test_frozen_prefix(self):
        assert [count_nondecreasing_closed(n) for n in range(13)] == EXPECTED_COUNTS

    @pytest.mark.parametrize("n", range(40))
    def test_routes_agree(self, n):
        assert count_nondecreasing_closed(n) == count_nondecreasing_quadratic(n)

    def test_matches_series(self):
        coeffs = gf_coefficients("with-empty", 64)
        for n in range(65):
            assert count_nondecreasing_closed(n) == coeffs[n]

    def test_large_value_is_exact(self):
        # big enough that any float shortcut would have drifted; the digit
        # count and last digit were fixed from the order-4 recurrence
        value = count_nondecreasing_closed(200)
        assert value % 10 == 5
        assert len(str(value)) == 76

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            count_nondecreasing_closed(-1)

    def test_the_ring_check_multiplies_and_never_divides(self, monkeypatch):
        expected = count_nondecreasing_closed(100)
        divisions = _counted(monkeypatch, QuadraticNumber, "__truediv__")
        products = _counted(monkeypatch, numbers, "_product")
        assert count_nondecreasing_quadratic(100) == expected
        # eight products for each of the two powers, then one for each of
        # (2 - sqrt(2)) s**n and (2 + sqrt(2)) t**n
        assert divisions == []
        assert len(products) == 2 * 8 + 2

    def test_a_ring_disagreement_raises(self, monkeypatch):
        ring = numbers.count_nondecreasing_quadratic

        def off_by_one_at_seven(n):
            return ring(n) + (n == 7)

        monkeypatch.setattr(numbers, "count_nondecreasing_quadratic", off_by_one_at_seven)
        assert count_nondecreasing_closed(6) == 15
        with pytest.raises(NonIntegerResultError, match="closed form routes disagree at n=7"):
            count_nondecreasing_closed(7)

    def test_a_ring_sum_off_by_two_raises(self, monkeypatch):
        # both powers one too high in the rational part: eight times the
        # sum gains (2 - sqrt(2)) + (2 + sqrt(2)) = 4, with no sqrt(2) part
        power = QuadraticNumber.__pow__
        monkeypatch.setattr(QuadraticNumber, "__pow__", lambda x, e: power(x, e) + 1)
        with pytest.raises(NonIntegerResultError, match="n=9 is not divisible by 8"):
            count_nondecreasing_quadratic(9)

    def test_a_negative_ring_count_raises(self, monkeypatch):
        # eight times the sum reads -8: divisible by 8, and below zero
        monkeypatch.setattr(QuadraticNumber, "as_integer", lambda self: -8)
        with pytest.raises(NonIntegerResultError, match="^count for n=5 came out negative$"):
            count_nondecreasing_quadratic(5)


class TestMountainCounts:
    def test_small_values(self):
        assert count_mountains(2) == 1
        assert count_mountains(5) == 3
        assert count_mountains(10) == 34

    def test_below_two_steps(self):
        assert count_mountains(0) == 0
        assert count_mountains(1) == 0

    @pytest.mark.parametrize("k", range(2, 64))
    def test_fibonacci_law(self, k):
        assert count_mountains(k) == fibonacci(k - 1)

    def test_a_short_binomial_sum_raises(self, monkeypatch):
        # the sum along the diagonal, the one whose range starts at 1,
        # stops a term early: 1 + 3 against 1 + 3 + 1 at k = 6
        def shortened(start, stop):
            return builtins.range(start, stop - (start == 1))

        monkeypatch.setattr(numbers, "range", shortened, raising=False)
        with pytest.raises(NonIntegerResultError, match="^binomial sums disagree at k=6$"):
            count_mountains(6)


class TestTilings:
    def test_census_of_length_four(self):
        assert [render_tiling(t) for t in enumerate_tilings(4)] == [
            "S S S S", "S S D", "S D S", "D S S", "D D",
        ]

    def test_empty_tiling(self):
        assert list(enumerate_tilings(0)) == [()]
        assert count_tilings(0) == 1

    def test_first_tiling_streams_past_the_recursion_limit(self):
        assert next(enumerate_tilings(5000)) == (Piece.SQUARE,) * 5000

    @pytest.mark.parametrize("n", range(20))
    def test_counts(self, n):
        tilings = list(enumerate_tilings(n))
        assert len(tilings) == count_tilings(n) == fibonacci(n + 1)
        assert len(set(tilings)) == len(tilings)

    @pytest.mark.parametrize("n", range(1, 20))
    def test_square_first(self, n):
        square_first = [t for t in enumerate_tilings(n) if t[0] is Piece.SQUARE]
        assert len(square_first) == count_square_first_tilings(n) == fibonacci(n)

    @pytest.mark.parametrize(
        "tilings", [enumerate_tilings, count_tilings, count_square_first_tilings]
    )
    def test_negative_length_rejected(self, tilings):
        with pytest.raises(ValueError, match="^n must be >= 0$"):
            tilings(-1)

    def test_square_first_of_zero(self):
        assert count_square_first_tilings(0) == 0

    def test_delete_leading_domino(self):
        assert delete_leading_domino((Piece.DOMINO, Piece.SQUARE)) == (Piece.SQUARE,)
        with pytest.raises(DoesNotStartWithDominoError):
            delete_leading_domino((Piece.SQUARE, Piece.DOMINO))
        with pytest.raises(DoesNotStartWithDominoError):
            delete_leading_domino(())

    @pytest.mark.parametrize("n", range(2, 14))
    def test_domino_deletion_is_a_bijection(self, n):
        with_domino = [t for t in enumerate_tilings(n) if t[0] is Piece.DOMINO]
        images = {delete_leading_domino(t) for t in with_domino}
        assert len(images) == len(with_domino)
        assert images == set(enumerate_tilings(n - 2))

