"""Exact formal power series and rational generating functions.

No floating point is involved anywhere, and every coefficient handed
out is a :class:`fractions.Fraction`.  A :class:`TruncatedSeries` holds
coefficients 0 through its order and computes on them in ``Fraction``;
binary operations truncate to the smaller order of the two operands,
and division requires an invertible (nonzero) constant term.  A
:class:`RationalGF` is an exact quotient of polynomials with the same
operators.  Inside, it expands on ``int``: numerator and denominator
are first scaled to integers, the linear recurrence read off the
denominator gives all coefficients through an order in O(order *
degree) integer steps, and Bostan-Mori gives a single coefficient in
O(log n) polynomial products.  Only the results become ``Fraction``.

The registry behind :func:`gf_coefficients` collects the named closed
forms used across the package, including the continued fraction shapes.
Each is a rational function of small degree, so every route to the same
counting sequence can be compared exactly as well as coefficient by
coefficient.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .numbers import _DerivedOperators, _lifted

__all__ = [
    "ZeroConstantTermError",
    "NonzeroConstantTermError",
    "UnknownFormError",
    "TruncatedSeries",
    "Polynomial",
    "RationalGF",
    "FORM_NAMES",
    "named_form",
    "gf_coefficients",
    "star_identity_holds",
    "format_coefficients",
    "coefficients_to_json",
]

class ZeroConstantTermError(ZeroDivisionError):
    """Raised when a division needs a nonzero constant term and has none."""


class NonzeroConstantTermError(ValueError):
    """Raised when an argument must vanish at z = 0 but does not."""


class UnknownFormError(ValueError):
    """Raised for a generating function name outside the registry."""


Coeff = Fraction | int


class TruncatedSeries(_DerivedOperators):
    """Power series known through z**order, with exact coefficients.

    Supports +, -, * and / with other series and with int or Fraction
    scalars, so expressions read like the formulas they implement, for
    example ``1 / (1 - z * z)``.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[Coeff], order: int | None = None):
        cs = [Fraction(c) for c in coeffs]
        if order is not None:
            if order < 0:
                raise ValueError("order must be >= 0")
            del cs[order + 1 :]
            cs.extend([Fraction(0)] * (order + 1 - len(cs)))
        elif not cs:
            raise ValueError("need at least one coefficient or an explicit order")
        self._coeffs = tuple(cs)

    @classmethod
    def constant(cls, value: Coeff, order: int) -> TruncatedSeries:
        return cls([value], order)

    @classmethod
    def variable(cls, order: int) -> TruncatedSeries:
        """The series z."""
        return cls([0, 1], order)

    @property
    def order(self) -> int:
        return len(self._coeffs) - 1

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        return self._coeffs

    def __getitem__(self, n: int) -> Fraction:
        return self._coeffs[n]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __repr__(self) -> str:
        shown = ", ".join(str(c) for c in self._coeffs[:8])
        tail = ", ..." if self.order > 7 else ""
        return f"TruncatedSeries([{shown}{tail}], order={self.order})"

    def _scalar(self, value: Coeff) -> TruncatedSeries:
        return TruncatedSeries.constant(value, self.order)

    @_lifted
    def __add__(self, rhs: TruncatedSeries) -> TruncatedSeries:
        order = min(self.order, rhs.order)
        return TruncatedSeries(
            [self._coeffs[n] + rhs._coeffs[n] for n in range(order + 1)]
        )

    __radd__ = __add__

    def __neg__(self) -> TruncatedSeries:
        return TruncatedSeries([-c for c in self._coeffs])

    @_lifted
    def __mul__(self, rhs: TruncatedSeries) -> TruncatedSeries:
        order = min(self.order, rhs.order)
        out = [Fraction(0)] * (order + 1)
        for i, a in enumerate(self._coeffs[: order + 1]):
            if not a:
                continue
            for j in range(order + 1 - i):
                b = rhs._coeffs[j]
                if b:
                    out[i + j] += a * b
        return TruncatedSeries(out)

    __rmul__ = __mul__

    @_lifted
    def __truediv__(self, rhs: TruncatedSeries) -> TruncatedSeries:
        if not rhs._coeffs[0]:
            raise ZeroConstantTermError("division needs a nonzero constant term")
        order = min(self.order, rhs.order)
        out: list[Fraction] = []
        for n in range(order + 1):
            acc = self._coeffs[n]
            for k in range(1, n + 1):
                if rhs._coeffs[k]:
                    acc -= rhs._coeffs[k] * out[n - k]
            out.append(acc / rhs._coeffs[0])
        return TruncatedSeries(out)


class Polynomial:
    """Dense polynomial with exact coefficients, trailing zeros trimmed."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[Coeff] = ()):
        cs = [Fraction(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self._coeffs = tuple(cs)

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        return self._coeffs

    @property
    def constant_term(self) -> Fraction:
        return self._coeffs[0] if self._coeffs else Fraction(0)

    def __getitem__(self, n: int) -> Fraction:
        return self._coeffs[n] if 0 <= n < len(self._coeffs) else Fraction(0)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __repr__(self) -> str:
        return f"Polynomial({list(self._coeffs)!r})"

    def __add__(self, other: Polynomial) -> Polynomial:
        if not isinstance(other, Polynomial):
            return NotImplemented
        size = max(len(self._coeffs), len(other._coeffs))
        return Polynomial([self[n] + other[n] for n in range(size)])

    def __neg__(self) -> Polynomial:
        return Polynomial([-c for c in self._coeffs])

    def __mul__(self, other: object) -> Polynomial:
        if isinstance(other, (int, Fraction)):
            return Polynomial([c * other for c in self._coeffs])
        if not isinstance(other, Polynomial):
            return NotImplemented
        if not self._coeffs or not other._coeffs:
            return Polynomial()
        out = [Fraction(0)] * (len(self._coeffs) + len(other._coeffs) - 1)
        for i, a in enumerate(self._coeffs):
            if a:
                for j, b in enumerate(other._coeffs):
                    out[i + j] += a * b
        return Polynomial(out)

    __rmul__ = __mul__


class RationalGF(_DerivedOperators):
    """Quotient of two polynomials with an invertible denominator.

    Supports +, -, * and / with other rational functions and with int or
    Fraction scalars, so the named forms are written as the formulas
    they implement.  Two rational functions are equal when their values
    are, tested by cross-multiplication, so it holds at every order;
    results are not reduced to lowest terms.  As with the other exact
    types, a scalar never compares equal, not even the same constant.

    Both extractions work on the integer polynomials p and q that the
    numerator and denominator become once scaled by the lcm of their
    coefficients' denominators, which leaves the quotient unchanged.
    :meth:`coefficients` runs the recurrence
    c[n] = (p[n] - sum(q[i] * c[n-i], i >= 1)) / q[0]
    free of fractions, costing O(order * degree) integer steps, and
    :meth:`coefficient` halves n per step by Bostan-Mori.
    """

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: Polynomial, denominator: Polynomial):
        if not denominator.constant_term:
            raise ZeroConstantTermError("denominator must not vanish at z = 0")
        self.numerator = numerator
        self.denominator = denominator

    def __repr__(self) -> str:
        return f"RationalGF({self.numerator!r}, {self.denominator!r})"

    def _scalar(self, value: Coeff) -> RationalGF:
        return RationalGF(Polynomial([value]), Polynomial([1]))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RationalGF):
            return NotImplemented
        return self.numerator * other.denominator == other.numerator * self.denominator

    __hash__ = None  # equal values may have different numerator/denominator pairs

    @_lifted
    def __add__(self, rhs: RationalGF) -> RationalGF:
        return RationalGF(
            self.numerator * rhs.denominator + rhs.numerator * self.denominator,
            self.denominator * rhs.denominator,
        )

    __radd__ = __add__

    def __neg__(self) -> RationalGF:
        return RationalGF(-self.numerator, self.denominator)

    @_lifted
    def __mul__(self, rhs: RationalGF) -> RationalGF:
        return RationalGF(
            self.numerator * rhs.numerator, self.denominator * rhs.denominator
        )

    __rmul__ = __mul__

    @_lifted
    def __truediv__(self, rhs: RationalGF) -> RationalGF:
        """Exact quotient; the divisor must not vanish at z = 0."""
        if not rhs.numerator.constant_term:
            raise ZeroConstantTermError("division needs a nonzero constant term")
        return RationalGF(
            self.numerator * rhs.denominator, self.denominator * rhs.numerator
        )

    def _integer_terms(self) -> tuple[list[int], list[int]]:
        """Numerator and denominator times the lcm of all their denominators."""
        p, q = self.numerator.coefficients, self.denominator.coefficients
        scale = math.lcm(*(c.denominator for c in p + q))
        return [int(c * scale) for c in p], [int(c * scale) for c in q]

    def coefficients(self, order: int) -> tuple[Fraction, ...]:
        """Coefficients 0..order, by the recurrence on integers.

        With g[n] = c[n] * q[0]**(n+1) the recurrence needs no division:
        g[n] = q[0]**n * p[n] - sum(q[i] * g[n-i] * q[0]**(i-1), i >= 1).
        """
        if order < 0:
            raise ValueError("order must be >= 0")
        p, q = self._integer_terms()
        q0 = q[0]
        # q[i] * q0**(i-1) for the terms that are not zero
        weights = [(i, q[i] * q0 ** (i - 1)) for i in range(1, len(q)) if q[i]]
        g: list[int] = []
        out: list[Fraction] = []
        q0_power = 1  # q0**n
        for n in range(order + 1):
            acc = q0_power * p[n] if n < len(p) else 0
            for i, weight in weights:
                if i > n:
                    break
                acc -= weight * g[n - i]
            g.append(acc)
            q0_power *= q0
            out.append(Fraction(acc, q0_power))
        return tuple(out)

    def coefficient(self, n: int) -> Fraction:
        """Coefficient n alone, by Bostan-Mori in O(log n) products.

        With Q(z)Q(-z) = V(z**2) and P(z)Q(-z) = U0(z**2) + z*U1(z**2),
        coefficient n of P/Q is coefficient n // 2 of U_r / V for
        r = n mod 2.
        """
        if n < 0:
            raise ValueError("order must be >= 0")
        p, q = self._integer_terms()
        while n:
            q_minus = [-c if i % 2 else c for i, c in enumerate(q)]
            p = _product_terms(p, q_minus, n % 2)
            q = _product_terms(q, q_minus, 0)
            n //= 2
        return Fraction(p[0] if p else 0, q[0])


def _product_terms(a: list[int], b: list[int], parity: int) -> list[int]:
    """Terms parity, parity + 2, ... of the product of a and b.

    The polynomials are integer coefficient lists, and the other half of
    the product is never formed.
    """
    out = [0] * ((len(a) + len(b) - parity) // 2)
    for i, x in enumerate(a):
        if x:
            for j in range((parity - i) % 2, len(b), 2):
                out[(i + j) // 2] += x * b[j]
    return out


def _poly(*coeffs: Coeff) -> Polynomial:
    return Polynomial(coeffs)


# 1 - z - z**2 and friends, spelled once
_ONE_MINUS_Z_MINUS_Z2 = _poly(1, -1, -1)
_ONE_PLUS_Z = _poly(1, 1)
_ONE_MINUS_Z = _poly(1, -1)
_ONE_MINUS_2Z = _poly(1, -2)
_ONE_MINUS_2Z_MINUS_Z2 = _poly(1, -2, -1)

_Z = RationalGF(_poly(0, 1), _poly(1))
_MOUNTAIN_GF = RationalGF(_poly(0, 0, 1), _ONE_MINUS_Z_MINUS_Z2)
_BUNDLE_GF = RationalGF(_ONE_MINUS_Z_MINUS_Z2, _ONE_PLUS_Z * _ONE_MINUS_2Z)
_PRODUCT_GF = RationalGF(
    _poly(0, 0, 1) * _ONE_MINUS_Z_MINUS_Z2,
    _ONE_PLUS_Z * _ONE_MINUS_Z * _ONE_MINUS_2Z_MINUS_Z2,
)
_DYCK_GF = RationalGF(_ONE_MINUS_2Z, _poly(1, -3, 1))


def _gamma() -> RationalGF:
    # z**2 over the three-layer staircase denominator
    return _Z * _Z / (1 - _Z / (1 - _Z / (1 - _Z * _Z)))


def _tree_form() -> RationalGF:
    hang = 1 / (1 - _MOUNTAIN_GF)
    spine = _Z * _Z / (1 - (_Z + _Z * _Z) * hang)
    return 1 + spine * hang


# Each form is built when asked for: the composite shapes cost
# milliseconds of exact polynomial arithmetic, too much to pay at import.
_FORMS: dict[str, Callable[[], RationalGF]] = {
    "mountain": lambda: _MOUNTAIN_GF,
    "bundle": lambda: _BUNDLE_GF,
    "product": lambda: _PRODUCT_GF,
    "with-empty": lambda: 1 + _PRODUCT_GF,
    "partial-fractions": lambda: (
        Fraction(1, 4) / (1 - _Z)
        + Fraction(1, 4) / (1 + _Z)
        + Fraction(1, 2) * (1 - 2 * _Z) / (1 - 2 * _Z - _Z * _Z)
    ),
    "continued-fraction": lambda: (
        1 / (1 - _Z * _Z / (1 - _Z / (1 - _Z / (1 - _Z * _Z))))
    ),
    "gamma": _gamma,
    "cf-closure": lambda: 1 / (1 - _gamma()),
    "tree-form": _tree_form,
    "dyck-nondecreasing": lambda: _DYCK_GF,
    "square-first-tilings": lambda: 1 / (1 - _Z / (1 - _Z * _Z)),
    "edge-or-path": lambda: _Z / (1 - _Z / (1 - _Z * _Z)),
}

FORM_NAMES: tuple[str, ...] = tuple(_FORMS)


def named_form(form: str) -> RationalGF:
    """The named generating function as an exact rational function.

    The registry names every closed form the package works with; an
    unknown name raises :class:`UnknownFormError` listing the options.
    """
    try:
        builder = _FORMS[form]
    except KeyError:
        known = ", ".join(FORM_NAMES)
        raise UnknownFormError(f"unknown form {form!r}; expected one of: {known}") from None
    return builder()


def gf_coefficients(form: str, order: int) -> tuple[Fraction, ...]:
    """Coefficients 0..order of a named generating function."""
    return named_form(form).coefficients(order)


def star_identity_holds(a: TruncatedSeries, b: TruncatedSeries, order: int) -> bool:
    """Check 1/(1-a-b) == 1/(1-b) * 1/(1 - a/(1-b)) through ``order``.

    Both arguments must vanish at z = 0; otherwise the geometric series
    being compared do not exist and
    :class:`NonzeroConstantTermError` is raised.
    """
    a = TruncatedSeries(a.coefficients, order)
    b = TruncatedSeries(b.coefficients, order)
    if a[0] or b[0]:
        raise NonzeroConstantTermError("both arguments must have zero constant term")
    lhs = 1 / (1 - a - b)
    b_star = 1 / (1 - b)
    rhs = b_star * (1 / (1 - a * b_star))
    return lhs == rhs


def format_coefficients(values: Sequence[Fraction]) -> str:
    """Comma separated exact values, e.g. ``1, 0, 1, 1, 3``."""
    return ", ".join(str(v) for v in values)


def coefficients_to_json(form: str, values: Sequence[Fraction]) -> str:
    """JSON record ``{"form": ..., "coeffs": ["1", "0", ...]}``."""
    record = {"form": form, "coeffs": [str(v) for v in values]}
    return json.dumps(record, separators=(",", ":"))
