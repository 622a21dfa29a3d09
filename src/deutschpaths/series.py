"""Exact formal power series and rational generating functions.

No floating point is involved anywhere, and every coefficient the
public API hands out is a :class:`fractions.Fraction`.  Both types
take their coefficients as ``int`` or ``Fraction`` only and refuse any
other scalar, a float, a string or a ``Decimal``, with a ``ValueError``
that names it; an order is exactly an ``int`` >= 0, by the package's one
size rule, ``numbers._size``.  A :class:`TruncatedSeries` holds
coefficients 0 through its order as ``int`` numerators over one common
``int`` denominator, computes on those integers, and builds a
``Fraction`` only for a coefficient read out; binary operations
truncate to the smaller order of the two operands, and division
requires an invertible (nonzero) constant term.  A
:class:`RationalGF` is an exact quotient of polynomials with the same
operators.  It scales numerator and denominator once, when built, to
``int`` coefficients with no common factor and a positive constant
term, and computes on those integers: the linear recurrence read off
the denominator gives all coefficients through an order in
O(order * degree) integer steps, and Bostan-Mori gives a single
coefficient in O(log n) polynomial products.  Only the results of the
public extractions become ``Fraction``.  Every named form's denominator
starts with 1, so its recurrence yields the coefficients themselves as
``int``; the CLI prints those, and ``str`` of an ``int`` is the bytes of
``str`` of the equal ``Fraction``.

The registry behind :func:`gf_coefficients` collects the named closed
forms used across the package, including the continued fraction shapes.
Each is a rational function of small degree, so every route to the same
counting sequence can be compared exactly as well as coefficient by
coefficient.  Each form is built once, from its own formula, at
import, and :func:`named_form` hands out that one shared value.
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction
from typing import Iterable, Sequence

from .numbers import _DerivedOperators, _exact, _lifted, _quotient, _size

__all__ = [
    "ZeroConstantTermError",
    "NonzeroConstantTermError",
    "UnknownFormError",
    "TruncatedSeries",
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

    The coefficients are held as ``int`` numerators over one positive
    ``int`` denominator, in lowest terms: no prime divides the
    denominator and every numerator.  Equal series therefore have equal
    numerators and denominators.  The operators work on these integers
    and reduce once at the end (the fraction-free scheme of Knuth, TAOCP
    vol. 2, 4.7); a coefficient becomes a ``Fraction`` only when it is
    read, through :attr:`coefficients`, indexing or ``repr``.
    """

    __slots__ = ("_numerators", "_denominator")

    def __init__(self, coeffs: Iterable[Coeff], order: int | None = None):
        values = [_exact(c, "coefficient") for c in coeffs]
        if order is not None:
            _size(order, "order")
            del values[order + 1 :]
            values.extend([0] * (order + 1 - len(values)))
        elif not values:
            raise ValueError("need at least one coefficient or an explicit order")
        # over the lcm of the reduced denominators, already in lowest terms
        denominator = math.lcm(*(v.denominator for v in values))
        self._numerators = tuple(v.numerator * (denominator // v.denominator) for v in values)
        self._denominator = denominator

    @classmethod
    def _reduced(cls, numerators: list[int], denominator: int) -> TruncatedSeries:
        """The series numerators / denominator, for any nonzero denominator."""
        common = math.gcd(denominator, *numerators)
        if denominator < 0:
            common = -common
        series = object.__new__(cls)
        series._numerators = tuple(n // common for n in numerators)
        series._denominator = denominator // common
        return series

    @property
    def order(self) -> int:
        return len(self._numerators) - 1

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(n, self._denominator) for n in self._numerators)

    def __getitem__(self, n: int) -> Fraction:
        return Fraction(self._numerators[n], self._denominator)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (
            self._denominator == other._denominator and self._numerators == other._numerators
        )

    def __hash__(self) -> int:
        return hash(self.coefficients)

    def __repr__(self) -> str:
        shown = ", ".join(str(c) for c in self.coefficients[:8])
        tail = ", ..." if self.order > 7 else ""
        return f"TruncatedSeries([{shown}{tail}], order={self.order})"

    def _scalar(self, value: Coeff) -> TruncatedSeries:
        return TruncatedSeries([value], self.order)

    @_lifted
    def __add__(self, rhs: TruncatedSeries) -> TruncatedSeries:
        common = math.lcm(self._denominator, rhs._denominator)
        s, t = common // self._denominator, common // rhs._denominator
        # zip stops at the smaller order
        return TruncatedSeries._reduced(
            [a * s + b * t for a, b in zip(self._numerators, rhs._numerators)], common
        )

    __radd__ = __add__

    def __neg__(self) -> TruncatedSeries:
        return TruncatedSeries._reduced([-a for a in self._numerators], self._denominator)

    @_lifted
    def __mul__(self, rhs: TruncatedSeries) -> TruncatedSeries:
        order = min(self.order, rhs.order)
        out = [0] * (order + 1)
        for i, a in enumerate(self._numerators[: order + 1]):
            if not a:
                continue
            for j, b in enumerate(rhs._numerators[: order + 1 - i]):
                if b:
                    out[i + j] += a * b
        return TruncatedSeries._reduced(out, self._denominator * rhs._denominator)

    __rmul__ = __mul__

    @_lifted
    def __truediv__(self, rhs: TruncatedSeries) -> TruncatedSeries:
        """Quotient by the recurrence scaled free of fractions.

        With alpha over e the dividend and beta over d the divisor, the
        quotient's coefficient k is d * gamma[k] / (e * beta[0]**(k+1)),
        where
        gamma[k] = alpha[k] * beta[0]**k
        - sum(beta[j] * gamma[k-j] * beta[0]**(j-1), 1 <= j <= k).
        """
        alpha, beta = self._numerators, rhs._numerators
        beta0 = beta[0]
        if not beta0:
            raise ZeroConstantTermError("division needs a nonzero constant term")
        order = min(self.order, rhs.order)
        # beta[j] * beta0**(j-1) for the terms that are not zero
        weights = [(j, beta[j] * beta0 ** (j - 1)) for j in range(1, order + 1) if beta[j]]
        gamma: list[int] = []
        power = 1  # beta0**k
        for k in range(order + 1):
            acc = alpha[k] * power
            for j, weight in weights:
                if j > k:
                    break
                acc -= weight * gamma[k - j]
            gamma.append(acc)
            power *= beta0
        # over the one denominator e * beta0**(order+1)
        scale = rhs._denominator
        for k in range(order, -1, -1):
            gamma[k] *= scale
            scale *= beta0
        return TruncatedSeries._reduced(gamma, self._denominator * power)


class RationalGF(_DerivedOperators):
    """Quotient of two polynomials with an invertible denominator.

    Built from two sequences of ``int`` or ``Fraction`` coefficients,
    lowest order first, scaled once by the lcm of all their
    denominators, divided by the gcd of all the results and signed so
    that the constant term of the denominator is positive.  They are
    held, trailing zeros trimmed, as the ``int`` tuples
    :attr:`numerator` and :attr:`denominator`: primitive, but not
    reduced to lowest terms.  The operators and both extractions
    compute on these integers (Knuth, TAOCP vol. 2, 4.7); only
    extracted coefficients become ``Fraction``.

    Supports +, -, * and / with other rational functions and with int or
    Fraction scalars, so the named forms are written as the formulas
    they implement.  Two rational functions are equal when their values
    are, tested by cross-multiplication, so it holds at every order;
    results are not reduced to lowest terms.  As with the other exact
    types, a scalar never compares equal, not even the same constant.

    With p the numerator and q the denominator, :meth:`coefficients`
    runs the recurrence c[n] = (p[n] - sum(q[i] * c[n-i], i >= 1)) / q[0]
    free of fractions, costing O(order * degree) integer steps, and
    :meth:`coefficient` halves n per step by Bostan-Mori.
    """

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: Sequence[Coeff], denominator: Sequence[Coeff]):
        # the operators pass only ints, which skip the call to _exact
        coeffs = (*numerator, *denominator)
        scale = math.lcm(
            *(1 if type(c) is int else _exact(c, "coefficient").denominator for c in coeffs)
        )
        numerator, denominator = (
            [c.numerator * (scale // c.denominator) for c in cs] for cs in (numerator, denominator)
        )
        if not denominator or not denominator[0]:
            raise ZeroConstantTermError("denominator must not vanish at z = 0")
        # primitive, with a positive constant term: a named form's q[0] is 1
        content = math.gcd(*numerator, *denominator)
        if denominator[0] < 0:
            content = -content
        self.numerator, self.denominator = (
            _trimmed([c // content for c in cs]) for cs in (numerator, denominator)
        )

    def __repr__(self) -> str:
        return f"RationalGF({list(self.numerator)!r}, {list(self.denominator)!r})"

    def _scalar(self, value: Coeff) -> RationalGF:
        return RationalGF([value], [1])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RationalGF):
            return NotImplemented
        lhs = _convolution(self.numerator, other.denominator)
        return lhs == _convolution(other.numerator, self.denominator)

    __hash__ = None  # equal values may have different numerator/denominator pairs

    @_lifted
    def __add__(self, rhs: RationalGF) -> RationalGF:
        left = _convolution(self.numerator, rhs.denominator)
        right = _convolution(rhs.numerator, self.denominator)
        return RationalGF(
            [a + b for a, b in itertools.zip_longest(left, right, fillvalue=0)],
            _convolution(self.denominator, rhs.denominator),
        )

    __radd__ = __add__

    def __neg__(self) -> RationalGF:
        return RationalGF([-c for c in self.numerator], self.denominator)

    @_lifted
    def __mul__(self, rhs: RationalGF) -> RationalGF:
        return RationalGF(
            _convolution(self.numerator, rhs.numerator),
            _convolution(self.denominator, rhs.denominator),
        )

    __rmul__ = __mul__

    @_lifted
    def __truediv__(self, rhs: RationalGF) -> RationalGF:
        """Exact quotient; the divisor must not vanish at z = 0."""
        if not rhs.numerator or not rhs.numerator[0]:
            raise ZeroConstantTermError("division needs a nonzero constant term")
        return RationalGF(
            _convolution(self.numerator, rhs.denominator),
            _convolution(self.denominator, rhs.numerator),
        )

    def coefficients(self, order: int) -> tuple[Fraction, ...]:
        """Coefficients 0..order, by the recurrence on integers."""
        return tuple(map(Fraction, self._values(_size(order, "order"))))

    def _values(self, order: int) -> list[Coeff]:
        """Coefficients 0..order, each an ``int`` when integral, else a ``Fraction``.

        With g[n] = c[n] * q[0]**(n+1) the recurrence needs no division:
        g[n] = q[0]**n * p[n] - sum(q[i] * g[n-i] * q[0]**(i-1), i >= 1).
        Every named form has q[0] = 1, so g is the coefficients themselves.
        """
        p, q = self.numerator, self.denominator
        q0 = q[0]
        # q[i] * q0**(i-1) for the terms that are not zero
        weights = [(i, q[i] * q0 ** (i - 1)) for i in range(1, len(q)) if q[i]]
        g: list[int] = []
        q0_power = 1  # q0**n
        for n in range(order + 1):
            acc = q0_power * p[n] if n < len(p) else 0
            for i, weight in weights:
                if i > n:
                    break
                acc -= weight * g[n - i]
            g.append(acc)
            q0_power *= q0
        if q0 == 1:
            return g
        return [_quotient(acc, q0 ** (n + 1)) for n, acc in enumerate(g)]

    def coefficient(self, n: int) -> Fraction:
        """Coefficient n alone, by Bostan-Mori in O(log n) products.

        With Q(z)Q(-z) = V(z**2) and P(z)Q(-z) = U0(z**2) + z*U1(z**2),
        coefficient n of P/Q is coefficient n // 2 of U_r / V for
        r = n mod 2.  The last halving, at n = 1, reads only the constant
        terms of U1 and V: term 1 of P(z)Q(-z), p[1]*q[0] - p[0]*q[1],
        and term 0 of Q(z)Q(-z), q[0]**2, so neither product is formed.
        """
        _size(n, "n")
        p, q = self.numerator, self.denominator
        while n > 1:
            q_minus = [-c if i % 2 else c for i, c in enumerate(q)]
            p = _product_terms(p, q_minus, n % 2)
            q = _product_terms(q, q_minus, 0)
            n //= 2
        p0, p1 = (*p, 0, 0)[:2]
        if n:
            q1 = q[1] if len(q) > 1 else 0
            return Fraction(p1 * q[0] - p0 * q1, q[0] * q[0])
        return Fraction(p0, q[0])


def _trimmed(coeffs: list[int]) -> tuple[int, ...]:
    """The coefficients without trailing zeros."""
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return tuple(coeffs)


def _convolution(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The product of two integer coefficient lists, lowest order first."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _product_terms(a: Sequence[int], b: Sequence[int], parity: int) -> list[int]:
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


_Z = RationalGF([0, 1], [1])
# z**2 / (1 - z - z**2)
_MOUNTAIN_GF = RationalGF([0, 0, 1], [1, -1, -1])
# z**2 (1 - z - z**2) / ((1 - z**2)(1 - 2z - z**2))
_PRODUCT_GF = RationalGF([0, 0, 1, -1, -1], [1, -2, -2, 2, 1])
# z**2 over the three-layer staircase denominator
_GAMMA = _Z * _Z / (1 - _Z / (1 - _Z / (1 - _Z * _Z)))
_HANG = 1 / (1 - _MOUNTAIN_GF)

# Each form is built once, here, and shared: all twelve together take
# about 1 ms of integer polynomial arithmetic (Python 3.11, 2-vCPU host).
_FORMS: dict[str, RationalGF] = {
    "mountain": _MOUNTAIN_GF,
    # (1 - z - z**2) / ((1 + z)(1 - 2z))
    "bundle": RationalGF([1, -1, -1], [1, -1, -2]),
    "product": _PRODUCT_GF,
    "with-empty": 1 + _PRODUCT_GF,
    "partial-fractions": (
        Fraction(1, 4) / (1 - _Z)
        + Fraction(1, 4) / (1 + _Z)
        + Fraction(1, 2) * (1 - 2 * _Z) / (1 - 2 * _Z - _Z * _Z)
    ),
    "continued-fraction": 1 / (1 - _Z * _Z / (1 - _Z / (1 - _Z / (1 - _Z * _Z)))),
    "gamma": _GAMMA,
    "cf-closure": 1 / (1 - _GAMMA),
    "tree-form": 1 + _Z * _Z / (1 - (_Z + _Z * _Z) * _HANG) * _HANG,
    # (1 - 2z) / (1 - 3z + z**2)
    "dyck-nondecreasing": RationalGF([1, -2], [1, -3, 1]),
    "square-first-tilings": 1 / (1 - _Z / (1 - _Z * _Z)),
    "edge-or-path": _Z / (1 - _Z / (1 - _Z * _Z)),
}

FORM_NAMES: tuple[str, ...] = tuple(_FORMS)


def named_form(form: str) -> RationalGF:
    """The named generating function as an exact rational function.

    The registry names every closed form the package works with; an
    unknown name raises :class:`UnknownFormError` listing the options.
    Each form is built once, when the module is imported, and every call
    returns that one value: forms are shared values, so a caller must
    not assign to a form's ``numerator`` or ``denominator``.
    """
    try:
        return _FORMS[form]
    except KeyError:
        known = ", ".join(FORM_NAMES)
        raise UnknownFormError(f"unknown form {form!r}; expected one of: {known}") from None


def gf_coefficients(form: str, order: int) -> tuple[Fraction, ...]:
    """Coefficients 0..order of a named generating function."""
    return named_form(form).coefficients(order)


def star_identity_holds(a: TruncatedSeries, b: TruncatedSeries, order: int) -> bool:
    """Check 1/(1-a-b) == 1/(1-b) * 1/(1 - a/(1-b)) through ``order``.

    Both arguments must vanish at z = 0; otherwise the geometric series
    being compared do not exist and
    :class:`NonzeroConstantTermError` is raised.
    """
    a = TruncatedSeries(a.coefficients, _size(order, "order"))  # None would keep a's order
    b = TruncatedSeries(b.coefficients, order)
    if a[0] or b[0]:
        raise NonzeroConstantTermError("both arguments must have zero constant term")
    lhs = 1 / (1 - a - b)
    b_star = 1 / (1 - b)
    rhs = b_star * (1 / (1 - a * b_star))
    return lhs == rhs


def format_coefficients(values: Sequence[Coeff]) -> str:
    """Comma separated exact values, e.g. ``1, 0, 1, 1, 3``."""
    return ", ".join(str(v) for v in values)


# The encoder of the package's record writers (this one and the table and
# verify reports): json.dumps with separators other than its default
# builds a new JSONEncoder per call.
_RECORD_ENCODER = json.JSONEncoder(separators=(",", ":"))


def coefficients_to_json(form: str, values: Sequence[Coeff]) -> str:
    """JSON record ``{"form": ..., "coeffs": ["1", "0", ...]}``."""
    record = {"form": form, "coeffs": [str(v) for v in values]}
    return _RECORD_ENCODER.encode(record)
