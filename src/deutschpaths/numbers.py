"""Integer sequences and exact closed forms behind the path counts.

All arithmetic is exact: integers are unbounded and the ring of numbers
a + b*sqrt(2) has rational coordinates, so the Binet style formulas
evaluate without any rounding.  Inside, a coordinate stays a plain
``int`` while it is integral and becomes a :class:`fractions.Fraction`
only when it is not, so powers of the silver ratio never build a
``Fraction``.  The silver ratio 1 + sqrt(2) and its conjugate drive
both Pell sequences and the closed form for the number of
weakly-increasing-valley paths, which the closed count reaches by
doubling the Pell pair in O(log n) integer products.

Fibonacci numbers follow the convention F(1) = F(2) = 1, extended
backwards so that F(0) = 0 and F(-1) = 1.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterator

__all__ = [
    "NonIntegerResultError",
    "DoesNotStartWithDominoError",
    "QuadraticNumber",
    "SQRT2",
    "SILVER_RATIO",
    "SILVER_CONJUGATE",
    "Piece",
    "Tiling",
    "fibonacci",
    "pell",
    "half_companion_pell",
    "binet_pell",
    "binet_half_companion",
    "count_nondecreasing_closed",
    "count_nondecreasing_quadratic",
    "count_mountains",
    "enumerate_tilings",
    "count_tilings",
    "count_square_first_tilings",
    "delete_leading_domino",
    "render_tiling",
]


class NonIntegerResultError(ArithmeticError):
    """Raised when a formula that must produce an integer fails to.

    Seeing this error means the implementation itself is wrong, not the
    caller's input.
    """


class DoesNotStartWithDominoError(ValueError):
    """Raised when a leading domino is requested but absent."""


def fibonacci(n: int) -> int:
    """F(n) with F(1) = F(2) = 1, defined for n >= -1 (F(-1) = 1)."""
    _size(n, "n", -1)
    prev, cur = 1, 0  # F(-1), F(0)
    for _ in range(n + 1):
        prev, cur = cur, prev + cur
    return prev


def pell(n: int) -> int:
    """Pell numbers 0, 1, 2, 5, 12, 29, ... via x(n) = 2x(n-1) + x(n-2)."""
    _size(n, "n")
    prev, cur = 0, 1
    for _ in range(n):
        prev, cur = cur, 2 * cur + prev
    return prev


def half_companion_pell(n: int) -> int:
    """Half companion Pell numbers 1, 1, 3, 7, 17, 41, ... same recurrence."""
    _size(n, "n")
    prev, cur = 1, 1
    for _ in range(n):
        prev, cur = cur, 2 * cur + prev
    return prev


def _silver_pair(n: int) -> tuple[int, int]:
    """(H, P) with (1 + sqrt(2))**n = H + P*sqrt(2), for n >= 0.

    H and P are half_companion_pell(n) and pell(n).  The pair is
    squared once per bit of n, most significant first, and stepped by
    one power where the bit is set: O(log n) integer products in place
    of the n steps of the defining recurrence.
    """
    h, p = 1, 0
    for bit in bin(n)[2:]:
        h, p = h * h + 2 * p * p, 2 * h * p  # (h + p r)**2 with r**2 = 2
        if bit == "1":
            h, p = h + 2 * p, h + p  # times 1 + r
    return h, p


# The scalars the exact types hold and take as operands.  Any other, a
# float, a string or a Decimal, would round or be parsed, so it is refused.
_EXACT_SCALARS = (int, Fraction)


def _exact(value: object, what: str) -> Fraction | int:
    """``value`` itself when it is an ``int`` or ``Fraction``; else ValueError naming it."""
    if not isinstance(value, _EXACT_SCALARS):
        raise ValueError(f"{what} must be an int or a Fraction, got {value!r}")
    return value


def _size(value: object, what: str, least: int = 0) -> int:
    """``value`` itself when it is exactly an ``int`` >= ``least``; else a
    ValueError naming it.  Every count, length, order and size passes
    here, so a float, a string, a ``Fraction`` or a bool is never run."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an int, got {value!r}")
    if value < least:
        raise ValueError(f"{what} must be >= {least}")
    return value


def _lifted(method):
    """Give a binary operator the operand rule of :class:`_DerivedOperators`."""

    @functools.wraps(method)
    def operator(self, other):
        if not isinstance(other, type(self)):
            if not isinstance(other, _EXACT_SCALARS):
                return NotImplemented
            other = self._scalar(other)
        return method(self, other)

    return operator


class _DerivedOperators:
    """Subtraction and the reflected ``-`` and ``/``, spelled once.

    Each calls the subclass's own ``+``, unary ``-`` and ``/``, so the
    exact types share this spelling and no arithmetic.  Every binary
    operator of the exact types takes its operand by one rule, applied
    by :func:`_lifted`: its own type as is, an ``int`` or ``Fraction``
    lifted by the class's ``_scalar``, and anything else declined with
    ``NotImplemented``, so that Python tries the other operand.
    """

    __slots__ = ()

    @_lifted
    def __sub__(self, rhs):
        return self + (-rhs)

    @_lifted
    def __rsub__(self, lhs):
        return lhs - self

    @_lifted
    def __rtruediv__(self, lhs):
        return lhs / self


def _coordinate(value: Fraction | int) -> Fraction | int:
    """The exact value as an ``int`` when integral, else as a ``Fraction``."""
    if type(value) is int:
        return value
    value = _exact(value, "coordinate")
    return value.numerator if value.denominator == 1 else value


def _quotient(value: Fraction | int, divisor: Fraction | int) -> Fraction | int:
    """value / divisor, exactly: an ``int`` when both are and it divides, else a Fraction."""
    if type(value) is type(divisor) is int and not value % divisor:
        return value // divisor
    # Fraction, not `/`: int / int would round to a float
    return Fraction(value, divisor)


def _product(
    a1: Fraction | int, b1: Fraction | int, a2: Fraction | int, b2: Fraction | int
) -> tuple[Fraction | int, Fraction | int]:
    """The coordinates of (a1 + b1 r)(a2 + b2 r) with r**2 = 2, in three products."""
    aa, bb = a1 * a2, b1 * b2
    return aa + 2 * bb, (a1 + b1) * (a2 + b2) - aa - bb


@dataclass(frozen=True, slots=True)
class QuadraticNumber(_DerivedOperators):
    """Exact element a + b*sqrt(2) with rational a and b.

    A coordinate is held as an ``int`` while it is integral and as a
    ``Fraction`` otherwise; equal values compare and hash alike either
    way.
    """

    a: Fraction | int
    b: Fraction | int

    def __init__(self, a: Fraction | int = 0, b: Fraction | int = 0):
        object.__setattr__(self, "a", _coordinate(a))
        object.__setattr__(self, "b", _coordinate(b))

    def __repr__(self) -> str:
        return f"QuadraticNumber({self.a}, {self.b})"

    def __str__(self) -> str:
        return f"{self.a} + {self.b}*sqrt(2)"

    def _scalar(self, value: Fraction | int) -> QuadraticNumber:
        return QuadraticNumber(value)

    @_lifted
    def __add__(self, rhs: QuadraticNumber) -> QuadraticNumber:
        return QuadraticNumber(self.a + rhs.a, self.b + rhs.b)

    __radd__ = __add__

    def __neg__(self) -> QuadraticNumber:
        return QuadraticNumber(-self.a, -self.b)

    @_lifted
    def __mul__(self, rhs: QuadraticNumber) -> QuadraticNumber:
        return QuadraticNumber(*_product(self.a, self.b, rhs.a, rhs.b))

    __rmul__ = __mul__

    def conjugate(self) -> QuadraticNumber:
        """a - b sqrt(2), the image under sqrt(2) -> -sqrt(2)."""
        return QuadraticNumber(self.a, -self.b)

    def norm(self) -> Fraction | int:
        """a^2 - 2 b^2, the value times its conjugate."""
        return self.a * self.a - 2 * self.b * self.b

    @_lifted
    def __truediv__(self, rhs: QuadraticNumber) -> QuadraticNumber:
        n = rhs.norm()
        if not n:
            raise ZeroDivisionError("division by a number of norm zero")
        flipped = self * rhs.conjugate()
        return QuadraticNumber(_quotient(flipped.a, n), _quotient(flipped.b, n))

    def __pow__(self, exponent: int) -> QuadraticNumber:
        """Power by squaring, from the top bit of the exponent down.

        Each bit after the top one squares the running power, and each
        set bit then multiplies it by ``self``: bit_length - 1 squarings
        and popcount - 1 products, every one through :func:`_product`
        on the bare coordinates.  A set bit thus multiplies by the base,
        never by a second large power.  Only the result is built as a
        :class:`QuadraticNumber`, so its integral coordinates are ints.
        """
        if not _size(exponent, "exponent"):
            return QuadraticNumber(1)
        a, b = base_a, base_b = self.a, self.b
        for bit in bin(exponent)[3:]:
            a, b = _product(a, b, a, b)
            if bit == "1":
                a, b = _product(a, b, base_a, base_b)
        return QuadraticNumber(a, b)

    def as_integer(self) -> int:
        """The value as a plain integer, or :class:`NonIntegerResultError`
        naming the fault; the value may be too long to print."""
        if self.b:
            raise NonIntegerResultError("value has a sqrt(2) part")
        if self.a.denominator != 1:
            raise NonIntegerResultError("value is a fraction, not an integer")
        return self.a.numerator


SQRT2 = QuadraticNumber(0, 1)
SILVER_RATIO = QuadraticNumber(1, 1)  # 1 + sqrt(2)
SILVER_CONJUGATE = QuadraticNumber(1, -1)  # 1 - sqrt(2)


def binet_pell(n: int) -> int:
    """Pell number via (s**n - t**n) / (2 sqrt(2)) in the quadratic ring."""
    _size(n, "n")
    diff = SILVER_RATIO**n - SILVER_CONJUGATE**n
    return (diff / (2 * SQRT2)).as_integer()


def binet_half_companion(n: int) -> int:
    """Half companion Pell number via (s**n + t**n) / 2."""
    _size(n, "n")
    total = SILVER_RATIO**n + SILVER_CONJUGATE**n
    return (total / 2).as_integer()


def count_nondecreasing_quadratic(n: int) -> int:
    """Closed count evaluated literally in the sqrt(2) ring.

    (1 + (-1)**n)/4 + (s**n + t**n)/4 - (s**n - t**n)/(4 sqrt(2)) for
    the silver ratio s and its conjugate t.  Both powers are raised in
    the ring, and four times the sum is formed there: s**n - t**n has no
    rational part, so its quotient by sqrt(2) has ``int`` coordinates
    and no coordinate becomes a ``Fraction``.  One ``divmod`` by 4 ends
    it.  The result must be a nonnegative integer; a sqrt(2) part, a
    remainder or a negative value raises :class:`NonIntegerResultError`.
    """
    _size(n, "n")
    s_pow = SILVER_RATIO**n
    t_pow = SILVER_CONJUGATE**n
    four_times = QuadraticNumber(1 + (-1) ** n) + (s_pow + t_pow) - (s_pow - t_pow) / SQRT2
    result, remainder = divmod(four_times.as_integer(), 4)
    if remainder:
        raise NonIntegerResultError(f"4 times the count for n={n} is not divisible by 4")
    if result < 0:
        raise NonIntegerResultError(f"count for n={n} came out negative")
    return result


def count_nondecreasing_closed(n: int) -> int:
    """Number of weakly-increasing-valley paths of length ``n``.

    Computed in plain integer arithmetic as
    ((1 + (-1)**n)/2 + half_companion_pell(n) - pell(n)) / 2, with the
    Pell pair doubled in O(log n) products, and cross checked against
    the quadratic ring evaluation on every call; a disagreement would
    be an arithmetic bug and raises.
    """
    _size(n, "n")
    parity = (1 + (-1) ** n) // 2
    half_companion, pell_n = _silver_pair(n)
    total, remainder = divmod(parity + half_companion - pell_n, 2)
    if remainder or total != count_nondecreasing_quadratic(n):
        raise NonIntegerResultError(f"closed form routes disagree at n={n}")
    return total


def count_mountains(k: int) -> int:
    """Number of mountains of length ``k`` >= 0; 0 for k < 2.

    Evaluates the two binomial sums
    sum(C(j-1, 2j-k) for 1 <= j < k) and
    sum(C(k-j-2, j) for 0 <= j < k-1)
    independently and insists they agree before returning.  Each sum
    walks its nonzero terms along a diagonal of Pascal's triangle, so a
    term comes from the one before by small factors and an exact
    division rather than from a fresh binomial.
    """
    if _size(k, "k") < 2:
        return 0
    low = (k + 1) // 2  # the least j with 2j >= k
    by_rise = term = low - 1 if k % 2 else 1  # C(low-1, k mod 2)
    for j in range(low + 1, k):
        term = term * (j - 1) * (k - j) // ((2 * j - k - 1) * (2 * j - k))
        by_rise += term
    by_diagonal = term = 1  # C(k-2, 0)
    for j in range(1, k // 2):
        term = term * (k - 2 * j) * (k - 2 * j - 1) // ((k - j - 1) * j)
        by_diagonal += term
    if by_rise != by_diagonal:
        raise NonIntegerResultError(f"binomial sums disagree at k={k}")
    return by_rise


class Piece(Enum):
    """One tile: a square covers one cell, a domino covers two."""

    SQUARE = 1
    DOMINO = 2

    @property
    def width(self) -> int:
        return self.value


Tiling = tuple[Piece, ...]


def enumerate_tilings(n: int) -> Iterator[Tiling]:
    """All square and domino tilings of a 1 x n strip, square first.

    The order is lexicographic with Square < Domino, so the all-square
    tiling leads.  n = 0 yields the empty tiling.
    """
    _size(n, "n")

    def walk() -> Iterator[Tiling]:
        # lexicographic successor in a loop, so no length meets the
        # recursion limit
        tiling = [Piece.SQUARE] * n
        while True:
            yield tuple(tiling)
            free = 0
            # the last square with a cell after it becomes a domino
            while tiling and not (tiling[-1] is Piece.SQUARE and free):
                free += tiling.pop().width
            if not tiling:
                return
            tiling[-1] = Piece.DOMINO
            tiling.extend([Piece.SQUARE] * (free - 1))

    return walk()


def count_tilings(n: int) -> int:
    """Number of tilings of a 1 x n strip, by direct recurrence."""
    _size(n, "n")
    two_back, one_back = 1, 1  # lengths 0 and 1
    for _ in range(n):
        two_back, one_back = one_back, one_back + two_back
    return two_back


def count_square_first_tilings(n: int) -> int:
    """Tilings of length ``n`` whose first tile is a square.

    The empty tiling has no first tile, so n = 0 gives 0 here even
    though the matching series starts with constant term 1.
    """
    _size(n, "n")
    return count_tilings(n - 1) if n >= 1 else 0


def delete_leading_domino(tiling: Tiling) -> Tiling:
    """Drop the first tile, which must be a domino.

    This realises the bijection from domino-first tilings of length
    n + 1 onto all tilings of length n - 1.
    """
    if not tiling or tiling[0] is not Piece.DOMINO:
        raise DoesNotStartWithDominoError("tiling does not start with a domino")
    return tiling[1:]


def render_tiling(tiling: Tiling) -> str:
    """Tokens "S" and "D" separated by single spaces."""
    return " ".join("S" if piece is Piece.SQUARE else "D" for piece in tiling)
