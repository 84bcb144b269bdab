"""Exact arithmetic in the real quadratic extension Q(sqrt(d)).

All singularity-level quantities of the tree generating functions live in
Q(sqrt(2n)), so a tiny dedicated field type is enough: no general computer
algebra, just exact rational pairs with the usual field operations.

When d is a perfect square the extension degenerates to Q; elements are then
canonicalised to have a zero radical coefficient so that equality remains
coefficient-wise.
"""

from __future__ import annotations

import math
from decimal import Decimal
from fractions import Fraction
from typing import Union

Rational = Union[int, Fraction]


class QuadExt:
    """An exact number p + q*sqrt(d) with rational p, q and fixed integer d >= 1."""

    __slots__ = ("p", "q", "d")

    def __init__(self, p: Rational, q: Rational, d: int):
        if d < 1:
            raise ValueError("d must be a positive integer")
        p = Fraction(p)
        q = Fraction(q)
        root = math.isqrt(d)
        if root * root == d and q:
            # degenerate extension: sqrt(d) is the integer `root`
            p += q * root
            q = Fraction(0)
        self.p = p
        self.q = q
        self.d = d

    # -- constructors -------------------------------------------------

    @classmethod
    def rational(cls, value: Rational, d: int) -> "QuadExt":
        return cls(value, 0, d)

    @classmethod
    def sqrt_term(cls, d: int) -> "QuadExt":
        """The element sqrt(d) itself."""
        return cls(0, 1, d)

    # -- helpers -------------------------------------------------------

    def _coerce(self, other) -> "QuadExt":
        if isinstance(other, QuadExt):
            if other.d != self.d:
                raise ValueError(
                    f"cannot mix Q(sqrt({self.d})) with Q(sqrt({other.d}))"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return QuadExt(other, 0, self.d)
        return NotImplemented  # type: ignore[return-value]

    def is_zero(self) -> bool:
        return not self.p and not self.q

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- field operations ----------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return QuadExt(self.p + o.p, self.q + o.q, self.d)

    __radd__ = __add__

    def __neg__(self):
        return QuadExt(-self.p, -self.q, self.d)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return QuadExt(self.p - o.p, self.q - o.q, self.d)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return QuadExt(
            self.p * o.p + self.d * self.q * o.q,
            self.p * o.q + self.q * o.p,
            self.d,
        )

    __rmul__ = __mul__

    def inverse(self) -> "QuadExt":
        norm = self.p * self.p - self.d * self.q * self.q
        if not norm:
            # q == 0 here as well (d canonicalised away squares), so this is 1/0
            raise ZeroDivisionError("division by zero in QuadExt")
        return QuadExt(self.p / norm, -self.q / norm, self.d)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = QuadExt(1, 0, self.d)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    # -- comparisons / conversions --------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QuadExt(other, 0, self.d)
        if not isinstance(other, QuadExt):
            return NotImplemented
        return self.d == other.d and self.p == other.p and self.q == other.q

    def __hash__(self):
        return hash((self.p, self.q, self.d))

    def __float__(self) -> float:
        """The float nearest to p + q*sqrt(d), computed from integers."""
        if not self.q:
            return float(self.p)
        # p + q*sqrt(d) = (a + b*sqrt(d)) / den with integers a, b, den > 0
        den = math.lcm(self.p.denominator, self.q.denominator)
        a = self.p.numerator * (den // self.p.denominator)
        b = self.q.numerator * (den // self.q.denominator)
        k = 64
        while True:
            # b*sqrt(d)*2^k lies strictly inside (low, low + 1): sqrt(d) is
            # irrational here, because d has no square root in Q when q != 0
            root = math.isqrt(b * b * self.d << 2 * k)
            low = (a << k) + (root if b > 0 else -root - 1)
            # int / int rounds correctly, and rounding is monotone, so when
            # both ends of the bracket round to one float the value does too
            lo, hi = low / (den << k), (low + 1) / (den << k)
            if lo == hi:
                return lo
            k *= 2

    def to_decimal(self) -> Decimal:
        """p + q*sqrt(d) as a Decimal, rounded in the current decimal context."""
        return (
            Decimal(self.p.numerator) / self.p.denominator
            + Decimal(self.q.numerator) / self.q.denominator * Decimal(self.d).sqrt()
        )

    def __repr__(self) -> str:
        return f"QuadExt({self.p!r}, {self.q!r}, d={self.d})"

    def __str__(self) -> str:
        if not self.q:
            return str(self.p)
        return f"{self.p}+{self.q}*sqrt({self.d})"
