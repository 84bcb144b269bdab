"""Truncated power series with coefficients in any field.

Two jobs.  As the independent coefficient oracle for the limiting-ratio
engine, the catalog families' closed forms, plain functions of (z, a, t),
are called on Series arguments and their high-order coefficients compared
against exact tree counts.  At order 1 a series is a value plus a
derivative, so a family called on order-1 series at the singular point
returns its directional derivative as coefficient 1 (forward-mode
differentiation).  Coefficients may be int, Fraction, `QuadExt` or
`Decimal`, any operand that is not a Series acting as a scalar.  Int inputs
stay plain ints whenever every division is by a unit constant term (as in
every catalog family), falling back to Fraction otherwise.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Sequence

#: an element of any field with +, -, *, / and int operands: int, Fraction,
#: QuadExt or Decimal
Coeff = Any


class Series:
    """Power series truncated at z^order (inclusive)."""

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs: Sequence[Coeff], order: int):
        if order < 0:
            raise ValueError("order must be >= 0")
        c = list(coeffs[: order + 1])
        c += [0] * (order + 1 - len(c))
        self.coeffs = c
        self.order = order

    @classmethod
    def zero(cls, order: int) -> "Series":
        return cls([], order)

    @classmethod
    def constant(cls, value: Coeff, order: int) -> "Series":
        return cls([value], order)

    @classmethod
    def z(cls, order: int) -> "Series":
        return cls([0, 1], order)

    def __getitem__(self, m: int) -> Coeff:
        return self.coeffs[m] if 0 <= m <= self.order else 0

    def min_degree(self) -> int:
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        return self.order + 1

    def _coerce(self, other) -> "Series":
        if not isinstance(other, Series):
            return Series.constant(other, self.order)
        if other.order != self.order:
            raise ValueError("series orders differ")
        return other

    def __add__(self, other):
        o = self._coerce(other)
        return Series([a + b for a, b in zip(self.coeffs, o.coeffs)], self.order)

    __radd__ = __add__

    def __neg__(self):
        return Series([-a for a in self.coeffs], self.order)

    def __sub__(self, other):
        o = self._coerce(other)
        return Series([a - b for a, b in zip(self.coeffs, o.coeffs)], self.order)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Series):
            return Series([other * a for a in self.coeffs], self.order)
        o = self._coerce(other)
        n = self.order
        a, b = self.coeffs, o.coeffs
        out = [0] * (n + 1)
        for i, ai in enumerate(a):
            if not ai:
                continue
            for j in range(n + 1 - i):
                bj = b[j]
                if bj:
                    out[i + j] += ai * bj
        return Series(out, n)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        b0 = o.coeffs[0]
        if not b0:
            raise ZeroDivisionError("series division by a series with zero constant term")
        n = self.order
        a, b = self.coeffs, o.coeffs
        out: list = [0] * (n + 1)
        unit = b0 == 1
        for m in range(n + 1):
            acc = a[m]
            for i in range(1, m + 1):
                bi = b[i]
                if bi:
                    acc -= bi * out[m - i]
            if not unit:  # int / int stays exact
                both_int = isinstance(acc, int) and isinstance(b0, int)
                acc = Fraction(acc, b0) if both_int else acc / b0
            out[m] = acc
        return Series(out, n)

    def __rtruediv__(self, other):
        return Series.constant(other, self.order) / self

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            return NotImplemented
        if exponent == 0:
            return Series.constant(1, self.order)
        if self.min_degree() * exponent > self.order:
            return Series.zero(self.order)
        result = None
        base = self
        e = exponent
        while e:
            if e & 1:
                result = base if result is None else result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def __eq__(self, other):
        if isinstance(other, Series):
            return self.order == other.order and all(
                a == b for a, b in zip(self.coeffs, other.coeffs)
            )
        return NotImplemented

    def __repr__(self):
        head = ", ".join(str(c) for c in self.coeffs[: min(8, self.order + 1)])
        return f"Series([{head}, ...], order={self.order})"
