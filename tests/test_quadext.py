import decimal
from decimal import Decimal
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from andortrees.quadext import QuadExt
from oracles import _oracle_mpf

rationals = st.fractions(
    min_value=-100, max_value=100, max_denominator=50
)


def elements(d):
    return st.builds(lambda p, q: QuadExt(p, q, d), rationals, rationals)


@given(elements(6), elements(6), elements(6))
@settings(max_examples=200)
def test_field_axioms(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert a - a == 0
    if not b.is_zero():
        assert (a / b) * b == a


@given(elements(6))
@settings(max_examples=100)
def test_inverse(a):
    if not a.is_zero():
        assert a * a.inverse() == 1


def test_square_discriminant_collapses():
    x = QuadExt(1, 1, 4)  # sqrt(4) = 2, so this is just 3
    assert x == 3
    assert x.q == 0
    assert QuadExt(0, Fraction(1, 2), 16) == 2


def test_mixing_fields_raises():
    with pytest.raises(ValueError):
        QuadExt(1, 1, 2) + QuadExt(1, 1, 6)


def test_float_and_mpf():
    x = QuadExt(1, 1, 2)
    assert abs(float(x) - 2.414213562) < 1e-8
    assert float(x) == float(1 + mp.sqrt(2))


@pytest.mark.parametrize(
    "p, q, d", [(-99, 70, 2), (99, -70, 2), (Fraction(-1, 3), Fraction(1, 7), 5)]
)
def test_float_is_the_nearest_float_under_cancellation(p, q, d):
    # 70*sqrt(2) - 99 = -0.00505...: float(p) + float(q)*sqrt(d) would lose
    # the bits that cancel
    x = QuadExt(p, q, d)
    with mp.workprec(300):
        assert float(x) == float(_oracle_mpf(x))


def test_to_decimal_rounds_in_the_current_context():
    x = QuadExt(Fraction(1, 3), 1, 2)
    with decimal.localcontext(decimal.Context(prec=50)):
        value = x.to_decimal()
    with decimal.localcontext(decimal.Context(prec=60)):
        assert len(value.as_tuple().digits) == 50
        assert abs(value - (Decimal(1) / 3 + Decimal(2).sqrt())) < Decimal("1e-48")


def test_pow():
    x = QuadExt(1, 1, 2)
    assert x ** 2 == QuadExt(3, 2, 2)
    assert x ** 0 == 1
    assert (x ** -1) * x == 1


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        QuadExt(1, 0, 2) / QuadExt(0, 0, 2)


def test_only_zero_is_falsy():
    assert not QuadExt(0, 0, 2) and not QuadExt(0, 5, 4) - 10
    assert QuadExt(0, 1, 2) and QuadExt(Fraction(1, 3), 0, 2)


def test_str_forms():
    assert str(QuadExt(Fraction(1, 2), 0, 2)) == "1/2"
    assert str(QuadExt(1, Fraction(1, 3), 6)) == "1+1/3*sqrt(6)"
