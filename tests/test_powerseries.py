import decimal
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from andortrees.powerseries import Series
from andortrees.quadext import QuadExt

ORDER = 12
small = st.integers(-9, 9)
# coefficients from three fields; the Decimals are small integers, so their
# sums and products stay exact and the identities hold exactly
fields = st.sampled_from([
    small,
    st.builds(lambda p, q: QuadExt(p, Fraction(q, 2), 2), small, small),
    small.map(Decimal),
])


@st.composite
def coeff_lists(draw, count):
    """`count` coefficient lists over one field."""
    field = draw(fields)
    return [draw(st.lists(field, min_size=0, max_size=ORDER + 1)) for _ in range(count)]


def mk(coeffs):
    return Series(coeffs, ORDER)


@given(coeff_lists(2))
@settings(max_examples=150)
def test_mul_commutes(lists):
    a, b = lists
    assert mk(a) * mk(b) == mk(b) * mk(a)


@given(coeff_lists(2))
@settings(max_examples=150)
def test_div_inverts_mul_for_unit_series(lists):
    a, b = lists
    denom = mk([1] + b)
    assert (mk(a) * denom) / denom == mk(a)


@given(coeff_lists(1))
@settings(max_examples=100)
def test_pow_matches_repeated_mul(lists):
    s = mk(lists[0])
    assert s ** 3 == s * s * s
    assert s ** 0 == Series.constant(1, ORDER)


def test_geometric_series():
    z = Series.z(ORDER)
    geom = 1 / (1 - z)
    assert geom.coeffs == [1] * (ORDER + 1)


def test_int_coefficients_stay_int():
    z = Series.z(ORDER)
    s = (1 + 2 * z) ** 4 / (1 - z)
    assert all(isinstance(c, int) for c in s.coeffs)


def test_division_needs_unit():
    with pytest.raises(ZeroDivisionError):
        Series.constant(1, 4) / Series.z(4)


def test_fraction_coefficients():
    s = Series([Fraction(1, 2), 1], 4) * 2
    assert s.coeffs[0] == 1


def test_high_power_truncates_to_zero():
    z = Series.z(10)
    assert (2 * z) ** 11 == Series.zero(10)


def test_min_degree_skips_zeros_of_any_field():
    assert Series([QuadExt(0, 0, 2), QuadExt(1, 0, 2)], 3).min_degree() == 1
    assert Series([Decimal(0), Decimal(0), Decimal("0.5")], 3).min_degree() == 2


def test_order_one_series_differentiate_a_rational_function():
    # f(a) = (a^3 - 2)/(1 - a) + 3/a^2, f'(a) = (3a^2 - 2a^3 - 2)/(1 - a)^2 - 6/a^3
    def f(a):
        return (a**3 - 2) / (1 - a) + 3 / a**2

    def df(a):
        return (3 * a**2 - 2 * a**3 - 2) / (1 - a) ** 2 - 6 / a**3

    for a in (Fraction(2, 7), QuadExt(Fraction(1, 3), Fraction(1, 5), 2)):
        assert f(Series([a, 1], 1)).coeffs == [f(a), df(a)]
    with decimal.localcontext(decimal.Context(prec=40)):
        a = Decimal("0.3")
        value, slope = f(Series([a, 1], 1)).coeffs
        assert abs(value - f(a)) < Decimal("1e-35")
        assert abs(slope - df(a)) < Decimal("1e-35")
    for one in (Fraction(1), QuadExt(1, 0, 2), Decimal(1)):
        with pytest.raises(ZeroDivisionError):
            f(Series([one, 1], 1))
