import decimal
import hashlib
import math
from decimal import Decimal
from fractions import Fraction

import mpmath as mp
import pytest

from andortrees import families
from andortrees.analytic import (
    EXACT_MAX_N,
    PoleError,
    _exact_ratio,
    _float_down,
    _float_up,
    default_t_env,
    expected_first_level_leaves,
    first_level_leaf_law,
    limiting_ratio,
    nonleaf_partition_sum,
    singularity,
    tautology_bounds,
)
from andortrees.counting import series
from andortrees.powerseries import Series
from andortrees.quadext import QuadExt
from oracles import (
    _oracle_first_level_leaf_law,
    _oracle_mpf,
    _oracle_t_ratio,
    _oracle_tautology_bounds,
    _oracle_tautology_sums,
)


def test_singularity_small_n():
    p1 = singularity(1)
    # smallest positive root of -4z^2 - 4z + 1: (sqrt(2)-1)/2
    assert p1.radius == QuadExt(Fraction(-1, 2), Fraction(1, 2), 2)
    p2 = singularity(2)
    assert p2.radius == Fraction(1, 8)
    assert p2.rooted_value == Fraction(2, 3)
    assert p2.nonleaf_value == Fraction(1, 6)


def test_discriminant_zero_for_many_n():
    for n in range(1, 101):
        assert singularity(n).discriminant_residual().is_zero()


def test_radical_term_vanishes_at_radius():
    # (4n^2-8n) r^2 - 4n r + 1 == 0 is exactly the radicand of the closed form
    for n in (1, 2, 3, 7, 18):
        point = singularity(n)
        r = point.radius
        assert ((4 * n * n - 8 * n) * r * r - 4 * n * r + 1).is_zero()


def test_nonleaf_value_below_inverse_sqrt():
    for n in range(1, 40):
        assert float(singularity(n).nonleaf_value) < 1 / math.sqrt(2 * n)


def test_no_first_level_leaf_exact_value():
    v = limiting_ratio(families.no_first_level_leaf(2), 2)
    assert v == Fraction(11, 200)


def test_expected_first_level_leaves_exact():
    assert expected_first_level_leaves(2) == Fraction(27, 8)
    for n in (1, 2, 3, 10):
        assert float(expected_first_level_leaves(n)) > 0


def test_expected_leaves_asymptotics():
    value = float(expected_first_level_leaves(10**6))
    assert abs(value / (2 * math.sqrt(2 * 10**6)) - 1) < 0.005


def test_partition_of_unity_exact():
    for n in (1, 2, 5, 10):
        assert nonleaf_partition_sum(n) == 1


def test_corrected_count_families_partition_series():
    # summing the per-count corrected families plus single leaves reproduces
    # the full tree series, coefficient by coefficient
    order = 25
    for n in (1, 2):
        cs = series(n, order)
        z = Series.z(order)
        rooted = Series(list(cs.a_hat), order)
        total = Series.constant(0, order)
        for count in range(0, (order - 1) // 3 + 2):
            total = total + families.nonleaf_subtrees_corrected(n, count)(z, rooted, None)
        assert total.coeffs == list(cs.a_total)


def test_leaf_count_families_partition_series():
    order = 20
    for n in (1, 2):
        cs = series(n, order)
        z = Series.z(order)
        rooted = Series(list(cs.a_hat), order)
        total = 2 * n * z  # single leaves have no root children
        for j in range(0, order + 1):
            total = total + families.first_level_leaves_exactly(n, j)(z, rooted, None)
        assert total.coeffs == list(cs.a_total)


def test_leaf_law_matches_noleaf_family_and_sums_to_one():
    for n in (2, 10, 100):
        law = first_level_leaf_law(n, 4000)
        assert abs(sum(law) - 1) < 1e-12
        noleaf = float(limiting_ratio(families.no_first_level_leaf(n), n))
        assert abs(law[0] - noleaf) < 1e-14


@pytest.mark.parametrize("n", [1, 100, 10**6])
def test_leaf_law_terms_match_the_mpmath_oracle(n):
    # every term check 10b reads at this n, each within 4 ulps
    j_max = int(40 * math.sqrt(2 * n))
    got, want = first_level_leaf_law(n, j_max), _oracle_first_level_leaf_law(n, j_max)
    assert len(got) == len(want) == j_max + 1
    assert all(abs(g - w) <= 4 * math.ulp(w) for g, w in zip(got, want))


def test_exact_k_labels_is_order_k_over_n():
    # ratio * n / k stays bounded over small k for large n
    for n in (10**3, 10**4):
        for k in range(1, int(n ** 0.25) + 1):
            value = float(limiting_ratio(families.exact_k_labels(n, k), n))
            assert value * n / k < 1.0


def test_labels_from_asymptotics():
    n = 10**6
    for gamma in (1, 2, 5):
        value = float(limiting_ratio(families.labels_from(n, gamma), n))
        assert abs(value / (gamma * math.sqrt(2 / n)) - 1) < 0.01


def test_labels_from_is_a_probability():
    # even with every literal allowed the ratio stays at most 1
    for n in (1, 2, 3, 10):
        value = float(limiting_ratio(families.labels_from(n, 2 * n), n))
        assert 0 < value <= 1


def test_simple_x_is_linear_in_t():
    n = 3
    point = singularity(n)
    for tau in (0.2, 0.3):
        v = limiting_ratio(
            families.simple_x(n), n, env={"t_value": 0.05, "tau_prime": tau}
        )
        assert abs(float(v) - 4 * float(point.radius) ** 2 * tau) < 1e-15


def test_check_family_requires_env():
    with pytest.raises(ValueError):
        limiting_ratio(families.check_family(3, 2), 3)


def test_check_family_with_default_env():
    env = default_t_env(2)
    v = limiting_ratio(families.check_family(2, 1), 2, env=env)
    assert float(v) > 0


def test_t_dependent_ratios_match_the_mpmath_oracle():
    # 1/2 dF/da + tau' dF/dt by numerical differentiation at 300 bits, at a
    # fixed env; the 200-bit evaluation keeps about 60 digits
    env = {"t_value": 0.07, "tau_prime": 0.3}
    for n in (1, 2, 3):
        instances = [families.simple_x(n)]
        instances += [families.check_family(n, k) for k in range(1, n + 1)]
        for family in instances:
            got = limiting_ratio(family, n, env=env)
            want = _oracle_t_ratio(family, n, env)
            with mp.workprec(300):
                assert abs(mp.mpf(str(got)) / want - 1) < 1e-55, (n, got)


def test_param_validation():
    with pytest.raises(ValueError):
        families.labels_from(2, 5)
    with pytest.raises(ValueError):
        families.exact_k_labels(2, 3)
    with pytest.raises(ValueError):
        families.nonleaf_subtrees(2, -1)


def test_pole_detection():
    # exact up to EXACT_MAX_N, in floats above
    for n in (2, EXACT_MAX_N + 1):
        with pytest.raises(PoleError):
            limiting_ratio(lambda z, a, t: a / (a - a), n)


@pytest.mark.parametrize("n", [EXACT_MAX_N + 1, 10**6])
def test_float_ratios_match_the_exact_ones(n):
    # above EXACT_MAX_N limiting_ratio evaluates in floats; every t-free
    # catalog family, at a few parameter values, against exact arithmetic
    instances = [("no_first_level_leaf", {}), ("R_family", {})]
    instances += [("labels_from", {"gamma": gamma}) for gamma in (1, 2, 5)]
    instances += [("exact_k_labels", {"k": k}) for k in (1, 3)]
    for count in range(4):
        instances += [
            ("nonleaf_subtrees", {"ell": count}),
            ("nonleaf_subtrees_corrected", {"ell": count}),
            ("first_level_leaves_exactly", {"j": count}),
        ]
    point = singularity(n)
    for name, params in instances:
        family = families.CATALOG[name](n, **params)
        value = limiting_ratio(family, n)
        assert isinstance(value, Decimal)
        exact = float(_exact_ratio(family, point))
        assert float(value) == pytest.approx(exact, rel=1e-13, abs=0), (name, params)


def _t_free_instances(n):
    """Every t-free catalog family at n, over each parameter value it accepts
    (counts of non-leaf subtrees and of leaf children capped at 8)."""
    yield "no_first_level_leaf", {}
    yield "R_family", {}
    for gamma in range(1, 2 * n + 1):
        yield "labels_from", {"gamma": gamma}
    for k in range(1, n + 1):
        yield "exact_k_labels", {"k": k}
    for count in range(9):
        yield "nonleaf_subtrees", {"ell": count}
        yield "nonleaf_subtrees_corrected", {"ell": count}
        yield "first_level_leaves_exactly", {"j": count}


def test_floats_of_exact_values_are_the_nearest_floats():
    # float(QuadExt) against 300-bit mpmath, over the catalog at n = 1..60
    # (parameters capped at 3) and the singular point's values
    with mp.workprec(300):
        for n in range(1, 61):
            point = singularity(n)
            values = [point.radius, point.rooted_value, point.nonleaf_value]
            values.append(expected_first_level_leaves(n))
            for name, params in _t_free_instances(n):
                if max(params.values(), default=0) <= 3:
                    values.append(limiting_ratio(families.CATALOG[name](n, **params), n))
            for value in values:
                assert float(value) == float(_oracle_mpf(value)), (n, value)


def test_float_evaluations_leave_the_decimal_context_alone():
    before = decimal.getcontext().copy()
    limiting_ratio(families.R_family(10**6), 10**6)
    limiting_ratio(families.simple_x(2), 2, env=default_t_env(2))
    tautology_bounds(10**5)
    after = decimal.getcontext()
    assert (after.prec, after.rounding, after.Emin, after.Emax) == (
        before.prec, before.rounding, before.Emin, before.Emax,
    )
    assert after.flags == before.flags and after.traps == before.traps


def test_exact_limiting_ratios_are_pinned():
    # every exact Q(sqrt(2n)) value behind checks 2-4 and the tests above,
    # pinned bit for bit by the digest of their reprs
    lines = []
    for n in range(1, 5):
        for name, params in _t_free_instances(n):
            value = limiting_ratio(families.CATALOG[name](n, **params), n)
            lines.append(f"{name} n={n} {params} {value!r}")
        lines.append(f"expected_first_level_leaves n={n} {expected_first_level_leaves(n)!r}")
        lines.append(f"nonleaf_partition_sum n={n} {nonleaf_partition_sum(n)!r}")
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "8fdbed7146954496f0e4ee0809baf9d62331fb25280299aef4ac87ddd2d2c77d"


@pytest.fixture(scope="module")
def bounds_near_far():
    """tautology_bounds at n = 10^6 and 4*10^6, computed once for the module."""
    return tautology_bounds(10**6), tautology_bounds(4 * 10**6)


def test_tautology_bound_trend(bounds_near_far):
    # the three bounds drift toward their limiting values as n grows
    b6, b7 = bounds_near_far
    assert abs(b7["E_ratio"] - 0.36618) < abs(b6["E_ratio"] - 0.36618)
    assert abs(b7["lower"] - 0.12161) < abs(b6["lower"] - 0.12161)
    assert b6["E2_bound"] < 1e-100


def test_tautology_bounds_extrapolate_to_their_limiting_integrals(bounds_near_far):
    # With k = x sqrt(n), b ~ 1/sqrt(2n) and w^k -> exp(-sqrt(2) x) the sums
    # become integrals over x in [1, 15]; T is the degree-4 Taylor polynomial
    # of exp (j <= 5).  The sums' error is c/sqrt(n), so 2 f(4n) - f(n)
    # estimates the limit.
    root2 = mp.sqrt(2)

    def taylor(y):
        return sum(y**i / mp.factorial(i) for i in range(5))

    e_limit = mp.quad(lambda x: x * mp.exp(-root2 * x) * taylor(x / root2), [1, 15]) / 4
    e1_limit = mp.exp(-root2) * mp.quad(
        lambda x: x * mp.exp(-(root2 + mp.mpf(1) / 4) * (x - 1)) * taylor(x / root2),
        [1, 15],
    ) / 4
    near, far = bounds_near_far
    for key, limit in (
        ("E_ratio", e_limit),
        ("E1_bound", e1_limit),
        ("lower", e_limit - e1_limit),
    ):
        assert abs(2 * far[key] - near[key] - float(limit)) < 1e-5


def test_tautology_bounds_rejects_tiny_n():
    with pytest.raises(ValueError):
        tautology_bounds(3)


@pytest.mark.parametrize("n", [4, 16, 100, 10**4])
def test_tautology_bounds_equal_the_term_by_term_sums(n):
    assert tautology_bounds(n) == _oracle_tautology_bounds(n)


@pytest.mark.parametrize("n", [100, 10**5])
def test_tautology_bounds_round_outward(n):
    # at n = 10^5 E2 lies below the smallest float
    sums, got = _oracle_tautology_sums(n), tautology_bounds(n)
    assert got["lower"] <= sums["lower"]
    assert got["E1_bound"] >= sums["E1_bound"]
    assert got["E2_bound"] >= sums["E2_bound"] > 0


def test_tautology_e2_bound_stays_positive_at_a_million():
    assert 0 < tautology_bounds(10**6)["E2_bound"] < 1e-300


@pytest.mark.parametrize(
    "x", ["1e-400", "3e-324", "1e-310", "0.1", "0.5", "1e300", "0", "-0.1", "-1e-400"]
)
def test_outward_float_is_the_nearest_float_on_its_side(x):
    value = Decimal(x)
    up, down = _float_up(value), _float_down(value)
    assert math.nextafter(up, -math.inf) < value <= up
    assert down <= value < math.nextafter(down, math.inf)



def test_tautology_bounds_keep_their_bits_at_the_largest_checked_n():
    # n = 4*10^6 is the far point of check 5d; the sums by parts there equal
    # the term-by-term sums at 300 bits, float for float
    n = 4 * 10**6
    assert tautology_bounds(n) == _oracle_tautology_bounds(n, prec=300)
