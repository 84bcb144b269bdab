"""Acceptance suite: one test per verification sub-check, each printing its
PASS/FAIL line (run pytest with -s or check the captured output).

Two checks pin constants that are limits as n grows; each compares the
quantity its measurement actually estimates, with its tolerance, n, seed
and trial count as first stated:

* 5d: the derived simple-tautology lower bound is 0.12161 only as
  n -> infinity; its error is c/sqrt(n), 1.266e-3 at n = 10^6 (0.120356).
  The check extrapolates the sums at 10^6 and 4*10^6 in 1/sqrt(n),
  2 f(4e6) - f(1e6) = 0.1216222, and asks for 0.12161 +- 1e-3.
* 10b: 10^4 trees at m = 2000, n = 100 estimate the exact limiting law at
  n = 100, which sits at KS distance 0.0478 from its Gamma(2,1/2) limit.
  The sample is tested against the exact law with the discrete-law KS
  distance (0.0076 against the 1% critical value 0.0163), and the exact
  law's distance to Gamma (0.0478, 0.0053, 0.00054 at n = 100, 1e4, 1e6) must
  be below the same critical value at n = 1e6.

The measured values are in each check's detail and in the README's
known-limits section.
"""

import pytest

from andortrees.verify import (
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
    criterion_10,
)

_cached = {}


def _run(criterion_fn):
    if criterion_fn not in _cached:
        _cached[criterion_fn] = {r.check_id: r for r in criterion_fn()}
    return _cached[criterion_fn]


def _assert_check(criterion_fn, check_id):
    result = _run(criterion_fn)[check_id]
    print(result.line())
    assert result.passed, f"{result.name}: {result.detail}"


# 1. exact counting oracle -------------------------------------------------------


def test_c1a_series_equals_brute_enumeration():
    _assert_check(criterion_1, "1a")


def test_c1b_algebraic_residual_vanishes_to_order_400():
    _assert_check(criterion_1, "1b")


# 2. singularity exactness -------------------------------------------------------


def test_c2a_discriminant_zero_n_1_to_100():
    _assert_check(criterion_2, "2a")


def test_c2b_exact_values_at_n2():
    _assert_check(criterion_2, "2b")


# 3. limiting-ratio engine vs coefficients ----------------------------------------


def test_c3_engine_matches_coefficient_ratios_within_2pct():
    _assert_check(criterion_3, "3")


def test_c3b_engine_matches_extrapolated_coefficient_ratios_within_0_2pct():
    _assert_check(criterion_3, "3b")


# 4. large-n asymptotics -----------------------------------------------------------


def test_c4a_no_first_level_leaf_asymptotics():
    _assert_check(criterion_4, "4a")


def test_c4b_expected_first_level_leaves_asymptotics():
    _assert_check(criterion_4, "4b")


def test_c4c_nonleaf_subtree_count_asymptotics():
    _assert_check(criterion_4, "4c")


def test_c4d_left_leaf_family_asymptotics():
    _assert_check(criterion_4, "4d")


# 5. numeric simple-tautology bounds ------------------------------------------------


def test_c5a_e_ratio_constant():
    _assert_check(criterion_5, "5a")


def test_c5b_e1_bound_constant():
    _assert_check(criterion_5, "5b")


def test_c5c_e2_bound_negligible():
    _assert_check(criterion_5, "5c")


def test_c5d_derived_lower_bound_constant():
    # 0.12161 is the n -> infinity limit; the sums at 1e6 and 4e6 are
    # extrapolated in 1/sqrt(n) (0.1216222), see the module docstring
    _assert_check(criterion_5, "5d")


# 6. constant-function bracket --------------------------------------------------------


def test_c6a_limit_estimates_converge_in_bracket():
    _assert_check(criterion_6, "6a")


def test_c6b_true_false_symmetry_exact():
    _assert_check(criterion_6, "6b")


# 7. partition of unity -----------------------------------------------------------------


def test_c7_partition_of_unity_exact():
    _assert_check(criterion_7, "7")


# 8. complexity golden table -------------------------------------------------------------


def test_c8_complexity_table_and_slot_bounds():
    _assert_check(criterion_8, "8")


# 9. probability vs complexity trend ------------------------------------------------------


def test_c9_expansion_lower_bound_bracket():
    _assert_check(criterion_9, "9")


# 10. Monte Carlo suite ---------------------------------------------------------------------


@pytest.fixture(scope="module")
def mc_results():
    return {r.check_id: r for r in criterion_10()}


def test_c10a_sampler_uniformity_chi_square(mc_results):
    result = mc_results["10a"]
    print(result.line())
    assert result.passed, result.detail


def test_c10b_first_level_leaf_ks_vs_gamma(mc_results):
    # the sample is tested against the exact law at n=100 (the law is 0.0478
    # from Gamma there); the Gamma limit is checked exactly at n=1e6
    result = mc_results["10b"]
    print(result.line())
    assert result.passed, result.detail


def test_c10c_rates_ordered_and_gap_shrinks(mc_results):
    result = mc_results["10c"]
    print(result.line())
    assert result.passed, result.detail
