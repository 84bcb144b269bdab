import math
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import pytest

from andortrees.counting import (
    BudgetError,
    algebraic_residual,
    brute_enumerate,
    series,
)
from andortrees.formula import encode, serialize, tree_size, truth_table
from oracles import _oracle_brute_enumerate


def _sequence_dp(n, max_size):
    """Tree counts a[0..max_size] by the sequence DP: a root takes an ordered
    sequence of >= 2 opposite-rooted subtrees.  With r[t] the sequences of
    >= 1 subtrees of total size t, r[t] = a[t] + sum_{s<t} a[s] * r[t-s],
    and a[m] = 2n*[m=1] + r[m-1] - a[m-1]."""
    a = [0] * (max_size + 1)
    r = [0] * (max_size + 1)
    for m in range(1, max_size + 1):
        a[m] = 2 * n if m == 1 else r[m - 1] - a[m - 1]
        r[m] = a[m] + sum(a[s] * r[m - s] for s in range(1, m))
    return a


def _quadratic_recurrence(n, max_size):
    """Tree counts a[0..max_size] read off (z+1)F^2 - (2nz+1)F + 2nz = 0:
    a[m] = c[m] + c[m-1] - 2n*a[m-1] for m >= 2, with c the square series."""
    a = [0] * (max_size + 1)
    if max_size >= 1:
        a[1] = 2 * n
    c_prev = 0  # square-series coefficient at m-1
    for m in range(2, max_size + 1):
        c_here = sum(a[i] * a[m - i] for i in range(1, m))
        a[m] = c_here + c_prev - 2 * n * a[m - 1]
        c_prev = c_here
    return a


@pytest.mark.parametrize("n", [1, 2, 3, 4, 100])
def test_series_matches_both_quadratic_time_oracles(n):
    want = _sequence_dp(n, 400)
    assert _quadratic_recurrence(n, 400) == want
    cs = series(n, 400)
    assert list(cs.a_hat) == want
    assert cs.a_total == tuple(
        2 * a - (2 * n if m == 1 else 0) for m, a in enumerate(want)
    )
    for M in (1, 2, 3):
        assert list(series(n, M).a_hat) == want[: M + 1]


def test_small_counts_n1():
    cs = series(1, 8)
    assert cs.a_total[1:5] == (2, 0, 8, 16)


def test_size_two_is_empty_for_any_n():
    for n in (1, 2, 5, 9):
        assert series(n, 4).a_total[2] == 0
        assert list(brute_enumerate(2, n)) == []


def test_root_plus_two_leaves():
    assert series(2, 3).a_total[3] == 2 * (2 * 2) ** 2


def test_rooted_vs_total_relation():
    cs = series(3, 30)
    for m in range(2, 31):
        assert cs.a_total[m] == 2 * cs.a_hat[m]
    assert cs.a_total[1] == cs.a_hat[1] == 6


def test_brute_matches_series():
    for n in (1, 2):
        cs = series(n, 8)
        for m in range(1, 9):
            assert sum(1 for _ in brute_enumerate(m, n)) == cs.a_total[m]


def test_brute_leaves():
    trees = list(brute_enumerate(1, 1))
    assert {serialize(t) for t in trees} == {"x1", "~x1"}
    assert len(list(brute_enumerate(3, 1))) == 8


def test_brute_trees_are_valid_and_distinct():
    seen = set()
    for tree in brute_enumerate(6, 2):
        encode(tree, 2)  # every variable in range
        assert tree_size(tree) == 6
        s = serialize(tree)
        assert s not in seen
        seen.add(s)


def test_brute_is_sorted_by_serialisation():
    forms = [serialize(t) for t in brute_enumerate(5, 2)]
    assert forms == sorted(forms)


@pytest.mark.parametrize("n, top", [(1, 9), (2, 7), (3, 6), (4, 5)])
def test_brute_matches_the_sorted_composition_oracle(n, top):
    # every size class of at most 30,000 trees, tree for tree and in order
    for m in range(1, top + 1):
        assert list(brute_enumerate(m, n)) == _oracle_brute_enumerate(m, n)


def test_brute_budget():
    with pytest.raises(BudgetError):
        list(brute_enumerate(9, 2, budget=1000))


def test_algebraic_residual_vanishes():
    for n in (1, 2, 3):
        assert not any(algebraic_residual(series(n, 400)))


def test_monotone_growth():
    for n in (1, 2, 3):
        cs = series(n, 60)
        for m in range(3, 59):
            assert cs.a_total[m + 2] > cs.a_total[m]


def test_ratio_approaches_inverse_radius():
    for n in (1, 2, 3):
        cs = series(n, 400)
        ratio = cs.a_total[400] / cs.a_total[399]
        target = 2 * (n + math.sqrt(2 * n))
        assert abs(ratio / target - 1) < 0.01


def test_series_cache_is_thread_safe():
    with ThreadPoolExecutor(max_workers=4) as pool:
        results = list(pool.map(lambda _: series(2, 200).a_total[200], range(8)))
    assert len(set(results)) == 1
    assert series(2, 200) is series(2, 200)


def test_function_multiset_of_size_class():
    # every size-3 tree over one variable computes one of the four functions
    counts = Counter(truth_table(t, 1).to_hex() for t in brute_enumerate(3, 1))
    assert counts == {"3": 2, "0": 2, "2": 2, "1": 2}
