"""Verification harness: every reproduction check behind `verify`, shared by
the CLI and the acceptance test suite.

`CHECKS` declares each check once, as a row (check_id, criterion, name,
function); the function returns the check's detail with a "passed" entry,
and a criterion may consist of several checks.  `SUITES` names the criteria
each suite runs.  Checks 3 and 3b compare limits in the size m, and checks
5d and 10b limits in n, each with the quantity its measurement actually
estimates: the README's "Known numerical limits" section says why and gives
the measured values.
"""

from __future__ import annotations

import functools
import math
import random
import time
from collections import Counter
from fractions import Fraction
from typing import Callable, Dict, List, Tuple

from . import families
from .analytic import (
    ASYMPTOTIC_REFERENCE,
    _coefficient_ratios,
    expected_first_level_leaves,
    first_level_leaf_law,
    limiting_ratio,
    nonleaf_partition_sum,
    singularity,
    tautology_bounds,
)
from .complexity import _slot_counts, full_table
from .counting import algebraic_residual, brute_enumerate, series
from .distribution import function_counts, limit_estimate
from .formula import Draw, Record, TruthTable, encode, literal_mask
from .sampler import (
    _frequency_stat,
    chi_square_critical,
    gamma_two_half_cdf,
    get_context,
    ks_critical,
    ks_discrete,
    monte_carlo,
)

SEED_UNIFORMITY = 2025_0301
SEED_KS = 2025_0302
SEED_GAP_SMALL = 2025_0303
SEED_GAP_LARGE = 2025_0304

#: n of the large-n checks of criteria 4 and 5
LARGE_N = 10**6
#: trees drawn by checks 10a, 10b and each side of 10c
CHI2_TRIALS = 100_000
KS_TRIALS = 10_000
GAP_TRIALS = 10_000


class CheckResult(Record):
    __slots__ = ("check_id", "criterion", "name", "passed", "seconds", "detail")
    _defaults = {"detail": dict}

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.check_id} {self.name}"


# -- criterion 1: exact counting ---------------------------------------------


def brute_counts() -> Dict:
    mismatches = []
    for n in (1, 2):
        cs = series(n, 8)
        for m in range(1, 9):
            got = sum(1 for _ in brute_enumerate(m, n))
            if got != cs.a_total[m]:
                mismatches.append((n, m, got, cs.a_total[m]))
    return {"passed": not mismatches, "mismatches": mismatches}


def algebraic_residuals() -> Dict:
    bad = {}
    for n in (1, 2, 3):
        res = algebraic_residual(series(n, 400))
        nz = [m for m, v in enumerate(res) if v]
        if nz:
            bad[n] = nz[:5]
    return {"passed": not bad, "nonzero_orders": bad}


# -- criterion 2: singularity exactness ---------------------------------------


def discriminants() -> Dict:
    bad = [n for n in range(1, 101) if not singularity(n).discriminant_residual().is_zero()]
    return {"passed": not bad, "nonzero_at": bad}


def n2_values() -> Dict:
    point = singularity(2)
    ok = (
        point.radius == Fraction(1, 8)
        and point.rooted_value == Fraction(2, 3)
        and point.nonleaf_value == Fraction(1, 6)
    )
    return {
        "passed": ok,
        "radius": str(point.radius),
        "rooted_value": str(point.rooted_value),
        "nonleaf_value": str(point.nonleaf_value),
    }


# -- criterion 3: engine vs coefficient oracle --------------------------------


def _oracle_families(n: int):
    fams = [("no_first_level_leaf", families.no_first_level_leaf(n))]
    for gamma in range(1, min(2 * n, 2) + 1):
        fams.append((f"labels_from({gamma})", families.labels_from(n, gamma)))
    for k in range(1, n + 1):
        fams.append((f"exact_k_labels({k})", families.exact_k_labels(n, k)))
    for ell in (1, 2, 3):
        fams.append((f"nonleaf_subtrees({ell})", families.nonleaf_subtrees(n, ell)))
    fams.append(("R_family", families.R_family(n)))
    return fams


@functools.lru_cache(maxsize=None)
def _ratio_rows() -> Tuple[Tuple[int, str, float, float, float], ...]:
    """(n, family, engine, r_200, r_400) for each oracle family at n = 1..3:
    its limiting ratio and its shares of the size-200 and size-400 trees,
    read off one order-400 series.  Checks 3 and 3b read the same rows, so
    the series are computed once, in whichever of the two runs first."""
    return tuple(
        (n, name, float(limiting_ratio(family, n)), *_coefficient_ratios(family, n))
        for n in (1, 2, 3)
        for name, family in _oracle_families(n)
    )


def engine_vs_coefficients() -> Dict:
    rows = [
        {"n": n, "family": name, "engine": engine, "oracle": r400, "rel": abs(r400 / engine - 1.0)}
        for n, name, engine, _, r400 in _ratio_rows()
    ]
    worst = max(row["rel"] for row in rows)
    return {"passed": worst <= 0.02, "worst_rel": worst, "rows": rows}


def engine_vs_extrapolation() -> Dict:
    rows = []
    for n, name, engine, r200, r400 in _ratio_rows():
        limit = 2 * r400 - r200
        rel = abs(limit / engine - 1.0)
        rows.append({"n": n, "family": name, "extrapolated": limit, "rel": rel})
    worst = max(row["rel"] for row in rows)
    return {"passed": worst <= 2e-3, "worst_rel": worst, "rows": rows}


# -- criterion 4: large-n asymptotics -----------------------------------------


def _near(name: str, value: float, tol: float, **params) -> Dict:
    """`value` against the leading-order term of `name` at LARGE_N."""
    target = ASYMPTOTIC_REFERENCE[name][1](LARGE_N, **params)
    rel = abs(value / target - 1.0)
    return {"passed": rel <= tol, "value": value, "target": target, "rel": rel}


def no_leaf_ratio() -> Dict:
    value = float(limiting_ratio(families.no_first_level_leaf(LARGE_N), LARGE_N))
    return _near("no_first_level_leaf", value, 0.01)


def mean_leaves() -> Dict:
    return _near("expected_first_level_leaves", float(expected_first_level_leaves(LARGE_N)), 0.005)


def nonleaf_subtree_ratios() -> Dict:
    rows = []
    for ell in (1, 2, 3):
        value = float(limiting_ratio(families.nonleaf_subtrees(LARGE_N, ell), LARGE_N))
        rows.append({"ell": ell, **_near("nonleaf_subtrees", value, 0.01, ell=ell)})
    passed = [row.pop("passed") for row in rows]
    return {"passed": all(passed), "rows": rows}


def left_leaf_ratio() -> Dict:
    return _near("R_family", float(limiting_ratio(families.R_family(LARGE_N), LARGE_N)), 0.01)


# -- criterion 5: numeric tautology bounds ------------------------------------
# each check computes its own sums (milliseconds each), so its seconds are its own


def e_ratio() -> Dict:
    value = tautology_bounds(LARGE_N)["E_ratio"]
    err = abs(value - 0.36618)
    return {"passed": err <= 1e-3, "value": value, "target": 0.36618, "abs_err": err}


def e1_bound() -> Dict:
    value = tautology_bounds(LARGE_N)["E1_bound"]
    err = abs(value - 0.24457)
    return {"passed": err <= 1e-3, "value": value, "target": 0.24457, "abs_err": err}


def e2_bound() -> Dict:
    value = tautology_bounds(LARGE_N)["E2_bound"]
    return {"passed": value < 1e-3, "value": value}


def derived_lower_bound() -> Dict:
    # 0.12161 is the n -> infinity limit of the sums, whose error is
    # c/sqrt(n); extrapolating n and 4n in 1/sqrt(n) cancels it
    near, far = tautology_bounds(LARGE_N)["lower"], tautology_bounds(4 * LARGE_N)["lower"]
    value = 2 * far - near
    err = abs(value - 0.12161)
    return {
        "passed": err <= 1e-3,
        "value": value,
        "target": 0.12161,
        "abs_err": err,
        "lower_at_n": near,
        "lower_at_4n": far,
    }


# -- criterion 6: constant-function bracket ------------------------------------


def true_bracket() -> Dict:
    rows = []
    ok = True
    for n in (1, 2, 3):
        rep = limit_estimate(n, TruthTable.constant(n, True), M=60, tol=1e-4)
        ok = ok and rep.converged and 0.12 < rep.estimate < 0.5
        rows.append(
            {
                "n": n,
                "estimate": rep.estimate,
                "converged": rep.converged,
                "odd_tail": rep.odd_tail,
                "even_tail": rep.even_tail,
            }
        )
    return {"passed": ok, "rows": rows}


def true_false_symmetry() -> Dict:
    bad = []
    for n in (1, 2, 3):
        full = (1 << (1 << n)) - 1
        for m in range(1, 61):
            table = function_counts(m, n)
            if table.total(full) != table.total(0):
                bad.append((n, m))
    return {"passed": not bad, "mismatches": bad}


# -- criterion 7: partition of unity -------------------------------------------


def partition_of_unity() -> Dict:
    sums = {n: nonleaf_partition_sum(n) for n in (1, 2, 5, 10)}
    return {
        "passed": all(total == 1 for total in sums.values()),
        "sums": {n: str(total) for n, total in sums.items()},
    }


# -- criterion 8: complexity golden table --------------------------------------


def complexity_table_n2() -> Dict:
    table = full_table(2)
    by_hex = {rec.f.to_hex(): rec for rec in table}
    xor_hex = format(0b0110, "x")
    expected_L = {"0": 0, "f": 0, "3": 2, "5": 2, "a": 2, "c": 2, "6": 7, "9": 7}
    l_ok = all(by_hex[h].L == L for h, L in expected_L.items())
    others_ok = all(rec.L == 3 for hex_, rec in by_hex.items() if hex_ not in expected_L)
    minimal = [rec for rec in table if rec.L >= 3]
    counted = zip(minimal, _slot_counts(2, minimal))  # no tree listed
    bounds_ok = all(r.L <= min(slots) and max(slots) <= (3 * r.L) // 2 for r, slots in counted)
    return {
        "passed": by_hex[xor_hex].L == 7 and l_ok and others_ok and bounds_ok,
        "xor_L": by_hex[xor_hex].L,
        "xor_m_f": by_hex[xor_hex].m_f,
        "table": {h: r.L for h, r in sorted(by_hex.items())},
        "slot_bounds_hold": bounds_ok,
    }


# -- criterion 9: probability vs complexity trend -------------------------------


def expansion_bound() -> Dict:
    rows = []
    ok = True
    for n in (2, 3):
        conj = TruthTable(n, literal_mask(1, False, n) & literal_mask(2, False, n))
        est_conj = limit_estimate(n, conj, M=60).estimate
        est_true = limit_estimate(n, TruthTable.constant(n, True), M=60).estimate
        radius = float(singularity(n).radius)
        lower_bound = 2 * 3 * radius**3 * est_true  # m_f * L * radius^L * tau'
        ok = ok and est_conj >= lower_bound
        rows.append(
            {
                "n": n,
                "estimate": est_conj,
                "expansion_lower_bound": lower_bound,
                "ratio": est_conj / lower_bound,
            }
        )
    return {"passed": ok, "rows": rows}


# -- criterion 10: Monte Carlo statistical suite --------------------------------


def _leaf_law(n: int) -> list:
    """Exact limiting first-level-leaf law at n, out to 20 times the scale
    2*sqrt(2n); the mass beyond is below 1e-12."""
    return first_level_leaf_law(n, int(40 * math.sqrt(2 * n)))


def _leaf_law_gamma_distance(n: int) -> float:
    """KS distance between the exact limiting law at n, scaled by
    2*sqrt(2n), and Gamma(2, 1/2): the law's step CDF against the Gamma CDF
    on both sides of every jump."""
    scale = 2 * math.sqrt(2 * n)
    cdf = 0.0
    worst = 0.0
    for j, p in enumerate(_leaf_law(n)):
        g = gamma_two_half_cdf(j / scale)
        worst = max(worst, abs(cdf - g))
        cdf += p
        worst = max(worst, abs(cdf - g))
    return worst


def uniformity() -> Dict:
    # each tree counted by its draw, the lists as tuples
    def key(drawn: Draw) -> tuple:
        root_and, word, leaves = drawn
        return root_and, tuple(word), tuple(leaves)

    support = [key(encode(t, 1)) for t in brute_enumerate(3, 1)]
    ctx = get_context(1, 3)
    rng = random.Random(SEED_UNIFORMITY)
    counts = Counter(key(ctx.draw(3, rng)) for _ in range(CHI2_TRIALS))
    expected = CHI2_TRIALS / len(support)
    stat = sum((counts.get(s, 0) - expected) ** 2 / expected for s in support)
    crit = chi_square_critical(0.01, len(support) - 1)
    return {
        "passed": stat < crit,
        "chi2": stat,
        "critical_1pct": crit,
        "df": len(support) - 1,
        "trials": CHI2_TRIALS,
    }


def leaf_law_ks() -> Dict:
    n = 100
    report = monte_carlo(2000, n, KS_TRIALS, SEED_KS, ["first_level_leaf_histogram"])
    extra = report.stats["first_level_leaf_histogram"].extra
    crit = ks_critical(0.01, KS_TRIALS)
    # the sample estimates the exact law at n; that law reaches the Gamma
    # limit only as n grows, so the Gamma fit is checked exactly at large n
    stat = ks_discrete(extra["histogram"], _leaf_law(n))
    gamma = {size: _leaf_law_gamma_distance(size) for size in (n, 10**4, 10**6)}
    return {
        "passed": stat < crit and gamma[10**6] < crit,
        "ks_vs_exact_law": stat,
        "critical_1pct": crit,
        "exact_law_ks_vs_gamma": gamma,
        "sample_ks_vs_gamma": extra["ks_statistic"],
        "mean_scaled": extra["mean"] / extra["scale"],
        "trials": KS_TRIALS,
    }


def tautology_gap() -> Dict:
    stats = ["tautology_rate", "simple_tautology_rate"]
    results = {}
    order_ok = True
    for label, n, seed in (("n=5", 5, SEED_GAP_SMALL), ("n=50", 50, SEED_GAP_LARGE)):
        rep = monte_carlo(1000, n, GAP_TRIALS, seed, stats)
        taut = rep.stats["tautology_rate"].estimate
        simple = rep.stats["simple_tautology_rate"].estimate
        order_ok = order_ok and simple <= taut
        results[label] = {"tautology": taut, "simple": simple, "gap": taut - simple}
    # the gap counts the trees that are tautologies but not simple ones
    gap_hits = round(results["n=50"]["gap"] * GAP_TRIALS)
    upper = _frequency_stat(gap_hits, GAP_TRIALS).ci95[1]
    return {
        "passed": order_ok and upper < results["n=5"]["gap"],
        "rates": results,
        "gap_large_ci95_upper": upper,
        "order_ok": order_ok,
    }


CHECKS: Tuple[Tuple[str, int, str, Callable[[], Dict]], ...] = (
    ("1a", 1, "series counts equal brute enumeration (n<=2, m<=8)", brute_counts),
    ("1b", 1, "algebraic residual vanishes through order 400 (n=1..3)", algebraic_residuals),
    ("2a", 2, "discriminant residual is exactly zero for n=1..100", discriminants),
    ("2b", 2, "n=2 exact values 1/8, 2/3, 1/6", n2_values),
    ("3", 3, "engine matches coefficient ratio at order 400 within 2%", engine_vs_coefficients),
    ("3b", 3, "engine matches extrapolated 2 r(400) - r(200) within 0.2%", engine_vs_extrapolation),
    ("4a", 4, "no-first-level-leaf ratio ~ 1/(n sqrt(2n)) at n=1e6 (1%)", no_leaf_ratio),
    ("4b", 4, "mean first-level leaves ~ 2 sqrt(2n) at n=1e6 (0.5%)", mean_leaves),
    ("4c", 4, "exactly-ell non-leaf subtrees ~ ell/2^(ell+1) at n=1e6 (1%)", nonleaf_subtree_ratios),
    ("4d", 4, "left-leaf family ratio ~ exp(-sqrt(2))/8 at n=1e6 (1%)", left_leaf_ratio),
    ("5a", 5, "E_ratio within 1e-3 of 0.36618 at n=1e6", e_ratio),
    ("5b", 5, "E1_bound within 1e-3 of 0.24457 at n=1e6", e1_bound),
    ("5c", 5, "E2_bound below 1e-3 at n=1e6", e2_bound),
    ("5d", 5, "derived lower bound from n=1e6, 4e6 extrapolated to within 1e-3 of 0.12161", derived_lower_bound),
    ("6a", 6, "limit estimate of True converged in (0.12, 0.5) at M=60 (n=1..3)", true_bracket),
    ("6b", 6, "P(True) equals P(False) exactly at every size (n=1..3)", true_false_symmetry),
    ("7", 7, "corrected non-leaf-count ratios sum to exactly 1", partition_of_unity),
    ("8", 8, "n=2 complexity table with XOR at 7 and slot bounds", complexity_table_n2),
    ("9", 9, "limit of x1 AND x2 dominates its expansion lower bound (n=2,3)", expansion_bound),
    ("10a", 10, "sampler uniformity chi-square at m=3, n=1 (1% level)", uniformity),
    ("10b", 10, "first-level leaves: KS vs exact law at n=100, exact law vs Gamma(2,1/2) at n=1e6 (1% level)", leaf_law_ks),
    ("10c", 10, "simple-tautology rate <= tautology rate and gap shrinks 5 -> 50", tautology_gap),
)

SUITES: Dict[str, Tuple[int, ...]] = {
    "exact": (1, 2, 6, 7, 8, 9),
    "asymptotic": (3, 4, 5),
    "montecarlo": (10,),
}
SUITES["all"] = SUITES["exact"] + SUITES["asymptotic"] + SUITES["montecarlo"]


def run_check(check_id: str, criterion: int, name: str, function: Callable[[], Dict]) -> CheckResult:
    """One row of CHECKS, run and timed."""
    start = time.perf_counter()
    detail = function()
    passed = bool(detail.pop("passed"))
    return CheckResult(
        check_id=check_id,
        criterion=criterion,
        name=name,
        passed=passed,
        seconds=round(time.perf_counter() - start, 3),
        detail=detail,
    )


def run_suite(name: str) -> List[CheckResult]:
    """The checks of the suite's criteria, in the suite's criterion order."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return [run_check(*row) for criterion in SUITES[name] for row in CHECKS if row[1] == criterion]
