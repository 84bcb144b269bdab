"""Verification harness: every reproduction check behind `verify`, shared by
the CLI and the acceptance test suite.

Each check returns a CheckResult; a criterion may consist of several checks.
Two checks pin constants that are limits as n grows, and each compares the
quantity its measurement actually estimates:

* 5d: the derived simple-tautology lower bound is 0.12161 only in the limit;
  at n = 1e6 the sums give 0.120356, an O(1/sqrt(n)) error of 1.27e-3.  The
  check extrapolates the sums at n and 4n in 1/sqrt(n),
  2 f(4n) - f(n) = 0.1216222, which is 2e-7 from the limiting integral.
* 10b: sampled first-level-leaf counts at n = 100 estimate the exact
  limiting law at n = 100, which sits at KS distance 0.0478 from its
  n -> infinity Gamma(2, 1/2) limit.  The sample is tested against the exact
  law with the KS distance for a discrete law, and the exact law's distance
  to Gamma, which falls like 0.5/sqrt(n), is computed without sampling and
  must be within the same critical value at n = 1e6.

Check 3 meets the same gap in the size m: a family's share of the size-400
trees is its m -> infinity limit plus a kappa/m term, up to 1.7 % of it, so
check 3 only bounds that share within 2 %.  Check 3b reads the shares at
sizes 200 and 400 off the same series and compares the extrapolated
2 r(400) - r(200), in which the 1/m terms cancel, within 0.2 %.

See the README's known-limits section.
"""

from __future__ import annotations

import math
import random
import time
from collections import Counter
from fractions import Fraction
from typing import Callable, Dict, List

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
from .complexity import full_table, minimal_trees, slots_and_bounds
from .counting import algebraic_residual, brute_enumerate, series
from .distribution import function_counts, limit_estimate
from .formula import Draw, Record, TruthTable, encode, literal_mask
from .sampler import (
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


def _check(check_id: str, criterion: int, name: str, fn: Callable[[], Dict]) -> CheckResult:
    start = time.perf_counter()
    detail = fn()
    passed = bool(detail.pop("passed"))
    return CheckResult(
        check_id=check_id,
        criterion=criterion,
        name=name,
        passed=passed,
        seconds=round(time.perf_counter() - start, 3),
        detail=detail,
    )


# -- criterion 1: exact counting ---------------------------------------------


def criterion_1() -> List[CheckResult]:
    def brute_match():
        mismatches = []
        for n in (1, 2):
            cs = series(n, 8)
            for m in range(1, 9):
                got = sum(1 for _ in brute_enumerate(m, n))
                if got != cs.a_total[m]:
                    mismatches.append((n, m, got, cs.a_total[m]))
        return {"passed": not mismatches, "mismatches": mismatches}

    def residual():
        bad = {}
        for n in (1, 2, 3):
            res = algebraic_residual(series(n, 400))
            nz = [m for m, v in enumerate(res) if v]
            if nz:
                bad[n] = nz[:5]
        return {"passed": not bad, "nonzero_orders": bad}

    return [
        _check("1a", 1, "series counts equal brute enumeration (n<=2, m<=8)", brute_match),
        _check("1b", 1, "algebraic residual vanishes through order 400 (n=1..3)", residual),
    ]


# -- criterion 2: singularity exactness ---------------------------------------


def criterion_2() -> List[CheckResult]:
    def discriminants():
        bad = [n for n in range(1, 101) if not singularity(n).discriminant_residual().is_zero()]
        return {"passed": not bad, "nonzero_at": bad}

    def n2_values():
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

    return [
        _check("2a", 2, "discriminant residual is exactly zero for n=1..100", discriminants),
        _check("2b", 2, "n=2 exact values 1/8, 2/3, 1/6", n2_values),
    ]


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


def criterion_3() -> List[CheckResult]:
    extrapolated = []  # check 3b's rows, filled by check 3's loop

    def agree():
        rows = []
        worst = 0.0
        for n in (1, 2, 3):
            for name, family in _oracle_families(n):
                engine = float(limiting_ratio(family, n))
                half, oracle = _coefficient_ratios(family, n)
                rel = abs(oracle / engine - 1.0)
                worst = max(worst, rel)
                rows.append({"n": n, "family": name, "engine": engine, "oracle": oracle, "rel": rel})
                limit = 2 * oracle - half
                limit_rel = abs(limit / engine - 1.0)
                extrapolated.append({"n": n, "family": name, "extrapolated": limit, "rel": limit_rel})
        return {"passed": worst <= 0.02, "worst_rel": worst, "rows": rows}

    def richardson():
        worst = max(row["rel"] for row in extrapolated)
        return {"passed": worst <= 2e-3, "worst_rel": worst, "rows": extrapolated}

    return [
        _check("3", 3, "engine matches coefficient ratio at order 400 within 2%", agree),
        _check("3b", 3, "engine matches extrapolated 2 r(400) - r(200) within 0.2%", richardson),
    ]


# -- criterion 4: large-n asymptotics -----------------------------------------


def criterion_4() -> List[CheckResult]:
    n = LARGE_N

    def near(name: str, value: float, tol: float, **params) -> Dict:
        """`value` against the leading-order term of `name` at n."""
        target = ASYMPTOTIC_REFERENCE[name][1](n, **params)
        rel = abs(value / target - 1.0)
        return {"passed": rel <= tol, "value": value, "target": target, "rel": rel}

    def noleaf():
        value = float(limiting_ratio(families.no_first_level_leaf(n), n))
        return near("no_first_level_leaf", value, 0.01)

    def leaves():
        return near("expected_first_level_leaves", float(expected_first_level_leaves(n)), 0.005)

    def big_l():
        rows = []
        for ell in (1, 2, 3):
            value = float(limiting_ratio(families.nonleaf_subtrees(n, ell), n))
            rows.append({"ell": ell, **near("nonleaf_subtrees", value, 0.01, ell=ell)})
        passed = [row.pop("passed") for row in rows]
        return {"passed": all(passed), "rows": rows}

    def r_family():
        return near("R_family", float(limiting_ratio(families.R_family(n), n)), 0.01)

    return [
        _check("4a", 4, "no-first-level-leaf ratio ~ 1/(n sqrt(2n)) at n=1e6 (1%)", noleaf),
        _check("4b", 4, "mean first-level leaves ~ 2 sqrt(2n) at n=1e6 (0.5%)", leaves),
        _check("4c", 4, "exactly-ell non-leaf subtrees ~ ell/2^(ell+1) at n=1e6 (1%)", big_l),
        _check("4d", 4, "left-leaf family ratio ~ exp(-sqrt(2))/8 at n=1e6 (1%)", r_family),
    ]


# -- criterion 5: numeric tautology bounds ------------------------------------


def criterion_5() -> List[CheckResult]:
    n = LARGE_N

    # each check computes its own sums (milliseconds each), so its seconds are its own
    def e_ratio():
        value = tautology_bounds(n)["E_ratio"]
        err = abs(value - 0.36618)
        return {"passed": err <= 1e-3, "value": value, "target": 0.36618, "abs_err": err}

    def e1():
        value = tautology_bounds(n)["E1_bound"]
        err = abs(value - 0.24457)
        return {"passed": err <= 1e-3, "value": value, "target": 0.24457, "abs_err": err}

    def e2():
        value = tautology_bounds(n)["E2_bound"]
        return {"passed": value < 1e-3, "value": value}

    def lower():
        # 0.12161 is the n -> infinity limit of the sums, whose error is
        # c/sqrt(n); extrapolating n and 4n in 1/sqrt(n) cancels it
        near, far = tautology_bounds(n)["lower"], tautology_bounds(4 * n)["lower"]
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

    return [
        _check("5a", 5, "E_ratio within 1e-3 of 0.36618 at n=1e6", e_ratio),
        _check("5b", 5, "E1_bound within 1e-3 of 0.24457 at n=1e6", e1),
        _check("5c", 5, "E2_bound below 1e-3 at n=1e6", e2),
        _check("5d", 5, "derived lower bound from n=1e6, 4e6 extrapolated to within 1e-3 of 0.12161", lower),
    ]


# -- criterion 6: constant-function bracket ------------------------------------


def criterion_6() -> List[CheckResult]:
    def bracket():
        rows = []
        ok = True
        for n in (1, 2, 3):
            true_f = TruthTable.constant(n, True)
            rep = limit_estimate(n, true_f, M=60, tol=1e-4)
            inside = 0.12 < rep.estimate < 0.5
            ok = ok and rep.converged and inside
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

    def true_false_equal():
        bad = []
        for n in (1, 2, 3):
            full = (1 << (1 << n)) - 1
            for m in range(1, 61):
                table = function_counts(m, n)
                if table.total(full) != table.total(0):
                    bad.append((n, m))
        return {"passed": not bad, "mismatches": bad}

    return [
        _check("6a", 6, "limit estimate of True converged in (0.12, 0.5) at M=60 (n=1..3)", bracket),
        _check("6b", 6, "P(True) equals P(False) exactly at every size (n=1..3)", true_false_equal),
    ]


# -- criterion 7: partition of unity -------------------------------------------


def criterion_7() -> List[CheckResult]:
    def partition():
        rows = {}
        ok = True
        for n in (1, 2, 5, 10):
            total = nonleaf_partition_sum(n)
            rows[n] = str(total)
            ok = ok and total == 1
        return {"passed": ok, "sums": rows}

    return [
        _check("7", 7, "corrected non-leaf-count ratios sum to exactly 1", partition)
    ]


# -- criterion 8: complexity golden table --------------------------------------


def criterion_8() -> List[CheckResult]:
    def golden():
        table = full_table(2)
        by_hex = {rec.f.to_hex(): rec for rec in table}
        xor_hex = format(0b0110, "x")
        xor_ok = by_hex[xor_hex].L == 7
        expected_L = {"0": 0, "f": 0, "3": 2, "5": 2, "a": 2, "c": 2, "6": 7, "9": 7}
        l_ok = all(by_hex[h].L == L for h, L in expected_L.items())
        others_ok = all(
            rec.L == 3
            for hex_, rec in by_hex.items()
            if hex_ not in expected_L
        )
        bounds_ok = all(
            slots_and_bounds(w, 2)["check"]
            for rec in table
            if rec.L >= 3
            for w in minimal_trees(rec.f, 2)
        )
        return {
            "passed": xor_ok and l_ok and others_ok and bounds_ok,
            "xor_L": by_hex[xor_hex].L,
            "xor_m_f": by_hex[xor_hex].m_f,
            "table": {h: r.L for h, r in sorted(by_hex.items())},
            "slot_bounds_hold": bounds_ok,
        }

    return [
        _check("8", 8, "n=2 complexity table with XOR at 7 and slot bounds", golden)
    ]


# -- criterion 9: probability vs complexity trend -------------------------------


def criterion_9() -> List[CheckResult]:
    def trend():
        rows = []
        ok = True
        for n in (2, 3):
            conj = TruthTable(
                n, literal_mask(1, False, n) & literal_mask(2, False, n)
            )
            true_f = TruthTable.constant(n, True)
            est_conj = limit_estimate(n, conj, M=60).estimate
            est_true = limit_estimate(n, true_f, M=60).estimate
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

    return [
        _check("9", 9, "limit of x1 AND x2 dominates its expansion lower bound (n=2,3)", trend)
    ]


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


def criterion_10() -> List[CheckResult]:
    def uniformity():
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

    def ks_gamma():
        n = 100
        report = monte_carlo(
            2000, n, KS_TRIALS, SEED_KS, ["first_level_leaf_histogram"]
        )
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

    def rates_and_gap():
        small = monte_carlo(
            1000, 5, GAP_TRIALS, SEED_GAP_SMALL,
            ["tautology_rate", "simple_tautology_rate"],
        )
        large = monte_carlo(
            1000, 50, GAP_TRIALS, SEED_GAP_LARGE,
            ["tautology_rate", "simple_tautology_rate"],
        )
        results = {}
        order_ok = True
        for label, rep in (("n=5", small), ("n=50", large)):
            taut = rep.stats["tautology_rate"].estimate
            simple = rep.stats["simple_tautology_rate"].estimate
            order_ok = order_ok and simple <= taut
            results[label] = {"tautology": taut, "simple": simple, "gap": taut - simple}
        gap_small = results["n=5"]["gap"]
        gap_large = results["n=50"]["gap"]
        se = math.sqrt(max(gap_large * (1 - gap_large), 1e-12) / GAP_TRIALS)
        upper = gap_large + 1.959964 * se
        return {
            "passed": order_ok and upper < gap_small,
            "rates": results,
            "gap_large_ci95_upper": upper,
            "order_ok": order_ok,
        }

    checks = [
        _check("10a", 10, "sampler uniformity chi-square at m=3, n=1 (1% level)", uniformity),
        _check("10b", 10, "first-level leaves: KS vs exact law at n=100, exact law vs Gamma(2,1/2) at n=1e6 (1% level)", ks_gamma),
        _check("10c", 10, "simple-tautology rate <= tautology rate and gap shrinks 5 -> 50", rates_and_gap),
    ]
    return checks


SUITES: Dict[str, List[Callable[[], List[CheckResult]]]] = {
    "exact": [criterion_1, criterion_2, criterion_6, criterion_7, criterion_8, criterion_9],
    "asymptotic": [criterion_3, criterion_4, criterion_5],
    "montecarlo": [criterion_10],
}
SUITES["all"] = SUITES["exact"] + SUITES["asymptotic"] + SUITES["montecarlo"]


def run_suite(name: str) -> List[CheckResult]:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return [result for criterion in SUITES[name] for result in criterion()]
