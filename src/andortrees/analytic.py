"""Singularity arithmetic and the limiting-ratio engine.

All generating functions of interest share one dominant square-root
singularity.  Its location and the rooted-series value there are exact
elements of Q(sqrt(2n)); the limiting ratio of a family given by a closed
form F(z, a, t) is

    1/2 * dF/da  +  tau' * dF/dt        evaluated at (radius, rooted_value),

because only derivative factors that blow up like the tree series survive
the coefficient ratio, the non-leaf and rooted series both contributing the
factor 1/2 and the tautology series contributing tau' (the limiting
probability of the constant True).

The derivative comes from one evaluation of F itself on order-1 truncated
power series (`powerseries.Series`, value plus derivative) over the same
field as the point: z = radius, a = rooted_value + e/2, t = t_value +
tau'*e with e^2 = 0, whose coefficient of e is the ratio.  Everything is
exact for t-free families; large-n sweeps and t-dependent families
switch to high-precision decimal floats (the standard library's `decimal`,
in a local context that leaves the caller's context as it was).
"""

from __future__ import annotations

import decimal
import math
from decimal import Decimal
from fractions import Fraction
from typing import Dict, Optional, Tuple, Union

from . import families
from .counting import series
from .families import Family
from .formula import Record
from .powerseries import Series
from .quadext import QuadExt


class SingularPoint(Record):
    """Exact data at the common dominant singularity for n variables."""

    # radius: smallest positive root of (4n^2-8n)z^2 - 4nz + 1
    # rooted_value: the rooted-tree series at the radius
    # nonleaf_value: rooted_value - 2n*radius
    __slots__ = ("n", "radius", "rooted_value", "nonleaf_value")

    def discriminant_residual(self) -> QuadExt:
        n, r = self.n, self.radius
        return (4 * n * n - 8 * n) * r * r - 4 * n * r + 1


def singularity(n: int) -> SingularPoint:
    """radius = 1 / (2(n + sqrt(2n))); the rooted series there equals
    (2n*radius + 1) / (2(radius + 1)) since the radical term vanishes."""
    if n < 1:
        raise ValueError("n must be >= 1")
    d = 2 * n
    root = QuadExt.sqrt_term(d)
    radius = QuadExt.rational(1, d) / (2 * (n + root))
    rooted = (2 * n * radius + 1) / (2 * (radius + 1))
    return SingularPoint(
        n=n,
        radius=radius,
        rooted_value=rooted,
        nonleaf_value=rooted - 2 * n * radius,
    )


_NEEDS_T_ENV = "family depends on t: supply env={'t_value': ..., 'tau_prime': ...}"


def _without_t(family: Family, z, a):
    """family(z, a, t) for a family that must not use t."""
    try:
        return family(z, a, None)
    except TypeError as exc:
        raise ValueError(_NEEDS_T_ENV) from exc


class PoleError(ZeroDivisionError):
    pass


#: limiting_ratio evaluates a t-free family exactly up to this n, in floats above
EXACT_MAX_N = 10_000

#: working precision of the float evaluations, in bits
_FLOAT_BITS = 200


def _decimal_context(bits: int) -> decimal.Context:
    """A decimal context with at least `bits` bits of precision and an
    exponent range wide enough never to underflow (e2 of `tautology_bounds`
    is about 1e-3479 at n = 4*10^6).  A fresh context: the caller's
    rounding and traps do not reach the result, and its flags stay as they
    were."""
    digits = math.ceil(bits * math.log10(2)) + 1
    return decimal.Context(prec=digits, Emin=decimal.MIN_EMIN, Emax=decimal.MAX_EMAX)


def limiting_ratio(
    family: Family, n: int, env: Optional[Dict[str, float]] = None
) -> Union[QuadExt, Decimal]:
    """Limiting ratio of the family with closed form `family(z, a, t)`.

    Without env the family must be t-free; it evaluates exactly in
    Q(sqrt(2n)) up to n = EXACT_MAX_N and in 200-bit decimal floats above,
    where the exact numbers grow too large to stay fast.  A family that uses
    t needs env entries t_value (the tautology series at the radius) and
    tau_prime (the limiting probability of True), and evaluates in 200-bit
    decimal floats.
    """
    point = singularity(n)
    if env is not None and ("t_value" not in env or "tau_prime" not in env):
        raise ValueError(_NEEDS_T_ENV)
    try:
        if env is None and n <= EXACT_MAX_N:
            return _exact_ratio(family, point)
        with decimal.localcontext(_decimal_context(_FLOAT_BITS)):
            z = Series.constant(point.radius.to_decimal(), 1)
            a = Series([point.rooted_value.to_decimal(), Decimal("0.5")], 1)
            if env is None:
                value = _without_t(family, z, a)
            else:
                t = Series([Decimal(env["t_value"]), Decimal(env["tau_prime"])], 1)
                value = family(z, a, t)
            return Decimal(value[1])
    except ZeroDivisionError as exc:
        raise PoleError(f"family has a pole at the singular point: {exc}") from exc


def _exact_ratio(family: Family, point: SingularPoint) -> QuadExt:
    """The limiting ratio of a t-free family in Q(sqrt(2n)), at any n."""
    z = Series.constant(point.radius, 1)
    a = Series([point.rooted_value, Fraction(1, 2)], 1)
    # + 0 puts an int or Fraction coefficient (a family that ignores a) in Q(sqrt(2n))
    return QuadExt.rational(0, 2 * point.n) + _without_t(family, z, a)[1]


def coefficient_ratio(family: Family, n: int) -> float:
    """Oracle: [z^400] of the family series over [z^400] of all trees.

    Only valid for t-free families (the tautology series has no closed form).
    """
    return _coefficient_ratios(family, n)[1]


def _coefficient_ratios(family: Family, n: int) -> Tuple[float, float]:
    """The family's share of all trees at sizes 200 and 400, both read off
    the one order-400 series (the 1/m terms of the two cancel in
    2 * r_400 - r_200)."""
    order = 400
    cs = series(n, order)
    rooted = Series(list(cs.a_hat), order)
    family_series = _without_t(family, Series.z(order), rooted)
    return tuple(
        float(Fraction(family_series[m]) / Fraction(cs.a_total[m])) for m in (order // 2, order)
    )


def default_t_env(n: int) -> Dict[str, float]:
    """Env for t-dependent families, from the exact distribution at n <= 3.

    tau_prime is the limit of the probability of True tail-averaged up to
    size 40, and t_value the partial sum of tautology counts up to size 40
    against the radius (a slight lower bound; the tail decays like
    m^(-3/2)).  For n > 3 the probability of True is only bracketed, so this
    raises ValueError rather than report a ratio with no error bound.
    """
    if n > 3:
        raise ValueError(
            f"no t-env at n={n}: for n > 3 the limiting probability of True is "
            "only bracketed in (0.12161, 0.5), so a t-dependent ratio would be a guess"
        )
    from .distribution import limit_estimate, tautology_count
    from .formula import TruthTable

    max_size = 40
    radius = float(singularity(n).radius)
    rep = limit_estimate(n, TruthTable.constant(n, True), M=max_size)
    t_val = sum(tautology_count(m, n) * radius ** m for m in range(1, max_size + 1))
    return {"t_value": t_val, "tau_prime": rep.estimate}


# -- derived quantities ------------------------------------------------------


def expected_first_level_leaves(n: int) -> QuadExt:
    """Exact large-size limit of the mean number of leaf children of the root."""
    return _exact_ratio(families.first_level_leaf_weight(n), singularity(n))


def first_level_leaf_law(n: int, j_max: int) -> list:
    """Exact limiting distribution of the number of first-level leaves,
    as floats, for j = 0..j_max.

    P(0) = radius * (1/(1-b)^2 - 1) and P(j) = (j+1) * radius * u^j /
    (1-b)^2 for j >= 1, with b the non-leaf value and u = 2n*radius/(1-b).
    The powers of u are a running product in 200-bit decimal floats, so
    each term is rounded to a float once; powers of rounded floats would
    lose about log10(j) digits at j ~ 40*sqrt(2n).
    """
    point = singularity(n)
    with decimal.localcontext(_decimal_context(_FLOAT_BITS)):
        radius = point.radius.to_decimal()
        inverse = 1 / (1 - point.nonleaf_value.to_decimal())
        u = 2 * n * radius * inverse
        term = radius * inverse * inverse  # radius * u^j / (1-b)^2
        out = [float(term - radius)]
        for j in range(1, j_max + 1):
            term *= u
            out.append(float(term * (j + 1)))
    return out


def nonleaf_partition_sum(n: int) -> QuadExt:
    """Exact sum of the corrected per-count limiting ratios over all counts.

    Counts up to 8 go through the engine one by one; the rest is the closed
    form of the geometric tail.  The total must be exactly 1.
    """
    explicit_up_to = 8
    point = singularity(n)
    total = QuadExt.rational(0, 2 * n)
    for count in range(explicit_up_to + 1):
        family = families.nonleaf_subtrees_corrected(n, count)
        total = total + _exact_ratio(family, point)
    # tail: sum_{l > explicit_up_to} radius * l * u^{l-1} / (1-2n radius)^2
    rho = point.radius
    b = point.nonleaf_value
    one = QuadExt.rational(1, 2 * n)
    denom = one - 2 * n * rho
    u = b / denom
    L = explicit_up_to + 1
    tail_core = (u ** (L - 1)) * (L - (L - 1) * u) / (one - u) ** 2
    total = total + rho / denom ** 2 * tail_core
    return total


# -- the numeric tautology-ratio bounds ---------------------------------------


def _sum_by_parts(q, degree: int, x, lo: int, hi: int):
    """sum_{k=lo}^{hi} x^(k-lo) q(k) for a polynomial q of the given degree,
    as Q(lo) - x^(hi+1-lo) Q(hi+1) with Q = (1-x)^-1 sum_{i<=degree}
    (x/(1-x))^i Delta^i q: summation by parts (Graham, Knuth & Patashnik,
    *Concrete Mathematics*, 2.6).  O(degree^2) operations for any range."""
    r = x / (1 - x)

    def big_q(k):  # Delta^i q(k) off the difference table of q(k..k+degree)
        row, total = [q(k + i) for i in range(degree + 1)], 0
        for i in range(degree + 1):
            total += r**i * row[0]
            row = [right - left for left, right in zip(row, row[1:])]
        return total / (1 - x)

    return big_q(lo) - x ** (hi + 1 - lo) * big_q(hi + 1)


def tautology_bounds(n: int) -> Dict[str, float]:
    """Numeric lower bound on the limiting ratio of simple tautologies.

    Sums the limiting ratios of three explicit tree families over
    k in [k_lo, k_hi] = [floor(sqrt(n)), 15*floor(sqrt(n))] and
    j in 1..j_max = 1..5:

      E_ratio  — or-rooted trees with k leaf children and j non-leaf subtrees,
                 position factor (k+1)^j / j!;
      E1_bound — the subfamily whose rightmost labels avoid the negations of
                 the leftmost-label set when that set is large;
      E2_bound — the same with a small leftmost-label set;
      lower    = E_ratio - E1_bound - E2_bound.

    Each sum over k is a degree-5 polynomial times x^k, x = w or base1,
    taken in closed form by `_sum_by_parts`.  Its (1-x)^-6 factor amplifies
    rounding by up to 6*log2(1 + sqrt(n/2)) bits (1/(1-w) = 1 + sqrt(n/2),
    and base1 < w), so the sums run at max(200, 64 + 6*ceil(log2(1 +
    sqrt(n/2)))) bits and keep at least 64 correct bits (about 147 at
    n = 4*10^6).  The floats round outward: the two upper bounds up
    (E2_bound is below the smallest float from about n = 10^5 on and reads
    as 5e-324), ``lower`` down, ``E_ratio`` to nearest.
    """
    if n < 4:
        raise ValueError("the bound families need floor(sqrt(n)) >= 2")
    prec = max(_FLOAT_BITS, 64 + 6 * math.ceil(math.log2(1 + math.sqrt(n / 2))))
    s = math.isqrt(n)
    point = singularity(n)
    with decimal.localcontext(_decimal_context(prec)):
        rho = point.radius.to_decimal()
        b = point.nonleaf_value.to_decimal()
        w = 2 * n * rho
        base1 = (2 * n - Decimal(n).sqrt() / 2) * rho

        def q(y: int) -> Decimal:  # sum_{j<=5} y^j b^(j-1) / (j-1)!
            return y * sum((b * y) ** i / math.factorial(i) for i in range(5))

        def total(x, shift: int) -> Decimal:  # sum_k x^(k-s) q(k + shift)
            return _sum_by_parts(q, 5, x, s + shift, 15 * s + shift)

        e_ratio = rho / 2 * w**s * total(w, 1)
        e1 = rho / 2 * w**s * total(base1, 5)
        e2 = (
            rho / 2
            * math.comb(n, s // 2)
            * Decimal(2).sqrt() ** s
            * (Decimal(n).sqrt() / 2 * rho) ** s
            * total(w, 5)
        )
        return {
            "lower": _float_down(e_ratio - e1 - e2),
            "E_ratio": float(e_ratio),
            "E1_bound": _float_up(e1),
            "E2_bound": _float_up(e2),
        }


def _float_up(x: Decimal) -> float:
    """The smallest float >= x.  float(x) rounds to nearest, and to 0.0 below
    the smallest subnormal (E2_bound from n ~ 10^5 on), so step up from it."""
    f = float(x)
    while f < x:
        f = math.nextafter(f, math.inf)
    return f


def _float_down(x: Decimal) -> float:
    """The largest float <= x."""
    f = float(x)
    while f > x:
        f = math.nextafter(f, -math.inf)
    return f


#: leading asymptotic terms, (expression, value at n and the family's
#: parameters), read by the CLI `analyze` output, checks 4a-4d and
#: scripts/asymptotics_table.py
ASYMPTOTIC_REFERENCE = {
    "no_first_level_leaf": ("1/(n*sqrt(2n))", lambda n, **kw: 1.0 / (n * math.sqrt(2 * n))),
    "labels_from": ("gamma*sqrt(2/n)", lambda n, gamma: gamma * math.sqrt(2.0 / n)),
    "exact_k_labels": ("O(k/n)", lambda n, k: k / n),
    "nonleaf_subtrees": (
        "ell/2^(ell+1)",
        lambda n, ell: ell / 2.0 ** (ell + 1),
    ),
    "nonleaf_subtrees_corrected": (
        "ell/2^(ell+1)",
        lambda n, ell: ell / 2.0 ** (ell + 1),
    ),
    "R_family": ("exp(-sqrt(2))/8", lambda n, **kw: math.exp(-math.sqrt(2)) / 8),
    "expected_first_level_leaves": ("2*sqrt(2n)", lambda n, **kw: 2.0 * math.sqrt(2 * n)),
}
