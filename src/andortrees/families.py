"""Closed-form families of trees as functions of z, a, t.

Each catalog entry takes n and the family's parameters and returns a plain
Python function F(z, a, t) of
  z : the size variable,
  a : the rooted-tree series evaluated at z,
  t : the tautology series evaluated at z (no closed form; supplied a value).
b = a - 2nz stands for the series of rooted trees that are not single leaves.

F uses only +, -, *, / and non-negative integer powers, with int constants,
so the same function evaluates in every domain that has them: exact elements
of Q(sqrt(2n)) at the singular point, high-precision floats, and truncated
power series over any of those.  High-order series are the coefficient
oracle; order-1 series carry the derivatives that the limiting-ratio rule
needs.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict

#: a family's closed form F(z, a, t)
Family = Callable[[Any, Any, Any], Any]


def no_first_level_leaf(n: int) -> Family:
    """Trees whose root has only non-leaf subtrees: 2z b^2 / (1-b)."""

    def family(z, a, t):
        b = a - 2 * n * z
        return 2 * z * b**2 / (1 - b)

    return family


def labels_from(n: int, gamma: int) -> Family:
    """Trees with >= 1 first-level leaf drawn from a fixed set of gamma literals.

    2*gamma*z^2 / ((1-(a-gamma z))(1-a)) - 2*gamma*z^2, the subtraction removing
    the two-node degenerate sequences.
    """
    if not 1 <= gamma <= 2 * n:
        raise ValueError(f"gamma must be in 1..{2*n}")
    return lambda z, a, t: (
        2 * gamma * z**2 / ((1 - (a - gamma * z)) * (1 - a)) - 2 * gamma * z**2
    )


def exact_k_labels(n: int, k: int) -> Family:
    """Trees with exactly k distinct literal labels among first-level leaves,
    no variable together with its negation.

    binom(n,k) 2^k k! z^{k+1} * prod_{i=0}^{k} 1/(1 - i z - b): the root and the
    k first occurrences carry z^{k+1}, with k+1 gap sequences of already-seen
    labels or non-leaf subtrees.
    """
    if not 1 <= k <= n:
        raise ValueError(f"k must be in 1..{n}")
    coeff = math.comb(n, k) * (2**k) * math.factorial(k)

    def family(z, a, t):
        b = a - 2 * n * z
        value = coeff * z ** (k + 1)
        for i in range(k + 1):
            value = value / (1 - i * z - b)
        return value

    return family


def nonleaf_subtrees(n: int, ell: int) -> Family:
    """Trees whose root has exactly `ell` non-leaf subtrees:
    2z b^ell / (1-2nz)^{ell+1} (degenerate sequences included)."""
    if ell < 0:
        raise ValueError("ell must be >= 0")
    return lambda z, a, t: 2 * z * (a - 2 * n * z) ** ell / (1 - 2 * n * z) ** (ell + 1)


def nonleaf_subtrees_corrected(n: int, ell: int) -> Family:
    """nonleaf_subtrees with the degenerate sequences subtracted and, at
    ell = 0, single-leaf trees added, so the counts partition all trees."""
    base = nonleaf_subtrees(n, ell)
    if ell == 0:
        # remove the bare root and the arity-1 single-leaf child; add leaves
        return lambda z, a, t: base(z, a, t) - 2 * z - 2 * z * (2 * n * z) + 2 * n * z
    if ell == 1:
        # remove the arity-1 single-subtree child
        return lambda z, a, t: base(z, a, t) - 2 * z * (a - 2 * n * z)
    return base


def R_family(n: int) -> Family:
    """Or-rooted trees whose floor(sqrt(n)) leftmost children are leaves,
    followed by one non-leaf subtree somewhere among further leaf children:
    z (2nz)^s b / (1-2nz)^2 with s = floor(sqrt(n))."""
    s = math.isqrt(n)
    return lambda z, a, t: z * (2 * n * z) ** s * (a - 2 * n * z) / (1 - 2 * n * z) ** 2


def simple_x(n: int) -> Family:
    """Two-child trees made of one literal leaf and one constant subtree: 4z^2 t."""
    return lambda z, a, t: 4 * z**2 * t


def check_family(n: int, k: int) -> Family:
    """Or-rooted trees with k distinct-label leaf children and all non-leaf
    subtrees contradictions: binom(n,k) 2^k k! z^{k+1} / (1-t)^{k+1}."""
    if not 1 <= k <= n:
        raise ValueError(f"k must be in 1..{n}")
    coeff = math.comb(n, k) * (2**k) * math.factorial(k)
    return lambda z, a, t: coeff * z ** (k + 1) / (1 - t) ** (k + 1)


def first_level_leaf_weight(n: int) -> Family:
    """d/du of the bivariate series marking first-level leaves, at u=1:
    8nz^2 a/(1-a) + 4nz^2 a^2/(1-a)^2."""
    return lambda z, a, t: (
        8 * n * z**2 * a / (1 - a) + 4 * n * z**2 * a**2 / (1 - a) ** 2
    )


def first_level_leaves_exactly(n: int, j: int) -> Family:
    """Trees with exactly j leaf children at the root (arity >= 2 respected)."""
    if j < 0:
        raise ValueError("j must be >= 0")
    if j == 0:
        return no_first_level_leaf(n)
    if j == 1:
        return lambda z, a, t: 2 * z * (2 * n * z) * (1 / (1 - (a - 2 * n * z)) ** 2 - 1)
    return lambda z, a, t: 2 * z * (2 * n * z) ** j / (1 - (a - 2 * n * z)) ** (j + 1)


#: catalog exposed to the CLI: name -> builder taking n and the `--params` names
CATALOG: Dict[str, Callable[..., Family]] = {
    builder.__name__: builder
    for builder in (
        no_first_level_leaf,
        labels_from,
        exact_k_labels,
        nonleaf_subtrees,
        nonleaf_subtrees_corrected,
        R_family,
        simple_x,
        check_family,
        first_level_leaves_exactly,
    )
}

#: catalog families whose closed form uses t, so their limiting ratio needs
#: values for the tautology series and the limiting probability of True
T_DEPENDENT = frozenset({"simple_x", "check_family"})
