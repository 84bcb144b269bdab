"""Exact enumeration of stratified and/or trees by total node count.

The rooted series F satisfies (z+1)*F^2 - (2nz+1)*F + 2nz = 0.  Its counts
come from one three-term recurrence for the square root of the
discriminant, linear in the size, with every division checked as exact.
The tests check it against two independent O(M^2) methods, a sequence
dynamic program (a root takes an ordered sequence of >= 2 opposite-rooted
subtrees) and the convolution recurrence read off the quadratic itself;
``algebraic_residual`` checks the identity on any computed series.

A brute-force generator over all trees of a given size doubles as the
ground-truth oracle for small sizes.
"""

from __future__ import annotations

import itertools
import threading
from typing import Dict, Iterator, List, Tuple

from .formula import AND, OR, AndOrTree, Leaf, Node, Record, _literals, serialize


class CountingError(RuntimeError):
    pass


class BudgetError(CountingError):
    pass


class CountSeries(Record):
    """Per-size exact tree counts for a fixed number of variables.

    a_hat[m]   : trees with a fixed root connective (leaves counted once),
    a_total[m] : all trees; a_total[m] = 2*a_hat[m] except at m = 1.
    Index 0 is a placeholder zero.
    """

    __slots__ = ("n", "max_size", "a_hat", "a_total")


_series_cache: Dict[Tuple[int, int], CountSeries] = {}
_lock = threading.Lock()


def _rooted_counts(n: int, max_size: int) -> List[int]:
    """Rooted counts a[0..max_size] from the square root of the discriminant.

    Solving (z+1)F^2 - (2nz+1)F + 2nz = 0 gives 2(z+1)F = 2nz + 1 - G with
    G = sqrt(D), D = (4n^2-8n)z^2 - 4nz + 1.  From 2*D*G' = D'*G,
    (m+1)g[m+1] = 2n(2m-1)g[m] - (4n^2-8n)(m-2)g[m-1], g[0] = 1,
    g[1] = -2n; then a[1] = 2n and a[m] = -g[m]/2 - a[m-1] for m >= 2.
    Both divisions are exact for integer counts, and checked.
    """
    c = 4 * n * n - 8 * n
    a = [0] * (max_size + 1)
    a[1] = 2 * n
    g_prev, g = 1, -2 * n  # g[m-1], g[m]
    for m in range(1, max_size):
        g_next, rem = divmod(2 * n * (2 * m - 1) * g - c * (m - 2) * g_prev, m + 1)
        half, odd = divmod(g_next, 2)
        if rem or odd:
            raise CountingError(
                f"internal inconsistency: inexact division at m={m + 1} for n={n}"
            )
        a[m + 1] = -half - a[m]
        g_prev, g = g, g_next
    return a


def series(n: int, max_size: int) -> CountSeries:
    """Exact counts up to max_size."""
    if n < 1 or max_size < 1:
        raise ValueError("need n >= 1 and max_size >= 1")
    key = (n, max_size)
    with _lock:
        hit = _series_cache.get(key)
    if hit is not None:
        return hit
    rooted = tuple(_rooted_counts(n, max_size))
    total = tuple(
        2 * rooted[m] - (2 * n if m == 1 else 0) if m else 0
        for m in range(max_size + 1)
    )
    result = CountSeries(n=n, max_size=max_size, a_hat=rooted, a_total=total)
    with _lock:
        _series_cache[key] = result
    return result


def algebraic_residual(cs: CountSeries) -> List[int]:
    """Coefficients of (z+1)F^2 - (2nz+1)F + 2nz through the series order.

    All entries must be zero; exposed so the verification harness can assert it.
    """
    from .powerseries import Series  # loaded only by the callers that check

    F, z = Series(cs.a_hat, cs.max_size), Series.z(cs.max_size)
    two_nz = 2 * cs.n * z
    return ((z + 1) * (F * F) - (two_nz + 1) * F + two_nz).coeffs


# ---------------------------------------------------------------------------
# brute-force generation (the oracle)
# ---------------------------------------------------------------------------


#: default cap on the trees listed: a size class by brute_enumerate, the
#: minimal trees of a function by complexity.minimal_trees
DEFAULT_ENUMERATION_BUDGET = 2_000_000


def _compositions(total: int, parts_at_least: int) -> Iterator[Tuple[int, ...]]:
    """Ordered compositions of `total` into >= parts_at_least positive parts."""
    def rec(remaining: int, parts: int) -> Iterator[Tuple[int, ...]]:
        if parts == 1:
            yield (remaining,)
            return
        for first in range(1, remaining - parts + 2):
            for rest in rec(remaining - first, parts - 1):
                yield (first,) + rest

    for k in range(parts_at_least, total + 1):
        yield from rec(total, k)


class _TreeEnumerator:
    """Memoised recursive enumeration of all trees by (size, root constraint)."""

    def __init__(self, n: int):
        self.n = n
        self.leaves: Tuple[AndOrTree, ...] = tuple(map(Leaf, _literals(n)))
        # (size, op) -> tuple of trees rooted exactly at `op`
        self._rooted: Dict[Tuple[int, str], Tuple[AndOrTree, ...]] = {}

    def rooted(self, size: int, op: str) -> Tuple[AndOrTree, ...]:
        key = (size, op)
        hit = self._rooted.get(key)
        if hit is not None:
            return hit
        out: List[AndOrTree] = []
        if size >= 3:
            child_op = OR if op == AND else AND
            for sizes in _compositions(size - 1, 2):
                pools = [self.child_pool(s, child_op) for s in sizes]
                if all(pools):
                    for combo in itertools.product(*pools):
                        out.append(Node(op, combo))
        result = tuple(out)
        self._rooted[key] = result
        return result

    def child_pool(self, size: int, op: str) -> Tuple[AndOrTree, ...]:
        """Trees usable as a child under the opposite connective: leaves or op-rooted."""
        if size == 1:
            return self.leaves
        return self.rooted(size, op)

    def all_trees(self, size: int) -> List[AndOrTree]:
        if size == 1:
            return list(self.leaves)
        return list(self.rooted(size, AND)) + list(self.rooted(size, OR))


_enumerators: Dict[int, _TreeEnumerator] = {}


def _enumerator(n: int) -> _TreeEnumerator:
    enum = _enumerators.get(n)
    if enum is None:
        enum = _enumerators[n] = _TreeEnumerator(n)
    return enum


def brute_enumerate(
    m: int, n: int, budget: int = DEFAULT_ENUMERATION_BUDGET
) -> Iterator[AndOrTree]:
    """Yield every valid tree of size exactly m over n variables, once each.

    The stream is sorted lexicographically by canonical serialisation so
    golden files stay stable.  Raises BudgetError when the size class is
    larger than `budget`.
    """
    if m < 1 or n < 1:
        raise ValueError("need m >= 1 and n >= 1")
    expected = series(n, m).a_total[m]
    if expected > budget:
        raise BudgetError(
            f"size class m={m}, n={n} holds {expected} trees, over budget {budget}"
        )
    if expected == 0:
        return
    trees = _enumerator(n).all_trees(m)
    if len(trees) != expected:  # defensive: generation must match the series
        raise CountingError(
            f"enumeration produced {len(trees)} trees, series says {expected}"
        )
    trees.sort(key=serialize)
    yield from trees
