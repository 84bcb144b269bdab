"""Exact enumeration of stratified and/or trees by total node count.

Two independent coefficient computations are cross-checked on every call:

* a sequence dynamic program (a root takes an ordered sequence of >= 2
  opposite-rooted subtrees), and
* the recurrence read off the algebraic identity
  (z+1)*F^2 - (2nz+1)*F + 2nz = 0 satisfied by the rooted series.

A brute-force generator over all trees of a given size doubles as the
ground-truth oracle for small sizes.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

from .formula import AND, OR, AndOrTree, Leaf, Literal, Node, serialize

try:  # big-int convolutions are ~10x faster on gmpy2, but it stays optional
    from gmpy2 import mpz as _mpz
except ImportError:  # pragma: no cover - exercised only without gmpy2
    _mpz = int


class CountingError(RuntimeError):
    pass


class BudgetError(CountingError):
    pass


@dataclass(frozen=True)
class CountSeries:
    """Per-size exact tree counts for a fixed number of variables.

    a_hat[m]   : trees with a fixed root connective (leaves counted once),
    a_total[m] : all trees; a_total[m] = 2*a_hat[m] except at m = 1.
    Index 0 is a placeholder zero.
    """

    n: int
    max_size: int
    a_hat: Tuple[int, ...]
    a_total: Tuple[int, ...]


_series_cache: Dict[Tuple[int, int], CountSeries] = {}
_lock = threading.Lock()


def _sequence_dp(n: int, max_size: int) -> Tuple[List[int], List[int], List[int]]:
    """Return (a, r, q): tree counts, sequences of >= 1, sequences of >= 2.

    r[t] = a[t] + sum_{s<t} a[s] * r[t-s];  q[t] = r[t] - a[t];
    a[m] = 2n*[m=1] + q[m-1].
    """
    zero = _mpz(0)
    a = [zero] * (max_size + 1)
    r = [zero] * (max_size + 1)
    q = [zero] * (max_size + 1)
    for m in range(1, max_size + 1):
        a[m] = _mpz(2 * n) if m == 1 else q[m - 1]
        acc = a[m]
        for s in range(1, m):
            acc += a[s] * r[m - s]
        r[m] = acc
        q[m] = acc - a[m]
    return a, r, q


def _quadratic_recurrence(n: int, max_size: int) -> List[int]:
    """Coefficients from (z+1)F^2 - (2nz+1)F + 2nz = 0."""
    b = [_mpz(0)] * (max_size + 1)
    if max_size >= 1:
        b[1] = _mpz(2 * n)
    c_prev = _mpz(0)  # square-series coefficient at m-1
    for m in range(2, max_size + 1):
        c_here = _mpz(0)
        half = (m - 1) // 2
        for i in range(1, half + 1):
            c_here += b[i] * b[m - i]
        c_here *= 2
        if m % 2 == 0:
            c_here += b[m // 2] * b[m // 2]
        b[m] = c_here + c_prev - 2 * n * b[m - 1]
        c_prev = c_here
    return b


def series(n: int, max_size: int) -> CountSeries:
    """Exact counts up to max_size, cross-checked between two methods."""
    if n < 1 or max_size < 1:
        raise ValueError("need n >= 1 and max_size >= 1")
    key = (n, max_size)
    with _lock:
        hit = _series_cache.get(key)
    if hit is not None:
        return hit
    a, _r, _q = _sequence_dp(n, max_size)
    b = _quadratic_recurrence(n, max_size)
    if a != b:
        first = next(m for m in range(max_size + 1) if a[m] != b[m])
        raise CountingError(
            f"internal inconsistency: sequence DP and quadratic recurrence "
            f"disagree at m={first} for n={n}: {a[first]} != {b[first]}"
        )
    rooted = tuple(int(x) for x in a)
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
    n, M = cs.n, cs.max_size
    a = cs.a_hat
    res = [0] * (M + 1)
    sq = [0] * (M + 1)
    for i in range(1, M + 1):
        ai = a[i]
        if not ai:
            continue
        for j in range(1, M + 1 - i):
            sq[i + j] += ai * a[j]
    for m in range(M + 1):
        val = sq[m] + (sq[m - 1] if m >= 1 else 0)
        val -= a[m]
        val -= 2 * n * (a[m - 1] if m >= 1 else 0)
        if m == 1:
            val += 2 * n
        res[m] = val
    return res


# ---------------------------------------------------------------------------
# brute-force generation (the oracle)
# ---------------------------------------------------------------------------


#: default cap on |size class| for brute enumeration
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
        self.leaves: Tuple[AndOrTree, ...] = tuple(
            Leaf(Literal(v, neg))
            for v in range(1, n + 1)
            for neg in (False, True)
        )
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
