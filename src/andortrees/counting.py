"""Exact enumeration of stratified and/or trees by total node count.

The rooted series F satisfies (z+1)*F^2 - (2nz+1)*F + 2nz = 0.  Its counts
come from one three-term recurrence for the square root of the
discriminant, linear in the size, with every division checked as exact.
The tests check it against two independent O(M^2) methods, a sequence
dynamic program (a root takes an ordered sequence of >= 2 opposite-rooted
subtrees) and the convolution recurrence read off the quadratic itself;
``algebraic_residual`` checks the identity on any computed series.

A brute-force generator over all trees of a given size doubles as the
ground-truth oracle for small sizes.  It builds each size class in
`serialize` order from the candidate children of every smaller size, which
it keeps sorted by text: at each size the new trees come in text order, so
the sort merges two sorted runs.  In the text, '(' < 'x'
< '~' and "(and" < "(or"; the separators ' ' and ')' sort below any
character that could continue a literal or a node.  So text order is: the
root connective first, then the children compared one at a time, with a
sequence of children before its own prefix; leaves sort by their text.
Hence when the candidate children come in text order, the sequences listed
by first child and then by the rest come out in text order.
"""

from __future__ import annotations

import functools
from typing import Iterator, List, Tuple

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


@functools.lru_cache(maxsize=None)
def series(n: int, max_size: int) -> CountSeries:
    """Exact counts up to max_size."""
    if n < 1 or max_size < 1:
        raise ValueError("need n >= 1 and max_size >= 1")
    rooted = tuple(_rooted_counts(n, max_size))
    total = tuple(
        2 * rooted[m] - (2 * n if m == 1 else 0) if m else 0
        for m in range(max_size + 1)
    )
    return CountSeries(n=n, max_size=max_size, a_hat=rooted, a_total=total)


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


@functools.lru_cache(maxsize=None)
def _children(n: int, op: str, size: int) -> Tuple[Tuple[str, AndOrTree, int], ...]:
    """(text, tree, size) of every tree of size <= `size` that can be a child
    of an `op` node, in text order: the trees rooted at the other connective
    (texts open with '('), then the leaves.  Each size's new trees come in
    text order from `_runs`, so the sort merges two sorted runs."""
    if size < 3:
        return tuple(sorted((str(lit), Leaf(lit), 1) for lit in _literals(n)))
    other = OR if op == AND else AND
    grown = [Node(other, run) for run in _runs(n, other, size - 1) if len(run) > 1]
    pool = _children(n, op, size - 1) + tuple((serialize(t), t, size) for t in grown)
    return tuple(sorted(pool))


@functools.lru_cache(maxsize=None)
def _runs(n: int, op: str, total: int) -> Tuple[Tuple[AndOrTree, ...], ...]:
    """Every sequence of children of an `op` node whose sizes sum to `total`,
    in the text order of the sequences: by first child, then by the rest."""
    out: List[Tuple[AndOrTree, ...]] = []
    for _, child, size in _children(n, op, total):
        if size == total:
            out.append((child,))
        else:
            out += [(child,) + rest for rest in _runs(n, op, total - size)]
    return tuple(out)


def brute_enumerate(
    m: int, n: int, budget: int = DEFAULT_ENUMERATION_BUDGET
) -> Iterator[AndOrTree]:
    """Yield every valid tree of size exactly m over n variables, once each.

    The stream is in `serialize` order, so golden files stay stable: the
    and-rooted trees, then the or-rooted ones, each by their sequence of
    children (see the module docstring); it is built in that order and
    never sorted.  Raises BudgetError when the size class is larger than
    `budget`.
    """
    if m < 1 or n < 1:
        raise ValueError("need m >= 1 and n >= 1")
    expected = series(n, m).a_total[m]
    if expected > budget:
        raise BudgetError(
            f"size class m={m}, n={n} holds {expected} trees, over budget {budget}"
        )
    if m == 1:
        yield from (leaf for _, leaf, _ in _children(n, AND, 1))
    else:
        yield from (
            Node(op, run) for op in (AND, OR) for run in _runs(n, op, m - 1) if len(run) > 1
        )
