"""Exact finite-size distribution over Boolean functions.

Per size m and function f we count, with exact big integers, the trees of
size m computing f, split by root connective.  The recurrence follows the
grammar: a root of one connective takes an ordered sequence (length >= 2) of
opposite-rooted subtrees, the function combining by AND (resp. OR) along the
sequence.

Only or-rooted counts are computed.  Swapping every connective and negating
every leaf maps the and-rooted trees computing f one-to-one onto the
or-rooted trees computing not-f, so the and-rooted count of f is the
or-rooted count at ``full ^ f``: the OR layer read in reverse.

OR-combination of function tables diagonalises under the subset-sum (zeta)
transform.  With X[m] the zeta transform of the size-m AND layer, the
sequences of >= 1 and-rooted children of total size m have transform
S[m] = X[m] + sum_{i<m} S[i] * X[m-i] (pointwise products), those of >= 2
children Q[m] = S[m] - X[m], and the size-(m+1) OR layer is the Möbius
transform of Q[m].

The group B_n of variable permutations and input negations (order
2^n * n!) maps the trees computing f one-to-one onto the trees computing
the transformed f, and it permutes the 2^n assignment points, so it commutes
with OR, with both transforms and with complementation.  Every layer is
therefore constant on B_n-orbits of truth-table masks (3, 6, 22 and 402
orbits at n = 1..4), and the engine keeps each quantity as one list over the
orbits, indexed by orbit id, orbits numbered in the order of their smallest
masks, the representatives.  On orbits the zeta transform is
(Zv)[F] = sum_O c(F, O) * v[O] with c(F, O) = #{G in O : G within F}, and
complementation is a permutation of the orbits.  Z is unit lower triangular
in orbit-id order, so the Möbius transform is a forward substitution on the
same entries.  The engine keeps Z by columns without its diagonal: zeta
adds each nonzero v[O] along column O, Möbius subtracts each nonzero
solution entry along its column, and both touch only the nonzero entries of
a layer (few at small sizes: 1, 0, 3, 4, 6, 8, 15 and 21 of the 402 orbits
at n = 4, m = 1..8).

The orbit ids, the representatives and the columns of Z are fixed data for
each n <= HARD_MAX_VARS.  They ship with the package in ``tables/``, written
by ``scripts/write_bn_tables.py`` from the independent oracles of the
tests, and are read, never computed, at run time: the orbit table when an
engine is made, the columns when it grows its first layer.  Counts are
checked in the tests against brute-force enumeration, against an
independent per-mask computation of both connectives and against the
full-vector engine this one replaced.

``prob``, ``prob_ge``, ``tautology_count`` and ``limit_estimate`` read
one orbit entry per size; ``prob_ge`` reads its superset sums off the zeta
layers X and S.  ``function_counts`` and ``exact_distribution`` expand a
layer to one entry per mask.  ``_trees`` lists the trees computing a mask,
top down from the OR layers and in `serialize` order, for ``complexity``:
each as its children, each next to its text, so one pass gives trees and
texts.
"""

from __future__ import annotations

import marshal
import os
import sys
import threading
from array import array
from fractions import Fraction
from itertools import compress
from operator import add, itemgetter, mul, sub
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .counting import series
from .formula import AND, OR, AndOrTree, Leaf, Node, Record, TruthTable, _literals
from .formula import literal_masks

HARD_MAX_VARS = 4


class DistributionError(RuntimeError):
    pass


class CountTable(Record):
    """Exact per-function counts of size-m trees, split by root connective.

    and_rooted[f] / or_rooted[f] are indexed by the truth-table bit mask;
    single leaves appear in both (a leaf is a degenerate tree of either root
    type in the grammar), so the total count of trees computing f is
    and_rooted[f] + or_rooted[f] minus the double-counted leaf at m = 1.
    """

    __slots__ = ("n", "m", "and_rooted", "or_rooted")

    def total(self, mask: int) -> int:
        return _total(self.or_rooted, self.m, mask, (len(self.or_rooted) - 1) ^ mask)


def _total(or_layer: Sequence[int], m: int, f: int, not_f: int) -> int:
    """Trees of size m computing f, read from the size-m OR layer alone.

    f and not_f index the layer at f and at its complement (masks, or orbit
    ids of an orbit layer): the and-rooted count of f is the or-rooted count
    of not-f.  At m = 1 both counts are the same leaf, counted once.
    """
    total = or_layer[f]
    if m > 1:
        total += or_layer[not_f]
    return total


class Distribution(Record):
    __slots__ = ("n", "m", "probabilities")  # probabilities: mask -> exact probability


class LimitReport(Record):
    __slots__ = (
        "n", "f_hex", "M", "estimate", "converged", "odd_tail", "even_tail", "tol", "window",
    )


# ---------------------------------------------------------------------------
# B_n-orbits of truth-table masks and the transforms restricted to them
# ---------------------------------------------------------------------------


#: the shipped orbit and zeta-incidence files, written by
#: scripts/write_bn_tables.py
_TABLES_DIR = os.path.join(os.path.dirname(__file__), "tables")


def _read_table(name: str) -> bytes:
    path = os.path.join(_TABLES_DIR, name)
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except FileNotFoundError:
        raise DistributionError(
            f"missing table file {path}; rebuild the tables with "
            "`PYTHONPATH=src python scripts/write_bn_tables.py` in the source tree"
        ) from None


def _load_orbits(n: int) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """(orbit id of every mask, smallest mask of every orbit) at n, orbits
    numbered in the order of their smallest masks, read from
    ``tables/orbits_n<n>.marshal``.

    The file is a marshal tuple (orbit, reps) of two tuples.  Every mask of
    an orbit holds the same int object, which marshal writes once and then
    references, so the loaded id tuple holds one object per orbit.  It is
    also the engine's only copy of the table, as ``itemgetter(*orbit)``
    keeps an exact tuple of its items as it is and copies a list: an
    ``_Engine(4)`` keeps 0.548 MB live, against 1.073 MB when the ids were a
    list (tracemalloc, CPython 3.11).
    """
    orbit, reps = marshal.loads(_read_table(f"orbits_n{n}.marshal"))
    return orbit, reps


#: column O of the zeta incidence: (orbit ids F != O, counts c(F, O) > 0)
_Columns = List[Tuple[Sequence[int], Sequence[int]]]


def _load_columns(n: int) -> _Columns:
    """Columns of the zeta incidence on orbits at n, the diagonal left out,
    read from ``tables/zeta_n<n>.bin`` by an engine as it grows its first
    layer.

    c(F, O) is the number of masks of orbit O within the representative of
    F; column O lists the orbits F != O with c(F, O) > 0, ids ascending, and
    those counts, as two `array('H')`.  The diagonal c(O, O) is 1: the masks
    of an orbit share one popcount, and the only submask of a mask with its
    popcount is the mask itself.  The file is little-endian 16-bit words:
    the number N of orbits, the length k_O of each column, then per column
    its k_O ids followed by its k_O counts.
    """
    words = array("H", _read_table(f"zeta_n{n}.bin"))
    if sys.byteorder == "big":
        words.byteswap()
    size = words[0]
    columns = []
    at = 1 + size
    for k in words[1 : 1 + size]:
        columns.append((words[at : at + k], words[at + k : at + 2 * k]))
        at += 2 * k
    return columns


def _zeta(columns: _Columns, v: List[int]) -> List[int]:
    """(Zv)[F] = sum_O c(F, O) * v[O]: v, plus each nonzero v[O] added
    along column O."""
    r = list(v)
    for x, (ids, coeffs) in zip(v, columns):
        if x:
            for f, c in zip(ids, coeffs):
                r[f] += c * x
    return r


def _mobius(columns: _Columns, q: Iterable[int]) -> List[int]:
    """The r with Zr = q, by forward substitution.

    A proper submask is a smaller number, and a representative is the
    smallest mask of its orbit, so c(F, O) > 0 with F != O means O < F: in
    orbit-id order Z is unit lower triangular.  Going up the ids, r[O] is
    final once every smaller orbit is done, and a nonzero r[O] is then
    subtracted along column O.
    """
    r = list(q)
    for o, (ids, coeffs) in enumerate(columns):
        x = r[o]
        if x:
            for f, c in zip(ids, coeffs):
                r[f] -= c * x
    return r


# ---------------------------------------------------------------------------
# the per-n engine, grown one size layer at a time
# ---------------------------------------------------------------------------


class _Engine:
    """or_layers[m], X[m] and S[m] of the module docstring, for m >= 1, each
    a list over the B_n-orbits.

    Index 0 (there are no trees of size 0) holds None.  Each process grows
    its own engines, from size 1 up.  The orbit table is read when the
    engine is made, the zeta columns when it grows its first layer, so an
    engine that only hands out its orbit ids (``_orbit_ids``) never reads
    the columns.
    """

    def __init__(self, n: int):
        self.n = n
        self.orbit, self.reps = _load_orbits(n)
        full = len(self.orbit) - 1
        #: comp[o] is the orbit of the complements of orbit o's masks
        self.comp = tuple(self.orbit[full ^ rep] for rep in self.reps)
        #: maps an orbit list to the tuple of its values at every mask; it
        #: shares the id tuple (see _load_orbits)
        self.per_mask = itemgetter(*self.orbit)
        self.or_layers: List[Optional[List[int]]] = [None]
        self.X: List[Optional[List[int]]] = [None]
        self.S: List[Optional[List[int]]] = [None]
        self._columns: Optional[_Columns] = None  # read on first use

    @property
    def max_size(self) -> int:
        return len(self.or_layers) - 1

    def extend(self, max_size: int) -> None:
        for m in range(self.max_size + 1, max_size + 1):
            self._add_layer(m)

    def count(self, m: int, mask: int) -> int:
        """Trees of size m computing the function with this truth-table mask."""
        f_id = self.orbit[mask]
        return _total(self.or_layers[m], m, f_id, self.comp[f_id])

    def totals(self, m: int) -> List[int]:
        """Trees of size m computing any one function of each orbit."""
        layer = self.or_layers[m]
        return [_total(layer, m, o, c) for o, c in enumerate(self.comp)]

    def _add_layer(self, m: int) -> None:
        if self._columns is None:
            self._columns = _load_columns(self.n)
        columns, X, S = self._columns, self.X, self.S
        if m == 1:
            or_layer = [0] * len(self.reps)
            for mask in literal_masks(self.n):
                or_layer[self.orbit[mask]] = 1
        else:
            or_layer = _mobius(columns, map(sub, S[m - 1], X[m - 1]))
        x = _zeta(columns, list(map(or_layer.__getitem__, self.comp)))  # AND layer
        s = x
        for i in range(1, m):
            s = list(map(add, s, map(mul, S[i], X[m - i])))
        self.or_layers.append(or_layer)
        X.append(x)
        S.append(s)


_engines: Dict[int, _Engine] = {}
_engine_lock = threading.Lock()


def _get_engine(n: int, max_size: int) -> _Engine:
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > HARD_MAX_VARS:
        raise DistributionError(
            f"function sweeps are limited to n <= {HARD_MAX_VARS}"
        )
    with _engine_lock:
        engine = _engines.get(n)
        if engine is None:
            engine = _engines[n] = _Engine(n)
        engine.extend(max_size)
    return engine


def _orbit_ids(n: int) -> Tuple[int, ...]:
    """The engine's orbit id of every mask at n."""
    return _get_engine(n, 0).orbit


def _text(op: str, run: tuple) -> str:
    """`serialize` of Node(op, run[1::2]), read off the children's texts run[::2]."""
    return "(" + op + " " + " ".join(run[::2]) + ")"


def _trees(n: int, s: int, f: int, op: str) -> Iterator[tuple]:
    """The children, each after its text, of every size-s tree (s >= 2) rooted at
    `op` computing the mask f, each tree once, in `serialize` order: the tree of
    such a run is ``Node(op, run[1::2])`` and its text ``_text(op, run)``.

    The recursive method of Flajolet, Zimmermann & Van Cutsem (1994), top
    down on the engine's counts.  Take the x-mask of an op-rooted tree to be
    its mask under an or root and the complement of its mask under an and
    root.  Then a node's x-mask is the OR of its children's masks taken in
    the same frame, under either root, and a child with mask g in its
    parent's frame has x-mask full ^ g in its own.  By duality,
    or_layers[t][orbit[x]] counts the size-t trees with x-mask x of either
    root, so a child with mask g and size t exists iff
    or_layers[t][orbit[full ^ g]] is nonzero, and a run of >= 2 children
    whose masks OR to h, of total size t, iff or_layers[t + 1][orbit[h]]
    is.  A node with x-mask x takes a first child and then a run of the
    others, all within x; after a first child of mask g the run must cover
    the rest of x, so a run is keyed by the masks it must cover.  Only
    first children whose run exists are taken.  They are taken from all
    (size, mask) groups at once, by their texts, each assembled once from its
    children's; so each memoized list, and the output, is in text order by
    the argument of ``counting``'s module docstring.
    """
    engine = _get_engine(n, s)
    orbit, layers = engine.orbit, engine.or_layers
    full = len(orbit) - 1
    masks = range(full + 1)
    # one[t][g]: children of mask g and size t; run[t]: the masks of the
    # runs of children of total size t (the empty run at t = 0)
    one = [None] + [engine.per_mask(layers[t])[::-1] for t in range(1, s)]
    run = [[0]] + [
        list(compress(masks, map(add, one[t], engine.per_mask(layers[t + 1]))))
        for t in range(1, s)
    ]
    child = [None] + [list(compress(masks, counts)) for counts in one[1:]]
    leaves = {mask: (str(lit), Leaf(lit)) for mask, lit in zip(literal_masks(n), _literals(n))}
    memo: Dict[tuple, list] = {}

    def rooted(op: str, x: int, size: int) -> List[Tuple[str, AndOrTree]]:
        """(text, tree) of the op-rooted trees of this size with x-mask x."""
        key = (op, x, size)
        trees = memo.get(key)
        if trees is None:
            if size == 1:
                trees = [leaves[x if op == OR else full ^ x]]
            else:
                found = runs(op, x, x, size - 1)
                trees = [(_text(op, kids), Node(op, kids[1::2])) for kids in found if len(kids) > 2]
            memo[key] = trees
        return trees

    def firsts(op: str, x: int, need: int, size: int) -> List[tuple]:
        """((text, first child), mask left to cover, size left) of `runs`."""
        key = (op, x, need, size)
        heads = memo.get(key)
        if heads is None:
            other = AND if op == OR else OR
            heads = []
            for first in range(1, size + 1):
                tails = [h for h in run[size - first] if h | x == x]
                for g in child[first]:
                    left = need & ~g
                    if g | x == x and any(h & left == left for h in tails):
                        heads += [(k, left, size - first) for k in rooted(other, full ^ g, first)]
            heads = memo[key] = sorted(heads, key=lambda head: head[0][0])
        return heads

    def runs(op: str, x: int, need: int, size: int) -> Iterator[tuple]:
        """Runs of >= 1 children of an op node, of total size `size`, each
        child's mask within x and their OR covering `need`."""
        for kid, left, more in firsts(op, x, need, size):
            if more:
                for rest in runs(op, x, left, more):
                    yield kid + rest
            else:
                yield kid

    x = f if op == OR else full ^ f
    if layers[s][orbit[x]]:
        yield from (kids for kids in runs(op, x, x, s - 1) if len(kids) > 2)


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def _check_size(m: int) -> None:
    if m < 1:
        raise ValueError("m must be >= 1")


def _size_class(m: int, n: int) -> Tuple[_Engine, int]:
    """The engine grown to size m, and the number of trees of size m."""
    total = series(n, m).a_total[m]
    if total == 0:
        raise DistributionError(f"empty size class: no trees of size {m}")
    return _get_engine(n, m), total


def function_counts(m: int, n: int) -> CountTable:
    """Exact counts of size-m trees per Boolean function, split by root type."""
    _check_size(m)
    engine = _get_engine(n, m)
    or_rooted = engine.per_mask(engine.or_layers[m])
    return CountTable(n=n, m=m, and_rooted=or_rooted[::-1], or_rooted=or_rooted)


def exact_distribution(m: int, n: int) -> Distribution:
    _check_size(m)
    engine, total = _size_class(m, n)
    per_mask = engine.per_mask([Fraction(t, total) if t else 0 for t in engine.totals(m)])
    probs = dict(compress(enumerate(per_mask), per_mask))
    return Distribution(n=n, m=m, probabilities=probs)


def prob(m: int, n: int, f: TruthTable) -> Fraction:
    """Exact probability that a uniform size-m tree computes f."""
    _check_size(m)
    if f.n != n:
        raise ValueError("truth table n does not match")
    engine, total = _size_class(m, n)
    return Fraction(engine.count(m, f.bits), total)


def prob_ge(m: int, n: int, f0: TruthTable) -> Fraction:
    """Probability mass of functions pointwise >= f0 (f0 non-constant).

    With o the orbit of not-f0, the g >= f0 are the complements of the
    submasks of not-f0.  Summed over them, the or-rooted counts or_m[g] are
    the zeta transform of the size-m AND layer at not-f0, X[m][o], and the
    and-rooted counts or_m[not g] are zeta(or_m)[not f0], which for m >= 2
    is Q[m-1][o] = S[m-1][o] - X[m-1][o], since or_m is the Möbius transform
    of Q[m-1].  At m = 1 the leaf is counted once: the mass is X[1][o].
    """
    _check_size(m)
    if f0.is_constant():
        raise ValueError("f0 must be non-constant")
    if f0.n != n:
        raise ValueError("truth table n does not match")
    engine, total = _size_class(m, n)
    o = engine.orbit[(len(engine.orbit) - 1) ^ f0.bits]
    X, S = engine.X, engine.S
    mass = X[m][o]
    if m > 1:
        mass += S[m - 1][o] - X[m - 1][o]
    return Fraction(mass, total)


def tautology_count(m: int, n: int) -> int:
    """Number of size-m trees computing the constant True (any root)."""
    _check_size(m)
    return _get_engine(n, m).count(m, (1 << (1 << n)) - 1)


def limit_estimate(
    n: int,
    f: TruthTable,
    M: int = 60,
    tol: float = 1e-4,
) -> LimitReport:
    """Tail-averaged estimate of the limiting probability of f.

    Sizes in [M-10, M] are split by parity before averaging because
    square-root-singularity series often oscillate between parities.
    `converged` only says that the two parity means agree within the
    absolute tol; it bounds neither the distance to the limit, which falls
    like 1/M, nor the relative error of a small probability.  At M = 60,
    P(True) reads 0.3135453, 0.2872290 and 0.2789648 for n = 1, 2, 3, all
    converged, against 0.3161253, 0.2903924 and 0.2824906 by second-order
    Richardson over m = 60, 120, 240 (README, "Known numerical limits").
    Non-convergence is reported, never raised.
    """
    if M < 10:
        raise ValueError("M must be >= 10")
    if f.n != n:
        raise ValueError("truth table n does not match")
    engine = _get_engine(n, M)
    totals = series(n, M).a_total
    window = 10
    odd, even = [], []
    for m in range(M - window, M + 1):
        if totals[m] == 0:
            continue
        value = engine.count(m, f.bits) / totals[m]
        (odd if m % 2 else even).append(value)
    odd_tail = sum(odd) / len(odd) if odd else float("nan")
    even_tail = sum(even) / len(even) if even else float("nan")
    estimate = (odd_tail + even_tail) / 2
    converged = bool(
        odd and even and abs(odd_tail - even_tail) <= tol
    )
    return LimitReport(
        n=n,
        f_hex=f.to_hex(),
        M=M,
        estimate=estimate,
        converged=converged,
        odd_tail=odd_tail,
        even_tail=even_tail,
        tol=tol,
        window=window,
    )
