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

The engine is layer-major: each quantity is one list over all 2^(2^n)
truth-table masks, and each step is a whole-list operation on exact Python
ints.  OR-combination of function tables diagonalises under the subset-sum
(zeta) transform.  With X[m] the zeta transform of the size-m AND layer, the
sequences of >= 1 and-rooted children of total size m have transform
S[m] = X[m] + sum_{i<m} S[i] * X[m-i] (pointwise products), those of >= 2
children Q[m] = S[m] - X[m], and the size-(m+1) OR layer is the Möbius
transform of Q[m].  The transforms are the butterflies of fast subset
convolution, one bit at a time, each bit a few slice operations.  Counts are
checked in the tests against brute-force enumeration and against an
independent per-mask computation of both connectives.
"""

from __future__ import annotations

import marshal
import os
import threading
import warnings
from dataclasses import dataclass
from fractions import Fraction
from operator import add, mul, sub
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .counting import series
from .formula import TruthTable, literal_masks

#: full per-function sweeps default to n <= 3; n = 4 works but is slow.
MAX_SWEEP_VARS = 3
HARD_MAX_VARS = 4

CACHE_ENV_VAR = "ANDORTREES_CACHE_DIR"
#: tag of the on-disk engine format; a file with any other tag is recomputed
CACHE_FORMAT = "andortrees-engine-2"


class DistributionError(RuntimeError):
    pass


@dataclass(frozen=True)
class CountTable:
    """Exact per-function counts of size-m trees, split by root connective.

    and_rooted[f] / or_rooted[f] are indexed by the truth-table bit mask;
    single leaves appear in both (a leaf is a degenerate tree of either root
    type in the grammar), so the total count of trees computing f is
    and_rooted[f] + or_rooted[f] minus the double-counted leaf at m = 1.
    """

    n: int
    m: int
    and_rooted: Tuple[int, ...]
    or_rooted: Tuple[int, ...]

    def total(self, mask: int) -> int:
        return _total(self.or_rooted, self.m, mask)


def _total(or_layer: Sequence[int], m: int, mask: int) -> int:
    """Trees of size m computing mask, read from the size-m OR layer alone.

    The and-rooted count of f is the or-rooted count of not-f, at index
    full ^ f.  At m = 1 both counts are the same leaf, counted once.
    """
    count = or_layer[mask]
    if m > 1:
        count += or_layer[(len(or_layer) - 1) ^ mask]
    return count


@dataclass(frozen=True)
class Distribution:
    n: int
    m: int
    probabilities: Dict[int, Fraction]  # mask -> exact probability


@dataclass(frozen=True)
class LimitReport:
    n: int
    f_hex: str
    M: int
    estimate: float
    converged: bool
    odd_tail: float
    even_tail: float
    tol: float
    window: int


# ---------------------------------------------------------------------------
# subset zeta / Möbius transforms over the function lattice
# ---------------------------------------------------------------------------


def _butterfly(v: List[int], op: Callable[[int, int], int]) -> List[int]:
    """A copy of v with v[mask] = op(v[mask], v[mask ^ bit]) applied for each
    bit in turn, at every mask that has the bit set.

    Each bit is one slice step per block of 2 * half masks (contiguous
    slices) or per residue below half (strided slices), whichever is fewer,
    so the element loop runs in C.
    """
    v = v[:]
    size = len(v)
    half = 1
    while half < size:
        span = 2 * half
        if size // span <= half:
            for lo in range(0, size, span):
                hi = lo + half
                v[hi : hi + half] = map(op, v[hi : hi + half], v[lo:hi])
        else:
            for r in range(half):
                v[r + half :: span] = map(op, v[r + half :: span], v[r::span])
        half = span
    return v


def _zeta_subset(v: List[int]) -> List[int]:
    """Subset sums: result[mask] = sum of v[sub] over sub within mask."""
    return _butterfly(v, add)


def _mobius_subset(v: List[int]) -> List[int]:
    """Inverse of _zeta_subset."""
    return _butterfly(v, sub)


# ---------------------------------------------------------------------------
# the per-n engine, grown one size layer at a time
# ---------------------------------------------------------------------------


class _Engine:
    """or_layers[m], X[m] and S[m] of the module docstring, for m >= 1.

    Index 0 (there are no trees of size 0) holds None.
    """

    def __init__(self, n: int):
        self.n = n
        self.space = 1 << (1 << n)
        self.or_layers: List[Optional[List[int]]] = [None]
        self.X: List[Optional[List[int]]] = [None]
        self.S: List[Optional[List[int]]] = [None]

    @property
    def max_size(self) -> int:
        return len(self.or_layers) - 1

    def extend(self, max_size: int) -> None:
        for m in range(self.max_size + 1, max_size + 1):
            self._add_layer(m)

    def _add_layer(self, m: int) -> None:
        X, S = self.X, self.S
        if m == 1:
            or_layer = [0] * self.space
            for mask in literal_masks(self.n):
                or_layer[mask] = 1
        else:
            or_layer = _mobius_subset(list(map(sub, S[m - 1], X[m - 1])))
        x = _zeta_subset(or_layer[::-1])  # the AND layer, by duality
        s = x
        for i in range(1, m):
            s = list(map(add, s, map(mul, S[i], X[m - i])))
        self.or_layers.append(or_layer)
        X.append(x)
        S.append(s)


_engines: Dict[int, _Engine] = {}
_engine_lock = threading.Lock()


def _cache_path(n: int) -> Optional[str]:
    root = os.environ.get(CACHE_ENV_VAR)
    if not root:
        return None
    return os.path.join(root, f"{CACHE_FORMAT}_n{n}.marshal")


def _get_engine(n: int, max_size: int) -> _Engine:
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > HARD_MAX_VARS:
        raise DistributionError(
            f"function sweeps are limited to n <= {HARD_MAX_VARS}"
        )
    if n > MAX_SWEEP_VARS:
        warnings.warn(
            f"n={n} sweeps 2^{1 << n} functions per size; this is slow",
            RuntimeWarning,
            stacklevel=3,
        )
    with _engine_lock:
        engine = _engines.get(n)
        if engine is None:
            engine = _load_cached(n) or _Engine(n)
            _engines[n] = engine
        if engine.max_size < max_size:
            engine.extend(max_size)
            _store_cached(engine)
    return engine


def _load_cached(n: int) -> Optional[_Engine]:
    """The engine stored for n, or None when the file is absent or unusable.

    The file is a marshal dict with the keys ``format``, ``n``,
    ``or_layers``, ``X`` and ``S``.  A file that does not read back to
    that shape (another format tag or n, lists of unequal length, a vector
    of the wrong size, truncated or unreadable bytes) counts as absent, so
    the caller recomputes the engine and rewrites the file.  The entries of
    the vectors are taken as written.
    """
    path = _cache_path(n)
    if not path or not os.path.exists(path):
        return None
    try:
        with open(path, "rb") as fh:
            data = marshal.loads(fh.read())  # marshal.load(fh) is ~25x slower
    except (OSError, EOFError, ValueError, TypeError):
        return None
    if not (
        isinstance(data, dict)
        and data.get("format") == CACHE_FORMAT
        and data.get("n") == n
    ):
        return None
    engine = _Engine(n)
    lists = [data.get(key) for key in ("or_layers", "X", "S")]
    for got in lists:
        if not (
            isinstance(got, list)
            and len(got) == len(lists[0]) > 1
            and got[0] is None
            and all(isinstance(v, list) and len(v) == engine.space for v in got[1:])
        ):
            return None
    engine.or_layers, engine.X, engine.S = lists
    return engine


def _store_cached(engine: _Engine) -> None:
    path = _cache_path(engine.n)
    if not path:
        return
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    data = {
        "format": CACHE_FORMAT,
        "n": engine.n,
        "or_layers": engine.or_layers,
        "X": engine.X,
        "S": engine.S,
    }
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(marshal.dumps(data))
    os.replace(tmp, path)


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def function_counts(m: int, n: int) -> CountTable:
    """Exact counts of size-m trees per Boolean function, split by root type."""
    if m < 1:
        raise ValueError("m must be >= 1")
    or_layer = _get_engine(n, m).or_layers[m]
    return CountTable(
        n=n, m=m, and_rooted=tuple(reversed(or_layer)), or_rooted=tuple(or_layer)
    )


def exact_distribution(m: int, n: int) -> Distribution:
    table = function_counts(m, n)
    total = series(n, m).a_total[m]
    if total == 0:
        raise DistributionError(f"empty size class: no trees of size {m}")
    probs = {
        mask: Fraction(table.total(mask), total)
        for mask in range(1 << (1 << n))
        if table.total(mask)
    }
    return Distribution(n=n, m=m, probabilities=probs)


def prob(m: int, n: int, f: TruthTable) -> Fraction:
    """Exact probability that a uniform size-m tree computes f."""
    if f.n != n:
        raise ValueError("truth table n does not match")
    total = series(n, max(m, 1)).a_total[m]
    if total == 0:
        raise DistributionError(f"empty size class: no trees of size {m}")
    table = function_counts(m, n)
    return Fraction(table.total(f.bits), total)


def prob_ge(m: int, n: int, f0: TruthTable) -> Fraction:
    """Probability mass of functions pointwise >= f0 (f0 non-constant)."""
    if f0.is_constant():
        raise ValueError("f0 must be non-constant")
    if f0.n != n:
        raise ValueError("truth table n does not match")
    total = series(n, m).a_total[m]
    if total == 0:
        raise DistributionError(f"empty size class: no trees of size {m}")
    table = function_counts(m, n)
    full = (1 << (1 << n)) - 1
    free = full ^ f0.bits
    # enumerate all supersets of f0.bits
    count = 0
    sub = free
    while True:
        count += table.total(f0.bits | sub)
        if sub == 0:
            break
        sub = (sub - 1) & free
    return Fraction(count, total)


def tautology_count(m: int, n: int) -> int:
    """Number of size-m trees computing the constant True (any root)."""
    table = function_counts(m, n)
    return table.total((1 << (1 << n)) - 1)


def limit_estimate(
    n: int,
    f: TruthTable,
    M: int = 60,
    tol: float = 1e-4,
    window: int = 10,
) -> LimitReport:
    """Tail-averaged estimate of the limiting probability of f.

    Sizes in [M-window, M] are split by parity before averaging because
    square-root-singularity series often oscillate between parities; the
    convergence flag records whether the two parity means agree within tol.
    Non-convergence is reported, never raised.
    """
    if M < 10:
        raise ValueError("M must be >= 10")
    if f.n != n:
        raise ValueError("truth table n does not match")
    engine = _get_engine(n, M)
    totals = series(n, M).a_total
    odd, even = [], []
    for m in range(M - window, M + 1):
        if totals[m] == 0:
            continue
        value = _total(engine.or_layers[m], m, f.bits) / totals[m]
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
