"""Exact-size uniform sampling of trees and Monte Carlo statistics.

A size-m tree read in preorder is a Lukasiewicz word: the arities of its
nodes, 0 for a leaf.  A draw takes the number I of internal nodes from exact
big-integer weights, a uniform composition of the m-1 edges into I arities
>= 2 and a uniform set of I letters to carry them, and turns the word to its
one valid rotation (cycle lemma: Dershowitz & Zaks 1990; Devroye 2012).  The
root connective is a fair coin and each leaf a uniform literal.  Every choice
is an integer draw, so every size-m tree has probability exactly
1/(number of size-m trees).  The valid rotation is read off the I internal
letters alone.  At n < 128 the leaf literals come in blocks of 32-bit
Mersenne Twister words, one word per leaf still missing, whose top bytes a
table maps to literal indexes and rejects when out of range: the words, the
indexes and the final rng state are those of one `randrange(2n)` per leaf.
At n >= 128 an index is wider than a byte and each leaf draws its own bits.

`SamplerContext.draw` returns these choices as a `formula.Draw` (root
connective, word, leaf literal indexes); `sample` is `formula.decode` of a
draw.  This module only draws and runs Monte Carlo: the word format, its
decoder and the folds over it live in `formula`.  Monte Carlo statistics are
folds over the draw itself: the truth table is a postfix fold of literal
masks over the word (`formula.fold_truth_bits`) that stops a node at its
absorbing value and skips its pending children, the first-level leaf count
and the simple-tautology flag read the root's leaf children
(`formula.fold_root_leaves`), and the tautology rate at n > MAX_FOLD_VARS
(13) is a search on the word (`formula.never_evaluates_to`).  No statistic
builds a tree.  The root-leaf walk runs on every trial for the histogram
or when no truth table is folded; otherwise the simple-tautology rate walks
only the or-rooted draws whose table is all ones, since a simple tautology
is an or-rooted tautology.
"""

from __future__ import annotations

import bisect
import functools
import math
import random
import time
from collections import Counter
from operator import add, sub
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .formula import (
    MAX_FOLD_VARS,
    AndOrTree,
    Draw,
    Record,
    TruthTable,
    decode,
    fold_root_leaves,
    fold_truth_bits,
    literal_masks,
    never_evaluates_to,
)

Z95 = 1.959964  # two-sided 95% normal quantile


class SamplerError(RuntimeError):
    pass


class StatResult(Record):
    __slots__ = ("estimate", "stderr", "ci95", "extra")
    _defaults = {"extra": dict}


class McReport(Record):
    """A Monte Carlo run; its timing fields are left out of ==."""

    __slots__ = ("m", "n", "trials", "seed", "generator", "stats", "seconds", "trees_per_s")
    _uncompared = ("seconds", "trees_per_s")


def _frequency_stat(hits: int, trials: int, **extra) -> StatResult:
    """The rate hits/trials with its standard error and its Wilson score
    interval (Wilson, 1927), which, unlike p +- 1.96 se, stays inside [0, 1]
    and has width at 0 or 1 hits (0 of 10^4 reads (0, 3.84e-4))."""
    p = hits / trials
    se = math.sqrt(p * (1 - p) / trials)
    shrink = Z95 * Z95 / trials
    center = (p + shrink / 2) / (1 + shrink)
    half = Z95 * math.sqrt(p * (1 - p) / trials + shrink / (4 * trials)) / (1 + shrink)
    ci95 = (max(0.0, center - half), min(1.0, center + half))
    return StatResult(estimate=p, stderr=se, ci95=ci95, extra=dict(extra))


def _sorted_sample(rng: random.Random, start: int, stop: int, k: int) -> List[int]:
    """`sorted(rng.sample(range(start, stop), k))`, leaving rng in the same state.

    `sample`'s own branch test stays: a pool when the population n is at
    most setsize (21, plus 4^ceil(log4(3k)) when k > 5), else a set.  The
    pool branch is Fisher-Yates over the bounds n, n-1, ..., n-k+1, and the
    set branch draws below n until k distinct values are in, a value
    already in being a redraw.  Each of `sample`'s `_randbelow(bound)`
    calls is inlined as `getrandbits(bound.bit_length())`, redrawn while
    >= bound.
    """
    n = stop - start
    getrandbits = rng.getrandbits
    setsize = 21
    if k > 5:
        setsize += 4 ** math.ceil(math.log(k * 3, 4))
    if n <= setsize:
        pool = list(range(start, stop))
        chosen = []
        append = chosen.append
        # the bound is end + 1 for the last pool index end = n-1, ..., n-k;
        # ends between two powers of two share one bit length
        end = n - 1
        while end >= n - k:
            bits = (end + 1).bit_length()
            low = max(n - k, (1 << (bits - 1)) - 1)
            for end in range(end, low - 1, -1):
                j = getrandbits(bits)
                while j > end:
                    j = getrandbits(bits)
                append(pool[j])
                pool[j] = pool[end]
            end = low - 1
        chosen.sort()
        return chosen
    bits = n.bit_length()
    chosen = set()
    while len(chosen) < k:
        j = getrandbits(bits)
        if j < n:
            chosen.add(j + start)
    return sorted(chosen)


class SamplerContext:
    """Uniform size-m trees over n variables, for every m up to max_size.

    The weights of I for a size are built on its first draw and kept.
    """

    def __init__(self, n: int, max_size: int):
        if n < 1 or max_size < 1:
            raise ValueError("need n >= 1 and max_size >= 1")
        self.n = n
        self.max_size = max_size
        self._cum: Dict[int, List[int]] = {}
        # at k <= 8 a leaf's index is the top k bits of a byte: the table
        # from byte to index, and the bytes whose index is >= 2n
        k = (2 * n).bit_length()
        self._byte_table: Optional[Tuple[bytes, bytes]] = None
        if k <= 8:
            self._byte_table = (
                bytes(b >> (8 - k) for b in range(256)),
                bytes(b for b in range(256) if b >> (8 - k) >= 2 * n),
            )

    def _cum_weights(self, m: int) -> List[int]:
        """Cumulative weights of I = 1..(m-1)//2 internal nodes in a size-m tree.

        w_I = (2n)^(m-I) * C(m, I) * C(m-I-2, I-1) counts the leaf literals,
        the places of the I internal nodes among the m letters and the
        compositions of the m-1 edges into I arities >= 2.  One of the m
        rotations of such a word is a tree's (cycle lemma) and a tree has two
        root connectives, so sum_I w_I = m * A_m / 2.  Consecutive weights
        differ by the factor (m-I)(m-2I-1)(m-2I-2) / ((I+1) I (m-I-2) 2n).
        """
        cum = self._cum.get(m)
        if cum is None:
            two_n = 2 * self.n
            w = m * two_n ** (m - 1)
            cum = [w]
            for i in range(1, (m - 1) // 2):
                w = w * ((m - i) * (m - 2 * i - 1) * (m - 2 * i - 2)) // (
                    (i + 1) * i * (m - i - 2) * two_n
                )
                cum.append(cum[-1] + w)
            self._cum[m] = cum
        return cum

    def draw(self, m: int, rng: random.Random) -> Draw:
        """The random choices behind one uniform size-m tree.

        Returns (root_and, word, leaves): the root connective (True for and;
        a bare leaf draws no coin and reads False), the preorder arity word
        and the literal index of each leaf in preorder.  The rng calls are
        the weight draw of I, the cuts, the places, the root coin and then
        the leaf literals, in the stream of one `randrange(2n)` per leaf:
        k = (2n).bit_length() random bits, redrawn while >= 2n.

        The cuts and the places are `sorted(rng.sample(range(...), k))`
        with `sample`'s `_randbelow` calls inlined as direct `getrandbits`
        calls (`_sorted_sample`).  That keeps `sample`'s stream for
        `random.Random`, whose `_randbelow` is `_randbelow_with_getrandbits`.
        It was checked on Python 3.11.7; on other versions
        `test_sorted_sample_replays_rng_sample` compares the two.

        `getrandbits(k)` with k <= 32 is the top k bits of one 32-bit
        Mersenne Twister word, and `getrandbits(32 * w)` is the next w words,
        the first least significant.  So at n < 128 (k <= 8) the leaves come
        in blocks of one word per leaf still missing: each word's top byte
        maps through a table to its index, and the words whose index is
        >= 2n are dropped.  Every leaf takes at least one word, so a block
        holds no word the per-leaf draw would not read, and the rng ends in
        the same state.  At n >= 128 an index is wider than a byte and each
        leaf draws its own k bits.
        """
        if m == 2:
            raise SamplerError("empty size class: no trees of size 2")
        if m < 1 or m > self.max_size:
            raise ValueError(f"m must be in 1..{self.max_size} and != 2")
        if m == 1:
            return False, [0], [rng.randrange(2 * self.n)]
        cum = self._cum_weights(m)
        internal = bisect.bisect_right(cum, rng.randrange(cum[-1])) + 1
        # a uniform composition of m-1 into `internal` arities >= 2 ...
        cuts = _sorted_sample(rng, 1, m - internal - 1, internal - 1)
        cuts.append(m - 1 - internal)
        # ... placed at a uniform set of `internal` letters of the word.  The
        # cuts telescope: the arities of internal letters 0..i-1 sum to
        # d[i] = cuts[i-1] + i, so letter i has arity d[i+1] - d[i]
        places = _sorted_sample(rng, 0, m, internal)
        d = [0, *map(add, cuts, range(1, internal + 1))]
        # the one valid rotation starts at the first letter where the sum of
        # (arity - 1) over the letters before it is least (cycle lemma).  A
        # leaf lowers the sum by one, so that letter is internal, and before
        # the one at place p = places[i] the sum is d[i] - p
        heights = list(map(sub, d, places))
        start = places[heights.index(min(heights))]
        # each arity goes straight to its letter of the rotated word: index
        # place - start, negative for the letters before the start
        word = [0] * m
        for place, lo, hi in zip(places, d, d[1:]):
            word[place - start] = hi - lo
        root_and = rng.randrange(2) == 0
        count = m - internal
        if self._byte_table is not None:
            table, rejected = self._byte_table
            got = b""
            while len(got) < count:
                need = count - len(got)
                block = rng.getrandbits(32 * need).to_bytes(4 * need, "little")
                got += block[3::4].translate(table, rejected)
            return root_and, word, list(got)
        two_n = 2 * self.n
        k = two_n.bit_length()
        getrandbits = rng.getrandbits
        leaves = []
        for _ in range(count):
            r = getrandbits(k)
            while r >= two_n:
                r = getrandbits(k)
            leaves.append(r)
        return root_and, word, leaves

    def sample(self, m: int, rng: random.Random) -> AndOrTree:
        return decode(self.draw(m, rng), self.n)


@functools.lru_cache(maxsize=None)
def get_context(n: int, max_size: int) -> SamplerContext:
    """Shared context registry; a draw only ever adds a weight table to one."""
    return SamplerContext(n, max_size)


def sample_uniform(m: int, n: int, seed: int) -> AndOrTree:
    """One uniform size-m tree; identical trees for identical seeds."""
    ctx = get_context(n, m)
    return ctx.sample(m, random.Random(seed))


def sample_many(m: int, n: int, count: int, seed: int) -> List[AndOrTree]:
    if count < 0:
        raise ValueError("count must be >= 0")
    ctx = get_context(n, m)
    rng = random.Random(seed)
    return [ctx.sample(m, rng) for _ in range(count)]


# ---------------------------------------------------------------------------
# Monte Carlo estimation
# ---------------------------------------------------------------------------

KNOWN_STATS = (
    "simple_tautology_rate",
    "tautology_rate",
    "first_level_leaf_histogram",
)


def gamma_two_half_cdf(x: float) -> float:
    """CDF of the Gamma(shape 2, scale 1/2) law with density 4x exp(-2x)."""
    if x <= 0:
        return 0.0
    return 1.0 - math.exp(-2.0 * x) * (1.0 + 2.0 * x)


def ks_statistic(samples: List[float], cdf) -> float:
    xs = sorted(samples)
    n = len(xs)
    worst = 0.0
    for i, x in enumerate(xs):
        c = cdf(x)
        worst = max(worst, abs(c - i / n), abs(c - (i + 1) / n))
    return worst


def ks_discrete(histogram: Dict[int, int], pmf: Sequence[float]) -> float:
    """KS distance between integer counts (value -> occurrences) and a law on
    0, 1, 2, ... given by its pmf: the largest |F_N(j) - F(j)| over integers j.

    Both CDFs are step functions jumping at the same integers, so comparing
    them there is exact.  `ks_statistic` with a step CDF would also compare
    F(j) with F_N(j-) and overstate the distance by up to one atom.
    """
    total = sum(histogram.values())
    if total <= 0:
        raise ValueError("histogram holds no counts")
    seen = 0
    cdf = 0.0
    worst = 0.0
    for j in range(max(max(histogram), len(pmf) - 1) + 1):
        seen += histogram.get(j, 0)
        if j < len(pmf):
            cdf += pmf[j]
        worst = max(worst, abs(seen / total - cdf))
    return worst


def _upper_quantile(
    survival: Callable[[float], float], alpha: float, lo: float, hi: float
) -> float:
    """The x in [lo, hi] where the decreasing `survival` crosses alpha, by
    at most 200 halvings.

    Once the midpoint equals lo or hi the floats are at a fixed point: no
    later halving moves them, so the midpoint is the result.
    """
    for _ in range(200):
        mid = (lo + hi) / 2
        if mid == lo or mid == hi:
            return mid
        if survival(mid) > alpha:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def ks_critical(alpha: float, n_samples: int) -> float:
    """Asymptotic Kolmogorov critical value: D such that P(sqrt(N) D_N > c) = alpha."""

    def survival(c: float) -> float:
        total = 0.0
        for k in range(1, 101):
            term = 2.0 * (-1) ** (k - 1) * math.exp(-2.0 * k * k * c * c)
            total += term
            if abs(term) < 1e-16:
                break
        return total

    return _upper_quantile(survival, alpha, 0.2, 4.0) / math.sqrt(n_samples)


def chi_square_critical(alpha: float, df: int) -> float:
    """Upper critical value of the chi-square distribution with a positive
    integer number of degrees of freedom (no scipy needed)."""
    if not isinstance(df, int) or df < 1:
        raise ValueError(f"df must be a positive int, got {df!r}")

    def survival(x: float) -> float:
        # closed forms of the regularized upper gamma Q(df/2, x/2) at integer
        # df (Abramowitz & Stegun 26.4.4, 26.4.5): e^(-x/2) sum_{j<df/2}
        # (x/2)^j / j! for even df; erfc(sqrt(x/2)) + sqrt(2x/pi) e^(-x/2)
        # sum_{j<(df-1)/2} x^j / (1*3*...*(2j+1)) for odd df
        term, total = 1.0, 0.0
        if df % 2 == 0:
            for j in range(1, df // 2 + 1):
                total += term
                term *= x / 2 / j
            return math.exp(-x / 2) * total
        for j in range(1, (df + 1) // 2):
            total += term
            term *= x / (2 * j + 1)
        tail = math.sqrt(2 * x / math.pi) * math.exp(-x / 2) * total
        return math.erfc(math.sqrt(x / 2)) + tail

    return _upper_quantile(survival, alpha, 0.0, 10.0 * df + 100.0)


def monte_carlo(
    m: int, n: int, trials: int, seed: int, stats: Iterable[str]
) -> McReport:
    """Unbiased frequency estimates over `trials` uniform size-m trees.

    stats entries: 'simple_tautology_rate', 'tautology_rate',
    'first_level_leaf_histogram', or 'function_frequency:<hex>' with the hex
    truth table of the target function.

    Each trial reads its statistics off the draw (`formula.fold_truth_bits`,
    `formula.fold_root_leaves`, and at n > MAX_FOLD_VARS the tautology rate
    from `formula.never_evaluates_to`); no tree is built.  The truth table is
    folded at n <= MAX_FOLD_VARS when the tautology rate or a function
    frequency is asked for.  The root-leaf walk runs on every trial for the
    histogram or when no table is folded; else the simple-tautology rate
    walks only the or-rooted draws whose table is all ones and counts every
    other draw as no simple tautology, since a simple tautology is an
    or-rooted tautology.  `seconds` is the wall time of the call.

    With the histogram, ``extra["ks_statistic"]`` is the Kolmogorov-Smirnov
    distance of the leaf counts scaled by 2*sqrt(2n) from the continuous
    Gamma(2, 1/2) law, their n -> infinity limit.  ``extra["ks_critical_1pct"]``
    is the 1% critical value for `trials` draws from that continuous law; it
    is not a valid threshold for the statistic at finite n, where the exact
    law differs from Gamma and the integer counts tie: at n = 100 a correct
    sampler reads 0.0492 against 0.0163 (check 10b's run: m = 2000, 10^4
    trials, seed `verify.SEED_KS`).  `ks_discrete` against
    `analytic.first_level_leaf_law` is the test at finite n.
    """
    start = time.perf_counter()
    if trials <= 0:
        raise ValueError("trials must be >= 1")
    stats = list(stats)
    function_targets: Dict[str, int] = {}
    for name in stats:
        if name.startswith("function_frequency:"):
            if n > MAX_FOLD_VARS:
                raise ValueError(
                    f"function_frequency needs n <= {MAX_FOLD_VARS} for truth tables"
                )
            hex_part = name.split(":", 1)[1]
            function_targets[name] = TruthTable.from_hex(hex_part, n).bits
        elif name not in KNOWN_STATS:
            raise ValueError(f"unknown statistic {name!r}")
    ctx = get_context(n, m)
    rng = random.Random(seed)

    want_taut = "tautology_rate" in stats
    want_simple = "simple_tautology_rate" in stats
    want_hist = "first_level_leaf_histogram" in stats
    want_table = bool(function_targets) or (want_taut and n <= MAX_FOLD_VARS)
    if want_table:
        masks, full = literal_masks(n), (1 << (1 << n)) - 1
    hits = {name: 0 for name in stats if name != "first_level_leaf_histogram"}
    leaf_counts: Optional[List[int]] = [] if want_hist else None

    for _ in range(trials):
        drawn = ctx.draw(m, rng)
        if want_table:
            bits = fold_truth_bits(drawn, masks, full)
            for name, mask in function_targets.items():
                if bits == mask:
                    hits[name] += 1
        # a simple tautology is an or-rooted tautology, so where the table is
        # folded only an or-rooted draw with an all-ones table needs the walk
        if want_hist or (
            want_simple and (not want_table or (bits == full and not drawn[0]))
        ):
            x, simple = fold_root_leaves(drawn)
            if simple and want_simple:
                hits["simple_tautology_rate"] += 1
            if want_hist:
                leaf_counts.append(x)
        if want_taut:
            taut = bits == full if want_table else never_evaluates_to(drawn, False)
            hits["tautology_rate"] += taut
    return _summarise(m, n, trials, seed, hits, leaf_counts, start)


def _summarise(
    m: int,
    n: int,
    trials: int,
    seed: int,
    hits: Dict[str, int],
    leaf_counts: Optional[List[int]],
    start: float,
) -> McReport:
    """The report of a Monte Carlo run from its hit counts and, when the
    histogram was asked for, its first-level leaf counts in trial order."""
    out: Dict[str, StatResult] = {}
    for name, count in hits.items():
        out[name] = _frequency_stat(count, trials)
    if leaf_counts is not None:
        scale = 2.0 * math.sqrt(2.0 * n)
        scaled = [x / scale for x in leaf_counts]
        ks = ks_statistic(scaled, gamma_two_half_cdf)
        mean = sum(leaf_counts) / trials
        var = sum((x - mean) ** 2 for x in leaf_counts) / max(trials - 1, 1)
        se = math.sqrt(var / trials)
        out["first_level_leaf_histogram"] = StatResult(
            estimate=None,
            stderr=None,
            ci95=None,
            extra={
                "histogram": dict(sorted(Counter(leaf_counts).items())),
                "mean": mean,
                "mean_stderr": se,
                "ks_statistic": ks,
                "ks_critical_1pct": ks_critical(0.01, trials),
                "scale": scale,
            },
        )
    seconds = time.perf_counter() - start
    return McReport(
        m=m,
        n=n,
        trials=trials,
        seed=seed,
        generator="random.Random (Mersenne Twister)",
        stats=out,
        seconds=seconds,
        trees_per_s=trials / seconds,
    )
