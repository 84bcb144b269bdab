import hashlib
import math
import random
import sys
import time
from collections import Counter

import pytest

from andortrees.analytic import expected_first_level_leaves, first_level_leaf_law
from andortrees.counting import brute_enumerate, series
from andortrees.distribution import prob
from andortrees.formula import (
    AND,
    OR,
    Node,
    TruthTable,
    decode,
    first_level_leaf_count,
    fold_root_leaves,
    fold_truth_bits,
    is_simple_tautology,
    literal_masks,
    serialize,
    tree_size,
)
from andortrees.sampler import (
    KNOWN_STATS,
    SamplerContext,
    SamplerError,
    _frequency_stat,
    _sorted_sample,
    _summarise,
    chi_square_critical,
    gamma_two_half_cdf,
    get_context,
    ks_critical,
    ks_discrete,
    ks_statistic,
    monte_carlo,
    sample_many,
    sample_uniform,
)
from oracles import (
    _force_search,
    _oracle_chi_square_critical,
    _oracle_draw,
    _oracle_truth_table,
    _oracle_upper_quantile,
)


def test_chi_square_critical_matches_the_incomplete_gamma_oracle():
    for df in range(1, 61):
        oracle = _oracle_chi_square_critical(0.01, df)
        assert abs(chi_square_critical(0.01, df) - oracle) <= 4 * math.ulp(oracle), df


def test_upper_quantile_stop_matches_all_halvings(monkeypatch):
    def critical_values():
        ks = [ks_critical(alpha, trials)
              for alpha in (0.001, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2)
              for trials in (1, 10, 100, 1000, 10_000)]
        chi = [chi_square_critical(alpha, df)
               for alpha in (0.001, 0.01, 0.05, 0.1) for df in range(1, 63)]
        return ks + chi

    got = critical_values()
    monkeypatch.setattr("andortrees.sampler._upper_quantile", _oracle_upper_quantile)
    want = critical_values()
    assert len(got) == 283
    assert [x.hex() for x in got] == [x.hex() for x in want]


@pytest.mark.parametrize("df", [0, 2.5])
def test_chi_square_critical_needs_a_positive_integer_df(df):
    with pytest.raises(ValueError, match="positive int"):
        chi_square_critical(0.01, df)


@pytest.mark.parametrize("trials", (10, 30, 100, 300, 1000))
def test_ci95_covers_the_rate_at_every_hit_count(trials):
    # exact binomial coverage of ci95: the probability that the interval
    # drawn at `trials` holds p.  The Wilson interval covers at least 0.904
    # on this grid; the floor leaves a margin of 0.014.  The Wald interval
    # p +- 1.96 se covers 0.095 at p = 0.1/N, where 0 hits (probability
    # 0.905) give (0, 0).  Just below the 1-hit lower end, about 0.18/N,
    # Wilson's coverage dips to 0.84 (Brown, Cai & DasGupta, 2001).
    intervals = [_frequency_stat(k, trials).ci95 for k in range(trials + 1)]
    low = sorted({c / trials for c in (0.1, 0.5, 1, 2, 5)} | {0.01, 0.02, 0.05, 0.1, 0.2, 0.3, 0.5})
    for p in low + [1 - p for p in low]:
        coverage = sum(
            math.comb(trials, k) * p**k * (1 - p) ** (trials - k)
            for k, (lo, hi) in enumerate(intervals)
            if lo <= p <= hi
        )
        assert coverage >= 0.89, (trials, p, coverage)


def test_ci95_at_no_hits_and_one_hit():
    assert _frequency_stat(0, 10**4).ci95 == (0.0, pytest.approx(3.84e-4, rel=1e-3))
    lo, hi = _frequency_stat(1, 300).ci95
    assert 0 < lo < 1 / 300 < hi < 1


def test_fixed_seed_reproducible():
    a = sample_uniform(15, 2, 424242)
    b = sample_uniform(15, 2, 424242)
    assert a == b
    c = sample_uniform(15, 2, 424243)
    assert a != c  # overwhelmingly likely and deterministic for these seeds


def test_sampled_sizes():
    for tree in sample_many(17, 3, 50, seed=5):
        assert tree_size(tree) == 17


def test_size_two_raises():
    with pytest.raises(SamplerError, match="empty size class"):
        sample_uniform(2, 1, 0)


def test_leaf_sampling_uniform():
    counts = Counter(serialize(t) for t in sample_many(1, 3, 12000, seed=31))
    assert len(counts) == 6
    expected = 12000 / 6
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    assert chi2 < chi_square_critical(0.01, 5)


@pytest.mark.parametrize("n", [1, 5, 8, 100, 127, 128])
def test_leaf_draw_reproduces_randrange(n):
    # a size-3 tree draws I, the place of its one internal letter, the root
    # connective and then its two leaves; a generator making the same calls
    # with one randrange(2n) per leaf must meet the same two literal indexes
    ctx = SamplerContext(n, 3)
    for seed in range(300):
        tree = ctx.sample(3, random.Random(seed))
        ref = random.Random(seed)
        ref.randrange(ctx._cum_weights(3)[-1])
        ref.sample(range(1, 1), 0)
        ref.sample(range(3), 1)
        assert tree.op == (AND if ref.randrange(2) == 0 else OR)
        got = [2 * c.literal.var - 2 + c.literal.negated for c in tree.children]
        assert got == [ref.randrange(2 * n), ref.randrange(2 * n)]


DRAW_SIZES = (1, 3, 4, 5, 7, 60, 601, 2000)


# at 2n a power of two (n = 1, 2, 4, 128) half the k-bit values are rejected,
# the most of any n; n = 127 is the widest alphabet drawn in byte blocks and
# n = 128 the narrowest drawn leaf by leaf
@pytest.mark.parametrize("n", [1, 2, 4, 5, 50, 100, 127, 128, 129, 1000])
def test_draw_matches_the_per_leaf_oracle(n):
    ctx = SamplerContext(n, max(DRAW_SIZES))
    for m in DRAW_SIZES:
        for seed in range(20 if m > 600 else 40):
            rng, ref = random.Random(seed), random.Random(seed)
            for _ in range(3):
                assert ctx.draw(m, rng) == _oracle_draw(ctx, m, ref)
                assert rng.getstate() == ref.getstate()


def test_bare_leaf_draws_no_coin():
    for n in (1, 3, 100):
        ctx = SamplerContext(n, 1)
        for seed in range(50):
            rng, ref = random.Random(seed), random.Random(seed)
            assert ctx.draw(1, rng) == (False, [0], [ref.randrange(2 * n)])
            assert rng.getstate() == ref.getstate()


def test_sample_many_trees_are_pinned():
    # the SHA-256 of these trees before sampling was split into draw and
    # build: a fixed seed keeps giving the same trees
    cases = ((1, 3, 1), (3, 1, 2), (15, 2, 3), (101, 5, 4), (600, 100, 5))
    text = "\n".join(
        serialize(t) for m, n, seed in cases for t in sample_many(m, n, 10, seed)
    )
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "5c4145c4230e6cadf303917a35028f9016d1d04965065770db4ae9d866ae17e6"
    )


# (start, stop, k): k = 0, k = n and n = 1; the k = 5/6 edge of setsize
# (21, then 21 + 4^ceil(log4(3k))) on either side of n; bounds that cross a
# power of two; the shapes of the benchmark draws; set-branch populations
# of 2^32 - 1 and past 2^32, where getrandbits spans words; and bounds
# n, ..., n-k+1 whose first or last run of one bit length starts or ends
# exactly at a power of two (the pool branch draws each run at one width;
# (0, 65, 1) and (0, 65, 2) fall to the set branch)
SAMPLE_SHAPES = [
    (0, 0, 0), (0, 1, 0), (0, 1, 1), (7, 8, 1), (0, 5, 5), (0, 100, 0),
    (0, 21, 5), (0, 22, 5), (0, 85, 6), (0, 86, 6), (1, 65, 64), (0, 64, 30),
    (0, 65, 30), (0, 513, 300), (1, 513, 300), (0, 513, 513), (0, 600, 116),
    (1, 482, 115), (0, 500, 31), (1, 467, 30), (0, 2**32 - 1, 40),
    (0, 2**40, 40), (5, 2**40 + 5, 100),
    (0, 64, 31), (0, 64, 32), (0, 64, 33), (0, 65, 1), (0, 65, 2),
    (0, 128, 64), (5, 133, 65), (0, 512, 256), (0, 16, 1), (0, 17, 2),
    (0, 8, 5),
]


@pytest.mark.parametrize("start, stop, k", SAMPLE_SHAPES)
def test_sorted_sample_replays_rng_sample(start, stop, k):
    for seed in range(100):
        rng, ref = random.Random(seed), random.Random(seed)
        got = _sorted_sample(rng, start, stop, k)
        assert got == sorted(ref.sample(range(start, stop), k))
        assert rng.getstate() == ref.getstate()


def test_monte_carlo_stats_are_pinned():
    # the SHA-256 of repr(stats) at the benchmark shapes and statistics: the
    # estimates and stderrs as monte_carlo gave them when the cuts and places
    # were drawn by rng.sample, the ci95s Wilson intervals
    cases = (
        (600, 5, ["tautology_rate", "simple_tautology_rate",
                  "function_frequency:88888888"],
         "8d9aa5e131b0f93fea517490881f6862487addb399214b4894dd586620b306d0"),
        (500, 100, ["first_level_leaf_histogram", "simple_tautology_rate"],
         "2f56c52abff0ec58b34aaee9546670ca692444dc43b069b086f66af7589abf00"),
    )
    for m, n, stats, digest in cases:
        rep = monte_carlo(m, n, 300, 11, stats)
        assert hashlib.sha256(repr(rep.stats).encode()).hexdigest() == digest


FOLD_CASES = [(m, n) for m in (1, 3, 4, 15, 101, 600) for n in (1, 2, 5, 13)]


@pytest.mark.parametrize("m, n", FOLD_CASES, ids=[f"m{m}-n{n}" for m, n in FOLD_CASES])
def test_folds_match_the_built_tree(m, n):
    ctx = SamplerContext(n, m)
    masks, full = literal_masks(n), (1 << (1 << n)) - 1
    rng = random.Random(7 * m + n)
    simple = 0
    for _ in range(60 if m > 100 else 300):
        drawn = ctx.draw(m, rng)
        tree = decode(drawn, n)
        assert tree_size(tree) == m
        assert fold_truth_bits(drawn, masks, full) == _oracle_truth_table(tree, n)
        got = fold_root_leaves(drawn)
        assert got == (first_level_leaf_count(tree), is_simple_tautology(tree))
        simple += got[1]
    if m > 3 and n <= 2:
        assert simple > 0  # the clash branch was reached


@pytest.mark.parametrize("m, n", FOLD_CASES, ids=[f"m{m}-n{n}" for m, n in FOLD_CASES])
def test_simple_rate_is_the_same_next_to_a_folded_table(m, n):
    # asked alone, simple_tautology_rate walks the root's leaves on every
    # trial; next to a folded table only or-rooted all-ones draws are walked
    trials = 60 if m > 100 else 400
    seed = 31 * m + n
    want = monte_carlo(m, n, trials, seed, ["simple_tautology_rate"])
    target = "function_frequency:" + TruthTable(n, literal_masks(n)[1]).to_hex()
    for other in ("tautology_rate", target):
        got = monte_carlo(m, n, trials, seed, ["simple_tautology_rate", other])
        assert got.stats["simple_tautology_rate"] == want.stats["simple_tautology_rate"]
    if m > 1:
        assert want.stats["simple_tautology_rate"].estimate > 0


def _node_monte_carlo(m, n, trials, seed, stats):
    """The trial loop over built trees that `monte_carlo` replaces with folds
    over the draw, kept as its oracle."""
    start = time.perf_counter()
    targets = {
        name: TruthTable.from_hex(name.split(":", 1)[1], n).bits
        for name in stats
        if name.startswith("function_frequency:")
    }
    ctx = get_context(n, m)
    rng = random.Random(seed)
    want_table = bool(targets) or ("tautology_rate" in stats and n <= 13)
    hits = {name: 0 for name in stats if name != "first_level_leaf_histogram"}
    leaf_counts = [] if "first_level_leaf_histogram" in stats else None
    for _ in range(trials):
        tree = ctx.sample(m, rng)
        bits = _oracle_truth_table(tree, n) if want_table else None
        if "simple_tautology_rate" in hits and is_simple_tautology(tree):
            hits["simple_tautology_rate"] += 1
        if "tautology_rate" in hits:
            if bits is not None:
                taut = bits == (1 << (1 << n)) - 1
            else:
                taut = _force_search(tree, n, False, 500_000) is None
            hits["tautology_rate"] += taut
        for name, mask in targets.items():
            hits[name] += bits == mask
        if leaf_counts is not None:
            leaf_counts.append(first_level_leaf_count(tree))
    return _summarise(m, n, trials, seed, hits, leaf_counts, start)


ORACLE_CASES = [(m, n) for m in (1, 3, 15, 600) for n in (1, 2, 5, 13, 14, 100)]


@pytest.mark.parametrize(
    "m, n", ORACLE_CASES, ids=[f"m{m}-n{n}" for m, n in ORACLE_CASES]
)
def test_monte_carlo_matches_node_oracle(m, n):
    # n = 13 reads tautologies off the folded table, n = 14 off built trees
    stats = list(KNOWN_STATS)
    if n <= 13:
        for bits in (literal_masks(n)[1], (1 << (1 << n)) - 1):
            stats.append("function_frequency:" + TruthTable(n, bits).to_hex())
    trials = 30 if m == 600 else 300
    seed = 1000 * m + n
    got = monte_carlo(m, n, trials, seed, stats)
    want = _node_monte_carlo(m, n, trials, seed, stats)
    assert got == want
    assert set(got.stats) == set(stats)


def test_sampled_tree_reaches_no_object_twice():
    # a sampled tree is a tree, not a DAG: consumers may key on id(node)
    for tree in sample_many(600, 5, 20, seed=606):
        seen = set()
        stack = [tree]
        while stack:
            node = stack.pop()
            assert id(node) not in seen
            seen.add(id(node))
            if isinstance(node, Node):
                stack.extend(node.children)
        assert len(seen) == 600


SUPPORT_CASES = [(3, 1), (4, 1), (5, 1), (7, 1), (5, 2)]


@pytest.mark.parametrize(
    "m, n", SUPPORT_CASES, ids=[f"{m}" if n == 1 else f"{m}-n{n}" for m, n in SUPPORT_CASES]
)
def test_uniform_over_brute_support(m, n):
    # (7, 1) and (5, 2) hold 864 and 768 trees: several internal nodes, the
    # rotation of the word and literals over two variables
    support = [serialize(t) for t in brute_enumerate(m, n)]
    trials = 100_000
    counts = Counter(serialize(t) for t in sample_many(m, n, trials, seed=900 + m))
    assert set(counts) <= set(support)
    expected = trials / len(support)
    chi2 = sum((counts.get(s, 0) - expected) ** 2 / expected for s in support)
    assert chi2 < chi_square_critical(0.01, len(support) - 1)


@pytest.mark.parametrize("n", [1, 2, 5, 100])
def test_internal_count_weights_sum_to_tree_counts(n):
    # the sampler reads no count series, so this is the link between the two
    counts = series(n, 60)
    ctx = SamplerContext(n, 60)
    for m in range(3, 61):
        assert 2 * ctx._cum_weights(m)[-1] == m * counts.a_total[m]


def test_get_context_returns_the_shared_context():
    assert get_context(2, 40) is get_context(2, 40)


def test_sampling_leaves_the_recursion_limit_alone():
    before = sys.getrecursionlimit()
    get_context(1, 5000)
    trees = sample_many(5000, 1, 3, seed=5000)
    assert [tree_size(t) for t in trees] == [5000] * 3
    assert sys.getrecursionlimit() == before


def test_monte_carlo_reports_are_bit_reproducible():
    kwargs = dict(
        m=15, n=2, trials=400, seed=90210,
        stats=["tautology_rate", "simple_tautology_rate", "first_level_leaf_histogram"],
    )
    a, b = monte_carlo(**kwargs), monte_carlo(**kwargs)
    assert a == b
    # the timing fields are left out of the comparison
    assert a.seconds > 0 and a.trees_per_s == pytest.approx(a.trials / a.seconds)


def test_monte_carlo_function_frequency_matches_exact():
    m, n, trials = 21, 1, 30000
    exact = float(prob(m, n, TruthTable.constant(n, True)))
    rep = monte_carlo(m, n, trials, 7, ["function_frequency:3"])
    stat = rep.stats["function_frequency:3"]
    assert abs(stat.estimate - exact) < 3 * math.sqrt(exact * (1 - exact) / trials)


def test_simple_rate_below_tautology_rate():
    rep = monte_carlo(
        25, 2, 4000, 11, ["simple_tautology_rate", "tautology_rate"]
    )
    simple = rep.stats["simple_tautology_rate"].estimate
    taut = rep.stats["tautology_rate"].estimate
    assert simple <= taut
    assert 0 < simple < 1


def test_mean_first_level_leaves_matches_engine():
    for n, m, trials in ((2, 400, 4000), (10, 600, 4000), (100, 1200, 3000)):
        rep = monte_carlo(m, n, trials, 100 + n, ["first_level_leaf_histogram"])
        extra = rep.stats["first_level_leaf_histogram"].extra
        exact = float(expected_first_level_leaves(n))
        # finite-size bias is O(1/m), tiny against the Monte Carlo error here
        assert abs(extra["mean"] - exact) < 3 * extra["mean_stderr"] + 0.05 * exact / m


def test_histogram_matches_exact_law():
    n, m, trials = 3, 600, 20000
    rep = monte_carlo(m, n, trials, 2024, ["first_level_leaf_histogram"])
    hist = rep.stats["first_level_leaf_histogram"].extra["histogram"]
    law = first_level_leaf_law(n, 60)
    for j in (1, 2, 3, 4, 5):
        expected = law[j]
        observed = hist.get(j, 0) / trials
        se = math.sqrt(expected * (1 - expected) / trials)
        assert abs(observed - expected) < 4 * se + 2e-3


def test_gamma_cdf_shape():
    assert gamma_two_half_cdf(0) == 0
    assert 0.59 < gamma_two_half_cdf(1.0) < 0.60  # 1 - 3/e^2
    assert gamma_two_half_cdf(10) > 0.999999


def test_ks_statistic_basics():
    uniform_cdf = lambda x: min(max(x, 0.0), 1.0)
    xs = [i / 1000 for i in range(1000)]
    assert ks_statistic(xs, uniform_cdf) < 0.002
    assert ks_statistic([0.0] * 100, uniform_cdf) == 1.0


def test_ks_discrete_compares_step_cdfs_at_the_integers():
    pmf = [0.25, 0.5, 0.25]
    assert ks_discrete({0: 10, 1: 20, 2: 10}, pmf) == 0.0
    # shifting every count up one atom moves each CDF step by one atom: the
    # distance is the largest atom
    assert ks_discrete({1: 10, 2: 20, 3: 10}, pmf) == 0.5
    # ks_statistic on the same counts also compares F(j) with F_N(j-)
    step_cdf = lambda x: sum(pmf[: int(math.floor(x)) + 1]) if x >= 0 else 0.0
    counts = [0.0] * 10 + [1.0] * 20 + [2.0] * 10
    assert ks_statistic(counts, step_cdf) == 0.5
    with pytest.raises(ValueError):
        ks_discrete({}, pmf)


def test_ks_critical_value():
    assert ks_critical(0.01, 10_000) == pytest.approx(0.016276, abs=2e-5)


def test_gamma_fit_bias_at_n100_is_structural():
    # The exact limiting law of first-level leaf counts at n=100, scaled by
    # 2*sqrt(2n), has mean ~0.942 and sits at KS distance ~0.048 from the
    # Gamma(2,1/2) limit: the n -> infinity fit is not yet inside the 1%
    # critical band at n=100 regardless of sample size.
    n = 100
    law = first_level_leaf_law(n, 4000)
    scale = 2 * math.sqrt(2 * n)
    cdf = 0.0
    worst = 0.0
    mean = 0.0
    for j, p in enumerate(law):
        x = j / scale
        worst = max(worst, abs(cdf - gamma_two_half_cdf(x)))
        cdf += p
        worst = max(worst, abs(cdf - gamma_two_half_cdf(x)))
        mean += j * p
    assert mean / scale == pytest.approx(0.9422, abs=2e-3)
    assert 0.04 < worst < 0.06
    assert worst > ks_critical(0.01, 10_000)


def test_unknown_stat_rejected():
    with pytest.raises(ValueError):
        monte_carlo(5, 1, 10, 0, ["nonsense"])


def test_zero_trials_rejected():
    with pytest.raises(ValueError):
        monte_carlo(5, 1, 0, 0, ["tautology_rate"])


def test_negative_sample_count_rejected():
    with pytest.raises(ValueError, match="count must be >= 0"):
        sample_many(5, 2, -3, 0)
    assert sample_many(5, 2, 0, 0) == []
