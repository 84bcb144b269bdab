import ast
import builtins
import fnmatch
import importlib.util
import marshal
import os
import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from math import factorial
from operator import add, mul, sub

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import andortrees.distribution as dist_mod
from andortrees.cli import main
from andortrees.counting import brute_enumerate, series
from andortrees.distribution import (
    DistributionError,
    exact_distribution,
    function_counts,
    limit_estimate,
    prob,
    prob_ge,
    tautology_count,
)
from andortrees.complexity import full_table
from andortrees.formula import (
    AND,
    OR,
    Leaf,
    Literal,
    Node,
    TruthTable,
    literal_mask,
    literal_masks,
    serialize,
    truth_table,
)
from oracles import _oracle_incidence, _oracle_orbit_tables, _oracle_transform


def lit_table(var, n, neg=False):
    return TruthTable.of_literal(Literal(var, neg), n)


def test_single_leaves():
    table = function_counts(1, 1)
    for f in (lit_table(1, 1), lit_table(1, 1, True)):
        assert table.and_rooted[f.bits] == 1
        assert table.or_rooted[f.bits] == 1
        assert table.total(f.bits) == 1  # one leaf, not two


def test_size_three_one_variable():
    table = function_counts(3, 1)
    true_bits = TruthTable.constant(1, True).bits
    assert table.or_rooted[true_bits] == 2
    assert table.and_rooted[true_bits] == 0
    assert prob(3, 1, lit_table(1, 1)) == Fraction(1, 4)
    assert prob(3, 1, TruthTable.constant(1, True)) == Fraction(1, 4)


def test_empty_size_class():
    with pytest.raises(DistributionError, match="empty size class"):
        prob(2, 1, lit_table(1, 1))


def test_mass_conservation():
    for n in (1, 2):
        for m in (1, 3, 5, 8, 13):
            dist = exact_distribution(m, n)
            assert sum(dist.probabilities.values()) == 1


def test_rooted_sums_match_series():
    for n in (1, 2):
        cs = series(n, 10)
        for m in range(1, 11):
            table = function_counts(m, n)
            assert sum(table.and_rooted) == cs.a_hat[m]
            assert sum(table.or_rooted) == cs.a_hat[m]


def test_counts_match_brute_enumeration_by_root():
    for n in (1, 2):
        for m in range(1, 9):
            and_seen = Counter()
            or_seen = Counter()
            for tree in brute_enumerate(m, n):
                bits = truth_table(tree, n).bits
                if isinstance(tree, Leaf):
                    and_seen[bits] += 1
                    or_seen[bits] += 1
                elif tree.op == AND:
                    and_seen[bits] += 1
                else:
                    or_seen[bits] += 1
            table = function_counts(m, n)
            for bits in range(1 << (1 << n)):
                assert table.and_rooted[bits] == and_seen.get(bits, 0)
                assert table.or_rooted[bits] == or_seen.get(bits, 0)


def test_duality_complement_map():
    # swapping connectives and negating leaves sends or-rooted trees
    # computing f to and-rooted trees computing not-f; the engine derives
    # and_rooted this way, so this holds by construction: the oracle test
    # below checks both connectives independently
    for n in (1, 2):
        full = (1 << (1 << n)) - 1
        for m in (3, 5, 8):
            table = function_counts(m, n)
            for bits in range(full + 1):
                assert table.or_rooted[bits] == table.and_rooted[bits ^ full]


def test_leaf_negation_map():
    # negating every leaf maps and-rooted trees computing f(x) to and-rooted
    # trees computing f(not x): permute assignments by complementation
    for n in (1, 2):
        size = 1 << n
        full = (1 << size) - 1
        for m in (3, 6):
            table = function_counts(m, n)
            for bits in range(full + 1):
                permuted = 0
                for k in range(size):
                    if (bits >> k) & 1:
                        permuted |= 1 << (size - 1 - k)
                assert table.and_rooted[bits] == table.and_rooted[permuted]


def test_variable_permutation_symmetry():
    n = 2
    m = 7
    table = function_counts(m, n)
    # swap x1 and x2: assignment bits swap
    for bits in range(16):
        swapped = 0
        for k in range(4):
            ks = ((k & 1) << 1) | ((k >> 1) & 1)
            if (bits >> k) & 1:
                swapped |= 1 << ks
        assert table.total(bits) == table.total(swapped)


def test_prob_ge_single_literal():
    assert prob_ge(1, 1, lit_table(1, 1)) == Fraction(1, 2)


def test_prob_ge_dominates_true():
    for m in (3, 5, 9):
        assert prob_ge(m, 2, lit_table(1, 2)) >= prob(
            m, 2, TruthTable.constant(2, True)
        )


def test_prob_ge_matches_brute_force():
    n, m = 2, 5
    f0 = TruthTable(n, literal_mask(1, False, n) & literal_mask(2, False, n))
    count = 0
    for tree in brute_enumerate(m, n):
        g = truth_table(tree, n)
        if g.dominates(f0):
            count += 1
    assert prob_ge(m, n, f0) == Fraction(count, series(n, m).a_total[m])


def test_prob_ge_rejects_constants():
    with pytest.raises(ValueError):
        prob_ge(3, 1, TruthTable.constant(1, True))


def test_true_false_symmetry_every_size():
    for n in (1, 2, 3):
        full = (1 << (1 << n)) - 1
        for m in range(1, 41):
            table = function_counts(m, n)
            assert table.total(full) == table.total(0)


def test_literal_symmetry_under_negation():
    for m in (1, 3, 7, 12):
        assert prob(m, 1, lit_table(1, 1)) == prob(m, 1, lit_table(1, 1, True))


def test_limit_estimate_convergence():
    for n in (1, 2):
        rep = limit_estimate(n, TruthTable.constant(n, True), M=60, tol=1e-4)
        assert rep.converged
        assert 0.12 < rep.estimate < 0.5
        assert abs(rep.odd_tail - rep.even_tail) <= 1e-4


def test_limit_estimate_averages_each_parity_over_the_last_eleven_sizes():
    f = TruthTable.constant(2, True)
    rep = limit_estimate(2, f, M=20)
    assert rep.window == 10
    odd = [float(prob(m, 2, f)) for m in range(11, 21, 2)]
    even = [float(prob(m, 2, f)) for m in range(10, 21, 2)]
    assert rep.odd_tail == sum(odd) / len(odd)
    assert rep.even_tail == sum(even) / len(even)


def test_limit_estimate_reports_nonconvergence():
    rep = limit_estimate(1, TruthTable.constant(1, True), M=12, tol=1e-12)
    assert not rep.converged  # never an exception


def test_limit_estimate_requires_reasonable_M():
    with pytest.raises(ValueError):
        limit_estimate(1, TruthTable.constant(1, True), M=5)


def test_tautology_count_examples():
    assert tautology_count(3, 1) == 2
    assert tautology_count(1, 1) == 0


def test_n5_rejected():
    with pytest.raises(DistributionError):
        function_counts(3, 5)


def test_theta_trend_band():
    # prob(m, n, x1 and x2) * n^3 stays inside a fixed band across n = 2, 3, 4
    # at a fixed moderately large size; golden band recorded from this code.
    values = {}
    for n in (2, 3, 4):
        conj = TruthTable(n, literal_mask(1, False, n) & literal_mask(2, False, n))
        values[n] = float(prob(14, n, conj)) * n**3
    assert values[2] == pytest.approx(0.252065, rel=1e-4)
    assert values[3] == pytest.approx(0.205049, rel=1e-4)
    assert values[4] == pytest.approx(0.184253, rel=1e-4)
    assert all(0.15 <= v <= 0.30 for v in values.values())


def test_n4_totals_match_series_and_true_false_symmetry():
    a_total = series(4, 8).a_total
    full = (1 << 16) - 1
    for m in range(1, 9):
        table = function_counts(m, 4)
        assert sum(map(table.total, range(full + 1))) == a_total[m]
        assert table.total(full) == table.total(0)


@pytest.mark.parametrize("m", [0, -1])
def test_sizes_below_one_are_rejected_before_any_counting(monkeypatch, m):
    def untouched(*args):
        raise AssertionError("series or the engine was consulted")

    monkeypatch.setattr(dist_mod, "series", untouched)
    monkeypatch.setattr(dist_mod, "_get_engine", untouched)
    x1 = lit_table(1, 2)
    for query in (
        lambda: prob(m, 2, x1),
        lambda: prob_ge(m, 2, x1),
        lambda: tautology_count(m, 2),
        lambda: exact_distribution(m, 2),
        lambda: function_counts(m, 2),
    ):
        with pytest.raises(ValueError, match="m must be >= 1"):
            query()


_QUERY_SIZES = [(1, m) for m in (1, 2, 3, 6)] + [(2, m) for m in (1, 2, 3, 7)] + [
    (3, m) for m in (1, 2, 3, 5)
] + [(4, m) for m in (1, 2, 3, 8)]


@pytest.mark.parametrize("n,m", _QUERY_SIZES)
def test_orbit_queries_match_the_per_mask_view(n, m):
    table = function_counts(m, n)
    space = 1 << (1 << n)
    full = space - 1
    total = series(n, m).a_total[m]
    assert tautology_count(m, n) == table.total(full)
    rng = random.Random(100 * n + m)
    masks = range(space) if n <= 3 else rng.sample(range(space), 300)
    f0s = [g for g in masks if g not in (0, full)]
    for constant in (0, full):
        with pytest.raises(ValueError, match="non-constant"):
            prob_ge(m, n, TruthTable(n, constant))
    if total == 0:
        with pytest.raises(DistributionError, match="empty size class"):
            exact_distribution(m, n)
        with pytest.raises(DistributionError, match="empty size class"):
            prob(m, n, TruthTable(n, masks[0]))
        with pytest.raises(DistributionError, match="empty size class"):
            prob_ge(m, n, TruthTable(n, f0s[0]))
        return
    probs = exact_distribution(m, n).probabilities
    want = {g: Fraction(table.total(g), total) for g in range(space) if table.total(g)}
    assert probs == want
    assert list(probs) == sorted(probs)
    assert sum(probs.values()) == 1
    for g in masks:
        assert prob(m, n, TruthTable(n, g)) == Fraction(table.total(g), total)
    mass = _superset_sums(list(map(table.total, range(space))), n)
    for f0 in f0s:
        assert prob_ge(m, n, TruthTable(n, f0)) == Fraction(mass[f0], total)


def _superset_sums(v: list, n: int) -> list:
    """r[f] = sum of v[g] over the masks g >= f: one pass per assignment bit."""
    r = list(v)
    for k in range(1 << n):
        bit = 1 << k
        for f in range(len(r)):
            if not f & bit:
                r[f] += r[f | bit]
    return r


@pytest.mark.parametrize("n", [1, 2, 3])
def test_prob_ge_matches_the_per_mask_superset_sums(n):
    full = (1 << (1 << n)) - 1
    for m in [1] + list(range(3, 31)):
        table = function_counts(m, n)
        total = series(n, m).a_total[m]
        mass = _superset_sums(list(map(table.total, range(full + 1))), n)
        for f0 in range(1, full):
            assert prob_ge(m, n, TruthTable(n, f0)) == Fraction(mass[f0], total)


# ---------------------------------------------------------------------------
# the engine against an independent oracle
# ---------------------------------------------------------------------------


def _naive_zeta_subset(v, bits):
    v = v[:]
    for b in range(bits):
        bit = 1 << b
        for mask in range(len(v)):
            if mask & bit:
                v[mask] += v[mask ^ bit]
    return v


def _naive_mobius_subset(v, bits):
    v = v[:]
    for b in range(bits):
        bit = 1 << b
        for mask in range(len(v)):
            if mask & bit:
                v[mask] -= v[mask ^ bit]
    return v


def _naive_zeta_superset(v, bits):
    v = v[:]
    for b in range(bits):
        bit = 1 << b
        for mask in range(len(v)):
            if not mask & bit:
                v[mask] += v[mask | bit]
    return v


def _naive_mobius_superset(v, bits):
    v = v[:]
    for b in range(bits):
        bit = 1 << b
        for mask in range(len(v)):
            if not mask & bit:
                v[mask] -= v[mask | bit]
    return v


def _oracle_layers(n, M):
    """And- and or-rooted layers for sizes 1..M, each connective by its own
    per-mask sequence DP: or-roots in subset-zeta space over and-rooted
    children, and-roots in superset-zeta space over or-rooted children."""
    bits = 1 << n
    space = 1 << bits
    leaf = [0] * space
    for var in range(1, n + 1):
        for neg in (False, True):
            leaf[literal_mask(var, neg, n)] = 1
    XO, QO, XA, QA = ([[0] for _ in range(space)] for _ in range(4))
    and_layers, or_layers = [None], [None]
    for m in range(1, M + 1):
        if m == 1:
            and_layer, or_layer = leaf[:], leaf[:]
        else:
            or_layer = _naive_mobius_subset([QO[h][m - 1] for h in range(space)], bits)
            and_layer = _naive_mobius_superset([QA[h][m - 1] for h in range(space)], bits)
        and_layers.append(and_layer)
        or_layers.append(or_layer)
        for X, Q, z in (
            (XO, QO, _naive_zeta_subset(and_layer, bits)),
            (XA, QA, _naive_zeta_superset(or_layer, bits)),
        ):
            for h in range(space):
                Xh, Qh = X[h], Q[h]
                Xh.append(z[h])
                Qh.append(sum((Xh[i] + Qh[i]) * Xh[m - i] for i in range(1, m)))
    return and_layers, or_layers


@pytest.mark.parametrize("n,M", [(1, 20), (2, 20), (3, 20), (4, 6)])
def test_engine_matches_independent_oracle(n, M):
    and_layers, or_layers = _oracle_layers(n, M)
    for m in range(1, M + 1):
        table = function_counts(m, n)
        assert list(table.and_rooted) == and_layers[m]
        assert list(table.or_rooted) == or_layers[m]


def _butterfly(v, op):
    """A copy of v with v[mask] = op(v[mask], v[mask ^ bit]) applied for each
    bit in turn, at every mask that has the bit set, as whole-slice steps."""
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


def _zeta_subset(v):
    """Subset sums: result[mask] = sum of v[sub] over sub within mask."""
    return _butterfly(v, add)


def _mobius_subset(v):
    """Inverse of _zeta_subset."""
    return _butterfly(v, sub)


def _full_vector_layers(n, M):
    """OR layers for sizes 1..M from the recurrence of the module docstring
    on whole vectors over all 2^(2^n) masks, with no use of symmetry.  One
    test reads them, n = 4 to size 12 taking about a second."""
    space = 1 << (1 << n)
    or_layers, X, S = [None], [None], [None]
    for m in range(1, M + 1):
        if m == 1:
            or_layer = [0] * space
            for mask in literal_masks(n):
                or_layer[mask] = 1
        else:
            or_layer = _mobius_subset(list(map(sub, S[m - 1], X[m - 1])))
        x = _zeta_subset(or_layer[::-1])  # the AND layer, by duality
        s = x
        for i in range(1, m):
            s = list(map(add, s, map(mul, S[i], X[m - i])))
        or_layers.append(or_layer)
        X.append(x)
        S.append(s)
    return or_layers


@pytest.mark.parametrize("n,M", [(1, 30), (2, 30), (3, 30), (4, 12)])
def test_engine_matches_full_vector_engine(n, M):
    or_layers = _full_vector_layers(n, M)
    for m in range(1, M + 1):
        table = function_counts(m, n)
        assert list(table.or_rooted) == or_layers[m]
        assert list(table.and_rooted) == or_layers[m][::-1]


def _submasks(mask):
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


@given(
    st.integers(1, 8).flatmap(
        lambda bits: st.lists(
            st.integers(-(10**30), 10**30), min_size=1 << bits, max_size=1 << bits
        )
    )
)
@settings(max_examples=60, deadline=None)
def test_slice_transforms_match_subset_definitions(v):
    zeta = [sum(v[t] for t in _submasks(s)) for s in range(len(v))]
    mobius = [
        sum((-1) ** bin(s ^ t).count("1") * v[t] for t in _submasks(s))
        for s in range(len(v))
    ]
    assert _zeta_subset(v) == zeta
    assert _mobius_subset(v) == mobius
    assert _mobius_subset(_zeta_subset(v)) == v


# ---------------------------------------------------------------------------
# B_n-orbits and the transforms restricted to them
# ---------------------------------------------------------------------------


def _tables(n):
    """The orbit ids, representatives and zeta columns the engine reads at n."""
    engine = dist_mod._Engine(n)
    return engine.orbit, engine.reps, dist_mod._load_columns(n)


@pytest.mark.parametrize("n,orbits", [(1, 3), (2, 6), (3, 22), (4, 402)])
def test_orbit_tables(n, orbits):
    orbit, reps, _ = _tables(n)
    space = 1 << (1 << n)
    assert len(orbit) == space
    assert len(reps) == orbits
    sizes = Counter(orbit)
    assert sorted(sizes) == list(range(orbits))
    assert sum(sizes.values()) == space
    group = 2**n * factorial(n)
    assert all(group % size == 0 for size in sizes.values())
    # each representative is the smallest mask of its orbit
    assert [orbit[r] for r in reps] == list(range(orbits))
    assert all(reps[o] <= mask for mask, o in enumerate(orbit))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_orbit_tables_match_the_n_generator_oracle(n):
    # every n up to HARD_MAX_VARS: the shipped orbits against a search under
    # n generators, the engine's tuples against the oracle's lists element
    # by element
    orbit, reps, _ = _tables(n)
    assert type(orbit) is tuple and type(reps) is tuple
    want_orbit, want_reps = _oracle_orbit_tables(n)
    assert list(orbit) == want_orbit
    assert list(reps) == want_reps


def test_orbit_tables_peak_memory():
    # at n = 4 the id tuple (0.52 MB) holds one int object per orbit, and
    # the engine keeps it once, as itemgetter keeps an exact tuple of its
    # items as it is.  CPython 3.11 measures 0.548 MB live after _Engine(4)
    # and a peak of 0.918 MB once the columns are read too; a copied id
    # table adds 0.52 MB to both.
    tracemalloc.start()
    try:
        engine = dist_mod._Engine(4)
        live, _ = tracemalloc.get_traced_memory()
        dist_mod._load_columns(4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert live < 600_000
    assert peak < 1_000_000
    assert len(set(map(id, engine.orbit))) <= 402
    assert engine.per_mask.__reduce__()[1] is engine.orbit


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_incidence_rows_match_the_submask_oracle(n):
    # the columns are the oracle's zeta rows transposed, the diagonal of ones
    # left out, and every entry lies below the diagonal in orbit-id order
    orbit, reps, columns = _tables(n)
    zeta_rows, _ = _oracle_incidence(orbit, reps)
    want = [{} for _ in reps]
    for f, (ids, coeffs) in enumerate(zeta_rows):
        row = dict(zip(ids, coeffs))
        assert row.pop(f) == 1
        for o, c in row.items():
            want[o][f] = c
    assert [dict(zip(ids, coeffs)) for ids, coeffs in columns] == want
    assert all(f > o for o, (ids, _) in enumerate(columns) for f in ids)
    # ids ascend in each column, so _zeta and _mobius add in id order
    assert all(list(ids) == sorted(set(ids)) for ids, _ in columns)


def test_shipped_tables_are_the_generator_output_and_are_packaged(tmp_path, monkeypatch):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = importlib.util.spec_from_file_location(
        "write_bn_tables", os.path.join(root, "scripts", "write_bn_tables.py")
    )
    generator = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generator)
    # the shipped files load to exactly the generator's values
    names = set()
    for n in range(1, dist_mod.HARD_MAX_VARS + 1):
        orbit, reps, columns = generator.values(n)
        assert dist_mod._load_orbits(n) == (orbit, reps)
        assert [(list(ids), list(c)) for ids, c in dist_mod._load_columns(n)] == columns
        names |= set(generator.files(n))
    shipped = set(os.listdir(dist_mod._TABLES_DIR))
    assert shipped == names
    # a missing file names itself and the command that rebuilds it
    monkeypatch.setattr(dist_mod, "_TABLES_DIR", str(tmp_path))
    for load, name in ((dist_mod._load_orbits, "orbits_n2.marshal"),
                       (dist_mod._load_columns, "zeta_n2.bin")):
        with pytest.raises(DistributionError) as error:
            load(2)
        assert name in str(error.value)
        assert "python scripts/write_bn_tables.py" in str(error.value)
    # the package data of pyproject.toml covers every shipped file (read
    # without tomllib, which Python 3.10 lacks)
    with open(os.path.join(root, "pyproject.toml")) as fh:
        section = fh.read().split("[tool.setuptools.package-data]\n", 1)[1].split("\n[", 1)[0]
    entries = dict(line.split(" = ", 1) for line in section.strip().splitlines())
    patterns = ast.literal_eval(entries["andortrees"])
    for name in shipped:
        assert any(fnmatch.fnmatch(f"tables/{name}", pattern) for pattern in patterns), name


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_complement_permutes_orbits(n):
    engine = dist_mod._Engine(n)
    full = len(engine.orbit) - 1
    assert type(engine.comp) is tuple
    assert sorted(engine.comp) == list(range(len(engine.reps)))
    assert all(engine.comp[o] == engine.orbit[full ^ g] for g, o in enumerate(engine.orbit))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_orbit_transforms_match_butterfly(n):
    orbit, reps, columns = _tables(n)
    zeta_rows, mobius_rows = _oracle_incidence(orbit, reps)
    rng = random.Random(7 + n)
    big = lambda: rng.choice((-1, 1)) * rng.randrange(1, 10**20)
    vectors = [[big() for _ in reps] for _ in range(3)]  # dense
    for _ in range(4):  # sparse: 1 to 25 nonzero orbits
        v = [0] * len(reps)
        for o in rng.sample(range(len(reps)), min(rng.randint(1, 25), len(reps))):
            v[o] = big()
        vectors.append(v)
    for v in vectors:
        full = [v[o] for o in orbit]  # a B_n-invariant vector
        want_z, want_mu = _zeta_subset(full), _mobius_subset(full)
        z, mu = dist_mod._zeta(columns, v), dist_mod._mobius(columns, v)
        assert z == [want_z[r] for r in reps] == _oracle_transform(zeta_rows, v)
        assert mu == [want_mu[r] for r in reps] == _oracle_transform(mobius_rows, v)
        assert dist_mod._mobius(columns, z) == v
        assert dist_mod._zeta(columns, mu) == v


@pytest.mark.parametrize(
    "n, m", [(n, m) for n in (1, 2) for m in range(2, 8)] + [(3, m) for m in range(2, 7)]
)
def test_generated_trees_are_the_brute_size_class(n, m):
    """Each (mask, root) stream of the generator is the size-m class of
    `brute_enumerate` filtered to that mask and root, in the same order, so
    over every mask and both roots each tree comes once, under its own mask
    and root; and each run's text is the text of its tree."""
    want = {}
    for tree in brute_enumerate(m, n):
        want.setdefault((truth_table(tree, n).bits, tree.op), []).append(serialize(tree))
    for op in (AND, OR):
        for f in range(1 << (1 << n)):
            runs = list(dist_mod._trees(n, m, f, op))
            got = [serialize(Node(op, kids[1::2])) for kids in runs]
            assert got == want.get((f, op), []), (f, op)
            assert [dist_mod._text(op, kids) for kids in runs] == got, (f, op)


def test_the_old_cache_variable_is_inert(tmp_path, monkeypatch, capsys):
    """ANDORTREES_CACHE_DIR once named a directory of engine files; now no
    query opens or writes anything there, even a file in the old format."""
    engine = dist_mod._Engine(1)
    engine.extend(9)
    doubled = lambda layers: [None] + [[2 * c for c in v] for v in layers[1:]]
    bogus = marshal.dumps({
        "format": "andortrees-engine-4", "n": 1, "or_layers": doubled(engine.or_layers),
        "X": doubled(engine.X), "S": doubled(engine.S),
    })
    (tmp_path / "andortrees-engine-4_n1.marshal").write_bytes(bogus)
    monkeypatch.setenv("ANDORTREES_CACHE_DIR", str(tmp_path))
    monkeypatch.setattr(dist_mod, "_engines", {})
    opened = []

    def recording(real):
        def record(path, *args, **kwargs):
            opened.append(str(path))
            return real(path, *args, **kwargs)
        return record

    monkeypatch.setattr(builtins, "open", recording(builtins.open))
    monkeypatch.setattr(os, "open", recording(os.open))
    table = function_counts(3, 1)
    assert (table.or_rooted, table.and_rooted) == ((0, 1, 1, 2), (2, 1, 1, 0))
    parity = {rec.f.bits: rec for rec in full_table(3)}[0x96]
    assert (parity.L, parity.m_f) == (17, 131328)
    assert main(["dist", "--n", "1", "--m", "4"]) == 0
    assert capsys.readouterr().out == (
        "truth_table_hex,count_and,count_or,probability\n"
        "0,6,0,3/8\n1,1,1,1/8\n2,1,1,1/8\n3,0,6,3/8\n"
    )
    assert opened and not [path for path in opened if path.startswith(str(tmp_path))]
    assert os.listdir(tmp_path) == ["andortrees-engine-4_n1.marshal"]
    assert (tmp_path / "andortrees-engine-4_n1.marshal").read_bytes() == bogus
