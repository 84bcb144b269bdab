import hashlib
import importlib
import itertools
from collections import Counter

import pytest

from andortrees.cli import main
from andortrees.complexity import (
    B_EXPANSION,
    CONTRADICTION_EXPANSION,
    TAUTOLOGY_EXPANSION,
    ExpansionStep,
    _minimal_runs,
    complexity,
    expand,
    expansion_count,
    full_table,
    is_valid_expansion,
    minimal_trees,
    reduce_irreducible,
    slots_and_bounds,
)
from andortrees.counting import BudgetError, brute_enumerate
from andortrees.distribution import DistributionError, _text, function_counts, tautology_count
from andortrees.formula import (
    Literal,
    Node,
    StratificationError,
    TruthTable,
    VariableRangeError,
    expansion_slots,
    literal_mask,
    parse_formula,
    serialize,
    tree_size,
    truth_table,
)
from andortrees.sampler import sample_many
from oracles import _oracle_expansion_count, _oracle_minimal_trees, _oracle_reduce

XOR = TruthTable(2, 0b0110)
CONJ = TruthTable(2, literal_mask(1, False, 2) & literal_mask(2, False, 2))


def test_constants_and_literals():
    rec = complexity(TruthTable.constant(2, True), 2)
    assert rec.L == 0 and rec.m_f is None and rec.witnesses is None
    rec = complexity(TruthTable.of_literal(Literal(1), 2), 2)
    assert rec.L == 2 and rec.m_f == 2 and rec.witnesses is None


def test_xor_has_complexity_seven():
    rec = complexity(XOR, 2)
    assert rec.L == 7
    assert rec.m_f == 16
    assert rec.witnesses is None
    witnesses = minimal_trees(XOR, 2)
    assert len(witnesses) == 16
    for w in witnesses:
        assert tree_size(w) == 7
        assert truth_table(w, 2) == XOR


def test_minimal_trees_of_conjunction():
    trees = minimal_trees(CONJ, 2)
    assert sorted(serialize(t) for t in trees) == ["(and x1 x2)", "(and x2 x1)"]


def test_minimal_trees_by_duality():
    disj = TruthTable(2, literal_mask(1, False, 2) | literal_mask(2, False, 2))
    assert complexity(disj, 2).m_f == complexity(CONJ, 2).m_f == 2


def test_duality_preserves_complexity():
    # swap connectives + negate leaves maps f to not-f, preserving size
    table = full_table(2)
    by_bits = {rec.f.bits: rec for rec in table}
    for bits, rec in by_bits.items():
        assert rec.L == by_bits[bits ^ 0b1111].L


# -- the engine against iterative deepening over every tree --------------------------


def _size_tables(n, budget):
    """Truth-table bits of every tree of size 1 and 3..budget, by size."""
    return {
        size: [truth_table(t, n).bits for t in brute_enumerate(size, n)]
        for size in [1] + list(range(3, budget + 1))
    }


def _iterative_deepening(f, tables):
    """(L, m_f) by the smallest size whose trees compute f, or None past the
    largest size in `tables`; constants (0, None), literals (2, 2)."""
    if f.is_constant():
        return 0, None
    if f.is_literal():
        return 2, 2
    for size, bits in tables.items():
        hits = bits.count(f.bits)
        if hits:
            return size, hits
    return None


def test_engine_matches_iterative_deepening_at_n2():
    tables = _size_tables(2, 7)
    for rec in full_table(2):
        assert (rec.L, rec.m_f) == _iterative_deepening(rec.f, tables)
        if rec.L >= 3:
            assert len(minimal_trees(rec.f, 2)) == rec.m_f


def test_engine_matches_iterative_deepening_at_n3():
    tables = _size_tables(3, 5)
    resolved = 0
    for rec in full_table(3):
        brute = _iterative_deepening(rec.f, tables)
        if brute is None:
            assert rec.L > 5
        else:
            assert (rec.L, rec.m_f) == brute
            resolved += 1
    assert resolved == 2 + 6 + 24 + 16 + 48


def test_n3_complexity_histogram():
    table = full_table(3)
    assert len(table) == 256
    assert dict(Counter(rec.L for rec in table)) == {
        0: 2, 2: 6, 3: 24, 4: 16, 5: 48, 7: 30, 8: 72, 9: 16, 10: 24, 13: 16, 17: 2,
    }
    by_bits = {rec.f.bits: rec for rec in table}
    assert (by_bits[0x96].L, by_bits[0x96].m_f) == (17, 131328)
    assert by_bits[0x69].L == 17


def _relabel(bits, n, move):
    """Truth table of x -> f(move(x)), assignments as indices 0..2^n-1."""
    return sum(((bits >> move(k)) & 1) << k for k in range(1 << n))


def test_n3_complexity_invariant_under_negations_and_permutations():
    n = 3
    L = {rec.f.bits: rec.L for rec in full_table(n)}
    full = (1 << (1 << n)) - 1
    moves = [lambda k, i=i: k ^ (1 << i) for i in range(n)]
    for perm in itertools.permutations(range(n)):
        moves.append(
            lambda k, perm=perm: sum(((k >> j) & 1) << perm[j] for j in range(n))
        )
    for bits, size in L.items():
        assert L[bits ^ full] == size
        for move in moves:
            assert L[_relabel(bits, n, move)] == size


def test_n4_conjunction_and_disjunction_of_all_inputs():
    lits = [literal_mask(v, False, 4) for v in range(1, 5)]
    conj = TruthTable(4, lits[0] & lits[1] & lits[2] & lits[3])
    disj = TruthTable(4, lits[0] | lits[1] | lits[2] | lits[3])
    for f in (conj, disj):
        rec = complexity(f, 4)
        assert (rec.L, rec.m_f) == (5, 24)  # the 4! orders of the children
    # and the minimal trees come out in serialize order
    orders = itertools.permutations(["x1", "x2", "x3", "x4"])
    want = sorted(f"(and {' '.join(order)})" for order in orders)
    assert [serialize(t) for t in minimal_trees(conj, 4)] == want


def test_minimal_trees_match_the_brute_oracle():
    checked = 0
    for n in (1, 2):
        for rec in full_table(n):
            if rec.L >= 3:
                got = [serialize(t) for t in minimal_trees(rec.f, n)]
                assert got == [serialize(t) for t in _oracle_minimal_trees(rec.f.bits, n)]
                checked += 1
    assert checked == 10


def test_minimal_trees_at_n3_number_m_f():
    counts = {}
    digest = hashlib.sha256()  # of the whole stream, function by function
    for rec in full_table(3):
        if rec.L >= 3:
            # texts and trees from one pass, as the CLI and minimal_trees read it
            runs = [(op, kids) for op, stream in _minimal_runs(rec, 3) for kids in stream]
            forms = [_text(op, kids) for op, kids in runs]
            trees = [Node(op, kids[1::2]) for op, kids in runs]
            assert len(trees) == rec.m_f
            assert forms == [serialize(t) for t in trees]
            assert forms == sorted(forms)
            digest.update("".join(form + "\n" for form in forms).encode())
            counts[rec.f.bits] = len(trees)
            for tree in trees[:: max(1, len(trees) // 50)]:
                assert tree_size(tree) == rec.L and truth_table(tree, 3) == rec.f
    assert len(counts) == 248
    assert counts[0x96] == counts[0x69] == 131328
    assert sum(counts.values()) == 317232
    assert digest.hexdigest()[:16] == "ecd21d083eea13c4"


def test_minimal_trees_over_the_enumeration_budget_raise(monkeypatch):
    f = TruthTable(4, 0x1669)
    rec = complexity(f, 4)
    assert (rec.L, rec.m_f) == (28, 45121536)
    # raised before any tree is generated
    monkeypatch.setattr(importlib.import_module("andortrees.complexity"), "_trees", None)
    with pytest.raises(BudgetError):
        minimal_trees(f, 4)
    with pytest.raises(BudgetError):
        expansion_count(f, 4, 31)


def test_complexity_past_the_engine_raises():
    conj = TruthTable(5, literal_mask(1, False, 5) & literal_mask(2, False, 5))
    with pytest.raises(DistributionError):
        complexity(conj, 5)


def test_full_table_past_the_engine_raises_before_building_tables(monkeypatch, capsys):
    """n = 5 has 2^32 truth tables: n is refused before any is built, and the
    CLI reports it as a usage error."""
    built = []

    def counted(n, bits):
        built.append(bits)
        if len(built) > 1 << 16:
            raise AssertionError("full_table builds its truth tables before checking n")
        return TruthTable(n, bits)

    monkeypatch.setattr(importlib.import_module("andortrees.complexity"), "TruthTable", counted)
    with pytest.raises(DistributionError, match="limited to n <= 4"):
        full_table(5)
    assert main(["complexity", "--n", "5", "--all"]) == 2
    assert capsys.readouterr().err == "error: function sweeps are limited to n <= 4\n"
    assert built == []


def test_minimal_trees_raises_for_literals():
    with pytest.raises(ValueError):
        minimal_trees(TruthTable.of_literal(Literal(1), 2), 2)


# -- expansions -----------------------------------------------------------------


def test_tautology_expansion_is_valid():
    base = parse_formula("(and x1 x3)", 3)
    step = ExpansionStep((), 1, parse_formula("(or x2 ~x2)", 3), TAUTOLOGY_EXPANSION)
    assert is_valid_expansion(base, step, 3)
    grown = expand(base, step)
    assert serialize(grown) == "(and x1 (or x2 ~x2) x3)"


def test_expansion_step_rejects_leaf_b_expansion():
    with pytest.raises(ValueError):
        ExpansionStep((), 0, parse_formula("x2", 3), B_EXPANSION)


def test_expand_rejects_stratification_breach():
    base = parse_formula("(and x1 x3)", 3)
    with pytest.raises(StratificationError):
        expand(base, ExpansionStep((), 0, parse_formula("(and x2 ~x2)", 3)))


def test_expand_rejects_bad_paths():
    base = parse_formula("(and x1 x3)", 3)
    insert = parse_formula("(or x2 ~x2)", 3)
    with pytest.raises(ValueError):
        expand(base, ExpansionStep((0,), 0, insert))  # a leaf, not internal
    with pytest.raises(ValueError):
        expand(base, ExpansionStep((5,), 0, insert))
    with pytest.raises(ValueError):
        expand(base, ExpansionStep((), 7, insert))


def test_function_changing_insert_is_invalid():
    base = parse_formula("(and x1 x3)", 3)
    step = ExpansionStep((), 1, parse_formula("(or x2 x2)", 3), B_EXPANSION)
    assert not is_valid_expansion(base, step, 3)


def test_contradiction_expansion_host_kind():
    base = parse_formula("(or x1 x3)", 3)
    good = ExpansionStep((), 0, parse_formula("(and x2 ~x2)", 3), CONTRADICTION_EXPANSION)
    assert is_valid_expansion(base, good, 3)
    with pytest.raises(ValueError):
        expand(base, ExpansionStep((), 0, parse_formula("(and x2 ~x2)", 3), TAUTOLOGY_EXPANSION))


# -- slots ------------------------------------------------------------------------


def test_slots_and_bounds_example():
    result = slots_and_bounds(parse_formula("(and x1 x2)", 2), 2)
    assert result == {"P_t": 3, "L": 3, "check": True}


def test_slots_refuses_non_minimal():
    big = parse_formula("(and x1 x2 (or x3 ~x3))", 3)
    with pytest.raises(ValueError):
        slots_and_bounds(big, 3)


def test_all_minimal_trees_respect_slot_bounds():
    for rec in full_table(2):
        if rec.L < 3:
            continue
        for tree in minimal_trees(rec.f, 2):
            out = slots_and_bounds(tree, 2)
            assert out["check"]
            assert out["L"] <= out["P_t"] <= (3 * out["L"]) // 2


def test_slot_count_is_expansion_slots_for_every_minimal_tree_at_n2():
    table = [rec for rec in full_table(2) if rec.L >= 3]
    trees = [w for rec in table for w in minimal_trees(rec.f, 2)]
    assert len(trees) == sum(rec.m_f for rec in table) == 48
    for tree in trees:
        assert slots_and_bounds(tree, 2)["P_t"] == expansion_slots(tree)


# -- irreducibility -----------------------------------------------------------------


def test_reduce_single_expansion():
    tree = parse_formula("(and x1 x2 (or x3 ~x3))", 3)
    reduced, trace = reduce_irreducible(tree, 3)
    assert serialize(reduced) == "(and x1 x2)"
    assert [serialize(t) for t in trace] == ["(or x3 ~x3)"]


def test_reduce_minimal_tree_is_identity():
    tree = parse_formula("(and x1 x2)", 2)
    reduced, trace = reduce_irreducible(tree, 2)
    assert reduced == tree and trace == []


def test_reduce_collapses_hosts():
    tree = parse_formula("(and (or x1 ~x1) (or x2 x3))", 3)
    reduced, _ = reduce_irreducible(tree, 3)
    assert serialize(reduced) == "(or x2 x3)"
    # splice into the parent when the host sits below the root
    tree2 = parse_formula("(or x1 (and (or x2 x3) (or x1 ~x1)))", 3)
    reduced2, _ = reduce_irreducible(tree2, 3)
    assert serialize(reduced2) == "(or x1 x2 x3)"


def test_reduce_preserves_function_and_is_idempotent():
    for m in (9, 15, 23):
        for tree in sample_many(m, 2, 350, seed=777 + m):
            reduced, trace = reduce_irreducible(tree, 2)
            assert truth_table(reduced, 2) == truth_table(tree, 2)
            again, trace2 = reduce_irreducible(reduced, 2)
            assert again == reduced
            assert trace2 == []
            # each removal drops the subtree; a collapse can also dissolve the
            # host and the surviving child's root (splice into the parent)
            removed = sum(tree_size(t) for t in trace)
            assert tree_size(reduced) + removed <= m
            assert tree_size(reduced) + removed + 2 * len(trace) >= m


def test_reduce_matches_the_restart_oracle():
    """Result and trace equal those of restarting the search for a removable
    child from the root after each removal, on the inputs above."""
    cases = [
        (parse_formula(text, 3), 3)
        for text in (
            "(and x1 x2 (or x3 ~x3))",
            "(and (or x1 ~x1) (or x2 x3))",
            "(or x1 (and (or x2 x3) (or x1 ~x1)))",
        )
    ]
    cases += [(tree, 2) for m in (9, 15, 23) for tree in sample_many(m, 2, 350, seed=777 + m)]
    cases += [(tree, 2) for tree in brute_enumerate(6, 2)]
    removals = 0
    for tree, n in cases:
        reduced, trace = reduce_irreducible(tree, n)
        expected, expected_trace = _oracle_reduce(tree, n)
        assert serialize(reduced) == serialize(expected)
        assert [serialize(t) for t in trace] == [serialize(t) for t in expected_trace]
        removals += len(trace)
    assert removals > 1000


@pytest.mark.parametrize(
    "text, n, want",
    [
        ("(or x5 (and x1 ~x1))", 5, "x5"),
        ("(and x13 (or x2 ~x2) (or x1 x3))", 13, "(and x13 (or x1 x3))"),
    ],
)
def test_reduce_runs_up_to_the_fold_width(text, n, want):
    reduced, trace = reduce_irreducible(parse_formula(text, n), n)
    assert serialize(reduced) == want
    assert len(trace) == 1


def test_reduce_and_expansion_check_refuse_past_the_fold_width():
    tree = parse_formula("(and x1 x3)", 3)
    step = ExpansionStep((), 1, parse_formula("(or x2 ~x2)", 3), TAUTOLOGY_EXPANSION)
    with pytest.raises(ValueError, match="limited to n <= 13"):
        reduce_irreducible(tree, 14)
    with pytest.raises(ValueError, match="limited to n <= 13"):
        is_valid_expansion(tree, step, 14)


def test_reduce_rejects_a_variable_beyond_n():
    with pytest.raises(VariableRangeError):
        reduce_irreducible(parse_formula("(or x1 (and x5 ~x5))", 5), 4)


def test_expansion_check_past_n4():
    base = parse_formula("(and x1 x5)", 5)
    good = ExpansionStep((), 1, parse_formula("(or x2 ~x2)", 5), TAUTOLOGY_EXPANSION)
    bad = ExpansionStep((), 1, parse_formula("(or x2 x4)", 5), B_EXPANSION)
    assert is_valid_expansion(base, good, 5)
    assert not is_valid_expansion(base, bad, 5)


# -- expansion counting ----------------------------------------------------------------


def test_expansion_count_no_room():
    assert expansion_count(CONJ, 2, 1) == 0  # m < L
    assert expansion_count(CONJ, 2, 3) == 0
    assert expansion_count(CONJ, 2, 5) == 0  # no constant subtree of size 2


def test_expansion_count_at_size_six():
    assert expansion_count(CONJ, 2, 6) == 24


def test_expansion_count_matches_reduction_census():
    # size-6 trees computing a function with L = 3 that reduce to a minimal
    # tree are exactly the single expansions of its minimal trees.  Only at
    # m = L + 3: from m = L + 4 on, the census also counts trees whose
    # reduction collapses a node (264 against 216 expansions for x1 and x2
    # at m = 7), so it is no oracle there.
    m = 6
    fs = [TruthTable(2, bits) for bits in range(16)]
    fs = [f for f in fs if not (f.is_constant() or f.is_literal()) and complexity(f, 2).L == 3]
    assert len(fs) == 8
    census = Counter()
    for tree in brute_enumerate(m, 2):
        reduced, _ = reduce_irreducible(tree, 2)
        if tree_size(reduced) == 3:
            census[truth_table(tree, 2).bits] += 1
    for f in fs:
        assert census[f.bits] == expansion_count(f, 2, m) == 24


def test_expansion_count_matches_the_listing_oracle():
    # every n = 2 function with L >= 3 at m = L..L+5, and two n = 3
    # functions at m = L..L+4; the listing reaches no tree twice, which is
    # the injectivity step of the identity expansion_count rests on
    n2 = [TruthTable(2, bits) for bits in range(16)]
    cases = [(f, 2, 5) for f in n2 if not (f.is_constant() or f.is_literal())]
    cases += [(TruthTable(3, 0x01), 3, 4), (TruthTable(3, 0x17), 3, 4)]
    checked = 0
    for f, n, extra in cases:
        L = complexity(f, n).L
        for m in range(L, L + extra + 1):
            distinct, listed = _oracle_expansion_count(f, n, m)
            assert distinct == listed == expansion_count(f, n, m)
            checked += 1
    assert checked == 70


def test_expansion_upper_bound():
    for f in (CONJ, TruthTable(2, 0b0111)):
        rec = complexity(f, 2)
        for m in range(rec.L + 3, 10):
            count = expansion_count(f, 2, m)
            cap = rec.m_f * ((3 * rec.L) // 2) * tautology_count(m - rec.L, 2)
            assert count <= cap


def test_expansion_lower_bound_sandwich():
    # every single expansion computes f, so the census of trees computing f
    # dominates the expansion count
    for bits in range(16):
        f = TruthTable(2, bits)
        if f.is_constant() or f.is_literal():
            continue
        rec = complexity(f, 2)
        if not 3 <= rec.L <= 5:
            continue
        for m in range(rec.L + 3, 10):
            table = function_counts(m, 2)
            assert table.total(bits) >= expansion_count(f, 2, m)
