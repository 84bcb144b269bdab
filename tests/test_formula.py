import copy
import io
import pickle
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from andortrees.cli import main as cli_main
from andortrees.complexity import (
    TAUTOLOGY_EXPANSION,
    ExpansionStep,
    expand,
    is_valid_expansion,
    reduce_irreducible,
    slots_and_bounds,
)
from andortrees.counting import brute_enumerate, series
from andortrees.formula import (
    AND,
    OR,
    ArityError,
    FormulaError,
    Leaf,
    Literal,
    Node,
    ParseError,
    SearchBudgetError,
    StratificationError,
    TruthTable,
    VariableRangeError,
    decode,
    encode,
    evaluate,
    expansion_slots,
    first_level_leaf_count,
    fold_truth_bits,
    internal_count,
    is_contradiction,
    is_simple_contradiction,
    is_simple_tautology,
    is_simple_x_tree,
    is_tautology,
    literal_mask,
    literal_masks,
    never_evaluates_to,
    parse_formula,
    serialize,
    tree_size,
    truth_table,
)
from andortrees.sampler import SamplerContext, sample_many
from oracles import _bitwise_literal_mask, _force_search, _oracle_truth_table


def leaf(v, neg=False):
    return Leaf(Literal(v, neg))


# -- strategies ----------------------------------------------------------------


def _leaves(n):
    return st.builds(
        lambda v, neg: Leaf(Literal(v, neg)), st.integers(1, n), st.booleans()
    )


def _rooted(n, op, depth):
    """Trees rooted exactly at `op`, stratified by construction."""
    other = OR if op == AND else AND
    child = _leaves(n) if depth <= 1 else st.one_of(_leaves(n), _rooted(n, other, depth - 1))
    return st.builds(
        lambda kids: Node(op, tuple(kids)),
        st.lists(child, min_size=2, max_size=3),
    )


def tree_strategy(n=3, depth=3):
    return st.one_of(_leaves(n), _rooted(n, AND, depth), _rooted(n, OR, depth))


# -- parsing / serialising -------------------------------------------------------


def test_parse_two_leaf_or():
    tree = parse_formula("(or x1 ~x1)", 1)
    assert tree == Node(OR, (leaf(1), leaf(1, True)))


def test_parse_rejects_arity_one():
    with pytest.raises(ArityError):
        parse_formula("(and x1)", 1)


def test_parse_rejects_stratification_violation():
    with pytest.raises(StratificationError):
        parse_formula("(or x1 (or x2 x3))", 3)


def test_parse_rejects_out_of_range_variable():
    with pytest.raises(VariableRangeError):
        parse_formula("(or x1 x7)", 3)


def test_parse_reports_position():
    with pytest.raises(ParseError) as err:
        parse_formula("(or x1 y2)", 2)
    assert "position" in str(err.value)


@pytest.mark.parametrize(
    "text, error, message, position",
    [
        ("", ParseError, "empty input (at position 0)", 0),
        (" \t\n", ParseError, "empty input (at position 0)", 0),
        ("(or x1 x2))", ParseError, "unmatched ')' (at position 10)", 10),
        ("(or x1 (and x2 ~x1", ParseError, "unclosed '(' (at position 7)", 7),
        ("(or x1 x2) x1", ParseError,
         "trailing content after complete formula (at position 11)", 11),
        ("x1 (and x1 x2)", ParseError,
         "trailing content after complete formula (at position 13)", 13),
        ("x1  (", ParseError, "unexpected end of input after '(' (at position 4)", 4),
        ("(not x1 x2)", ParseError, "expected 'and' or 'or', got 'not' (at position 1)", 1),
        ("((or x1 x2))", ParseError, "expected 'and' or 'or', got '(' (at position 1)", 1),
        ("(or x1 y2)", ParseError,
         "expected literal like 'x3' or '~x3', got 'y2' (at position 7)", 7),
        ("(or x1 x\u00b2)", ParseError,
         "expected literal like 'x3' or '~x3', got 'x\u00b2' (at position 7)", 7),
        ("(or x\u0661 x2)", ParseError,
         "expected literal like 'x3' or '~x3', got 'x\u0661' (at position 4)", 4),
        ("(or x1 ~x01)", ParseError,
         "expected literal like 'x3' or '~x3', got '~x01' (at position 7)", 7),
        ("(or x01 x2)", ParseError,
         "expected literal like 'x3' or '~x3', got 'x01' (at position 4)", 4),
        ("(or x1 ~x3)", VariableRangeError,
         "variable x3 out of range 1..2 (at position 7)", None),
        ("(or x0 x1)", VariableRangeError,
         "variable x0 out of range 1..2 (at position 4)", None),
        ("(or x1 (and x1))", ArityError,
         "'and' node with 1 child(ren); arity must be >= 2 (at position 7)", None),
        ("(and x2 (or x1 (or x2 ~x1)))", StratificationError,
         "nested 'or' under 'or' violates stratification (at position 8)", None),
    ],
)
def test_parse_errors_pin_class_message_and_position(text, error, message, position):
    with pytest.raises(FormulaError) as err:
        parse_formula(text, 2)
    assert type(err.value) is error
    assert str(err.value) == message
    assert getattr(err.value, "position", None) == position


@pytest.mark.parametrize(
    "text",
    ["(or x1 x2", "(or x1 x2))", "", "x1 x2", "(not x1 x2)", "(or)"],
)
def test_parse_rejects_malformed_input(text):
    with pytest.raises((ParseError, ArityError)):
        parse_formula(text, 2)


@pytest.mark.parametrize(
    "text",
    ["x1", "~x2", "(or x1 (and x2 ~x1))", "(and x1 x2 x3 (or ~x1 x2))"],
)
def test_round_trip_examples(text):
    tree = parse_formula(text, 3)
    assert serialize(tree) == text
    assert parse_formula(serialize(tree), 3) == tree


def test_whitespace_insensitive():
    a = parse_formula("(or   x1\n\t(and x2   ~x1))", 2)
    b = parse_formula("(or x1 (and x2 ~x1))", 2)
    assert a == b


def test_round_trip_on_sampled_trees():
    for m in (5, 9, 13):
        for tree in sample_many(m, 2, 400, seed=20_000 + m):
            assert parse_formula(serialize(tree), 2) == tree


@given(tree_strategy())
@settings(max_examples=200)
def test_round_trip_property(tree):
    assert parse_formula(serialize(tree), 3) == tree


# -- truth tables ---------------------------------------------------------------


def test_tautology_and_contradiction_tables():
    assert truth_table(parse_formula("(or x1 ~x1)", 1), 1).is_true()
    assert truth_table(parse_formula("(and x1 ~x1)", 1), 1).is_false()


def test_eleven_node_tautology():
    text = "(or x1 ~x1 (and x2 (or x3 ~x3) x1 x1) x2)"
    tree = parse_formula(text, 3)
    assert tree_size(tree) == 11
    assert truth_table(tree, 3).is_true()


@given(tree_strategy())
@settings(max_examples=150)
def test_truth_table_is_homomorphic(tree):
    table = truth_table(tree, 3)
    if isinstance(tree, Node):
        parts = [truth_table(c, 3).bits for c in tree.children]
        if tree.op == AND:
            combined = parts[0]
            for p in parts[1:]:
                combined &= p
        else:
            combined = 0
            for p in parts:
                combined |= p
        assert combined == table.bits


@given(tree_strategy(), st.integers(0, 7))
@settings(max_examples=150)
def test_evaluate_matches_table(tree, k):
    assert evaluate(tree, k) == truth_table(tree, 3).value(k)


def test_truth_table_hex_round_trip():
    t = TruthTable.of_literal(Literal(1), 1)
    assert t.to_hex() == "2"
    assert TruthTable.from_hex("2", 1) == t
    t2 = TruthTable.constant(4, True)
    assert t2.to_hex() == "ffff"


@pytest.mark.parametrize("text", ["0x8", "1_0", " 8", "+8", "8\n", "", "zz"])
def test_truth_table_from_hex_takes_only_hex_digits(text):
    with pytest.raises(ValueError) as err:
        TruthTable.from_hex(text, 3)
    assert str(err.value) == f"truth table must be hex digits, got {text!r}"


def test_truth_table_var_cap():
    tree = parse_formula("(or x1 x2)", 2)
    with pytest.raises(ValueError):
        truth_table(tree, 5)
    assert truth_table(tree, 5, max_vars=5).n == 5


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_truth_table_fold_matches_oracle_on_sampled_trees(n):
    for m in (1, 3, 4, 9, 40, 201):
        for tree in sample_many(m, n, 30, seed=300 + 10 * n + m):
            assert truth_table(tree, n, max_vars=6).bits == _oracle_truth_table(tree, n)


def test_truth_table_of_a_leaf_root():
    for var in (1, 2, 3):
        for neg in (False, True):
            got = truth_table(leaf(var, neg), 3)
            assert got.bits == _oracle_truth_table(leaf(var, neg), 3)
            assert got == TruthTable.of_literal(Literal(var, neg), 3)


@pytest.mark.parametrize(
    "text", ["x3", "(or x1 x3)", "(and x1 (or x2 ~x3))", "(or (and x1 x2) (and x2 x5) x1)"]
)
def test_truth_table_rejects_a_leaf_variable_past_n(text):
    tree = parse_formula(text, 5)
    with pytest.raises(VariableRangeError, match="x[35] out of range for n=2"):
        truth_table(tree, 2)


def test_literal_masks_match_the_bitwise_definition():
    for n in range(1, 11):
        want = tuple(
            _bitwise_literal_mask(var, neg, n)
            for var in range(1, n + 1)
            for neg in (False, True)
        )
        assert literal_masks(n) == want
        assert [literal_mask(var, neg, n) for var in range(1, n + 1)
                for neg in (False, True)] == list(want)
    for var in (0, 4):
        with pytest.raises(VariableRangeError):
            literal_mask(var, False, 3)


def test_is_literal_finds_exactly_the_literals():
    literals = [bits for bits in range(256) if TruthTable(3, bits).is_literal()]
    assert sorted(literals) == sorted(literal_masks(3))
    assert len(literals) == 6


# -- sizes ------------------------------------------------------------------------


def test_size_examples():
    assert tree_size(leaf(1)) == 1
    assert internal_count(leaf(1)) == 0
    assert expansion_slots(leaf(1)) == 0
    two = Node(OR, (leaf(1), leaf(2)))
    assert tree_size(two) == 3
    assert internal_count(two) == 1
    assert expansion_slots(two) == 3


@given(tree_strategy())
@settings(max_examples=150)
def test_slot_bound(tree):
    if isinstance(tree, Node):
        assert expansion_slots(tree) >= tree_size(tree)
        assert expansion_slots(tree) == internal_count(tree) + tree_size(tree) - 1


# -- detectors ---------------------------------------------------------------------


def test_simple_tautology_examples():
    assert is_simple_tautology(parse_formula("(or x1 ~x1 x2)", 2))
    assert not is_simple_tautology(parse_formula("(or x1 (and ~x1 x2))", 2))
    t = parse_formula("(and x1 ~x1)", 1)
    assert is_simple_contradiction(t)
    assert not is_simple_tautology(t)


def test_simple_tautology_implies_tautology_not_conversely():
    simple = parse_formula("(or x2 x1 ~x1)", 2)
    assert is_simple_tautology(simple)
    assert truth_table(simple, 2).is_true()
    # a tautology with no first-level leaves at all cannot be simple
    non_simple = parse_formula(
        "(or (and x1 x2) (and x1 ~x2) (and ~x1 x2) (and ~x1 ~x2))", 2
    )
    assert truth_table(non_simple, 2).is_true()
    assert not is_simple_tautology(non_simple)


def test_simple_x_tree():
    t = parse_formula("(or x1 (and x2 ~x2))", 2)
    assert is_simple_x_tree(t, 2) == Literal(1)
    t2 = parse_formula("(or x1 x2 (and x3 ~x3))", 3)
    assert is_simple_x_tree(t2, 3) is None
    t3 = parse_formula("(and ~x2 (or x1 ~x1))", 2)
    assert is_simple_x_tree(t3, 2) == Literal(2, True)
    assert is_simple_x_tree(parse_formula("(or x1 (and x2 x2))", 2), 2) is None
    # any n: the constant subtree is decided by the table or the search
    for n in (5, 13, 14, 50):
        t4 = parse_formula("(and x5 (or x2 ~x2))", n)
        assert is_simple_x_tree(t4, n) == Literal(5)
        assert is_simple_x_tree(parse_formula("(and x5 (or x2 x3))", n), n) is None


def test_first_level_leaf_count():
    assert first_level_leaf_count(parse_formula("(or x1 (and x2 x1) ~x2)", 2)) == 2
    assert first_level_leaf_count(leaf(1)) == 0


# -- large-n constant checks -------------------------------------------------------


def test_search_tautology_matches_tables():
    for tree in sample_many(60, 3, 300, seed=99):
        expected = truth_table(tree, 3).is_true()
        # same tree read over a 20-variable alphabet takes the search path
        assert is_tautology(tree, 20) == expected


def test_search_contradiction_matches_tables():
    for tree in sample_many(40, 2, 200, seed=98):
        expected = truth_table(tree, 2).is_false()
        assert is_contradiction(tree, 20) == expected


@pytest.mark.parametrize("n", [14, 20, 50])
def test_word_search_matches_the_node_oracle(n):
    ctx = SamplerContext(n, 400)
    rng = random.Random(n)
    seen = set()
    for m in (1, 3, 4, 41, 400):
        for _ in range(20 if m == 1 else 80):
            drawn = ctx.draw(m, rng)
            tree = decode(drawn, n)
            for target in (False, True):
                got = never_evaluates_to(drawn, target)
                assert got == (_force_search(tree, n, target, 500_000) is None)
                assert got == (is_contradiction if target else is_tautology)(tree, n)
                seen.add((target, got))
    assert seen == {(False, False), (False, True), (True, False), (True, True)}


@pytest.mark.parametrize("n", [2, 3, 5])
def test_word_search_matches_the_folded_table(n):
    ctx = SamplerContext(n, 200)
    masks, full = literal_masks(n), (1 << (1 << n)) - 1
    rng = random.Random(100 + n)
    for m in (1, 3, 4, 15, 200):
        for _ in range(100):
            drawn = ctx.draw(m, rng)
            bits = fold_truth_bits(drawn, masks, full)
            assert never_evaluates_to(drawn, False) == (bits == full)
            assert never_evaluates_to(drawn, True) == (bits == 0)


def test_search_budget_is_enforced():
    tree = parse_formula("(or (and x1 x2) (and ~x1 x2) (and x1 ~x2) (and ~x1 ~x2))", 2)
    assert is_tautology(tree, 14)
    with pytest.raises(SearchBudgetError):
        is_tautology(tree, 14, budget=5)
    with pytest.raises(SearchBudgetError):
        is_contradiction(tree, 14, budget=2)


def _steps_or_error(search, *args):
    try:
        return search(*args)
    except SearchBudgetError:
        return "budget"


def test_word_search_spends_the_node_oracles_steps():
    # same rules in the same order: both run out of budget at the same steps
    ctx = SamplerContext(20, 300)
    rng = random.Random(21)
    outcomes = set()
    for _ in range(60):
        drawn = ctx.draw(300, rng)
        tree = decode(drawn, 20)
        for target in (False, True):
            for budget in (1, 3, 10, 30, 100, 300):
                got = _steps_or_error(never_evaluates_to, drawn, target, budget)
                want = _steps_or_error(_force_search, tree, 20, target, budget)
                assert got == (want if want == "budget" else want is None)
                outcomes.add(got)
    assert outcomes == {"budget", True, False}


@pytest.mark.parametrize("check", [is_tautology, is_contradiction])
def test_search_rejects_variables_beyond_n(check):
    # n = 13 reads the truth table, n = 14 encodes the tree for the search
    for n in (13, 14):
        for var in (n + 1, 20):
            with pytest.raises(VariableRangeError):
                check(parse_formula(f"(or x{var} ~x{var})", 20), n)


# -- the tree word -------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2])
def test_encode_decode_round_trip_over_every_small_tree(n):
    words = set()
    for m in range(1, 8):
        for tree in brute_enumerate(m, n):
            drawn = encode(tree, n)
            assert decode(drawn, n) == tree
            words.add((drawn[0], tuple(drawn[1]), tuple(drawn[2])))
    # a bare leaf reads root_and False, so distinct trees give distinct words
    assert len(words) == sum(series(n, 7).a_total)


@pytest.mark.parametrize("n", [1, 2, 5, 100])
def test_decode_encode_round_trip_over_sampled_words(n):
    ctx = SamplerContext(n, 600)
    rng = random.Random(40 + n)
    for m in (1, 3, 4, 15, 101, 600):
        for _ in range(10 if m > 100 else 100):
            drawn = ctx.draw(m, rng)
            tree = decode(drawn, n)
            assert tree_size(tree) == m
            assert encode(tree, n) == drawn


def test_encode_rejects_variables_beyond_n():
    with pytest.raises(VariableRangeError, match="x3 out of range for n=2"):
        encode(parse_formula("(and x1 (or x2 ~x3))", 3), 2)


# -- deep trees ------------------------------------------------------------------------

DEPTH = 3000


def _chain_text(base, depth=DEPTH, y=3):
    """t_0 = base, t_k = (or ~y (and y t_{k-1})): the same function as
    base or ~y, nested `depth` levels deep."""
    return f"(or ~x{y} (and x{y} " * depth + base + "))" * depth


#: the and-node holding t_0
DEEP_HOST = (1, 1) * (DEPTH - 1) + (1,)


@pytest.fixture(scope="module")
def chains():
    """(a tautology, a non-constant tree whose one removable subtree is the
    contradiction at the bottom), both 3000 levels deep."""
    taut = parse_formula(_chain_text("(or x1 ~x1)"), 3)
    plain = parse_formula(_chain_text("(or x1 x2 (and x2 ~x2))"), 3)
    return taut, plain


def _reduces_the_bottom(tree):
    reduced, trace = reduce_irreducible(tree, 3)
    return [serialize(t) for t in trace] == ["(and x2 ~x2)"] and serialize(
        reduced
    ) == _chain_text("(or x1 x2)")


def _reduces_the_cascade(taut):
    """Each removal collapses its host into a tautology that the level above
    removes in turn: 3000 removals."""
    reduced, trace = reduce_irreducible(taut, 3)
    return serialize(reduced) == "(or ~x3 x3)" and [serialize(t) for t in trace] == [
        "(or x1 ~x1)"
    ] + ["(or ~x3 x3)"] * (DEPTH - 1)


def _expands_the_bottom(tree):
    step = ExpansionStep(DEEP_HOST, 1, parse_formula("(or x1 ~x1)", 1), TAUTOLOGY_EXPANSION)
    expanded = expand(tree, step)
    return tree_size(expanded) == tree_size(tree) + 3 and is_valid_expansion(tree, step, 3)


def _compares_by_value(tree):
    """==, hash and repr of a 3000-deep chain: an equal chain built apart,
    and one with a single literal changed at the bottom."""
    twin = parse_formula(_chain_text("(or x1 x2 (and x2 ~x2))"), 3)
    changed = parse_formula(_chain_text("(or x1 x2 (and x2 ~x1))"), 3)
    text = repr(tree)
    return (
        twin is not tree
        and twin == tree
        and hash(twin) == hash(tree)
        and changed != tree
        and not changed == tree
        and text.startswith(
            "Node(op='or', children=(Leaf(literal=Literal(var=3, negated=True)), Node(op='and'"
        )
        and text.count("Node(") == 2 * DEPTH + 2
        and text == repr(twin) != repr(changed)
    )


def _refuses_a_non_minimal_tree(tree):
    with pytest.raises(ValueError, match="not minimal"):
        slots_and_bounds(tree, 3)
    return True


DEEP_CASES = {
    "serialize": lambda taut, plain: serialize(plain)
    == _chain_text("(or x1 x2 (and x2 ~x2))"),
    "sizes": lambda taut, plain: (
        tree_size(plain),
        internal_count(plain),
        expansion_slots(plain),
        first_level_leaf_count(plain),
    )
    == (4 * DEPTH + 6, 2 * DEPTH + 2, 6 * DEPTH + 7, 1),
    "truth_table": lambda taut, plain: truth_table(taut, 3).is_true()
    and truth_table(plain, 3).bits == _oracle_truth_table(plain, 3),
    "evaluate": lambda taut, plain: [evaluate(plain, k) for k in range(8)]
    == [truth_table(plain, 3).value(k) for k in range(8)],
    "encode_decode": lambda taut, plain: serialize(decode(encode(plain, 3), 3))
    == serialize(plain),
    "constants": lambda taut, plain: is_tautology(taut, 3)
    and is_tautology(taut, 20)
    and not is_tautology(plain, 20)
    and not is_contradiction(plain, 20),
    "simple_shapes": lambda taut, plain: not is_simple_tautology(taut)
    and not is_simple_contradiction(plain)
    and is_simple_x_tree(plain, 3) is None,
    "reduce_irreducible": lambda taut, plain: _reduces_the_bottom(plain),
    "reduce_cascade": lambda taut, plain: _reduces_the_cascade(taut),
    "pickle": lambda taut, plain: pickle.loads(pickle.dumps(plain)) == plain,
    "deepcopy": lambda taut, plain: copy.deepcopy(plain) == plain,
    "expand": lambda taut, plain: _expands_the_bottom(plain),
    "slots_and_bounds": lambda taut, plain: _refuses_a_non_minimal_tree(plain),
    "eq_hash_repr": lambda taut, plain: _compares_by_value(plain),
}


@pytest.mark.parametrize("name", sorted(DEEP_CASES))
def test_deep_chain_needs_no_recursion(chains, name):
    before = sys.getrecursionlimit()
    assert DEEP_CASES[name](*chains)
    assert sys.getrecursionlimit() == before


def test_cli_reduces_a_deep_chain(chains, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(serialize(chains[1])))
    assert cli_main(["reduce", "--n", "3"]) == 0
    out, err = capsys.readouterr()
    assert out.strip() == _chain_text("(or x1 x2)")
    assert "removed: (and x2 ~x2)" in err
    monkeypatch.setattr("sys.stdin", io.StringIO(serialize(chains[0])))
    assert cli_main(["reduce", "--n", "3"]) == 0
    out, err = capsys.readouterr()
    assert out.strip() == "(or ~x3 x3)"
    assert err.count("removed: ") == DEPTH
