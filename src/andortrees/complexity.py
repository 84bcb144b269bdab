"""Tree-size complexity, minimal trees, expansions and irreducibility.

L(f) is the smallest m >= 3 at which the exact per-function count of
``distribution.function_counts`` is nonzero for f, and m_f is that count;
every non-constant function has a tree, so the sweep ends.  Constants have
complexity 0 and literal functions complexity 2 by convention; the two
size-2 "minimal trees" of a literal are degenerate unary shapes that are not
valid trees here and are never materialised (m_f = 2 is still reported for
them).  L and m_f are invariant under variable permutations and input
negations, so the sweep reads them once per symmetry class of the engine.
The minimal trees themselves are generated top down from the same counts,
in canonical order and with no sort (``distribution._trees``); the one-step
expansions are counted, not generated, from the minimal trees' grafting
slots and the engine's count of constant trees (see ``expansion_count``).
"""

from __future__ import annotations

import operator
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .counting import DEFAULT_ENUMERATION_BUDGET, BudgetError
from .distribution import _get_engine, _orbit_ids, _trees
from .formula import (
    AND,
    MAX_FOLD_VARS,
    OR,
    AndOrTree,
    Leaf,
    Node,
    Record,
    StratificationError,
    TruthTable,
    _preorder,
    _set,
    expansion_slots,
    literal_mask,
    literal_masks,
    truth_table,
)


class ComplexityRecord(Record):
    __slots__ = ("f", "L", "m_f", "witnesses")  # witnesses is always None; see minimal_trees

    @property
    def is_constant(self) -> bool:
        return self.L == 0


def _sweep(fs: Sequence[TruthTable], n: int) -> List[ComplexityRecord]:
    """ComplexityRecord of each f, growing the size once for all of them.

    L and m_f are B_n-invariant, so the sweep runs on the orbit ids of the
    per-function engine and reads each f's record off its orbit.
    """
    orbit = _orbit_ids(n)
    full = (1 << (1 << n)) - 1
    found: Dict[int, Dict[str, Optional[int]]] = {  # orbit id -> record fields
        orbit[0]: dict(L=0, m_f=None, witnesses=None),
        orbit[full]: dict(L=0, m_f=None, witnesses=None),
        orbit[literal_masks(n)[0]]: dict(L=2, m_f=2, witnesses=None),
    }
    pending = {orbit[f.bits] for f in fs} - found.keys()
    size = 2
    while pending:
        size += 1
        totals = _get_engine(n, size).totals(size)
        for o in pending:
            if totals[o]:
                found[o] = dict(L=size, m_f=totals[o], witnesses=None)
        pending -= found.keys()
    return [ComplexityRecord(f=f, **found[orbit[f.bits]]) for f in fs]


def complexity(f: TruthTable, n: int) -> ComplexityRecord:
    """Smallest tree size L(f) computing f and the number m_f of such trees."""
    if f.n != n:
        raise ValueError("truth table n does not match")
    return _sweep([f], n)[0]


def _minimal_runs(record: ComplexityRecord, n: int) -> List[Tuple[str, Iterator[tuple]]]:
    """(root, its `distribution._trees` runs) of the minimal trees of record.f,
    the and root first.  Raises ValueError when L(f) < 3 and counting.BudgetError
    when m_f is over counting.DEFAULT_ENUMERATION_BUDGET, before generating any."""
    if record.L < 3:
        raise ValueError("constants and literal functions have no materialised minimal trees")
    if record.m_f > DEFAULT_ENUMERATION_BUDGET:
        raise BudgetError(
            f"{record.f.to_hex()} has {record.m_f} minimal trees, "
            f"over budget {DEFAULT_ENUMERATION_BUDGET}"
        )
    return [(op, _trees(n, record.L, record.f.bits, op)) for op in (AND, OR)]


def minimal_trees(f: TruthTable, n: int) -> List[AndOrTree]:
    """All size-L(f) trees computing f, in canonical order (by `serialize`):
    the and-rooted trees, then the or-rooted ones, each generated in that
    order.  Needs L(f) >= 3 (real trees exist).  Raises
    counting.BudgetError, before generating any, when m_f is over
    counting.DEFAULT_ENUMERATION_BUDGET."""
    runs = _minimal_runs(complexity(f, n), n)
    return [Node(op, kids[1::2]) for op, stream in runs for kids in stream]


def full_table(n: int) -> List[ComplexityRecord]:
    """ComplexityRecord for every Boolean function of n variables."""
    masks = range(len(_orbit_ids(n)))  # refuses n > HARD_MAX_VARS before any table is built
    return _sweep([TruthTable(n, bits) for bits in masks], n)


# ---------------------------------------------------------------------------
# expansions
# ---------------------------------------------------------------------------

TAUTOLOGY_EXPANSION = "tautology-expansion"
CONTRADICTION_EXPANSION = "contradiction-expansion"
B_EXPANSION = "B-expansion"


class ExpansionStep(Record):
    """Insert `inserted` as a new child of the internal node at `host_path`,
    at gap `position` (0..arity) in its child list."""

    __slots__ = ("host_path", "position", "inserted", "kind")

    def __init__(
        self,
        host_path: Tuple[int, ...],
        position: int,
        inserted: AndOrTree,
        kind: str = B_EXPANSION,
    ):
        if kind not in (TAUTOLOGY_EXPANSION, CONTRADICTION_EXPANSION, B_EXPANSION):
            raise ValueError(f"unknown expansion kind {kind!r}")
        if kind == B_EXPANSION and isinstance(inserted, Leaf):
            raise ValueError("B-expansions must insert a non-leaf subtree")
        _set(self, "host_path", host_path)
        _set(self, "position", position)
        _set(self, "inserted", inserted)
        _set(self, "kind", kind)


def _node_at(tree: AndOrTree, path: Sequence[int]) -> AndOrTree:
    node = tree
    for idx in path:
        if not isinstance(node, Node) or not 0 <= idx < len(node.children):
            raise ValueError(f"invalid host path {tuple(path)}")
        node = node.children[idx]
    return node


def _replace_at(tree: AndOrTree, path: Sequence[int], new_node: AndOrTree) -> AndOrTree:
    """`tree` with the subtree at `path` replaced: the nodes along the path
    are rebuilt from the bottom up."""
    along = [tree]
    for idx in path[:-1]:
        along.append(along[-1].children[idx])
    for node, idx in zip(reversed(along), reversed(path)):
        children = list(node.children)
        children[idx] = new_node
        new_node = Node(node.op, tuple(children))
    return new_node


def expand(tree: AndOrTree, step: ExpansionStep) -> AndOrTree:
    """Structurally apply the expansion; semantic validity is separate.

    Raises on invalid paths, non-internal hosts, stratification breaches and
    kind/host mismatches (a tautology expansion needs an and-labelled host,
    a contradiction expansion an or-labelled one).
    """
    host = _node_at(tree, step.host_path)
    if not isinstance(host, Node):
        raise ValueError("host path must address an internal node")
    if not 0 <= step.position <= len(host.children):
        raise ValueError(f"insert position {step.position} out of range")
    if isinstance(step.inserted, Node) and step.inserted.op == host.op:
        raise StratificationError(
            f"inserting an {step.inserted.op!r}-rooted subtree under an "
            f"{host.op!r} node breaks stratification"
        )
    if step.kind == TAUTOLOGY_EXPANSION and host.op != AND:
        raise ValueError("tautology expansions graft under and-labelled nodes")
    if step.kind == CONTRADICTION_EXPANSION and host.op != OR:
        raise ValueError("contradiction expansions graft under or-labelled nodes")
    children = list(host.children)
    children.insert(step.position, step.inserted)
    return _replace_at(tree, step.host_path, Node(host.op, tuple(children)))


def is_valid_expansion(tree: AndOrTree, step: ExpansionStep, n: int) -> bool:
    """True when the expanded tree computes the same function as the original."""
    try:
        expanded = expand(tree, step)
    except (ValueError, StratificationError):
        return False
    return truth_table(expanded, n).bits == truth_table(tree, n).bits


def slots_and_bounds(tree: AndOrTree, n: int) -> Dict[str, object]:
    """Grafting-slot count of a minimal tree and the L <= P_t <= floor(3L/2) check.

    Refuses trees that are not minimal for their own function (or whose
    function is constant/literal, where no materialised minimal tree exists).
    """
    L = complexity(truth_table(tree, n), n).L
    nodes = _preorder(tree)
    size = len(nodes)
    if L < 3 or size != L:
        raise ValueError(f"tree of size {size} is not minimal for its function (L={L})")
    slots = sum(isinstance(t, Node) for t in nodes) + size - 1  # as expansion_slots
    return {"P_t": slots, "L": L, "check": L <= slots <= (3 * L) // 2}


# ---------------------------------------------------------------------------
# irreducibility
# ---------------------------------------------------------------------------


def reduce_irreducible(
    tree: AndOrTree, n: int
) -> Tuple[AndOrTree, List[AndOrTree]]:
    """Strip function-preserving constant children until none remain.

    Removal order is leftmost-innermost and deterministic; the trace lists the
    removed subtrees in order.  The result computes the same function and
    cannot be produced by grafting a constant subtree into a smaller tree
    computing that function.

    One fold over the reversed preorder, which reaches every node after all
    of its subtrees: each finished subtree pushes (reduced subtree, whether
    it collapsed, its table, its removals in order), and a node pops one
    entry per child, children in order.  Its subtrees being irreducible, the
    node loses its removable children (a tautology child of an and-node, a
    contradiction child of an or-node) left to right, keeping at least one;
    a removal leaves the node's function unchanged, so nothing below
    changes.  A node left with one child collapses: a surviving leaf takes
    its place in the parent, and a surviving internal child, which carries
    the parent's connective, has its children spliced into the parent.  A
    subtree that is not reduced at all is returned as the same object.  The
    tables are those of `truth_table`, so n is at most MAX_FOLD_VARS, and a
    variable beyond n raises VariableRangeError at its leaf.
    """
    if n > MAX_FOLD_VARS:
        raise ValueError(f"truth tables limited to n <= {MAX_FOLD_VARS} (asked for n={n})")
    full = (1 << (1 << n)) - 1
    done: list = []
    for node in reversed(_preorder(tree)):
        if isinstance(node, Leaf):
            literal = node.literal
            done.append((node, False, literal_mask(literal.var, literal.negated, n), []))
            continue
        identity = full if node.op == AND else 0
        table, kids, removals = identity, [], []  # kids: (child, whether removable)
        for _ in node.children:
            child, collapsed, child_table, child_removals = done.pop()
            table = table & child_table if node.op == AND else table | child_table
            if removals:
                removals += child_removals
            else:  # the finished entry's list is free to grow
                removals = child_removals
            if not collapsed:
                kids.append((child, child_table == identity))
            else:
                # a spliced child was kept by an irreducible node with this
                # node's connective, so this node cannot remove it either
                spliced = child.children if isinstance(child, Node) else (child,)
                kids += [(kid, False) for kid in spliced]
        left, kept = len(kids), []
        for kid, removable in kids:
            if removable and left > 1:
                removals.append(kid)
                left -= 1
            else:
                kept.append(kid)
        if len(kept) == 1:
            done.append((kept[0], True, table, removals))
            continue
        unchanged = len(kept) == len(node.children) and all(
            map(operator.is_, kept, node.children)
        )
        done.append((node if unchanged else Node(node.op, tuple(kept)), False, table, removals))
    reduced, _, _, trace = done.pop()
    return reduced, trace


# ---------------------------------------------------------------------------
# expansion counting
# ---------------------------------------------------------------------------


def expansion_count(f: TruthTable, n: int, m: int) -> int:
    """Distinct trees of size m reachable by ONE constant-subtree expansion of
    a minimal tree of f (tautology under and-hosts, contradiction under
    or-hosts), deduplicated structurally.

    The count is tau(m - L) * sum over the minimal trees t of P_t, where
    P_t = expansion_slots(t) and tau(s) is the number of or-rooted
    tautologies of size s, which by duality is also the number of
    and-rooted contradictions of size s (0 when m - L < 3, since no constant
    subtree is smaller).  Every insertion keeps f: a tautology under an
    and-host or a contradiction under an or-host leaves the host's function
    unchanged.  No two insertions give the same tree: a minimal tree has no
    constant subtree, so the inserted constant is the only maximal constant
    subtree of the expansion, and removing it gives back the minimal tree,
    the host, the position and the inserted tree.
    """
    record = complexity(f, n)
    if record.L < 3:
        raise ValueError("f must have materialised minimal trees (L >= 3)")
    insert_size = m - record.L
    if insert_size < 3:
        return 0  # no constant subtree is that small
    runs = _minimal_runs(record, n)
    slots = sum(expansion_slots(Node(op, kids[1::2])) for op, stream in runs for kids in stream)
    engine = _get_engine(n, insert_size)
    tautologies = engine.or_layers[insert_size][engine.orbit[(1 << (1 << n)) - 1]]
    return tautologies * slots
