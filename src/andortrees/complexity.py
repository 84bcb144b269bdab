"""Tree-size complexity, minimal trees, expansions and irreducibility.

L(f) is the smallest m >= 3 at which the exact per-function count of
``distribution.function_counts`` is nonzero for f, and m_f is that count;
every non-constant function has a tree, so the sweep ends.  Constants have
complexity 0 and literal functions complexity 2 by convention; the two
size-2 "minimal trees" of a literal are degenerate unary shapes that are not
valid trees here and are never materialised (m_f = 2 is still reported for
them).  L and m_f are invariant under variable permutations and input
negations, so the sweep reads them once per symmetry class of the engine.
The minimal trees themselves, and the constant subtrees that expansions
graft, are generated top down from the same counts
(``distribution._trees``).
"""

from __future__ import annotations

import operator
from contextlib import closing
from typing import Dict, List, Optional, Sequence, Tuple

from .counting import DEFAULT_ENUMERATION_BUDGET, BudgetError
from .distribution import _orbit_ids, _sizes, _trees
from .formula import (
    AND,
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
    serialize,
    tree_size,
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
    with closing(_sizes(n, 3)) as sizes:
        while pending:
            size, totals = next(sizes)
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


def minimal_trees(f: TruthTable, n: int) -> List[AndOrTree]:
    """All size-L(f) trees computing f, in canonical order (by `serialize`);
    needs L(f) >= 3 (real trees exist).  Raises counting.BudgetError, before
    generating any, when m_f is over counting.DEFAULT_ENUMERATION_BUDGET."""
    record = complexity(f, n)
    if record.L < 3:
        raise ValueError("constants and literal functions have no materialised minimal trees")
    if record.m_f > DEFAULT_ENUMERATION_BUDGET:
        raise BudgetError(
            f"{f.to_hex()} has {record.m_f} minimal trees, over budget {DEFAULT_ENUMERATION_BUDGET}"
        )
    trees = [t for op in (AND, OR) for t in _trees(n, record.L, f.bits, op)]
    # The trees share subtrees, so the sort key, serialize(tree), joins the
    # texts of the children, each built once; `trees` keeps them alive, so
    # their ids stay theirs.
    texts: Dict[int, str] = {}

    def text(tree: AndOrTree) -> str:
        if isinstance(tree, Leaf):
            return str(tree.literal)
        return f"({tree.op} {' '.join(map(child_text, tree.children))})"

    def child_text(tree: AndOrTree) -> str:
        hit = texts.get(id(tree))
        if hit is None:
            hit = texts[id(tree)] = text(tree)
        return hit

    trees.sort(key=text)
    return trees


def full_table(n: int) -> List[ComplexityRecord]:
    """ComplexityRecord for every Boolean function of n variables."""
    return _sweep([TruthTable(n, bits) for bits in range(1 << (1 << n))], n)


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
    size = tree_size(tree)
    if L < 3 or size != L:
        raise ValueError(f"tree of size {size} is not minimal for its function (L={L})")
    slots = expansion_slots(tree)
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
    subtree that is not reduced at all is returned as the same object.
    """
    truth_table(tree, n)  # rejects n > MAX_TABLE_VARS and variables beyond n
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
    or-hosts), deduplicated structurally."""
    L = complexity(f, n).L
    if L < 3:
        raise ValueError("f must have materialised minimal trees (L >= 3)")
    insert_size = m - L
    if insert_size < 3:
        return 0  # no constant subtree is that small
    taut = list(_trees(n, insert_size, TruthTable.constant(n, True).bits, OR))
    contra = list(_trees(n, insert_size, 0, AND))
    seen = set()
    for tree in minimal_trees(f, n):
        for path, host in _internal_nodes(tree):
            pool = taut if host.op == AND else contra
            for position in range(len(host.children) + 1):
                for inserted in pool:
                    kind = (
                        TAUTOLOGY_EXPANSION if host.op == AND else CONTRADICTION_EXPANSION
                    )
                    step = ExpansionStep(path, position, inserted, kind)
                    seen.add(serialize(expand(tree, step)))
    return len(seen)


def _internal_nodes(tree: AndOrTree):
    """(path, node) of every internal node, in preorder."""
    stack = [((), tree)]
    while stack:
        path, node = stack.pop()
        if isinstance(node, Node):
            yield path, node
            for idx in reversed(range(len(node.children))):
                stack.append((path + (idx,), node.children[idx]))
