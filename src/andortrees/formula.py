"""Stratified and/or trees over literal leaves: representation, parsing,
evaluation and the structural measurements used everywhere else.

A tree is either a Leaf carrying a literal, or a Node carrying a connective
("and"/"or") with an ordered tuple of >= 2 children in which no child repeats
the parent connective.  Values are immutable; every function here is pure.

Text format: parenthesised prefix, e.g. ``(or x1 (and x2 ~x1))``.  Truth
tables are bit vectors over all 2^n assignments, assignment index k giving
variable j the value of bit j-1 of k; they serialise as lowercase hex with
the most significant bit belonging to the highest assignment index.

The word format `Draw` (root connective, preorder arity word, leaf literal
indexes) is what the sampler draws and lives here alone: `encode`, `decode`,
and the folds `fold_truth_bits` (behind `truth_table`), `fold_root_leaves`
and `never_evaluates_to` that read a tree off its word.
"""

from __future__ import annotations

import functools
import itertools
import operator
import re
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

AND = "and"
OR = "or"

#: Largest n for which full truth tables are built by default (2^2^n functions).
MAX_TABLE_VARS = 4
#: Largest n at which constants and function frequencies are read off folded
#: truth tables; above it `never_evaluates_to` decides constants.
MAX_FOLD_VARS = 13
#: Default step budget of the constant-function search.
SEARCH_BUDGET = 500_000


class FormulaError(ValueError):
    """Base class for malformed formulas."""


class ParseError(FormulaError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ArityError(FormulaError):
    pass


class StratificationError(FormulaError):
    pass


class VariableRangeError(FormulaError):
    pass


#: fills one slot of a `Record` from its __init__, past the frozen __setattr__
_set = object.__setattr__


class Record:
    """Base of the package's immutable value types and records.

    A subclass names its fields in `__slots__`, in constructor order.  The
    constructor takes them by position or keyword, like a dataclass's, and
    `_defaults` maps a field to a factory whose fresh value fills it when it
    is left out or given as None; a subclass that validates its arguments
    writes its own `__init__` and fills the slots through `_set`.  Two
    records are equal when they are of the same class and their compared
    fields are equal, and they hash like the tuple of those fields;
    `_uncompared` names fields that only the repr shows.  The repr is
    ``Class(field=value, ...)``, and pickling and copying rebuild a record
    through its constructor.
    """

    __slots__ = ()
    _uncompared: Tuple[str, ...] = ()
    _defaults: Dict[str, Callable[[], object]] = {}

    def __init__(self, *args, **kwargs):
        names, cls = self.__slots__, self.__class__.__qualname__
        if len(args) > len(names):
            raise TypeError(f"{cls} takes {len(names)} fields, got {len(args)} positional")
        values = dict(zip(names, args))
        for name, value in kwargs.items():
            if name not in names:
                raise TypeError(f"{cls} has no field {name!r}")
            if name in values:
                raise TypeError(f"{cls} got field {name!r} twice")
            values[name] = value
        for name in names:
            value = values.get(name)
            if value is None and name in self._defaults:
                value = self._defaults[name]()
            elif name not in values:
                raise TypeError(f"{cls} is missing field {name!r}")
            _set(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def _compared(self) -> tuple:
        skip = self._uncompared
        return tuple([getattr(self, name) for name in self.__slots__ if name not in skip])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._compared() == other._compared()

    def __hash__(self):
        return hash(self._compared())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._values()

    def as_dict(self) -> dict:
        """The fields by name, in order; values are not copied."""
        return dict(zip(self.__slots__, self._values()))


class Literal(Record):
    __slots__ = ("var", "negated")

    def __init__(self, var: int, negated: bool = False):
        if var < 1:
            raise VariableRangeError(f"variable index must be >= 1, got {var}")
        _set(self, "var", var)
        _set(self, "negated", negated)

    def __str__(self) -> str:
        return ("~" if self.negated else "") + f"x{self.var}"


class Leaf(Record):
    __slots__ = ("literal",)

    def __init__(self, literal: Literal):
        _set(self, "literal", literal)


class Node(Record):
    """An internal node.  ==, hash and repr walk the tree on a stack, and
    pickling and copying go through the tree word, so they work at any
    depth."""

    __slots__ = ("op", "children")

    def __init__(self, op: str, children: Tuple["AndOrTree", ...]):
        if op not in (AND, OR):
            raise FormulaError(f"unknown connective {op!r}")
        if len(children) < 2:
            raise ArityError(f"internal node needs >= 2 children, got {len(children)}")
        for child in children:
            if isinstance(child, Node) and child.op == op:
                raise StratificationError(
                    f"child {op!r} node directly under an {op!r} node"
                )
        _set(self, "op", op)
        _set(self, "children", children)

    def _compared(self) -> tuple:
        """The tree in preorder: (op, arity) at each node, the leaf itself
        at each leaf."""
        return tuple(
            [(t.op, len(t.children)) if isinstance(t, Node) else t for t in _preorder(self)]
        )

    def __reduce__(self):
        n = max(t.literal.var for t in _preorder(self) if isinstance(t, Leaf))
        return decode, (encode(self, n), n)

    def __repr__(self) -> str:
        out: list = []
        stack: list = [self]
        while stack:
            t = stack.pop()
            if isinstance(t, str):
                out.append(t)
            elif isinstance(t, Node):
                out.append(f"{t.__class__.__qualname__}(op={t.op!r}, children=(")
                stack.append("))")
                for idx in reversed(range(len(t.children))):
                    stack.append(t.children[idx])
                    if idx:
                        stack.append(", ")
            else:
                out.append(repr(t))
        return "".join(out)


AndOrTree = Union[Leaf, Node]


class Assignment(Record):
    __slots__ = ("values",)

    def to_index(self) -> int:
        k = 0
        for j, v in enumerate(self.values):
            if v:
                k |= 1 << j
        return k


class TruthTable(Record):
    """A Boolean function of n variables as a 2^n-bit integer."""

    __slots__ = ("n", "bits")

    def __init__(self, n: int, bits: int):
        if n < 1:
            raise ValueError("n must be >= 1")
        if not 0 <= bits < (1 << (1 << n)):
            raise ValueError("bit vector does not fit 2^n bits")
        _set(self, "n", n)
        _set(self, "bits", bits)

    @classmethod
    def constant(cls, n: int, value: bool) -> "TruthTable":
        return cls(n, (1 << (1 << n)) - 1 if value else 0)

    @classmethod
    def of_literal(cls, literal: Literal, n: int) -> "TruthTable":
        return cls(n, literal_mask(literal.var, literal.negated, n))

    @classmethod
    def from_hex(cls, text: str, n: int) -> "TruthTable":
        """The table of hex digits `text`; no sign, prefix, space or underscore."""
        if not re.fullmatch("[0-9a-fA-F]+", text):
            raise ValueError(f"truth table must be hex digits, got {text!r}")
        return cls(n, int(text, 16))

    def to_hex(self) -> str:
        digits = max(1, (1 << self.n) // 4)
        return format(self.bits, f"0{digits}x")

    def value(self, k: int) -> bool:
        return bool((self.bits >> k) & 1)

    def is_true(self) -> bool:
        return self.bits == (1 << (1 << self.n)) - 1

    def is_false(self) -> bool:
        return self.bits == 0

    def is_constant(self) -> bool:
        return self.is_true() or self.is_false()

    def is_literal(self) -> bool:
        return self.bits in literal_masks(self.n)

    def dominates(self, other: "TruthTable") -> bool:
        """Pointwise self >= other."""
        if self.n != other.n:
            raise ValueError("mixing truth tables of different n")
        return other.bits & ~self.bits == 0


#: (root_and, word, leaves): a tree as its root connective (True for and; a
#: bare leaf reads False), its preorder arity word (Dershowitz & Zaks 1990),
#: 0 at a leaf, and the literal index of each leaf in preorder.  Literal
#: index r is x(r//2 + 1), negated when r is odd, as in `literal_masks`.
Draw = Tuple[bool, List[int], List[int]]


@functools.lru_cache(maxsize=None)
def literal_masks(n: int) -> Tuple[int, ...]:
    """Bit vectors of x1, ~x1, x2, ~x2, ..., xn, ~xn as functions of n variables.

    x_v is true at the assignments whose bit v-1 is set: every block of 2^v
    bits is 2^(v-1) zeros then 2^(v-1) ones.  full // (2^(2^v) - 1) has a one
    at the bottom of each block, so one multiplication lays the pattern down.
    """
    full = (1 << (1 << n)) - 1
    masks = []
    for v in range(1, n + 1):
        half = 1 << (v - 1)
        mask = full // ((1 << (2 * half)) - 1) * (((1 << half) - 1) << half)
        masks += (mask, full ^ mask)
    return tuple(masks)


def literal_mask(var: int, negated: bool, n: int) -> int:
    """Bit vector of the literal as a function of n variables."""
    if not 1 <= var <= n:
        raise VariableRangeError(f"variable x{var} out of range for n={n}")
    return literal_masks(n)[2 * var - 2 + negated]


# ---------------------------------------------------------------------------
# the tree word
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _literals(n: int) -> Tuple[Literal, ...]:
    """x1, ~x1, x2, ~x2, ..., xn, ~xn: the `Literal` of each literal index."""
    return tuple(
        Literal(var, negated) for var in range(1, n + 1) for negated in (False, True)
    )


def encode(tree: AndOrTree, n: int) -> Draw:
    """The tree as a `Draw`: a preorder walk, rejecting variables beyond n."""
    word, leaves, stack = [], [], [tree]
    while stack:
        t = stack.pop()
        if isinstance(t, Node):
            word.append(len(t.children))
            stack.extend(reversed(t.children))
        elif t.literal.var > n:
            raise VariableRangeError(f"x{t.literal.var} out of range for n={n}")
        else:
            word.append(0)
            leaves.append(2 * t.literal.var - 2 + t.literal.negated)
    return isinstance(tree, Node) and tree.op == AND, word, leaves


def decode(drawn: Draw, n: int) -> AndOrTree:
    """The tree of a `Draw`, with a new `Leaf` at every leaf position."""
    root_and, word, leaves = drawn
    literals = _literals(n)
    leaf = iter(leaves).__next__
    # decode in preorder; each frame is [op, arity, children so far]
    stack: List[list] = []
    op = AND if root_and else OR
    for arity in word:
        if arity:
            if stack:
                op = OR if stack[-1][0] == AND else AND
            stack.append([op, arity, []])
            continue
        node: AndOrTree = Leaf(literals[leaf()])
        while stack:
            frame = stack[-1]
            frame[2].append(node)
            if len(frame[2]) < frame[1]:
                break
            stack.pop()
            node = Node(frame[0], tuple(frame[2]))
    return node


def fold_truth_bits(drawn: Draw, masks: Sequence[int], full: int) -> int:
    """Truth-table bits of a draw's tree: a postfix fold of literal masks.

    `masks` is `literal_masks(n)` and `full` the all-ones table.  The open
    node is held in (is_and, remaining, acc), its ancestors' on a stack; a
    leaf folds its mask into acc, and a node whose children are all in folds
    into its parent's.
    """
    root_and, word, leaves = drawn
    if len(word) == 1:
        return masks[leaves[0]]
    leaf = iter(leaves).__next__
    is_and, remaining = root_and, word[0]
    acc = full if is_and else 0
    stack: List[tuple] = []
    for arity in itertools.islice(word, 1, None):
        if arity:
            stack.append((is_and, remaining, acc))
            is_and = not is_and
            remaining = arity
            acc = full if is_and else 0
            continue
        if is_and:
            acc &= masks[leaf()]
        else:
            acc |= masks[leaf()]
        remaining -= 1
        while not remaining and stack:
            value = acc
            is_and, remaining, acc = stack.pop()
            if is_and:
                acc &= value
            else:
                acc |= value
            remaining -= 1
    return acc


def fold_root_leaves(drawn: Draw) -> Tuple[int, bool]:
    """(first-level leaf count, simple tautology) of a draw's tree.

    Reads the literal indexes of the root's leaf children, skipping each
    subtree child by its arity balance.  Literal r clashes with r ^ 1, and
    a clash makes a simple tautology only under an or root.
    """
    root_and, word, leaves = drawn
    if len(word) == 1:
        return 0, False
    seen = set()
    count = 0
    clash = False
    pos = 1
    leaf = 0  # leaves before pos
    for _ in range(word[0]):
        if word[pos]:
            # a subtree child: with k child slots open, the next k letters
            # leave open the sum of their arities, and none of them can
            # close the subtree before the last
            open_slots = 1
            while open_slots:
                chunk = word[pos : pos + open_slots]
                pos += open_slots
                leaf += chunk.count(0)
                open_slots = sum(chunk)
            continue
        r = leaves[leaf]
        clash = clash or r ^ 1 in seen
        seen.add(r)
        count += 1
        pos += 1
        leaf += 1
    return count, clash and not root_and


# ---------------------------------------------------------------------------
# parsing / serialisation
# ---------------------------------------------------------------------------


def _parse_atom(token: str, pos: int, n: int) -> Leaf:
    # ASCII digits without leading zeros, so each literal has one spelling
    match = re.fullmatch("(~?)x(0|[1-9][0-9]*)", token)
    if match is None:
        raise ParseError(f"expected literal like 'x3' or '~x3', got {token!r}", pos)
    var = int(match[2])
    if var < 1 or var > n:
        raise VariableRangeError(
            f"variable x{var} out of range 1..{n} (at position {pos})"
        )
    return Leaf(Literal(var, bool(match[1])))


def parse_formula(text: str, n: int) -> AndOrTree:
    """Parse the canonical prefix form into a validated tree."""
    if n < 1:
        raise ValueError("n must be >= 1")
    # frames [op, children, position of the '(']; the bottom one collects the result
    stack: List[list] = [[None, [], 0]]
    tokens = re.finditer(r"[()]|[^\s()]+", text)
    for match in tokens:
        token, pos = match.group(), match.start()
        if token == "(":
            connective = next(tokens, None)
            if connective is None:
                raise ParseError("unexpected end of input after '('", pos)
            op = connective.group()
            if op not in (AND, OR):
                raise ParseError(f"expected 'and' or 'or', got {op!r}", connective.start())
            stack.append([op, [], pos])
            continue
        if token != ")":
            tree = _parse_atom(token, pos, n)
        elif len(stack) == 1:
            raise ParseError("unmatched ')'", pos)
        else:
            op, children, open_pos = stack.pop()
            if len(children) < 2:
                raise ArityError(
                    f"{op!r} node with {len(children)} child(ren); arity must be >= 2 "
                    f"(at position {open_pos})"
                )
            for child in children:
                if isinstance(child, Node) and child.op == op:
                    raise StratificationError(
                        f"nested {op!r} under {op!r} violates stratification "
                        f"(at position {open_pos})"
                    )
            tree = Node(op, tuple(children))
        if len(stack) == 1 and stack[0][1]:
            raise ParseError("trailing content after complete formula", pos)
        stack[-1][1].append(tree)
    if len(stack) > 1:
        raise ParseError("unclosed '('", stack[-1][2])
    if not stack[0][1]:
        raise ParseError("empty input", 0)
    return stack[0][1][0]


def serialize(tree: AndOrTree) -> str:
    """Canonical text form; inverse of parse_formula."""
    out: list = []
    stack: list = [tree]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
        elif isinstance(item, Leaf):
            out.append(str(item.literal))
        else:
            out.append(f"({item.op}")
            stack.append(")")
            for child in reversed(item.children):
                stack.append(child)
                stack.append(" ")
    return "".join(out)


# ---------------------------------------------------------------------------
# measurements
# ---------------------------------------------------------------------------


def _preorder(tree: AndOrTree) -> List[AndOrTree]:
    """Every node and leaf of the tree in preorder, walked on a stack."""
    out, stack = [], [tree]
    while stack:
        t = stack.pop()
        out.append(t)
        if isinstance(t, Node):
            stack.extend(reversed(t.children))
    return out


def tree_size(tree: AndOrTree) -> int:
    """Total node count, internal nodes plus leaves."""
    return len(_preorder(tree))


def internal_count(tree: AndOrTree) -> int:
    return sum(isinstance(t, Node) for t in _preorder(tree))


def expansion_slots(tree: AndOrTree) -> int:
    """Number of child positions where a new subtree could be grafted.

    Equals internal_count + tree_size - 1; defined as 0 for a bare leaf,
    which has no internal node to graft under.
    """
    if isinstance(tree, Leaf):
        return 0
    nodes = _preorder(tree)
    return sum(isinstance(t, Node) for t in nodes) + len(nodes) - 1


def first_level_leaf_count(tree: AndOrTree) -> int:
    if isinstance(tree, Leaf):
        return 0
    return sum(1 for c in tree.children if isinstance(c, Leaf))


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def truth_table(tree: AndOrTree, n: int, max_vars: int = MAX_TABLE_VARS) -> TruthTable:
    """Bit-parallel evaluation over all 2^n assignments: `fold_truth_bits`
    over the tree's word."""
    if n > max_vars:
        raise ValueError(
            f"truth tables limited to n <= {max_vars} (asked for n={n}); "
            "raise max_vars explicitly if you mean it"
        )
    full = (1 << (1 << n)) - 1
    return TruthTable(n, fold_truth_bits(encode(tree, n), literal_masks(n), full))


def evaluate(tree: AndOrTree, assignment: Union[Assignment, int]) -> bool:
    """Evaluate under one assignment (bit j-1 of an int index = variable j).

    Iterative with short-circuiting, so arbitrarily deep sampled trees are fine.
    """
    bits = assignment.to_index() if isinstance(assignment, Assignment) else assignment
    stack = [(tree, 0)]
    result = False
    while stack:
        node, idx = stack.pop()
        if isinstance(node, Leaf):
            result = bool((bits >> (node.literal.var - 1)) & 1) ^ node.literal.negated
            continue
        if idx:
            # `result` holds the value of child idx-1
            if (node.op == AND and not result) or (node.op == OR and result):
                continue  # short-circuit, result stands for the whole node
            if idx == len(node.children):
                continue  # last child's value is the node's value
        stack.append((node, idx + 1))
        stack.append((node.children[idx], 0))
    return result


# ---------------------------------------------------------------------------
# tautology machinery
# ---------------------------------------------------------------------------


class SearchBudgetError(RuntimeError):
    pass


def never_evaluates_to(drawn: Draw, target: bool, budget: int = SEARCH_BUDGET) -> bool:
    """True if no assignment makes the tree of `drawn` evaluate to `target`.

    Complete backtracking over partial assignments, on explicit stacks so
    deep trees need no recursion.  A node whose connective lets one child
    decide (or for True, and for False) is a choice point over its children
    in order; at any other node every child must take `target`, literal
    children first so conflicts surface early.  `goals` is the linked list
    ((position, is choice point), rest) of subtrees still to satisfy; a
    choice point holds the children, the index of the next to try, the
    goals after the node and the trail length to undo to.  Each goal taken
    up is one step of `budget`.  A node's child positions are found on its
    first visit, by the arity balance `sums`.
    """
    root_and, word, leaves = drawn
    # sums[i] is the sum of (arity - 1) before position i: the subtree at
    # position c ends at the first j > c with sums[j] = sums[c] - 1
    sums = list(itertools.accumulate(map((-1).__add__, word), initial=0))
    rank = list(itertools.accumulate(map(operator.not_, word)))  # leaves up to i
    nodes: dict = {}  # position -> children as goal items, in search order
    assign, trail, choices = {}, [], []
    goals: Optional[tuple] = ((0, root_and != target), None)
    steps = 0
    while goals is not None:
        steps += 1
        if steps > budget:
            raise SearchBudgetError(
                f"constant-function search exceeded budget {budget}"
            )
        (pos, choice), goals = goals
        if word[pos]:
            children = nodes.get(pos)
            if children is None:
                starts = [pos + 1]
                for _ in range(word[pos] - 1):
                    starts.append(sums.index(sums[starts[-1]] - 1, starts[-1] + 1))
                if not choice:
                    starts.sort(key=lambda c: word[c] > 0)
                children = nodes[pos] = [(c, not choice) for c in starts]
            if choice:
                choices.append((children, 1, goals, len(trail)))
                goals = (children[0], goals)
            else:
                for child in reversed(children):
                    goals = (child, goals)
            continue
        var, negated = divmod(leaves[rank[pos] - 1], 2)
        need = target ^ negated
        if var not in assign:
            assign[var] = need
            trail.append(var)
            continue
        if assign[var] == need:
            continue
        if not choices:  # conflict with nothing left to try
            return True
        children, idx, rest, mark = choices.pop()
        while len(trail) > mark:
            del assign[trail.pop()]
        if idx + 1 < len(children):
            choices.append((children, idx + 1, rest, mark))
        goals = (children[idx], rest)
    return False


def _is_constant(tree: AndOrTree, n: int, value: bool, budget: int) -> bool:
    if n > MAX_FOLD_VARS:
        return never_evaluates_to(encode(tree, n), not value, budget)
    return truth_table(tree, n, MAX_FOLD_VARS).bits == TruthTable.constant(n, value).bits


def is_tautology(tree: AndOrTree, n: int, budget: int = SEARCH_BUDGET) -> bool:
    """Exact check that the tree computes the constant True: its truth table
    for n <= MAX_FOLD_VARS, else a complete search for a falsifying assignment."""
    return _is_constant(tree, n, True, budget)


def is_contradiction(tree: AndOrTree, n: int, budget: int = SEARCH_BUDGET) -> bool:
    """Exact check that the tree computes the constant False."""
    return _is_constant(tree, n, False, budget)


# ---------------------------------------------------------------------------
# shape detectors
# ---------------------------------------------------------------------------


def is_simple_tautology(tree: AndOrTree) -> bool:
    """Or-rooted with some variable appearing both plain and negated at depth 1."""
    return _simple_clash(tree, OR)


def is_simple_contradiction(tree: AndOrTree) -> bool:
    return _simple_clash(tree, AND)


def _simple_clash(tree: AndOrTree, root_op: str) -> bool:
    if not isinstance(tree, Node) or tree.op != root_op:
        return False
    seen = set()
    for child in tree.children:
        if isinstance(child, Leaf):
            lit = child.literal
            if (lit.var, not lit.negated) in seen:
                return True
            seen.add((lit.var, lit.negated))
    return False


def is_simple_x_tree(tree: AndOrTree, n: int) -> Optional[Literal]:
    """Detect the two-child shape: one literal leaf plus one constant subtree.

    The constant must be the identity of the root connective, so the whole
    tree computes exactly the leaf literal: an or-root needs a contradiction
    subtree, an and-root a tautology subtree.  Returns the literal, or None.
    """
    if not isinstance(tree, Node) or len(tree.children) != 2:
        return None
    leaves = [c for c in tree.children if isinstance(c, Leaf)]
    nodes = [c for c in tree.children if isinstance(c, Node)]
    if len(leaves) != 1 or len(nodes) != 1:
        return None
    if _is_constant(nodes[0], n, tree.op == AND, SEARCH_BUDGET):
        return leaves[0].literal
    return None
