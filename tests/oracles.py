"""Slower independent methods that the library's fast paths are tested against."""

import bisect
import functools
import itertools
import math
import operator
import random
from collections import Counter
from typing import Dict, List, Optional, Tuple

import mpmath as mp

from andortrees.analytic import _float_down, _float_up, singularity
from andortrees.complexity import (
    CONTRADICTION_EXPANSION,
    TAUTOLOGY_EXPANSION,
    ExpansionStep,
    _node_at,
    _replace_at,
    _trees,
    complexity,
    expand,
    minimal_trees,
)
from andortrees.counting import brute_enumerate
from andortrees.formula import (
    AND,
    OR,
    AndOrTree,
    Draw,
    Leaf,
    Literal,
    Node,
    SearchBudgetError,
    TruthTable,
    literal_masks,
    serialize,
)
from andortrees.sampler import SamplerContext


@functools.lru_cache(maxsize=None)
def _bitwise_literal_mask(var: int, negated: bool, n: int) -> int:
    """The literal's bit vector, one assignment at a time."""
    mask = 0
    for k in range(1 << n):
        if ((k >> (var - 1)) & 1) ^ negated:
            mask |= 1 << k
    return mask


def _oracle_truth_table(tree: AndOrTree, n: int) -> int:
    """Truth-table bits by a post-order walk over the `Node`s on an explicit
    stack, child masks kept by id(): independent of the word and its fold."""
    full = (1 << (1 << n)) - 1
    out = {}
    stack = [(tree, False)]
    while stack:
        t, expanded = stack.pop()
        if isinstance(t, Leaf):
            out[id(t)] = _bitwise_literal_mask(t.literal.var, t.literal.negated, n)
            continue
        if not expanded:
            stack.append((t, True))
            stack.extend((c, False) for c in t.children)
            continue
        if t.op == AND:
            mask = full
            for c in t.children:
                mask &= out[id(c)]
        else:
            mask = 0
            for c in t.children:
                mask |= out[id(c)]
        out[id(t)] = mask
    return out[id(tree)]


def _force_search(tree: AndOrTree, n: int, target: bool, budget: int) -> Optional[dict]:
    """Find an assignment making `tree` evaluate to `target`, or None.

    Complete backtracking over partial assignments, on explicit stacks so
    deep trees need no recursion.  A node whose connective lets one child
    decide (or for True, and for False) is a choice point over its children
    in order; at any other node every child must take `target`, literal
    children first so conflicts surface early.  `goals` is the linked list
    (node, rest) of subtrees still to satisfy; a choice point holds the
    children, the index of the next to try, the goals after the node and the
    trail length to undo to.  Each goal taken up is one step of `budget`.
    """
    assign: dict = {}
    trail: list = []
    choices: list = []
    goals: Optional[tuple] = (tree, None)
    steps = 0
    while goals is not None:
        steps += 1
        if steps > budget:
            raise SearchBudgetError(
                f"constant-function search exceeded budget {budget}"
            )
        node, goals = goals
        if isinstance(node, Node):
            if (node.op == OR) == target:
                choices.append((node.children, 1, goals, len(trail)))
                goals = (node.children[0], goals)
            else:
                leaves_first = sorted(node.children, key=lambda c: isinstance(c, Node))
                for child in reversed(leaves_first):
                    goals = (child, goals)
            continue
        need = target ^ node.literal.negated
        var = node.literal.var
        if var not in assign:
            assign[var] = need
            trail.append(var)
            continue
        if assign[var] == need:
            continue
        if not choices:  # conflict with nothing left to try
            return None
        children, idx, rest, mark = choices.pop()
        while len(trail) > mark:
            del assign[trail.pop()]
        if idx + 1 < len(children):
            choices.append((children, idx + 1, rest, mark))
        goals = (children[idx], rest)
    return dict(assign)


def _oracle_draw(ctx: SamplerContext, m: int, rng: random.Random) -> Draw:
    """`ctx.draw` letter by letter: the rotation from the prefix sums over
    all m letters, and one `getrandbits(k)` per leaf, redrawn while >= 2n."""
    if m == 1:
        return False, [0], [rng.randrange(2 * ctx.n)]
    cum = ctx._cum_weights(m)
    internal = bisect.bisect_right(cum, rng.randrange(cum[-1])) + 1
    cuts = sorted(rng.sample(range(1, m - internal - 1), internal - 1))
    cuts.append(m - 1 - internal)
    word = [0] * m
    prev = 0
    for pos, cut in zip(sorted(rng.sample(range(m), internal)), cuts):
        word[pos] = cut - prev + 1
        prev = cut
    sums = list(itertools.accumulate(k - 1 for k in word))
    start = sums.index(min(sums)) + 1
    word = word[start:] + word[:start]
    root_and = rng.randrange(2) == 0
    two_n = 2 * ctx.n
    k = two_n.bit_length()
    leaves = []
    for _ in range(m - internal):
        r = rng.getrandbits(k)
        while r >= two_n:
            r = rng.getrandbits(k)
        leaves.append(r)
    return root_and, word, leaves


def _find_removal(tree: AndOrTree, n: int) -> Optional[Tuple[Tuple[int, ...], int]]:
    """Leftmost-innermost (host path, child index) of a removable child:
    a tautology child of an and-node or a contradiction child of an or-node.

    A postorder walk on a stack of (node, its children's tables so far): the
    first node finished with a removable child is the answer, and its path
    is the number of tables in each frame below it.
    """
    masks, full = literal_masks(n), (1 << (1 << n)) - 1
    stack = [(tree, [])] if isinstance(tree, Node) else []
    while stack:
        node, tables = stack[-1]
        if len(tables) < len(node.children):
            child = node.children[len(tables)]
            if isinstance(child, Leaf):
                tables.append(masks[2 * child.literal.var - 2 + child.literal.negated])
            else:
                stack.append((child, []))
            continue
        stack.pop()
        is_and = node.op == AND
        for idx, child in enumerate(node.children):
            if isinstance(child, Node) and tables[idx] == (full if is_and else 0):
                return tuple(len(t) for _, t in stack), idx
        if stack:
            fold = operator.and_ if is_and else operator.or_
            stack[-1][1].append(functools.reduce(fold, tables))
    return None


def _remove_child(tree: AndOrTree, path: Tuple[int, ...], idx: int) -> AndOrTree:
    """`tree` without the child: a host left with one child collapses, the
    root to its survivor, any other host into its parent."""
    host = _node_at(tree, path)
    rest = host.children[:idx] + host.children[idx + 1 :]
    if len(rest) >= 2:
        return _replace_at(tree, path, Node(host.op, rest))
    survivor = rest[0]
    if not path:
        return survivor
    parent_path, host_idx = path[:-1], path[-1]
    parent = _node_at(tree, parent_path)
    siblings = list(parent.children)
    if isinstance(survivor, Node):  # it carries the parent's connective
        siblings[host_idx : host_idx + 1] = list(survivor.children)
    else:
        siblings[host_idx] = survivor
    return _replace_at(tree, parent_path, Node(parent.op, tuple(siblings)))


def _oracle_reduce(tree: AndOrTree, n: int) -> Tuple[AndOrTree, List[AndOrTree]]:
    """`complexity.reduce_irreducible` by restarting the search for the
    leftmost-innermost removable child from the root after each removal."""
    trace: List[AndOrTree] = []
    while True:
        found = _find_removal(tree, n)
        if found is None:
            return tree, trace
        path, idx = found
        trace.append(_node_at(tree, path).children[idx])
        tree = _remove_child(tree, path, idx)


def _oracle_compositions(total: int, parts_at_least: int):
    """Ordered compositions of `total` into >= parts_at_least positive parts."""
    for parts in range(parts_at_least, total + 1):
        for cuts in itertools.combinations(range(1, total), parts - 1):
            yield tuple(b - a for a, b in zip((0,) + cuts, cuts + (total,)))


@functools.lru_cache(maxsize=None)
def _oracle_rooted(size: int, op: str, n: int) -> Tuple[AndOrTree, ...]:
    """The op-rooted trees of this size, the leaves at size 1: for each
    composition of size - 1 into >= 2 child sizes, every product of a tree
    of each size rooted at the other connective."""
    if size == 1:
        return tuple(Leaf(Literal(v, neg)) for v in range(1, n + 1) for neg in (False, True))
    other = OR if op == AND else AND
    out = []
    for sizes in _oracle_compositions(size - 1, 2):
        pools = [_oracle_rooted(s, other, n) for s in sizes]
        out += [Node(op, combo) for combo in itertools.product(*pools)]
    return tuple(out)


def _oracle_brute_enumerate(m: int, n: int) -> List[AndOrTree]:
    """`counting.brute_enumerate` by composition times product enumeration,
    then a sort by `serialize`."""
    trees = _oracle_rooted(m, AND, n)
    if m > 1:
        trees += _oracle_rooted(m, OR, n)
    return sorted(trees, key=serialize)


@functools.lru_cache(maxsize=None)
def _oracle_size_class(size: int, n: int) -> Tuple[Tuple[AndOrTree, int], ...]:
    """(tree, truth-table bits) of every size-`size` tree, in brute order."""
    return tuple((t, _oracle_truth_table(t, n)) for t in brute_enumerate(size, n))


def _oracle_minimal_trees(f: int, n: int) -> List[AndOrTree]:
    """`complexity.minimal_trees` for a function with L(f) >= 3, by filtering
    brute enumerations of sizes 3, 4, ... until one holds a tree computing
    f: the smallest such size is L(f)."""
    for size in itertools.count(3):
        trees = [t for t, bits in _oracle_size_class(size, n) if bits == f]
        if trees:
            return trees


def _oracle_expansion_count(f: TruthTable, n: int, m: int) -> Tuple[int, int]:
    """`complexity.expansion_count` by listing: every one-step expansion of
    every minimal tree of f is built, serialized and put in a set.  Returns
    (distinct trees, expansions listed); the two agree when no tree is
    reached twice."""
    L = complexity(f, n).L
    if L < 3:
        raise ValueError("f must have materialised minimal trees (L >= 3)")
    insert_size = m - L
    if insert_size < 3:
        return 0, 0  # no constant subtree is that small
    full = TruthTable.constant(n, True).bits
    taut = [Node(OR, kids[1::2]) for kids in _trees(n, insert_size, full, OR)]
    contra = [Node(AND, kids[1::2]) for kids in _trees(n, insert_size, 0, AND)]
    seen = set()
    listed = 0
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
                    listed += 1
    return len(seen), listed


def _internal_nodes(tree: AndOrTree):
    """(path, node) of every internal node, in preorder."""
    stack = [((), tree)]
    while stack:
        path, node = stack.pop()
        if isinstance(node, Node):
            yield path, node
            for idx in reversed(range(len(node.children))):
                stack.append((path + (idx,), node.children[idx]))


def _oracle_mpf(x) -> mp.mpf:
    """The QuadExt `x` as an mpf at the working precision."""
    return (
        mp.mpf(x.p.numerator) / x.p.denominator
        + mp.mpf(x.q.numerator) / x.q.denominator * mp.sqrt(x.d)
    )


def _oracle_t_ratio(family, n: int, env: Dict[str, float], prec: int = 300) -> mp.mpf:
    """`analytic.limiting_ratio` of a t-dependent family, 1/2 dF/da +
    tau' dF/dt at (radius, rooted_value, t_value), with each partial
    derivative taken by `mpmath.diff` at `prec` bits."""
    point = singularity(n)
    with mp.workprec(prec):
        z = _oracle_mpf(point.radius)
        a = _oracle_mpf(point.rooted_value)
        t = mp.mpf(env["t_value"])
        da = mp.diff(lambda x: family(z, x, t), a)
        dt = mp.diff(lambda x: family(z, a, x), t)
        return da / 2 + mp.mpf(env["tau_prime"]) * dt


def _oracle_upper_quantile(survival, alpha: float, lo: float, hi: float) -> float:
    """`sampler._upper_quantile` without its fixed-point stop: all 200
    halvings."""
    for _ in range(200):
        mid = (lo + hi) / 2
        if survival(mid) > alpha:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def _oracle_chi_square_critical(alpha: float, df: int) -> float:
    """`sampler.chi_square_critical` by the same bisection, on mpmath's
    regularized upper incomplete gamma function."""

    def survival(x: float) -> float:
        return float(mp.gammainc(df / 2, x / 2, mp.inf, regularized=True))

    return _oracle_upper_quantile(survival, alpha, 0.0, 10.0 * df + 100.0)


def _oracle_tautology_sums(n: int, prec: int = 200) -> Dict[str, mp.mpf]:
    """The four values behind `analytic.tautology_bounds` as `prec`-bit
    mpfs, summing the three series term by term over k in
    [floor(sqrt(n)), 15*floor(sqrt(n))]."""
    if n < 4:
        raise ValueError("the bound families need floor(sqrt(n)) >= 2")
    s = math.isqrt(n)
    k_lo, k_hi, j_max = s, 15 * s, 5
    point = singularity(n)
    with mp.workprec(prec):
        rho = _oracle_mpf(point.radius)
        b = _oracle_mpf(point.nonleaf_value)
        w = 2 * n * rho
        b_powers = [b ** i for i in range(j_max)]
        inv_fact = [mp.mpf(1) / mp.factorial(j - 1) for j in range(1, j_max + 1)]

        def deriv_sum(k_shift: int, k: int) -> mp.mpf:
            # sum_j (k+shift)^j * j * b^{j-1} / j!
            total = mp.mpf(0)
            base = mp.mpf(k + k_shift)
            p = base
            for j in range(1, j_max + 1):
                total += p * b_powers[j - 1] * inv_fact[j - 1]
                p *= base
            return total

        e_sum = mp.mpf(0)
        wk = w ** k_lo
        for k in range(k_lo, k_hi + 1):
            e_sum += wk * deriv_sum(1, k)
            wk *= w
        e_ratio = rho / 2 * e_sum

        base1 = (2 * n - mp.sqrt(n) / 2) * rho
        e1_sum = mp.mpf(0)
        bk = mp.mpf(1)
        for k in range(k_lo, k_hi + 1):
            e1_sum += bk * deriv_sum(5, k)
            bk *= base1
        e1 = rho / 2 * (w ** s) * e1_sum

        e2_sum = mp.mpf(0)
        wk = mp.mpf(1)
        for k in range(k_lo, k_hi + 1):
            e2_sum += wk * deriv_sum(5, k)
            wk *= w
        half_s = s // 2
        e2 = (
            rho / 2
            * mp.mpf(math.comb(n, half_s))
            * mp.sqrt(2) ** s
            * (mp.sqrt(n) / 2 * rho) ** s
            * e2_sum
        )
        return {"lower": e_ratio - e1 - e2, "E_ratio": e_ratio, "E1_bound": e1, "E2_bound": e2}


def _oracle_tautology_bounds(n: int, prec: int = 200) -> Dict[str, float]:
    """`analytic.tautology_bounds` from the term-by-term sums, with the same
    outward rounding to floats."""
    sums = _oracle_tautology_sums(n, prec)
    return {
        "lower": _float_down(sums["lower"]),
        "E_ratio": float(sums["E_ratio"]),
        "E1_bound": _float_up(sums["E1_bound"]),
        "E2_bound": _float_up(sums["E2_bound"]),
    }


def _oracle_generator_images(n: int) -> List[List[int]]:
    """The image of every mask under each of n generators of B_n: "negate
    x1" (flip bit 0 of the assignment point) and the adjacent swaps of x_v
    and x_{v+1} (swap bits v-1 and v).  A mask's image is the OR of one
    lookup per byte of the mask, in a table per byte position."""
    points = 1 << n
    width = min(8, points)
    perms = [[k ^ 1 for k in range(points)]]
    for v in range(n - 1):
        swap = (1 << v) | (2 << v)
        perms.append(
            [k ^ swap if (k >> v & 1) != (k >> (v + 1) & 1) else k for k in range(points)]
        )
    result = []
    for perm in perms:
        images = [0]
        for base in range(0, points, width):
            table = [
                sum(1 << perm[base + i] for i in range(width) if byte >> i & 1)
                for byte in range(1 << width)
            ]
            images = [high | low for high in table for low in images]
        result.append(images)
    return result


def _oracle_orbit_tables(n: int) -> Tuple[List[int], List[int]]:
    """`distribution._orbit_tables` by a search under the n generators of
    `_oracle_generator_images`: (orbit id of every mask, smallest mask of
    every orbit), orbits numbered in the order of their smallest masks."""
    images = _oracle_generator_images(n)
    orbit = [-1] * (1 << (1 << n))
    reps: List[int] = []
    for start, seen in enumerate(orbit):
        if seen >= 0:
            continue
        ident = len(reps)
        reps.append(start)
        orbit[start] = ident
        stack = [start]
        while stack:
            mask = stack.pop()
            for image in images:
                other = image[mask]
                if orbit[other] < 0:
                    orbit[other] = ident
                    stack.append(other)
    return orbit, reps


def _oracle_incidence(orbit: List[int], reps: List[int]):
    """The zeta and Möbius incidence on orbits by enumerating the submasks of
    each representative one at a time: (zeta rows, Möbius rows), each row a
    pair (orbit ids, coefficients).  The zeta row of F holds c(F, O), the
    masks of orbit O within F; the Möbius row holds (-1)^(|F| - |O|) c(F, O).
    `distribution._incidence` is the zeta rows as columns, diagonal left out."""
    odd = [rep.bit_count() & 1 for rep in reps]
    zeta, mobius = [], []
    for rep, parity in zip(reps, odd):
        subs = [0]
        bits = rep
        while bits:
            low = bits & -bits
            subs += [s | low for s in subs]
            bits ^= low
        counts = Counter(map(orbit.__getitem__, subs))
        ids = tuple(counts)
        zeta.append((ids, tuple(counts.values())))
        mobius.append((ids, tuple(-c if odd[o] != parity else c for o, c in counts.items())))
    return zeta, mobius


def _oracle_transform(rows, v: List[int]) -> List[int]:
    """The rows of `_oracle_incidence` applied to the orbit vector v, one
    dot product per row: `distribution._zeta` and `distribution._mobius`
    without their triangular structure."""
    at = v.__getitem__
    return [sum(map(operator.mul, coeffs, map(at, ids))) for ids, coeffs in rows]


def _oracle_first_level_leaf_law(n: int, j_max: int, prec: int = 200) -> List[float]:
    """`analytic.first_level_leaf_law` in `prec`-bit mpfs, every term from
    its own power u^j of u = 2n*radius/(1 - nonleaf_value), not a running
    product."""
    point = singularity(n)
    with mp.workprec(prec):
        rho = _oracle_mpf(point.radius)
        inverse = 1 / (1 - _oracle_mpf(point.nonleaf_value))
        u = 2 * n * rho * inverse
        scale = rho * inverse**2
        return [float(scale - rho)] + [float(scale * (j + 1) * u**j) for j in range(1, j_max + 1)]
