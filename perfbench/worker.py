"""One benchmark job in a fresh, single-threaded interpreter.

``run.py`` starts this script once per timed process, from the repository
root with ``PYTHONPATH=src``, and passes the job as one JSON argument.  The
job runs first and is timed; the correctness gate runs after it, outside the
timed window.  The last line of standard output is a JSON result holding
monotonic timestamps, the job's answers, the gate's checks and the spans.

Spans are recorded only when the job asks for a trace.  Monte Carlo jobs
trace by wrapping the library functions that ``monte_carlo`` calls, so the
traced and untraced runs execute the same library code; exact jobs put
spans around their own calls into ``distribution`` and ``complexity``.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import resource
import sys
import warnings
from fractions import Fraction

from spans import NullTracer, Tracer, now

#: size classes up to this many trees are cross-checked by brute enumeration
BRUTE_LIMIT = 20_000
#: sampled trees whose shape the gate checks
CHECKED_TREES = 100


def digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


# -- Monte Carlo ---------------------------------------------------------------


def install_mc_spans(tr: Tracer, sampler) -> None:
    tr.wrap(sampler.SamplerContext, "sample", "sampler.sample")
    tr.wrap(sampler, "series", "counting.series")
    tr.wrap(sampler, "sequence_tables", "counting.sequence_tables")
    tr.wrap(sampler, "truth_table", "formula.truth_table")
    for name in ("is_simple_tautology", "first_level_leaf_count", "is_tautology"):
        tr.wrap(sampler, name, "formula.score")
    for name in ("ks_statistic", "ks_critical"):
        tr.wrap(sampler, name, "sampler.ks")


def report_data(report) -> dict:
    return {
        name: {
            "estimate": stat.estimate,
            "stderr": stat.stderr,
            "ci95": stat.ci95,
            "extra": stat.extra,
        }
        for name, stat in report.stats.items()
    }


def mc_job(job: dict, tr: Tracer) -> dict:
    sampler = importlib.import_module("andortrees.sampler")
    install_mc_spans(tr, sampler)
    n, m = job["n"], job["m"]
    with tr.span("sampler.get_context"):
        sampler.get_context(n, m)
    setup_end = now()
    with tr.span("sampler.monte_carlo"):
        report = sampler.monte_carlo(m, n, job["trials"], job["mc_seed"], job["stats"])
    job_end = now()
    answers = json.loads(json.dumps(report_data(report)))
    return {"setup_end": setup_end, "job_end": job_end, "answers": answers}


def tree_problem(tree, n: int, m: int, formula):
    """A description of what is wrong with a sampled tree, or None."""
    size = 0
    stack = [(tree, None)]
    while stack:
        node, parent_op = stack.pop()
        size += 1
        if isinstance(node, formula.Leaf):
            if not 1 <= node.literal.var <= n:
                return f"variable x{node.literal.var} outside 1..{n}"
            continue
        if node.op not in (formula.AND, formula.OR):
            return f"unknown connective {node.op!r}"
        if node.op == parent_op:
            return f"{node.op} node under an {node.op} node"
        if len(node.children) < 2:
            return f"internal node with {len(node.children)} children"
        stack.extend((child, node.op) for child in node.children)
    if size != m:
        return f"size {size}, expected {m}"
    return None


def own_table(tree, n: int, formula) -> int:
    """Truth-table bits by an iterative fold, independent of formula.truth_table."""
    full = (1 << (1 << n)) - 1
    var_bits = [0] + [sum(1 << k for k in range(1 << n) if k >> (v - 1) & 1)
                      for v in range(1, n + 1)]
    values = {}
    stack = [(tree, False)]
    while stack:
        node, done = stack.pop()
        if isinstance(node, formula.Leaf):
            bits = var_bits[node.literal.var]
            values[id(node)] = full ^ bits if node.literal.negated else bits
        elif not done:
            stack.append((node, True))
            stack.extend((child, False) for child in node.children)
        else:
            parts = [values.pop(id(child)) for child in node.children]
            acc = full if node.op == formula.AND else 0
            for bits in parts:
                acc = acc & bits if node.op == formula.AND else acc | bits
            values[id(node)] = acc
    return values[id(tree)]


def own_scores(tree, formula) -> tuple:
    """(first-level leaf count, simple tautology) straight from the definitions."""
    if isinstance(tree, formula.Leaf):
        return 0, False
    leaves = [c.literal for c in tree.children if isinstance(c, formula.Leaf)]
    literals = {(lit.var, lit.negated) for lit in leaves}
    clash = any((var, not neg) in literals for var, neg in literals)
    return len(leaves), tree.op == formula.OR and clash


def mc_gate(job: dict, checks: list) -> None:
    sampler = importlib.import_module("andortrees.sampler")
    formula = importlib.import_module("andortrees.formula")
    n, m = job["n"], job["m"]
    counting_gate(n, m, checks)
    want_table = any(s == "tautology_rate" or s.startswith("function_frequency:")
                     for s in job["stats"])
    trees = sampler.sample_many(m, n, CHECKED_TREES, job["mc_seed"])
    for index, tree in enumerate(trees):
        name = f"tree {index} of sample_many(m={m}, n={n})"
        problem = tree_problem(tree, n, m, formula)
        checks.append([f"{name}: shape", problem is None, problem])
        got = (formula.first_level_leaf_count(tree), formula.is_simple_tautology(tree))
        want = own_scores(tree, formula)
        checks.append([f"{name}: leaf count, simple tautology", got == want, f"{got} != {want}"])
        if want_table:
            got, want = formula.truth_table(tree, n, max_vars=n).bits, own_table(tree, n, formula)
            checks.append([f"{name}: truth table", got == want, f"{got:x} != {want:x}"])


# -- exact ---------------------------------------------------------------------


def exact_query(D, TruthTable, kind: str, args: list):
    """Call the public function behind one query; returns the raw result."""
    if kind == "counts":
        n, m = args
        return D.function_counts(m, n)
    if kind == "prob":
        n, m, bits = args
        return D.prob(m, n, TruthTable(n, bits))
    if kind == "dist":
        n, m = args
        return D.exact_distribution(m, n)
    if kind == "prob_ge":
        n, m, bits = args
        return D.prob_ge(m, n, TruthTable(n, bits))
    if kind == "taut":
        n, m = args
        return D.tautology_count(m, n)
    if kind == "limit":
        n, bits, M = args
        return D.limit_estimate(n, TruthTable(n, bits), M=M)
    raise ValueError(f"unknown query kind {kind!r}")


def exact_answer(kind: str, result):
    """A JSON value that is equal for two results only if they are identical."""
    if kind == "counts":
        return digest((result.and_rooted, result.or_rooted))
    if kind == "dist":
        return digest(sorted(result.probabilities.items()))
    if kind == "limit":
        return [repr(result.estimate), result.converged,
                repr(result.odd_tail), repr(result.even_tail)]
    if isinstance(result, Fraction):
        return f"{result.numerator}/{result.denominator}"
    return str(result)


def exact_job(job: dict, tr: Tracer) -> dict:
    D = importlib.import_module("andortrees.distribution")
    C = importlib.import_module("andortrees.complexity")
    TruthTable = importlib.import_module("andortrees.formula").TruthTable
    tr.wrap(D, "series", "counting.series")
    warm = job["warm"]
    for n, top in job["tops"]:
        if warm:
            name = "distribution.cache_load"
        else:
            name = "distribution.engine.n4" if n == 4 else "distribution.engine.n1_3"
        with tr.span(name):
            D.function_counts(top, n)
    setup_end = now()
    results = []
    for kind, *args in job["queries"]:
        name = "distribution.limit_estimate" if kind == "limit" else "distribution.query"
        with tr.span(name):
            results.append(exact_query(D, TruthTable, kind, args))
    records = []
    if not warm:
        with tr.span("complexity.full_table"):
            table = C.full_table(2)
        for hex_ in job["l_picks"]:
            with tr.span("complexity.complexity"):
                records.append(C.complexity(TruthTable.from_hex(hex_, 3), 3))
    job_end = now()
    answers = {
        "queries": [exact_answer(q[0], r) for q, r in zip(job["queries"], results)],
    }
    if not warm:
        answers["full_table_2"] = {r.f.to_hex(): r.L for r in table}
        answers["l_picks"] = {r.f.to_hex(): [r.L, r.m_f] for r in records}
    return {"setup_end": setup_end, "job_end": job_end, "answers": answers}


def exact_gate(job: dict, checks: list) -> None:
    D = importlib.import_module("andortrees.distribution")
    counting = importlib.import_module("andortrees.counting")
    for n, top in job["tops"]:
        counting_gate(n, top, checks)
        a_total = counting.series(n, top).a_total
        full = (1 << (1 << n)) - 1
        for m in range(1, top + 1):
            table = D.function_counts(m, n)
            total = sum(table.total(f) for f in range(full + 1))
            checks.append([f"engine total n={n} m={m}", total == a_total[m],
                           f"{total} != {a_total[m]}"])
            t, f = table.total(full), table.total(0)
            checks.append([f"P(True) == P(False) n={n} m={m}", t == f, f"{t} != {f}"])


# -- shared --------------------------------------------------------------------


def counting_gate(n: int, top: int, checks: list) -> None:
    """series() against brute enumeration at small m and the algebraic identity."""
    counting = importlib.import_module("andortrees.counting")
    cs = counting.series(n, top)
    nonzero = [m for m, v in enumerate(counting.algebraic_residual(cs)) if v]
    checks.append([f"algebraic residual n={n} M={top}", not nonzero, nonzero[:5]])
    for m in range(1, top + 1):
        if cs.a_total[m] > BRUTE_LIMIT:
            break
        got = sum(1 for _ in counting.brute_enumerate(m, n))
        checks.append([f"series == brute n={n} m={m}", got == cs.a_total[m],
                       f"{got} != {cs.a_total[m]}"])


JOBS = {"mc": (mc_job, mc_gate), "exact": (exact_job, exact_gate)}


def main() -> None:
    job = json.loads(sys.argv[1])
    warnings.simplefilter("ignore", RuntimeWarning)  # n=4 sweeps warn that they are slow
    tr = Tracer() if job["trace"] else NullTracer()
    run, gate = JOBS[job["kind"]]
    result = run(job, tr)
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    tr.enabled = False
    checks: list = []
    if job["gate"]:
        try:
            gate(job, checks)
        except Exception as exc:  # a raising check is a failed check, not a crash
            checks.append(["gate raised", False, f"{type(exc).__name__}: {exc}"])
    result["checks"] = checks
    result["spans"] = tr.spans
    print(json.dumps(result))


if __name__ == "__main__":
    main()
