"""Command-line interface.

Each subcommand takes only the flags it reads, plus --config and --out:

  count       --n  --max-size (20)  --format
  dist        --n  --m  --format
  limit       --n  --f-hex  --m (60)  --tol (1e-4)
  sample      --n  --m  --seed (0)  --trials (10000)  --stats  --emit-trees
  analyze     --n  --family  --params
  complexity  --n  --all | --f-hex  --format
  reduce      --n (up to 13)  (formula on stdin)
  verify      --suite (all)

Any other flag is a usage error, and so is a missing --n, --m (dist,
sample), --f-hex (limit), --family (analyze), or complexity without exactly
one of --all and --f-hex, a negative --emit-trees, an unknown --family, an
unreadable --config file, a --config line without `=` and an --out file
that cannot be opened for writing.  analyze reads --params (key=integer,
each key at most once) for catalog families, and no other flag for its
built-ins singularity, expected_first_level_leaves and tautology_bounds;
it has no precision flag, because the library picks its own arithmetic
(exact for t-free families up to n = 10^4, 200-bit decimal floats
otherwise).  `--format csv|json` exists only on count, dist and
complexity --all, which print CSV by default; the other commands print
JSON (reduce and sample --emit-trees print formulas).  A JSON payload's
"config" holds the command and each of its flags with the value used.
Data goes to stdout (or --out); progress and warnings go to stderr.  Exit
codes: 0 success, 1 verification failure, 2 usage error.  A stdout closed
by its reader (`| head`) ends the command quietly with exit 0.

Configuration precedence: command-line flags > --config file > defaults.
The config file is flat `key = value` text, keys matching flag names with
dashes or underscores; keys the command has no flag for, and switches
(--all), are ignored.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from . import __version__, families
from .analytic import (
    ASYMPTOTIC_REFERENCE,
    default_t_env,
    expected_first_level_leaves,
    limiting_ratio,
    singularity,
    tautology_bounds,
)
from .complexity import complexity as complexity_of
from .complexity import _minimal_runs, full_table, reduce_irreducible
from .counting import BudgetError, series
from .distribution import _text, exact_distribution, function_counts, limit_estimate
from .formula import Record, TruthTable, parse_formula, serialize
from .quadext import QuadExt
from .sampler import monte_carlo, sample_many
from .verify import SUITES, run_suite


def _read_config_file(path: str) -> Dict[str, str]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ValueError(f"cannot read config file: {exc}") from None
    values: Dict[str, str] = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected key = value")
        key, value = line.split("=", 1)
        values[key.strip().replace("-", "_")] = value.strip()
    return values


def _emit(chunks: Iterable[str], out_path: Optional[str]) -> None:
    """Write the chunks and a newline to `out_path` (stdout when unset or '-')."""
    if out_path and out_path != "-":
        try:
            fh = open(out_path, "w", encoding="utf-8")
        except OSError as exc:
            raise ValueError(f"cannot write --out file: {exc}") from None
        with fh:
            fh.writelines(chunks)
            fh.write("\n")
    else:
        sys.stdout.writelines(chunks)
        sys.stdout.write("\n")


def _jsonable(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, QuadExt):
        return str(value)
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, Record):
        return _jsonable(value.as_dict())
    if hasattr(value, "__float__") and not isinstance(value, (int, float, bool)):
        return float(value)
    return value


def _emit_json(args: argparse.Namespace, *records: dict, **fields) -> None:
    """The payload {"config": the command and its flags, **fields} as indented
    JSON; after JSON-lines `records`, as one more line."""
    config = {key: value for key, value in vars(args).items() if key != "func"}
    payload = {"config": config, **fields}
    if records:
        chunks = ["\n".join(json.dumps(_jsonable(r)) for r in (*records, payload))]
    else:  # the chunks json.dumps(indent=2) joins
        chunks = json.JSONEncoder(indent=2).iterencode(_jsonable(payload))
    _emit(chunks, args.out)


def _emit_rows(args: argparse.Namespace, header: Sequence[str], rows: List[tuple]) -> None:
    """A table as CSV (None is an empty cell) or, with --format json, as
    {"config", "rows"} with one object per row."""
    if args.format == "json":
        _emit_json(args, rows=[dict(zip(header, row)) for row in rows])
        return
    lines = [",".join(header)]
    lines += [",".join("" if v is None else str(v) for v in row) for row in rows]
    _emit(["\n".join(lines)], args.out)


# -- subcommand implementations ------------------------------------------------


def cmd_count(args: argparse.Namespace) -> int:
    cs = series(args.n, args.max_size)
    rows = [(m, cs.a_hat[m], cs.a_total[m]) for m in range(1, cs.max_size + 1)]
    _emit_rows(args, ("m", "a_hat", "a_total"), rows)
    return 0


def cmd_dist(args: argparse.Namespace) -> int:
    table = function_counts(args.m, args.n)
    dist = exact_distribution(args.m, args.n)
    rows = [
        (TruthTable(args.n, mask).to_hex(), table.and_rooted[mask], table.or_rooted[mask], p)
        for mask, p in sorted(dist.probabilities.items())
    ]
    _emit_rows(args, ("truth_table_hex", "count_and", "count_or", "probability"), rows)
    return 0


def cmd_limit(args: argparse.Namespace) -> int:
    """The report of `limit_estimate`; its `converged` only compares the two
    parity means over sizes M-10..M against the absolute --tol, and is no
    error bound (at M = 60 P(True) at n = 3 reads 0.2789648, converged,
    against a limit of 0.2824906)."""
    f = TruthTable.from_hex(args.f_hex, args.n)
    report = limit_estimate(args.n, f, M=args.m, tol=args.tol)
    _emit_json(
        args,
        f=report.f_hex,
        n=report.n,
        M=report.M,
        estimate=report.estimate,
        converged=report.converged,
        odd_tail=report.odd_tail,
        even_tail=report.even_tail,
    )
    return 0


def cmd_sample(args: argparse.Namespace) -> int:
    if args.emit_trees:
        trees = sample_many(args.m, args.n, args.emit_trees, args.seed)
        _emit(["\n".join(serialize(t) for t in trees)], args.out)
        return 0
    _emit_json(args, report=monte_carlo(args.m, args.n, args.trials, args.seed, args.stats))
    return 0


def _reference(name: str, n: int, **params: int) -> Optional[dict]:
    """The leading-order term of `name` at n, or None where none is known."""
    if name not in ASYMPTOTIC_REFERENCE:
        return None
    expr, value = ASYMPTOTIC_REFERENCE[name]
    return {"expr": expr, "value": value(n, **params)}


def cmd_analyze(args: argparse.Namespace) -> int:
    name, n = args.family, args.n
    if name in ("tautology_bounds", "expected_first_level_leaves", "singularity"):
        if args.params:
            raise ValueError(f"--family {name} takes no --params")
        del args.params  # config lists only the flags the family reads
    if name == "tautology_bounds":
        _emit_json(args, values=tautology_bounds(n))
        return 0
    if name == "expected_first_level_leaves":
        value = expected_first_level_leaves(n)
        _emit_json(
            args,
            exact=str(value),
            float=float(value),
            asymptotic_reference=_reference(name, n),
        )
        return 0
    if name == "singularity":
        point = singularity(n)
        _emit_json(
            args,
            radius={"exact": str(point.radius), "float": float(point.radius)},
            rooted_value={
                "exact": str(point.rooted_value),
                "float": float(point.rooted_value),
            },
            nonleaf_value={
                "exact": str(point.nonleaf_value),
                "float": float(point.nonleaf_value),
            },
        )
        return 0
    builder = families.CATALOG.get(name)
    if builder is None:
        raise ValueError(
            f"unknown family {name!r}; known: {sorted(families.CATALOG)} "
            "plus tautology_bounds, expected_first_level_leaves, singularity"
        )
    params: Dict[str, int] = {}
    for item in args.params:
        if "=" not in item:
            raise ValueError(f"--params entries look like key=value, got {item!r}")
        key, value = item.split("=", 1)
        key = key.strip()
        if key in params:
            raise ValueError(f"--params gives {key!r} more than once")
        try:
            params[key] = int(value)
        except ValueError:
            raise ValueError(f"--params {key} needs an integer, got {value!r}") from None
    try:
        family = builder(n, **params)
    except TypeError as exc:
        raise ValueError(f"family {name!r}: {exc}") from exc
    env = default_t_env(n) if name in families.T_DEPENDENT else None
    value = limiting_ratio(family, n, env)
    _emit_json(
        args,
        family=name,
        exact=str(value) if isinstance(value, QuadExt) else None,
        float=float(value),
        asymptotic_reference=_reference(name, n, **params),
        t_env=env,
    )
    return 0


def cmd_complexity(args: argparse.Namespace) -> int:
    if args.all:
        args.format = args.format or "csv"
        rows = [(r.f.to_hex(), r.L, r.m_f) for r in full_table(args.n)]
        _emit_rows(args, ("truth_table_hex", "L", "m_f"), rows)
        return 0
    if args.format == "csv":
        raise ValueError("complexity --f-hex prints JSON; --format csv needs --all")
    args.format = "json"
    record = complexity_of(TruthTable.from_hex(args.f_hex, args.n), args.n)
    try:  # null for constants, literals and functions with too many minimal trees
        witnesses = [_text(op, kids) for op, runs in _minimal_runs(record, args.n) for kids in runs]
    except (ValueError, BudgetError):
        witnesses = None
    _emit_json(
        args,
        truth_table_hex=record.f.to_hex(),
        L=record.L,
        m_f=record.m_f,
        witnesses=witnesses,
    )
    return 0


def cmd_reduce(args: argparse.Namespace) -> int:
    tree = parse_formula(sys.stdin.read(), args.n)
    reduced, trace = reduce_irreducible(tree, args.n)
    for removed in trace:
        print(f"removed: {serialize(removed)}", file=sys.stderr)
    _emit([serialize(reduced)], args.out)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    results = run_suite(args.suite)
    records = []
    for result in results:
        records.append(
            {
                "check": result.check_id,
                "criterion": result.criterion,
                "name": result.name,
                "passed": result.passed,
                "seconds": result.seconds,
                "detail": result.detail,
            }
        )
        print(result.line(), file=sys.stderr)
    passed = sum(r.passed for r in results)
    _emit_json(
        args,
        *records,
        suite=args.suite,
        checks=len(results),
        passed=passed,
        failed=len(results) - passed,
    )
    return 0 if passed == len(results) else 1


# -- argument parsing ------------------------------------------------------------


def _build_parser() -> Tuple[argparse.ArgumentParser, Dict[str, argparse.ArgumentParser]]:
    """The parser and, by name, the subparser of each command."""
    parser = argparse.ArgumentParser(
        prog="andortrees",
        description="Exact and asymptotic analysis of uniform random and/or trees.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary, n=True):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(func=func)
        p.add_argument("--config", help="flat key = value config file")
        if n:
            p.add_argument("--n", type=int, required=True, help="number of variables")
        p.add_argument("--out", help="output path, '-' for stdout")
        return p

    p = command("count", cmd_count, "per-size exact tree counts (CSV: m,a_hat,a_total)")
    p.add_argument("--max-size", type=int, default=20)
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = command("dist", cmd_dist, "exact distribution over functions at one size")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = command("limit", cmd_limit, "tail-averaged limiting probability of one function")
    p.add_argument("--m", type=int, default=60, help="largest size M")
    p.add_argument("--f-hex", required=True, help="target truth table, lowercase hex")
    p.add_argument("--tol", type=float, default=1e-4)

    p = command("sample", cmd_sample, "uniform sampling and Monte Carlo statistics")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=10_000)
    p.add_argument("--stats", nargs="+", default=["simple_tautology_rate"])
    p.add_argument("--emit-trees", type=int, default=0, metavar="N")

    p = command("analyze", cmd_analyze, "limiting ratio of a catalog family")
    p.add_argument("--family", required=True)
    p.add_argument(
        "--params",
        nargs="*",
        default=[],
        help="family parameters as key=value (e.g. k=3 gamma=2 ell=1)",
    )

    p = command("complexity", cmd_complexity, "tree-size complexity records")
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--all", action="store_true")
    which.add_argument("--f-hex")
    p.add_argument(
        "--format", choices=("csv", "json"), help="output of --all (default csv)"
    )

    command("reduce", cmd_reduce, "read a formula on stdin, print its irreducible form")

    p = command("verify", cmd_verify, "run a verification suite", n=False)
    p.add_argument("--suite", choices=sorted(SUITES), default="all")

    return parser, dict(sub.choices)


def _resolve(commands: Dict[str, argparse.ArgumentParser], argv: List[str]) -> List[str]:
    """`argv` with the --config file's values put in as flags right after
    the subcommand: argparse casts and checks them like the user's flags,
    which come later and so win.  A file value is dropped when the user
    gave a flag it excludes (the file's f_hex under `complexity --all`)."""
    pre = argparse.ArgumentParser(prog="andortrees", add_help=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv)[0].config
    if not path or not argv or argv[0] not in commands:
        return argv
    values = _read_config_file(path)
    parser = commands[argv[0]]
    given = {parser._option_string_actions.get(arg.split("=", 1)[0]) for arg in argv[1:]}
    excluded = {
        action
        for group in parser._mutually_exclusive_groups
        if given.intersection(group._group_actions)
        for action in group._group_actions
    }
    flags: List[str] = []
    for action in parser._actions:
        raw = values.get(action.dest)
        if raw is None or action.nargs == 0 or action.dest == "config" or action in excluded:
            continue
        if action.nargs in ("*", "+"):
            flags += [action.option_strings[0], *raw.split()]
        else:
            flags.append(f"{action.option_strings[0]}={raw}")
    return argv[:1] + flags + argv[1:]


def main(argv: Optional[List[str]] = None) -> int:
    parser, commands = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(_resolve(commands, argv))
        code = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: point it at devnull so that the flush at
        # exit cannot raise again, and end quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
