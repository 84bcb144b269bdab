"""Command-line interface.

Subcommands: count, dist, limit, sample, analyze, complexity, reduce, verify.
Data output goes to stdout (or --out) as CSV or JSON; progress and warnings
go to stderr.  Exit codes: 0 success, 1 verification failure, 2 usage error.

Configuration precedence: command-line flags > --config file > defaults.
The config file is flat `key = value` text, keys matching flag names with
dashes or underscores.  The environment variable ANDORTREES_CACHE_DIR points
the distribution engine at a cache directory of versioned marshal files
(format andortrees-engine-3; files of earlier formats are never opened).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Dict, List, Optional

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
from .complexity import full_table, minimal_trees, reduce_irreducible
from .counting import BudgetError, series
from .distribution import exact_distribution, function_counts, limit_estimate
from .formula import Record, TruthTable, _set, parse_formula, serialize
from .quadext import QuadExt
from .sampler import monte_carlo, sample_many
from .verify import SUITES, run_suite


class RunConfig(Record):
    """Fully resolved invocation parameters, embedded in every report."""

    __slots__ = (
        "command", "n", "m", "max_size", "seed", "trials", "precision_bits", "fmt",
        "out", "suite", "family", "f_hex", "tol", "params",
    )

    def __init__(
        self,
        command: str,
        n: Optional[int] = None,
        m: Optional[int] = None,
        max_size: Optional[int] = None,
        seed: int = 0,
        trials: int = 10_000,
        precision_bits: int = 200,
        fmt: str = "csv",
        out: Optional[str] = None,
        suite: Optional[str] = None,
        family: Optional[str] = None,
        f_hex: Optional[str] = None,
        tol: float = 1e-4,
        params: Optional[Dict[str, int]] = None,
    ):
        _set(self, "command", command)
        _set(self, "n", n)
        _set(self, "m", m)
        _set(self, "max_size", max_size)
        _set(self, "seed", seed)
        _set(self, "trials", trials)
        _set(self, "precision_bits", precision_bits)
        _set(self, "fmt", fmt)
        _set(self, "out", out)
        _set(self, "suite", suite)
        _set(self, "family", family)
        _set(self, "f_hex", f_hex)
        _set(self, "tol", tol)
        _set(self, "params", {} if params is None else params)

    def as_dict(self) -> Dict[str, object]:
        data = super().as_dict()
        data["params"] = dict(self.params)
        return data


def _read_config_file(path: str) -> Dict[str, str]:
    values: Dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise SystemExit(f"config line {lineno}: expected key = value")
            key, value = line.split("=", 1)
            values[key.strip().replace("-", "_")] = value.strip()
    return values


def _open_out(path: Optional[str]):
    if path and path != "-":
        return open(path, "w", encoding="utf-8")
    return sys.stdout


def _emit(text: str, out_path: Optional[str]) -> None:
    handle = _open_out(out_path)
    try:
        handle.write(text)
        if not text.endswith("\n"):
            handle.write("\n")
    finally:
        if handle is not sys.stdout:
            handle.close()


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


# -- subcommand implementations ------------------------------------------------


def cmd_count(cfg: RunConfig) -> int:
    cs = series(cfg.n, cfg.max_size or cfg.m or 20)
    if cfg.fmt == "json":
        payload = {
            "config": cfg.as_dict(),
            "rows": [
                {"m": m, "a_hat": cs.a_hat[m], "a_total": cs.a_total[m]}
                for m in range(1, cs.max_size + 1)
            ],
        }
        _emit(json.dumps(_jsonable(payload), indent=2), cfg.out)
    else:
        lines = ["m,a_hat,a_total"]
        lines += [
            f"{m},{cs.a_hat[m]},{cs.a_total[m]}" for m in range(1, cs.max_size + 1)
        ]
        _emit("\n".join(lines), cfg.out)
    return 0


def cmd_dist(cfg: RunConfig) -> int:
    if cfg.m is None:
        raise SystemExit("dist needs --m")
    table = function_counts(cfg.m, cfg.n)
    dist = exact_distribution(cfg.m, cfg.n)
    rows = []
    for mask in sorted(dist.probabilities):
        rows.append(
            {
                "truth_table_hex": TruthTable(cfg.n, mask).to_hex(),
                "count_and": table.and_rooted[mask],
                "count_or": table.or_rooted[mask],
                "probability": dist.probabilities[mask],
            }
        )
    if cfg.fmt == "json":
        _emit(json.dumps(_jsonable({"config": cfg.as_dict(), "rows": rows}), indent=2), cfg.out)
    else:
        lines = ["truth_table_hex,count_and,count_or,probability"]
        lines += [
            f"{r['truth_table_hex']},{r['count_and']},{r['count_or']},{r['probability']}"
            for r in rows
        ]
        _emit("\n".join(lines), cfg.out)
    return 0


def cmd_limit(cfg: RunConfig) -> int:
    if cfg.f_hex is None:
        raise SystemExit("limit needs --f-hex (truth table in hex)")
    f = TruthTable.from_hex(cfg.f_hex, cfg.n)
    report = limit_estimate(cfg.n, f, M=cfg.m or 60, tol=cfg.tol)
    payload = {
        "config": cfg.as_dict(),
        "f": report.f_hex,
        "n": report.n,
        "M": report.M,
        "estimate": report.estimate,
        "converged": report.converged,
        "odd_tail": report.odd_tail,
        "even_tail": report.even_tail,
    }
    _emit(json.dumps(_jsonable(payload), indent=2), cfg.out)
    return 0


def cmd_sample(cfg: RunConfig, stats: List[str], emit_trees: int) -> int:
    if cfg.m is None:
        raise SystemExit("sample needs --m")
    if emit_trees:
        trees = sample_many(cfg.m, cfg.n, emit_trees, cfg.seed)
        _emit("\n".join(serialize(t) for t in trees), cfg.out)
        return 0
    if not stats:
        stats = ["simple_tautology_rate"]
    report = monte_carlo(cfg.m, cfg.n, cfg.trials, cfg.seed, stats)
    payload = {"config": cfg.as_dict(), "report": report}
    _emit(json.dumps(_jsonable(payload), indent=2), cfg.out)
    return 0


def cmd_analyze(cfg: RunConfig) -> int:
    if cfg.family is None:
        raise SystemExit("analyze needs --family")
    name = cfg.family
    if name == "tautology_bounds":
        values = tautology_bounds(cfg.n, prec=cfg.precision_bits)
        payload = {"config": cfg.as_dict(), "values": values}
        _emit(json.dumps(_jsonable(payload), indent=2), cfg.out)
        return 0
    if name == "expected_first_level_leaves":
        value = expected_first_level_leaves(cfg.n)
        payload = {
            "config": cfg.as_dict(),
            "exact": str(value),
            "float": float(value),
            "asymptotic_reference": {
                "expr": "2*sqrt(2n)",
                "value": 2 * (2 * cfg.n) ** 0.5,
            },
        }
        _emit(json.dumps(_jsonable(payload), indent=2), cfg.out)
        return 0
    if name == "singularity":
        point = singularity(cfg.n)
        payload = {
            "config": cfg.as_dict(),
            "radius": {"exact": str(point.radius), "float": float(point.radius)},
            "rooted_value": {
                "exact": str(point.rooted_value),
                "float": float(point.rooted_value),
            },
            "nonleaf_value": {
                "exact": str(point.nonleaf_value),
                "float": float(point.nonleaf_value),
            },
        }
        _emit(json.dumps(_jsonable(payload), indent=2), cfg.out)
        return 0
    builder = families.CATALOG.get(name)
    if builder is None:
        raise SystemExit(
            f"unknown family {name!r}; known: {sorted(families.CATALOG)} "
            "plus tautology_bounds, expected_first_level_leaves, singularity"
        )
    try:
        family = builder(cfg.n, **cfg.params)
    except TypeError as exc:
        raise ValueError(f"family {name!r}: {exc}") from exc
    env = default_t_env(cfg.n) if name in families.T_DEPENDENT else None
    value = limiting_ratio(family, cfg.n, env=env, prec=cfg.precision_bits)
    ref_entry = ASYMPTOTIC_REFERENCE.get(name)
    reference = None
    if ref_entry and ref_entry[1] is not None:
        try:
            reference = {"expr": ref_entry[0], "value": ref_entry[1](cfg.n, **cfg.params)}
        except TypeError:
            reference = {"expr": ref_entry[0]}
    payload = {
        "config": cfg.as_dict(),
        "family": name,
        "exact": str(value) if isinstance(value, QuadExt) else None,
        "float": float(value),
        "asymptotic_reference": reference,
        "t_env": env,
    }
    _emit(json.dumps(_jsonable(payload), indent=2), cfg.out)
    return 0


def cmd_complexity(cfg: RunConfig, do_all: bool) -> int:
    if do_all:
        records = full_table(cfg.n)
        if cfg.fmt == "json":
            rows = [
                {"truth_table_hex": r.f.to_hex(), "L": r.L, "m_f": r.m_f}
                for r in records
            ]
            _emit(json.dumps(_jsonable({"config": cfg.as_dict(), "rows": rows}), indent=2), cfg.out)
        else:
            lines = ["truth_table_hex,L,m_f"]
            lines += [
                f"{r.f.to_hex()},{r.L},{'' if r.m_f is None else r.m_f}"
                for r in records
            ]
            _emit("\n".join(lines), cfg.out)
        return 0
    if cfg.f_hex is None:
        raise SystemExit("complexity needs --f-hex or --all")
    record = complexity_of(TruthTable.from_hex(cfg.f_hex, cfg.n), cfg.n)
    try:  # null for constants, literals and size-L classes too large to list
        witnesses = [serialize(w) for w in minimal_trees(record.f, cfg.n)]
    except (ValueError, BudgetError):
        witnesses = None
    payload = {
        "config": cfg.as_dict(),
        "truth_table_hex": record.f.to_hex(),
        "L": record.L,
        "m_f": record.m_f,
        "witnesses": witnesses,
    }
    _emit(json.dumps(_jsonable(payload), indent=2), cfg.out)
    return 0


def cmd_reduce(cfg: RunConfig) -> int:
    text = sys.stdin.read()
    tree = parse_formula(text, cfg.n)
    reduced, trace = reduce_irreducible(tree, cfg.n)
    for removed in trace:
        print(f"removed: {serialize(removed)}", file=sys.stderr)
    _emit(serialize(reduced), cfg.out)
    return 0


def cmd_verify(cfg: RunConfig) -> int:
    suite = cfg.suite or "all"
    results = run_suite(suite, echo=False)
    lines = []
    for result in results:
        record = {
            "check": result.check_id,
            "criterion": result.criterion,
            "name": result.name,
            "passed": result.passed,
            "seconds": result.seconds,
            "detail": result.detail,
        }
        lines.append(json.dumps(_jsonable(record)))
        print(result.line(), file=sys.stderr)
    passed = sum(r.passed for r in results)
    summary = {
        "config": cfg.as_dict(),
        "suite": suite,
        "checks": len(results),
        "passed": passed,
        "failed": len(results) - passed,
    }
    lines.append(json.dumps(_jsonable(summary)))
    _emit("\n".join(lines), cfg.out)
    return 0 if passed == len(results) else 1


# -- argument parsing ------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="andortrees",
        description="Exact and asymptotic analysis of uniform random and/or trees.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, need_n: bool = True):
        p.add_argument("--config", help="flat key=value config file")
        if need_n:
            p.add_argument("--n", type=int, default=None, help="number of variables")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--trials", type=int, default=None)
        p.add_argument("--precision-bits", type=int, default=None)
        p.add_argument("--format", dest="fmt", choices=("csv", "json"), default=None)
        p.add_argument("--out", default=None, help="output path, '-' for stdout")

    p = sub.add_parser("count", help="per-size exact tree counts (CSV: m,a_hat,a_total)")
    common(p)
    p.add_argument("--max-size", type=int, default=None)

    p = sub.add_parser("dist", help="exact distribution over functions at one size")
    common(p)
    p.add_argument("--m", type=int, default=None)

    p = sub.add_parser("limit", help="tail-averaged limiting probability of one function")
    common(p)
    p.add_argument("--m", type=int, default=None, help="largest size M")
    p.add_argument("--f-hex", default=None, help="target truth table, lowercase hex")
    p.add_argument("--tol", type=float, default=None)

    p = sub.add_parser("sample", help="uniform sampling and Monte Carlo statistics")
    common(p)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--stats", nargs="*", default=None)
    p.add_argument("--emit-trees", type=int, default=0, metavar="N")

    p = sub.add_parser("analyze", help="limiting ratio of a catalog family")
    common(p)
    p.add_argument("--family", default=None)
    p.add_argument(
        "--params",
        nargs="*",
        default=[],
        help="family parameters as key=value (e.g. k=3 gamma=2 ell=1)",
    )

    p = sub.add_parser("complexity", help="tree-size complexity records")
    common(p)
    p.add_argument("--all", action="store_true")
    p.add_argument("--f-hex", default=None)

    p = sub.add_parser("reduce", help="read a formula on stdin, print its irreducible form")
    common(p)

    p = sub.add_parser("verify", help="run a verification suite")
    common(p, need_n=False)
    p.add_argument("--suite", choices=sorted(SUITES), default="all")

    return parser


def _resolve(args: argparse.Namespace) -> RunConfig:
    file_values: Dict[str, str] = {}
    if getattr(args, "config", None):
        file_values = _read_config_file(args.config)

    def pick(name: str, default, cast):
        flag = getattr(args, name, None)
        if flag is not None:
            return flag
        if name in file_values:
            return cast(file_values[name])
        return default

    params: Dict[str, int] = {}
    for item in getattr(args, "params", []) or []:
        if "=" not in item:
            raise SystemExit(f"--params entries look like key=value, got {item!r}")
        key, value = item.split("=", 1)
        params[key.strip()] = int(value)

    return RunConfig(
        command=args.command,
        n=pick("n", None, int),
        m=pick("m", None, int),
        max_size=pick("max_size", None, int),
        seed=pick("seed", 0, int),
        trials=pick("trials", 10_000, int),
        precision_bits=pick("precision_bits", 200, int),
        fmt=pick("fmt", "csv", str),
        out=pick("out", None, str),
        suite=getattr(args, "suite", None),
        family=pick("family", None, str),
        f_hex=pick("f_hex", None, str),
        tol=pick("tol", 1e-4, float),
        params=params,
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    cfg = _resolve(args)
    needs_n = args.command not in ("verify",)
    if needs_n and cfg.n is None:
        parser.error(f"{args.command} needs --n")
    try:
        if args.command == "count":
            return cmd_count(cfg)
        if args.command == "dist":
            return cmd_dist(cfg)
        if args.command == "limit":
            return cmd_limit(cfg)
        if args.command == "sample":
            return cmd_sample(cfg, args.stats or [], args.emit_trees)
        if args.command == "analyze":
            return cmd_analyze(cfg)
        if args.command == "complexity":
            return cmd_complexity(cfg, args.all)
        if args.command == "reduce":
            return cmd_reduce(cfg)
        if args.command == "verify":
            return cmd_verify(cfg)
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
