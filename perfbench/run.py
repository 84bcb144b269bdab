"""Benchmark of andortrees: cold set-up, Monte Carlo throughput and exact answers.

Run from the repository root::

    python3 perfbench/run.py --workload mc_large --seed 1 --seconds 36 --trace 0

Each timed process is a fresh single-threaded interpreter (``worker.py``)
that imports the library from ``src/``, builds the workload's tables and
answers one short fixed job; processes run one after another, a closed loop
of one client.  New processes start until ``--seconds`` have passed, and at
least ``MIN_PROCESSES`` of them.  The job's inputs come from ``--seed``; each
Monte Carlo process samples with its own seed drawn from it.  Every answer is
checked (see ``check_*`` below and the gate in ``worker.py``); a wrong answer
or a crash counts as a failed operation and makes the command exit with
status 1.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
Lines before it repeat the metrics for a reader, with ``trees_per_s`` and
``failed_frac`` and the machine they ran on (``gmpy2`` matters: ``counting``
uses it when it can be imported).  The full record, spans included, goes to
``.perfbench/<workload>.json``.

End-to-end metrics.  Each is a robust mean (the mean of the middle 80%) over
the untraced processes of a run, and each time is adjusted for the speed of
the host during the run (see "Host speed" below):

* ``setup_s``: seconds from starting the interpreter, import included, until
  the workload's tables exist: ``get_context(n, m)`` for Monte Carlo, the
  top-size ``function_counts`` for each n (and the cache files they write)
  for exact.
* ``wall_s``: seconds from starting the interpreter to the end of the job.
* ``warm_s``: seconds to answer once the tables exist.  For Monte Carlo that
  is the ``monte_carlo`` call after set-up in the same process, so
  ``trees_per_s`` = trials / ``warm_s``; for exact it is a fresh process
  answering the distribution queries from the disk cache the cold process
  wrote, interpreter start included.
* ``peak_rss_mb``: peak resident memory of the cold process.

Host speed.  On a shared host the same process runs up to half again slower
for seconds or minutes at a time, so a run's plain times follow the host.
After every worker process the benchmark times ``reference_work``, fixed work
of its own that calls no library code.  A run's times are multiplied by the
host factor (``REFERENCE_S`` / robust mean of its reference times) raised to
``HOST_EXPONENT``.  The plain times and the host factor are printed and kept
in the record.  The jobs are short, so that a run holds many processes and
reference samples.

Operations are the trees sampled and the queries answered, plus every check
of the correctness gate; ``failed_frac`` = failed / attempted.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import pickle
import platform
import random
import shutil
import statistics
import subprocess
import sys

import spans
from spans import now

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".perfbench"
MIN_PROCESSES = 5
#: per-call samples a traced run pools at least, so that a p99 has ten beyond it
TRACED_SAMPLES = 1000
MAX_PROCESSES = 100
PROCESS_TIMEOUT_S = 150
#: warm processes after each cold one of the exact workload; warm_s is short
#: and noisy, so it takes the mean of more samples
WARM_REPEATS = 2
#: seconds ``reference_work`` takes, typically, on the host of the seed
#: baseline (2 vCPUs of an Intel Xeon, Python 3.11.7)
REFERENCE_S = 0.032
#: how strongly a run's times follow its reference time.  The library's times
#: swing less than the reference's: over 10 seeds per workload on the seed
#: baseline's host, the run-to-run spread of the times was 0.02-0.06 with the
#: square root of the host factor, 0.07-0.15 with none and 0.09-0.17 with
#: all of it.
HOST_EXPONENT = 0.5
#: share of the samples dropped at each end before a robust mean
TRIM = 0.1

# Why these workloads and sizes (each cold process takes one to three seconds,
# so that a run of 36 s holds ten or more of them):
# * mc_large has the shape of verify check 10b, monte_carlo(2000, 100,
#   [histogram]) plus the simple-tautology rate, at m=500: at m=2000 one cold
#   set-up alone takes about a minute of O(M^2) big-integer tables.  Split
#   totals above the sampler's bisection cutoff (256) still take the
#   float-walk path, and counting still does most of the work.
# * mc_truth is the small side of check 10c at m=600: set-up is short, so
#   sampling and truth-table evaluation dominate.  88888888 is x1 AND x2 at
#   n=5.
# * exact asks the function-level questions of checks 6, 8 and 9 with no
#   sampling: a per-function sweep at n=4 (to M=8, about 0.2 s a size after a
#   fixed 0.5 s), distribution queries at n=1..3 and M=60, the n=2
#   complexity table (whose XOR and XNOR take the brute search to size 7) and
#   L(f) of n=3 functions with L <= 5 (L=7 at n=3 alone takes about 5 s).
#   Later processes answer the distribution queries again from the disk
#   cache the first one wrote.
WORKLOADS = {
    "mc_large": {
        "kind": "mc", "n": 100, "m": 500, "trials": 100,
        "stats": ["first_level_leaf_histogram", "simple_tautology_rate"],
    },
    "mc_truth": {
        "kind": "mc", "n": 5, "m": 600, "trials": 100,
        "stats": ["tautology_rate", "simple_tautology_rate",
                  "function_frequency:88888888"],
    },
    "exact": {"kind": "exact", "small_top": 60, "n4_top": 8},
}

# The n=2 complexity table of check 8: constants 0, literals 2, XOR and XNOR
# 7, every other function 3.
GOLDEN_L2 = {format(f, "x"): 3 for f in range(16)}
GOLDEN_L2.update({"0": 0, "f": 0, "3": 2, "5": 2, "a": 2, "c": 2, "6": 7, "9": 7})

# L(f) and m_f of n=3 functions with 3 <= L <= 5, as (L, m_f): hex tables.
# Brute search and the per-function engine (smallest m with a nonzero count)
# agree on every entry.
KNOWN_L3 = {
    (3, 2): "03 05 0a 0c 11 22 30 3f 44 50 5f 77 88 a0 af bb c0 cf dd ee f3 f5 fa fc",
    (4, 6): "01 02 04 08 10 20 40 7f 80 bf df ef f7 fb fd fe",
    (5, 4): "07 0b 0d 0e 13 15 1f 23 2a 2f 31 32 37 3b 45 4c 4f 51 54 57 5d 70 73 75 "
            "8a 8c 8f a2 a8 ab ae b0 b3 ba c4 c8 cd ce d0 d5 dc e0 ea ec f1 f2 f4 f8",
}
KNOWN_L3_BY_HEX = {h: list(lm) for lm, hexes in KNOWN_L3.items() for h in hexes.split()}

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "wall_s": "s",
    "warm_s": "s",
    "peak_rss_mb": "MB",
}

# name -> (unit, the end-to-end metric and workloads it should move)
PER_LAYER = {
    "counting.series_s": ("s", "setup_s: all of it on mc_large, about 1 s on mc_truth, ~0 on exact"),
    "sampler.context_s": ("s", "setup_s on mc_*"),
    "sampler.sample_ms_p50": ("ms", "warm_s (trees_per_s) on mc_*"),
    "sampler.sample_ms_p99": ("ms", "warm_s (trees_per_s) on mc_*"),
    "sampler.trees": ("count", "sample count behind the sampler percentiles"),
    "formula.truth_table_ms_p50": ("ms", "warm_s (trees_per_s) on mc_truth; 0 on mc_large"),
    "formula.truth_table_ms_p99": ("ms", "warm_s (trees_per_s) on mc_truth; 0 on mc_large"),
    "formula.truth_tables": ("count", "sample count behind the truth-table percentiles"),
    "formula.score_us_p50": ("us", "warm_s (trees_per_s) on mc_large, a small share"),
    "sampler.ks_s": ("s", "wall_s on mc_large"),
    "distribution.engine_s.n4": ("s", "setup_s and wall_s on exact"),
    "distribution.engine_s.n1_3": ("s", "setup_s and wall_s on exact"),
    "distribution.query_ms_p50": ("ms", "wall_s and warm_s on exact"),
    "distribution.limit_estimate_s": ("s", "wall_s and warm_s on exact"),
    "distribution.cache_load_s": ("s", "warm_s on exact"),
    "distribution.cache_bytes": ("bytes", "warm_s on exact; repeats exactly"),
    "complexity.full_table_s": ("s", "wall_s on exact; 0 on mc_*"),
    "complexity.complexity_s": ("s", "wall_s on exact; 0 on mc_*"),
    "trace_overhead_pct": ("%", "traced against untraced wall_s of the same workload"),
}


# -- inputs ----------------------------------------------------------------------


def exact_inputs(spec: dict, rng: random.Random) -> dict:
    """Seeded queries for the exact workload; every size stays within the tops."""
    small, big = spec["small_top"], spec["n4_top"]
    tops = [[1, small], [2, small], [3, small], [4, big]]
    queries = [["counts", 4, m] for m in range(1, big + 1)]
    queries += [["prob", 4, rng.randrange(3, big + 1), rng.randrange(1 << 16)]
                for _ in range(6)]
    queries.append(["dist", 4, big])
    for n in (1, 2, 3):
        space = 1 << (1 << n)
        low = max(3, small - 20)
        queries.append(["dist", n, rng.randrange(low, small + 1)])
        for _ in range(3):
            queries.append(["prob_ge", n, rng.randrange(low, small + 1),
                            rng.randrange(1, space - 1)])
        for _ in range(2):
            queries.append(["taut", n, rng.randrange(low, small + 1)])
    # the shapes of checks 6 and 9: True for n=1..3, x1 AND x2 for n=2, 3
    for n in (1, 2, 3):
        queries.append(["limit", n, (1 << (1 << n)) - 1, small])
    for n in (2, 3):
        queries.append(["limit", n, conjunction_x1_x2(n), small])
    rng.shuffle(queries)
    # one function from each class
    picks = [rng.choice(KNOWN_L3[key].split()) for key in sorted(KNOWN_L3)]
    return {"tops": tops, "queries": queries, "l_picks": picks}


def conjunction_x1_x2(n: int) -> int:
    """Truth table of x1 AND x2: bit k is set when bits 0 and 1 of k are."""
    return sum(1 << k for k in range(1 << n) if k & 3 == 3)


def make_job(spec: dict, seed: int) -> dict:
    rng = random.Random(seed)
    if spec["kind"] == "mc":
        keys = ("kind", "n", "m", "trials", "stats")
        return {**{k: spec[k] for k in keys}, "mc_seed": rng.randrange(2**31)}
    return {"kind": "exact", **exact_inputs(spec, rng)}


# -- processes -------------------------------------------------------------------


def worker_env(root: str, cache_dir: str | None) -> dict:
    env = dict(os.environ)
    for name in ("ANDORTREES_CACHE_DIR", "ANDORTREES_TRACE"):
        env.pop(name, None)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"  # same set and dict layouts in every process
    if cache_dir:
        env["ANDORTREES_CACHE_DIR"] = cache_dir
    return env


def spawn(root: str, job: dict, cache_dir: str | None = None) -> dict:
    """Run one worker; returns its result with ``t_spawn``, or ``error``."""
    t_spawn = now()
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(job)],
            cwd=root, env=worker_env(root, cache_dir), capture_output=True,
            text=True, timeout=PROCESS_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"worker timed out after {PROCESS_TIMEOUT_S} s"}
    if proc.returncode != 0:
        return {"error": f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return {"error": f"worker printed no result: {proc.stdout[-500:]}"}
    result["t_spawn"] = t_spawn
    return result


def library_problem(root: str) -> str | None:
    """Why the library cannot be imported from ``root``, or None."""
    if not os.path.isfile(os.path.join(root, "src", "andortrees", "__init__.py")):
        return f"no src/andortrees under {root}; run from the repository root"
    # also compiles the byte code once, before any timed process
    proc = subprocess.run([sys.executable, "-c", "import andortrees"], cwd=root,
                          env=worker_env(root, None), capture_output=True, text=True,
                          timeout=PROCESS_TIMEOUT_S)
    if proc.returncode != 0:
        return f"import andortrees failed: {proc.stderr.strip()[-2000:]}"
    return None


def cache_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _dirs, files in os.walk(path) for f in files)


REFERENCE_BLOB = pickle.dumps([[j * 7919 + k for k in range(64)] for j in range(1500)])


def reference_work() -> float:
    """Seconds for fixed work of the benchmark's own, the probe of host speed.

    Products of big integers and unpickling many small objects: on the seed
    baseline's host this followed the library's slow spells more closely
    than a loop over small ints and a dict did.
    """
    start = now()
    x = 3 ** 20000
    acc = 0
    for i in range(30):
        acc += x * (x + i)
    for _ in range(4):
        pickle.loads(REFERENCE_BLOB)
    return now() - start


def run_processes(root: str, spec: dict, job: dict, seconds: float, trace: bool) -> list:
    """Cold processes until ``seconds`` pass; traced and untraced alternate.

    ``reference_work`` runs after every worker process, so that its samples
    spread over the run as the processes do.
    """
    least = MIN_PROCESSES
    if trace:  # traced and untraced alternate: at least two of each
        per_process = job.get("trials", TRACED_SAMPLES)
        least = min(MAX_PROCESSES, 2 * max(2, -(-TRACED_SAMPLES // per_process)))
    cache_root = os.path.join(root, OUT_DIR, "cache")
    deadline = now() + seconds
    runs = []
    while len(runs) < least or (now() < deadline and len(runs) < MAX_PROCESSES):
        index = len(runs)
        cold_job = {**job, "trace": trace and index % 2 == 1, "gate": index == 0,
                    "warm": False}
        if spec["kind"] == "mc":
            cold_job["mc_seed"] = job["mc_seed"] + index
        run = {"traced": cold_job["trace"], "warms": [], "reference_s": []}
        if spec["kind"] == "exact":
            cache_dir = os.path.join(cache_root, str(index))
            shutil.rmtree(cache_dir, ignore_errors=True)
            os.makedirs(cache_dir)
            run["cold"] = spawn(root, cold_job, cache_dir)
            run["reference_s"].append(reference_work())
            run["cache_bytes"] = cache_bytes(cache_dir)
            if "error" not in run["cold"]:
                warm_job = {**cold_job, "gate": False, "warm": True}
                for _ in range(WARM_REPEATS):
                    run["warms"].append(spawn(root, warm_job, cache_dir))
                    run["reference_s"].append(reference_work())
            shutil.rmtree(cache_dir, ignore_errors=True)
        else:
            run["cold"] = spawn(root, cold_job)
            run["reference_s"].append(reference_work())
        runs.append(run)
    shutil.rmtree(cache_root, ignore_errors=True)
    return runs


# -- checks ----------------------------------------------------------------------


def check_mc_report(job: dict, answers: dict) -> list:
    """Each statistic must add up to the trials; returns [name, ok, detail] rows."""
    trials, checks = job["trials"], []
    for name, stat in answers.items():
        extra = stat["extra"]
        if name == "first_level_leaf_histogram":
            hist = {int(k): v for k, v in extra["histogram"].items()}
            total = sum(hist.values())
            checks.append([f"{name} counts add up", total == trials, f"{total} != {trials}"])
            mean = sum(k * v for k, v in hist.items()) / trials
            checks.append([f"{name} mean", mean == extra["mean"], f"{mean} != {extra['mean']}"])
            ks = extra["ks_statistic"]
            checks.append([f"{name} KS in [0, 1]", 0 <= ks <= 1, ks])
        else:
            hits = stat["estimate"] * trials
            ok = abs(hits - round(hits)) < 1e-6 and 0 <= round(hits) <= trials
            checks.append([f"{name} hits are a count of at most {trials}", ok, hits])
    rates = {k: v["estimate"] for k, v in answers.items() if v["estimate"] is not None}
    if "simple_tautology_rate" in rates and "tautology_rate" in rates:
        ok = rates["simple_tautology_rate"] <= rates["tautology_rate"]
        checks.append(["simple tautologies are tautologies", ok, rates])
    return checks


def check_exact_answers(cold: dict, warms: list) -> list:
    checks = []
    table = cold["full_table_2"]
    for hex_, want in GOLDEN_L2.items():
        got = table.get(hex_)
        checks.append([f"L({hex_}) at n=2", got == want, f"{got} != {want}"])
    for hex_, got in cold["l_picks"].items():
        want = KNOWN_L3_BY_HEX.get(hex_)
        checks.append([f"L, m_f of {hex_} at n=3", got == want, f"{got} != {want}"])
    for warm in warms:
        same = warm["queries"] == cold["queries"]
        checks.append(["cached answers equal cold answers", same, None])
    return checks


# -- metrics ---------------------------------------------------------------------


def score(spec: dict, job: dict, runs: list) -> dict:
    """Count operations and failures, and keep the runs whose answers all check out."""
    if spec["kind"] == "mc":
        ops = job["trials"]
    else:  # cold queries, the n=2 table, each L(f), then the warm queries
        ops = (1 + WARM_REPEATS) * len(job["queries"]) + 1 + len(job["l_picks"])
    checks, good, failed_ops = [], [], 0
    first_answers = None
    for index, run in enumerate(runs):
        cold, warms = run["cold"], run["warms"]
        errors = [r["error"] for r in [cold] + warms if "error" in r]
        if spec["kind"] == "exact" and not warms and not errors:
            errors.append("no warm process ran")
        if errors:
            failed_ops += ops
            checks.append([f"process {index}", False, "; ".join(errors)])
            continue
        rows = list(cold["checks"])
        if spec["kind"] == "mc":  # each process samples with its own seed
            rows += check_mc_report(job, cold["answers"])
        else:
            rows += check_exact_answers(cold["answers"], [w["answers"] for w in warms])
            if first_answers is None:
                first_answers = cold["answers"]
            else:
                rows.append(["answers repeat those of the first process",
                             cold["answers"] == first_answers, None])
        checks += [[f"process {index}: {name}", ok, detail] for name, ok, detail in rows]
        if all(ok for _name, ok, _detail in rows):
            good.append(run)
    return {
        "attempted": ops * len(runs) + len(checks),
        "failed": failed_ops + sum(1 for _name, ok, _detail in checks if not ok),
        "checks": checks,
        "good": good,
    }


def robust_mean(values: list) -> float:
    """Mean of the values left after dropping a share ``TRIM`` at each end."""
    values = sorted(values)
    cut = int(len(values) * TRIM)
    return statistics.fmean(values[cut:len(values) - cut])


def end_to_end(spec: dict, job: dict, runs: list) -> dict:
    """Host-adjusted metrics, plain metrics and samples of the untraced runs."""
    samples = {name: [] for name in END_TO_END}
    samples["reference_s"] = []
    for run in runs:
        cold = run["cold"]
        samples["setup_s"].append(cold["setup_end"] - cold["t_spawn"])
        samples["wall_s"].append(cold["job_end"] - cold["t_spawn"])
        samples["peak_rss_mb"].append(cold["rss_mb"])
        if spec["kind"] == "mc":
            samples["warm_s"].append(cold["job_end"] - cold["setup_end"])
        samples["warm_s"] += [w["job_end"] - w["t_spawn"] for w in run["warms"]]
        samples["reference_s"] += run["reference_s"]
    plain = {name: robust_mean(values) for name, values in samples.items()}
    factor = REFERENCE_S / plain["reference_s"]
    scale = factor ** HOST_EXPONENT
    metrics = {name: plain[name] * (scale if unit == "s" else 1)
               for name, unit in END_TO_END.items()}
    if spec["kind"] == "mc":
        metrics["trees_per_s"] = job["trials"] / metrics["warm_s"]
    return {"metrics": metrics, "plain": plain, "host_factor": factor, "samples": samples}


def per_layer(spec: dict, runs: list) -> dict:
    traced = [r for r in runs if r["traced"]]
    plain = [r for r in runs if not r["traced"]]
    cold = [r["cold"]["spans"] for r in traced]
    warm = [w["spans"] for r in traced for w in r["warms"]]

    def median_self(spans_list, prefix):
        return statistics.median(spans.total_self(s, prefix) for s in spans_list) if spans_list else 0.0

    def pooled(spans_list, name):
        return [t for s in spans_list for t in spans.durations(s, name)]

    sample = pooled(cold, "sampler.sample")
    tables = pooled(cold, "formula.truth_table")
    score_per_tree = [t for s in cold for t in spans.per_tree(s, "sampler.sample", "formula.score")]
    queries = pooled(cold + warm, "distribution.query")
    walls = [[r["cold"]["job_end"] - r["cold"]["t_spawn"] for r in group] for group in (traced, plain)]
    overhead = (statistics.median(walls[0]) / statistics.median(walls[1]) - 1) * 100 if all(walls) else 0.0
    return {
        "counting.series_s": median_self(cold, "counting."),
        "sampler.context_s": median_self(cold, "sampler.get_context"),
        "sampler.sample_ms_p50": spans.percentile(sample, 50) * 1e3,
        "sampler.sample_ms_p99": spans.percentile(sample, 99) * 1e3,
        "sampler.trees": len(sample),
        "formula.truth_table_ms_p50": spans.percentile(tables, 50) * 1e3,
        "formula.truth_table_ms_p99": spans.percentile(tables, 99) * 1e3,
        "formula.truth_tables": len(tables),
        "formula.score_us_p50": spans.percentile(score_per_tree, 50) * 1e6,
        "sampler.ks_s": median_self(cold, "sampler.ks"),
        "distribution.engine_s.n4": median_self(cold, "distribution.engine.n4"),
        "distribution.engine_s.n1_3": median_self(cold, "distribution.engine.n1_3"),
        "distribution.query_ms_p50": spans.percentile(queries, 50) * 1e3,
        "distribution.limit_estimate_s": median_self(cold, "distribution.limit_estimate"),
        "distribution.cache_load_s": median_self(warm, "distribution.cache_load"),
        "distribution.cache_bytes": traced[0].get("cache_bytes", 0) if traced else 0,
        "complexity.full_table_s": median_self(cold, "complexity.full_table"),
        "complexity.complexity_s": median_self(cold, "complexity.complexity"),
        "trace_overhead_pct": overhead,
    }


def machine() -> dict:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "python": platform.python_version(),
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
    }


# -- command ---------------------------------------------------------------------


def run_workload(name: str, spec: dict, seed: int, seconds: float, trace: bool,
                 root: str) -> dict:
    job = make_job(spec, seed)
    runs = run_processes(root, spec, job, seconds, trace)
    tally = score(spec, job, runs)
    good = tally["good"]
    plain = [r for r in good if not r["traced"]]
    e2e = end_to_end(spec, job, plain) if plain else {"metrics": {}}
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "machine": machine(), "spec": spec,
        "attempted": tally["attempted"], "failed": tally["failed"],
        "failed_checks": [c for c in tally["checks"] if not c[1]],
        "end_to_end": e2e["metrics"], "host": e2e,
        "processes": len(runs),
    }
    if trace:
        complete = len(good) == len(runs)
        record["per_layer"] = per_layer(spec, good) if complete else {}
        record["spans"] = [
            {"process": i, "traced": r["traced"], "cold": r["cold"].get("spans", []),
             "warm": [w.get("spans", []) for w in r["warms"]]}
            for i, r in enumerate(runs)
        ]
    return record


def result_line(record: dict) -> dict:
    if record["trace"]:
        values, units = record["per_layer"], {k: v[0] for k, v in PER_LAYER.items()}
    else:
        values, units = record["end_to_end"], END_TO_END
    return {
        "correct": record["failed"] == 0 and set(units) <= set(values),
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items() if k in values},
    }


def summary(record: dict) -> list:
    info = record["machine"]
    lines = [
        f"machine: nproc={info['nproc']} cpu={info['cpu']!r} python={info['python']} "
        f"gmpy2={'yes' if info['gmpy2'] else 'no'}",
        f"workload {record['workload']}: seed={record['seed']} "
        f"processes={record['processes']} trace={int(record['trace'])}",
    ]
    e2e, host = record["end_to_end"], record["host"]
    if "host_factor" in host:
        lines.append(f"  host factor {host['host_factor']:.4g}: reference work took "
                     f"{host['plain']['reference_s'] * 1e3:.4g} ms against "
                     f"{REFERENCE_S * 1e3:.4g} ms; times scaled by the factor ** {HOST_EXPONENT}")
    units = dict(END_TO_END, trees_per_s="1/s")
    for name in ("setup_s", "wall_s", "trees_per_s", "warm_s", "peak_rss_mb"):
        if name in e2e:
            plain = host["plain"].get(name)
            measured = f"  (measured {plain:.6g})" if units[name] == "s" else ""
            lines.append(f"  {name:<14} {e2e[name]:.6g} {units[name]}{measured}")
    frac = record["failed"] / max(record["attempted"], 1)
    lines.append(f"  {'failed_frac':<14} {frac:.6g} ({record['failed']} of {record['attempted']})")
    for name, value in record.get("per_layer", {}).items():
        unit, target = PER_LAYER[name]
        lines.append(f"  {name:<30} {value:.6g} {unit:<5}  -> {target}")
    for name, _ok, detail in record["failed_checks"][:20]:
        lines.append(f"  FAILED {name}: {detail}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    problem = library_problem(root)
    if problem:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    record = run_workload(args.workload, WORKLOADS[args.workload], args.seed,
                          args.seconds, bool(args.trace), root)
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    with open(os.path.join(root, OUT_DIR, f"{args.workload}.json"), "w") as fh:
        json.dump(record, fh)
    line = result_line(record)
    for text in summary(record):
        print(text)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
