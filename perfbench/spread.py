"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload exact --seeds 1-10 [--out FILE]

For every metric it prints the median of the per-run values and the
distance between their first and third quartiles as a share of the median,
the spread a run-to-run comparison has to beat.  ``--out FILE`` also stores
the values, medians and spreads in FILE as JSON, under ``end_to_end`` or,
with ``--trace 1``, ``per_layer``, keeping what FILE already holds: the form
of ``baseline.json``.  End to end, it also stores each run's host factor and
the spreads of the plain times, before they were put at the reference host
speed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from run import machine

HERE = os.path.dirname(os.path.abspath(__file__))


def seed_list(text: str) -> list:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def spread(values: list) -> dict:
    median = statistics.median(values)
    if len(values) < 2 or not median:
        return {"median": median, "iqr_share": None, "values": values}
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "iqr_share": (q3 - q1) / median, "values": values}


def main() -> int:
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()
    report = {}
    for workload in args.workload:
        runs, hosts = [], []
        for seed in seed_list(args.seeds):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                capture_output=True, text=True,
            )
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode != 0 or not line["correct"]:
                print(proc.stdout, proc.stderr, file=sys.stderr)
                return 1
            runs.append({k: v["value"] for k, v in line["metrics"].items()})
            print(workload, seed, runs[-1], flush=True)
            if not args.trace:
                with open(os.path.join(".perfbench", f"{workload}.json")) as fh:
                    hosts.append(json.load(fh)["host"])
        report[workload] = {name: spread([r[name] for r in runs]) for name in runs[0]}
        if hosts:
            report[workload]["host_factor"] = [h["host_factor"] for h in hosts]
            report[workload]["plain"] = {name: spread([h["plain"][name] for h in hosts])
                                         for name in runs[0]}
        for name in runs[0]:
            row = report[workload][name]
            share = "n/a" if row["iqr_share"] is None else f"{row['iqr_share']:.3f}"
            print(f"{workload:<9} {name:<30} median {row['median']:<12.6g} spread {share}")
            if hosts:
                plain = report[workload]["plain"][name]
                print(f"{'':<9} {'  plain':<30} median {plain['median']:<12.6g} "
                      f"spread {plain['iqr_share']:.3f}")
    if args.out:
        stored = {}
        if os.path.exists(args.out):
            with open(args.out) as fh:
                stored = json.load(fh)
        stored["machine"] = machine()
        stored["seconds"] = args.seconds
        section = stored.setdefault("per_layer" if args.trace else "end_to_end", {})
        section.update(report)
        with open(args.out, "w") as fh:
            json.dump(stored, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
