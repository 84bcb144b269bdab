"""Tests of the benchmark itself, at tiny sizes.  From the repository root:

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import run

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

TINY = {
    "mc_large": {**run.WORKLOADS["mc_large"], "m": 60, "trials": 40},
    "mc_truth": {**run.WORKLOADS["mc_truth"], "m": 40, "trials": 40},
    "exact": {**run.WORKLOADS["exact"], "small_top": 12, "n4_top": 6},
}


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workload_is_correct_and_reports_every_metric(name, trace):
    record = run.run_workload(name, TINY[name], seed=1, seconds=0, trace=trace, root=ROOT)
    line = run.result_line(record)
    assert line["correct"], record["failed_checks"]
    assert line["failed"] == 0 and line["attempted"] > 0
    assert set(line["metrics"]) == set(run.PER_LAYER if trace else run.END_TO_END)
    if not trace:
        assert all(m["value"] > 0 for m in line["metrics"].values())


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == {
        k: v[0] for k, v in run.PER_LAYER.items()
    }
    assert {w["name"] for w in bench["workloads"]} == set(run.WORKLOADS)


def test_robust_mean_drops_a_tenth_at_each_end():
    assert run.robust_mean([-100.0] + [1.0] * 8 + [100.0]) == 1.0


def test_times_are_adjusted_for_host_speed():
    # the host ran the reference work at half the reference speed
    cold = {"t_spawn": 0.0, "setup_end": 1.0, "job_end": 1.5, "rss_mb": 30.0}
    runs = [{"cold": cold, "warms": [], "reference_s": [2 * run.REFERENCE_S]}] * 3
    e2e = run.end_to_end(run.WORKLOADS["mc_large"], {"trials": 100}, runs)
    assert e2e["host_factor"] == pytest.approx(0.5)
    assert e2e["plain"]["setup_s"] == pytest.approx(1.0)
    scale = 0.5 ** run.HOST_EXPONENT
    metrics = e2e["metrics"]
    assert metrics["setup_s"] == pytest.approx(scale)
    assert metrics["wall_s"] == pytest.approx(1.5 * scale)
    assert metrics["warm_s"] == pytest.approx(0.5 * scale)
    assert metrics["trees_per_s"] == pytest.approx(100 / (0.5 * scale))
    assert metrics["peak_rss_mb"] == 30.0  # memory is not a time


def test_same_seed_gives_same_inputs():
    for spec in run.WORKLOADS.values():
        assert run.make_job(spec, 7) == run.make_job(spec, 7)
    assert run.make_job(run.WORKLOADS["exact"], 7) != run.make_job(run.WORKLOADS["exact"], 8)


def broken_checkout(tmp_path, module: str, old: str, new: str) -> str:
    """A copy of the library with one deliberate bug."""
    shutil.copytree(os.path.join(ROOT, "src"), tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    path = tmp_path / "src" / "andortrees" / module
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new))
    return str(tmp_path)


@pytest.mark.parametrize("name, module, old, new", [
    # literals get L=3 instead of 2: the n=2 complexity table is wrong
    ("exact", "complexity.py", "L=2, m_f=2, witnesses=None", "L=3, m_f=2, witnesses=None"),
    # one leaf too many per root: first-level leaf counts are wrong
    ("mc_large", "formula.py",
     "return sum(1 for c in tree.children if isinstance(c, Leaf))",
     "return 1 + sum(1 for c in tree.children if isinstance(c, Leaf))"),
])
def test_wrong_answer_is_counted_and_fails_the_command(
        tmp_path, monkeypatch, capsys, name, module, old, new):
    root = broken_checkout(tmp_path, module, old, new)
    monkeypatch.setattr(run, "WORKLOADS", TINY)
    monkeypatch.chdir(root)
    code = run.main(["--workload", name, "--seed", "1", "--seconds", "0"])
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert not line["correct"]
    assert 0 < line["failed"] <= line["attempted"]


def test_without_the_library_it_fails_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
