"""Each script in scripts/ runs on tiny arguments and prints its header."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPTS = os.path.join(ROOT, "scripts")

#: script -> (tiny arguments, first line of its output); "{tmp}" in an
#: argument stands for a fresh temporary directory
CASES = {
    "asymptotics_table.py": (
        ["--n", "2", "10001"],
        f"{'n':>9}  {'family':<26} {'engine':>14} {'leading term':>14} {'ratio':>8}",
    ),
    "leaf_histogram.py": (
        ["--n", "2", "--m", "20", "--trials", "20"],
        "# n=2 m=20 trials=20 seed=1",
    ),
    "probability_complexity_trend.py": (
        ["--n", "1", "--M", "20"],
        f"{'f':<12} {'n':>3} {'L':>3} {'estimate':>12} {'estimate*n^L':>14} {'converged':>10}",
    ),
    "write_bn_tables.py": (
        ["--out", "{tmp}", "--max-n", "2"],
        f"{'file':<20} {'bytes':>8}",
    ),
}


def test_every_script_has_a_case():
    assert set(CASES) == {name for name in os.listdir(SCRIPTS) if name.endswith(".py")}


@pytest.mark.parametrize("name", sorted(CASES))
def test_script_runs(name, tmp_path):
    args, header = CASES[name]
    args = [arg.replace("{tmp}", str(tmp_path)) for arg in args]
    proc = subprocess.run(
        [sys.executable, os.path.join(SCRIPTS, name), *args],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == header
