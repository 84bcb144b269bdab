"""What each import loads, and the package's lazily resolved public names.

Each case runs in a fresh interpreter: the test process has already imported
every module of the package.
"""

import json
import math
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

#: modules that sampling, the engine and the complexity table never need
HEAVY = ("mpmath", "andortrees.analytic", "andortrees.verify", "andortrees.cli")

#: the package's public names by defining submodule; `from andortrees import *`
#: binds exactly these
PUBLIC = {
    "analytic": {
        "SingularPoint", "coefficient_ratio", "expected_first_level_leaves",
        "limiting_ratio", "nonleaf_partition_sum", "singularity", "tautology_bounds",
    },
    "complexity": {
        "ComplexityRecord", "ExpansionStep", "complexity", "expand", "expansion_count",
        "full_table", "is_valid_expansion", "minimal_trees", "reduce_irreducible",
        "slots_and_bounds",
    },
    "counting": {"CountSeries", "brute_enumerate", "series"},
    "distribution": {
        "CountTable", "Distribution", "LimitReport", "exact_distribution",
        "function_counts", "limit_estimate", "prob", "prob_ge", "tautology_count",
    },
    "formula": {
        "AND", "OR", "AndOrTree", "Assignment", "Leaf", "Literal", "Node", "TruthTable",
        "evaluate", "expansion_slots", "internal_count", "is_simple_contradiction",
        "is_simple_tautology", "is_simple_x_tree", "is_tautology", "parse_formula",
        "serialize", "tree_size", "truth_table",
    },
    "quadext": {"QuadExt"},
    "sampler": {"McReport", "SamplerContext", "monte_carlo", "sample_uniform"},
}


def run_fresh(code: str) -> dict:
    """Run `code` in a fresh interpreter that prints one JSON object last."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


SAMPLER_CASE = """
import json, sys
before = set(sys.modules)
import andortrees.sampler as S
loaded = set(sys.modules)
reports = []
for n in (5, 100):
    stats = ["simple_tautology_rate", "tautology_rate", "first_level_leaf_histogram"]
    if n <= 13:
        stats.append("function_frequency:" + "ff" * (1 << (n - 3)))
    reports.append(sorted(S.monte_carlo(60, n, 20, 7, stats).stats) == sorted(stats))
print(json.dumps({"modules": sorted(sys.modules), "imported": sorted(loaded - before),
                  "new": sorted(set(sys.modules) - loaded), "reports": reports}))
"""

ENGINE_CASE = """
import json, sys
before = set(sys.modules)
import andortrees.distribution, andortrees.complexity
imported = sorted(set(sys.modules) - before)
from andortrees.distribution import exact_distribution, limit_estimate
from andortrees.complexity import full_table
from andortrees.formula import TruthTable
rep = limit_estimate(1, TruthTable.constant(1, True), M=20)
dist = exact_distribution(7, 2)
table = full_table(2)
print(json.dumps({"modules": sorted(sys.modules), "imported": imported, "functions": len(table),
                  "support": len(dist.probabilities), "estimate": rep.estimate}))
"""


@pytest.mark.parametrize(
    "code, package_modules",
    [
        (SAMPLER_CASE, ["andortrees", "andortrees.formula", "andortrees.sampler"]),
        (
            ENGINE_CASE,
            [
                "andortrees",
                "andortrees.complexity",
                "andortrees.counting",
                "andortrees.distribution",
                "andortrees.formula",
            ],
        ),
    ],
    ids=["sampler", "engine_and_complexity"],
)
def test_imports_load_only_what_the_caller_uses(code, package_modules):
    out = run_fresh(code)
    loaded = set(out["modules"])
    assert not loaded & set(HEAVY)
    # the value types are slotted classes, so neither dataclasses nor the
    # inspect and ast it pulls in are imported; modules a site hook loaded
    # before the import do not count
    assert not {"dataclasses", "inspect", "ast"} & set(out["imported"])
    assert sorted(m for m in loaded if m.split(".")[0] == "andortrees") == package_modules
    if "new" in out:  # monte_carlo imports nothing, so no import cost is timed with it
        assert out["new"] == []
        assert out["reports"] == [True, True]
    else:
        assert out["functions"] == 16
        assert 0.0 < out["estimate"] < 1.0


API_CASE = """
import json, sys, importlib
PUBLIC = %r
import andortrees
version = andortrees.__version__
bare = sorted(m for m in sys.modules if m.startswith("andortrees."))
submodule = andortrees.counting is sys.modules["andortrees.counting"]
listed = sorted(dir(andortrees))
scope = {}
exec("from andortrees import *", scope)
mismatched = [
    name
    for module, module_names in PUBLIC.items()
    for name in module_names
    if scope.get(name) is not getattr(importlib.import_module(f"andortrees.{module}"), name)
]
try:
    andortrees.no_such_name
    error = None
except AttributeError as exc:
    error = str(exc)
print(json.dumps({"version": version, "bare": bare, "submodule": submodule, "listed": listed,
                  "all": andortrees.__all__, "mismatched": mismatched, "error": error,
                  "star": sorted(k for k in scope if not k.startswith("__"))}))
"""


def test_public_names_resolve_lazily_to_their_submodule_objects():
    out = run_fresh(API_CASE % PUBLIC)
    assert out["version"] == "0.1.0"
    assert out["bare"] == []  # the version is read before any submodule loads
    assert out["submodule"]  # a submodule attribute imports it on first use
    public = set().union(*PUBLIC.values())
    assert len(public) == 53
    assert out["all"] == sorted(public)
    assert set(out["star"]) == public
    assert public <= set(out["listed"])  # dir() lists the names before they resolve
    assert out["mismatched"] == []
    assert "andortrees" in out["error"] and "no_such_name" in out["error"]


SUBMODULE_CASE = """
import json, sys
import andortrees.verify
import andortrees
from andortrees import complexity
import andortrees.complexity as via_import
print(json.dumps({
    "function": complexity is sys.modules["andortrees.complexity"].complexity,
    "via_import": via_import is complexity,
    "attribute": andortrees.complexity is complexity,
    "families": andortrees.families is sys.modules["andortrees.families"],
    "powerseries": andortrees.powerseries.__name__,
}))
"""


def test_complexity_stays_the_function_after_its_submodule_loads():
    out = run_fresh(SUBMODULE_CASE)
    assert out == {
        "function": True,
        "via_import": True,
        "attribute": True,
        "families": True,
        "powerseries": "andortrees.powerseries",
    }


ALL_MODULES_CASE = """
import importlib, json, sys
for name in %r:
    importlib.import_module("andortrees." + name)
print(json.dumps({"modules": sorted(sys.modules)}))
"""

LIBRARY = (
    "analytic cli complexity counting distribution families formula powerseries quadext"
    " sampler verify"
)


def test_no_library_import_loads_mpmath():
    out = run_fresh(ALL_MODULES_CASE % (LIBRARY.split(),))
    assert {f"andortrees.{name}" for name in LIBRARY.split()} <= set(out["modules"])
    assert "mpmath" not in out["modules"]


NO_MPMATH_CASE = """
import contextlib, io, json, sys
sys.modules["mpmath"] = None  # from here on, importing mpmath raises ImportError
from andortrees.analytic import tautology_bounds
from andortrees.cli import main
from andortrees.sampler import chi_square_critical
analyze = []
for argv in (["analyze", "--family", "R_family", "--n", "20000"],
             ["analyze", "--family", "simple_x", "--n", "2"]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    payload = json.loads(out.getvalue())
    analyze.append([code, payload["exact"], payload["float"]])
print(json.dumps({"analyze": analyze, "bounds": tautology_bounds(10**5),
                  "critical": chi_square_critical(0.01, 7)}))
"""


def test_the_library_runs_without_mpmath():
    out = run_fresh(NO_MPMATH_CASE)
    (code_r, exact_r, r_family), (code_x, exact_x, simple_x) = out["analyze"]
    assert code_r == code_x == 0
    assert exact_r is None and exact_x is None  # both evaluate in decimal floats
    assert r_family == pytest.approx(math.exp(-math.sqrt(2)) / 8, rel=0.05)  # leading order
    assert 0 < simple_x < 1
    assert out["bounds"]["E2_bound"] == 5e-324
    assert 0 < out["bounds"]["lower"] < out["bounds"]["E_ratio"]
    assert out["critical"] == pytest.approx(18.475307, rel=1e-6)
