"""The benchmark's three tiny workloads answer correctly on a copy of the tree.

The benchmark's worker imports the library by module, function, keyword and
field names, and its own tests (``perfbench/test_perfbench.py``) are not in
this suite.  This test copies ``src/``, ``perfbench/`` and ``BENCHMARK.json``
into a temporary directory and runs the ``TINY`` workloads of those tests
there, untraced, so a library edit that breaks the worker fails here too.
"""

import importlib
import os
import shutil
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def checkout(tmp_path_factory):
    """(root of the copy, its perfbench `run` module, the `TINY` workloads)."""
    root = tmp_path_factory.mktemp("checkout")
    for name in ("src", "perfbench"):
        shutil.copytree(os.path.join(ROOT, name), root / name,
                        ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), root)
    names = ("run", "test_perfbench")
    saved = {name: sys.modules.pop(name, None) for name in names}
    sys.path.insert(0, str(root / "perfbench"))
    try:
        run = importlib.import_module("run")
        tiny = importlib.import_module("test_perfbench").TINY
        yield str(root), run, tiny
    finally:
        sys.path.remove(str(root / "perfbench"))
        for name in names:
            sys.modules.pop(name, None)
            if saved[name] is not None:
                sys.modules[name] = saved[name]


@pytest.mark.parametrize("name", ["exact", "mc_large", "mc_truth"])
def test_tiny_benchmark_workload_is_correct(checkout, name):
    root, run, tiny = checkout
    record = run.run_workload(name, tiny[name], seed=1, seconds=0, trace=False, root=root)
    line = run.result_line(record)
    assert line["correct"], record["failed_checks"]
    assert line["failed"] == 0 and line["attempted"] > 0
