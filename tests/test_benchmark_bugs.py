"""The benchmark's injected bugs still find their target lines.

`perfbench/test_perfbench.py::test_wrong_answer_is_counted_and_fails_the_command`
copies the library, replaces one line of text in one module with a wrong
one and asserts that the benchmark counts the wrong answers.  If a library
edit removes that text, the copy can no longer be broken, and only that
test, which the library suite does not run, would notice.  This test reads
the (module, old text) pairs from the benchmark's test file and asserts that
each old text is still in ``src/andortrees/<module>``.
"""

import ast
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_TEST = os.path.join(ROOT, "perfbench", "test_perfbench.py")
TARGET = "test_wrong_answer_is_counted_and_fails_the_command"


def injected_bugs():
    """(module, old text) of every case of the benchmark's wrong-answer test."""
    with open(BENCH_TEST) as fh:
        tree = ast.parse(fh.read(), BENCH_TEST)
    [test] = [node for node in tree.body
              if isinstance(node, ast.FunctionDef) and node.name == TARGET]
    [mark] = [d for d in test.decorator_list
              if isinstance(d, ast.Call) and ast.unparse(d.func) == "pytest.mark.parametrize"]
    names = [name.strip() for name in ast.literal_eval(mark.args[0]).split(",")]
    cases = [dict(zip(names, case)) for case in ast.literal_eval(mark.args[1])]
    return [(case["module"], case["old"]) for case in cases]


def test_the_benchmark_injects_bugs():
    assert len(injected_bugs()) >= 2


@pytest.mark.parametrize("module, old", injected_bugs())
def test_injected_bug_target_is_in_the_library(module, old):
    with open(os.path.join(ROOT, "src", "andortrees", module)) as fh:
        assert old in fh.read()
