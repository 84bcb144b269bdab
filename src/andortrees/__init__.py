"""Exact and asymptotic analysis of uniform random and/or trees.

Stratified rooted plane trees with and/or-labelled internal nodes and literal
leaves induce, for each size, a distribution over Boolean functions.  This
package makes that model computable end to end: exact counting, the exact
finite-size distribution and its numerical limit, exact singularity
arithmetic with a limiting-ratio engine and family catalog, uniform sampling
with Monte Carlo statistics, tree-size complexity tables, expansion and
irreducibility tooling, and a verification harness.

The package depends on the standard library alone: high-precision values
are `decimal.Decimal`.  The package-level names below resolve on first use
(PEP 562), so that ``import andortrees.sampler`` loads only `formula` and
`sampler`, and the analytic stack loads only for a caller that needs it.
"""

import importlib
import sys
import types

__version__ = "0.1.0"

#: public name -> the submodule that defines it
_SOURCE = {
    name: module
    for module, names in {
        "analytic": "SingularPoint coefficient_ratio expected_first_level_leaves"
        " limiting_ratio nonleaf_partition_sum singularity tautology_bounds",
        "complexity": "ComplexityRecord ExpansionStep complexity expand expansion_count"
        " full_table is_valid_expansion minimal_trees reduce_irreducible slots_and_bounds",
        "counting": "CountSeries brute_enumerate series",
        "distribution": "CountTable Distribution LimitReport exact_distribution"
        " function_counts limit_estimate prob prob_ge tautology_count",
        "formula": "AND OR AndOrTree Assignment Leaf Literal Node TruthTable evaluate"
        " expansion_slots internal_count is_simple_contradiction is_simple_tautology"
        " is_simple_x_tree is_tautology parse_formula serialize tree_size truth_table",
        "quadext": "QuadExt",
        "sampler": "McReport SamplerContext monte_carlo sample_uniform",
    }.items()
    for name in names.split()
}
#: submodules that are package attributes even before they are imported
_SUBMODULES = frozenset(
    "analytic counting distribution families formula powerseries quadext sampler".split()
)

__all__ = sorted(_SOURCE)


def __getattr__(name):
    if name in _SOURCE:
        value = getattr(importlib.import_module(f"{__name__}.{_SOURCE[name]}"), name)
        globals()[name] = value
        return value
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)


class _Package(types.ModuleType):
    """The package module; keeps ``andortrees.complexity`` the function.

    Importing a submodule binds it as an attribute of its package, and the
    submodule `complexity` has the name of the function exported here.
    """

    def __setattr__(self, name, value):
        if name == "complexity" and isinstance(value, types.ModuleType):
            value = value.complexity
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
