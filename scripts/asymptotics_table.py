#!/usr/bin/env python3
"""Engine values of the catalog families against their leading-order terms.

Usage: python scripts/asymptotics_table.py [--n 100 10000 1000000]
"""

import argparse

from andortrees import families
from andortrees.analytic import ASYMPTOTIC_REFERENCE, expected_first_level_leaves, limiting_ratio


def leading(name: str, n: int, **params: int) -> float:
    """The leading-order term of `name` at n."""
    return ASYMPTOTIC_REFERENCE[name][1](n, **params)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--n", type=int, nargs="*", default=[100, 10_000, 1_000_000]
    )
    args = parser.parse_args()

    rows = []
    for n in args.n:
        noleaf = float(limiting_ratio(families.no_first_level_leaf(n), n))
        rows.append((n, "no_first_level_leaf", noleaf, leading("no_first_level_leaf", n)))
        for ell in (1, 2, 3):
            v = float(limiting_ratio(families.nonleaf_subtrees(n, ell), n))
            rows.append((n, f"nonleaf_subtrees({ell})", v, leading("nonleaf_subtrees", n, ell=ell)))
        r = float(limiting_ratio(families.R_family(n), n))
        rows.append((n, "R_family", r, leading("R_family", n)))
        leaves = float(expected_first_level_leaves(n))
        rows.append(
            (n, "mean_first_level_leaves", leaves, leading("expected_first_level_leaves", n))
        )

    print(f"{'n':>9}  {'family':<26} {'engine':>14} {'leading term':>14} {'ratio':>8}")
    for n, name, value, target in rows:
        print(f"{n:>9}  {name:<26} {value:>14.6g} {target:>14.6g} {value/target:>8.4f}")


if __name__ == "__main__":
    main()
