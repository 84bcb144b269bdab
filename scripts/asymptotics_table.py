#!/usr/bin/env python3
"""Engine values of the catalog families against their leading-order terms.

Usage: python scripts/asymptotics_table.py [--n 100 10000 1000000]
"""

import argparse
import math

from andortrees import families
from andortrees.analytic import expected_first_level_leaves, limiting_ratio


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--n", type=int, nargs="*", default=[100, 10_000, 1_000_000]
    )
    args = parser.parse_args()

    rows = []
    for n in args.n:
        noleaf = float(limiting_ratio(families.no_first_level_leaf(n), n))
        rows.append((n, "no_first_level_leaf", noleaf, 1 / (n * math.sqrt(2 * n))))
        for ell in (1, 2, 3):
            v = float(limiting_ratio(families.nonleaf_subtrees(n, ell), n))
            rows.append((n, f"nonleaf_subtrees({ell})", v, ell / 2 ** (ell + 1)))
        r = float(limiting_ratio(families.R_family(n), n))
        rows.append((n, "R_family", r, math.exp(-math.sqrt(2)) / 8))
        leaves = float(expected_first_level_leaves(n))
        rows.append((n, "mean_first_level_leaves", leaves, 2 * math.sqrt(2 * n)))

    print(f"{'n':>9}  {'family':<26} {'engine':>14} {'leading term':>14} {'ratio':>8}")
    for n, name, value, target in rows:
        print(f"{n:>9}  {name:<26} {value:>14.6g} {target:>14.6g} {value/target:>8.4f}")


if __name__ == "__main__":
    main()
