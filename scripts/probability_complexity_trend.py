#!/usr/bin/env python3
"""Limiting probabilities scaled by n^L(f): the probability-complexity trend.

For each representative function the tail-averaged limit estimate of its
probability is multiplied by n^L(f); rough stability of that product across
n is the numeric face of the Theta(1/n^L) relation.

Usage: python scripts/probability_complexity_trend.py [--n 1 2 3] [--M 60] [--include-4]
"""

import argparse

from andortrees.complexity import complexity
from andortrees.distribution import limit_estimate
from andortrees.formula import Literal, TruthTable, literal_mask


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, nargs="*", default=[2, 3])
    parser.add_argument("--M", type=int, default=60)
    parser.add_argument(
        "--include-4",
        action="store_true",
        help="add n=4 (65536 functions in 402 symmetry classes)",
    )
    args = parser.parse_args()
    ns = list(args.n) + ([4] if args.include_4 else [])

    print(f"{'f':<12} {'n':>3} {'L':>3} {'estimate':>12} {'estimate*n^L':>14} {'converged':>10}")
    for n in ns:
        targets = [("True", TruthTable.constant(n, True))]
        targets.append(("x1", TruthTable.of_literal(Literal(1), n)))
        if n >= 2:
            targets.append(
                ("x1 and x2", TruthTable(n, literal_mask(1, False, n) & literal_mask(2, False, n)))
            )
        for label, f in targets:
            L = complexity(f, n).L
            rep = limit_estimate(n, f, M=args.M)
            print(
                f"{label:<12} {n:>3} {L:>3} {rep.estimate:>12.6g} "
                f"{rep.estimate * n ** L:>14.6g} {str(rep.converged):>10}"
            )


if __name__ == "__main__":
    main()
