#!/usr/bin/env python3
"""Write the B_n orbit and zeta-incidence tables that ship with andortrees.

For n = 1..HARD_MAX_VARS, two files in src/andortrees/tables/:

* orbits_n<n>.marshal, a marshal tuple (orbit, reps) of two tuples: the
  orbit id of every truth-table mask and the smallest mask of every orbit,
  orbits numbered in the order of their smallest masks.  Every mask of an
  orbit holds the same int object, which marshal writes once and references
  after.
* zeta_n<n>.bin, little-endian 16-bit words: the number N of orbits, the
  length k_O of every column O, then per column its k_O orbit ids F and its
  k_O counts c(F, O), the masks of orbit O within the representative of F.
  A column lists the F != O with c(F, O) > 0, ids ascending.

Both come from the independent oracles of tests/oracles.py (a search under n
generators of B_n, and the submasks of each representative).

Usage: PYTHONPATH=src python scripts/write_bn_tables.py [--out DIR] [--max-n 4]
"""

import argparse
import marshal
import os
import sys
from array import array

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "tests"))

from andortrees.distribution import HARD_MAX_VARS  # noqa: E402
from oracles import _oracle_incidence, _oracle_orbit_tables  # noqa: E402


def values(n):
    """(orbit, reps, columns) at n: the oracle's orbit ids and
    representatives as tuples, and its zeta rows as columns without the
    diagonal of ones, column O a pair (ids F > O ascending, counts c(F, O))."""
    orbit, reps = map(tuple, _oracle_orbit_tables(n))
    zeta_rows, _ = _oracle_incidence(orbit, reps)
    columns = [([], []) for _ in reps]
    for f, (ids, coeffs) in enumerate(zeta_rows):  # f ascends, so do the ids
        for o, c in zip(ids, coeffs):
            if o != f:
                columns[o][0].append(f)
                columns[o][1].append(c)
    return orbit, reps, columns


def files(n):
    """{file name: bytes} of the two tables at n."""
    orbit, reps, columns = values(n)
    words = array("H", [len(reps)] + [len(ids) for ids, _ in columns])
    for ids, coeffs in columns:
        words.extend(ids + coeffs)
    if sys.byteorder == "big":
        words.byteswap()
    return {f"orbits_n{n}.marshal": marshal.dumps((orbit, reps)), f"zeta_n{n}.bin": words.tobytes()}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=os.path.join(ROOT, "src", "andortrees", "tables"))
    parser.add_argument("--max-n", type=int, default=HARD_MAX_VARS)
    args = parser.parse_args()

    os.makedirs(args.out, exist_ok=True)
    print(f"{'file':<20} {'bytes':>8}")
    for n in range(1, args.max_n + 1):
        for name, blob in files(n).items():
            with open(os.path.join(args.out, name), "wb") as fh:
                fh.write(blob)
            print(f"{name:<20} {len(blob):>8}")


if __name__ == "__main__":
    main()
