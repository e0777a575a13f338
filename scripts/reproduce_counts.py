#!/usr/bin/env python3
"""Reproduce the headline isomorphism-class counts.

Prints one TSV row per census (n, constraint, class_count, raw_count,
elapsed_ms) followed by the simple-solution and conjugacy-class tables.
The quick set runs the right involutory census for n = 1-6 (164 classes at
n = 6, checked against the literature value), the Plonka bi-magma and BLS
censuses for n = 1-3 and the conjugacy classes of self-maps for n = 1-6;
--full adds the involutory census at n = 7, the bi-magma censuses at n = 4
(1048 classes), the simple solutions on t = 9 points (13 by both routes)
and the conjugacy classes at n = 7 and 8 (343 / 125 and 951 / 329).  Exits
1 if the Plonka bi-magma and BLS censuses differ in a count or a
representative: every BLS solution is a Plonka bi-magma and conversely.

Usage:
  python scripts/reproduce_counts.py            # the quick set, a few seconds
  python scripts/reproduce_counts.py --full     # adds the n = 7 and 8 runs
"""

import argparse
import sys

from ybmag import (BiMagmaLaw, CensusQuery, MagmaLaw, RMapLaw, census_simple_bls,
                   enumerate_structures, function_conjugacy_census)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--full", action="store_true",
                        help="include the slower n = 7 right involutory census "
                             "(849 classes, 5-6 s on a 2-vCPU VM), the bi-magma censuses "
                             "at n = 4 (about 1 s for both), the simple solutions on 9 points "
                             "(under 1 s) and the conjugacy classes of self-maps at n = 7 and 8 "
                             "(about 12 s)")
    args = parser.parse_args()

    print("# right Plonka magmas")
    for n in (1, 2, 3):
        row = enumerate_structures(CensusQuery(n, (MagmaLaw.RIGHT_PLONKA,))).row
        print(row.tsv())

    print("# right involutory Plonka magmas")
    top = 8 if args.full else 7
    for n in range(1, top):
        row = enumerate_structures(
            CensusQuery(n, (MagmaLaw.RIGHT_PLONKA, MagmaLaw.RIGHT_INVOLUTORY))).row
        print(row.tsv())

    print("# associative right Plonka magmas (partition numbers)")
    for n in (1, 2, 3, 4, 5):
        row = enumerate_structures(
            CensusQuery(n, (MagmaLaw.RIGHT_PLONKA, MagmaLaw.ASSOCIATIVE))).row
        print(row.tsv())

    print("# Plonka bi-magmas and BLS solutions (the same classes)")
    agree = True
    for n in range(1, 5 if args.full else 4):
        results = [enumerate_structures(CensusQuery(n, mode="representatives", **laws))
                   for laws in ({"bimagma_laws": (BiMagmaLaw.PLONKA_BIMAGMA,)},
                                {"rmap_laws": (RMapLaw.BLS,)})]
        for result in results:
            print(result.row.tsv())
        plonka, bls = ((r.row.class_count, r.row.raw_count, r.representatives) for r in results)
        if plonka != bls:
            print(f"error: plonka_bimagma and bls censuses differ at n = {n}", file=sys.stderr)
            agree = False

    print("# simple solutions on t points (two routes)")
    for t in range(1, 10 if args.full else 9):
        res = census_simple_bls(t)
        route = "single" if res.single_route else "dual"
        print(f"{t}\tsimple[{route}]\t{res.count}")

    print("# conjugacy classes of self-maps (all / connected)")
    for n in range(1, 9 if args.full else 7):
        print(f"{n}\t{function_conjugacy_census(n)}\t"
              f"{function_conjugacy_census(n, connected_only=True)}")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
