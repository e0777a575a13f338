#!/usr/bin/env python3
"""Reproduce the headline isomorphism-class counts.

Prints one TSV row per census (n, constraint, class_count, raw_count,
elapsed_ms) followed by the simple-solution and conjugacy-class tables.
The quick set runs the right involutory census for n = 1-6 (164 classes at
n = 6, checked against the literature value), the Plonka bi-magma and BLS
censuses, their unitary ones and their Yang-Baxter ones for n = 1-3 and the
conjugacy classes of self-maps for n = 1-6; --full adds the right Plonka
census at n = 4 and 5 (65 / 964 and 463 / 34 265 classes / raw tables,
unverified: no literature value, though the raw counts match the closed
block-decomposition count), the involutory census at n = 7, the bi-magma
censuses at n = 4 (1048 classes, 17 unitary ones), the simple solutions on
t = 9 points (13 by both routes) and the conjugacy classes at n = 7 and 8
(343 / 125 and 951 / 329).  Exits 1 if a
Plonka bi-magma census and its BLS census differ in a count or a
representative: every BLS solution is a Plonka bi-magma and conversely, a
Plonka bi-magma has a unitary R-map exactly when it is a unitary Plonka
bi-magma, and a bi-magma is a Yang-Baxter bi-magma exactly when its R-map
solves the Yang-Baxter equation.  The last pair checks the Yang-Baxter
bi-magma laws and the Yang-Baxter R-map chains, two term tables of one
equation, against each other.

Usage:
  python scripts/reproduce_counts.py            # the quick set, a few seconds
  python scripts/reproduce_counts.py --full     # adds the larger runs, about 20 s
"""

import argparse
import sys

from ybmag import (BiMagmaLaw, CensusQuery, MagmaLaw, RMapLaw, census_simple_bls,
                   enumerate_structures, function_conjugacy_census)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--full", action="store_true",
                        help="include the right Plonka censuses at n = 4 and 5 (about "
                             "0.6 s), the slower n = 7 right involutory census "
                             "(849 classes, 4-6 s on a 2-vCPU VM), the bi-magma censuses "
                             "at n = 4 (about 1.5 s for all six), the simple solutions on 9 points "
                             "(under 1 s) and the conjugacy classes of self-maps at n = 7 and 8 "
                             "(about 12 s)")
    args = parser.parse_args()

    print("# right Plonka magmas")
    for n in range(1, 6 if args.full else 4):
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

    agree = True
    for heading, bimagma_laws, rmap_laws in (
            ("Plonka bi-magmas and BLS solutions", (BiMagmaLaw.PLONKA_BIMAGMA,), (RMapLaw.BLS,)),
            ("unitary Plonka bi-magmas and unitary BLS solutions",
             (BiMagmaLaw.UNITARY_PLONKA_BIMAGMA,), (RMapLaw.BLS, RMapLaw.UNITARY)),
            ("Yang-Baxter Plonka bi-magmas and Yang-Baxter BLS solutions",
             (BiMagmaLaw.PLONKA_BIMAGMA, BiMagmaLaw.YANG_BAXTER_BIMAGMA),
             (RMapLaw.BLS, RMapLaw.YANG_BAXTER))):
        print(f"# {heading} (the same classes)")
        for n in range(1, 5 if args.full else 4):
            results = [enumerate_structures(CensusQuery(n, mode="representatives", **laws))
                       for laws in ({"bimagma_laws": bimagma_laws}, {"rmap_laws": rmap_laws})]
            for result in results:
                print(result.row.tsv())
            plonka, bls = ((r.row.class_count, r.row.raw_count, r.representatives)
                           for r in results)
            if plonka != bls:
                print(f"error: {'+'.join(law.value for law in bimagma_laws)} and "
                      f"{'+'.join(law.value for law in rmap_laws)} censuses differ at n = {n}",
                      file=sys.stderr)
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
