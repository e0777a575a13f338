"""Acceptance suite: every headline claim at full size, one line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS lines.
"""

import itertools
import random
import time

from ybmag import (BiMagma, BiMagmaLaw, CayleyTable, CensusQuery, FiniteFunction,
                   FunctionFamily, MagmaLaw, OdometerTriple, RMap, RMapLaw,
                   are_isomorphic, bi_plonka_partition, build_odometer,
                   canonical_correspondence, census_simple_bls,
                   check_bimagma_law, check_magma_law, check_rmap_law,
                   commuting_permutation_pairs_up_to_conjugacy,
                   connected_components, count_incompressible,
                   cyclic_group_table, decomposition_report,
                   enumerate_incompressible, enumerate_structures,
                   find_homomorphisms, free_k_cyclic, function_conjugacy_census,
                   is_incompressible, is_refinement, is_simple, lyubashenko_rmap,
                   odometer_canonicalize, rebuild, structured_iso,
                   symmetric_group_table, trivial_brace)
from ybmag.build import EssSolution, SkewBraceSolution, build_solution
from ybmag.laws import lyubashenko_pair

from conftest import stack_rows


def _report(number: int, label: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number:02d}: {label}", flush=True)
    assert ok, f"criterion {number}: {label}"


def divisor_sum(t: int) -> int:
    return sum(d for d in range(1, t + 1) if t % d == 0)


def test_criterion_01_census_counts_match_literature():
    t0 = time.perf_counter()
    plonka_counts = [enumerate_structures(
        CensusQuery(n, (MagmaLaw.RIGHT_PLONKA,))).row.class_count for n in (1, 2, 3)]
    plonka_elapsed = time.perf_counter() - t0
    ok = plonka_counts == [1, 3, 11] and plonka_elapsed < 5.0

    t0 = time.perf_counter()
    invol_counts = [enumerate_structures(
        CensusQuery(n, (MagmaLaw.RIGHT_PLONKA, MagmaLaw.RIGHT_INVOLUTORY))).row.class_count
        for n in (1, 2, 3, 4, 5)]
    invol_elapsed = time.perf_counter() - t0
    ok = ok and invol_counts == [1, 2, 4, 12, 37] and invol_elapsed < 60.0

    t0 = time.perf_counter()
    six = enumerate_structures(
        CensusQuery(6, (MagmaLaw.RIGHT_PLONKA, MagmaLaw.RIGHT_INVOLUTORY))).row.class_count
    six_elapsed = time.perf_counter() - t0
    ok = ok and six == 164 and six_elapsed < 900.0
    _report(1, f"census counts 1,3,11 / 1,2,4,12,37 / 164 "
               f"({plonka_elapsed:.1f}s, {invol_elapsed:.1f}s, {six_elapsed:.1f}s)", ok)


def test_criterion_02_simple_solution_census_two_routes():
    expected = [1, 3, 4, 7, 6, 12, 8, 15]
    ok = True
    for t, value in zip(range(1, 9), expected):
        res = census_simple_bls(t)
        ok = ok and value == divisor_sum(t) == res.count == res.pair_route_count
    # triple -> pair -> triple round trip on every carrier up to 8
    for size in range(1, 9):
        for m in (m for m in range(1, size + 1) if size % m == 0):
            for d in range(1, m + 1):
                triple = OdometerTriple(m, size // m, d)
                ok = ok and odometer_canonicalize(*build_odometer(triple)) == triple
    _report(2, "simple-solution census: both routes equal sigma(t), round trips exact", ok)


def test_criterion_03_divisor_chain_formula():
    ok = True
    for t in range(1, 9):
        for k in (1, 2, 3):
            ok = ok and len(enumerate_incompressible(t, k)) == count_incompressible(t, k)
    chains = [(d1, d2) for d2 in (1, 2, 4) for d1 in (1, 2, 4) if d2 % d1 == 0]
    spot = sum(d1 * d2 for d1, d2 in chains)
    ok = ok and spot == 35 == count_incompressible(4, 3)
    _report(3, "divisor-chain counts match enumeration for t <= 8, k <= 3; (4,3) = 35", ok)


def test_criterion_04_bls_equals_plonka_bimagma():
    disagreements = 0
    for cells in itertools.product(range(2), repeat=8):
        dot = CayleyTable(2, (cells[0:2], cells[2:4]))
        star = CayleyTable(2, (cells[4:6], cells[6:8]))
        b = BiMagma(dot, star)
        lhs = check_rmap_law(canonical_correspondence(b), RMapLaw.BLS).holds
        rhs = check_bimagma_law(b, BiMagmaLaw.PLONKA_BIMAGMA).holds
        disagreements += lhs != rhs
    rng = random.Random(42)
    for n in (3, 4):
        for _ in range(100_000):
            dot = CayleyTable(n, tuple(tuple(rng.randrange(n) for _ in range(n))
                                       for _ in range(n)))
            star = CayleyTable(n, tuple(tuple(rng.randrange(n) for _ in range(n))
                                        for _ in range(n)))
            b = BiMagma(dot, star)
            lhs = check_rmap_law(canonical_correspondence(b), RMapLaw.BLS).holds
            rhs = check_bimagma_law(b, BiMagmaLaw.PLONKA_BIMAGMA).holds
            disagreements += lhs != rhs
    _report(4, "BLS checker vs bi-magma axioms: 256 exhaustive + 2x100000 samples, "
               f"{disagreements} disagreements", disagreements == 0)


def test_criterion_05_structure_theorem_round_trips(plonka_corpus):
    ok = True
    for b in plonka_corpus:
        coarse = bi_plonka_partition(b, "coarsest")
        fine = bi_plonka_partition(b, "finest")
        ok = ok and rebuild(coarse) == b and rebuild(fine) == b
        ok = ok and is_refinement(fine, coarse)
        for i, block in enumerate(fine.partition.blocks):
            family = list(fine.f_endomaps[i]) + list(fine.g_endomaps[i])
            ok = ok and len(connected_components(len(block), family)) == 1
        if not ok:
            break
    _report(5, f"round trips, connected finest blocks, coarsest <= finest "
               f"on {len(plonka_corpus)} random bi-magmas", ok)


def test_criterion_06_property_bundle(plonka_corpus):
    ok = True
    for b in plonka_corpus:
        r = canonical_correspondence(b)
        ok = ok and check_rmap_law(r, RMapLaw.YANG_BAXTER).holds
        ok = ok and (check_rmap_law(r, RMapLaw.UNITARY).holds
                     == check_bimagma_law(b, BiMagmaLaw.UNITARY_PLONKA_BIMAGMA).holds)
        parts = (check_magma_law(b.dot, MagmaLaw.RIGHT_INVOLUTORY).holds
                 and check_magma_law(b.star, MagmaLaw.LEFT_INVOLUTORY).holds)
        ok = ok and check_rmap_law(r, RMapLaw.INVOLUTIVE).holds == parts
        pair = lyubashenko_pair(b)
        simple = is_simple(r).holds
        if pair is None:
            ok = ok and not simple
        else:
            fam = FunctionFamily(b.n, (FiniteFunction(b.n, pair[0]),
                                       FiniteFunction(b.n, pair[1])))
            ok = ok and simple == is_incompressible(fam)
        if not ok:
            break
    _report(6, f"QYBE / unitary / involutive / simple equivalences "
               f"on {len(plonka_corpus)} random bi-magmas", ok)


def test_criterion_07_long_equation_impossibility():
    ok = True
    # n = 2: all 256 maps
    for out in itertools.product(itertools.product(range(2), repeat=2), repeat=4):
        r = RMap(2, tuple(out))
        if check_rmap_law(r, RMapLaw.LONG).holds:
            ok = ok and not check_rmap_law(r, RMapLaw.LEFT_RIGHT_NONDEGENERATE).holds
    # n = 3: every left-right nondegenerate map has bijective dot rows and
    # star columns, so sweeping those 6^3 * 6^3 candidates is exhaustive
    perms3 = list(itertools.permutations(range(3)))
    checked = 0
    for dot_rows in itertools.product(perms3, repeat=3):
        for star_cols in itertools.product(perms3, repeat=3):
            r = RMap(3, tuple((dot_rows[x][y], star_cols[y][x])
                              for x in range(3) for y in range(3)))
            checked += 1
            if check_rmap_law(r, RMapLaw.LONG).holds:
                ok = False
    sample = RMap(3, tuple((perms3[0][y], perms3[0][x])
                           for x in range(3) for y in range(3)))
    ok = ok and check_rmap_law(sample, RMapLaw.LEFT_RIGHT_NONDEGENERATE).holds
    _report(7, f"no nondegenerate Long solutions: n=2 exhaustive, "
               f"n=3 over {checked} nondegenerate candidates", ok)


def _commuting_pairs(n):
    funcs = [FiniteFunction(n, images) for images in itertools.product(range(n), repeat=n)]
    for f in funcs:
        for g in funcs:
            if f.compose(g) == g.compose(f):
                yield f, g


def test_criterion_08_ess_inaccessibility():
    ok = True
    for p in (2, 3):
        ess = build_solution(EssSolution(p, 1, 0))
        for n in range(1, p + 1):
            for f, g in _commuting_pairs(n):
                ok = ok and find_homomorphisms(lyubashenko_rmap(f, g), ess) == []
        for n in range(1, 4):
            for f, g in _commuting_pairs(n):
                for hom in find_homomorphisms(ess, lyubashenko_rmap(f, g)):
                    ok = ok and len(set(hom.images)) == 1
    _report(8, "ESS solutions: no incoming maps from Lyubashenko solutions, "
               "all outgoing maps constant", ok)


def test_criterion_09_free_k_cyclic_magmas():
    ok = True
    for g in range(1, 5):
        for k in range(1, 4):
            res = free_k_cyclic(g, k, idempotent=True)
            ok = ok and res.table.n == g * k ** (g - 1)
            ok = ok and check_magma_law(res.table, MagmaLaw.RIGHT_PLONKA).holds
            ok = ok and check_magma_law(res.table, MagmaLaw.BAND).holds
            ok = ok and check_magma_law(res.table, MagmaLaw.K_CYCLIC, k).holds
            res = free_k_cyclic(g, k, idempotent=False)
            ok = ok and res.table.n == g * k ** g
            ok = ok and check_magma_law(res.table, MagmaLaw.RIGHT_PLONKA).holds
            ok = ok and check_magma_law(res.table, MagmaLaw.K_CYCLIC, k).holds
    _report(9, "free k-cyclic magmas: sizes g*k^(g-1) and g*k^g, laws pass "
               "for g <= 4, k <= 3", ok)


def test_criterion_10_uniqueness_results():
    ok = True
    for n in range(1, 7):
        res = enumerate_structures(CensusQuery(
            n, (MagmaLaw.RIGHT_PLONKA,), predicates=("right_simple",)))
        ok = ok and res.row.class_count == 1
    # unitary bi-connected solutions: candidates must be Lyubashenko pairs of
    # permutations (multi-block structures fail bi-connectedness, non-bijective
    # pairs fail unitarity), swept up to simultaneous conjugation
    for t in range(1, 9):
        hits = 0
        for f_img, g_img in commuting_permutation_pairs_up_to_conjugacy(t):
            r = lyubashenko_rmap(FiniteFunction(t, f_img), FiniteFunction(t, g_img))
            if not check_rmap_law(r, RMapLaw.UNITARY).holds:
                continue
            if not check_rmap_law(r, RMapLaw.BLS).holds:
                continue
            if decomposition_report(r).biconnected:
                hits += 1
        cycle = FiniteFunction(t, tuple((x + 1) % t for x in range(t)))
        witness = lyubashenko_rmap(cycle, cycle.power(t - 1) if t > 1 else cycle)
        ok = ok and hits == 1
        ok = ok and check_rmap_law(witness, RMapLaw.UNITARY).holds
        ok = ok and check_rmap_law(witness, RMapLaw.BLS).holds
        ok = ok and decomposition_report(witness).biconnected
    _report(10, "one right-simple class per n <= 6; one unitary bi-connected "
                "class per t <= 8", ok)


def test_criterion_11_oracle_soundness():
    ok = True
    # structured vs brute-force isomorphism on right Plonka magmas
    from ybmag.census import _raw_stream
    from ybmag.core import DEFAULT_LIMITS
    tables_by_n: dict[int, list[CayleyTable]] = {}
    for n in (1, 2, 3):
        tables_by_n[n] = [
            CayleyTable(n, tuple(tuple(flat[i * n:(i + 1) * n]) for i in range(n)))
            for flat in stack_rows(_raw_stream(CensusQuery(n, (MagmaLaw.RIGHT_PLONKA,)),
                                               DEFAULT_LIMITS))]
    for n, tables in tables_by_n.items():
        for a in tables:
            for b in tables:
                ok = ok and ((structured_iso(a, b) is None)
                             == (are_isomorphic(a, b) is None))
    reps4 = enumerate_structures(CensusQuery(4, (MagmaLaw.RIGHT_PLONKA,)),
                                 ).row.class_count
    rep_tables = enumerate_structures(
        CensusQuery(4, (MagmaLaw.RIGHT_PLONKA,), mode="representatives")).representatives
    rng = random.Random(99)
    for a in rep_tables:
        for b in rep_tables:
            ok = ok and ((structured_iso(a, b) is None) == (are_isomorphic(a, b) is None))
        for _ in range(3):
            sigma = list(range(4))
            rng.shuffle(sigma)
            relabelled = a.relabel(tuple(sigma))
            ok = ok and structured_iso(a, relabelled) is not None
            ok = ok and are_isomorphic(a, relabelled) is not None
    # canonical-form counting vs the pairwise oracle
    for n in (1, 2, 3):
        reps: list[CayleyTable] = []
        for table in tables_by_n[n]:
            if not any(are_isomorphic(table, rep) for rep in reps):
                reps.append(table)
        census = enumerate_structures(CensusQuery(n, (MagmaLaw.RIGHT_PLONKA,)))
        ok = ok and census.row.class_count == len(reps)
    # the conjugacy census asserts dual-method agreement internally
    for n in range(1, 7):
        function_conjugacy_census(n, connected_only=False)
        function_conjugacy_census(n, connected_only=True)
    _report(11, f"structured iso vs oracle (n <= 4, {reps4} classes at n=4), "
                "canonical counting vs pairwise oracle, dual-method censuses", ok)


def test_criterion_12_skew_brace_solutions():
    ok = True
    braces = [trivial_brace(cyclic_group_table(n)) for n in range(2, 7)]
    braces.append(trivial_brace(symmetric_group_table(3)))
    for brace in braces:
        r = build_solution(SkewBraceSolution(brace))
        ok = ok and check_rmap_law(r, RMapLaw.BRAID).holds
        ok = ok and r.is_bijective()
        ok = ok and check_rmap_law(r, RMapLaw.LEFT_RIGHT_NONDEGENERATE).holds
    from ybmag import flip_map
    flip_r = build_solution(SkewBraceSolution(trivial_brace(cyclic_group_table(2))))
    ok = ok and flip_r == flip_map(2)
    _report(12, "trivial braces on Z/2..Z/6 and the order-6 nonabelian group "
                "give nondegenerate bijective braid solutions; Z/2 gives the flip", ok)
