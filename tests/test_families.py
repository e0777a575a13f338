import itertools
import random

import pytest
from ybmag import (FamilyError, FiniteFunction, FunctionFamily, OdometerTriple,
                   analyze_family, build_odometer, count_incompressible,
                   enumerate_incompressible, is_incompressible,
                   odometer_canonicalize, recover_group)
from ybmag.build import symmetric_group_table
from ybmag.core import CrossCheckFailed
from ybmag.families import (_group_automorphisms, _group_from_factors,
                            _invariant_factors_from_table,
                            abelian_invariant_factor_lists)


def ff(*images):
    return FiniteFunction(len(images), tuple(images))


def test_analyze_cycle():
    flags = analyze_family(FunctionFamily(3, (ff(1, 2, 0),)))
    assert flags.incompressible and flags.connected and flags.commuting
    assert flags.bijective_members


def test_analyze_constant():
    flags = analyze_family(FunctionFamily(2, (ff(0, 0),)))
    assert not flags.incompressible
    assert flags.connected


def test_analyze_swap_and_identity():
    flags = analyze_family(FunctionFamily(2, (ff(1, 0), ff(0, 1))))
    assert flags.commuting and flags.incompressible and flags.connected


def test_empty_family_rejected():
    with pytest.raises(FamilyError):
        FunctionFamily(2, ())


# ---------------------------------------------------------------------------
# group recovery


def test_recover_z2():
    g = recover_group(FunctionFamily(2, (ff(1, 0),)))
    assert g.order == 2 and g.invariant_factors == (2,)
    assert g.generator_images == (1,)


def test_recover_z3():
    g = recover_group(FunctionFamily(3, (ff(1, 2, 0),)))
    assert g.invariant_factors == (3,)


def test_recover_rejects_compressible():
    with pytest.raises(FamilyError):
        recover_group(FunctionFamily(2, (ff(0, 0),)))


def test_recover_rejects_non_commuting():
    f, g = ff(1, 0, 2), ff(0, 2, 1)
    assert f.compose(g) != g.compose(f)
    with pytest.raises(FamilyError):
        recover_group(FunctionFamily(3, (f, g)))


def test_recover_group_axioms_and_free_transitivity():
    rng = random.Random(3)
    for _ in range(60):
        t = rng.randint(1, 8)
        triples = [OdometerTriple(m, t // m, rng.randint(1, m))
                   for m in range(1, t + 1) if t % m == 0]
        triple = rng.choice(triples)
        fam = FunctionFamily(t, tuple(build_odometer(triple)))
        g = recover_group(fam)
        op = g.op
        assert op[0] == tuple(range(t))                      # identity at base point
        for x in range(t):
            assert sorted(op[x]) == list(range(t))           # translations are bijections
            for y in range(t):
                assert op[x][y] == op[y][x]                  # abelian
        for x in range(t):
            for y in range(t):
                for z in range(t):
                    assert op[op[x][y]][z] == op[x][op[y][z]]
        # free transitive: every element is reached once from the base point
        assert sorted(op[x][0] for x in range(t)) == list(range(t))
        # coordinates give an isomorphism onto the invariant-factor product
        factors = g.invariant_factors
        for x in range(t):
            for y in range(t):
                added = tuple((a + b) % d for a, b, d in
                              zip(g.coordinates[x], g.coordinates[y], factors))
                assert g.coordinates[op[x][y]] == added


def test_members_of_incompressible_families_are_bijective():
    # every enumerated representative family has bijective members, and
    # compressible controls may not
    for t in (1, 2, 3, 4, 5, 6):
        for fam in enumerate_incompressible(t, 2):
            assert all(f.is_bijective() for f in fam.members)
    assert not analyze_family(FunctionFamily(3, (ff(0, 0, 0), ff(0, 0, 0)))).incompressible


# ---------------------------------------------------------------------------
# odometer canonical forms


def test_odometer_examples():
    swap, ident = ff(1, 0), ff(0, 1)
    assert odometer_canonicalize(swap, swap) == OdometerTriple(2, 1, 1)
    assert odometer_canonicalize(swap, ident) == OdometerTriple(2, 1, 2)
    assert odometer_canonicalize(ident, swap) == OdometerTriple(1, 2, 1)


def test_build_odometer_formula():
    f, g = build_odometer(OdometerTriple(2, 1, 1))
    assert f.images == (1, 0) and g.images == (1, 0)
    f, g = build_odometer(OdometerTriple(1, 2, 1))
    assert f.images == (0, 1) and g.images == (1, 0)
    f, g = build_odometer(OdometerTriple(2, 2, 2))
    assert g.compose(g).images == (0, 1, 2, 3)  # g has order 2 when d = m


def test_round_trip_all_triples_up_to_8():
    for size in range(1, 9):
        for m in range(1, size + 1):
            if size % m:
                continue
            for d in range(1, m + 1):
                triple = OdometerTriple(m, size // m, d)
                f, g = build_odometer(triple)
                assert odometer_canonicalize(f, g) == triple


def test_reverse_round_trip_up_to_iso():
    # canonicalising an arbitrary incompressible pair and rebuilding gives an
    # isomorphic pair: some relabelling intertwines both maps at once
    rng = random.Random(7)
    from ybmag.census import commuting_permutation_pairs_up_to_conjugacy
    for t in (1, 2, 3, 4, 5, 6):
        for f_img, g_img in commuting_permutation_pairs_up_to_conjugacy(t):
            f, g = FiniteFunction(t, f_img), FiniteFunction(t, g_img)
            if not is_incompressible(FunctionFamily(t, (f, g))):
                continue
            triple = odometer_canonicalize(f, g)
            f2, g2 = build_odometer(triple)
            found = False
            for sigma in itertools.permutations(range(t)):
                if all(sigma[f(x)] == f2(sigma[x]) and sigma[g(x)] == g2(sigma[x])
                       for x in range(t)):
                    found = True
                    break
            assert found, (f, g, triple)


def test_zero_m_rejected():
    with pytest.raises(ValueError):
        OdometerTriple(0, 2, 1)


# ---------------------------------------------------------------------------
# counting


def divisor_sum(t):
    return sum(d for d in range(1, t + 1) if t % d == 0)


def test_count_base_case():
    for t in (1, 2, 5, 12):
        assert count_incompressible(t, 1) == 1


def test_count_pairs_is_divisor_sum():
    for t in range(1, 65):
        assert count_incompressible(t, 2) == divisor_sum(t)


def test_count_4_3_by_direct_chain_enumeration():
    chains = [(d1, d2) for d2 in range(1, 5) if 4 % d2 == 0
              for d1 in range(1, d2 + 1) if d2 % d1 == 0]
    direct = sum(d1 * d2 for d1, d2 in chains)
    assert direct == 35
    assert count_incompressible(4, 3) == 35


def test_enumerate_matches_count():
    for t in range(1, 9):
        for k in (1, 2, 3):
            fams = enumerate_incompressible(t, k)
            assert len(fams) == count_incompressible(t, k), (t, k)
            for fam in fams:
                flags = analyze_family(fam)
                assert flags.commuting and flags.incompressible


def test_enumerate_trivial_cases():
    assert len(enumerate_incompressible(1, 3)) == 1
    fams = enumerate_incompressible(3, 1)
    assert len(fams) == 1
    assert sorted(fams[0].members[0].images) == [0, 1, 2]  # the 3-cycle


def test_enumerate_against_full_function_space():
    # independent census: all commuting pairs of arbitrary self-maps up to
    # simultaneous conjugation, filtered by incompressibility
    for t in (1, 2, 3, 4):
        funcs = list(itertools.product(range(t), repeat=t))
        perms = list(itertools.permutations(range(t)))
        seen = set()
        classes = 0
        for f in funcs:
            for g in funcs:
                if any(f[g[x]] != g[f[x]] for x in range(t)):
                    continue
                if (f, g) in seen:
                    continue
                for sigma in perms:
                    inv = [0] * t
                    for i, v in enumerate(sigma):
                        inv[v] = i
                    img = (tuple(sigma[f[inv[x]]] for x in range(t)),
                           tuple(sigma[g[inv[x]]] for x in range(t)))
                    seen.add(img)
                fam = FunctionFamily(t, (FiniteFunction(t, f), FiniteFunction(t, g)))
                if is_incompressible(fam):
                    classes += 1
        assert classes == count_incompressible(t, 2), t


def test_invariant_factor_lists():
    assert abelian_invariant_factor_lists(1) == [()]
    assert abelian_invariant_factor_lists(6) == [(6,)]
    assert abelian_invariant_factor_lists(4) == [(2, 2), (4,)]
    assert abelian_invariant_factor_lists(8) == [(2, 2, 2), (2, 4), (8,)]
    assert abelian_invariant_factor_lists(12) == [(2, 6), (12,)]


def test_invariant_factors_of_every_group_table_up_to_48():
    # the natural table and a copy relabelled with the identity 0 fixed
    rng = random.Random(13)
    for t in range(1, 49):
        for factors in abelian_invariant_factor_lists(t):
            _, op = _group_from_factors(factors)
            sigma = [0] + rng.sample(range(1, t), t - 1)
            relabelled = [[0] * t for _ in range(t)]
            for x in range(t):
                for y in range(t):
                    relabelled[sigma[x]][sigma[y]] = sigma[op[x][y]]
            assert _invariant_factors_from_table(op) == factors
            assert _invariant_factors_from_table(tuple(map(tuple, relabelled))) == factors


def test_invariant_factors_refuse_a_nonabelian_group():
    # S3 has four elements of order dividing 2, Z/6 (the one abelian group of
    # order 6) has two
    with pytest.raises(CrossCheckFailed):
        _invariant_factors_from_table(symmetric_group_table(3).table)


def test_automorphism_group_orders():
    # |Aut| of these groups: GL(2, 2), GL(3, 2), GL(2, 3), (Z/8)*, and the
    # known orders for Z/2 x Z/4, Z/2 x Z/6 and Z/4 x Z/4
    expected = {(2, 2): 6, (2, 2, 2): 168, (3, 3): 48, (8,): 4, (2, 4): 8,
                (2, 6): 12, (4, 4): 96}
    for factors, order in expected.items():
        autos = _group_automorphisms(factors)
        assert len(autos) == len(set(autos)) == order, factors


def test_enumerate_incompressible_4_2_members():
    fams = enumerate_incompressible(4, 2)
    assert [tuple(f.images for f in fam.members) for fam in fams] == [
        ((0, 1, 2, 3), (1, 2, 3, 0)),
        ((1, 0, 3, 2), (2, 3, 0, 1)),
        ((1, 2, 3, 0), (0, 1, 2, 3)),
        ((1, 2, 3, 0), (1, 2, 3, 0)),
        ((1, 2, 3, 0), (2, 3, 0, 1)),
        ((1, 2, 3, 0), (3, 0, 1, 2)),
        ((2, 3, 0, 1), (1, 2, 3, 0)),
    ]
    assert len(fams) == count_incompressible(4, 2)
