import itertools
import random

import pytest
from hypothesis import given, settings

from ybmag import (BiMagma, BiMagmaLaw, BiPlonkaPartition, FiniteFunction,
                   MagmaLaw, OdometerTriple, PlonkaPartition, RMapLaw,
                   SetPartition, canonical_correspondence,
                   check_bimagma_law, check_magma_law, check_rmap_law,
                   cyclic_group_table, flip_map, free_k_cyclic, identity_rmap,
                   is_simple, left_zero_table, magma_from_function,
                   symmetric_group_table, trivial_bimagma, trivial_brace)
from ybmag.build import (BlsFromPartitionSolution, EssSolution, FlipSolution,
                         IdentitySolution, LyubashenkoSolution, OdometerSolution,
                         RightPlonkaOppositeSolution, SkewBraceSolution,
                         build_solution)
from ybmag.core import GuardExceeded

from conftest import self_maps


def ff(*images):
    return FiniteFunction(len(images), tuple(images))


def test_identity_and_flip_variants():
    assert build_solution(IdentitySolution(3)) == identity_rmap(3)
    assert build_solution(FlipSolution(3)) == flip_map(3)


def test_ess_builder_shape_and_validation():
    r = build_solution(EssSolution(3, 1, 0))
    assert r.apply(0, 2) == (2, 1)     # R(x, y) = (y, x + 1)
    with pytest.raises(ValueError):
        EssSolution(4, 1, 0)           # not prime
    with pytest.raises(ValueError):
        EssSolution(3, 0, 0)           # both constants vanish


def test_bls_partition_variant_needs_two_grids():
    part = SetPartition(2, ((0, 1),))
    swap = ff(1, 0)
    r = build_solution(BlsFromPartitionSolution(BiPlonkaPartition(part, ((swap,),), ((swap,),))))
    assert check_rmap_law(r, RMapLaw.BLS).holds
    with pytest.raises(ValueError):
        BlsFromPartitionSolution(PlonkaPartition(part, ((swap,),)))


def test_opposite_variant_swap():
    m = magma_from_function(ff(1, 0))
    r = build_solution(RightPlonkaOppositeSolution(m))
    assert r.apply(0, 1) == (1, 0)     # R(x, y) = (1 - x, 1 - y)
    assert check_rmap_law(r, RMapLaw.UNITARY).holds
    assert check_rmap_law(r, RMapLaw.YANG_BAXTER).holds


def test_odometer_solution_is_simple():
    r = build_solution(OdometerSolution(OdometerTriple(1, 2, 1)))
    assert is_simple(r).holds
    assert check_rmap_law(r, RMapLaw.YANG_BAXTER).holds


@given(self_maps(max_n=5), self_maps(max_n=5))
@settings(max_examples=200)
def test_lyubashenko_yang_baxter_iff_commuting(f, g):
    if f.n != g.n:
        return
    r = build_solution(LyubashenkoSolution(f, g))
    assert check_rmap_law(r, RMapLaw.YANG_BAXTER).holds == (f.compose(g) == g.compose(f))


# ---------------------------------------------------------------------------
# skew braces


def test_trivial_brace_on_z2_is_flip():
    r = build_solution(SkewBraceSolution(trivial_brace(cyclic_group_table(2))))
    assert r == flip_map(2)


def brace_fixtures():
    for n in range(2, 7):
        yield trivial_brace(cyclic_group_table(n))
    yield trivial_brace(symmetric_group_table(3))


def test_brace_solutions_are_nondegenerate_braid():
    for brace in brace_fixtures():
        r = build_solution(SkewBraceSolution(brace))
        assert check_rmap_law(r, RMapLaw.BRAID).holds
        assert r.is_bijective()
        assert check_rmap_law(r, RMapLaw.LEFT_RIGHT_NONDEGENERATE).holds


def test_brace_inverse_is_opposite_brace_solution():
    for brace in brace_fixtures():
        r = build_solution(SkewBraceSolution(brace))
        opp = BiMagma(brace.dot.opposite(), brace.star)
        assert check_bimagma_law(opp, BiMagmaLaw.SKEW_LEFT_BRACE).holds
        r_op = build_solution(SkewBraceSolution(opp))
        n = brace.n
        assert r.compose(r_op) == identity_rmap(n)
        assert r_op.compose(r) == identity_rmap(n)


def test_brace_builder_rejects_non_brace():
    bad = BiMagma(left_zero_table(3), cyclic_group_table(3))
    with pytest.raises(ValueError):
        build_solution(SkewBraceSolution(bad))


# ---------------------------------------------------------------------------
# plain structures


def test_magma_from_idempotent_function_is_associative():
    m = magma_from_function(ff(0, 1, 2))
    assert check_magma_law(m, MagmaLaw.RIGHT_PLONKA).holds
    assert check_magma_law(m, MagmaLaw.ASSOCIATIVE).holds


def test_function_magma_associative_iff_idempotent_map():
    for n in (1, 2, 3, 4):
        for images in itertools.product(range(n), repeat=n):
            f = FiniteFunction(n, images)
            m = magma_from_function(f)
            assert check_magma_law(m, MagmaLaw.ASSOCIATIVE).holds == \
                (f.compose(f) == f)


def test_trivial_bimagma_passes_unitary_plonka():
    assert check_bimagma_law(trivial_bimagma(4), BiMagmaLaw.UNITARY_PLONKA_BIMAGMA).holds


def test_trivial_brace_passes_brace_law():
    assert check_bimagma_law(trivial_brace(cyclic_group_table(3)),
                             BiMagmaLaw.SKEW_LEFT_BRACE).holds
    with pytest.raises(ValueError):
        trivial_brace(left_zero_table(3))


# ---------------------------------------------------------------------------
# free k-cyclic magmas


def test_free_k_cyclic_singleton():
    res = free_k_cyclic(1, 3, idempotent=True)
    assert res.table.n == 1


def test_free_k_cyclic_sizes_small():
    assert free_k_cyclic(2, 2, idempotent=True).table.n == 4
    assert free_k_cyclic(2, 2, idempotent=False).table.n == 8


def test_free_k_cyclic_laws_small():
    for g in (1, 2, 3):
        for k in (1, 2, 3):
            res = free_k_cyclic(g, k, idempotent=True)
            assert check_magma_law(res.table, MagmaLaw.RIGHT_PLONKA).holds
            assert check_magma_law(res.table, MagmaLaw.BAND).holds
            assert check_magma_law(res.table, MagmaLaw.K_CYCLIC, k).holds
            if k == 2:
                assert check_magma_law(res.table, MagmaLaw.TWO_CYCLIC).holds
            relaxed = free_k_cyclic(g, k, idempotent=False)
            assert check_magma_law(relaxed.table, MagmaLaw.RIGHT_PLONKA).holds
            assert check_magma_law(relaxed.table, MagmaLaw.K_CYCLIC, k).holds
            if k >= 2:
                assert not check_magma_law(relaxed.table, MagmaLaw.BAND).holds


def test_free_k_cyclic_legend():
    res = free_k_cyclic(2, 2, idempotent=True)
    lines = res.legend_lines()
    assert len(lines) == 4
    assert lines[0] == "0: (0, {})"
    assert any("1^1" in line for line in lines)


def test_free_k_cyclic_guard():
    with pytest.raises(GuardExceeded):
        free_k_cyclic(6, 3, idempotent=False)


# ---------------------------------------------------------------------------
# property bundle on random Plonka bi-magmas (small sample; the acceptance
# suite runs the full corpus)


def test_theorem_bundle_small(plonka_corpus):
    rng = random.Random(17)
    from ybmag.families import FunctionFamily, is_incompressible
    from ybmag.laws import lyubashenko_pair
    for b in rng.sample(plonka_corpus, 250):
        r = canonical_correspondence(b)
        assert check_rmap_law(r, RMapLaw.YANG_BAXTER).holds
        assert check_rmap_law(r, RMapLaw.BLS).holds
        assert check_rmap_law(r, RMapLaw.UNITARY).holds == \
            check_bimagma_law(b, BiMagmaLaw.UNITARY_PLONKA_BIMAGMA).holds
        involutive = check_rmap_law(r, RMapLaw.INVOLUTIVE).holds
        parts = (check_magma_law(b.dot, MagmaLaw.RIGHT_INVOLUTORY).holds
                 and check_magma_law(b.star, MagmaLaw.LEFT_INVOLUTORY).holds)
        assert involutive == parts
        pair = lyubashenko_pair(b)
        simple = is_simple(r).holds
        if pair is None:
            assert not simple
        else:
            fam = FunctionFamily(b.n, (FiniteFunction(b.n, pair[0]),
                                       FiniteFunction(b.n, pair[1])))
            assert simple == is_incompressible(fam)
