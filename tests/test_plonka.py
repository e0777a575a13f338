import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ybmag import (BiMagma, CayleyTable, FiniteFunction, MagmaLaw, NotPlonkaError,
                   Permutation,
                   PlonkaPartition, SetPartition, are_isomorphic,
                   bi_plonka_partition, bijectivize, check_magma_law,
                   connected_components, is_refinement, left_zero_table,
                   lyubashenko_rmap, magma_from_function,
                   canonical_correspondence, plonka_partition, rebuild,
                   structured_iso, trivial_bimagma)
from ybmag import plonka
from ybmag.core import VERDICT_OK, CrossCheckFailed
from ybmag.ideals import IdealKind, is_simple

from conftest import random_bi_partition, self_maps


def all_right_plonka_tables(n):
    for cells in itertools.product(range(n), repeat=n * n):
        t = CayleyTable(n, tuple(tuple(cells[i * n:(i + 1) * n]) for i in range(n)))
        if check_magma_law(t, MagmaLaw.RIGHT_PLONKA).holds:
            yield t


# ---------------------------------------------------------------------------
# partitions and rebuild


def test_left_zero_coarsest_is_one_block():
    p = plonka_partition(left_zero_table(2), "coarsest")
    assert p.partition.blocks == ((0, 1),)
    assert p.endomaps[0][0].images == (0, 1)


def test_left_zero_finest_is_singletons():
    p = plonka_partition(left_zero_table(2), "finest")
    assert p.partition.blocks == ((0,), (1,))


def test_singleton_magma_partitions():
    m = left_zero_table(1)
    for extremity in ("coarsest", "finest"):
        p = plonka_partition(m, extremity)
        assert p.partition.blocks == ((0,),)


def test_rebuild_one_block_swap():
    part = SetPartition(2, ((0, 1),))
    swap = FiniteFunction(2, (1, 0))
    p = PlonkaPartition(part, ((swap,),))
    assert rebuild(p).table == ((1, 1), (0, 0))  # x.y = 1 - x


def test_rebuild_two_singletons_gives_left_zero():
    part = SetPartition(2, ((0,), (1,)))
    ident = FiniteFunction(1, (0,))
    p = PlonkaPartition(part, ((ident, ident), (ident, ident)))
    assert rebuild(p) == left_zero_table(2)


def test_two_presentations_same_magma():
    # one block with identity endomap vs two singletons: both give x.y = x
    one_block = PlonkaPartition(SetPartition(2, ((0, 1),)),
                                ((FiniteFunction(2, (0, 1)),),))
    ident = FiniteFunction(1, (0,))
    split = PlonkaPartition(SetPartition(2, ((0,), (1,))),
                            ((ident, ident), (ident, ident)))
    a, b = rebuild(one_block), rebuild(split)
    assert a == b
    sigma = structured_iso(a, b)
    assert sigma is not None and sigma.images == (0, 1)


def test_rebuild_bi_case_lyubashenko_pair():
    part = SetPartition(2, ((0, 1),))
    swap = FiniteFunction(2, (1, 0))
    from ybmag import BiPlonkaPartition
    p = BiPlonkaPartition(part, ((swap,),), ((swap,),))
    b = rebuild(p)
    assert canonical_correspondence(b) == lyubashenko_rmap(swap, swap)


def test_bi_coarsest_trivial_bimagma_is_one_block():
    # every pair of elements satisfies both congruence conditions, so the
    # coarsest bi-partition of the left-zero/right-zero pair is one block
    p = bi_plonka_partition(trivial_bimagma(3), "coarsest")
    assert p.partition.blocks == ((0, 1, 2),)
    assert rebuild(p) == trivial_bimagma(3)
    fine = bi_plonka_partition(trivial_bimagma(3), "finest")
    assert fine.partition.blocks == ((0,), (1,), (2,))


def test_bi_coarsest_lyubashenko_swap_pair_one_block():
    swap = FiniteFunction(2, (1, 0))
    b = canonical_correspondence(lyubashenko_rmap(swap, swap))
    p = bi_plonka_partition(b, "coarsest")
    assert p.partition.blocks == ((0, 1),)


def test_not_plonka_raises_with_witness():
    from ybmag import cyclic_group_table
    with pytest.raises(NotPlonkaError) as err:
        plonka_partition(cyclic_group_table(2), "coarsest")
    assert err.value.verdict.witness is not None


def test_round_trips_exhaustive_small():
    for n in (1, 2, 3):
        for m in all_right_plonka_tables(n):
            for extremity in ("coarsest", "finest"):
                assert rebuild(plonka_partition(m, extremity)) == m
            coarse = plonka_partition(m, "coarsest")
            fine = plonka_partition(m, "finest")
            assert is_refinement(fine, coarse)
            for i, fam in enumerate(fine.endomaps):
                comps = connected_components(len(fine.partition.blocks[i]), list(fam))
                assert len(comps) == 1


def test_bi_round_trips_random(plonka_corpus):
    rng = random.Random(5)
    for b in rng.sample(plonka_corpus, 300):
        for extremity in ("coarsest", "finest"):
            assert rebuild(bi_plonka_partition(b, extremity)) == b


# ---------------------------------------------------------------------------
# connected components


def test_components_identity():
    ident = FiniteFunction(3, (0, 1, 2))
    assert connected_components(3, [ident]).blocks == ((0,), (1,), (2,))


def test_components_cycle():
    cyc = FiniteFunction(3, (1, 2, 0))
    assert connected_components(3, [cyc]).blocks == ((0, 1, 2),)


def test_components_constant():
    const = FiniteFunction(2, (0, 0))
    assert connected_components(2, [const]).blocks == ((0, 1),)


# ---------------------------------------------------------------------------
# structured isomorphism vs the brute-force oracle


def test_structured_iso_conjugate_constants():
    a = magma_from_function(FiniteFunction(2, (0, 0)))
    b = magma_from_function(FiniteFunction(2, (1, 1)))
    sigma = structured_iso(a, b)
    assert sigma is not None and sigma.images == (1, 0)


def test_structured_iso_size_mismatch():
    assert structured_iso(left_zero_table(2), left_zero_table(3)) is None


def test_structured_iso_on_empty_structures():
    empty = CayleyTable(0, ())
    for a in (empty, BiMagma(empty, empty)):
        assert structured_iso(a, a) == are_isomorphic(a, a) == Permutation(0, ())


def test_structured_iso_agrees_with_oracle_exhaustive_n3():
    tables = []
    for n in (1, 2, 3):
        tables.extend(all_right_plonka_tables(n))
    for a in tables:
        for b in tables:
            if a.n != b.n:
                continue
            fast = structured_iso(a, b)
            slow = are_isomorphic(a, b)
            assert (fast is None) == (slow is None), (a, b)
            if fast is not None:
                assert a.relabel(fast.images) == b


# ---------------------------------------------------------------------------
# simplicity equivalences for right Plonka magmas


def _jointly_onto(p: PlonkaPartition) -> bool:
    for i, block in enumerate(p.partition.blocks):
        covered = set()
        for f in p.endomaps[i]:
            covered.update(f.images)
        if covered != set(range(len(block))):
            return False
    return True


def test_left_simple_equals_total_equals_jointly_onto():
    for n in (1, 2, 3):
        for m in all_right_plonka_tables(n):
            left_simple = is_simple(m, IdealKind.MAGMA_LEFT).holds
            two_sided = is_simple(m, IdealKind.MAGMA_TWO_SIDED).holds
            total = check_magma_law(m, MagmaLaw.TOTAL).holds
            onto = _jointly_onto(plonka_partition(m, "coarsest"))
            assert left_simple == two_sided == total == onto, m


# ---------------------------------------------------------------------------
# bijectivization


def test_bijectivize_already_bijective():
    f = FiniteFunction(3, (1, 2, 0))
    res = bijectivize(f)
    assert res.target == f
    assert res.unit.images == (0, 1, 2)


def test_bijectivize_constant():
    res = bijectivize(FiniteFunction(3, (0, 0, 0)))
    assert res.target.n == 1
    assert res.unit.images == (0, 0, 0)


def test_bijectivize_partial_collapse():
    res = bijectivize(FiniteFunction(3, (1, 2, 1)))
    assert res.target.n == 2
    assert res.target.images == (1, 0)


@given(self_maps(max_n=7))
def test_bijectivize_intertwines(f):
    res = bijectivize(f)
    for x in range(f.n):
        assert res.unit(f(x)) == res.target(res.unit(x))


@given(self_maps(max_n=6))
@settings(max_examples=60)
def test_bijectivize_idempotent_up_to_iso(f):
    res = bijectivize(f)
    again = bijectivize(res.target)
    assert again.target.n == res.target.n
    # the second pass is trivial: target already bijective
    assert again.target == res.target


def test_bijectivize_universal_property_exhaustive():
    # every intertwiner from f into a bijective map factors uniquely
    # through the unit, for |X| <= 4 and |Y| <= 3
    targets = []
    for m in (1, 2, 3):
        for images in itertools.permutations(range(m)):
            targets.append(FiniteFunction(m, images))
    for n in (1, 2, 3, 4):
        for images in itertools.product(range(n), repeat=n):
            f = FiniteFunction(n, images)
            res = bijectivize(f)
            for g2 in targets:
                m = g2.n
                for theta in itertools.product(range(m), repeat=n):
                    if any(theta[f(x)] != g2(theta[x]) for x in range(n)):
                        continue
                    factorisations = []
                    for phi in itertools.product(range(m), repeat=res.target.n):
                        if all(phi[res.unit(x)] == theta[x] for x in range(n)) and \
                           all(phi[res.target(v)] == g2(phi[v])
                               for v in range(res.target.n)):
                            factorisations.append(phi)
                    assert len(factorisations) == 1, (f, g2, theta)


# ---------------------------------------------------------------------------
# internal invariants raise the typed CrossCheckFailed


def test_partition_closure_failure_is_typed(monkeypatch):
    # a non-Plonka table let through: its singleton blocks are not closed
    monkeypatch.setattr(plonka, "check_magma_law", lambda m, law: VERDICT_OK)
    with pytest.raises(CrossCheckFailed, match="congruence class not closed"):
        plonka_partition(CayleyTable(2, ((0, 1), (0, 1))), "coarsest")


def test_finest_closure_failure_is_typed(monkeypatch):
    # singleton components of the swap magma x.y = 1 - x: 0.0 = 1 leaves {0}
    monkeypatch.setattr(plonka, "connected_components",
                        lambda n, maps: SetPartition(n, tuple((v,) for v in range(n))))
    with pytest.raises(CrossCheckFailed, match="congruence class not closed"):
        plonka_partition(CayleyTable(2, ((1, 1), (0, 0))), "finest")


def test_structured_iso_assembly_failure_is_typed(monkeypatch):
    # block-local matches that do not intertwine: the reversal of each block
    monkeypatch.setattr(plonka, "_block_intertwiners",
                        lambda size, fams_a, fams_b: iter([tuple(range(size))[::-1]]))
    a = magma_from_function(FiniteFunction(2, (0, 0)))
    with pytest.raises(CrossCheckFailed, match="not an isomorphism"):
        structured_iso(a, a)


def test_bijectivize_unit_failure_is_typed(monkeypatch):
    # a result whose target is the identity, which the unit cannot intertwine
    real = plonka.BijectivizationResult
    monkeypatch.setattr(plonka, "BijectivizationResult", lambda target, unit: real(
        FiniteFunction(target.n, tuple(range(target.n))), unit))
    with pytest.raises(CrossCheckFailed, match="unit does not intertwine"):
        bijectivize(FiniteFunction(3, (1, 2, 0)))
