import itertools
import random

import pytest
from hypothesis import given, settings

from ybmag import (BiMagma, CayleyTable, FiniteFunction, FunctionFamily, IdealKind,
                   RMap, canonical_correspondence, decomposition_report,
                   flip_map, identity_rmap, ideals, is_incompressible,
                   is_simple, left_zero_table, lyubashenko_rmap,
                   magma_from_function, rees_quotient)
from ybmag.core import GuardExceeded, Limits
from ybmag.laws import MagmaLaw, check_magma_law
from ybmag.plonka import bi_plonka_partition, connected_components

from conftest import rmaps, stack_rows


def all_functions(n):
    for images in itertools.product(range(n), repeat=n):
        yield FiniteFunction(n, images)


def test_identity_every_subset_is_an_ideal():
    assert ideals(identity_rmap(2), IdealKind.RMAP_IDEAL) == [(0,), (1,), (0, 1)]


def test_flip_only_full_ideal():
    assert ideals(flip_map(3), IdealKind.RMAP_IDEAL) == [(0, 1, 2)]


def test_function_magma_right_ideals_are_invariant_subsets():
    for n in (1, 2, 3, 4):
        for f in all_functions(n):
            m = magma_from_function(f)
            found = set(ideals(m, IdealKind.MAGMA_RIGHT))
            expected = set()
            for mask in range(1, 1 << n):
                subset = tuple(x for x in range(n) if mask >> x & 1)
                if all(f(x) in subset for x in subset):
                    expected.add(subset)
            assert found == expected


def test_ideals_guard():
    with pytest.raises(GuardExceeded):
        ideals(identity_rmap(5), IdealKind.RMAP_IDEAL, Limits(subset_listing=4))


def test_simple_iff_full_ideal_listing_exhaustive_n2():
    n = 2
    for out in itertools.product(itertools.product(range(n), repeat=2), repeat=n * n):
        r = RMap(n, tuple(out))
        listed = ideals(r, IdealKind.RMAP_IDEAL)
        assert is_simple(r).holds == (listed == [tuple(range(n))])


@given(rmaps(max_n=6))
@settings(max_examples=200)
def test_simple_iff_full_ideal_listing_random(r):
    listed = ideals(r, IdealKind.RMAP_IDEAL)
    assert is_simple(r).holds == (listed == [tuple(range(r.n))])


def test_four_cycle_square_map_is_simple():
    f = FiniteFunction(4, (1, 2, 3, 0))
    assert is_simple(lyubashenko_rmap(f, f)).holds


def test_identity_not_simple_with_minimal_witness():
    v = is_simple(identity_rmap(2))
    assert not v.holds and v.witness.inputs == (0,)


def commuting_pairs(n):
    funcs = list(all_functions(n))
    for f in funcs:
        for g in funcs:
            if f.compose(g) == g.compose(f):
                yield f, g


def test_lyubashenko_simple_iff_incompressible_exhaustive():
    for n in (1, 2, 3, 4):
        for f, g in commuting_pairs(n):
            r = lyubashenko_rmap(f, g)
            fam = FunctionFamily(n, (f, g))
            assert is_simple(r).holds == is_incompressible(fam)


def test_lyubashenko_simple_iff_incompressible_sampled_n5():
    rng = random.Random(23)
    checked = 0
    while checked < 4000:
        f = FiniteFunction(5, tuple(rng.randrange(5) for _ in range(5)))
        g = FiniteFunction(5, tuple(rng.randrange(5) for _ in range(5)))
        if f.compose(g) != g.compose(f):
            continue
        checked += 1
        r = lyubashenko_rmap(f, g)
        assert is_simple(r).holds == is_incompressible(FunctionFamily(5, (f, g)))


# ---------------------------------------------------------------------------
# Rees quotients


def test_rees_collapse_everything():
    m = left_zero_table(3)
    q = rees_quotient(m, (0, 1, 2))
    assert q.n == 1


def test_rees_minimal_ideal_of_constant_function_magma():
    f = FiniteFunction(3, (0, 0, 0))
    m = magma_from_function(f)
    q = rees_quotient(m, (0,))
    assert q.n == 3  # classes {0}, {1}, {2}


def test_rees_rejects_non_two_sided():
    # {0, 1} is a right but not a left ideal of the left-zero magma
    with pytest.raises(ValueError):
        rees_quotient(left_zero_table(3), (0, 1))


def test_rees_quotient_multiplication():
    # x.y = f(x) with f = const 0: quotient by {0} keeps the same shape
    f = FiniteFunction(3, (0, 0, 0))
    q = rees_quotient(magma_from_function(f), (0,))
    assert q == magma_from_function(FiniteFunction(3, (0, 0, 0)))


# ---------------------------------------------------------------------------
# decomposition reports


def test_flip_report():
    rep = decomposition_report(flip_map(2))
    assert rep.finest_valid_partition.blocks == ((0,), (1,))
    assert not rep.biconnected
    assert not rep.ess_indecomposable


def test_ess_style_shift_is_biconnected():
    r = RMap.from_function(2, lambda x, y: ((y + 1) % 2, (x + 1) % 2))
    rep = decomposition_report(r)
    assert rep.biconnected
    assert rep.ess_indecomposable


def test_singleton_biconnected():
    rep = decomposition_report(identity_rmap(1))
    assert rep.biconnected and rep.ess_indecomposable


@given(rmaps(max_n=5))
@settings(max_examples=200)
def test_biconnected_implies_ess_indecomposable(r):
    rep = decomposition_report(r)
    if rep.biconnected:
        assert rep.ess_indecomposable
    # the finest valid partition is itself valid
    for block in rep.finest_valid_partition.blocks:
        members = set(block)
        for a in block:
            for b in block:
                u, v = r.apply(a, b)
                assert u in members and v in members


def test_two_part_guard_keeps_biconnected():
    r = identity_rmap(5)
    rep = decomposition_report(r, Limits(two_part_split=3))
    assert rep.ess_indecomposable is None
    assert not rep.biconnected


def test_biconnected_iff_connected_lyubashenko_pair(plonka_corpus):
    rng = random.Random(31)
    from ybmag.laws import lyubashenko_pair
    for b in rng.sample(plonka_corpus, 400):
        r = canonical_correspondence(b)
        rep = decomposition_report(r)
        coarse = bi_plonka_partition(b, "coarsest")
        if len(coarse.partition) > 1:
            assert not rep.biconnected
        else:
            pair = lyubashenko_pair(b)
            assert pair is not None
            f = FiniteFunction(b.n, pair[0])
            g = FiniteFunction(b.n, pair[1])
            connected = len(connected_components(b.n, [f, g])) == 1
            assert rep.biconnected == connected
    empty = CayleyTable(0, ())
    assert lyubashenko_pair(BiMagma(empty, empty)) == ((), ())
    f, g = (1, 0, 2), (0, 2, 1)  # x.y = f(x) and x*y = g(y), but fg != gf
    shaped = BiMagma(CayleyTable(3, tuple((v,) * 3 for v in f)), CayleyTable(3, (g,) * 3))
    assert lyubashenko_pair(shaped) is None


# ---------------------------------------------------------------------------
# right-simple right Plonka magmas are the full-cycle function magmas


def test_right_simple_iff_full_cycle():
    from ybmag.census import _magma_raw_stream, CensusQuery
    from ybmag.core import DEFAULT_LIMITS
    for n in (1, 2, 3, 4):
        query = CensusQuery(n, (MagmaLaw.RIGHT_PLONKA,))
        for flat in stack_rows(_magma_raw_stream(query, DEFAULT_LIMITS)):
            m = CayleyTable(n, tuple(tuple(flat[i * n:(i + 1) * n]) for i in range(n)))
            right_simple = is_simple(m, IdealKind.MAGMA_RIGHT).holds
            cols = [FiniteFunction(n, m.column(y)) for y in range(n)]
            single_cycle = (len({c.images for c in cols}) == 1
                            and cols[0].is_bijective()
                            and len(connected_components(n, [cols[0]])) == 1)
            assert right_simple == single_cycle, m
