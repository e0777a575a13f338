import itertools
import random

import pytest
from hypothesis import given, settings

from ybmag import (BiMagma, CayleyTable, FiniteFunction, FunctionFamily, IdealKind,
                   OdometerSolution, OdometerTriple, RMap, RightPlonkaOppositeSolution,
                   Verdict, Witness, build_solution, canonical_correspondence,
                   cyclic_group_table, decomposition_report, element_closure,
                   flip_map, free_k_cyclic, identity_rmap, ideals, is_incompressible,
                   is_simple, left_zero_table, lyubashenko_rmap,
                   magma_from_function, rees_quotient)
from ybmag.core import VERDICT_OK, GuardExceeded, Limits
from ybmag.laws import MagmaLaw, check_magma_law
from ybmag.plonka import bi_plonka_partition, connected_components

from conftest import bimagmas, cayley_tables, rmaps, stack_rows


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


# ---------------------------------------------------------------------------
# every ideal kind against a brute force over subsets


def brute_force_ideals(structure, kind):
    """Every non-empty subset S with the products the kind names landing in
    S, read straight from the tables, sorted by size then lexicographically."""
    n = structure.n

    def products(a, y):
        if kind is IdealKind.RMAP_IDEAL:  # R(S x X) in S x X, R(X x S) in X x S
            return structure.apply(a, y)[0], structure.apply(y, a)[1]
        if kind is IdealKind.BIMAGMA_RIGHT_LEFT:  # S.X in S, X*S in S
            return structure.dot.apply(a, y), structure.star.apply(y, a)
        right, left = structure.apply(a, y), structure.apply(y, a)
        return {IdealKind.MAGMA_RIGHT: (right,), IdealKind.MAGMA_LEFT: (left,),
                IdealKind.MAGMA_TWO_SIDED: (right, left)}[kind]

    return [subset for size in range(1, n + 1)
            for subset in itertools.combinations(range(n), size)
            if all(set(products(a, y)) <= set(subset) for a in subset for y in range(n))]


def assert_matches_brute_force(structure, kind):
    listed = brute_force_ideals(structure, kind)
    assert ideals(structure, kind) == listed
    n = structure.n
    for x in range(n):
        least = tuple(sorted(set.intersection(*(set(s) for s in listed if x in s))))
        assert least in listed
        assert element_closure(structure, kind, x) == least
    proper = [s for s in listed if len(s) < n]
    expected = Verdict(False, Witness("proper_ideal", proper[0])) if proper else VERDICT_OK
    assert is_simple(structure, kind) == expected


@given(cayley_tables(max_n=4))
@settings(max_examples=150)
def test_magma_ideal_kinds_match_brute_force(m):
    for kind in (IdealKind.MAGMA_RIGHT, IdealKind.MAGMA_LEFT, IdealKind.MAGMA_TWO_SIDED):
        assert_matches_brute_force(m, kind)


@given(bimagmas(max_n=4))
@settings(max_examples=150)
def test_bimagma_ideals_match_brute_force(b):
    assert_matches_brute_force(b, IdealKind.BIMAGMA_RIGHT_LEFT)


@given(rmaps(max_n=4))
@settings(max_examples=150)
def test_rmap_ideals_match_brute_force_and_their_bimagma(r):
    assert_matches_brute_force(r, IdealKind.RMAP_IDEAL)
    b = canonical_correspondence(r)
    assert ideals(r, IdealKind.RMAP_IDEAL) == ideals(b, IdealKind.BIMAGMA_RIGHT_LEFT)
    for x in range(r.n):
        assert (element_closure(r, IdealKind.RMAP_IDEAL, x)
                == element_closure(b, IdealKind.BIMAGMA_RIGHT_LEFT, x))
    assert is_simple(r) == is_simple(b, IdealKind.BIMAGMA_RIGHT_LEFT)


def test_element_closure_rejects_seed_outside_carrier():
    for seed in (-1, 3):
        with pytest.raises(ValueError, match=r"0\.\.2"):
            element_closure(cyclic_group_table(3), IdealKind.MAGMA_RIGHT, seed)


def test_ideal_kind_needs_its_structure():
    with pytest.raises(TypeError, match="rmap_ideal needs a RMap"):
        is_simple(cyclic_group_table(3))
    with pytest.raises(TypeError, match="magma_right needs a CayleyTable"):
        ideals(identity_rmap(2), IdealKind.MAGMA_RIGHT)


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


def test_rees_rejects_elements_outside_carrier():
    for ideal in ((3,), (-1,), (0, 1, 2, 3)):
        with pytest.raises(ValueError, match=r"0\.\.2"):
            rees_quotient(left_zero_table(3), ideal)


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
# the block-grouping split search against the search of every point subset


def _point_subset_report(r: RMap):
    """(blocks, biconnected, ess_indecomposable) by the search of every
    subset of points: the finest partition closed on squares by merging
    labels, and a split wherever a subset and its complement are both
    closed on their squares.  2**(n-1) subsets, so only for n <= 16."""
    n = r.n
    label = list(range(n))
    changed = True
    while changed:
        changed = False
        for a, b in itertools.product(range(n), repeat=2):
            for w in r.apply(a, b) if label[a] == label[b] else ():
                if label[w] != label[a]:
                    label = [label[a] if v == label[w] else v for v in label]
                    changed = True
    blocks = sorted(tuple(x for x in range(n) if label[x] == v) for v in set(label))

    def closed(mask):
        members = [x for x in range(n) if mask >> x & 1]
        return all(mask >> w & 1 for a in members for b in members for w in r.apply(a, b))
    full = (1 << n) - 1
    ess = not any(closed(mask) and closed(full ^ mask) for mask in range(1, 1 << n >> 1))
    return tuple(blocks), len(blocks) == 1, ess


def _report(r: RMap, limits: Limits = Limits()):
    rep = decomposition_report(r, limits)
    return rep.finest_valid_partition.blocks, rep.biconnected, rep.ess_indecomposable


def _planted_blocks(rng: random.Random, sizes, local: float) -> RMap:
    """An R-map whose finest blocks are consecutive runs of the given sizes:
    on a block's square R(a, b) is (the next point of the block, a random
    one), which merges the block and stays in it; a pair across two blocks
    goes into their union with probability ``local``, else anywhere."""
    n = sum(sizes)
    block = [i for i, size in enumerate(sizes) for _ in range(size)]
    members = [[x for x in range(n) if block[x] == i] for i in range(len(sizes))]
    out = []
    for a, b in itertools.product(range(n), repeat=2):
        if block[a] == block[b]:
            run = members[block[a]]
            out.append((run[(run.index(a) + 1) % len(run)], rng.choice(run)))
        else:
            pool = members[block[a]] + members[block[b]] if rng.random() < local else range(n)
            out.append((rng.choice(pool), rng.choice(pool)))
    return RMap(n, tuple(out))


def test_split_search_matches_point_subsets_on_two_points():
    for cells in itertools.product(itertools.product(range(2), repeat=2), repeat=4):
        r = RMap(2, cells)
        assert _report(r) == _point_subset_report(r), r


def test_split_search_matches_point_subsets_on_random_rmaps():
    rng = random.Random(22)
    for n in range(3, 8):
        for _ in range(60):
            r = RMap(n, tuple((rng.randrange(n), rng.randrange(n)) for _ in range(n * n)))
            assert _report(r) == _point_subset_report(r), r


def test_split_search_matches_point_subsets_on_planted_blocks():
    rng = random.Random(23)
    kinds = set()
    for k in (2, 3, 4):
        for _ in range(120):
            sizes = [rng.randint(1, 3) for _ in range(k)]
            r = _planted_blocks(rng, sizes, rng.choice((0.5, 0.8, 0.95)))
            expected = _point_subset_report(r)
            assert _report(r) == expected, r
            assert len(expected[0]) == k
            kinds.add((k, expected[2]))
    # two blocks are always a split; from three on, some pair of blocks may
    # reach a third, so both answers occur
    assert kinds == {(2, False), (3, False), (3, True), (4, False), (4, True)}


def test_split_search_matches_point_subsets_on_builders():
    structures = [build_solution(RightPlonkaOppositeSolution(free_k_cyclic(*spec).table))
                  for spec in ((1, 5, False), (2, 2, True), (2, 2, False), (2, 3, True),
                               (2, 4, True), (2, 5, True), (3, 2, True))]
    structures += [build_solution(OdometerSolution(OdometerTriple(m, n, d)))
                   for m in range(1, 9) for n in range(1, 9 // m + 1) for d in range(1, m + 1)]
    structures += [build_solution(OdometerSolution(OdometerTriple(*t)))
                   for t in ((3, 4, 2), (4, 3, 3), (4, 4, 1), (2, 8, 2), (16, 1, 5), (1, 16, 1))]
    for r in structures:
        assert _report(r) == _point_subset_report(r), r


@given(rmaps(max_n=6))
@settings(max_examples=200)
def test_split_search_matches_point_subsets_property(r):
    assert _report(r) == _point_subset_report(r)


def test_split_search_counts_blocks_above_sixteen_points():
    odometer = decomposition_report(build_solution(OdometerSolution(OdometerTriple(6, 3, 1))))
    assert odometer.finest_valid_partition.n == 18
    assert odometer.biconnected and odometer.ess_indecomposable is True
    for r in (identity_rmap(17), flip_map(17)):   # 17 singleton blocks
        assert decomposition_report(r).ess_indecomposable is None
    rng = random.Random(24)
    answers = set()
    for k in (1, 2, 3, 4, 5):
        for _ in range(6):
            sizes = [rng.randint(1, 20 // k) for _ in range(k)]
            sizes[0] += max(0, 17 - sum(sizes))   # above 16 points
            r = _planted_blocks(rng, sizes, rng.choice((0.5, 0.95)))
            assert decomposition_report(r, Limits(two_part_split=k - 1)).ess_indecomposable is None
            rep = decomposition_report(r, Limits(two_part_split=k))
            assert len(rep.finest_valid_partition) == k and rep.biconnected == (k == 1)
            assert rep.ess_indecomposable in (True, False)
            answers.add((k > 1, rep.ess_indecomposable))
    assert answers == {(False, True), (True, False), (True, True)}


# ---------------------------------------------------------------------------
# right-simple right Plonka magmas are the full-cycle function magmas


def test_right_simple_iff_full_cycle():
    from ybmag.census import _raw_stream, CensusQuery
    from ybmag.core import DEFAULT_LIMITS
    for n in (1, 2, 3, 4):
        query = CensusQuery(n, (MagmaLaw.RIGHT_PLONKA,))
        for flat in stack_rows(_raw_stream(query, DEFAULT_LIMITS)):
            m = CayleyTable(n, tuple(tuple(flat[i * n:(i + 1) * n]) for i in range(n)))
            right_simple = is_simple(m, IdealKind.MAGMA_RIGHT).holds
            cols = [FiniteFunction(n, m.column(y)) for y in range(n)]
            single_cycle = (len({c.images for c in cols}) == 1
                            and cols[0].is_bijective()
                            and len(connected_components(n, [cols[0]])) == 1)
            assert right_simple == single_cycle, m
