import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings

from ybmag import (BiMagma, BiMagmaLaw, CayleyTable, CensusQuery, FiniteFunction, MagmaLaw,
                   RMap, RMapLaw, canonical_correspondence, check_bimagma_law,
                   check_magma_law, check_rmap_law, cyclic_group_table,
                   flip_map, free_k_cyclic, identity_rmap, left_zero_table,
                   lyubashenko_rmap, magma_from_function, right_zero_table, trivial_bimagma)
from ybmag import laws
from ybmag.build import (EssSolution, OdometerSolution, RightPlonkaOppositeSolution,
                         build_solution)
from ybmag.families import OdometerTriple
from ybmag.census import _raw_stream
from ybmag.core import DEFAULT_LIMITS
from ybmag.laws import BATCH_LAWS, check_laws_batch

import law_oracles
from conftest import cayley_tables, rmaps, stack_rows
from law_oracles import BIMAGMA_ORACLES, MAGMA_ORACLES, RMAP_ORACLES


def all_tables(n):
    for cells in itertools.product(range(n), repeat=n * n):
        yield CayleyTable(n, tuple(tuple(cells[i * n:(i + 1) * n]) for i in range(n)))


# ---------------------------------------------------------------------------
# R-map laws


def test_flip_solves_yang_baxter():
    assert check_rmap_law(flip_map(3), RMapLaw.YANG_BAXTER).holds


def test_flip_fails_long():
    v = check_rmap_law(flip_map(2), RMapLaw.LONG)
    assert not v.holds
    assert v.witness.inputs == (0, 0, 1)


def test_identity_solves_bls():
    assert check_rmap_law(identity_rmap(4), RMapLaw.BLS).holds


def test_ess_is_a_braid_solution():
    # the displayed affine form solves the braid equation; its flip
    # composite is the Yang-Baxter version
    r = build_solution(EssSolution(3, 1, 0))
    assert check_rmap_law(r, RMapLaw.BRAID).holds
    assert not check_rmap_law(r, RMapLaw.YANG_BAXTER).holds
    flipped = flip_map(3).compose(r)
    assert check_rmap_law(flipped, RMapLaw.YANG_BAXTER).holds


def test_unitary_reports_non_bijectivity_separately():
    r = lyubashenko_rmap(FiniteFunction(2, (0, 0)), FiniteFunction(2, (0, 1)))
    v = check_rmap_law(r, RMapLaw.UNITARY)
    assert not v.holds and v.witness.kind == "not_bijective"


def test_unitary_flip():
    assert check_rmap_law(flip_map(4), RMapLaw.UNITARY).holds
    assert check_rmap_law(flip_map(4), RMapLaw.INVOLUTIVE).holds


def test_nondegeneracy_variants():
    # flip: x.y = y is bijective in y (left-right holds) but constant in x
    # (right-left fails); the identity map is the mirror case
    assert check_rmap_law(flip_map(3), RMapLaw.LEFT_RIGHT_NONDEGENERATE).holds
    assert not check_rmap_law(flip_map(3), RMapLaw.RIGHT_LEFT_NONDEGENERATE).holds
    assert not check_rmap_law(identity_rmap(2), RMapLaw.LEFT_RIGHT_NONDEGENERATE).holds
    assert check_rmap_law(identity_rmap(2), RMapLaw.RIGHT_LEFT_NONDEGENERATE).holds


def _nondegenerate_loop(r, left_right):
    """The reference: a double loop over R itself, first the dot's left (or
    right) translations, then the star's right (or left) ones."""
    n = r.n
    for a in range(n):
        seen = {}
        for x in range(n):
            v = r.apply(a, x)[0] if left_right else r.apply(x, a)[0]
            if v in seen:
                kind = "dot_left_translation" if left_right else "dot_right_translation"
                return laws.Witness(kind, (a, seen[v], x), v, v)
            seen[v] = x
    for a in range(n):
        seen = {}
        for x in range(n):
            v = r.apply(x, a)[1] if left_right else r.apply(a, x)[1]
            if v in seen:
                kind = "star_right_translation" if left_right else "star_left_translation"
                return laws.Witness(kind, (a, seen[v], x), v, v)
            seen[v] = x
    return None


def test_nondegenerate_witnesses_match_double_loop():
    # every R-map on 2 points, and seeded affine maps on 3-5 points (rows or
    # columns bijective when a coefficient is a unit), half with one planted cell
    rng = random.Random(18)
    cells2 = list(itertools.product(range(2), repeat=2))
    maps = [RMap(2, out) for out in itertools.product(cells2, repeat=4)]
    for n in (3, 4, 5):
        for _ in range(300):
            a, b, c, d, e = (rng.randrange(n) for _ in range(5))
            out = [((a * x + b * y) % n, (c * x + d * y + e) % n) for x in range(n) for y in range(n)]
            if rng.random() < 0.5:
                out[rng.randrange(n * n)] = (rng.randrange(n), rng.randrange(n))
            maps.append(RMap(n, tuple(out)))
    kinds = set()
    for r in maps:
        for law, left_right in ((RMapLaw.LEFT_RIGHT_NONDEGENERATE, True),
                                (RMapLaw.RIGHT_LEFT_NONDEGENERATE, False)):
            w = check_rmap_law(r, law).witness
            assert w == _nondegenerate_loop(r, left_right), (r, law)
            kinds.add(w and w.kind)
    assert kinds == {None, "dot_left_translation", "dot_right_translation",
                     "star_left_translation", "star_right_translation"}


def test_pair_law_witnesses_match_loops():
    # every R-map on 2 points, and seeded maps on 3-5 points: random ones,
    # permutations of the pairs, flip-like (s(y), t(x)) and Lyubashenko
    # (f(x), g(y)) ones with the second map often the first's inverse or the
    # first itself, half with one planted cell
    rng = random.Random(19)
    cells2 = list(itertools.product(range(2), repeat=2))
    maps = [RMap(2, out) for out in itertools.product(cells2, repeat=4)]
    for n in (3, 4, 5):
        cells = list(itertools.product(range(n), repeat=2))
        for _ in range(300):
            s = rng.sample(range(n), n)
            t = rng.choice((sorted(range(n), key=s.__getitem__), s,
                            [rng.randrange(n) for _ in range(n)]))
            shape = rng.randrange(4)
            if shape == 0:
                out = [rng.choice(cells) for _ in range(n * n)]
            elif shape == 1:
                out = rng.sample(cells, n * n)
            else:
                out = [(s[y], t[x]) if shape == 2 else (s[x], t[y]) for x, y in cells]
            if rng.random() < 0.5:
                out[rng.randrange(n * n)] = rng.choice(cells)
            maps.append(RMap(n, tuple(out)))
    kinds = {RMapLaw.INVOLUTIVE: set(), RMapLaw.UNITARY: set()}
    for r in maps:
        for law, loop in ((RMapLaw.INVOLUTIVE, law_oracles.involutive),
                          (RMapLaw.UNITARY, law_oracles.unitary)):
            w = check_rmap_law(r, law).witness
            assert w == loop(r), (r, law)
            kinds[law].add(w and w.kind)
    assert kinds == {RMapLaw.INVOLUTIVE: {None, "involutive"},
                     RMapLaw.UNITARY: {None, "not_bijective", "unitary"}}


@given(rmaps(max_n=3))
@settings(max_examples=150)
def test_braid_iff_flip_composed_yang_baxter(r):
    flipped = flip_map(r.n).compose(r)
    assert check_rmap_law(r, RMapLaw.BRAID).holds == \
        check_rmap_law(flipped, RMapLaw.YANG_BAXTER).holds


@given(rmaps(max_n=3))
@settings(max_examples=100)
def test_witness_iff_failing(r):
    for law in RMapLaw:
        v = check_rmap_law(r, law)
        assert v.holds == (v.witness is None)


def _bls_failures(r, triple):
    """The BLS pieces that fail at one triple, as a loop of its own: the
    commutative, cocommutative and long pieces in turn; lifts apply R to two
    slots."""
    n, out = r.n, r.out

    def lift12(a, b, c):
        u, v = out[a * n + b]
        return (u, v, c)

    def lift23(a, b, c):
        u, v = out[b * n + c]
        return (a, u, v)

    def lift13(a, b, c):
        u, v = out[a * n + c]
        return (u, b, v)

    pieces = [("commutative", (lift13, lift12), (lift12, lift13)),
              ("cocommutative", (lift23, lift13), (lift13, lift23)),
              ("long", (lift23, lift12), (lift12, lift23))]
    failures = []
    for kind, lhs_chain, rhs_chain in pieces:
        lhs = rhs = triple
        for step in lhs_chain:
            lhs = step(*lhs)
        for step in rhs_chain:
            rhs = step(*rhs)
        if lhs != rhs:
            failures.append((f"bls:{kind}", triple, lhs, rhs))
    return failures


def _bls_oracle(r):
    """The first failing BLS piece at the first failing triple, or None."""
    for triple in itertools.product(range(r.n), repeat=3):
        failures = _bls_failures(r, triple)
        if failures:
            return failures[0]
    return None


def test_bls_witness_matches_loop_oracle():
    # every R-map on 2 points and a seeded sample on 3, plus the lawful
    # correspondents of the trivial bi-magma on 3 points
    rng = random.Random(5)
    cells2 = list(itertools.product(range(2), repeat=2))
    cells3 = list(itertools.product(range(3), repeat=2))
    maps = [RMap(2, out) for out in itertools.product(cells2, repeat=4)]
    maps += [RMap(3, tuple(rng.choice(cells3) for _ in range(9))) for _ in range(2000)]
    maps.append(canonical_correspondence(trivial_bimagma(3)))
    kinds = set()
    for r in maps:
        v = check_rmap_law(r, RMapLaw.BLS)
        w = v.witness
        got = None if v.holds else (w.kind, w.inputs, w.lhs, w.rhs)
        assert got == _bls_oracle(r), r
        kinds.add(got and got[0])
    assert kinds == {None, "bls:commutative", "bls:cocommutative", "bls:long"}


def _plant(r, rng):
    """``r`` with one cell of its last row replaced by another pair."""
    n, out = r.n, list(r.out)
    cell = (n - 1) * n + rng.randrange(n)
    out[cell] = rng.choice([(u, v) for u in range(n) for v in range(n) if (u, v) != out[cell]])
    return RMap(n, tuple(out))


def _planted_table(m, rng, last_row=False):
    """``m`` with one cell, anywhere or in its last row, set to another value."""
    n, cells = m.n, list(m.flat())
    cell = (n - 1) * n + rng.randrange(n) if last_row else rng.randrange(n * n)
    cells[cell] = rng.choice([v for v in range(n) if v != cells[cell]])
    return CayleyTable.from_flat(n, cells)


def _oracle_corpus():
    """Magmas and R-maps on 0-30 points, so that on the large ones a first
    failure can lie beyond the first slab: random tables on 0-5 points;
    free k-cyclic magmas, lawful tables on 24-30 points and random ones on
    26, each with copies with one planted cell; every 4th R-map on 2 points
    and seeded ones on 3-5 points (random, pair permutations, flip-like,
    Lyubashenko); odometer, ESS, right-Plonka-opposite and identity R-maps
    with copies planted in their last row, and random R-maps on 24-30
    points.  The R-maps' bi-magmas are checked too."""
    rng = random.Random(2020)
    magmas = [CayleyTable.from_flat(n, [rng.randrange(n) for _ in range(n * n)])
              for n in range(6) for _ in range(60 if n else 1)]
    lawful = [free_k_cyclic(g, k, idempotent).table
              for g, k, idempotent in ((2, 2, True), (2, 3, True), (1, 3, True), (3, 2, True),
                                       (2, 3, False), (3, 2, False), (3, 3, True))]
    for n in (24, 25, 30):
        f = FiniteFunction(n, tuple(rng.randrange(n) for _ in range(n)))
        lawful += [left_zero_table(n), right_zero_table(n), cyclic_group_table(n),
                   magma_from_function(f), magma_from_function(f).opposite()]
    for _ in range(5):
        right = magma_from_function(FiniteFunction(26, tuple(rng.randrange(26) for _ in range(26))))
        lawful += [right, right.opposite()]
    magmas += lawful + [_planted_table(m, rng, last_row) for m in lawful if m.n > 1
                        for last_row in (False, True)]
    magmas += [CayleyTable.from_flat(26, [rng.randrange(26) for _ in range(26 * 26)])
               for _ in range(5)]

    cells2 = list(itertools.product(range(2), repeat=2))
    maps = [RMap(2, out) for out in itertools.product(cells2, repeat=4)][::4]
    for n in (3, 4, 5):
        cells = list(itertools.product(range(n), repeat=2))
        for _ in range(60):
            s = rng.sample(range(n), n)
            t = rng.choice((sorted(range(n), key=s.__getitem__), s,
                            [rng.randrange(n) for _ in range(n)]))
            shape = rng.randrange(4)
            if shape == 0:
                out = [rng.choice(cells) for _ in range(n * n)]
            elif shape == 1:
                out = rng.sample(cells, n * n)
            else:
                out = [(s[y], t[x]) if shape == 2 else (s[x], t[y]) for x, y in cells]
            maps.append(RMap(n, tuple(out)))
    built = [build_solution(RightPlonkaOppositeSolution(free_k_cyclic(3, 2, False).table)),
             build_solution(RightPlonkaOppositeSolution(free_k_cyclic(3, 3, True).table)),
             build_solution(OdometerSolution(OdometerTriple(2, 3, 1))),
             build_solution(OdometerSolution(OdometerTriple(4, 6, 3))),
             build_solution(OdometerSolution(OdometerTriple(5, 5, 2))),
             build_solution(OdometerSolution(OdometerTriple(5, 6, 4))),
             build_solution(EssSolution(5, 1, 0)), build_solution(EssSolution(7, 2, 3))]
    built += [identity_rmap(n) for n in (24, 25, 30)]
    maps += built + [_plant(r, rng) for r in built]
    maps += [RMap(n, tuple((rng.randrange(n), rng.randrange(n)) for _ in range(n * n)))
             for n in (24, 25, 30)]
    # the identity on 24 points with one planted cell in its last row
    out = list(identity_rmap(24).out)
    out[23 * 24 + 5] = (0, 0)
    maps.append(RMap(24, tuple(out)))
    return magmas, maps


def test_every_law_matches_its_reference_loop():
    # every equational law's verdict and witness, with plain-int sides,
    # against the reference loops of law_oracles
    magmas, maps = _oracle_corpus()
    kinds = {law: set() for law in (*MAGMA_ORACLES, *BIMAGMA_ORACLES, *RMAP_ORACLES)}
    late, shared = set(), 0

    def compare(law, n, got, expected):
        assert repr(got.witness) == repr(expected), (n, law)
        kinds[law].add(expected and expected.kind)
        if expected is not None and len(expected.inputs) == 3 and \
                expected.inputs[0] >= laws._SLAB_TRIPLES // (n * n):
            late.add(n)

    for m in magmas:
        for law, oracle in MAGMA_ORACLES.items():
            for k in ((1, 2, 3, 4) if law is MagmaLaw.K_CYCLIC else (None,)):
                compare(law, m.n, check_magma_law(m, law, k), oracle(m.table, k))
    for r in maps:
        b = canonical_correspondence(r)
        for law, oracle in BIMAGMA_ORACLES.items():
            compare(law, r.n, check_bimagma_law(b, law), oracle(b.dot.table, b.star.table))
        for law, oracle in RMAP_ORACLES.items():
            v = check_rmap_law(r, law)
            compare(law, r.n, v, oracle(r))
            if law is RMapLaw.BLS and not v.holds:
                w = v.witness
                failures = _bls_failures(r, w.inputs)
                assert failures[0] == (w.kind, w.inputs, w.lhs, w.rhs)
                shared += len(failures) > 1
    # every law meets both verdicts and every witness kind; on every carrier
    # from 24 points some first failing triple lies beyond the first slab,
    # and some BLS witnesses fail more than one piece
    assert all(None in seen and len(seen) > 1 for seen in kinds.values())
    assert set().union(*kinds.values()) - {None} == {
        "right_commutation", "right_reduction", "left_commutation", "left_reduction", "band",
        "k_cyclic[1]", "k_cyclic[2]", "k_cyclic[3]", "k_cyclic[4]", "left_involutory",
        "associative", "commutative", "dot_right_commutation", "dot_right_reduction",
        "star_left_commutation", "star_left_reduction", "mixed_star_dot", "mixed_dot_in_star",
        "mixed_star_in_dot", "unitary_pairing", "yb1", "yb2", "yb3", "yang_baxter", "braid",
        "long", "commutative", "cocommutative", "bls:commutative", "bls:cocommutative",
        "bls:long", "involutive", "unitary", "not_bijective", "diagonal"}
    assert late >= {24, 25, 26, 30} and shared


TRIPLE_LAWS = (RMapLaw.YANG_BAXTER, RMapLaw.BRAID, RMapLaw.LONG, RMapLaw.COMMUTATIVE,
               RMapLaw.COCOMMUTATIVE, RMapLaw.BLS)


def test_rmap_vectorised_witnesses_match_loop():
    # lawful builder maps (Yang-Baxter and BLS hold on each), the same maps
    # with one planted cell, and seeded random maps, on both sides of the
    # slab boundaries: the array evaluator's verdicts against the reference
    # loops of law_oracles
    rng = random.Random(8)
    lawful = [build_solution(RightPlonkaOppositeSolution(free_k_cyclic(3, 2, False).table)),
              build_solution(RightPlonkaOppositeSolution(free_k_cyclic(3, 3, True).table)),
              build_solution(OdometerSolution(OdometerTriple(4, 6, 3))),
              build_solution(OdometerSolution(OdometerTriple(5, 5, 2))),
              build_solution(OdometerSolution(OdometerTriple(5, 6, 4)))]
    lawful += [identity_rmap(n) for n in (24, 25, 30)]
    assert all(check_rmap_law(r, law).holds
               for r in lawful for law in (RMapLaw.YANG_BAXTER, RMapLaw.BLS))
    maps = lawful + [_plant(r, rng) for r in lawful]
    maps += [RMap(n, tuple((rng.randrange(n), rng.randrange(n)) for _ in range(n * n)))
             for n in (24, 25, 30)]
    late, shared = set(), 0
    for r in maps:
        for law in TRIPLE_LAWS:
            v = check_rmap_law(r, law)
            assert repr(v.witness) == repr(RMAP_ORACLES[law](r)), (r.n, law)
            w = v.witness
            if w is None:
                continue
            if w.inputs[0] >= laws._SLAB_TRIPLES // (r.n * r.n):
                late.add(r.n)
            if law is RMapLaw.BLS:
                failures = _bls_failures(r, w.inputs)
                assert failures[0] == (w.kind, w.inputs, w.lhs, w.rhs)
                shared += len(failures) > 1
    # on every tested carrier some first failure lies beyond the first slab,
    # and some BLS witnesses fail more than one piece
    assert late >= {24, 25, 30} and shared


# ---------------------------------------------------------------------------
# magma laws


def test_left_zero_is_right_plonka():
    assert check_magma_law(left_zero_table(3), MagmaLaw.RIGHT_PLONKA).holds


def test_involution_function_magma():
    swap = FiniteFunction(2, (1, 0))
    assert check_magma_law(magma_from_function(swap), MagmaLaw.RIGHT_INVOLUTORY).holds
    const = FiniteFunction(2, (0, 0))
    assert not check_magma_law(magma_from_function(const), MagmaLaw.RIGHT_INVOLUTORY).holds


def test_addition_mod_2_is_not_right_plonka():
    v = check_magma_law(cyclic_group_table(2), MagmaLaw.RIGHT_PLONKA)
    assert not v.holds
    assert v.witness.kind == "right_reduction"
    # re-evaluate the reported equation
    x, y, z = v.witness.inputs
    t = cyclic_group_table(2).table
    assert t[x][t[y][z]] != t[x][y]


def test_total_law():
    assert check_magma_law(cyclic_group_table(3), MagmaLaw.TOTAL).holds
    v = check_magma_law(magma_from_function(FiniteFunction(2, (0, 0))), MagmaLaw.TOTAL)
    assert not v.holds and v.witness.inputs == (1,)


def test_quasigroup_laws():
    z3 = cyclic_group_table(3)
    for law in (MagmaLaw.LEFT_CANCELLATIVE, MagmaLaw.RIGHT_CANCELLATIVE,
                MagmaLaw.LEFT_QUASIGROUP, MagmaLaw.RIGHT_QUASIGROUP):
        assert check_magma_law(z3, law).holds
    lz = left_zero_table(2)
    assert check_magma_law(lz, MagmaLaw.RIGHT_CANCELLATIVE).holds
    assert not check_magma_law(lz, MagmaLaw.LEFT_CANCELLATIVE).holds


def test_right_injective_witnesses_match_a_column_loop():
    def column_loop(t, kind):
        # scan column a top to bottom; the first repeated value is the witness
        for a in range(len(t)):
            seen = {}
            for x in range(len(t)):
                v = t[x][a]
                if v in seen:
                    return laws.Witness(kind, (a, seen[v], x), v, v)
                seen[v] = x
        return None

    rng = random.Random(23)
    for _ in range(500):
        n = rng.randint(0, 5)
        # columns are permutations, then half the tables get one cell overwritten
        columns = [rng.sample(range(n), n) for _ in range(n)]
        cells = [[columns[y][x] for y in range(n)] for x in range(n)]
        if n and rng.random() < 0.5:
            cells[rng.randrange(n)][rng.randrange(n)] = rng.randrange(n)
        m = CayleyTable(n, tuple(map(tuple, cells)))
        for law in (MagmaLaw.RIGHT_CANCELLATIVE, MagmaLaw.RIGHT_QUASIGROUP):
            assert check_magma_law(m, law).witness == column_loop(m.table, law.value)


def test_k_cyclic_needs_k():
    # k is exactly an int >= 1: True would name the law k_cyclic[True]
    for k in (None, 0, True, 2.0):
        with pytest.raises(ValueError):
            check_magma_law(left_zero_table(2), MagmaLaw.K_CYCLIC, k)
    with pytest.raises(ValueError):
        check_magma_law(left_zero_table(2), MagmaLaw.BAND, k=2)


def test_k_cyclic_takes_huge_k():
    # powers are taken by repeated squaring: each translation of Z/3 has
    # order 3, so k = 3 * 10**17 holds and one more step fails as k = 1 does
    z3 = cyclic_group_table(3)
    k = 3 * 10**17
    assert check_magma_law(z3, MagmaLaw.K_CYCLIC, k).holds
    one, more = (check_magma_law(z3, MagmaLaw.K_CYCLIC, j).witness for j in (1, k + 1))
    assert more == laws.Witness(f"k_cyclic[{k + 1}]", one.inputs, one.lhs, one.rhs)
    assert one == laws.Witness("k_cyclic[1]", (0, 1), 1, 0)
    stack = np.array(z3.flat(), dtype=np.uint8).reshape(1, 1, 3, 3)
    assert check_laws_batch(stack, (MagmaLaw.K_CYCLIC,), k).tolist() == [True]
    assert check_laws_batch(stack, (MagmaLaw.K_CYCLIC,), k + 1).tolist() == [False]


def test_two_cyclic_equals_conjunction_exhaustively():
    for n in (1, 2, 3):
        for table in all_tables(n):
            expected = (check_magma_law(table, MagmaLaw.RIGHT_PLONKA).holds
                        and check_magma_law(table, MagmaLaw.BAND).holds
                        and check_magma_law(table, MagmaLaw.RIGHT_INVOLUTORY).holds)
            assert check_magma_law(table, MagmaLaw.TWO_CYCLIC).holds == expected


@given(cayley_tables(max_n=4))
@settings(max_examples=80)
def test_left_right_plonka_opposite(m):
    assert check_magma_law(m, MagmaLaw.LEFT_PLONKA).holds == \
        check_magma_law(m.opposite(), MagmaLaw.RIGHT_PLONKA).holds


def test_vectorised_witnesses_reevaluate():
    # on 26 points the reported witness must still satisfy
    # the law's defining inequality on the original table
    rng = random.Random(5)
    for _ in range(50):
        n = 26
        rows = tuple(tuple(rng.randrange(n) for _ in range(n)) for _ in range(n))
        t = CayleyTable(n, rows)
        for law in (MagmaLaw.RIGHT_PLONKA, MagmaLaw.LEFT_PLONKA):
            v = check_magma_law(t, law)
            assert not v.holds
            x, y, z = v.witness.inputs
            tab = t.table
            if v.witness.kind == "right_commutation":
                assert (tab[tab[x][y]][z], tab[tab[x][z]][y]) == (v.witness.lhs, v.witness.rhs)
            elif v.witness.kind == "right_reduction":
                assert (tab[x][tab[y][z]], tab[x][y]) == (v.witness.lhs, v.witness.rhs)
            elif v.witness.kind == "left_commutation":
                assert (tab[x][tab[y][z]], tab[y][tab[x][z]]) == (v.witness.lhs, v.witness.rhs)
            else:
                assert (tab[tab[x][y]][z], tab[y][z]) == (v.witness.lhs, v.witness.rhs)
            assert v.witness.lhs != v.witness.rhs


def test_plonka_vectorised_witnesses_match_loop():
    # random tables, and lawful ones (x.y = f(x) and its opposite) with one
    # planted cell, at 26 points: the array evaluator's verdicts against the
    # reference loops of law_oracles
    rng = random.Random(9)
    n = 26
    tables = [CayleyTable.from_flat(n, [rng.randrange(n) for _ in range(n * n)])
              for _ in range(20)]
    for _ in range(20):
        right = magma_from_function(FiniteFunction(n, tuple(rng.randrange(n) for _ in range(n))))
        for lawful in (right, right.opposite()):
            cells = list(lawful.flat())
            cells[rng.randrange(n * n)] = rng.randrange(n)
            tables.append(CayleyTable.from_flat(n, cells))
    kinds = set()
    for t in tables:
        for law in (MagmaLaw.RIGHT_PLONKA, MagmaLaw.LEFT_PLONKA):
            v = check_magma_law(t, law)
            assert repr(v.witness) == repr(MAGMA_ORACLES[law](t.table, None)), law
            kinds.add(v.witness and v.witness.kind)
    assert kinds == {None, "right_commutation", "right_reduction",
                     "left_commutation", "left_reduction"}


def test_numpy_path_matches_loop_path():
    # a small table and its 30-point padding agree on right Plonka
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(1, 6)
        rows = tuple(tuple(rng.randrange(n) for _ in range(n)) for _ in range(n))
        small = CayleyTable(n, rows)
        # embed into a 30-point carrier as a direct sum with left-zero padding
        big_n = 30
        big_rows = []
        for x in range(big_n):
            row = []
            for y in range(big_n):
                if x < n and y < n:
                    row.append(rows[x][y])
                else:
                    row.append(x)
            big_rows.append(tuple(row))
        big = CayleyTable(big_n, tuple(big_rows))
        small_holds = check_magma_law(small, MagmaLaw.RIGHT_PLONKA).holds
        big_holds = check_magma_law(big, MagmaLaw.RIGHT_PLONKA).holds
        if small_holds:
            assert big_holds  # padding is itself right Plonka and absorbing
        else:
            assert not big_holds


# ---------------------------------------------------------------------------
# bi-magma laws


def _batch_corpus(n, rng):
    """Seeded tables on n points: random ones, ones that satisfy the right
    reduction law (columns constant on the blocks of a partition, each
    mapping every block into itself), ones whose columns commute (powers of
    one map), and ones whose columns are permutations of order 2 or 3."""
    def table(columns):
        return CayleyTable.from_columns(n, columns)
    perms = list(itertools.permutations(range(n)))
    order_dividing = {k: [p for p in perms if _power(p, k) == tuple(range(n))] for k in (2, 3)}
    out = [CayleyTable.from_flat(n, [rng.randrange(n) for _ in range(n * n)])
           for _ in range(300)]
    for _ in range(150):
        block = [rng.randrange(n) for _ in range(n)]
        maps = [tuple(rng.choice([y for y in range(n) if block[y] == block[x]])
                      for x in range(n)) for _ in range(n)]
        out.append(table([maps[block[y]] for y in range(n)]))
        f = tuple(rng.randrange(n) for _ in range(n))
        out.append(table([_power(f, rng.randrange(4)) for _ in range(n)]))
    for _ in range(100):
        pool = order_dividing[rng.choice((2, 3))]
        out.append(table([rng.choice(pool) for _ in range(n)]))
    out += [left_zero_table(n), cyclic_group_table(n),
            magma_from_function(FiniteFunction(n, tuple(rng.randrange(n) for _ in range(n))))]
    return out


def _power(f, k):
    result = tuple(range(len(f)))
    for _ in range(k):
        result = tuple(f[v] for v in result)
    return result


def test_batch_check_matches_per_table_check():
    # the reference loops give the expected verdicts; opposite tables bring
    # the left laws' lawful cases
    rng = random.Random(20231)
    corpora = {n: _batch_corpus(n, rng) for n in (1, 2, 3, 4)}
    corpora = {n: tables + [t.opposite() for t in tables[300:]] for n, tables in corpora.items()}
    corpora[0] = [CayleyTable(0, ())]
    for generators, k in ((2, 2), (2, 3), (1, 3)):
        built = free_k_cyclic(generators, k, generators > 1).table
        corpora.setdefault(built.n, []).append(built)
    cases = [(law, k) for law in MagmaLaw if law in BATCH_LAWS
             for k in ((2, 3) if law is MagmaLaw.K_CYCLIC else (None,))]
    seen = {case: set() for case in cases}
    for n, tables in corpora.items():
        stack = np.array([t.flat() for t in tables], dtype=np.uint8).reshape(len(tables), 1, n, n)
        for law, k in cases:
            expected = [MAGMA_ORACLES[law](t.table, k) is None for t in tables]
            assert check_laws_batch(stack, (law,), k).tolist() == expected, (n, law, k)
            seen[law, k].update(expected)
        both = [MAGMA_ORACLES[MagmaLaw.RIGHT_PLONKA](t.table, None) is None
                and MAGMA_ORACLES[MagmaLaw.K_CYCLIC](t.table, 2) is None for t in tables]
        assert check_laws_batch(
            stack, (MagmaLaw.RIGHT_PLONKA, MagmaLaw.K_CYCLIC), 2).tolist() == both
    # every verdict is met on both sides
    assert all(verdicts == {True, False} for verdicts in seen.values())


def test_batch_check_rejects_what_it_does_not_cover():
    # a magma law needs one grid, a bi-magma or R-map law two
    stack = np.zeros((1, 1, 2, 2), dtype=np.uint8)
    for law in (MagmaLaw.LEFT_CANCELLATIVE, MagmaLaw.TOTAL, RMapLaw.BLS,
                BiMagmaLaw.PLONKA_BIMAGMA, RMapLaw.DIAGONAL):
        with pytest.raises(ValueError):
            check_laws_batch(stack, (law,))
    for k in (None, 0, True, 2.0):
        with pytest.raises(ValueError):
            check_laws_batch(stack, (MagmaLaw.K_CYCLIC,), k)
    for law in (BiMagmaLaw.SKEW_LEFT_BRACE, MagmaLaw.RIGHT_PLONKA, MagmaLaw.LEFT_CANCELLATIVE,
                MagmaLaw.ASSOCIATIVE):
        with pytest.raises(ValueError):
            check_laws_batch(np.zeros((1, 2, 2, 2), dtype=np.uint8), (law,))
    # a stack without its grid axis, or of three grids
    for shape in ((1, 2, 2), (1, 3, 2, 2)):
        for law in (MagmaLaw.ASSOCIATIVE, RMapLaw.BLS):
            with pytest.raises(ValueError):
                check_laws_batch(np.zeros(shape, dtype=np.uint8), (law,))


def _bimagma_holds(b, law):
    """The reference loop's verdict; nondegeneracy and the Lyubashenko
    form, which have no kernel shared with the batch, by the single checks."""
    if law in BIMAGMA_ORACLES:
        return BIMAGMA_ORACLES[law](b.dot.table, b.star.table) is None
    if law in RMAP_ORACLES:
        return RMAP_ORACLES[law](canonical_correspondence(b)) is None
    if isinstance(law, RMapLaw):
        return check_rmap_law(canonical_correspondence(b), law).holds
    return check_bimagma_law(b, law).holds


def _bimagma_batch_corpus(n, rng):
    """Seeded bi-magmas on n points as flattened dot + star tables: random
    ones, affine ones (x.y = ax + by + c, x*y = dx + ey + f mod n, whose rows
    or columns are permutations when a coefficient is a unit), permutations
    of the pairs (bijective R) and pairs of a right Plonka dot with a left
    Plonka star (the transpose of a right Plonka table), every such pair up
    to n = 3 and a sample at n = 4.  Some pairs are Plonka bi-magmas, unitary
    or not."""
    def transpose(flat):
        return tuple(flat[y * n + x] for x in range(n) for y in range(n))
    dots = stack_rows(_raw_stream(CensusQuery(n, (MagmaLaw.RIGHT_PLONKA,)), DEFAULT_LIMITS))
    if n <= 3:
        out = [d + transpose(s) for d in dots for s in dots]
    else:
        out = [rng.choice(dots) + transpose(rng.choice(dots)) for _ in range(1000)]
    out += [tuple(rng.randrange(n) for _ in range(2 * n * n)) for _ in range(200 * (n > 0))]
    for _ in range(100 * (n > 0)):
        a, b, c, d, e, f = (rng.randrange(n) for _ in range(6))
        out.append(tuple((a * x + b * y + c) % n for x in range(n) for y in range(n)) +
                   tuple((d * x + e * y + f) % n for x in range(n) for y in range(n)))
        pairs = rng.sample(range(n * n), n * n)
        out.append(tuple(p // n for p in pairs) + tuple(p % n for p in pairs))
    return out


def test_bimagma_batch_check_matches_per_object_checks():
    rng = random.Random(20232)
    laws = [law for law in (*BiMagmaLaw, *RMapLaw) if law in BATCH_LAWS]
    seen = {law: set() for law in laws}
    for n in (0, 1, 2, 3, 4):
        corpus = _bimagma_batch_corpus(n, rng)
        stack = np.array(corpus, dtype=np.uint8).reshape(len(corpus), 2, n, n)
        bimagmas = [BiMagma.from_flat(n, flat) for flat in corpus]
        for law in laws:
            expected = [_bimagma_holds(b, law) for b in bimagmas]
            assert check_laws_batch(stack, (law,)).tolist() == expected, (n, law)
            seen[law].update(expected)
        both = [_bimagma_holds(b, BiMagmaLaw.UNITARY_PLONKA_BIMAGMA)
                and _bimagma_holds(b, RMapLaw.BLS) for b in bimagmas]
        assert check_laws_batch(
            stack, (BiMagmaLaw.UNITARY_PLONKA_BIMAGMA, RMapLaw.BLS)).tolist() == both
    # every verdict is met on both sides
    assert all(verdicts == {True, False} for verdicts in seen.values())


def _uint8_stacks(n, rng):
    """Tables and bi-magmas on n points: lawful ones (left and right zero,
    cyclic groups, x.y = f(x) for an involution f and its opposite; the
    identity R-map's bi-magma and the Lyubashenko ones of (g, g^3) and of g
    and an involution, for a permutation g), each with a copy with one
    planted cell, and random ones."""
    f = FiniteFunction(n, tuple(rng.sample(range(n), n)))
    involution = FiniteFunction(n, tuple(min(n - 1, x + 1) if x % 2 == 0 else x - 1
                                         for x in range(n)))
    tables = [left_zero_table(n), right_zero_table(n), cyclic_group_table(n),
              magma_from_function(involution), magma_from_function(involution).opposite()]
    tables += [_planted_table(t, rng) for t in tables]
    tables += [CayleyTable.from_flat(n, [rng.randrange(n) for _ in range(n * n)])
               for _ in range(3)]
    bimagmas = [canonical_correspondence(r) for r in (
        identity_rmap(n), lyubashenko_rmap(f, f.power(3)), lyubashenko_rmap(f, involution))]
    bimagmas += [BiMagma.from_flat(n, b.dot.flat() + _planted_table(b.star, rng).flat())
                 for b in bimagmas]
    bimagmas += [BiMagma.from_flat(n, [rng.randrange(n) for _ in range(2 * n * n)])
                 for _ in range(3)]
    return tables, bimagmas


@pytest.mark.parametrize("n", [17, 20])
def test_batch_checks_on_uint8_stacks_past_255_cells(n):
    # from 17 points a cell index x n + y passes 255, the largest uint8
    tables, bimagmas = _uint8_stacks(n, random.Random(n))
    stack = np.array([t.flat() for t in tables], dtype=np.uint8).reshape(-1, 1, n, n)
    for law in [law for law in MagmaLaw if law in BATCH_LAWS]:
        for k in ((2, 3, 4) if law is MagmaLaw.K_CYCLIC else (None,)):
            expected = [check_magma_law(t, law, k).holds for t in tables]
            assert check_laws_batch(stack, (law,), k).tolist() == expected, (law, k)
    stack = np.array([b.dot.flat() + b.star.flat() for b in bimagmas],
                     dtype=np.uint8).reshape(-1, 2, n, n)
    for law in [law for law in (*BiMagmaLaw, *RMapLaw) if law in BATCH_LAWS]:
        expected = [(check_rmap_law(canonical_correspondence(b), law) if isinstance(law, RMapLaw)
                     else check_bimagma_law(b, law)).holds for b in bimagmas]
        assert check_laws_batch(stack, (law,)).tolist() == expected, law


# the laws checked on a stack's distinct columns
_COLUMN_CASES = [(MagmaLaw.RIGHT_PLONKA, None)] + [(MagmaLaw.K_CYCLIC, k) for k in (1, 2, 3, 6)]


def _single_cell_mutants(stack):
    """Every table of a (T, n, n) stack with one cell moved to each other value."""
    count, n = stack.shape[:2]
    mutants = np.repeat(stack.reshape(count, 1, 1, n * n), n * n * (n - 1), 1)
    mutants = mutants.reshape(count, n * n, n - 1, n * n)
    cells = np.arange(n * n)
    mutants[:, cells, :, cells] = (mutants[:, cells, :, cells] + np.arange(1, n)) % n
    return mutants.reshape(-1, n, n)


def _shared_column_stack(n, rng):
    """Tables whose columns come from a few maps, so that they share columns
    with each other and repeat them: powers of one map, involutions and
    random maps."""
    f = [rng.randrange(n) for _ in range(n)]
    powers = [list(range(n))]
    for _ in range(5):
        powers.append([f[v] for v in powers[-1]])
    swaps = [list(range(n)) for _ in range(3)]
    for swap in swaps[1:]:
        a, b = rng.sample(range(n), 2)
        swap[a], swap[b] = b, a
    maps = powers + swaps + [[rng.randrange(n) for _ in range(n)] for _ in range(3)]
    tables = []
    for _ in range(300):
        kind = rng.choice((powers, swaps, maps))
        columns = [rng.choice(kind) for _ in range(n)]
        tables.append([[columns[y][x] for y in range(n)] for x in range(n)])
    return np.array(tables, dtype=np.uint8)


def _column_corpus(name):
    """Stacks on which the distinct-column kernels are checked."""
    rng = random.Random(name)
    if name == "empty":
        return [np.zeros((0, n, n), dtype=np.uint8) for n in (0, 1, 2, 5)] + \
            [np.zeros((3, 0, 0), dtype=np.uint8), np.zeros((2, 1, 1), dtype=np.int64)]
    if name == "random":
        stacks = [np.array([[[rng.randrange(n) for _ in range(n)] for _ in range(n)]
                            for _ in range(200)], dtype=np.uint8) for n in range(1, 9)]
        for n in (17, 20):
            tables = _uint8_stacks(n, rng)[0]
            stacks.append(np.array([t.flat() for t in tables], dtype=np.uint8).reshape(-1, n, n))
        return stacks
    if name == "mutants":
        # every searched table passes, so these carry the failing verdicts
        stacks = []
        for n, laws in ((5, (MagmaLaw.RIGHT_PLONKA, MagmaLaw.RIGHT_INVOLUTORY)),
                        (4, (MagmaLaw.RIGHT_PLONKA,))):
            lawful = np.concatenate(list(_raw_stream(CensusQuery(n, laws),
                                                     DEFAULT_LIMITS))).reshape(-1, n, n)
            stacks += [lawful, _single_cell_mutants(lawful)]
        return stacks
    return [_shared_column_stack(n, rng) for n in (2, 3, 4, 5, 6)]


@pytest.mark.parametrize("name", ["empty", "random", "mutants", "shared"])
def test_column_kernels_match_oracles(name, monkeypatch):
    seen = {case: set() for case in _COLUMN_CASES}
    for stack in _column_corpus(name):
        tables = stack.tolist()
        for law, k in _COLUMN_CASES:
            expected = [MAGMA_ORACLES[law](t, k) is None for t in tables]
            # with no marks the column pairs that occur are found by a sort
            for marks in (laws._MARKS, 0):
                monkeypatch.setattr(laws, "_MARKS", marks)
                assert check_laws_batch(stack[:, None], (law,), k).tolist() == expected, \
                    (name, stack.shape, law, k, marks)
            seen[law, k].update(expected)
    if name != "empty":   # every verdict is met on both sides
        assert all(verdicts == {True, False} for verdicts in seen.values()), seen


def test_single_cell_mutants():
    stack = np.array([[[0, 1], [1, 0]]], dtype=np.uint8)
    assert _single_cell_mutants(stack).tolist() == [
        [[1, 1], [1, 0]], [[0, 0], [1, 0]], [[0, 1], [0, 0]], [[0, 1], [1, 1]]]


def test_distinct_rows_are_lexicographic_in_two_pieces():
    # from 16 points a row is coded in two pieces; random rows differ in
    # both, and repeated rows must map back to their distinct row
    rng = np.random.default_rng(17)
    rows = rng.integers(0, 17, (200, 17), dtype=np.uint8)
    rows = np.concatenate((rows, rows[::-3]))
    distinct, which = laws._distinct_rows(rows, 17)
    assert np.array_equal(distinct, np.unique(rows, axis=0))
    assert np.array_equal(distinct[which], rows)


@pytest.mark.parametrize("dtype, entry", [(np.uint8, 3), (np.uint8, 255), (np.int8, -1),
                                          (np.int64, -1), (np.int64, 3)])
def test_batch_checks_refuse_entries_outside_the_carrier(dtype, entry):
    # an entry outside 0..n-1 in an early table would read another table's
    # cells, in the last one past the stack's end
    for bad in (0, 3):
        magmas = np.zeros((4, 3, 3), dtype=dtype)
        magmas[bad, 2, 1] = entry
        for law, k in ((MagmaLaw.RIGHT_PLONKA, None), (MagmaLaw.ASSOCIATIVE, None),
                       (MagmaLaw.K_CYCLIC, 2)):
            with pytest.raises(ValueError, match=f"^table {bad} of the stack has an entry "
                                                 r"outside 0\.\.2$"):
                check_laws_batch(magmas[:, None], (law,), k)
        bimagmas = np.zeros((4, 2, 3, 3), dtype=dtype)
        bimagmas[bad, 1, 2, 1] = entry
        for law in (BiMagmaLaw.PLONKA_BIMAGMA, RMapLaw.BLS):
            with pytest.raises(ValueError, match=f"^bi-magma {bad} of the stack has an entry "
                                                 r"outside 0\.\.2$"):
                check_laws_batch(bimagmas, (law,))


def test_trivial_bimagma_is_unitary_plonka():
    assert check_bimagma_law(trivial_bimagma(3), BiMagmaLaw.UNITARY_PLONKA_BIMAGMA).holds


def test_trivial_brace():
    z3 = cyclic_group_table(3)
    assert check_bimagma_law(BiMagma(z3, z3), BiMagmaLaw.SKEW_LEFT_BRACE).holds
    broken = BiMagma(z3, left_zero_table(3))
    v = check_bimagma_law(broken, BiMagmaLaw.SKEW_LEFT_BRACE)
    assert not v.holds and v.witness.kind == "star_not_group"


def test_lyubashenko_form_swap_id():
    swap, ident = FiniteFunction(2, (1, 0)), FiniteFunction(2, (0, 1))
    b = canonical_correspondence(lyubashenko_rmap(swap, ident))
    assert check_bimagma_law(b, BiMagmaLaw.PLONKA_BIMAGMA).holds
    assert check_bimagma_law(b, BiMagmaLaw.LYUBASHENKO_FORM).holds


def test_lyubashenko_form_rejects_non_commuting():
    f = FiniteFunction(3, (1, 0, 0))
    g = FiniteFunction(3, (2, 2, 2))
    b = canonical_correspondence(lyubashenko_rmap(f, g))
    v = check_bimagma_law(b, BiMagmaLaw.LYUBASHENKO_FORM)
    assert not v.holds and v.witness.kind == "pair_not_commuting"


def test_yang_baxter_bimagma_bridge_exhaustive_n2():
    for dot in all_tables(2):
        for star in all_tables(2):
            b = BiMagma(dot, star)
            direct = check_bimagma_law(b, BiMagmaLaw.YANG_BAXTER_BIMAGMA).holds
            via_rmap = check_rmap_law(canonical_correspondence(b), RMapLaw.YANG_BAXTER).holds
            assert direct == via_rmap


def test_yang_baxter_bimagma_bridge_sampled():
    rng = random.Random(11)
    for _ in range(100_000):
        n = rng.choice((3, 4))
        dot = CayleyTable(n, tuple(tuple(rng.randrange(n) for _ in range(n))
                                   for _ in range(n)))
        star = CayleyTable(n, tuple(tuple(rng.randrange(n) for _ in range(n))
                                    for _ in range(n)))
        b = BiMagma(dot, star)
        direct = check_bimagma_law(b, BiMagmaLaw.YANG_BAXTER_BIMAGMA).holds
        via_rmap = check_rmap_law(canonical_correspondence(b), RMapLaw.YANG_BAXTER).holds
        assert direct == via_rmap


def test_unitary_diagonal_iff_two_cyclic_exhaustive():
    # within the family R(x, y) = (x.y, y.x) over right Plonka magmas
    for n in (1, 2, 3):
        for m in all_tables(n):
            if not check_magma_law(m, MagmaLaw.RIGHT_PLONKA).holds:
                continue
            r = RMap.from_function(n, lambda x, y: (m.apply(x, y), m.apply(y, x)))
            lhs = (check_rmap_law(r, RMapLaw.UNITARY).holds
                   and check_rmap_law(r, RMapLaw.DIAGONAL).holds)
            assert lhs == check_magma_law(m, MagmaLaw.TWO_CYCLIC).holds


def test_long_impossibility_small():
    # no left-right nondegenerate solution of the Long equation, n = 2
    n = 2
    for out in itertools.product(itertools.product(range(n), repeat=2), repeat=n * n):
        r = RMap(n, tuple(out))
        if check_rmap_law(r, RMapLaw.LONG).holds:
            assert not check_rmap_law(r, RMapLaw.LEFT_RIGHT_NONDEGENERATE).holds
