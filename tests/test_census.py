import enum
import itertools
import math
import multiprocessing
import operator
import os
import random
import time

import numpy as np
import pytest

from ybmag import (BiMagma, BiMagmaLaw, CayleyTable, CensusQuery, FiniteFunction,
                   FunctionFamily, Limits, MagmaLaw, RMap, RMapLaw, SetPartition, are_isomorphic,
                   canonical_correspondence, census_simple_bls, check_bimagma_law,
                   check_magma_law, check_rmap_law, is_incompressible,
                   commuting_permutation_pairs_up_to_conjugacy,
                   enumerate_structures, function_conjugacy_census,
                   minimal_image, rebuild, structured_iso)
from ybmag import census
from ybmag.census import (CensusStats, _centralizer, _centralizer_generators, _function_pool,
                          _iter_plonka_tables, _orbit, _orbit_dedupe, _perm_from_cycle_type,
                          _raw_stream, _relabelling_gather)
from ybmag.core import DEFAULT_LIMITS, CrossCheckFailed, GuardExceeded
from ybmag.families import _partitions
from ybmag.laws import BATCH_LAWS
from ybmag.plonka import BiPlonkaPartition, connected_components

from conftest import stack_rows


def _stack(*rows):
    """A uint8 stack of flattened tables, as the column search yields."""
    return np.array(rows, dtype=np.uint8)


def test_right_plonka_counts():
    expected = {1: 1, 2: 3, 3: 11}
    for n, count in expected.items():
        res = enumerate_structures(CensusQuery(n, (MagmaLaw.RIGHT_PLONKA,)))
        assert res.row.class_count == count
        assert res.row.raw_count >= count
        assert "[unverified]" not in res.row.label


def test_unverified_marking():
    res = enumerate_structures(CensusQuery(4, (MagmaLaw.RIGHT_PLONKA,)))
    assert "[unverified]" in res.row.label


def test_literature_lookup_ignores_tag_order_and_repeats(monkeypatch):
    # the row keeps the tags as written; the lookup names each once, in
    # declaration order
    for n, laws, classes in (
            (5, (MagmaLaw.RIGHT_INVOLUTORY, MagmaLaw.RIGHT_PLONKA), 37),
            (4, (MagmaLaw.ASSOCIATIVE, MagmaLaw.RIGHT_PLONKA), 5),
            (3, (MagmaLaw.RIGHT_PLONKA, MagmaLaw.RIGHT_PLONKA), 11),
            (3, (MagmaLaw.RIGHT_INVOLUTORY, MagmaLaw.RIGHT_PLONKA, MagmaLaw.RIGHT_INVOLUTORY), 4)):
        row = enumerate_structures(CensusQuery(n, laws)).row
        assert (row.label, row.class_count) == ("+".join(law.value for law in laws), classes)
    monkeypatch.setitem(census.KNOWN_COUNTS, ("right_plonka+right_involutory", 4), 13)
    with pytest.raises(CrossCheckFailed, match=r"census right_involutory\+right_plonka at n=4 "
                                               "found 12 classes, literature says 13"):
        enumerate_structures(CensusQuery(4, (MagmaLaw.RIGHT_INVOLUTORY, MagmaLaw.RIGHT_PLONKA)))


def test_left_plonka_census_mirrors_right():
    # transposition is a class bijection between the two chiralities
    for n in (1, 2, 3):
        left = enumerate_structures(CensusQuery(n, (MagmaLaw.LEFT_PLONKA,)))
        right = enumerate_structures(CensusQuery(n, (MagmaLaw.RIGHT_PLONKA,)))
        assert left.row.class_count == right.row.class_count
        assert left.row.raw_count == right.row.raw_count


def test_two_cyclic_census_agrees_with_raw_filter():
    for n in (1, 2, 3):
        res = enumerate_structures(CensusQuery(n, (MagmaLaw.TWO_CYCLIC,)))
        raw = []
        for cells in itertools.product(range(n), repeat=n * n):
            t = CayleyTable(n, tuple(tuple(cells[i * n:(i + 1) * n]) for i in range(n)))
            if check_magma_law(t, MagmaLaw.TWO_CYCLIC).holds:
                raw.append(t)
        reps = []
        for t in raw:
            if not any(are_isomorphic(t, rep) for rep in reps):
                reps.append(t)
        assert res.row.raw_count == len(raw)
        assert res.row.class_count == len(reps)


def test_associative_right_plonka_is_partition_numbers():
    # independent oracle: count integer partitions by direct enumeration
    def partitions(n, cap=None):
        cap = cap or n
        if n == 0:
            return 1
        return sum(partitions(n - first, first) for first in range(min(n, cap), 0, -1))
    for n in (1, 2, 3, 4, 5):
        res = enumerate_structures(
            CensusQuery(n, (MagmaLaw.RIGHT_PLONKA, MagmaLaw.ASSOCIATIVE)))
        assert res.row.class_count == partitions(n), n


def test_representatives_are_canonical_and_sorted():
    # n = 1 relabels one cell
    for n, count in ((1, 1), (3, 11)):
        res = enumerate_structures(CensusQuery(n, (MagmaLaw.RIGHT_PLONKA,),
                                               mode="representatives"))
        reps = res.representatives
        assert len(reps) == count
        flats = [r.flat() for r in reps]
        assert flats == sorted(flats)
        for rep in reps:
            assert rep.flat() == minimal_image(rep)


@pytest.mark.parametrize("n, orders, band", [
    (n, orders, band) for n in (1, 2, 3)
    for orders, band in ((None, False), (2, False), (None, True))] + [(4, 2, False)])
def test_column_backtracker_matches_product_filter(n, orders, band):
    # oracle: every n-tuple of pool columns, in product order, kept when the
    # table it spells is right Plonka (and a band when asked)
    pool = stack_rows(_function_pool(n, orders, False))
    laws = (MagmaLaw.RIGHT_PLONKA, MagmaLaw.BAND) if band else (MagmaLaw.RIGHT_PLONKA,)
    expected = []
    for cols in itertools.product(pool, repeat=n):
        flat = tuple(cols[y][x] for x in range(n) for y in range(n))
        if all(check_magma_law(CayleyTable.from_flat(n, flat), law).holds for law in laws):
            expected.append(flat)
    assert stack_rows(_iter_plonka_tables(n, pool, band)) == expected


def _pair_pool(n):
    # the two-grid pool by product filter: the commuting pairs (f, g) of
    # self-maps, f then g in product order, each entry f followed by g
    maps = list(itertools.product(range(n), repeat=n))
    return [f + g for f in maps for g in maps
            if all(f[g[x]] == g[f[x]] for x in range(n))]


@pytest.mark.parametrize("n", [0, 1, 2])
def test_two_grid_column_search_matches_product_filter(n):
    # oracle: every n-tuple of commuting pairs, in product order, kept when
    # the bi-magma it spells (dot column y = f, star row y = g) is Plonka
    pool = _pair_pool(n)
    expected = []
    for cols in itertools.product(pool, repeat=n):
        dot = tuple(cols[y][x] for x in range(n) for y in range(n))
        star = tuple(cols[y][n + x] for y in range(n) for x in range(n))
        b = BiMagma(CayleyTable.from_flat(n, dot), CayleyTable.from_flat(n, star))
        if check_bimagma_law(b, BiMagmaLaw.PLONKA_BIMAGMA).holds:
            expected.append(tuple(cols[y][g * n + x] for x in range(n) for y in range(n)
                                  for g in range(2)))
    assert stack_rows(_iter_plonka_tables(n, pool, False)) == expected


def test_frontier_chunks_keep_the_order(monkeypatch):
    # one state per frontier chunk and one commute row per slab: the same
    # tables in the same order as the default sizes
    cases = [(n, _function_pool(n, orders, permutations_only), band)
             for n in range(5) for orders in (None, 2, 3)
             for permutations_only in (False, True) for band in (False, True)]
    cases.append((3, _pair_pool(3), False))
    expected = [stack_rows(_iter_plonka_tables(*case)) for case in cases]
    monkeypatch.setattr(census, "_FRONTIER_BYTES", 1)
    for case, tables in zip(cases, expected):
        assert stack_rows(_iter_plonka_tables(*case)) == tables, case[0]


@pytest.mark.parametrize("band, count", [(False, 964), (True, 150)])
def test_column_backtracker_is_sound_at_n4(band, count):
    # too many column tuples for the product oracle: check that each table
    # is right Plonka (and a band when asked), comes once and in pool order,
    # and that all of them come (964 tables, 150 of them bands, found by a
    # sweep over pairwise commuting column tuples)
    pool = stack_rows(_function_pool(4, None, False))
    index = {col: i for i, col in enumerate(pool)}
    laws = (MagmaLaw.RIGHT_PLONKA, MagmaLaw.BAND) if band else (MagmaLaw.RIGHT_PLONKA,)
    keys = []
    for flat in stack_rows(_iter_plonka_tables(4, pool, band)):
        table = CayleyTable.from_flat(4, flat)
        assert all(check_magma_law(table, law).holds for law in laws)
        keys.append(tuple(index[flat[y::4]] for y in range(4)))
    assert keys == sorted(set(keys))
    assert len(keys) == count


def _product_filter_pool(n, orders, permutations_only):
    # the column pool as every self-map (or permutation) in product order,
    # kept when its orders-th power, taken step by step, is the identity
    maps = itertools.permutations(range(n)) if permutations_only \
        else itertools.product(range(n), repeat=n)

    def power_is_identity(col, k):
        result = list(range(n))
        for _ in range(k):
            result = [col[v] for v in result]
        return result == list(range(n))
    return [tuple(c) for c in maps if orders is None or power_is_identity(c, orders)]


@pytest.mark.parametrize("n", range(7))
def test_function_pool_matches_product_filter(n):
    for orders in (None, 1, 2, 3, 4):
        for permutations_only in (False, True):
            assert stack_rows(_function_pool(n, orders, permutations_only)) == \
                _product_filter_pool(n, orders, permutations_only), (orders, permutations_only)


def _columns_incompressible(m):
    """right_simple by the family route: no proper subset is invariant under
    every column."""
    return m.n == 0 or is_incompressible(
        FunctionFamily(m.n, tuple(FiniteFunction(m.n, m.column(y)) for y in range(m.n))))


def _recheck_route(query):
    """The raw stream by the per-table route: the column search on the
    product-filter pool, every table rebuilt as a CayleyTable and every law
    of the query checked on it, then the right_simple predicate."""
    n = query.n
    laws = set(query.magma_laws)
    transpose = MagmaLaw.LEFT_PLONKA in laws and MagmaLaw.RIGHT_PLONKA not in laws \
        and MagmaLaw.TWO_CYCLIC not in laws
    if transpose:
        # the pool cuts the query's rows: only the left laws and band may cut it
        left = {MagmaLaw.RIGHT_PLONKA}
        if MagmaLaw.LEFT_INVOLUTORY in laws:
            left.add(MagmaLaw.RIGHT_INVOLUTORY)
        if MagmaLaw.BAND in laws:
            left.add(MagmaLaw.BAND)
        laws = left
    orders = None
    if MagmaLaw.RIGHT_INVOLUTORY in laws or MagmaLaw.TWO_CYCLIC in laws:
        orders = 2
    elif MagmaLaw.K_CYCLIC in laws:
        orders = query.k
    band = MagmaLaw.BAND in laws or MagmaLaw.TWO_CYCLIC in laws
    simple = "right_simple" in query.predicates
    pool = _product_filter_pool(n, orders, simple and not transpose)
    for flat in stack_rows(_iter_plonka_tables(n, pool, band)):
        table = CayleyTable.from_flat(n, flat)
        source = table.opposite() if transpose else table
        if all(check_magma_law(source, law, query.k if law is MagmaLaw.K_CYCLIC else None)
               for law in query.magma_laws) and (not simple or _columns_incompressible(source)):
            yield source.flat()


_STREAM_CASES = [
    ((MagmaLaw.RIGHT_PLONKA,), None, ()),
    ((MagmaLaw.LEFT_PLONKA,), None, ()),
    ((MagmaLaw.LEFT_PLONKA, MagmaLaw.LEFT_INVOLUTORY), None, ()),
    ((MagmaLaw.RIGHT_PLONKA, MagmaLaw.K_CYCLIC), 3, ()),
    ((MagmaLaw.RIGHT_PLONKA, MagmaLaw.K_CYCLIC), 4, ()),
    ((MagmaLaw.TWO_CYCLIC,), None, ()),
    ((MagmaLaw.RIGHT_PLONKA, MagmaLaw.BAND), None, ()),
    ((MagmaLaw.RIGHT_PLONKA, MagmaLaw.ASSOCIATIVE), None, ()),
    ((MagmaLaw.RIGHT_PLONKA, MagmaLaw.RIGHT_INVOLUTORY, MagmaLaw.BAND), None, ()),
    ((MagmaLaw.RIGHT_PLONKA,), None, ("right_simple",)),
    ((MagmaLaw.LEFT_PLONKA, MagmaLaw.BAND, MagmaLaw.COMMUTATIVE), None, ()),
    ((MagmaLaw.RIGHT_PLONKA, MagmaLaw.LEFT_PLONKA), None, ()),
    # the pool is cut by one order and the other is checked per table
    ((MagmaLaw.RIGHT_PLONKA, MagmaLaw.RIGHT_INVOLUTORY, MagmaLaw.K_CYCLIC), 3, ()),
    # on the transpose the pool cuts the rows, so the right laws and
    # right_simple are checked per table
    ((MagmaLaw.LEFT_PLONKA, MagmaLaw.K_CYCLIC), 1, ()),
    ((MagmaLaw.LEFT_PLONKA, MagmaLaw.RIGHT_INVOLUTORY), None, ()),
    ((MagmaLaw.LEFT_PLONKA,), None, ("right_simple",)),
    # two_cyclic implies right Plonka, so this is searched untransposed
    ((MagmaLaw.LEFT_PLONKA, MagmaLaw.TWO_CYCLIC), None, ()),
]


@pytest.mark.parametrize("laws, k, predicates", _STREAM_CASES)
def test_raw_stream_matches_per_table_recheck(laws, k, predicates):
    for n in (0, 1, 2, 3, 4):
        query = CensusQuery(n, laws, k=k, predicates=predicates)
        assert stack_rows(_raw_stream(query, DEFAULT_LIMITS)) == \
            list(_recheck_route(query)), n


@pytest.fixture(scope="module")
def left_plonka_tables():
    """Every left Plonka table on n <= 3 points, by a sweep of all n^(n^2) tables."""
    tables = {}
    for n in (0, 1, 2, 3):
        every = map(CayleyTable.from_flat, itertools.repeat(n),
                    itertools.product(range(n), repeat=n * n))
        tables[n] = [t for t in every if check_magma_law(t, MagmaLaw.LEFT_PLONKA).holds]
    return tables


@pytest.mark.parametrize("laws, k, predicates", [
    ((MagmaLaw.LEFT_PLONKA, MagmaLaw.RIGHT_INVOLUTORY), None, ()),
    ((MagmaLaw.LEFT_PLONKA, MagmaLaw.LEFT_INVOLUTORY, MagmaLaw.RIGHT_INVOLUTORY), None, ()),
    ((MagmaLaw.LEFT_PLONKA, MagmaLaw.K_CYCLIC), 1, ()),
    ((MagmaLaw.LEFT_PLONKA, MagmaLaw.K_CYCLIC), 2, ()),
    ((MagmaLaw.LEFT_PLONKA, MagmaLaw.K_CYCLIC), 3, ()),
    ((MagmaLaw.LEFT_PLONKA, MagmaLaw.TWO_CYCLIC), None, ()),
    ((MagmaLaw.LEFT_PLONKA, MagmaLaw.LEFT_INVOLUTORY), None, ()),
    ((MagmaLaw.LEFT_PLONKA,), None, ("right_simple",)),
    ((MagmaLaw.LEFT_PLONKA, MagmaLaw.BAND), None, ("right_simple",)),
])
def test_left_plonka_queries_match_table_sweep(left_plonka_tables, laws, k, predicates):
    # a right law or right_simple must not cut the transposed search's pool
    for n, tables in left_plonka_tables.items():
        query = CensusQuery(n, laws, k=k, predicates=predicates)
        expected = sorted(
            t.flat() for t in tables
            if all(check_magma_law(t, law, k if law is MagmaLaw.K_CYCLIC else None).holds
                   for law in laws)
            and ("right_simple" not in predicates or _columns_incompressible(t)))
        assert sorted(stack_rows(_raw_stream(query, DEFAULT_LIMITS))) == expected, n


def test_involutory_raw_stream_matches_per_table_recheck_n5():
    query = CensusQuery(5, (MagmaLaw.RIGHT_PLONKA, MagmaLaw.RIGHT_INVOLUTORY))
    stream = stack_rows(_raw_stream(query, DEFAULT_LIMITS))
    assert stream == list(_recheck_route(query))
    assert len(stream) > 0


@pytest.mark.parametrize("laws, table", [
    # the columns commute, but column 0.0 = 1 is not column 0
    ((MagmaLaw.RIGHT_PLONKA,), (1, 0, 0, 1)),
    # right Plonka (every column is the 3-cycle) but no column is an involution
    ((MagmaLaw.RIGHT_PLONKA, MagmaLaw.RIGHT_INVOLUTORY), (1, 1, 1, 2, 2, 2, 0, 0, 0)),
])
def test_column_search_table_failing_its_laws_is_typed(monkeypatch, laws, table):
    n = 2 if len(table) == 4 else 3
    assert not all(check_magma_law(CayleyTable.from_flat(n, table), law).holds for law in laws)
    monkeypatch.setattr(census, "_iter_plonka_tables", lambda n, pool, band: iter([_stack(table)]))
    with pytest.raises(CrossCheckFailed, match="column search produced"):
        enumerate_structures(CensusQuery(n, laws))


class _K(enum.IntEnum):
    TWO = 2


def test_k_is_validated_up_front():
    for k in (None, 0, -1, 2.0, True, _K.TWO):
        with pytest.raises(ValueError, match="k_cyclic needs"):
            CensusQuery(3, (MagmaLaw.RIGHT_PLONKA, MagmaLaw.K_CYCLIC), k=k)
    with pytest.raises(ValueError, match="k only applies"):
        CensusQuery(3, (MagmaLaw.RIGHT_PLONKA,), k=2)
    with pytest.raises(ValueError, match="k only applies"):
        CensusQuery(3, bimagma_laws=(BiMagmaLaw.PLONKA_BIMAGMA,), k=2)


def test_carrier_is_validated_up_front():
    for n in (-1, -7, 2.0, 2.5, "3", None, True):
        with pytest.raises(ValueError, match=rf"carrier size n must be an integer >= 0, got n = {n!r}"):
            CensusQuery(n, (MagmaLaw.RIGHT_PLONKA,))
        with pytest.raises(ValueError, match=rf"got n = {n!r}"):
            function_conjugacy_census(n)
        with pytest.raises(ValueError, match=rf"got n = {n!r}"):
            census_simple_bls(n)
    with pytest.raises(ValueError, match="carrier must be non-empty"):
        census_simple_bls(0)


def test_isomorph_rejection_matches_pairwise_oracle():
    # canonical-form class counting vs the brute-force pairwise oracle
    for n in (1, 2, 3):
        raw = [CayleyTable(n, tuple(tuple(f[i * n:(i + 1) * n]) for i in range(n)))
               for f in stack_rows(_raw_stream(CensusQuery(n, (MagmaLaw.RIGHT_PLONKA,)),
                                               DEFAULT_LIMITS))]
        reps: list[CayleyTable] = []
        for table in raw:
            if not any(are_isomorphic(table, rep) for rep in reps):
                reps.append(table)
        res = enumerate_structures(CensusQuery(n, (MagmaLaw.RIGHT_PLONKA,)))
        assert res.row.class_count == len(reps)
        assert res.row.raw_count == len(raw)


def _reference_relabellings(n, length):
    """For each permutation sigma of 0..n-1, in itertools order, the
    relabelling x -> sigma(x) of ``length`` cells, one flattened table or
    several concatenated on the same carrier, as a cell picker and a byte
    translation: image j is sigma[flat[src[j]]], so
    ``bytes(pick(flat)).translate(table)``.  The loop reference for the
    census's numpy orbit gather."""
    out = []
    for sigma in itertools.permutations(range(n)):
        inv = [0] * n
        for x, s in enumerate(sigma):
            inv[s] = x
        cells = [inv[x] * n + inv[y] for x in range(n) for y in range(n)]
        src = [base + c for base in range(0, length, max(n * n, 1)) for c in cells]
        # itemgetter of one index returns a bare value, not a 1-tuple
        pick = operator.itemgetter(*src) if len(src) > 1 \
            else (lambda flat, src=src: [flat[k] for k in src])
        out.append((pick, bytes(sigma) + bytes(range(n, 256))))
    return out


def _reference_images(relabellings, flat):
    return [bytes(pick(flat)).translate(sigma) for pick, sigma in relabellings]


def _reference_orbit_dedupe(n, raw):
    """The census's orbit dedupe on the reference relabellings."""
    relabellings = None
    seen, classes, raw_count = set(), [], 0
    for flat in raw:
        raw_count += 1
        if bytes(flat) in seen:
            continue
        if relabellings is None:
            relabellings = _reference_relabellings(n, len(flat))
        images = _reference_images(relabellings, flat)
        seen.update(images)
        classes.append(min(images))
    return sorted(tuple(c) for c in classes), raw_count


def _random_flats(n, length, count, seed):
    rng = random.Random(seed)
    flats = [tuple(rng.randrange(n) for _ in range(length)) for _ in range(count)] if n else []
    # the constant tables and the empty one are fixed by more permutations
    return flats + [(0,) * length, (max(n - 1, 0),) * length]


@pytest.mark.parametrize("n", range(6))
def test_orbit_gather_matches_reference_relabellings(n):
    # one table and a dot + star concatenation; every image, in order
    for blocks in (1, 2):
        length = blocks * n * n
        gather = _relabelling_gather(n, length)
        relabellings = _reference_relabellings(n, length)
        for flat in _random_flats(n, length, 4, seed=10 * n + blocks):
            assert _orbit(bytes(flat), gather) == _reference_images(relabellings, flat), flat


def _census_streams():
    for laws, k, predicates in _STREAM_CASES:
        for n in (0, 1, 2, 3, 4):
            query = CensusQuery(n, laws, k=k, predicates=predicates)
            yield n, list(_raw_stream(query, DEFAULT_LIMITS))
    query = CensusQuery(5, (MagmaLaw.RIGHT_PLONKA, MagmaLaw.RIGHT_INVOLUTORY))
    yield 5, list(_raw_stream(query, DEFAULT_LIMITS))
    for n in (0, 1, 2, 3):
        yield n, list(_raw_stream(CensusQuery(n, (MagmaLaw.ASSOCIATIVE,)), DEFAULT_LIMITS))
        query = CensusQuery(n, bimagma_laws=(BiMagmaLaw.PLONKA_BIMAGMA,))
        yield n, list(_raw_stream(query, DEFAULT_LIMITS))


def test_orbit_dedupe_and_minimal_image_match_reference_on_census_streams():
    for n, stacks in _census_streams():
        stream = stack_rows(stacks)
        assert _orbit_dedupe(n, stacks) == _reference_orbit_dedupe(n, stream), n
        if stream and len(stream[0]) == n * n:
            relabellings = _reference_relabellings(n, n * n)
            for flat in stream[:50]:
                expected = tuple(min(_reference_images(relabellings, flat)))
                assert minimal_image(CayleyTable.from_flat(n, flat)) == expected, flat


def test_orbit_dedupe_and_minimal_image_match_reference_on_random_tables():
    for n in range(6):
        for blocks in (1, 2):
            length = blocks * n * n
            relabellings = _reference_relabellings(n, length)
            flats = _random_flats(n, length, 3, seed=100 + 10 * n + blocks)
            # a stream closed under relabelling: the union of the tables' orbits
            stream = sorted({tuple(image) for flat in flats
                             for image in _reference_images(relabellings, flat)})
            random.Random(n).shuffle(stream)
            assert _orbit_dedupe(n, [_stack(*stream)]) == _reference_orbit_dedupe(n, stream), \
                (n, blocks)
            if blocks == 1:
                for flat in flats:
                    expected = tuple(min(_reference_images(relabellings, flat)))
                    assert minimal_image(CayleyTable.from_flat(n, flat)) == expected, flat


def test_orbit_dedupe_requires_whole_orbits_once():
    # x.y = 0 and x.y = 1 are one orbit on two points, in one stack or split
    # over two, with or without an empty stack between
    zero, one = (0, 0, 0, 0), (1, 1, 1, 1)
    for stacks in ([_stack(zero, one)], [_stack(zero), _stack(one)],
                   [_stack(one), _stack(zero, one)[:0], _stack(zero)]):
        assert _orbit_dedupe(2, stacks) == ([zero], 2)
    # a partial orbit, and a table repeated in the same stack or a later one
    for stacks in ([_stack(zero)], [_stack(zero, one, zero)],
                   [_stack(zero, one), _stack(zero)], [_stack(zero), _stack(one), _stack(one)]):
        with pytest.raises(CrossCheckFailed, match="orbit dedupe on n=2"):
            _orbit_dedupe(2, stacks)


def test_census_partial_orbit_is_typed(monkeypatch):
    # x.y = 0 is right Plonka, so it passes the bulk law check, but its
    # orbit also holds x.y = 1, which the stream leaves out
    monkeypatch.setattr(census, "_iter_plonka_tables",
                        lambda n, pool, band: iter([_stack((0, 0, 0, 0))]))
    with pytest.raises(CrossCheckFailed, match="orbit dedupe on n=2 saw 1 raw tables"):
        enumerate_structures(CensusQuery(2, (MagmaLaw.RIGHT_PLONKA,)))


@pytest.mark.parametrize("n", [0, 1])
def test_edge_carrier_censuses(n):
    # one class of one raw table: the empty table, or the one-point table
    table = CayleyTable.from_flat(n, (0,) * n)
    cases = [
        ({"magma_laws": (MagmaLaw.RIGHT_PLONKA,)},
         "right_plonka" + " [unverified]" * (n == 0), table),
        ({"bimagma_laws": (BiMagmaLaw.PLONKA_BIMAGMA,)},
         "plonka_bimagma [unverified]", BiMagma(table, table)),
        ({"magma_laws": (MagmaLaw.ASSOCIATIVE,)}, "associative [unverified]", table),
    ]
    for laws, label, rep in cases:
        res = enumerate_structures(CensusQuery(n, mode="representatives", **laws))
        assert (res.row.n, res.row.label, res.row.class_count, res.row.raw_count) == \
            (n, label, 1, 1)
        assert res.representatives == (rep,)
    assert minimal_image(table) == (0,) * n


def test_determinism_and_workers(monkeypatch):
    # the census starts no process, whatever the worker count
    def no_process(*args, **kwargs):
        raise AssertionError("the census started a process")
    monkeypatch.setattr(multiprocessing, "Pool", no_process)
    monkeypatch.setattr(os, "fork", no_process)
    queries = [
        CensusQuery(4, (MagmaLaw.RIGHT_PLONKA, MagmaLaw.RIGHT_INVOLUTORY),
                    mode="representatives"),
        # left Plonka laws are searched on the transpose
        CensusQuery(4, (MagmaLaw.LEFT_PLONKA, MagmaLaw.LEFT_INVOLUTORY),
                    mode="representatives"),
        # the generic sweep
        CensusQuery(2, (MagmaLaw.ASSOCIATIVE,), mode="representatives"),
    ]
    for query in queries:
        first = enumerate_structures(query)
        second = enumerate_structures(query)
        assert first.representatives == second.representatives
        two = enumerate_structures(query, workers=2)
        assert two.representatives == first.representatives
        assert two.row.class_count == first.row.class_count
        assert two.row.raw_count == first.row.raw_count
    left = enumerate_structures(queries[1], workers=2).row
    assert (left.class_count, left.raw_count) == (12, 70)


def test_workers_below_one_rejected():
    query = CensusQuery(2, (MagmaLaw.RIGHT_PLONKA,))
    for workers in (0, -1):
        with pytest.raises(ValueError):
            enumerate_structures(query, workers=workers)


def test_census_guard():
    with pytest.raises(GuardExceeded):
        enumerate_structures(CensusQuery(4, (MagmaLaw.ASSOCIATIVE,)))
    with pytest.raises(GuardExceeded):
        enumerate_structures(CensusQuery(9, (MagmaLaw.RIGHT_PLONKA,)))


def test_tsv_shape():
    res = enumerate_structures(CensusQuery(2, (MagmaLaw.RIGHT_PLONKA,)))
    fields = res.row.tsv().split("\t")
    assert fields[0] == "2" and fields[1] == "right_plonka"
    assert fields[2] == "3"
    int(fields[3]), int(fields[4])


# ---------------------------------------------------------------------------
# bi-magma censuses: checker route vs partition-data route


def _all_bi_partition_data(n):
    """Every valid bi-partition structure on 0..n-1."""
    def set_partitions(elems):
        if not elems:
            yield []
            return
        first, rest = elems[0], elems[1:]
        for sub in set_partitions(rest):
            for i in range(len(sub)):
                yield sub[:i] + [[first] + sub[i]] + sub[i + 1:]
            yield [[first]] + sub

    for blocks in set_partitions(list(range(n))):
        part = SetPartition(n, tuple(tuple(sorted(b)) for b in blocks))
        k = len(part.blocks)
        sizes = [len(b) for b in part.blocks]
        per_block_choices = []
        for size in sizes:
            maps = list(itertools.product(range(size), repeat=size))
            rows = []
            for f_row in itertools.product(maps, repeat=k):
                if any(not _commute(f_row[a], f_row[b], size)
                       for a in range(k) for b in range(a + 1, k)):
                    continue
                rows.append(f_row)
            per_block_choices.append(rows)
        for f_choice in itertools.product(*per_block_choices):
            for g_choice in itertools.product(*per_block_choices):
                ok = True
                for i, size in enumerate(sizes):
                    for fm in f_choice[i]:
                        for gm in g_choice[i]:
                            if not _commute(fm, gm, size):
                                ok = False
                                break
                        if not ok:
                            break
                    if not ok:
                        break
                if not ok:
                    continue
                f_grid = tuple(tuple(FiniteFunction(sizes[i], fm) for fm in f_choice[i])
                               for i in range(k))
                g_grid = tuple(tuple(FiniteFunction(sizes[i], gm) for gm in g_choice[i])
                               for i in range(k))
                yield BiPlonkaPartition(part, f_grid, g_grid)


def _commute(a, b, size):
    return all(a[b[x]] == b[a[x]] for x in range(size))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_bls_structural_route(n):
    checker_route = enumerate_structures(
        CensusQuery(n, bimagma_laws=(BiMagmaLaw.PLONKA_BIMAGMA,)))
    reps: list[BiMagma] = []
    for data in _all_bi_partition_data(n):
        b = rebuild(data)
        assert check_bimagma_law(b, BiMagmaLaw.PLONKA_BIMAGMA).holds
        if not any(structured_iso(b, rep) for rep in reps):
            reps.append(b)
    assert checker_route.row.class_count == len(reps), n


def _bimagma(n, flat):
    return BiMagma(CayleyTable.from_flat(n, flat[:n * n]), CayleyTable.from_flat(n, flat[n * n:]))


def test_bls_rmap_filter_agrees_exhaustively_n2():
    # the truly raw route at n = 2: all 256 bi-magmas through the R-map
    # BLS checker, against the census, which searches Plonka bi-magmas only
    solutions = [flat for flat in itertools.product(range(2), repeat=8)
                 if check_rmap_law(canonical_correspondence(_bimagma(2, flat)), RMapLaw.BLS).holds]
    classes, raw_count = _orbit_dedupe(2, [_stack(*solutions)])
    assert (len(classes), raw_count) == (7, 10)
    res = enumerate_structures(CensusQuery(2, rmap_laws=(RMapLaw.BLS,), mode="representatives"))
    assert (res.row.class_count, res.row.raw_count) == (7, 10)
    assert res.representatives == tuple(_bimagma(2, flat) for flat in classes)


def _transpose_flat(flat, n):
    return tuple(flat[y * n + x] for x in range(n) for y in range(n))


def _dot_star_route(query):
    """The raw bi-magmas by the pair route: every right Plonka dot with every
    left Plonka star, the pair kept when it passes every law of the query."""
    n = query.n
    dots = stack_rows(_raw_stream(CensusQuery(n, (MagmaLaw.RIGHT_PLONKA,)), DEFAULT_LIMITS))
    for d in dots:
        for s in map(_transpose_flat, dots, itertools.repeat(n)):
            b = _bimagma(n, d + s)
            if all(check_bimagma_law(b, law).holds for law in query.bimagma_laws) and \
               all(check_rmap_law(canonical_correspondence(b), law).holds
                   for law in query.rmap_laws):
                yield d + s


@pytest.mark.parametrize("laws", [{"bimagma_laws": (BiMagmaLaw.PLONKA_BIMAGMA,)},
                                  {"rmap_laws": (RMapLaw.BLS,)}])
def test_two_grid_search_matches_dot_star_pairs(laws):
    for n in (0, 1, 2, 3):
        query = CensusQuery(n, **laws)
        stream = stack_rows(_raw_stream(query, DEFAULT_LIMITS))
        assert sorted(stream) == sorted(_dot_star_route(query)), n
        assert len(stream) == {0: 1, 1: 1, 2: 10, 3: 249}[n]


# not a Plonka bi-magma: dot (1, 0, 0, 1) fails the right Plonka laws, with
# the zero star; each cell lists dot[x][y], then star[y][x]
_NOT_PLONKA_BIMAGMA = (1, 0, 0, 0, 0, 0, 1, 0)


@pytest.mark.parametrize("laws", [{"bimagma_laws": (BiMagmaLaw.PLONKA_BIMAGMA,)},
                                  {"rmap_laws": (RMapLaw.BLS,)}])
def test_two_grid_search_result_failing_plonka_is_typed(monkeypatch, laws):
    b = _bimagma(2, (1, 0, 0, 1, 0, 0, 0, 0))
    assert not check_bimagma_law(b, BiMagmaLaw.PLONKA_BIMAGMA).holds
    monkeypatch.setattr(census, "_iter_plonka_tables",
                        lambda n, pool, band: iter([_stack(_NOT_PLONKA_BIMAGMA)]))
    with pytest.raises(CrossCheckFailed, match="column search produced bi-magma"):
        enumerate_structures(CensusQuery(2, **laws))


def test_two_grid_search_result_failing_bls_is_typed(monkeypatch):
    # no Plonka bi-magma fails BLS, so the Plonka check is made to pass a
    # bi-magma that fails both
    b = _bimagma(2, (1, 0, 0, 1, 0, 0, 0, 0))
    assert not check_rmap_law(canonical_correspondence(b), RMapLaw.BLS).holds
    real = census.check_laws_batch
    monkeypatch.setattr(census, "check_laws_batch", lambda stack, laws, *k: real(
        stack, [law for law in laws if law is not BiMagmaLaw.PLONKA_BIMAGMA], *k))
    monkeypatch.setattr(census, "_iter_plonka_tables",
                        lambda n, pool, band: iter([_stack(_NOT_PLONKA_BIMAGMA)]))
    with pytest.raises(CrossCheckFailed, match="Plonka bi-magma .* that fails bls"):
        enumerate_structures(CensusQuery(2, rmap_laws=(RMapLaw.BLS,)))
    # without bls in the query the table is not checked for it
    query = CensusQuery(2, bimagma_laws=(BiMagmaLaw.PLONKA_BIMAGMA,))
    assert stack_rows(_raw_stream(query, DEFAULT_LIMITS)) == [(1, 0, 0, 1, 0, 0, 0, 0)]


@pytest.mark.parametrize("laws", [{"rmap_laws": (RMapLaw.BLS, RMapLaw.UNITARY)},
                                  {"rmap_laws": (RMapLaw.BLS, RMapLaw.INVOLUTIVE)},
                                  {"bimagma_laws": (BiMagmaLaw.UNITARY_PLONKA_BIMAGMA,)},
                                  {"bimagma_laws": (BiMagmaLaw.PLONKA_BIMAGMA,
                                                    BiMagmaLaw.LYUBASHENKO_FORM)}])
def test_two_grid_search_filters_the_other_laws(laws):
    for n in (0, 1, 2, 3):
        query = CensusQuery(n, **laws)
        stream = stack_rows(_raw_stream(query, DEFAULT_LIMITS))
        assert sorted(stream) == sorted(_dot_star_route(query)), n
        assert n < 2 or 0 < len(stream) < 249


def test_one_grid_pool_guard_refuses_before_building():
    # all 7**7 self-maps: refused at once, not after building the pool
    start = time.perf_counter()
    with pytest.raises(GuardExceeded, match="823543 self-maps refused"):
        enumerate_structures(CensusQuery(7, (MagmaLaw.RIGHT_PLONKA,)))
    assert time.perf_counter() - start < 1
    # all 6**6 maps pass, and so do the involutions on 7 points
    for query in (CensusQuery(6, (MagmaLaw.RIGHT_PLONKA,)),
                  CensusQuery(7, (MagmaLaw.RIGHT_PLONKA, MagmaLaw.RIGHT_INVOLUTORY))):
        assert next(_raw_stream(query, DEFAULT_LIMITS)).shape[1] == query.n ** 2


def test_one_grid_pool_guard_counts_every_pool(monkeypatch):
    monkeypatch.setattr(census, "_ONE_GRID_POOL", 100)
    # the 120 permutations on 5 points are over the limit, the 76 involutions on 6 are not
    with pytest.raises(GuardExceeded, match="over 120 permutations refused; the pool limit is 100"):
        enumerate_structures(CensusQuery(5, (MagmaLaw.RIGHT_PLONKA,), predicates=("right_simple",)))
    query = CensusQuery(6, (MagmaLaw.RIGHT_PLONKA, MagmaLaw.RIGHT_INVOLUTORY))
    assert enumerate_structures(query).row.class_count == 164
    with pytest.raises(GuardExceeded, match="all 256 self-maps refused"):
        enumerate_structures(CensusQuery(4, (MagmaLaw.RIGHT_PLONKA,)))


def test_one_grid_pool_guard_counts_before_building(monkeypatch):
    # the counted pool sizes are the built ones
    for n in range(8):
        for orders, permutations in [(None, False), (None, True)] + \
                [(k, False) for k in range(1, 13)]:
            assert census._pool_size(n, orders, permutations) == \
                len(_function_pool(n, orders, permutations)), (n, orders, permutations)
    # the 232 involutions on 7 points are refused before any permutation row exists
    def refuse(n):
        raise AssertionError("the guard built permutation rows")
    monkeypatch.setattr(census, "_ONE_GRID_POOL", 100)
    monkeypatch.setattr(census, "_permutation_array", refuse)
    with pytest.raises(GuardExceeded, match="over 232 permutations refused; the pool limit is 100"):
        enumerate_structures(CensusQuery(7, (MagmaLaw.RIGHT_PLONKA, MagmaLaw.RIGHT_INVOLUTORY)))


def test_generic_sweeps_are_bounded_by_their_tables():
    # 3**9 magma tables on 3 points and 2**8 bi-magmas on 2 points are swept
    assert enumerate_structures(CensusQuery(3, (MagmaLaw.ASSOCIATIVE,))).row.raw_count > 0
    query = CensusQuery(2, bimagma_laws=(BiMagmaLaw.YANG_BAXTER_BIMAGMA,))
    assert enumerate_structures(query).row.raw_count > 0
    with pytest.raises(GuardExceeded, match=f"generic table sweep of {4 ** 16} tables refused"):
        enumerate_structures(CensusQuery(4, (MagmaLaw.ASSOCIATIVE,)))
    with pytest.raises(GuardExceeded, match=f"generic bi-magma sweep of {3 ** 18} tables refused"):
        enumerate_structures(CensusQuery(3, bimagma_laws=(BiMagmaLaw.YANG_BAXTER_BIMAGMA,)))


@pytest.mark.parametrize("laws", [{"rmap_laws": (RMapLaw.YANG_BAXTER,)},
                                  {"rmap_laws": (RMapLaw.INVOLUTIVE,)},
                                  {"bimagma_laws": (BiMagmaLaw.YANG_BAXTER_BIMAGMA,)},
                                  {"bimagma_laws": (BiMagmaLaw.LYUBASHENKO_FORM,)}])
def test_generic_bimagma_sweep_matches_product_filter(laws):
    # the sweep yields, in order, the dot + star flats of itertools.product that pass
    for n in (0, 1, 2):
        query = CensusQuery(n, **laws)
        expected = []
        for flat in itertools.product(range(n), repeat=2 * n * n):
            b = BiMagma.from_flat(n, flat)
            if all(check_bimagma_law(b, law).holds for law in query.bimagma_laws) and \
               all(check_rmap_law(canonical_correspondence(b), law).holds
                   for law in query.rmap_laws):
                expected.append(flat)
        assert stack_rows(_raw_stream(query, DEFAULT_LIMITS)) == expected, n
        assert n < 2 or 0 < len(expected) < 2 ** 8


def test_involutory_raw_count_closed_form():
    assert [census._involutory_raw_count(n) for n in range(1, 9)] == \
        [1, 2, 10, 70, 916, 16636, 494824, 20486432]
    for n in range(6):
        query = CensusQuery(n, (MagmaLaw.RIGHT_PLONKA, MagmaLaw.RIGHT_INVOLUTORY))
        assert enumerate_structures(query).row.raw_count == census._involutory_raw_count(n)


def test_involutory_raw_count_mismatch_is_typed(monkeypatch):
    monkeypatch.setattr(census, "_involutory_raw_count", lambda n: 71)
    with pytest.raises(CrossCheckFailed, match="found 70 raw tables, the closed count says 71"):
        enumerate_structures(CensusQuery(4, (MagmaLaw.RIGHT_INVOLUTORY, MagmaLaw.RIGHT_PLONKA)))
    # other queries are not held to it
    enumerate_structures(CensusQuery(4, (MagmaLaw.RIGHT_PLONKA,)))


def test_left_mirror_is_held_to_the_right_counts(monkeypatch):
    # the transpose is a bijection of labelled tables and of classes
    left = (MagmaLaw.LEFT_PLONKA, MagmaLaw.LEFT_INVOLUTORY)
    for n, classes, raw in ((4, 12, 70), (5, 37, 916)):
        row = enumerate_structures(CensusQuery(n, left)).row
        assert (row.label, row.class_count, row.raw_count) == \
            ("left_plonka+left_involutory", classes, raw)
    assert enumerate_structures(CensusQuery(3, (MagmaLaw.LEFT_PLONKA,))).row.label == \
        "left_plonka"
    # a right law, a predicate or a law without a mirror keeps the row unverified
    for query in (CensusQuery(3, (MagmaLaw.LEFT_PLONKA, MagmaLaw.RIGHT_INVOLUTORY)),
                  CensusQuery(3, (MagmaLaw.LEFT_PLONKA,), predicates=("right_simple",)),
                  CensusQuery(3, (MagmaLaw.LEFT_PLONKA, MagmaLaw.ASSOCIATIVE))):
        assert enumerate_structures(query).row.label.endswith(" [unverified]")
    monkeypatch.setitem(census.KNOWN_COUNTS, ("right_plonka+right_involutory", 4), 13)
    with pytest.raises(CrossCheckFailed, match=r"census left_plonka\+left_involutory at n=4 "
                                               "found 12 classes, literature says 13"):
        enumerate_structures(CensusQuery(4, left))
    monkeypatch.setattr(census, "_involutory_raw_count", lambda n: 917)
    with pytest.raises(CrossCheckFailed, match="found 916 raw tables, the closed count says 917"):
        enumerate_structures(CensusQuery(5, (MagmaLaw.LEFT_INVOLUTORY, MagmaLaw.LEFT_PLONKA)))


def test_k_cyclic_at_two_is_held_to_the_right_involutory_counts(monkeypatch):
    # k_cyclic at k = 2 is the right involutory law: the same pool, classes and raw tables
    laws = (MagmaLaw.RIGHT_PLONKA, MagmaLaw.K_CYCLIC)
    for n, classes, raw in ((1, 1, 1), (2, 2, 2), (3, 4, 10), (4, 12, 70), (5, 37, 916),
                            (6, 164, 16636)):
        row = enumerate_structures(CensusQuery(n, laws, k=2)).row
        assert (row.label, row.class_count, row.raw_count) == \
            ("right_plonka+k_cyclic[2]", classes, raw)
    assert enumerate_structures(CensusQuery(4, laws, k=3)).row.label.endswith(" [unverified]")
    monkeypatch.setitem(census.KNOWN_COUNTS, ("right_plonka+right_involutory", 4), 13)
    with pytest.raises(CrossCheckFailed, match=r"census right_plonka\+k_cyclic\[2\] at n=4 "
                                               "found 12 classes, literature says 13"):
        enumerate_structures(CensusQuery(4, laws, k=2))
    monkeypatch.setattr(census, "_involutory_raw_count", lambda n: 917)
    with pytest.raises(CrossCheckFailed, match=r"census right_plonka\+k_cyclic\[2\] at n=5 "
                                               "found 916 raw tables, the closed count says 917"):
        enumerate_structures(CensusQuery(5, laws, k=2))


def test_census_phase_times():
    query = CensusQuery(3, (MagmaLaw.RIGHT_PLONKA, MagmaLaw.TOTAL))
    start = time.perf_counter()
    stats = enumerate_structures(query).stats
    elapsed = time.perf_counter() - start
    phases = (stats.search_s, stats.batch_check_s, stats.object_check_s, stats.dedupe_s)
    assert all(t > 0 for t in phases) and sum(phases) <= elapsed
    # equality ignores the times
    assert stats == CensusStats(stats.nodes, stats.raw_tables, stats.batch_rejects,
                                stats.object_rejects, stats.orbit_images)


# each census's exact counters, which do not depend on how its tables are batched
_PINNED_STATS = {
    CensusQuery(4, (MagmaLaw.RIGHT_PLONKA, MagmaLaw.RIGHT_INVOLUTORY)):
        CensusStats((1, 10, 36, 58, 70), 70, 0, 0, 288),
    CensusQuery(3, (MagmaLaw.RIGHT_PLONKA, MagmaLaw.ASSOCIATIVE)):       # batch rejects
        CensusStats((1, 27, 43, 45), 45, 35, 0, 18),
    CensusQuery(3, (MagmaLaw.RIGHT_PLONKA, MagmaLaw.COMMUTATIVE)):
        CensusStats((1, 27, 43, 45), 45, 42, 0, 6),
    CensusQuery(3, (MagmaLaw.RIGHT_PLONKA,), predicates=("right_simple",)):
        CensusStats((1, 6, 10, 12), 12, 0, 10, 6),
    CensusQuery(3, rmap_laws=(RMapLaw.BLS, RMapLaw.INVOLUTIVE)):
        CensusStats((1, 141, 237, 249), 249, 203, 0, 96),
    CensusQuery(2, (MagmaLaw.ASSOCIATIVE,)):                              # the generic sweeps
        CensusStats((), 16, 8, 0, 10),
    CensusQuery(2, rmap_laws=(RMapLaw.YANG_BAXTER,)):
        CensusStats((), 256, 213, 0, 52),
    CensusQuery(3, (MagmaLaw.RIGHT_PLONKA, MagmaLaw.TOTAL)):             # object rejects
        CensusStats((1, 27, 43, 45), 45, 0, 21, 42),
    CensusQuery(4, (MagmaLaw.RIGHT_PLONKA, MagmaLaw.BAND)):              # band-cut pools
        CensusStats((1, 64, 218, 196, 150), 150, 0, 0, 288),
    CensusQuery(4, (MagmaLaw.TWO_CYCLIC,)):
        CensusStats((1, 4, 10, 16, 22), 22, 0, 0, 96),
    CensusQuery(3, bimagma_laws=(BiMagmaLaw.PLONKA_BIMAGMA,)):          # the two-grid search
        CensusStats((1, 141, 237, 249), 249, 0, 0, 330),
}


@pytest.mark.parametrize("query", list(_PINNED_STATS))
def test_census_stats_add_up(query):
    res = enumerate_structures(query)
    stats, n = res.stats, query.n
    assert stats == _PINNED_STATS[query]
    assert stats.raw_tables - stats.batch_rejects - stats.object_rejects == res.row.raw_count
    assert stats.orbit_images == res.row.class_count * math.factorial(n)
    if query.magma_laws == (MagmaLaw.ASSOCIATIVE,) or query.rmap_laws == (RMapLaw.YANG_BAXTER,):
        grids = 1 if query.magma_laws else 2
        assert stats.nodes == () and stats.raw_tables == n ** (grids * n * n)
    else:
        assert len(stats.nodes) == n + 1 and stats.nodes[0] == 1
        assert stats.nodes[-1] == stats.raw_tables
    assert (stats.batch_rejects > 0) == (MagmaLaw.ASSOCIATIVE in query.magma_laws
                                         or MagmaLaw.COMMUTATIVE in query.magma_laws
                                         or bool(query.rmap_laws))
    assert (stats.object_rejects > 0) == (MagmaLaw.TOTAL in query.magma_laws
                                          or bool(query.predicates))


def test_rmap_law_censuses_build_no_rmap(monkeypatch):
    # every R-map law has a batch kernel, so a census over it never builds an
    # R-map, alone on the sweep of every bi-magma or with bls on the search
    queries = [CensusQuery(n, rmap_laws=laws)
               for law in RMapLaw for n, laws in ((2, (law,)), (3, (RMapLaw.BLS, law)))]

    def counts():
        return [(row.class_count, row.raw_count)
                for row in (enumerate_structures(query).row for query in queries)]
    expected = counts()

    def refuse(self):
        raise AssertionError("the census built an RMap")
    monkeypatch.setattr(RMap, "__post_init__", refuse)
    with pytest.raises(AssertionError):
        RMap(1, ((0, 0),))
    assert counts() == expected


def test_equational_law_censuses_build_no_tables(monkeypatch):
    # every equational magma and bi-magma law has a batch kernel, so a census
    # over one builds no CayleyTable or BiMagma, alone on the sweep of every
    # table or with right_plonka or plonka_bimagma on the search
    magma = [law for law in MagmaLaw if law in BATCH_LAWS]
    queries = [CensusQuery(n, laws, k=2 if law is MagmaLaw.K_CYCLIC else None)
               for law in magma for n, laws in ((2, (law,)), (3, (MagmaLaw.RIGHT_PLONKA, law)))]
    queries += [CensusQuery(n, bimagma_laws=laws)
                for law in (BiMagmaLaw.YANG_BAXTER_BIMAGMA, BiMagmaLaw.LYUBASHENKO_FORM)
                for n, laws in ((2, (law,)), (3, (BiMagmaLaw.PLONKA_BIMAGMA, law)))]

    def counts():
        return [(row.class_count, row.raw_count)
                for row in (enumerate_structures(query).row for query in queries)]
    expected = counts()

    def refuse(self):
        raise AssertionError("the census built a table")
    monkeypatch.setattr(CayleyTable, "__post_init__", refuse)
    with pytest.raises(AssertionError):
        CayleyTable(1, ((0,),))
    assert counts() == expected


def test_two_grid_search_guard():
    for laws in ({"bimagma_laws": (BiMagmaLaw.PLONKA_BIMAGMA,)}, {"rmap_laws": (RMapLaw.BLS,)},
                 {"bimagma_laws": (BiMagmaLaw.UNITARY_PLONKA_BIMAGMA,)}):
        with pytest.raises(GuardExceeded, match="limited to n <= 4"):
            enumerate_structures(CensusQuery(5, **laws))
        with pytest.raises(GuardExceeded, match="limited to n <= 3"):
            enumerate_structures(CensusQuery(4, **laws), Limits(census_carrier=3))
    with pytest.raises(GuardExceeded, match="generic bi-magma sweep"):
        enumerate_structures(CensusQuery(3, bimagma_laws=(BiMagmaLaw.YANG_BAXTER_BIMAGMA,)))


def test_predicates_on_bimagma_queries_rejected():
    for laws in ({"bimagma_laws": (BiMagmaLaw.PLONKA_BIMAGMA,)}, {"rmap_laws": (RMapLaw.BLS,)}):
        with pytest.raises(ValueError, match="predicates apply to magma queries only"):
            CensusQuery(2, predicates=("right_simple",), **laws)


# ---------------------------------------------------------------------------
# simple-solution census


def test_simple_bls_counts():
    def divisor_sum(t):
        return sum(d for d in range(1, t + 1) if t % d == 0)
    for t in (1, 2, 6):
        res = census_simple_bls(t)
        assert res.count == divisor_sum(t)
        assert res.pair_route_count == res.count
        assert not res.single_route


def test_simple_bls_guard_single_route():
    res = census_simple_bls(12, Limits(simple_bls_brute=4))
    assert res.single_route
    assert res.count == 28  # divisor sum of 12


def _invert(p):
    q = [0] * len(p)
    for i, v in enumerate(p):
        q[v] = i
    return tuple(q)


def _conjugate(sigma, f):
    inv = _invert(sigma)
    return tuple(sigma[f[inv[x]]] for x in range(len(f)))


def _pair_sweep_oracle(n):
    """The pure-Python commuting-pair sweep: cycle types in partition order,
    centralizer elements in lexicographic order, each new one's orbit under
    conjugation by the centralizer marked seen."""
    perms = list(itertools.permutations(range(n)))
    for cycle_type in _partitions(n):
        f = _perm_from_cycle_type(cycle_type, n)
        centralizer = [g for g in perms if all(f[g[x]] == g[f[x]] for x in range(n))]
        seen = set()
        for g in centralizer:
            if g not in seen:
                seen.update(_conjugate(sigma, g) for sigma in centralizer)
                yield f, g


@pytest.mark.parametrize("n", range(8))
def test_permutation_array_is_itertools_order(n):
    rows = census._permutation_array(n)
    assert rows.dtype == np.uint8
    assert list(map(tuple, rows.tolist())) == list(itertools.permutations(range(n)))


@pytest.mark.parametrize("n", range(8))
def test_commuting_pairs_match_python_sweep(n):
    pairs = list(commuting_permutation_pairs_up_to_conjugacy(n))
    assert pairs == list(_pair_sweep_oracle(n))
    assert all(type(v) is int for f, g in pairs for v in f + g)
    if n == 0:
        assert pairs == [((), ())]


@pytest.mark.parametrize("n", [3, 4])
def test_commuting_pair_reps_are_exhaustive(n):
    # every commuting permutation pair on n points is simultaneously
    # conjugate to exactly one listed representative
    reps = list(commuting_permutation_pairs_up_to_conjugacy(n))
    perms = list(itertools.permutations(range(n)))
    covered = set()
    for f, g in reps:
        orbit = {(_conjugate(sigma, f), _conjugate(sigma, g)) for sigma in perms}
        assert not (orbit & covered)  # representatives are pairwise non-conjugate
        covered |= orbit
    all_pairs = {(f, g) for f in perms for g in perms
                 if all(f[g[x]] == g[f[x]] for x in range(n))}
    assert covered == all_pairs


def test_simple_bls_pair_route_failure_is_typed(monkeypatch):
    # a second route that accepts every pair must disagree with the triples
    monkeypatch.setattr(census, "is_incompressible", lambda family: True)
    with pytest.raises(CrossCheckFailed, match="simple-solution routes disagree at t=4"):
        census_simple_bls(4)


def _drop_first_generator(cycle_type, n):
    return _centralizer_generators(cycle_type, n)[1:]


def _transposition_generator(cycle_type, n):
    return [np.array([1, 0] + list(range(2, n)), dtype=np.uint8)]


def _drop_last_row(cycle_type, n):
    rows, codes = _centralizer(cycle_type, n)
    return rows[:-1], codes[:-1]


@pytest.mark.parametrize("name, sabotage, message", [
    # conjugation by a proper subgroup splits orbits: too many classes
    ("_centralizer_generators", _drop_first_generator, "commuting-pair sweep at n=4 found"),
    # the swap of points 0 and 1 does not commute with the 4-cycle
    ("_centralizer_generators", _transposition_generator, "does not commute"),
    # in Z_2 wr S_2, a conjugate of another row is the dropped last row
    ("_centralizer", _drop_last_row, "misses the centralizer"),
])
def test_commuting_pair_sweep_failure_is_typed(monkeypatch, name, sabotage, message):
    monkeypatch.setattr(census, name, sabotage)
    with pytest.raises(CrossCheckFailed, match=message):
        census_simple_bls(4)


def test_simple_bls_triples_come_in_divisor_order():
    # the O(sqrt t) divisor listing keeps the order of a loop over m = 1..t
    limits = Limits(simple_bls_brute=0)
    for t in range(1, 400):
        expected = [(m, t // m, d) for m in range(1, t + 1) if t % m == 0 for d in range(1, m + 1)]
        assert [(x.m, x.n, x.d) for x in census_simple_bls(t, limits).triples] == expected


def test_simple_bls_guard_counts_the_triples():
    # sigma(12) = 28: refused by the triple count, under the limit by t
    with pytest.raises(GuardExceeded, match=r"t=12 would list 28 triples \(limit 27\)"):
        census_simple_bls(12, Limits(family_enum=27))
    assert census_simple_bls(12, Limits(family_enum=28)).count == 28
    with pytest.raises(GuardExceeded, match="at least 28 triples"):
        census_simple_bls(28, Limits(family_enum=27))


def test_simple_bls_default_guard_is_single_route_beyond():
    # one past the default limit is refused by the pair sweep, not run
    t = DEFAULT_LIMITS.simple_bls_brute + 1
    res = census_simple_bls(t)
    assert res.single_route and res.count == sum(d for d in range(1, t + 1) if t % d == 0)


# ---------------------------------------------------------------------------
# conjugacy classes of self-maps


def _orbit_partition_oracle(n, connected_only):
    """The pure-Python orbit route: every self-map in product order, each
    unseen one counted and its conjugates under every relabelling marked."""
    perms = list(itertools.permutations(range(n)))
    seen = set()
    count = 0
    for f in itertools.product(range(n), repeat=n):
        if f in seen:
            continue
        if not connected_only or len(connected_components(n, [FiniteFunction(n, f)]).blocks) <= 1:
            count += 1
        seen.update(_conjugate(p, f) for p in perms)
    return count


# OEIS A001372 (all mapping patterns, n = 0..12) and A002861 (connected
# ones, n = 1..12)
MAPPING_PATTERNS = [1, 1, 3, 7, 19, 47, 130, 343, 951, 2615, 7318, 20491, 57903]
CONNECTED_PATTERNS = [1, 2, 4, 9, 20, 51, 125, 329, 862, 2311, 6217, 16949]


@pytest.mark.parametrize("n", range(6))
def test_conjugacy_orbit_route_matches_python_partition(n):
    for connected_only in (False, True):
        assert function_conjugacy_census(n, connected_only) == \
            _orbit_partition_oracle(n, connected_only)


@pytest.mark.parametrize("n", (6, 7))
def test_conjugacy_orbit_route_matches_oeis(n):
    # the orbit sweep beyond the pure-Python oracle's reach; the Polya
    # count is asserted inside the call
    assert function_conjugacy_census(n) == MAPPING_PATTERNS[n]
    assert function_conjugacy_census(n, connected_only=True) == CONNECTED_PATTERNS[n - 1]


def test_polya_count_matches_oeis():
    connected = census._connected_mapping_patterns(12)
    assert connected[1:] == CONNECTED_PATTERNS
    assert census._euler_transform(connected, 12) == MAPPING_PATTERNS


def test_euler_transform_of_ones_is_partition_numbers():
    partitions = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77]
    assert census._euler_transform([1] * 13, 12) == partitions
    known = [census.KNOWN_COUNTS[("right_plonka+associative", n)] for n in range(1, 13)]
    assert known == partitions[1:]


def test_conjugacy_census_values():
    assert function_conjugacy_census(1) == 1
    assert function_conjugacy_census(2) == 3     # identity, swap, constant
    assert function_conjugacy_census(1, connected_only=True) == 1
    # dual-method agreement is asserted inside the operation
    for n in (3, 4, 5):
        all_classes = function_conjugacy_census(n)
        connected = function_conjugacy_census(n, connected_only=True)
        assert connected < all_classes


def test_conjugacy_census_failure_is_typed(monkeypatch):
    # a Polya count that finds no connected pattern must disagree with the orbits
    monkeypatch.setattr(census, "_connected_mapping_patterns", lambda limit: [0] * (limit + 1))
    with pytest.raises(CrossCheckFailed, match="conjugacy census methods disagree at n=4"):
        function_conjugacy_census(4)
    with pytest.raises(CrossCheckFailed, match="conjugacy census methods disagree at n=4"):
        function_conjugacy_census(4, connected_only=True)


def test_conjugacy_census_guard():
    with pytest.raises(GuardExceeded):
        function_conjugacy_census(9)
