import itertools
import multiprocessing
import operator
import os
import random

import pytest

from ybmag import (BiMagma, BiMagmaLaw, CayleyTable, CensusQuery, FiniteFunction,
                   FunctionFamily, Limits, MagmaLaw, RMapLaw, SetPartition, are_isomorphic,
                   canonical_correspondence, census_simple_bls, check_bimagma_law,
                   check_magma_law, check_rmap_law, is_incompressible,
                   commuting_permutation_pairs_up_to_conjugacy,
                   enumerate_structures, function_conjugacy_census,
                   minimal_image, rebuild, structured_iso)
from ybmag import census
from ybmag.census import (_bimagma_raw_stream, _function_pool, _is_connected_map,
                          _iter_plonka_tables, _magma_raw_stream, _orbit, _orbit_dedupe,
                          _perm_from_cycle_type, _relabelling_gather, _transpose_flat)
from ybmag.core import DEFAULT_LIMITS, CrossCheckFailed, GuardExceeded
from ybmag.families import _partitions
from ybmag.plonka import BiPlonkaPartition


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
    pool = _function_pool(n, orders, False)
    laws = (MagmaLaw.RIGHT_PLONKA, MagmaLaw.BAND) if band else (MagmaLaw.RIGHT_PLONKA,)
    expected = []
    for cols in itertools.product(pool, repeat=n):
        flat = tuple(cols[y][x] for x in range(n) for y in range(n))
        if all(check_magma_law(CayleyTable.from_flat(n, flat), law).holds for law in laws):
            expected.append(flat)
    assert list(_iter_plonka_tables(n, pool, band)) == expected


@pytest.mark.parametrize("band, count", [(False, 964), (True, 150)])
def test_column_backtracker_is_sound_at_n4(band, count):
    # too many column tuples for the product oracle: check that each table
    # is right Plonka (and a band when asked), comes once and in pool order,
    # and that all of them come (964 tables, 150 of them bands, found by a
    # sweep over pairwise commuting column tuples)
    pool = _function_pool(4, None, False)
    index = {col: i for i, col in enumerate(pool)}
    laws = (MagmaLaw.RIGHT_PLONKA, MagmaLaw.BAND) if band else (MagmaLaw.RIGHT_PLONKA,)
    keys = []
    for flat in _iter_plonka_tables(4, pool, band):
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
            assert _function_pool(n, orders, permutations_only) == \
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
    transpose = MagmaLaw.LEFT_PLONKA in laws and MagmaLaw.RIGHT_PLONKA not in laws
    if transpose:
        laws = {MagmaLaw.RIGHT_PLONKA if law is MagmaLaw.LEFT_PLONKA else law for law in laws}
        if MagmaLaw.LEFT_INVOLUTORY in laws:
            laws.discard(MagmaLaw.LEFT_INVOLUTORY)
            laws.add(MagmaLaw.RIGHT_INVOLUTORY)
    orders = None
    if MagmaLaw.RIGHT_INVOLUTORY in laws or MagmaLaw.TWO_CYCLIC in laws:
        orders = 2
    elif MagmaLaw.K_CYCLIC in laws:
        orders = query.k
    band = MagmaLaw.BAND in laws or MagmaLaw.TWO_CYCLIC in laws
    simple = "right_simple" in query.predicates
    pool = _product_filter_pool(n, orders, simple)
    for flat in _iter_plonka_tables(n, pool, band):
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
    # on the transpose the pool cuts the rows, so k-cyclic is checked per table
    ((MagmaLaw.LEFT_PLONKA, MagmaLaw.K_CYCLIC), 1, ()),
]


@pytest.mark.parametrize("laws, k, predicates", _STREAM_CASES)
def test_raw_stream_matches_per_table_recheck(laws, k, predicates):
    for n in (0, 1, 2, 3, 4):
        query = CensusQuery(n, laws, k=k, predicates=predicates)
        assert list(_magma_raw_stream(query, DEFAULT_LIMITS)) == list(_recheck_route(query)), n


def test_involutory_raw_stream_matches_per_table_recheck_n5():
    query = CensusQuery(5, (MagmaLaw.RIGHT_PLONKA, MagmaLaw.RIGHT_INVOLUTORY))
    stream = list(_magma_raw_stream(query, DEFAULT_LIMITS))
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
    monkeypatch.setattr(census, "_iter_plonka_tables", lambda n, pool, band: iter([table]))
    with pytest.raises(CrossCheckFailed, match="column search produced"):
        enumerate_structures(CensusQuery(n, laws))


def test_k_is_validated_up_front():
    for k in (None, 0, -1, 2.0, True):
        with pytest.raises(ValueError, match="k_cyclic needs"):
            CensusQuery(3, (MagmaLaw.RIGHT_PLONKA, MagmaLaw.K_CYCLIC), k=k)
    with pytest.raises(ValueError, match="k only applies"):
        CensusQuery(3, (MagmaLaw.RIGHT_PLONKA,), k=2)
    with pytest.raises(ValueError, match="k only applies"):
        CensusQuery(3, bimagma_laws=(BiMagmaLaw.PLONKA_BIMAGMA,), k=2)


def test_carrier_is_validated_up_front():
    for n in (-1, -7, 2.0, True):
        with pytest.raises(ValueError, match=rf"carrier size n must be an integer >= 0, got n = {n!r}"):
            CensusQuery(n, (MagmaLaw.RIGHT_PLONKA,))
        with pytest.raises(ValueError, match=rf"got n = {n!r}"):
            function_conjugacy_census(n)


def test_isomorph_rejection_matches_pairwise_oracle():
    # canonical-form class counting vs the brute-force pairwise oracle
    for n in (1, 2, 3):
        raw = [CayleyTable(n, tuple(tuple(f[i * n:(i + 1) * n]) for i in range(n)))
               for f in _magma_raw_stream(CensusQuery(n, (MagmaLaw.RIGHT_PLONKA,)),
                                          DEFAULT_LIMITS)]
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
            yield n, list(_magma_raw_stream(query, DEFAULT_LIMITS))
    query = CensusQuery(5, (MagmaLaw.RIGHT_PLONKA, MagmaLaw.RIGHT_INVOLUTORY))
    yield 5, list(_magma_raw_stream(query, DEFAULT_LIMITS))
    for n in (0, 1, 2, 3):
        yield n, list(_magma_raw_stream(CensusQuery(n, (MagmaLaw.ASSOCIATIVE,)), DEFAULT_LIMITS))
        query = CensusQuery(n, bimagma_laws=(BiMagmaLaw.PLONKA_BIMAGMA,))
        yield n, list(_bimagma_raw_stream(query, DEFAULT_LIMITS))


def test_orbit_dedupe_and_minimal_image_match_reference_on_census_streams():
    for n, stream in _census_streams():
        assert _orbit_dedupe(n, stream) == _reference_orbit_dedupe(n, stream), n
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
            assert _orbit_dedupe(n, stream) == _reference_orbit_dedupe(n, stream), (n, blocks)
            if blocks == 1:
                for flat in flats:
                    expected = tuple(min(_reference_images(relabellings, flat)))
                    assert minimal_image(CayleyTable.from_flat(n, flat)) == expected, flat


def test_orbit_dedupe_requires_whole_orbits_once():
    # x.y = 0 and x.y = 1 are one orbit on two points
    assert _orbit_dedupe(2, [(0, 0, 0, 0), (1, 1, 1, 1)]) == ([(0, 0, 0, 0)], 2)
    for stream in ([(0, 0, 0, 0)], [(0, 0, 0, 0), (1, 1, 1, 1), (0, 0, 0, 0)]):
        with pytest.raises(CrossCheckFailed, match="orbit dedupe on n=2"):
            _orbit_dedupe(2, stream)


def test_census_partial_orbit_is_typed(monkeypatch):
    # x.y = 0 is right Plonka, so it passes the bulk law check, but its
    # orbit also holds x.y = 1, which the stream leaves out
    monkeypatch.setattr(census, "_iter_plonka_tables",
                        lambda n, pool, band: iter([(0, 0, 0, 0)]))
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
    solutions = (flat for flat in itertools.product(range(2), repeat=8)
                 if check_rmap_law(canonical_correspondence(_bimagma(2, flat)), RMapLaw.BLS).holds)
    classes, raw_count = _orbit_dedupe(2, solutions)
    assert (len(classes), raw_count) == (7, 10)
    res = enumerate_structures(CensusQuery(2, rmap_laws=(RMapLaw.BLS,), mode="representatives"))
    assert (res.row.class_count, res.row.raw_count) == (7, 10)
    assert res.representatives == tuple(_bimagma(2, flat) for flat in classes)


def _dot_star_route(query):
    """The raw bi-magmas by the pair route: every right Plonka dot with every
    left Plonka star, the pair kept when it passes every law of the query."""
    n = query.n
    dots = list(_magma_raw_stream(CensusQuery(n, (MagmaLaw.RIGHT_PLONKA,)), DEFAULT_LIMITS))
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
        stream = list(_bimagma_raw_stream(query, DEFAULT_LIMITS))
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
                        lambda n, pool, band: iter([_NOT_PLONKA_BIMAGMA]))
    with pytest.raises(CrossCheckFailed, match="column search produced bi-magma"):
        enumerate_structures(CensusQuery(2, **laws))


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


@pytest.mark.parametrize("n", range(7))
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
        if not connected_only or _is_connected_map(f, n):
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
