import itertools

import pytest

from ybmag import (BiMagma, BiMagmaLaw, CayleyTable, CensusQuery, FiniteFunction,
                   Limits, MagmaLaw, RMapLaw, SetPartition, are_isomorphic,
                   census_simple_bls, check_bimagma_law, check_magma_law,
                   commuting_permutation_pairs_up_to_conjugacy,
                   enumerate_structures, function_conjugacy_census,
                   minimal_image, rebuild, structured_iso)
from ybmag.census import (_function_pool, _iter_plonka_tables, _magma_raw_stream,
                          _process_count)
from ybmag.core import DEFAULT_LIMITS, GuardExceeded
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
    # n = 1 relabels one cell, the single-index case of the cell picker
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
    half = len(pool) // 2
    halves = list(_iter_plonka_tables(n, pool, band, range(0, half))) + \
        list(_iter_plonka_tables(n, pool, band, range(half, len(pool))))
    assert halves == expected


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


def test_determinism_and_workers():
    queries = [
        CensusQuery(4, (MagmaLaw.RIGHT_PLONKA, MagmaLaw.RIGHT_INVOLUTORY),
                    mode="representatives"),
        # the worker split must size its pool from the transposed laws
        CensusQuery(4, (MagmaLaw.LEFT_PLONKA, MagmaLaw.LEFT_INVOLUTORY),
                    mode="representatives"),
        # the generic sweep is not split, so no table is counted twice
        CensusQuery(2, (MagmaLaw.ASSOCIATIVE,), mode="representatives"),
    ]
    for query in queries:
        first = enumerate_structures(query)
        second = enumerate_structures(query)
        assert first.representatives == second.representatives
        parallel = enumerate_structures(query, workers=2)
        assert parallel.representatives == first.representatives
        assert parallel.row.class_count == first.row.class_count
        assert parallel.row.raw_count == first.row.raw_count
    left = enumerate_structures(queries[1], workers=2).row
    assert (left.class_count, left.raw_count) == (12, 70)


def test_process_count_is_bounded_by_jobs_and_cpus():
    assert _process_count(2, 10, 2) == 2
    assert _process_count(1000, 3, 64) == 3
    assert _process_count(1000, 10**6, 4) == 4
    assert _process_count(8, 5, None) == 1
    assert _process_count(1, 5, 8) == 1


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


def test_bls_rmap_filter_agrees_exhaustively_n2():
    # the truly raw route at n = 2: all 256 bi-magmas through the R-map
    # BLS checker
    res = enumerate_structures(CensusQuery(2, rmap_laws=(RMapLaw.BLS,)))
    res2 = enumerate_structures(CensusQuery(2, bimagma_laws=(BiMagmaLaw.PLONKA_BIMAGMA,)))
    assert res.row.class_count == res2.row.class_count
    assert res.row.raw_count == res2.row.raw_count


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


def test_commuting_pair_reps_are_exhaustive_n3():
    # every commuting permutation pair on 3 points is simultaneously
    # conjugate to exactly one listed representative
    reps = list(commuting_permutation_pairs_up_to_conjugacy(3))
    perms = list(itertools.permutations(range(3)))
    covered = set()
    for f, g in reps:
        orbit = set()
        for sigma in perms:
            inv = [0] * 3
            for i, v in enumerate(sigma):
                inv[v] = i
            orbit.add((tuple(sigma[f[inv[x]]] for x in range(3)),
                       tuple(sigma[g[inv[x]]] for x in range(3))))
        assert not (orbit & covered)  # representatives are pairwise non-conjugate
        covered |= orbit
    all_pairs = {(f, g) for f in perms for g in perms
                 if all(f[g[x]] == g[f[x]] for x in range(3))}
    assert covered == all_pairs


# ---------------------------------------------------------------------------
# conjugacy classes of self-maps


def test_conjugacy_census_values():
    assert function_conjugacy_census(1) == 1
    assert function_conjugacy_census(2) == 3     # identity, swap, constant
    assert function_conjugacy_census(1, connected_only=True) == 1
    # dual-method agreement is asserted inside the operation
    for n in (3, 4, 5):
        all_classes = function_conjugacy_census(n)
        connected = function_conjugacy_census(n, connected_only=True)
        assert connected < all_classes


def test_conjugacy_census_guard():
    with pytest.raises(GuardExceeded):
        function_conjugacy_census(9)
