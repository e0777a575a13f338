"""Symmetry-reduced exhaustive enumeration of constrained finite structures.

The magma engine backtracks over table columns: the two right Plonka laws
say precisely that the columns pairwise commute and that column r_z(y)
equals column y, so partial assignments prune hard.  Isomorph rejection
expands the full relabelling orbit of each newly seen table once; the
canonical representative of a class is the lexicographically minimal
flattened table in its orbit.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import time
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from .core import (BiMagma, CayleyTable, GuardExceeded, Limits, DEFAULT_LIMITS,
                   FiniteFunction, canonical_correspondence)
from .families import FunctionFamily, OdometerTriple, _partitions, is_incompressible
from .laws import (BiMagmaLaw, MagmaLaw, RMapLaw, check_bimagma_law,
                   check_magma_law, check_rmap_law)
from .plonka import UnionFind


# ---------------------------------------------------------------------------
# canonical forms and orbit bookkeeping


def _relabellings(n: int, length: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Each permutation sigma of 0..n-1 with the source cells of its
    relabelling on ``length`` cells, one flattened table or several
    concatenated on the same carrier: x -> sigma(x) moves ``flat`` to the
    tuple with sigma[flat[src[j]]] at cell j."""
    out = []
    for sigma in itertools.permutations(range(n)):
        inv = [0] * n
        for x, s in enumerate(sigma):
            inv[s] = x
        cells = [inv[x] * n + inv[y] for x in range(n) for y in range(n)]
        out.append((sigma, tuple(base + c for base in range(0, length, max(n * n, 1))
                                 for c in cells)))
    return out


def minimal_image(table: CayleyTable, limits: Limits = DEFAULT_LIMITS) -> tuple[int, ...]:
    """Lexicographically minimal flattened table over all relabellings."""
    n = table.n
    if n > limits.sn_sweep:
        raise GuardExceeded(f"minimal image sweep refused for n = {n}")
    flat = table.flat()
    return min(tuple([sigma[flat[k]] for k in src]) for sigma, src in _relabellings(n, n * n))


def _orbit_dedupe(n: int, raw: Iterable[tuple[int, ...]]) -> tuple[list[tuple[int, ...]], int]:
    """Split raw flattened tables (or equal-length concatenations of them,
    such as dot + star of a bi-magma) into relabelling classes; returns the
    sorted canonical representatives and the raw count."""
    relabellings = None
    seen: set[tuple[int, ...]] = set()
    classes: list[tuple[int, ...]] = []
    raw_count = 0
    for flat in raw:
        raw_count += 1
        if flat in seen:
            continue
        if relabellings is None:
            relabellings = _relabellings(n, len(flat))
        best = flat
        for sigma, src in relabellings:
            img = tuple([sigma[flat[k]] for k in src])
            seen.add(img)
            if img < best:
                best = img
        classes.append(best)
    classes.sort()
    return classes, raw_count


# ---------------------------------------------------------------------------
# column backtracking for right-Plonka-style magma constraints


def _function_pool(n: int, orders_dividing: Optional[int], permutations_only: bool):
    if permutations_only:
        pool = [tuple(p) for p in itertools.permutations(range(n))]
    else:
        pool = [tuple(c) for c in itertools.product(range(n), repeat=n)]
    if orders_dividing is not None:
        def power_is_identity(col: tuple[int, ...], k: int) -> bool:
            result = list(range(n))
            for _ in range(k):
                result = [col[v] for v in result]
            return result == list(range(n))
        pool = [c for c in pool if power_is_identity(c, orders_dividing)]
    return pool


def _columns_commute(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    for x in range(len(a)):
        if a[b[x]] != b[a[x]]:
            return False
    return True


def _iter_plonka_tables(n: int, pool: Sequence[tuple[int, ...]],
                        band: bool, first_column_range: Optional[range] = None
                        ) -> Iterator[tuple[int, ...]]:
    """All tables whose columns pairwise commute and satisfy the coherence
    rule column[column_z(y)] = column[y]; exactly the right Plonka tables
    drawn from the given column pool."""
    columns: list[tuple[int, ...]] = []
    forced: dict[int, tuple[int, ...]] = {}

    def viable(y: int, col: tuple[int, ...]) -> Optional[dict[int, tuple[int, ...]]]:
        if band and col[y] != y:
            return None
        required = forced.get(y)
        if required is not None and required != col:
            return None
        for other in columns:
            if not _columns_commute(col, other):
                return None
        new_forced: dict[int, tuple[int, ...]] = {}
        trial = columns + [col]
        for a in range(y + 1):
            for b in range(y + 1):
                target = trial[b][a]
                need = trial[a]
                if target <= y:
                    if trial[target] != need:
                        return None
                else:
                    prior = forced.get(target, new_forced.get(target))
                    if prior is not None and prior != need:
                        return None
                    new_forced[target] = need
        return new_forced

    def rec(y: int) -> Iterator[tuple[int, ...]]:
        if y == n:
            flat = tuple(columns[j][i] for i in range(n) for j in range(n))
            yield flat
            return
        candidates = pool if not (y == 0 and first_column_range is not None) \
            else [pool[i] for i in first_column_range]
        for col in candidates:
            new_forced = viable(y, col)
            if new_forced is None:
                continue
            columns.append(col)
            saved = {t: forced.get(t) for t in new_forced}
            forced.update(new_forced)
            yield from rec(y + 1)
            columns.pop()
            for t, old in saved.items():
                if old is None:
                    del forced[t]
                else:
                    forced[t] = old

    yield from rec(0)


# ---------------------------------------------------------------------------
# queries


@dataclass(frozen=True)
class CensusQuery:
    """A conjunction of law tags plus optional structural predicates.

    Magma queries must include ``right_plonka`` (or ``left_plonka``) unless
    n is small enough for the generic sweep; bi-magma queries must include
    ``plonka_bimagma``.  ``predicates`` may contain ``right_simple``.
    """

    n: int
    magma_laws: tuple[MagmaLaw, ...] = ()
    bimagma_laws: tuple[BiMagmaLaw, ...] = ()
    rmap_laws: tuple[RMapLaw, ...] = ()
    k: Optional[int] = None
    predicates: tuple[str, ...] = ()
    mode: str = "count"

    def __post_init__(self) -> None:
        if not (self.magma_laws or self.bimagma_laws or self.rmap_laws or self.predicates):
            raise ValueError("constraint must be non-empty")
        if self.mode not in ("count", "representatives"):
            raise ValueError("mode must be count or representatives")
        if self.bimagma_laws or self.rmap_laws:
            if self.magma_laws:
                raise ValueError("mixing magma and bi-magma law tags is not supported")
        for p in self.predicates:
            if p not in ("right_simple",):
                raise ValueError(f"unknown predicate {p!r}")

    def label(self) -> str:
        parts = [law.value for law in self.magma_laws]
        parts += [law.value for law in self.bimagma_laws]
        parts += [law.value for law in self.rmap_laws]
        if self.k is not None:
            parts = [p if p != "k_cyclic" else f"k_cyclic[{self.k}]" for p in parts]
        parts += list(self.predicates)
        return "+".join(parts)


@dataclass(frozen=True)
class CensusRow:
    n: int
    label: str
    class_count: int
    raw_count: int
    elapsed_ms: int

    def tsv(self) -> str:
        return f"{self.n}\t{self.label}\t{self.class_count}\t{self.raw_count}\t{self.elapsed_ms}"


@dataclass(frozen=True)
class CensusResult:
    row: CensusRow
    representatives: tuple = ()


def _euler_partition_numbers(limit: int) -> list[int]:
    p = [1] + [0] * limit
    for part in range(1, limit + 1):
        for total in range(part, limit + 1):
            p[total] += p[total - part]
    return p


def _known_counts() -> dict[tuple[str, int], int]:
    known: dict[tuple[str, int], int] = {}
    for n, v in enumerate([1, 3, 11], start=1):
        known[("right_plonka", n)] = v
    for n, v in enumerate([1, 2, 4, 12, 37, 164, 849, 6081, 56164, 698921], start=1):
        known[("right_plonka+right_involutory", n)] = v
    parts = _euler_partition_numbers(12)
    for n in range(1, 13):
        known[("right_plonka+associative", n)] = parts[n]
    return known


KNOWN_COUNTS = _known_counts()


def _column_search(query: CensusQuery, limits: Limits
                   ) -> tuple[bool, Optional[tuple[Optional[int], bool, bool]]]:
    """How a magma query is searched.  Returns whether the search runs on
    the transpose (left Plonka laws read as right ones) and the column
    backtracker's (orders dividing, band, permutations only), or None when
    the query needs the generic table sweep."""
    laws = set(query.magma_laws)
    transpose = MagmaLaw.LEFT_PLONKA in laws and MagmaLaw.RIGHT_PLONKA not in laws
    if transpose:
        laws = {MagmaLaw.RIGHT_PLONKA if law is MagmaLaw.LEFT_PLONKA else law for law in laws}
        if MagmaLaw.LEFT_INVOLUTORY in laws:
            laws.discard(MagmaLaw.LEFT_INVOLUTORY)
            laws.add(MagmaLaw.RIGHT_INVOLUTORY)
    if MagmaLaw.RIGHT_PLONKA not in laws and MagmaLaw.TWO_CYCLIC not in laws:
        return transpose, None
    if query.n > limits.census_carrier:
        raise GuardExceeded(f"census carrier limit is {limits.census_carrier}")
    orders = None
    if MagmaLaw.RIGHT_INVOLUTORY in laws or MagmaLaw.TWO_CYCLIC in laws:
        orders = 2
    elif MagmaLaw.K_CYCLIC in laws and query.k is not None:
        orders = query.k
    band = MagmaLaw.BAND in laws or MagmaLaw.TWO_CYCLIC in laws
    return transpose, (orders, band, "right_simple" in query.predicates)


def _magma_raw_stream(query: CensusQuery, limits: Limits,
                      first_column_range: Optional[range] = None) -> Iterator[tuple[int, ...]]:
    n = query.n
    transpose, plan = _column_search(query, limits)
    if plan is not None:
        orders, band, perm_only = plan
        pool = _function_pool(n, orders, perm_only)
        stream = _iter_plonka_tables(n, pool, band, first_column_range)
    else:
        if n > 3:
            raise GuardExceeded("generic table sweep limited to n <= 3; "
                                "add right_plonka for the pruned search")
        stream = (flat for flat in itertools.product(range(n), repeat=n * n))

    for flat in stream:
        table = CayleyTable.from_flat(n, flat)
        source = table.opposite() if transpose else table
        ok = all(check_magma_law(source, law, query.k if law is MagmaLaw.K_CYCLIC else None)
                 for law in query.magma_laws)
        if not ok:
            continue
        if "right_simple" in query.predicates and not _right_simple(source):
            continue
        yield source.flat()


def _right_simple(m: CayleyTable) -> bool:
    # right ideals are the subsets invariant under every column
    if m.n == 0:
        return True
    cols = FunctionFamily(m.n, tuple(FiniteFunction(m.n, m.column(y)) for y in range(m.n)))
    return is_incompressible(cols)


def _census_worker(args) -> list[tuple[int, ...]]:
    query, lo, hi, limits = args
    return list(_magma_raw_stream(query, limits, first_column_range=range(lo, hi)))


def _process_count(workers: int, jobs: int, cpus: Optional[int]) -> int:
    """Processes to start for a split census: the workers asked for, but
    never more than there are jobs or CPUs (``cpus`` None counts as one)."""
    return min(workers, jobs, cpus or 1)


def enumerate_structures(query: CensusQuery, limits: Limits = DEFAULT_LIMITS,
                         workers: int = 1) -> CensusResult:
    """Run a census query: count isomorphism classes (and list canonical
    representatives when asked).  With several workers the search tree is
    split by the first table column; the final dedupe pass is always a
    single deterministic merge, so output does not depend on worker count.
    Only the column backtracker is split, over at most one process per CPU."""
    if workers < 1:
        raise ValueError("workers must be at least 1")
    start = time.perf_counter()
    n = query.n
    if query.bimagma_laws or query.rmap_laws:
        classes, raw_count = _bimagma_census(query, limits)
        reps = tuple(BiMagma(CayleyTable.from_flat(n, f[:n * n]),
                             CayleyTable.from_flat(n, f[n * n:])) for f in classes)
    else:
        _, plan = _column_search(query, limits)
        if workers > 1 and n > 1 and plan is not None:
            orders, _, perm_only = plan
            pool_size = len(_function_pool(n, orders, perm_only))
            parts = min(workers, pool_size)
            bounds = [(i * pool_size) // parts for i in range(parts + 1)]
            jobs = [(query, lo, hi, limits) for lo, hi in zip(bounds, bounds[1:])]
            with multiprocessing.Pool(_process_count(workers, len(jobs), os.cpu_count())) as mp:
                chunks = mp.map(_census_worker, jobs)
            raw = itertools.chain.from_iterable(chunks)
        else:
            raw = _magma_raw_stream(query, limits)
        classes, raw_count = _orbit_dedupe(n, raw)
        reps = tuple(CayleyTable.from_flat(n, f) for f in classes)
    elapsed_ms = int((time.perf_counter() - start) * 1000)
    label = query.label()
    if (label, n) in KNOWN_COUNTS:
        expected = KNOWN_COUNTS[(label, n)]
        if expected != len(classes):
            raise AssertionError(
                f"census {label} at n={n} found {len(classes)} classes, literature says {expected}")
    else:
        label += " [unverified]"
    row = CensusRow(n, label, len(classes), raw_count, elapsed_ms)
    return CensusResult(row, reps if query.mode == "representatives" else ())


def _bimagma_census(query: CensusQuery, limits: Limits):
    """Bi-magma classes: dots from the right-Plonka engine, stars from its
    transpose, pairs filtered by every requested checker."""
    n = query.n
    laws = set(query.bimagma_laws)
    wants_plonka = bool(laws & {BiMagmaLaw.PLONKA_BIMAGMA, BiMagmaLaw.UNITARY_PLONKA_BIMAGMA}) \
        or RMapLaw.BLS in set(query.rmap_laws)
    if not wants_plonka:
        if n > 2:
            raise GuardExceeded("generic bi-magma sweep limited to n <= 2")
        dots = [flat for flat in itertools.product(range(n), repeat=n * n)]
        stars = dots
    else:
        if n > limits.census_carrier:
            raise GuardExceeded(f"census carrier limit is {limits.census_carrier}")
        base = CensusQuery(n, (MagmaLaw.RIGHT_PLONKA,))
        dots = list(_magma_raw_stream(base, limits))
        stars = [_transpose_flat(d, n) for d in dots]

    def accepted():
        for d in dots:
            dt = CayleyTable.from_flat(n, d)
            for s in stars:
                b = BiMagma(dt, CayleyTable.from_flat(n, s))
                if all(check_bimagma_law(b, law) for law in query.bimagma_laws) and \
                   all(check_rmap_law(canonical_correspondence(b), law)
                       for law in query.rmap_laws):
                    yield d + s

    return _orbit_dedupe(n, accepted())


def _transpose_flat(flat: tuple[int, ...], n: int) -> tuple[int, ...]:
    return tuple(flat[y * n + x] for x in range(n) for y in range(n))


# ---------------------------------------------------------------------------
# simple-solution census: odometer triples vs exhaustive commuting pairs


def _perm_from_cycle_type(lengths: Sequence[int], n: int) -> tuple[int, ...]:
    images = list(range(n))
    start = 0
    for length in lengths:
        for i in range(length):
            images[start + i] = start + (i + 1) % length
        start += length
    return tuple(images)


def commuting_permutation_pairs_up_to_conjugacy(n: int) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """One representative per simultaneous-conjugacy class of commuting
    permutation pairs: the first component runs over cycle types, the second
    over centralizer orbits within the centralizer."""
    perms = [tuple(p) for p in itertools.permutations(range(n))]

    def compose(a, b):
        return tuple(a[b[x]] for x in range(n))

    def invert(p):
        q = [0] * n
        for i, v in enumerate(p):
            q[v] = i
        return tuple(q)

    for cycle_type in _partitions(n):
        f = _perm_from_cycle_type(cycle_type, n)
        centralizer = [g for g in perms if compose(f, g) == compose(g, f)]
        seen: set[tuple[int, ...]] = set()
        for g in centralizer:
            if g in seen:
                continue
            for sigma in centralizer:
                seen.add(compose(compose(sigma, g), invert(sigma)))
            yield f, g


@dataclass(frozen=True)
class SimpleSolutionCensus:
    carrier: int
    triples: tuple[OdometerTriple, ...]
    count: int
    pair_route_count: Optional[int]

    @property
    def single_route(self) -> bool:
        return self.pair_route_count is None


def census_simple_bls(t: int, limits: Limits = DEFAULT_LIMITS) -> SimpleSolutionCensus:
    """Count simple solution classes on t points by two routes.

    Route one lists the classifying triples (m, n, d) with m*n = t and
    1 <= d <= m.  Route two sweeps commuting permutation pairs up to
    simultaneous conjugation and keeps the incompressible ones; members of
    an incompressible commuting pair are forced to be bijective because the
    image of a non-surjective member would be a proper invariant subset.
    The two counts must agree whenever the sweep runs.
    """
    if t < 1:
        raise ValueError("carrier must be non-empty")
    triples = tuple(OdometerTriple(m, t // m, d)
                    for m in range(1, t + 1) if t % m == 0
                    for d in range(1, m + 1))
    pair_count: Optional[int] = None
    if t <= limits.simple_bls_brute:
        pair_count = 0
        for f, g in commuting_permutation_pairs_up_to_conjugacy(t):
            family = FunctionFamily(t, (FiniteFunction(t, f), FiniteFunction(t, g)))
            if is_incompressible(family):
                pair_count += 1
        if pair_count != len(triples):
            raise AssertionError(
                f"simple-solution routes disagree at t={t}: "
                f"{len(triples)} triples vs {pair_count} pair classes")
    return SimpleSolutionCensus(t, triples, len(triples), pair_count)


# ---------------------------------------------------------------------------
# conjugacy classes of self-maps


def _functional_graph_code(f: tuple[int, ...], n: int):
    """Canonical conjugacy invariant of a self-map: for every cycle, the
    minimal rotation of the tuple of hanging-tree codes; the multiset of
    those cycle codes is the class key."""
    children: list[list[int]] = [[] for _ in range(n)]
    for x in range(n):
        children[f[x]].append(x)
    on_cycle = [False] * n
    state = [0] * n  # 0 unvisited, 1 in progress, 2 done
    for start in range(n):
        if state[start]:
            continue
        path = []
        x = start
        while state[x] == 0:
            state[x] = 1
            path.append(x)
            x = f[x]
        if state[x] == 1:
            idx = path.index(x)
            for node in path[idx:]:
                on_cycle[node] = True
        for node in path:
            state[node] = 2

    def tree_code(x: int):
        return tuple(sorted(tree_code(c) for c in children[x] if not on_cycle[c]))

    cycle_codes = []
    seen = [False] * n
    for x in range(n):
        if on_cycle[x] and not seen[x]:
            cycle = []
            y = x
            while not seen[y]:
                seen[y] = True
                cycle.append(tree_code(y))
                y = f[y]
            rotations = [tuple(cycle[i:] + cycle[:i]) for i in range(len(cycle))]
            cycle_codes.append(min(rotations))
    return tuple(sorted(cycle_codes))


def _is_connected_map(f: tuple[int, ...], n: int) -> bool:
    uf = UnionFind(n)
    for x in range(n):
        uf.union(x, f[x])
    return n == 0 or len({uf.find(x) for x in range(n)}) == 1


def function_conjugacy_census(n: int, connected_only: bool = False,
                              limits: Limits = DEFAULT_LIMITS) -> int:
    """Conjugacy classes of self-maps on n points, by two independent
    methods whose agreement is asserted: explicit orbit partitioning under
    relabelling, and canonical functional-graph codes."""
    if n > limits.conjugacy_census:
        raise GuardExceeded(f"conjugacy census limited to n <= {limits.conjugacy_census}")
    if n == 0:
        return 1

    perms = [tuple(p) for p in itertools.permutations(range(n))]
    inverses = []
    for p in perms:
        q = [0] * n
        for i, v in enumerate(p):
            q[v] = i
        inverses.append(tuple(q))

    seen: set[tuple[int, ...]] = set()
    orbit_count = 0
    for f in itertools.product(range(n), repeat=n):
        if f in seen:
            continue
        if not connected_only or _is_connected_map(f, n):
            orbit_count += 1
            keep = True
        else:
            keep = False
        for p, q in zip(perms, inverses):
            seen.add(tuple(p[f[q[x]]] for x in range(n)))

    codes = set()
    for f in itertools.product(range(n), repeat=n):
        if connected_only and not _is_connected_map(f, n):
            continue
        codes.add(_functional_graph_code(f, n))
    if orbit_count != len(codes):
        raise AssertionError(
            f"conjugacy census methods disagree at n={n}: {orbit_count} vs {len(codes)}")
    return orbit_count
