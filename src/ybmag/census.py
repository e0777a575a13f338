"""Symmetry-reduced exhaustive enumeration of constrained finite structures.

The magma engine backtracks over table columns: the two right Plonka laws
say precisely that the columns pairwise commute and that column r_z(y)
equals column y, so partial assignments prune hard.  A Plonka bi-magma is
the two-grid case, column y joining dot column y and star row y.  The
search runs on indices into the column pool: each chosen column carries a
commute mask, a Python-int bitset over the pool that numpy builds the first
time the column is chosen, and the candidates for the next column are the
AND of the chosen columns' masks.  An order-dividing pool (involutory or
k-cyclic columns) is cut from the n! permutation rows, since col^k = id
forces a permutation.  The laws a one-grid search guarantees (right Plonka,
band from a static mask, the column order from the pool) are verified in
bulk, one numpy pass over each batch of up to 1024 tables, and a table
that fails them raises CrossCheckFailed; a CayleyTable is built, and a law
checked table by table, only for every bi-magma and for the query's other
laws and predicates.  Isomorph rejection expands the relabelling orbit
of each newly seen table once, in one numpy gather, as byte strings; the
orbits must hold exactly the raw tables, and a class's canonical
representative is the lexicographically minimal table in its orbit.  Every
census runs in the calling process: a split over worker processes, each
rebuilding the pool and the masks, measured slower.

The sweeps of commuting permutation pairs and of self-map conjugation
orbits run on numpy arrays of permutation rows: one array operation gives a
whole conjugation orbit, and a boolean mask keyed by each row's base-n code
marks what has been seen.  The orbit count is checked against a Polya count
of mapping patterns, cycles of rooted trees and their Euler transform.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .core import (BiMagma, CayleyTable, CrossCheckFailed, GuardExceeded, Limits,
                   DEFAULT_LIMITS, FiniteFunction, canonical_correspondence)
from .families import FunctionFamily, OdometerTriple, _partitions, is_incompressible
from .ideals import IdealKind, is_simple
from .laws import (BiMagmaLaw, MagmaLaw, RMapLaw, _power_is_identity, check_bimagma_law,
                   check_magma_law, check_magma_laws_batch, check_rmap_law)
from .plonka import UnionFind


# ---------------------------------------------------------------------------
# canonical forms and orbit bookkeeping


def _relabelling_gather(n: int, length: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The index arrays of ``_orbit`` that relabel ``length`` cells, one
    flattened table or several concatenated on the same carrier, by each
    permutation sigma in ``_permutation_array`` order: cell (x, y) of a block
    of image p is sigma[cell (sigma^-1 x, sigma^-1 y) of that block]."""
    perms = _permutation_array(n)
    inv = np.argsort(perms, axis=1)
    cells = inv[:, None, :, None] * n + inv[:, None, None, :]   # [p, 1, x, y]
    src = (cells + np.arange(0, length, max(n * n, 1))[:, None, None]).reshape(len(perms), length)
    return perms.ravel(), src, np.arange(len(perms))[:, None] * n


def _orbit(key: bytes, gather: tuple[np.ndarray, np.ndarray, np.ndarray]) -> list[bytes]:
    """The images of a flattened table under every relabelling of
    ``gather``, in its order: one numpy gather, rows read out as bytes."""
    sigmas, src, offsets = gather
    if not key:   # the empty table; a void view needs a width
        return [key] * len(src)
    images = sigmas.take(np.frombuffer(key, dtype=np.uint8).take(src) + offsets)
    return images.view(np.dtype((np.void, len(key)))).ravel().tolist()


def minimal_image(table: CayleyTable, limits: Limits = DEFAULT_LIMITS) -> tuple[int, ...]:
    """Lexicographically minimal flattened table over all relabellings."""
    n = table.n
    if n > limits.sn_sweep:
        raise GuardExceeded(f"minimal image sweep refused for n = {n}")
    return tuple(min(_orbit(bytes(table.flat()), _relabelling_gather(n, n * n))))


def _orbit_dedupe(n: int, raw: Iterable[tuple[int, ...]]) -> tuple[list[tuple[int, ...]], int]:
    """Split raw flattened tables (or equal-length concatenations of them,
    such as dot + star of a bi-magma) into relabelling classes; returns the
    sorted canonical representatives and the raw count.  Images are byte
    strings, ordered like the int tuples they encode.  The laws are invariant
    under relabelling, so the orbits must hold exactly the raw tables."""
    gather = None
    seen: set[bytes] = set()
    classes: list[bytes] = []
    raw_count = 0
    for flat in raw:
        raw_count += 1
        key = bytes(flat)
        if key in seen:
            continue
        if gather is None:
            gather = _relabelling_gather(n, len(key))
        images = _orbit(key, gather)
        seen.update(images)
        classes.append(min(images))
    if len(seen) != raw_count:
        raise CrossCheckFailed(f"orbit dedupe on n={n} saw {raw_count} raw tables, but their "
                               f"orbits hold {len(seen)}: a table repeats or an orbit is partial")
    classes.sort()
    return [tuple(c) for c in classes], raw_count


# ---------------------------------------------------------------------------
# column backtracking for right-Plonka-style magma constraints


def _function_pool(n: int, orders_dividing: Optional[int], permutations_only: bool):
    """The candidate columns in lexicographic order: every self-map of
    0..n-1, or only the permutations, or only the maps whose
    ``orders_dividing``-th power is the identity.  Those maps are
    permutations, so they are filtered from the n! permutation rows."""
    if orders_dividing is None and not permutations_only:
        return list(itertools.product(range(n), repeat=n))
    perms = _permutation_array(n)
    if orders_dividing is not None:
        perms = perms[_power_is_identity(perms, orders_dividing)]
    return [tuple(row) for row in perms.tolist()]


def _bitset(flags: np.ndarray) -> int:
    """A boolean vector over the pool as an int whose bit i is flags[i]."""
    return int.from_bytes(np.packbits(flags, bitorder="little").tobytes(), "little")


def _iter_plonka_tables(n: int, pool: Sequence[tuple[int, ...]],
                        band: bool) -> Iterator[tuple[int, ...]]:
    """All right Plonka tables on a pool of distinct columns, in pool order:
    columns that commute, with column[column_z(y)] = column[y].  An entry of
    k maps (k = len(entry) // n) is a column of k grids; a cell lists k entries."""
    k = len(pool[0]) // max(n, 1)
    columns: list[tuple[int, ...]] = []   # the maps of the chosen columns 0..y-1
    chosen: list[int] = []                # and their pool indices
    forced: dict[int, int] = {}           # a later column's required pool index
    grid = np.array(pool, dtype=np.intp).reshape(len(pool), k, n)
    maps = [tuple(map(tuple, entry)) for entry in grid.tolist()]
    # each entry's images point by point, m_0(a) .. m_k-1(a), and their points a
    images = list(map(tuple, grid.transpose(0, 2, 1).reshape(len(pool), k * n).tolist()))
    points = [[a for a in range(y + 1) for _ in range(k)] for y in range(n)]
    commute_masks: dict[int, int] = {}

    def commute_mask(i: int) -> int:
        mask = commute_masks.get(i)
        if mask is None:
            mask = everything
            for c in grid[i]:
                mask &= _bitset((c[grid] == grid[..., c]).all((1, 2)))
            commute_masks[i] = mask
        return mask

    everything = (1 << len(pool)) - 1
    # per-position masks that no choice changes: the band law
    static = [_bitset((grid[..., y] == y).all(1)) if band else everything for y in range(n)]

    def coherent(y: int, later: list[int]) -> Optional[dict[int, int]]:
        """Check the coherence rule on the pairs (a, y) for the column just
        chosen at y; the pairs (y, b) were settled before the candidate
        loop and the rest at earlier depths.  Returns the columns newly
        forced beyond y (those in ``later`` to column y itself), or None."""
        i = chosen[y]
        new_forced = dict.fromkeys(later, i)
        for a, target in zip(points[y], images[i]):
            need = chosen[a]
            if target <= y:
                if chosen[target] != need:
                    return None
            else:
                prior = forced.get(target, new_forced.get(target))
                if prior is None:
                    new_forced[target] = need
                elif prior != need:
                    return None
        return new_forced

    def rec(y: int, commuting: int) -> Iterator[tuple[int, ...]]:
        # commuting: the pool indices that commute with every chosen column
        if y == n:
            yield tuple(itertools.chain.from_iterable(zip(*columns)))
            return
        candidates = commuting & static[y]
        # the pairs (y, b): column col(y) must equal column y for every chosen
        # map col; and column y itself may be forced by an earlier depth
        later = []
        for target in {col[y] for col in columns} | {y}:
            required = chosen[target] if target < y else forced.get(target)
            if required is not None:
                candidates &= 1 << required
            elif target > y:
                later.append(target)
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            i = low.bit_length() - 1
            columns.extend(maps[i])
            chosen.append(i)
            new_forced = coherent(y, later)
            if new_forced is not None:
                forced.update(new_forced)
                yield from rec(y + 1, commuting & commute_mask(i))
                for t in new_forced:
                    del forced[t]
            del columns[-k:]
            chosen.pop()

    yield from rec(0, everything)


# ---------------------------------------------------------------------------
# queries


def _require_carrier(n: int) -> None:
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise ValueError(f"carrier size n must be an integer >= 0, got n = {n!r}")


@dataclass(frozen=True)
class CensusQuery:
    """A conjunction of law tags plus optional structural predicates.

    Magma queries sweep every table (n <= 3) without ``right_plonka``, ``left_plonka``
    or ``two_cyclic``, bi-magma and R-map queries (n <= 2) without ``plonka_bimagma``,
    ``unitary_plonka_bimagma`` or ``bls`` (searched to n = 4); predicates are for magmas.
    """

    n: int
    magma_laws: tuple[MagmaLaw, ...] = ()
    bimagma_laws: tuple[BiMagmaLaw, ...] = ()
    rmap_laws: tuple[RMapLaw, ...] = ()
    k: Optional[int] = None
    predicates: tuple[str, ...] = ()
    mode: str = "count"

    def __post_init__(self) -> None:
        _require_carrier(self.n)
        if not (self.magma_laws or self.bimagma_laws or self.rmap_laws or self.predicates):
            raise ValueError("constraint must be non-empty")
        if self.mode not in ("count", "representatives"):
            raise ValueError("mode must be count or representatives")
        if self.bimagma_laws or self.rmap_laws:
            if self.magma_laws:
                raise ValueError("mixing magma and bi-magma law tags is not supported")
            if self.predicates:
                raise ValueError("predicates apply to magma queries only")
        for p in self.predicates:
            if p not in ("right_simple",):
                raise ValueError(f"unknown predicate {p!r}")
        if MagmaLaw.K_CYCLIC in self.magma_laws:
            if not isinstance(self.k, int) or isinstance(self.k, bool) or self.k < 1:
                raise ValueError(f"k_cyclic needs an integer k >= 1, got {self.k!r}")
        elif self.k is not None:
            raise ValueError("k only applies to the k_cyclic law")

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


def _euler_transform(a: Sequence[int], limit: int) -> list[int]:
    """Coefficients 0..limit of prod_{k >= 1} (1 - x^k)^(-a[k]): the
    multisets of total weight n drawn from a[k] kinds of weight k (a[0] is
    not read).  Divisor-sum recurrence: n b_n = sum_{k=1..n} c_k b_{n-k}
    with c_k = sum_{d | k} d a_d."""
    c = [sum(d * a[d] for d in range(1, k + 1) if k % d == 0) for k in range(limit + 1)]
    b = [1] + [0] * limit
    for m in range(1, limit + 1):
        b[m] = sum(c[k] * b[m - k] for k in range(1, m + 1)) // m
    return b


def _known_counts() -> dict[tuple[str, int], int]:
    known: dict[tuple[str, int], int] = {}
    for n, v in enumerate([1, 3, 11], start=1):
        known[("right_plonka", n)] = v
    for n, v in enumerate([1, 2, 4, 12, 37, 164, 849, 6081, 56164, 698921], start=1):
        known[("right_plonka+right_involutory", n)] = v
    parts = _euler_transform([1] * 13, 12)   # partition numbers
    for n in range(1, 13):
        known[("right_plonka+associative", n)] = parts[n]
    return known


KNOWN_COUNTS = _known_counts()


_BATCH = 1024  # tables per bulk law check; uint8 keeps its (1024, n, n, n) temporaries small
# carrier limits of the sweeps of every table and of the two-grid search (71 565 pairs at n = 5)
_GENERIC_MAGMA_SWEEP = 3
_GENERIC_BIMAGMA_SWEEP = 2
_TWO_GRID_SEARCH = 4


def _checked(stream: Iterator[tuple[int, ...]], n: int, laws: Sequence[MagmaLaw],
             k: Optional[int]) -> Iterator[tuple[int, ...]]:
    """Pass a column search's tables through in order, checking in batches
    that each satisfies the laws the search guarantees."""
    while batch := list(itertools.islice(stream, _BATCH)):
        stack = np.frombuffer(b"".join(map(bytes, batch)), dtype=np.uint8)
        ok = check_magma_laws_batch(stack.reshape(len(batch), n, n), laws, k)
        if not ok.all():
            raise CrossCheckFailed(
                f"column search produced table {batch[int(ok.argmin())]} on n={n} "
                f"that fails {'+'.join(law.value for law in laws)}")
        yield from batch


def _magma_raw_stream(query: CensusQuery, limits: Limits) -> Iterator[tuple[int, ...]]:
    """The flattened tables that satisfy a magma query, in search order.
    Left Plonka laws are searched on the transpose, read as right ones; a
    query that implies no right Plonka law needs the generic table sweep.
    The laws the column search guarantees are checked in bulk; only the
    other laws and predicates are checked table by table."""
    n = query.n
    laws = set(query.magma_laws)
    transpose = MagmaLaw.LEFT_PLONKA in laws and MagmaLaw.RIGHT_PLONKA not in laws
    if transpose:
        laws = {MagmaLaw.RIGHT_PLONKA if law is MagmaLaw.LEFT_PLONKA else law for law in laws}
        if MagmaLaw.LEFT_INVOLUTORY in laws:
            laws.discard(MagmaLaw.LEFT_INVOLUTORY)
            laws.add(MagmaLaw.RIGHT_INVOLUTORY)
    guaranteed: set[MagmaLaw] = set()
    if MagmaLaw.RIGHT_PLONKA in laws or MagmaLaw.TWO_CYCLIC in laws:
        if n > limits.census_carrier:
            raise GuardExceeded(f"census carrier limit is {limits.census_carrier}")
        orders = None
        if MagmaLaw.RIGHT_INVOLUTORY in laws or MagmaLaw.TWO_CYCLIC in laws:
            orders = 2
        elif MagmaLaw.K_CYCLIC in laws:
            orders = query.k
        band = MagmaLaw.BAND in laws or MagmaLaw.TWO_CYCLIC in laws
        pool = _function_pool(n, orders, "right_simple" in query.predicates)
        searched = [MagmaLaw.RIGHT_PLONKA] + [MagmaLaw.BAND] * band \
            + [MagmaLaw.K_CYCLIC] * (orders is not None)
        stream = _checked(_iter_plonka_tables(n, pool, band), n, searched, orders)
        # the query's laws that the searched ones imply when present; on the
        # transpose the searched columns are the query's rows
        if transpose:
            guaranteed = {MagmaLaw.LEFT_PLONKA, MagmaLaw.BAND, MagmaLaw.LEFT_INVOLUTORY}
        else:
            guaranteed = {MagmaLaw.RIGHT_PLONKA, MagmaLaw.BAND, MagmaLaw.RIGHT_INVOLUTORY,
                          MagmaLaw.TWO_CYCLIC}
            if orders == query.k:   # the pool was cut by k itself
                guaranteed.add(MagmaLaw.K_CYCLIC)
    else:
        if n > _GENERIC_MAGMA_SWEEP:
            raise GuardExceeded(f"generic table sweep limited to n <= {_GENERIC_MAGMA_SWEEP}; "
                                "add right_plonka for the pruned search")
        stream = itertools.product(range(n), repeat=n * n)

    residual = [law for law in query.magma_laws if law not in guaranteed]
    simple = "right_simple" in query.predicates
    if not (residual or simple):
        yield from ((_transpose_flat(flat, n) for flat in stream) if transpose else stream)
        return
    for flat in stream:
        table = CayleyTable.from_flat(n, flat)
        source = table.opposite() if transpose else table
        ok = all(check_magma_law(source, law, query.k if law is MagmaLaw.K_CYCLIC else None)
                 for law in residual)
        if not ok:
            continue
        if simple and not is_simple(source, IdealKind.MAGMA_RIGHT):
            continue
        yield source.flat()


def _bimagma_raw_stream(query: CensusQuery, limits: Limits) -> Iterator[tuple[int, ...]]:
    """The flattened dot + star tables that satisfy a bi-magma or R-map
    query, in search order.  Plonka bi-magmas (every BLS solution is one)
    come from the two-grid search and are checked, other laws per table."""
    n = query.n
    searched = bool({BiMagmaLaw.PLONKA_BIMAGMA, BiMagmaLaw.UNITARY_PLONKA_BIMAGMA}
                    & set(query.bimagma_laws)) or RMapLaw.BLS in query.rmap_laws
    if searched:
        limit = min(limits.census_carrier, _TWO_GRID_SEARCH)
        if n > limit:
            raise GuardExceeded(f"Plonka bi-magma search limited to n <= {limit}")
        maps = list(itertools.product(range(n), repeat=n))
        pool = [f + g for f in maps for g in maps if all(f[g[x]] == g[f[x]] for x in range(n))]
        stream = (flat[0::2] + _transpose_flat(flat[1::2], n)
                  for flat in _iter_plonka_tables(n, pool, False))
    else:
        if n > _GENERIC_BIMAGMA_SWEEP:
            raise GuardExceeded(f"generic bi-magma sweep limited to n <= {_GENERIC_BIMAGMA_SWEEP}")
        stream = itertools.product(range(n), repeat=2 * n * n)
    for flat in stream:
        b = BiMagma(CayleyTable.from_flat(n, flat[:n * n]), CayleyTable.from_flat(n, flat[n * n:]))
        if searched and not check_bimagma_law(b, BiMagmaLaw.PLONKA_BIMAGMA):
            raise CrossCheckFailed(f"column search produced bi-magma {flat} on n={n} "
                                   "that fails plonka_bimagma")
        if all(check_bimagma_law(b, law) for law in query.bimagma_laws
               if law is not BiMagmaLaw.PLONKA_BIMAGMA) and \
           all(check_rmap_law(canonical_correspondence(b), law) for law in query.rmap_laws):
            yield flat


def enumerate_structures(query: CensusQuery, limits: Limits = DEFAULT_LIMITS,
                         workers: int = 1) -> CensusResult:
    """Run a census query: count isomorphism classes (and list canonical
    representatives when asked).  The search, the bulk check of the laws it
    guarantees, the per-table check of the other laws and the orbit dedupe
    all run in the calling process; no process is started.
    ``workers`` is kept for compatibility: a value below 1 raises
    ``ValueError``, and any other value changes nothing."""
    if workers < 1:
        raise ValueError("workers must be at least 1")
    start = time.perf_counter()
    n = query.n
    bimagma = bool(query.bimagma_laws or query.rmap_laws)
    stream = _bimagma_raw_stream(query, limits) if bimagma else _magma_raw_stream(query, limits)
    classes, raw_count = _orbit_dedupe(n, stream)
    reps = tuple(BiMagma(CayleyTable.from_flat(n, f[:n * n]), CayleyTable.from_flat(n, f[n * n:]))
                 if bimagma else CayleyTable.from_flat(n, f) for f in classes)
    elapsed_ms = int((time.perf_counter() - start) * 1000)
    label = query.label()
    if (label, n) in KNOWN_COUNTS:
        expected = KNOWN_COUNTS[(label, n)]
        if expected != len(classes):
            raise CrossCheckFailed(
                f"census {label} at n={n} found {len(classes)} classes, literature says {expected}")
    else:
        label += " [unverified]"
    row = CensusRow(n, label, len(classes), raw_count, elapsed_ms)
    return CensusResult(row, reps if query.mode == "representatives" else ())


def _transpose_flat(flat: tuple[int, ...], n: int) -> tuple[int, ...]:
    return tuple(flat[y * n + x] for x in range(n) for y in range(n))


# ---------------------------------------------------------------------------
# simple-solution census: odometer triples vs exhaustive commuting pairs,
# swept as numpy arrays of permutation rows


def _perm_from_cycle_type(lengths: Sequence[int], n: int) -> tuple[int, ...]:
    images = list(range(n))
    start = 0
    for length in lengths:
        for i in range(length):
            images[start + i] = start + (i + 1) % length
        start += length
    return tuple(images)


def _permutation_array(n: int) -> np.ndarray:
    """Every permutation of 0..n-1 as a uint8 row, in ``itertools.permutations``
    order, which is lexicographic (one empty row for n = 0)."""
    count = math.factorial(n)
    flat = np.fromiter(itertools.chain.from_iterable(itertools.permutations(range(n))),
                       dtype=np.uint8, count=count * n)
    return flat.reshape(count, n)


def _codes(rows: np.ndarray, n: int) -> np.ndarray:
    """Each row read as a base-n number, first entry most significant: the
    index of the row in ``itertools.product(range(n), repeat=n)`` order, and
    an order-preserving key for lexicographically sorted rows."""
    codes = np.zeros(len(rows), dtype=np.int64)
    for column in rows.T:
        codes *= n
        codes += column
    return codes


def _unseen_indices(unseen: np.ndarray) -> Iterator[int]:
    """The indices still set in ``unseen``, low to high, looked up afresh
    after each one is handed out, so the caller can clear that index's whole
    orbit before the next lookup.  ``argmax`` stops at the first set entry
    and allocates nothing, unlike ``flatnonzero``."""
    i = 0
    while i < len(unseen):
        i += int(unseen[i:].argmax())
        if not unseen[i]:
            return
        yield i
        i += 1


def commuting_permutation_pairs_up_to_conjugacy(n: int) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """One representative per simultaneous-conjugacy class of commuting
    permutation pairs: the first component runs over cycle types, the second
    over centralizer orbits within the centralizer, in lexicographic order.
    The centralizer is a numpy array of permutation rows, and each orbit
    sigma g sigma^-1 is computed in one array operation."""
    perms = _permutation_array(n)
    for cycle_type in _partitions(n):
        f = _perm_from_cycle_type(cycle_type, n)
        f_row = np.array(f, dtype=np.uint8)
        centralizer = perms[(f_row[perms] == perms[:, f_row]).all(1)]
        inverses = np.argsort(centralizer, axis=1).astype(np.uint8)
        codes = _codes(centralizer, n)   # ascending: the rows are lexicographic
        unseen = np.ones(len(centralizer), dtype=bool)
        for i in _unseen_indices(unseen):
            g = centralizer[i]
            conjugates = np.take_along_axis(centralizer, g[inverses], 1)
            unseen[np.searchsorted(codes, _codes(conjugates, n))] = False
            # FiniteFunction takes Python ints only
            yield f, tuple(g.tolist())


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
            raise CrossCheckFailed(
                f"simple-solution routes disagree at t={t}: "
                f"{len(triples)} triples vs {pair_count} pair classes")
    return SimpleSolutionCensus(t, triples, len(triples), pair_count)


# ---------------------------------------------------------------------------
# conjugacy classes of self-maps: orbits over numpy arrays vs a Polya count


def _connected_mapping_patterns(limit: int) -> list[int]:
    """Conjugacy classes of connected self-maps on n points, n = 0..limit.
    A connected map is a cycle of rooted trees, so the series is the sum
    over cycle lengths k of the cycle index of the cyclic group C_k at the
    rooted-tree series R: (1/k) sum_{d | k} phi(d) R(x^d)^(k/d).  Each
    k-term counts cycles of k trees, so the division by k is exact."""
    trees = [0, 1]     # rooted trees: r_{m+1} = Euler(r)_m
    while len(trees) <= limit:
        trees.append(_euler_transform(trees, len(trees) - 1)[-1])
    connected = np.zeros(limit + 1, dtype=object)   # Python ints, no overflow
    for k in range(1, limit + 1):
        term = np.zeros(limit + 1, dtype=object)
        for d in (d for d in range(1, k + 1) if k % d == 0):
            phi = sum(math.gcd(i, d) == 1 for i in range(1, d + 1))
            spread = np.zeros(limit + 1, dtype=object)   # R(x^d)
            spread[::d] = trees[:limit // d + 1]
            power = np.ones(1, dtype=object)
            for _ in range(k // d):
                power = np.convolve(power, spread)[:limit + 1]
            term += phi * power
        connected += term // k
    return connected.tolist()


def _is_connected_map(f: tuple[int, ...], n: int) -> bool:
    uf = UnionFind(n)
    for x in range(n):
        uf.union(x, f[x])
    return n == 0 or len({uf.find(x) for x in range(n)}) == 1


def function_conjugacy_census(n: int, connected_only: bool = False,
                              limits: Limits = DEFAULT_LIMITS) -> int:
    """Conjugacy classes of self-maps on n points (n = 0 counts the empty
    map, connected or not), by two independent methods whose agreement is
    asserted: an orbit sweep of all n^n maps under relabelling, and a Polya
    count, connected mapping patterns from rooted trees
    (``_connected_mapping_patterns``) and all patterns as their Euler
    transform (Read 1961; Harary-Palmer, Graphical Enumeration, 1973)."""
    _require_carrier(n)
    if n > limits.conjugacy_census:
        raise GuardExceeded(f"conjugacy census limited to n <= {limits.conjugacy_census}")
    if n == 0:
        return 1

    perms = _permutation_array(n)
    inverses = np.argsort(perms, axis=1).astype(np.uint8)
    unseen = np.ones(n ** n, dtype=bool)   # by base-n code: itertools.product order
    orbit_count = 0
    for code in _unseen_indices(unseen):
        f = np.array(np.unravel_index(code, (n,) * n), dtype=np.uint8)
        if not connected_only or _is_connected_map(tuple(f.tolist()), n):
            orbit_count += 1
        # the images p f p^-1 under every relabelling p
        unseen[_codes(np.take_along_axis(perms, f[inverses], 1), n)] = False

    connected = _connected_mapping_patterns(n)
    expected = connected[n] if connected_only else _euler_transform(connected, n)[n]
    if orbit_count != expected:
        raise CrossCheckFailed(
            f"conjugacy census methods disagree at n={n}: "
            f"{orbit_count} orbits vs {expected} by the Polya count")
    return orbit_count
