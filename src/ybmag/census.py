"""Symmetry-reduced exhaustive enumeration of constrained finite structures.

A census is one stream of tables, each stack of them in the batch checker's
layout (T, grids, n, n) of uint8: one grid for magma laws, two (dot and
star) for bi-magma or R-map laws, a magma being the one-grid case of a
bi-magma.  The tables come from one of three sources.  The one-grid column
search finds right Plonka magmas: the two right Plonka laws say precisely
that the columns pairwise commute and that column r_z(y) equals column y,
so partial assignments prune hard; a query of left laws is searched on its
transpose.  The two-grid search runs over commuting self-map pairs, column
y joining dot column y and star row y, and yields the Plonka bi-magmas,
which by the structure theorem are the BLS solutions.  Any other query
sweeps every table.  Both searches read the packed commute relation of
their pool, built once (``_commute_rows``); the two-grid pool is read off
the same relation over the self-maps.  The search runs one depth at a time
over numpy frontiers of partial tables (``_iter_plonka_tables``); it lays
out a transposed query's table and a bi-magma's star transposed, and the
stream puts those grids back.  A one-grid pool is counted before any row is
built and refused above 6**6 maps.  A table failing a law the search
guarantees raises CrossCheckFailed; the query's other laws filter whole
stacks through the one batch checker of ``laws``, and objects are built
only for representatives and the laws that are not equations.  ``CensusStats``
counts what each phase did and times it.  A query of left laws is held to
the literature and closed counts of its transpose, and k_cyclic at k = 2
to those of the right involutory law, whose raw count is checked against a
closed labelled count.  Isomorph rejection reads a stack's rows as byte
strings and gathers each new table's relabelling orbit in one numpy
operation; the orbits must hold exactly the raw tables, and a class's
representative is the least table of its orbit.

The sweep of commuting permutation pairs builds each centralizer as a
wreath product of cyclic and symmetric groups, sorted by its rows' base-n
codes; each of its generators h becomes an index permutation g -> h g h^-1
of those rows, a ``searchsorted`` of the conjugates' codes, and min-label
propagation labels the conjugation orbits; its class count is checked
against the Euler transform of the divisor sums.  The sweep of self-map
conjugation orbits walks the n^n maps in base-n code order; with the
permutation rows, their inverses, the row offsets and the base-n place
values built once per call, each orbit costs a few array calls, its
conjugates p f p^-1 two flat gathers and their codes one matrix product;
its orbit count is checked against a Polya count of mapping patterns,
cycles of rooted trees and their Euler transform.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field, replace
from functools import cache
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .core import (BiMagma, CayleyTable, CrossCheckFailed, GuardExceeded, Limits,
                   DEFAULT_LIMITS, FiniteFunction, _check_carrier)
from .families import (FunctionFamily, OdometerTriple, _partitions, count_incompressible,
                       is_incompressible)
from .ideals import IdealKind, is_simple
from .laws import (BATCH_LAWS, BiMagmaLaw, MagmaLaw, RMapLaw, _check_k, _codes, _distinct_rows,
                   _power, check_bimagma_law, check_laws_batch, check_magma_law)
from .plonka import connected_components


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


def _row_keys(rows: np.ndarray) -> list[bytes]:
    """The rows of a uint8 stack as byte strings, ordered like the int tuples they encode."""
    if not rows.shape[1]:   # zero-width rows (n = 0): a void view needs a width
        return [b""] * len(rows)
    return rows.view(np.dtype((np.void, rows.shape[1]))).ravel().tolist()


def _orbit(key: bytes, gather: tuple[np.ndarray, np.ndarray, np.ndarray]) -> list[bytes]:
    """The images of a flattened table under every relabelling of
    ``gather``, in its order: one numpy gather, rows read out as bytes."""
    sigmas, src, offsets = gather
    return _row_keys(sigmas.take(np.frombuffer(key, dtype=np.uint8).take(src) + offsets))


def minimal_image(table: CayleyTable, limits: Limits = DEFAULT_LIMITS) -> tuple[int, ...]:
    """Lexicographically minimal flattened table over all relabellings."""
    n = table.n
    if n > limits.sn_sweep:
        raise GuardExceeded(f"minimal image sweep refused for n = {n}")
    return tuple(min(_orbit(bytes(table.flat()), _relabelling_gather(n, n * n))))


def _orbit_dedupe(n: int, stacks: Iterable[np.ndarray]) -> tuple[list[tuple[int, ...]], int]:
    """Split raw flattened tables (or equal-length concatenations of them,
    such as dot + star of a bi-magma), the rows of uint8 stacks, into
    relabelling classes; returns the sorted canonical representatives and
    the raw count.  The laws are invariant under relabelling, so the orbits
    must hold exactly the raw tables."""
    seen: set[bytes] = set()
    gather, classes, raw_count = None, [], 0
    for stack in stacks:
        raw_count += len(stack)
        for key in _row_keys(stack):
            if key not in seen:
                gather = gather or _relabelling_gather(n, len(key))
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


def _product_rows(n: int, length: int) -> np.ndarray:
    """Every tuple of ``length`` points of 0..n-1 as a uint8 row, in
    lexicographic order (one empty row for length 0)."""
    return np.indices((n,) * length, dtype=np.uint8).reshape(length, n ** length).T


def _function_pool(n: int, orders_dividing: Optional[int], permutations_only: bool) -> np.ndarray:
    """The candidate columns as uint8 rows in lexicographic order: every
    self-map of 0..n-1, or only the permutations, or only the maps whose
    ``orders_dividing``-th power is the identity.  Those maps are
    permutations, so they are filtered from the n! permutation rows."""
    if orders_dividing is None and not permutations_only:
        return _product_rows(n, n)
    perms = _permutation_array(n)
    if orders_dividing is None:
        return perms
    return perms[(_power(perms, orders_dividing) == np.arange(n)).all(1)]


def _pool_size(n: int, orders_dividing: Optional[int], permutations_only: bool) -> int:
    """The number of rows ``_function_pool`` returns, counted without
    building any: n^n self-maps, n! permutations, or the permutations whose
    cycle lengths all divide ``orders_dividing``, n!/z for each such cycle
    type, z the order of its centralizer."""
    if orders_dividing is None:
        return math.factorial(n) if permutations_only else n ** n
    return sum(math.factorial(n) // math.prod(c ** m * math.factorial(m)
                                              for _, c, m in _cycle_blocks(cycle_type))
               for cycle_type in _partitions(n)
               if all(orders_dividing % c == 0 for c in cycle_type))


# bytes per frontier chunk, a state costing its packed commute mask and some
# 32 bytes per cell of its column for its own and its children's index arrays,
# and per slab of commute rows, a row costing its composed map cells
_FRONTIER_BYTES = 1 << 20


def _commute_rows(grid: np.ndarray) -> np.ndarray:
    """The commute relation of a pool, entries of k self-maps (grid[i, g, x]),
    as packed rows: bit j (little-endian) of row i is set when every map of
    entry i commutes with every map of entry j.  The distinct maps of all
    grids are composed one slab of rows at a time, f(m(x)) against m(f(x))
    for each map f of the slab and every distinct map m, laid out [f, x, m]
    so that each point's images of all maps m are one contiguous row."""
    size, k, n = grid.shape
    distinct, which = _distinct_rows(grid.reshape(size * k, n), n)
    which = which.reshape(size, k)
    images = np.ascontiguousarray(distinct.T)   # [x, m]: m(x)
    points = images.astype(np.intp)             # take converts uint8 indices per call
    rows = np.empty((size, -(-size // 8)), dtype=np.uint8)
    step = max(1, _FRONTIER_BYTES // max(1, distinct.size * k))   # no map cells at n = 0
    for s in range(0, size, step):
        needed, position = np.unique(which[s:s + step], return_inverse=True)
        position = position.reshape(-1, k)
        f = distinct[needed]
        commute = (np.take(f, points, axis=1) == images[f]).all(1)   # [f, m]
        ok = np.ones((len(position), size), dtype=bool)
        for g in range(k):
            for h in range(k):
                ok &= np.take(commute[position[:, g]], which[:, h], axis=1)
        rows[s:s + step] = np.packbits(ok, axis=1, bitorder="little")
    return rows


def _iter_plonka_tables(n: int, pool, band: bool) -> Iterator[np.ndarray]:
    """All right Plonka tables on a pool of distinct columns, in pool order:
    columns that commute, with column[column_z(y)] = column[y].  An entry of
    k maps (k = len(entry) // n) is a column of k grids; a cell lists k entries.
    Yields uint8 stacks of at most ``_BATCH`` flattened tables, (T, n * n * k).

    Column y of a band table fixes y, so a band search first drops the
    entries that fix no point.  The pool's commute rows are then built once,
    before the first depth.  The search runs one depth at a time over
    frontier chunks.  A state holds its pool indices, chosen for positions
    below its depth y and forced (or -1) from y on, and the packed mask of
    the pool entries that commute with every chosen column.  The (y, b) rule
    pins column y to the column at each image b of y under a chosen map; the
    (a, y) rule is checked for the new column on all children at once.
    Children are pushed as chunks, last first, so tables come out in
    lexicographic order of their pool indices.  Returns, as the generator's
    value, the number of states at each depth 0..n that passed every check."""
    if n == 0:
        yield np.zeros((1, 0), dtype=np.uint8)
        return [1]
    grid = np.asarray(pool, dtype=np.uint8).reshape(len(pool), -1, n)   # [i, g, x]
    fixes = (grid == np.arange(n, dtype=np.uint8)).all(1)   # [i, y]: the band law
    if band:
        used = fixes.any(1)
        grid, fixes = grid[used], fixes[used]
    size, k = grid.shape[:2]
    rows = _commute_rows(grid)
    band_rows = np.packbits(fixes.T, axis=1, bitorder="little")
    per_chunk = max(1, _FRONTIER_BYTES // (rows.shape[1] + 32 * n * k))
    nodes = [1] + [0] * n

    def expand(y: int, cols: np.ndarray, masks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The children of the states ``cols`` at depth y that pass the
        checks, with column y chosen, and the index of each one's parent."""
        count = len(cols)
        # the pairs (y, b): column b = column y for b = y and each image b of
        # y under a chosen map, so a chosen or forced column b pins column y
        targets = np.concatenate((grid[:, :, y][cols[:, :y]].reshape(count, y * k),
                                  np.full((count, 1), y, dtype=np.uint8)), 1)
        required = np.take_along_axis(cols, targets, 1)
        top = required.max(1)
        live = ((required == top[:, None]) | (required < 0)).all(1)
        pinned = np.flatnonzero(live & (top >= 0))
        pin = top[pinned]
        keep = (masks[pinned, pin >> 3] >> (pin & 7)) & 1 == 1
        if band:
            keep &= fixes[pin, y]
        pinned, pin = pinned[keep], pin[keep]
        free = np.flatnonzero(live & (top < 0))
        allowed = masks[free] & band_rows[y] if band else masks[free]
        row, byte = np.nonzero(allowed)
        bit_row, bit = np.nonzero(np.unpackbits(allowed[row, byte][:, None], axis=1,
                                                 bitorder="little"))
        parent = np.concatenate((pinned, free[row[bit_row]]))
        choice = np.concatenate((pin, (byte[bit_row] * 8 + bit).astype(np.int32)))
        order = np.argsort(parent, kind="stable")
        parent, choice = parent[order], choice[order]
        children = cols[parent]
        flat = children.reshape(-1)
        offsets = np.arange(0, len(children) * n, n, dtype=np.int32)[:, None]
        flat[offsets + targets[parent]] = choice[:, None]
        # the pairs (a, y), a <= y: column[col_y(a)] = column[a].  A target
        # beyond y still free takes the column of a; then every target must
        # hold it, so two pairs forcing one target differently fail
        cells = offsets[:, :, None] + grid[choice, :, :y + 1]
        need = np.broadcast_to(children[:, None, :y + 1], cells.shape)
        seen = flat[cells]
        flat[cells] = np.where(seen < 0, need, seen)
        good = (flat[cells] == need).all((1, 2))
        return children[good], parent[good]

    root = np.packbits(np.ones(size, dtype=bool), bitorder="little")[None]
    stack = [(0, np.full((1, n), -1, dtype=np.int32), root, np.zeros(1, dtype=np.intp))]
    while stack:
        y, cols, parent_masks, parents = stack.pop()
        masks = parent_masks[parents]
        if y:
            masks &= rows[cols[:, y - 1]]
        children, parent = expand(y, cols, masks)
        nodes[y + 1] += len(children)
        if y + 1 < n:
            for s in reversed(range(0, len(children), per_chunk)):
                stack.append((y + 1, children[s:s + per_chunk], masks, parent[s:s + per_chunk]))
            continue
        for s in range(0, len(children), _BATCH):   # tables [t, x, y, g], flattened
            yield grid[children[s:s + _BATCH]].transpose(0, 3, 1, 2).reshape(-1, n * n * k)
    return nodes


# ---------------------------------------------------------------------------
# queries


@dataclass(frozen=True)
class CensusQuery:
    """A conjunction of law tags plus optional structural predicates.

    Queries without a searched law (``right_plonka``, ``left_plonka``, ``two_cyclic``;
    ``plonka_bimagma``, ``unitary_plonka_bimagma``, ``bls``, searched to n = 4) sweep
    every table, at most 3**9 (magmas to n = 3, bi-magmas to n = 2); predicates are for magmas.
    """

    n: int
    magma_laws: tuple[MagmaLaw, ...] = ()
    bimagma_laws: tuple[BiMagmaLaw, ...] = ()
    rmap_laws: tuple[RMapLaw, ...] = ()
    k: Optional[int] = None
    predicates: tuple[str, ...] = ()
    mode: str = "count"

    def __post_init__(self) -> None:
        _check_carrier(self.n)
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
            _check_k(self.k)
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


@dataclass
class CensusStats:
    """What a census did.  ``nodes[y]`` counts the column search's partial
    tables of y columns that passed its checks (empty for the sweeps of every
    table); ``raw_tables`` counts the tables the search or sweep produced, of
    which the batch law checkers rejected ``batch_rejects`` and the
    per-object checks ``object_rejects`` (of the cancellation, quasigroup
    and totality magma laws, ``right_simple`` and ``skew_left_brace``, which
    are not equations in the products): the row's raw count is what is left.
    ``orbit_images`` counts the relabelled tables the orbit dedupe gathered.
    The seconds spent in each phase, the column search (or the sweep), the
    batch checks (the searched-law recheck included), the object checks and
    the orbit dedupe, vary from run to run, so equality ignores them."""
    nodes: tuple[int, ...] = ()
    raw_tables: int = 0
    batch_rejects: int = 0
    object_rejects: int = 0
    orbit_images: int = 0
    search_s: float = field(default=0.0, compare=False)
    batch_check_s: float = field(default=0.0, compare=False)
    object_check_s: float = field(default=0.0, compare=False)
    dedupe_s: float = field(default=0.0, compare=False)


@dataclass(frozen=True)
class CensusResult:
    row: CensusRow
    representatives: tuple = ()
    stats: CensusStats = field(default_factory=CensusStats)


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


@cache
def _involutory_raw_count(n: int) -> int:
    """The labelled right involutory Plonka magmas on n points, in integers:
    R(n) = sum_m (1/m!) sum_k s(m, k) n! [x^n] (A_k(x) - 1)^m.  A table is m
    blocks, the classes of y -> column y, each acted on by the m commuting
    involutions that label them; the signed Stirling numbers s of the first
    kind invert over which labels coincide (k distinct ones).  A_k is the
    EGF, by size, of the (Z/2)^k-sets, exp(sum_r [k r]_2 x^(2^r) / 2^r): a
    transitive one on 2^r points is the quotient by one of the [k r]_2
    subgroups of index 2^r, the Gaussian binomial.  Series are kept as
    labelled counts, j! [x^j], so products are binomial convolutions."""
    def gaussian(k: int, r: int) -> int:   # r-dimensional subspaces of F_2^k
        top = bottom = 1
        for i in range(r):
            top *= 2 ** k - 2 ** i
            bottom *= 2 ** r - 2 ** i
        return top // bottom

    coefficient = []   # [k][m]: n! [x^n] (A_k - 1)^m
    for k in range(n + 1):
        # transitive sets on i = 2^r labelled points: (i - 1)! labellings of each quotient
        transitive = [gaussian(k, i.bit_length() - 1) * math.factorial(i - 1)
                      if i > 0 and i & (i - 1) == 0 else 0 for i in range(n + 1)]
        sets = [1] + [0] * n
        for j in range(1, n + 1):   # the orbit of the first point has i points
            sets[j] = sum(math.comb(j - 1, i - 1) * transitive[i] * sets[j - i]
                          for i in range(1, j + 1))
        sets[0] = 0
        power = [1] + [0] * n
        coefficient.append([])
        for m in range(n + 1):
            coefficient[k].append(power[n])
            power = [sum(math.comb(j, i) * power[i] * sets[j - i] for i in range(j + 1))
                     for j in range(n + 1)]
    total = 0
    stirling = [1]   # s(m, k) for k = 0..m
    for m in range(n + 1):
        total += sum(s * coefficient[k][m] for k, s in enumerate(stirling)) // math.factorial(m)
        stirling = [(stirling[k - 1] if k else 0) - (m * stirling[k] if k <= m else 0)
                    for k in range(m + 2)]
    return total


_BATCH = 1024  # tables per batch law check; uint8 keeps its (1024, n, n, n) temporaries small
# tables a sweep of every table may build (magmas on 3 points, bi-magmas on 2)
# and carrier limit of the two-grid search (71 565 pairs at n = 5)
_GENERIC_SWEEP = 3 ** 9
_TWO_GRID_SEARCH = 4
# entries of a one-grid column pool: all 6**6 self-maps pass, not 7**7 nor the 9!
# permutations; measured on a 2-vCPU VM, right_plonka at n = 6 (1 897 296 raw
# tables) takes 139 s and 533 MB max RSS, of which the commute rows are 272 MB
_ONE_GRID_POOL = 6 ** 6


def _searched(tables: Iterable[np.ndarray], n: int, flipped: tuple[bool, ...],
              stats: CensusStats) -> Iterator[np.ndarray]:
    """The column search's stacks in the batch checker's layout (T, grids,
    n, n), keeping its frontier sizes and the time spent in it in ``stats``.
    The search lists cell (x, y) of each grid in turn, and lays out each
    grid marked in ``flipped`` transposed; those are put back."""
    tables = iter(tables)
    while True:
        start = time.perf_counter()
        try:
            stack = next(tables)
        except StopIteration as stop:
            stats.nodes = tuple(stop.value or ())
            return
        finally:
            stats.search_s += time.perf_counter() - start
        cells = stack.reshape(len(stack), n, n, len(flipped))
        yield np.stack([cells[..., g].swapaxes(1, 2) if flip else cells[..., g]
                        for g, flip in enumerate(flipped)], 1)


def _survivors(query: CensusQuery, stacks: Iterable[np.ndarray], checks, guaranteed,
               stats: CensusStats) -> Iterator[np.ndarray]:
    """The raw tables that satisfy the query, in order, as uint8 stacks of
    flattened tables, counted and timed in ``stats``.  ``stacks`` are in the
    batch checker's layout (T, grids, n, n).  A table outside a mask of
    ``checks`` (noun, laws, mask) raises; the query's laws not ``guaranteed``
    are checked on the whole stack where a kernel covers them, else on an
    object built per table."""
    residual = [law for law in query.magma_laws + query.bimagma_laws + query.rmap_laws
                if law not in guaranteed]
    batched = [law for law in residual if law in BATCH_LAWS]
    others = [law for law in residual if law not in batched]
    for stack in stacks:
        start = time.perf_counter()
        for noun, laws, mask in checks:
            if not (passed := mask(stack)).all():
                table = tuple(stack[int(passed.argmin())].ravel().tolist())
                raise CrossCheckFailed(f"column search produced {noun} {table} on n={query.n} "
                                       f"that fails {laws}")
        stats.raw_tables += len(stack)
        if batched:
            ok = check_laws_batch(stack, batched, query.k)
            stats.batch_rejects += len(stack) - int(ok.sum())
            stack = stack[ok]
        stack = stack.reshape(len(stack), math.prod(stack.shape[1:]))
        stats.batch_check_s += time.perf_counter() - start
        if others or query.predicates:
            start, passed = time.perf_counter(), len(stack)
            keep = [_object_holds(query, flat, others) for flat in stack.tolist()]
            stack = stack[np.array(keep, dtype=bool)]
            stats.object_rejects += passed - len(stack)
            stats.object_check_s += time.perf_counter() - start
        yield stack


def _object_holds(query: CensusQuery, flat: Sequence[int], laws) -> bool:
    """Whether a flattened table of the query's kind satisfies ``laws`` and
    the query's predicates, checked on a CayleyTable or BiMagma."""
    if query.bimagma_laws or query.rmap_laws:
        b = BiMagma.from_flat(query.n, flat)
        return all(check_bimagma_law(b, law) for law in laws)
    table = CayleyTable.from_flat(query.n, flat)
    return all(check_magma_law(table, law, query.k if law is MagmaLaw.K_CYCLIC else None)
               for law in laws) and ("right_simple" not in query.predicates
                                     or is_simple(table, IdealKind.MAGMA_RIGHT))


# the left laws, and band, as the right laws their transposes satisfy
_MIRROR = {MagmaLaw.LEFT_PLONKA: MagmaLaw.RIGHT_PLONKA, MagmaLaw.BAND: MagmaLaw.BAND,
           MagmaLaw.LEFT_INVOLUTORY: MagmaLaw.RIGHT_INVOLUTORY}


def _raw_stream(query: CensusQuery, limits: Limits,
                stats: Optional[CensusStats] = None) -> Iterator[np.ndarray]:
    """The flattened tables that satisfy a query, in search order (a
    bi-magma's dot table, then its star table), as uint8 stacks counted in
    ``stats``.  Every source hands ``_survivors`` stacks of shape (T, grids,
    n, n), one grid for magma laws and two for bi-magma or R-map laws: the
    one-grid column search for a query that implies right Plonka, or, on the
    transpose with its left laws read as right ones, for a query with left
    Plonka but neither right Plonka nor two_cyclic (which implies it); the
    two-grid search over commuting self-map pairs for a Plonka bi-magma or
    BLS query, which yields the Plonka bi-magmas, by the structure theorem
    the BLS solutions, so a searched table failing either raises
    CrossCheckFailed; else the generic sweep of every table."""
    n, stats = query.n, CensusStats() if stats is None else stats
    grids = 2 if query.bimagma_laws or query.rmap_laws else 1
    laws = set(query.magma_laws + query.bimagma_laws + query.rmap_laws)
    transpose = MagmaLaw.LEFT_PLONKA in laws and \
        not laws & {MagmaLaw.RIGHT_PLONKA, MagmaLaw.TWO_CYCLIC}
    if transpose:
        # the searched columns are the query's rows, so only its left laws (and
        # band) may cut them; its right laws and right_simple are residual
        laws = {_MIRROR[law] for law in laws if law in _MIRROR}
    if MagmaLaw.RIGHT_PLONKA in laws or MagmaLaw.TWO_CYCLIC in laws:
        if n > limits.census_carrier:
            raise GuardExceeded(f"census carrier limit is {limits.census_carrier}")
        orders = (2 if laws & {MagmaLaw.RIGHT_INVOLUTORY, MagmaLaw.TWO_CYCLIC}
                  else query.k if MagmaLaw.K_CYCLIC in laws else None)
        band = MagmaLaw.BAND in laws or MagmaLaw.TWO_CYCLIC in laws
        permutations = "right_simple" in query.predicates and not transpose
        if (size := _pool_size(n, orders, permutations)) > _ONE_GRID_POOL:
            maps = f"all {size} self-maps" if orders is None and not permutations \
                else f"{size} permutations"
            raise GuardExceeded(f"column search over {maps} refused; "
                                f"the pool limit is {_ONE_GRID_POOL} maps")
        tables = _iter_plonka_tables(n, _function_pool(n, orders, permutations), band)
        flipped = (transpose,)
        searched = [MagmaLaw.RIGHT_PLONKA] + [MagmaLaw.BAND] * band \
            + [MagmaLaw.K_CYCLIC] * (orders is not None)
        checks = [("table", "+".join(law.value for law in searched), lambda stack:
                   check_laws_batch(stack.swapaxes(2, 3) if transpose else stack,
                                    searched, orders))]
        # the query's laws that the searched ones imply when present; k_cyclic
        # when the pool was cut by k itself
        guaranteed = set(_MIRROR) if transpose else \
            {*_MIRROR.values(), MagmaLaw.TWO_CYCLIC, *[MagmaLaw.K_CYCLIC] * (orders == query.k)}
    elif laws & {BiMagmaLaw.PLONKA_BIMAGMA, BiMagmaLaw.UNITARY_PLONKA_BIMAGMA, RMapLaw.BLS}:
        limit = min(limits.census_carrier, _TWO_GRID_SEARCH)
        if n > limit:
            raise GuardExceeded(f"Plonka bi-magma search limited to n <= {limit}")
        # the pairs (f, g) of commuting self-maps, f then g in lexicographic order;
        # column y joins dot column y and star row y
        maps = _function_pool(n, None, False)
        f, g = np.nonzero(np.unpackbits(_commute_rows(maps[:, None]), axis=1, count=len(maps),
                                        bitorder="little"))
        tables = _iter_plonka_tables(n, np.concatenate((maps[f], maps[g]), 1), False)
        flipped = (False, True)
        guaranteed = [BiMagmaLaw.PLONKA_BIMAGMA] + [RMapLaw.BLS] * (RMapLaw.BLS in laws)
        checks = [("Plonka bi-magma" if law is RMapLaw.BLS else "bi-magma", law.value,
                   lambda stack, law=law: check_laws_batch(stack, (law,)))
                  for law in guaranteed]
    else:
        if n > limits.census_carrier:   # before its n ** (n * n) tables are counted
            raise GuardExceeded(f"census carrier limit is {limits.census_carrier}")
        if (size := n ** (grids * n * n)) > _GENERIC_SWEEP:
            noun, hint = ("table", "; add right_plonka for the pruned search") if grids == 1 \
                else ("bi-magma", "")
            raise GuardExceeded(f"generic {noun} sweep of {size} tables refused "
                                f"(limit {_GENERIC_SWEEP}){hint}")
        stacks = [_product_rows(n, grids * n * n).reshape(size, grids, n, n)]
        return _survivors(query, stacks, [], set(), stats)
    return _survivors(query, _searched(tables, n, flipped, stats), checks, guaranteed, stats)


def enumerate_structures(query: CensusQuery, limits: Limits = DEFAULT_LIMITS,
                         workers: int = 1) -> CensusResult:
    """Run a census query in the calling process: count isomorphism classes
    (and list canonical representatives when asked).  ``workers`` is kept
    for compatibility: a value below 1 raises ``ValueError``, and any other
    value changes nothing."""
    if workers < 1:
        raise ValueError("workers must be at least 1")
    start = time.perf_counter()
    n = query.n
    bimagma = bool(query.bimagma_laws or query.rmap_laws)
    stats = CensusStats()
    stream = _raw_stream(query, limits, stats)
    dedupe_start = time.perf_counter()
    classes, raw_count = _orbit_dedupe(n, stream)
    stats.dedupe_s = time.perf_counter() - dedupe_start - stats.search_s - stats.batch_check_s \
        - stats.object_check_s
    stats.orbit_images = len(classes) * math.factorial(n)   # one gather per class
    reps = tuple((BiMagma if bimagma else CayleyTable).from_flat(n, f) for f in classes) \
        if query.mode == "representatives" else ()
    elapsed_ms = int((time.perf_counter() - start) * 1000)
    label = query.label()

    # a query of left laws is keyed as its transpose, which has the same
    # classes and raw count, and k_cyclic at k = 2 as the right involutory law
    laws = set(query.magma_laws)
    if laws and laws <= _MIRROR.keys() and not query.predicates:
        laws = {_MIRROR[law] for law in laws}
    if query.k == 2:
        laws = {MagmaLaw.RIGHT_INVOLUTORY if law is MagmaLaw.K_CYCLIC else law for law in laws}

    def once(laws, kind):   # the literature key names each tag once, in declaration order
        return tuple(law for law in kind if law in laws)
    key = replace(query, magma_laws=once(laws, MagmaLaw), k=None if query.k == 2 else query.k,
                  bimagma_laws=once(query.bimagma_laws, BiMagmaLaw),
                  rmap_laws=once(query.rmap_laws, RMapLaw),
                  predicates=tuple(sorted(set(query.predicates)))).label()
    if (key, n) in KNOWN_COUNTS:
        expected = KNOWN_COUNTS[(key, n)]
        if expected != len(classes):
            raise CrossCheckFailed(
                f"census {label} at n={n} found {len(classes)} classes, literature says {expected}")
    else:
        label += " [unverified]"
    if laws == {MagmaLaw.RIGHT_PLONKA, MagmaLaw.RIGHT_INVOLUTORY} and \
       not query.predicates and raw_count != _involutory_raw_count(n):
        raise CrossCheckFailed(f"census {query.label()} at n={n} found {raw_count} raw tables, "
                               f"the closed count says {_involutory_raw_count(n)}")
    row = CensusRow(n, label, len(classes), raw_count, elapsed_ms)
    return CensusResult(row, reps, stats)


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
    order, which is lexicographic (one empty row for n = 0).  The rows on k
    points are, for each first entry a in turn, a followed by the rows on
    k - 1 points with every entry from a up raised by one."""
    rows = np.zeros((1, 0), dtype=np.uint8)
    for k in range(1, n + 1):
        first = np.repeat(np.arange(k, dtype=np.uint8), len(rows))[:, None]
        rest = np.tile(rows, (k, 1))
        rows = np.concatenate((first, rest + (rest >= first)), 1)
    return rows


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


def _cycle_blocks(cycle_type: Sequence[int]) -> Iterator[tuple[int, int, int]]:
    """(first point, cycle length c, cycle count m) of each run of equal
    lengths in a non-increasing cycle type, as ``_perm_from_cycle_type``
    lays the cycles out."""
    start = 0
    for c, run in itertools.groupby(cycle_type):
        m = len(list(run))
        yield start, c, m
        start += c * m


def _centralizer(cycle_type: Sequence[int], n: int) -> tuple[np.ndarray, np.ndarray]:
    """The centralizer of ``_perm_from_cycle_type(cycle_type, n)`` as uint8
    permutation rows in lexicographic order, and their base-n codes
    (``_codes``), ascending: the product over cycle lengths c of Z_c wr S_m,
    which permutes the m cycles of length c among themselves and rotates
    each one."""
    rows = np.zeros((1, 0), dtype=np.uint8)
    for start, c, m in _cycle_blocks(cycle_type):
        cycles = _permutation_array(m)                                  # [p, i]
        shifts = np.indices((c,) * m, dtype=np.uint8).reshape(m, -1).T  # [r, i]
        # point start + i c + j goes to start + p[i] c + (j + r[i]) mod c
        block = (start + cycles[:, None, :, None] * c
                 + (shifts[None, :, :, None] + np.arange(c, dtype=np.uint8)) % c)
        block = block.reshape(len(cycles) * len(shifts), m * c)
        rows = np.concatenate((np.repeat(rows, len(block), 0), np.tile(block, (len(rows), 1))), 1)
    codes = _codes(rows, n)
    order = np.argsort(codes)   # distinct rows have distinct codes: one order
    return rows[order], codes[order]


def _centralizer_generators(cycle_type: Sequence[int], n: int) -> list[np.ndarray]:
    """Generators of the centralizer as uint8 rows, at most three per cycle
    length: rotate the first cycle, swap the first two cycles, shift every
    cycle to the next."""
    generators = []
    for start, c, m in _cycle_blocks(cycle_type):
        points = np.arange(start, start + c * m).reshape(m, c)   # [cycle, position]
        moves = []
        if c > 1:
            moves.append(np.concatenate((np.roll(points[:1], -1, 1), points[1:])))
        if m > 1:
            moves.append(points[[1, 0] + list(range(2, m))])
        if m > 2:
            moves.append(np.roll(points, -1, 0))
        for images in moves:
            h = np.arange(n, dtype=np.uint8)
            h[points.ravel()] = images.ravel()
            generators.append(h)
    return generators


def commuting_permutation_pairs_up_to_conjugacy(n: int) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """One representative per simultaneous-conjugacy class of commuting
    permutation pairs: the first component runs over cycle types, the second
    over the conjugation orbits of the centralizer on itself, each orbit's
    lexicographically least element in lexicographic order.  Each generator
    h of the centralizer acts on its rows as an index permutation g ->
    h g h^-1; every row's orbit label is the least index reachable, found by
    min-label propagation with pointer jumping.  The number of classes is
    checked against the Euler transform of the divisor sums (OEIS A061256)."""
    classes = 0
    for cycle_type in _partitions(n):
        f = _perm_from_cycle_type(cycle_type, n)
        centralizer, codes = _centralizer(cycle_type, n)
        steps = []
        for h in _centralizer_generators(cycle_type, n):
            if not (h[list(f)] == np.array(f)[h]).all():
                raise CrossCheckFailed(f"centralizer generator {h.tolist()} does not commute "
                                       f"with {f}")
            conjugate_codes = _codes(h[centralizer[:, np.argsort(h)]], n)
            step = np.searchsorted(codes, conjugate_codes)
            if not (step < len(codes)).all() or (codes[step] != conjugate_codes).any():
                raise CrossCheckFailed(f"a conjugate by {h.tolist()} misses the centralizer "
                                       f"of {f}")
            steps.append(step)
        labels = np.arange(len(centralizer))
        while True:
            previous = labels
            for step in steps:
                labels = np.minimum(labels, labels[step])
            labels = labels[labels]
            if np.array_equal(labels, previous):
                break
        roots = centralizer[labels == np.arange(len(centralizer))]
        classes += len(roots)
        for g in roots.tolist():   # FiniteFunction takes Python ints only
            yield f, tuple(g)
    # a pair is a multiset of incompressible ones, sigma(k) classes on k points
    sigma = [0] + [count_incompressible(k, 2) for k in range(1, n + 1)]
    expected = _euler_transform(sigma, n)[n]
    if classes != expected:
        raise CrossCheckFailed(f"commuting-pair sweep at n={n} found {classes} classes, "
                               f"the Euler transform of the divisor sums (A061256) says {expected}")


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
    The two counts must agree whenever the sweep runs.  There are sigma(t)
    triples, and more than ``limits.family_enum`` are refused; since
    sigma(t) >= t, a larger t is refused before its divisors are listed.
    """
    _check_carrier(t)
    if t < 1:
        raise ValueError("carrier must be non-empty")
    if t > limits.family_enum:
        raise GuardExceeded(f"simple-solution census at t={t} would list at least {t} triples "
                            f"(limit {limits.family_enum})")
    low = [m for m in range(1, math.isqrt(t) + 1) if t % m == 0]
    divisors = low + [t // m for m in reversed(low) if m * m != t]
    if (sigma := sum(divisors)) > limits.family_enum:
        raise GuardExceeded(f"simple-solution census at t={t} would list {sigma} triples "
                            f"(limit {limits.family_enum})")
    triples = tuple(OdometerTriple(m, t // m, d) for m in divisors for d in range(1, m + 1))
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


def function_conjugacy_census(n: int, connected_only: bool = False,
                              limits: Limits = DEFAULT_LIMITS) -> int:
    """Conjugacy classes of self-maps on n points (n = 0 counts the empty
    map, connected or not), by two independent methods whose agreement is
    asserted: an orbit sweep of all n^n maps under relabelling, and a Polya
    count, connected mapping patterns from rooted trees
    (``_connected_mapping_patterns``) and all patterns as their Euler
    transform (Read 1961; Harary-Palmer, Graphical Enumeration, 1973)."""
    _check_carrier(n)
    if n > limits.conjugacy_census:
        raise GuardExceeded(f"conjugacy census limited to n <= {limits.conjugacy_census}")
    if n == 0:
        return 1

    rows = _permutation_array(n)
    perms, inverses = rows.astype(np.intp), np.argsort(rows, axis=1)
    offsets = np.arange(len(perms))[:, None] * n    # row p of perms starts at p n
    weights = n ** np.arange(n - 1, -1, -1)          # base-n place values, first entry first
    unseen = np.ones(n ** n, dtype=bool)   # by base-n code: lexicographic order
    orbit_count = 0
    for code in _unseen_indices(unseen):
        f = code // weights % n
        if not connected_only or \
                len(connected_components(n, [FiniteFunction(n, tuple(f.tolist()))]).blocks) <= 1:
            orbit_count += 1
        # the images p f p^-1 under every relabelling p, as one flat gather
        unseen[perms.take(f.take(inverses) + offsets) @ weights] = False

    connected = _connected_mapping_patterns(n)
    expected = connected[n] if connected_only else _euler_transform(connected, n)[n]
    if orbit_count != expected:
        raise CrossCheckFailed(
            f"conjugacy census methods disagree at n={n}: "
            f"{orbit_count} orbits vs {expected} by the Polya count")
    return orbit_count
