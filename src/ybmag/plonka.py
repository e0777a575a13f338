"""Structure theory of right Plonka magmas and Plonka bi-magmas.

A right Plonka magma decomposes into a partition plus one grid of block
endomaps, the maps in each block's grid row commuting; the coarsest and
finest such decompositions are unique and serve as complete invariants.
The coarsest blocks are the classes of equal columns, the finest the weak
components of all columns (the graphs x -> x.y for every y).
A Plonka bi-magma (., *) is the pair of right Plonka magmas (., *^op) over
one shared partition, so it carries a second grid; a magma's partition is
the one-grid case of the same type.  Blocks are listed by least element
and each endomap acts on block-local indices (positions within the sorted
block).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Literal, Optional, Sequence, Union

from .core import (BiMagma, CayleyTable, CrossCheckFailed, FiniteFunction, GuardExceeded,
                   Limits, DEFAULT_LIMITS, Permutation, SetPartition, Verdict)
from .laws import BiMagmaLaw, MagmaLaw, check_bimagma_law, check_magma_law

Extremity = Literal["coarsest", "finest"]
Grid = tuple[tuple[FiniteFunction, ...], ...]


class NotPlonkaError(ValueError):
    """Raised when a structure operation is fed a magma that fails its law;
    carries the failing verdict."""

    def __init__(self, message: str, verdict: Verdict):
        super().__init__(f"{message}: {verdict.witness.describe()}")
        self.verdict = verdict


class UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x: int, y: int) -> None:
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            if ry < rx:
                rx, ry = ry, rx
            self.parent[ry] = rx


@dataclass(frozen=True)
class BiPlonkaPartition:
    """Blocks plus one or two endomap grids.  The product of x in block i
    with anything in block j is f[i][j](x); the star product, present for a
    bi-magma only, of anything with y in block j is g[j][i](y).  A magma's
    partition has ``g_endomaps`` None."""

    partition: SetPartition
    f_endomaps: Grid
    g_endomaps: Optional[Grid] = None

    @property
    def grids(self) -> tuple[Grid, ...]:
        if self.g_endomaps is None:
            return (self.f_endomaps,)
        return (self.f_endomaps, self.g_endomaps)

    @property
    def endomaps(self) -> Grid:
        return self.f_endomaps

    def __post_init__(self) -> None:
        k = len(self.partition)
        for grid in self.grids:
            if len(grid) != k or any(len(row) != k for row in grid):
                raise ValueError("endomaps must form a k x k grid")
            for i, block in enumerate(self.partition.blocks):
                for f in grid[i]:
                    if f.n != len(block) or f.codomain != len(block):
                        raise ValueError("endomap carrier must match its block")
        for i in range(k):
            maps = [f for grid in self.grids for f in grid[i]]
            for f, g in itertools.combinations(maps, 2):
                if f.compose(g) != g.compose(f):
                    raise ValueError("block endomaps do not commute")


PlonkaPartition = BiPlonkaPartition


def connected_components(n: int, maps: Sequence[FiniteFunction]) -> SetPartition:
    """Finest partition whose blocks are invariant under every map: the
    weak components of the union of the graphs x -> f(x)."""
    for f in maps:
        if f.n != n or f.codomain != n:
            raise ValueError("all members must share the carrier")
    uf = UnionFind(n)
    for f in maps:
        for x in range(n):
            uf.union(x, f(x))
    groups: dict[int, list[int]] = {}
    for x in range(n):
        groups.setdefault(uf.find(x), []).append(x)
    return SetPartition(n, tuple(tuple(v) for v in groups.values()))


def _local_index(partition: SetPartition) -> tuple[tuple[int, ...], tuple[int, ...]]:
    owner = partition.block_of()
    local = [0] * partition.n
    for block in partition.blocks:
        for pos, v in enumerate(block):
            local[v] = pos
    return owner, tuple(local)


def plonka_partition(m: CayleyTable, extremity: Extremity) -> BiPlonkaPartition:
    """The coarsest or finest Plonka partition of a right Plonka magma.

    Coarsest blocks are the classes of the congruence  a ~ b  iff
    x.a = x.b for every x; finest blocks are the weak components of the
    graphs x -> x.y of all columns y.
    """
    verdict = check_magma_law(m, MagmaLaw.RIGHT_PLONKA)
    if not verdict:
        raise NotPlonkaError("not a right Plonka magma", verdict)
    return _partition_of((m,), extremity)


def bi_plonka_partition(b: BiMagma, extremity: Extremity) -> BiPlonkaPartition:
    """The coarsest or finest bi-Plonka partition of a Plonka bi-magma.

    The coarsest congruence identifies a and b when x.a = x.b and
    a*x = b*x for every x, that is, when a and b share their columns in
    both dot and the opposite of star.  The finest blocks are the weak
    components of the dot columns and the star rows together.
    """
    verdict = check_bimagma_law(b, BiMagmaLaw.PLONKA_BIMAGMA)
    if not verdict:
        raise NotPlonkaError("not a Plonka bi-magma", verdict)
    return _partition_of((b.dot, b.star.opposite()), extremity)


def _partition_of(tables: Sequence[CayleyTable], extremity: Extremity) -> BiPlonkaPartition:
    """The partition shared by right Plonka tables on one carrier, with one
    grid per table: grid[i][j] sends x in block i to x.r for the least
    element r of block j.  Coarsest blocks: a ~ b iff columns a and b agree
    in every table; finest blocks: the weak components of every column."""
    n = tables[0].n
    if extremity == "coarsest":
        groups: dict[tuple, list[int]] = {}
        for a in range(n):
            groups.setdefault(tuple(t.column(a) for t in tables), []).append(a)
        part = SetPartition(n, tuple(tuple(v) for v in groups.values()))
    elif extremity == "finest":
        part = connected_components(n, [FiniteFunction(n, t.column(a))
                                        for t in tables for a in range(n)])
    else:
        raise ValueError("extremity must be 'coarsest' or 'finest'")
    owner, local = _local_index(part)
    grids = []
    for t in tables:
        grid = []
        for i, bi in enumerate(part.blocks):
            row = []
            for bj in part.blocks:
                images = []
                for x in bi:
                    y = t.apply(x, bj[0])
                    if owner[y] != i:
                        raise CrossCheckFailed("congruence class not closed under products")
                    images.append(local[y])
                row.append(FiniteFunction(len(bi), tuple(images)))
            grid.append(tuple(row))
        grids.append(tuple(grid))
    return BiPlonkaPartition(part, *grids)


def rebuild(p: BiPlonkaPartition) -> Union[CayleyTable, BiMagma]:
    """Reassemble the magma (or bi-magma) from partition data.

    x in block i times y in block j is f[i][j](x); the star product lands
    in y's block via g[j][i](y), so star is the opposite of the table the
    g grid builds.
    """
    part = p.partition
    owner, local = _local_index(part)
    n = part.n
    blocks = part.blocks
    tables = [CayleyTable(n, tuple(
        tuple(blocks[owner[x]][grid[owner[x]][owner[y]](local[x])] for y in range(n))
        for x in range(n))) for grid in p.grids]
    if len(tables) == 1:
        return tables[0]
    return BiMagma(tables[0], tables[1].opposite())


def is_refinement(fine: BiPlonkaPartition, coarse: BiPlonkaPartition) -> bool:
    """True when every fine block sits inside a coarse block and the fine
    endomaps are the restrictions of the coarse ones."""
    c_owner, c_local = _local_index(coarse.partition)
    if len(fine.grids) != len(coarse.grids):
        return False
    fine_blocks = fine.partition.blocks
    for a, block_a in enumerate(fine_blocks):
        if len({c_owner[v] for v in block_a}) != 1:
            return False
    for grid_f, grid_c in zip(fine.grids, coarse.grids):
        for a, block_a in enumerate(fine_blocks):
            i = c_owner[block_a[0]]
            coarse_block = coarse.partition.blocks[i]
            for b, block_b in enumerate(fine_blocks):
                j = c_owner[block_b[0]]
                f_fine = grid_f[a][b]
                f_coarse = grid_c[i][j]
                for pos, v in enumerate(block_a):
                    if block_a[f_fine(pos)] != coarse_block[f_coarse(c_local[v])]:
                        return False
    return True


# ---------------------------------------------------------------------------
# structured isomorphism


def _family_signature(maps: Sequence[FiniteFunction]) -> tuple:
    return tuple(sorted(_cycle_type(f) for f in maps))


def _cycle_type(f: FiniteFunction) -> tuple:
    """Cheap conjugacy invariant of a self-map used as a block-matching
    pruning key: the sorted fibre sizes and the iterated image sizes."""
    fibres = [0] * f.n
    for v in f.images:
        fibres[v] += 1
    image_sizes = []
    current = set(range(f.n))
    for _ in range(f.n):
        current = {f(x) for x in current}
        image_sizes.append(len(current))
    return (tuple(sorted(fibres, reverse=True)), tuple(image_sizes))


def _block_intertwiners(size: int, fams_a: Sequence[Sequence[FiniteFunction]],
                        fams_b: Sequence[Sequence[FiniteFunction]]):
    """Bijections s of 0..size-1 with s.f = f'.s for every matched pair of
    endomaps; brute force within the block."""
    for images in itertools.permutations(range(size)):
        ok = True
        for maps_a, maps_b in zip(fams_a, fams_b):
            for fa, fb in zip(maps_a, maps_b):
                if any(images[fa(x)] != fb(images[x]) for x in range(size)):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            yield images


def structured_iso(a: Union[CayleyTable, BiMagma], b: Union[CayleyTable, BiMagma],
                   limits: Limits = DEFAULT_LIMITS) -> Optional[Permutation]:
    """Isomorphism test through the coarsest partitions: match blocks, then
    search block-local intertwiners.  Falls back to brute force inside each
    block, which is adequate while blocks stay small."""
    if type(a) is not type(b):
        raise TypeError("can only compare structures of the same kind")
    if a.n != b.n:
        return None
    partition_of = plonka_partition if isinstance(a, CayleyTable) else bi_plonka_partition
    pa, pb = partition_of(a, "coarsest"), partition_of(b, "coarsest")
    grids_a, grids_b = pa.grids, pb.grids
    k = len(pa.partition)
    if k != len(pb.partition):
        return None
    blocks_a, blocks_b = pa.partition.blocks, pb.partition.blocks
    sizes_a = [len(blk) for blk in blocks_a]
    sizes_b = [len(blk) for blk in blocks_b]
    if sorted(sizes_a) != sorted(sizes_b):
        return None
    if max(sizes_a, default=0) > limits.sn_sweep:
        raise GuardExceeded("block too large for the block-local sweep")

    key_a = [tuple(_family_signature(grid[i]) for grid in grids_a) for i in range(k)]
    key_b = [tuple(_family_signature(grid[i]) for grid in grids_b) for i in range(k)]

    assignment: list[Optional[int]] = [None] * k
    used = [False] * k

    def extend(i: int) -> Optional[list[tuple[int, ...]]]:
        if i == k:
            locals_found = []
            for ai in range(k):
                bi = assignment[ai]
                fams_a = [[grid[ai][aj] for aj in range(k)] for grid in grids_a]
                fams_b = [[grid[bi][assignment[aj]] for aj in range(k)] for grid in grids_b]
                match = next(_block_intertwiners(sizes_a[ai], fams_a, fams_b), None)
                if match is None:
                    return None
                locals_found.append(match)
            return locals_found
        for j in range(k):
            if used[j] or sizes_a[i] != sizes_b[j] or key_a[i] != key_b[j]:
                continue
            assignment[i] = j
            used[j] = True
            result = extend(i + 1)
            if result is not None:
                return result
            used[j] = False
            assignment[i] = None
        return None

    locals_found = extend(0)
    if locals_found is None:
        return None
    images = [0] * a.n
    for ai in range(k):
        target = blocks_b[assignment[ai]]
        for pos, v in enumerate(blocks_a[ai]):
            images[v] = target[locals_found[ai][pos]]
    sigma = Permutation(a.n, tuple(images))
    if a.relabel(sigma.images) != b:
        raise CrossCheckFailed("block-assembled map is not an isomorphism")
    return sigma


# ---------------------------------------------------------------------------
# bijectivization of a pointed set


@dataclass(frozen=True)
class BijectivizationResult:
    """Stabilised quotient of a self-map: ``target`` is bijective on the
    quotient carrier and ``unit`` intertwines the original map with it."""

    target: FiniteFunction
    unit: FiniteFunction

    def __post_init__(self) -> None:
        if not self.target.is_bijective():
            raise ValueError("target must be bijective")
        if self.unit.codomain != self.target.n:
            raise ValueError("unit must land in the target carrier")


def bijectivize(f: FiniteFunction) -> BijectivizationResult:
    """Collapse level sets of f until the induced map is bijective.

    Each quotient step identifies x with y when f(x) = f(y), which shrinks
    the carrier to the image of f; iterating stabilises on the eventual
    image, where f restricts to a bijection.  The unit is the composite
    quotient map x -> f^k(x) re-indexed along the sorted eventual image.
    """
    if f.codomain != f.n:
        raise ValueError("bijectivize needs a self-map")
    n = f.n
    current = f
    unit = FiniteFunction(n, tuple(range(n)))
    while not current.is_bijective():
        image = sorted(set(current.images))
        index = {v: i for i, v in enumerate(image)}
        m = len(image)
        unit = FiniteFunction(n, tuple(index[current(unit(x))] for x in range(n)), m)
        current = FiniteFunction(m, tuple(index[current(v)] for v in image))
    result = BijectivizationResult(current, unit)
    for x in range(n):
        if result.unit(f(x)) != result.target(result.unit(x)):
            raise CrossCheckFailed("unit does not intertwine the maps")
    return result
