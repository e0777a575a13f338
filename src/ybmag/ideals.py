"""Ideals, simplicity, bi-connectedness and decomposability.

An ideal of an R-map is a non-empty I with R(I x X) inside I x X and
R(X x I) inside X x I; equivalently a right ideal of the dot magma that is
also a left ideal of the star magma.  Every ideal kind is a set that a
family of translations carries into itself, so a structure is simple exactly
when that family is incompressible; simplicity is decided by per-element
closure so it scales past the subset-listing guard.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Union

from .core import (BiMagma, CayleyTable, GuardExceeded, Limits, DEFAULT_LIMITS,
                   RMap, SetPartition, Verdict, Witness, VERDICT_OK,
                   canonical_correspondence, closure)
from .plonka import UnionFind


class IdealKind(enum.Enum):
    RMAP_IDEAL = "rmap_ideal"
    MAGMA_RIGHT = "magma_right"
    MAGMA_LEFT = "magma_left"
    MAGMA_TWO_SIDED = "magma_two_sided"
    BIMAGMA_RIGHT_LEFT = "bimagma_right_left"


def _translations(structure, kind: IdealKind) -> list[tuple[int, ...]]:
    """The self-maps, as image tuples, that every ideal of the kind carries
    into itself: the right translations x -> x.y of a magma are its columns,
    the left translations x -> y.x its rows."""
    wants = {IdealKind.RMAP_IDEAL: RMap,
             IdealKind.BIMAGMA_RIGHT_LEFT: BiMagma,
             IdealKind.MAGMA_RIGHT: CayleyTable,
             IdealKind.MAGMA_LEFT: CayleyTable,
             IdealKind.MAGMA_TWO_SIDED: CayleyTable}[kind]
    if not isinstance(structure, wants):
        raise TypeError(f"{kind.value} needs a {wants.__name__}")
    if kind is IdealKind.RMAP_IDEAL:
        return _translations(canonical_correspondence(structure),
                             IdealKind.BIMAGMA_RIGHT_LEFT)
    if kind is IdealKind.BIMAGMA_RIGHT_LEFT:
        return list(zip(*structure.dot.table)) + list(structure.star.table)
    columns, rows = list(zip(*structure.table)), list(structure.table)
    return {IdealKind.MAGMA_RIGHT: columns, IdealKind.MAGMA_LEFT: rows,
            IdealKind.MAGMA_TWO_SIDED: columns + rows}[kind]


def ideals(structure: Union[RMap, CayleyTable, BiMagma], kind: IdealKind,
           limits: Limits = DEFAULT_LIMITS) -> list[tuple[int, ...]]:
    """Every non-empty subset satisfying the closure condition of the kind,
    sorted by size then lexicographically."""
    maps = _translations(structure, kind)
    n = structure.n
    if n > limits.subset_listing:
        raise GuardExceeded(
            f"2**{n} subset listing refused (limit n <= {limits.subset_listing}); "
            "use is_simple instead")
    # the ideals are the unions of the least ideals around single elements
    masks = {0}
    for x in range(n):
        least = sum(1 << v for v in closure(maps, (x,)))
        masks |= {mask | least for mask in masks}
    found = [tuple(x for x in range(n) if mask >> x & 1) for mask in masks if mask]
    found.sort(key=lambda s: (len(s), s))
    return found


def element_closure(structure, kind: IdealKind, seed: int) -> tuple[int, ...]:
    """The least ideal of the given kind containing ``seed``."""
    maps = _translations(structure, kind)
    if not 0 <= seed < structure.n:
        raise ValueError(f"seed {seed} outside 0..{structure.n - 1}")
    return tuple(sorted(closure(maps, (seed,))))


def is_simple(structure: Union[RMap, CayleyTable, BiMagma],
              kind: IdealKind = IdealKind.RMAP_IDEAL) -> Verdict:
    """Simplicity via closure fixpoints: simple iff the least ideal around
    every element is the whole carrier, that is iff the translations form
    an incompressible family.  The witness of a failing verdict is the
    smallest proper ideal found this way."""
    maps = _translations(structure, kind)
    n = structure.n
    best: Optional[tuple[int, ...]] = None
    for x in range(n):
        least = tuple(sorted(closure(maps, (x,))))
        if len(least) < n and (best is None or (len(least), least) < (len(best), best)):
            best = least
    if best is None:
        return VERDICT_OK
    return Verdict(False, Witness("proper_ideal", best))


def rees_quotient(m: CayleyTable, ideal: tuple[int, ...] | frozenset[int]) -> CayleyTable:
    """Collapse a two-sided ideal to a single absorbing class.

    Classes are labelled by least element, then renumbered in ascending
    order, so the result is deterministic.
    """
    elements = frozenset(ideal)
    if not elements:
        raise ValueError("ideal must be non-empty")
    n = m.n
    if not elements <= set(range(n)):
        raise ValueError(f"{sorted(elements)} is not inside 0..{n - 1}")
    for side, kind in (("right", IdealKind.MAGMA_RIGHT), ("left", IdealKind.MAGMA_LEFT)):
        if closure(_translations(m, kind), elements) != elements:
            raise ValueError(f"{sorted(elements)} is not a {side} ideal")
    cls = min(elements)
    rep = [cls if x in elements else x for x in range(n)]
    labels = sorted(set(rep))
    index = {v: i for i, v in enumerate(labels)}
    size = len(labels)
    rows = [[0] * size for _ in range(size)]
    for x in range(n):
        for y in range(n):
            rows[index[rep[x]]][index[rep[y]]] = index[rep[m.apply(x, y)]]
    return CayleyTable(size, tuple(tuple(r) for r in rows))


@dataclass(frozen=True)
class DecompositionReport:
    """Finest partition into parts closed under R on their squares, plus the
    two derived booleans.  ``ess_indecomposable`` refers to two-part splits
    only and is None when the subset search was guarded off."""

    finest_valid_partition: SetPartition
    biconnected: bool
    ess_indecomposable: Optional[bool]


def decomposition_report(r: RMap, limits: Limits = DEFAULT_LIMITS) -> DecompositionReport:
    """Least fixpoint of block closure under (a, b in B) => R(a, b) in B x B,
    starting from singletons; merges are forced, so the result is the finest
    partition whose parts are closed on their squares."""
    n = r.n
    uf = UnionFind(max(n, 1))
    changed = n > 0
    while changed:
        changed = False
        for a in range(n):
            ra = uf.find(a)
            for b in range(n):
                if uf.find(b) != ra:
                    continue
                u, v = r.apply(a, b)
                for w in (u, v):
                    if uf.find(w) != ra:
                        uf.union(ra, w)
                        ra = uf.find(a)
                        changed = True
    groups: dict[int, list[int]] = {}
    for x in range(n):
        groups.setdefault(uf.find(x), []).append(x)
    partition = SetPartition(n, tuple(tuple(g) for g in groups.values()))
    biconnected = len(partition) == 1 and n >= 1

    ess: Optional[bool]
    if n > limits.two_part_split:
        ess = None
    else:
        ess = True
        full = (1 << n) - 1
        for mask in range(1, 1 << (n - 1) if n else 1):
            other = full ^ mask
            if other == 0:
                continue
            if _two_part_closed(r, mask) and _two_part_closed(r, other):
                ess = False
                break
    return DecompositionReport(partition, biconnected, ess)


def _two_part_closed(r: RMap, mask: int) -> bool:
    n = r.n
    members = [x for x in range(n) if mask >> x & 1]
    for a in members:
        for b in members:
            u, v = r.apply(a, b)
            if not (mask >> u & 1) or not (mask >> v & 1):
                return False
    return True
