"""Constructors for the named solutions and magma structures.

Each solution spec is a small frozen dataclass; ``build_solution`` turns it
into an R-map.  Free k-cyclic magmas come with a printable element legend.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Union

from .core import (BiMagma, CayleyTable, FiniteFunction, GuardExceeded, RMap,
                   canonical_correspondence, flip_map, identity_rmap,
                   lyubashenko_rmap)
from .families import OdometerTriple, _prime_factors, build_odometer
from .laws import BiMagmaLaw, check_bimagma_law, group_structure
from .plonka import BiPlonkaPartition, rebuild


# largest carrier a builder makes: free_k_cyclic and every builder sized by n
_FREE_MAGMA_LIMIT = 4096
# most cells a builder sized by n makes: the n^2 output pairs of the identity
# and flip solutions, the table cells of the trivial bi-magma and the cyclic group
_BUILD_CELLS = 1 << 20
# most triples of a trivial brace's associativity check; on a 2-vCPU VM
# 400 points (2^26 triples) took 0.89 s and 800 points 4.8 s
_BRACE_TRIPLES = 1 << 27


def _check_size(what: str, elements: int, cells: int = 0) -> None:
    """Refuse, before anything is built, a structure of more than
    ``_FREE_MAGMA_LIMIT`` elements or ``_BUILD_CELLS`` cells, the elements
    checked first."""
    for size, unit, limit in ((elements, "elements", _FREE_MAGMA_LIMIT),
                              (cells, "cells", _BUILD_CELLS)):
        if size > limit:
            raise GuardExceeded(f"{what} would have {size} {unit} (limit {limit})")


@dataclass(frozen=True)
class IdentitySolution:
    n: int


@dataclass(frozen=True)
class FlipSolution:
    n: int


@dataclass(frozen=True)
class LyubashenkoSolution:
    f: FiniteFunction
    g: FiniteFunction

    def __post_init__(self) -> None:
        if self.f.n != self.g.n:
            raise ValueError("f and g must share a carrier")


@dataclass(frozen=True)
class RightPlonkaOppositeSolution:
    magma: CayleyTable


@dataclass(frozen=True)
class EssSolution:
    """R(x, y) = (y + h2, x + h1) on Z/p, for prime p and (h1, h2) != (0, 0)."""

    p: int
    h1: int
    h2: int

    def __post_init__(self) -> None:
        if _prime_factors(self.p) != {self.p: 1}:
            raise ValueError("carrier order must be prime")
        if (self.h1 % self.p, self.h2 % self.p) == (0, 0):
            raise ValueError("translation constants must not both vanish")


@dataclass(frozen=True)
class BlsFromPartitionSolution:
    partition: BiPlonkaPartition

    def __post_init__(self) -> None:
        if self.partition.g_endomaps is None:
            raise ValueError("a BLS solution needs both the f and the g grid")


@dataclass(frozen=True)
class OdometerSolution:
    triple: OdometerTriple


@dataclass(frozen=True)
class SkewBraceSolution:
    brace: BiMagma


SolutionSpec = Union[IdentitySolution, FlipSolution, LyubashenkoSolution,
                     RightPlonkaOppositeSolution, EssSolution,
                     BlsFromPartitionSolution, OdometerSolution, SkewBraceSolution]


def build_solution(spec: SolutionSpec) -> RMap:
    """Realise a solution spec as an R-map.

    The skew-brace variant validates the brace axioms up front and produces
    a braid solution, not a Yang-Baxter one; compose with the flip to move
    between the conventions.
    """
    if isinstance(spec, IdentitySolution):
        _check_size("identity solution", spec.n, spec.n * spec.n)
        return identity_rmap(spec.n)
    if isinstance(spec, FlipSolution):
        _check_size("flip solution", spec.n, spec.n * spec.n)
        return flip_map(spec.n)
    if isinstance(spec, LyubashenkoSolution):
        return lyubashenko_rmap(spec.f, spec.g)
    if isinstance(spec, RightPlonkaOppositeSolution):
        m = spec.magma
        return RMap.from_function(m.n, lambda x, y: (m.apply(x, y), m.apply(y, x)))
    if isinstance(spec, EssSolution):
        p, h1, h2 = spec.p, spec.h1, spec.h2
        return RMap.from_function(p, lambda x, y: ((y + h2) % p, (x + h1) % p))
    if isinstance(spec, BlsFromPartitionSolution):
        return canonical_correspondence(rebuild(spec.partition))
    if isinstance(spec, OdometerSolution):
        f, g = build_odometer(spec.triple)
        return lyubashenko_rmap(f, g)
    if isinstance(spec, SkewBraceSolution):
        return _skew_brace_rmap(spec.brace)
    raise TypeError(f"unknown solution spec {type(spec).__name__}")


def _skew_brace_rmap(brace: BiMagma) -> RMap:
    verdict = check_bimagma_law(brace, BiMagmaLaw.SKEW_LEFT_BRACE)
    if not verdict:
        raise ValueError(f"not a skew left brace: {verdict.witness.describe()}")
    d, s = brace.dot.table, brace.star.table
    _, dot_inv = group_structure(d)
    _, star_inv = group_structure(s)

    def image(x: int, y: int) -> tuple[int, int]:
        u = d[dot_inv[x]][s[x][y]]
        v = s[s[star_inv[u]][x]][y]
        return u, v

    return RMap.from_function(brace.n, image)


# ---------------------------------------------------------------------------
# free k-cyclic magmas


@dataclass(frozen=True)
class FreeKCyclicElement:
    """A generator together with a bag of absorbed right factors; bag entry
    i counts how often generator i has been multiplied in, modulo k."""

    base: int
    bag: tuple[int, ...]

    def legend(self) -> str:
        inside = ", ".join(f"{i}^{mult}" for i, mult in enumerate(self.bag) if mult)
        return f"({self.base}, {{{inside}}})"


@dataclass(frozen=True)
class FreeMagmaResult:
    table: CayleyTable
    elements: tuple[FreeKCyclicElement, ...]

    def legend_lines(self) -> list[str]:
        return [f"{i}: {el.legend()}" for i, el in enumerate(self.elements)]


def free_k_cyclic(generators: int, k: int, idempotent: bool) -> FreeMagmaResult:
    """The free magma on ``generators`` letters subject to the right Plonka
    laws and the k-fold cancellation (x.y)...y = x, with y repeated k times.

    Elements are pairs (base, bag): multiplying by any element of base y
    adds one y to the bag modulo k.  The idempotent variant also imposes
    x.x = x, which empties the base's own bag slot; its carrier has
    g * k**(g-1) elements, the relaxed one g * k**g.
    """
    if generators < 1 or k < 1:
        raise ValueError("need at least one generator and k >= 1")
    size = generators * k ** (generators - 1 if idempotent else generators)
    _check_size("free magma", size)
    elements: list[FreeKCyclicElement] = []
    for base in range(generators):
        slots = [range(k) if (i != base or not idempotent) else range(1)
                 for i in range(generators)]
        for bag in itertools.product(*slots):
            elements.append(FreeKCyclicElement(base, tuple(bag)))
    elements.sort(key=lambda e: (e.base, e.bag))
    index = {e: i for i, e in enumerate(elements)}

    def multiply(a: FreeKCyclicElement, b: FreeKCyclicElement) -> FreeKCyclicElement:
        if idempotent and a.base == b.base:
            return a
        bag = list(a.bag)
        bag[b.base] = (bag[b.base] + 1) % k
        return FreeKCyclicElement(a.base, tuple(bag))

    table = CayleyTable(len(elements), tuple(
        tuple(index[multiply(a, b)] for b in elements) for a in elements))
    return FreeMagmaResult(table, tuple(elements))


# ---------------------------------------------------------------------------
# plain structure builders


def magma_from_function(f: FiniteFunction) -> CayleyTable:
    """The magma x.y = f(x); every row x is constant at f(x)."""
    if f.codomain != f.n:
        raise ValueError("need a self-map")
    return CayleyTable(f.n, tuple((f(x),) * f.n for x in range(f.n)))


def left_zero_table(n: int) -> CayleyTable:
    return CayleyTable(n, tuple((x,) * n for x in range(n)))


def right_zero_table(n: int) -> CayleyTable:
    return CayleyTable(n, tuple(tuple(range(n)) for _ in range(n)))


def trivial_bimagma(n: int) -> BiMagma:
    """Left-zero dot with right-zero star; the unitary baseline structure."""
    _check_size("trivial bi-magma", n, 2 * n * n)
    return BiMagma(left_zero_table(n), right_zero_table(n))


def trivial_brace(group: CayleyTable) -> BiMagma:
    """Both brace operations equal to the given group, refused above
    ``_BRACE_TRIPLES`` triples of its associativity check before any is read."""
    if group.n ** 3 > _BRACE_TRIPLES:
        raise GuardExceeded(f"trivial brace's associativity check would read {group.n ** 3} "
                            f"triples (limit {_BRACE_TRIPLES})")
    if group_structure(group.table) is None:
        raise ValueError("trivial brace needs a group table")
    return BiMagma(group, group)


def cyclic_group_table(n: int) -> CayleyTable:
    _check_size("cyclic group", n, n * n)
    return CayleyTable(n, tuple(tuple((x + y) % n for y in range(n)) for x in range(n)))


def symmetric_group_table(degree: int) -> CayleyTable:
    """The composition table of all permutations of ``degree`` points,
    elements numbered in lexicographic order of their image tuples."""
    perms = sorted(itertools.permutations(range(degree)))
    index = {p: i for i, p in enumerate(perms)}
    size = len(perms)
    rows = []
    for p in perms:
        rows.append(tuple(index[tuple(p[q[i]] for i in range(degree))] for q in perms))
    return CayleyTable(size, tuple(rows))
