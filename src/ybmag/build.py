"""Constructors for the named solutions and magma structures.

Each solution spec is a small frozen dataclass; ``build_solution`` turns it
into an R-map.  Free k-cyclic magmas come with a printable element legend.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Union

from .core import (_BUILD_ELEMENTS, BiMagma, CayleyTable, FiniteFunction, GuardExceeded,
                   RMap, _check_size, canonical_correspondence, flip_map, identity_rmap,
                   lyubashenko_rmap)
from .families import OdometerTriple, _prime_factors, build_odometer
from .laws import BiMagmaLaw, check_bimagma_law, group_structure
from .plonka import BiPlonkaPartition, rebuild


# most triples of a trivial brace's associativity check; on a 2-vCPU VM
# 400 points (2^26 triples) took 0.89 s and 800 points 4.8 s
_BRACE_TRIPLES = 1 << 27


def _refuse_uncounted(what: str) -> None:
    """Refuse a structure whose element count passes 2^64, which is past
    every limit, before the count is computed."""
    raise GuardExceeded(f"{what} would have more than 2**64 elements (limit {_BUILD_ELEMENTS})")


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
        _check_size(_SOLUTIONS[EssSolution][0], self.p)   # before the O(sqrt p) factoring
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


# each spec type: the name its refusals use, its carrier and its builder
_SOLUTIONS = {
    IdentitySolution: ("identity solution", lambda s: s.n, lambda s: identity_rmap(s.n)),
    FlipSolution: ("flip solution", lambda s: s.n, lambda s: flip_map(s.n)),
    LyubashenkoSolution: ("Lyubashenko solution", lambda s: s.f.n,
                          lambda s: lyubashenko_rmap(s.f, s.g)),
    RightPlonkaOppositeSolution: ("opposite solution", lambda s: s.magma.n, lambda s:
                                  canonical_correspondence(BiMagma(s.magma, s.magma.opposite()))),
    EssSolution: ("ESS solution", lambda s: s.p, lambda s: RMap.from_function(
        s.p, lambda x, y: ((y + s.h2) % s.p, (x + s.h1) % s.p))),
    BlsFromPartitionSolution: ("BLS solution from a partition", lambda s: s.partition.partition.n,
                               lambda s: canonical_correspondence(rebuild(s.partition))),
    OdometerSolution: ("odometer solution", lambda s: s.triple.carrier,
                       lambda s: lyubashenko_rmap(*build_odometer(s.triple))),
    SkewBraceSolution: ("skew brace solution", lambda s: s.brace.n,
                        lambda s: _skew_brace_rmap(s.brace)),
}


def build_solution(spec: SolutionSpec) -> RMap:
    """Realise a solution spec as an R-map, refused before anything is built
    above ``_check_size``'s limits on its n points and n^2 output pairs.

    The skew-brace variant validates the brace axioms up front and produces
    a braid solution, not a Yang-Baxter one; compose with the flip to move
    between the conventions.
    """
    if type(spec) not in _SOLUTIONS:
        raise TypeError(f"unknown solution spec {type(spec).__name__}")
    name, carrier, builder = _SOLUTIONS[type(spec)]
    _check_size(name, carrier(spec), carrier(spec) ** 2)
    return builder(spec)


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
    exponent = generators - 1 if idempotent else generators
    if k > 1 and exponent * (k.bit_length() - 1) >= 64:
        _refuse_uncounted("free magma")
    size = generators * k ** exponent
    _check_size("free magma", size, size * size)
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
    _check_size("magma from a function", f.n, f.n * f.n)
    return CayleyTable(f.n, tuple((f(x),) * f.n for x in range(f.n)))


def left_zero_table(n: int) -> CayleyTable:
    return CayleyTable(n, tuple((x,) * n for x in range(n)))


def right_zero_table(n: int) -> CayleyTable:
    return CayleyTable(n, tuple(tuple(range(n)) for _ in range(n)))


def trivial_bimagma(n: int) -> BiMagma:
    """Left-zero dot with right-zero star; the unitary baseline structure."""
    _check_size("trivial bi-magma", n, 2 * n * n)
    return BiMagma(left_zero_table(n), right_zero_table(n))


def _check_brace_triples(n: int) -> None:
    if n ** 3 > _BRACE_TRIPLES:
        raise GuardExceeded(f"trivial brace's associativity check would read {n ** 3} "
                            f"triples (limit {_BRACE_TRIPLES})")


def trivial_brace(group: CayleyTable) -> BiMagma:
    """Both brace operations equal to the given group, refused above
    ``_BRACE_TRIPLES`` triples of its associativity check before any is read."""
    _check_brace_triples(group.n)
    if group_structure(group.table) is None:
        raise ValueError("trivial brace needs a group table")
    return BiMagma(group, group)


def cyclic_trivial_brace(n: int) -> BiMagma:
    """The trivial brace on Z/n, refused before its group is built: above the
    group's elements, then its cells, then the brace's triples."""
    _check_size("cyclic group", n, n * n)
    _check_brace_triples(n)
    return trivial_brace(cyclic_group_table(n))


def cyclic_group_table(n: int) -> CayleyTable:
    _check_size("cyclic group", n, n * n)
    return CayleyTable(n, tuple(tuple((x + y) % n for y in range(n)) for x in range(n)))


def symmetric_group_table(degree: int) -> CayleyTable:
    """The composition table of all permutations of ``degree`` points,
    elements numbered in lexicographic order of their image tuples."""
    if degree > 20:   # 21! passes 2^64
        _refuse_uncounted("symmetric group")
    size = math.factorial(max(degree, 0))
    _check_size("symmetric group", size, size * size)
    perms = sorted(itertools.permutations(range(degree)))
    index = {p: i for i, p in enumerate(perms)}
    rows = []
    for p in perms:
        rows.append(tuple(index[tuple(p[q[i]] for i in range(degree))] for q in perms))
    return CayleyTable(size, tuple(rows))
