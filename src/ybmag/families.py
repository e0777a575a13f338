"""Commuting self-map families: incompressibility, group recovery, odometer
canonical forms, and the divisor-chain class count.

An incompressible commuting family on a finite carrier is, up to
isomorphism, an abelian group acting on itself by translations, with the
members a monoid-generating tuple.  Pairs are classified by triples
(m, n, d): the carrier is Z/m x Z/n, the first map is translation by
(1, 0), and the second is the carry map whose n-th power is translation by
(-d, 0).

A recovered group's invariant factors are found by matching its torsion
counts (the number of elements of order dividing m, for each m dividing the
order) against those of the abelian groups of that order.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence

from .core import (CrossCheckFailed, FiniteFunction, GuardExceeded, Limits,
                   DEFAULT_LIMITS, _check_carrier, closure, identity_function)


class FamilyError(ValueError):
    """A family operation's structural precondition failed."""


@dataclass(frozen=True)
class FunctionFamily:
    n: int
    members: tuple[FiniteFunction, ...]

    def __post_init__(self) -> None:
        _check_carrier(self.n)
        if not self.members:
            raise FamilyError("family must have at least one member")
        for f in self.members:
            if f.n != self.n or f.codomain != self.n:
                raise FamilyError("members must be self-maps on the shared carrier")

    @staticmethod
    def from_images(images: Sequence[Sequence[int]]) -> "FunctionFamily":
        n = len(images[0])
        return FunctionFamily(n, tuple(FiniteFunction(n, tuple(im)) for im in images))


@dataclass(frozen=True)
class FamilyFlags:
    commuting: bool
    bijective_members: bool
    incompressible: bool
    connected: bool


def is_incompressible(family: FunctionFamily) -> bool:
    """No proper non-empty subset is carried into itself by every member;
    equivalently the forward closure of each point is the whole carrier."""
    maps = [f.images for f in family.members]
    return all(len(closure(maps, (x,))) == family.n for x in range(family.n))


def analyze_family(family: FunctionFamily) -> FamilyFlags:
    from .plonka import connected_components
    members = family.members
    commuting = all(f.compose(g) == g.compose(f)
                    for f, g in itertools.combinations(members, 2))
    bijective = all(f.is_bijective() for f in members)
    incompressible = is_incompressible(family)
    connected = len(connected_components(family.n, members)) <= 1
    return FamilyFlags(commuting, bijective, incompressible, connected)


@dataclass(frozen=True)
class AbelianGroupStructure:
    """A group structure transported onto the carrier with base point 0 as
    identity.  ``coordinates[x]`` locates x in the product of cyclic groups
    of the invariant factors; ``generator_images`` are the family members as
    group elements."""

    order: int
    invariant_factors: tuple[int, ...]
    op: tuple[tuple[int, ...], ...]
    coordinates: tuple[tuple[int, ...], ...]
    generator_images: tuple[int, ...]

    def __post_init__(self) -> None:
        factors = self.invariant_factors
        for a, b in zip(factors, factors[1:]):
            if b % a != 0:
                raise ValueError("invariant factors must form a divisibility chain")
        prod = 1
        for d in factors:
            prod *= d
        if prod != max(self.order, 1):
            raise ValueError("invariant factors must multiply to the group order")


def _function_monoid(members: Sequence[FiniteFunction]) -> list[FiniteFunction]:
    n = members[0].n
    ident = identity_function(n)
    seen = {ident.images: ident}
    frontier = [ident]
    while frontier:
        new = []
        for h in frontier:
            for f in members:
                g = f.compose(h)
                if g.images not in seen:
                    seen[g.images] = g
                    new.append(g)
        frontier = new
    return list(seen.values())


def _prime_factors(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _element_order(op, x: int, identity: int = 0) -> int:
    order, v = 1, x
    while v != identity:
        v = op[v][x]
        order += 1
    return order


def _invariant_factors_from_table(op: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    """Invariant factors of a finite abelian group given by its table.

    A finite abelian group is fixed by the sizes of its m-torsion subgroups,
    which in the product of Z/d over the factors d have prod gcd(m, d)
    elements; the answer is the abelian group of the table's order whose
    torsion counts match the table's for every m dividing that order.
    """
    n = len(op)
    orders = [_element_order(op, x) for x in range(n)]
    divisors = [m for m in range(1, n + 1) if n % m == 0]
    torsion = [sum(1 for o in orders if m % o == 0) for m in divisors]
    for factors in abelian_invariant_factor_lists(n):
        if torsion == [math.prod(math.gcd(m, d) for d in factors) for m in divisors]:
            return factors
    raise CrossCheckFailed(f"torsion counts {torsion} match no abelian group of order {n}")


def recover_group(family: FunctionFamily) -> AbelianGroupStructure:
    """The abelian group hidden in a commuting incompressible family.

    The monoid generated by the members is a group acting freely and
    transitively; evaluating at the base point 0 identifies the carrier with
    that group, making 0 the identity and each member the translation by its
    own value at 0.
    """
    flags = analyze_family(family)
    if not flags.commuting:
        raise FamilyError("family members do not commute")
    if not flags.incompressible:
        raise FamilyError("family is compressible")
    n = family.n
    monoid = _function_monoid(family.members)
    if len(monoid) != n:
        raise FamilyError("generated monoid does not act freely and transitively")
    by_value = {}
    for h in monoid:
        v = h(0)
        if v in by_value:
            raise FamilyError("generated monoid does not act freely")
        by_value[v] = h
    op = tuple(tuple(by_value[x](y) for y in range(n)) for x in range(n))
    for x in range(n):
        for y in range(n):
            if op[x][y] != op[y][x]:
                raise FamilyError("recovered operation is not commutative")
    factors = _invariant_factors_from_table(op)
    coords = _coordinates(op, factors)
    gens = tuple(f(0) for f in family.members)
    return AbelianGroupStructure(n, factors, op, coords, gens)


def _basis_expansions(op, factors: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """Injective homomorphisms from the product of cyclic groups of the
    factors into the abelian group table, as the images of the coordinate
    vectors in row-major order; the i-th basis vector runs over the elements
    of order factors[i], bases in ``itertools.product`` order."""
    orders = [_element_order(op, x) for x in range(len(op))]
    candidates = [[x for x, o in enumerate(orders) if o == d] for d in factors]
    for basis in itertools.product(*candidates):
        images = [0]
        for b, d in zip(basis, factors):
            multiples = [0]
            for _ in range(d - 1):
                multiples.append(op[multiples[-1]][b])
            images = [op[v][w] for v in images for w in multiples]
        if len(set(images)) == len(images):
            yield tuple(images)


def _coordinates(op, factors: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """An explicit isomorphism from the table onto the product of cyclic
    groups of the invariant factors: the first basis expansion, inverted."""
    images = next(_basis_expansions(op, factors), None)
    if images is None:
        raise FamilyError("no basis realises the invariant factors")
    vectors = itertools.product(*(range(d) for d in factors))
    return tuple(v for _, v in sorted(zip(images, vectors)))


@dataclass(frozen=True)
class OdometerTriple:
    """Canonical form (m, n, d) of an incompressible commuting pair on m*n
    points; 1 <= d <= m.  Infinite carriers (the m = 0 convention) are not
    representable here."""

    m: int
    n: int
    d: int

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError("m = 0 encodes an infinite carrier, which is unsupported")
        if self.n < 1:
            raise ValueError("n must be positive")
        if not 1 <= self.d <= self.m:
            raise ValueError("d must lie in 1..m")

    @property
    def carrier(self) -> int:
        return self.m * self.n


def build_odometer(triple: OdometerTriple) -> tuple[FiniteFunction, FiniteFunction]:
    """The canonical pair on Z/m x Z/n in row-major order: f shifts the
    first coordinate, g increments the second and carries -d on wraparound."""
    m, n, d = triple.m, triple.n, triple.d
    size = m * n
    f_images = [0] * size
    g_images = [0] * size
    for a in range(m):
        for b in range(n):
            idx = a * n + b
            f_images[idx] = ((a + 1) % m) * n + b
            if b < n - 1:
                g_images[idx] = a * n + (b + 1)
            else:
                g_images[idx] = ((a - d) % m) * n
    return FiniteFunction(size, tuple(f_images)), FiniteFunction(size, tuple(g_images))


def odometer_canonicalize(f: FiniteFunction, g: FiniteFunction) -> OdometerTriple:
    """The classifying triple of an incompressible commuting pair: m is the
    order of f, n the index of its cycle subgroup, and d the unique value in
    1..m with g^n = f^(-d)."""
    family = FunctionFamily(f.n, (f, g))
    flags = analyze_family(family)
    if not flags.commuting:
        raise FamilyError("pair does not commute")
    if not flags.incompressible:
        raise FamilyError("pair is compressible")
    size = f.n
    ident = identity_function(size)
    m, power = 1, f
    while power != ident:
        power = f.compose(power)
        m += 1
    if size % m != 0:
        raise FamilyError("order of the first map does not divide the carrier")
    n = size // m
    gn = g.power(n)
    f_inv_step = f.power(m - 1)  # f^(-1)
    acc = ident
    for d in range(1, m + 1):
        acc = f_inv_step.compose(acc)
        if gn == acc:
            return OdometerTriple(m, n, d)
    raise FamilyError("g^n does not land in the cycle generated by f")


def count_incompressible(t: int, k: int) -> int:
    """Isomorphism classes of commuting incompressible k-member families on
    t points: the divisor-chain sum over 1 <= d_1 | d_2 | ... | d_(k-1) | t
    of the product d_1 ... d_(k-1)."""
    if t < 1 or k < 1:
        raise ValueError("t and k must be positive")
    return _count_chains(t, k)


@lru_cache(maxsize=None)
def _count_chains(t: int, k: int) -> int:
    if k == 1:
        return 1
    return sum(d * _count_chains(d, k - 1) for d in range(1, t + 1) if t % d == 0)


# ---------------------------------------------------------------------------
# enumeration of one representative per class


def _partitions(total: int) -> Iterator[tuple[int, ...]]:
    """Partitions of ``total`` as non-increasing tuples."""
    if total == 0:
        yield ()
        return
    def rec(remaining: int, cap: int) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, cap), 0, -1):
            for rest in rec(remaining - first, first):
                yield (first,) + rest
    yield from rec(total, total)


def abelian_invariant_factor_lists(t: int) -> list[tuple[int, ...]]:
    """All abelian groups of order t, one invariant-factor chain each."""
    if t == 1:
        return [()]
    per_prime: list[list[tuple[int, ...]]] = []
    primes: list[int] = []
    for p, a in sorted(_prime_factors(t).items()):
        primes.append(p)
        per_prime.append([tuple(part) for part in _partitions(a)])
    results = []
    for combo in itertools.product(*per_prime):
        width = max(len(part) for part in combo)
        factors = []
        for i in range(width):
            d = 1
            for p, part in zip(primes, combo):
                if i < len(part):
                    d *= p ** part[i]
            factors.append(d)
        factors.sort()
        results.append(tuple(factors))
    results.sort()
    return results


def _group_from_factors(factors: tuple[int, ...]) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Carrier size and addition table of the product of cyclic groups,
    elements enumerated in row-major coordinate order."""
    if not factors:
        return 1, ((0,),)
    size = 1
    for d in factors:
        size *= d
    vectors = list(itertools.product(*(range(d) for d in factors)))
    index = {v: i for i, v in enumerate(vectors)}
    op = tuple(tuple(index[tuple((a + b) % d for a, b, d in zip(u, v, factors))]
                     for v in vectors) for u in vectors)
    return size, op


def _group_automorphisms(factors: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Automorphisms of the product group as permutations of element labels:
    every basis expansion of the group into itself."""
    return list(_basis_expansions(_group_from_factors(factors)[1], factors))


def enumerate_incompressible(t: int, k: int,
                             limits: Limits = DEFAULT_LIMITS) -> list[FunctionFamily]:
    """One representative family per isomorphism class: for each abelian
    group of order t, the generating k-tuples modulo group automorphisms,
    each orbit keyed by its lexicographically least member."""
    if t < 1 or k < 1:
        raise ValueError("t and k must be positive")
    if t ** k > limits.family_enum:
        raise GuardExceeded(f"{t}**{k} generator tuples exceeds limit {limits.family_enum}")
    reps: list[FunctionFamily] = []
    for factors in abelian_invariant_factor_lists(t):
        size, op = _group_from_factors(factors)
        autos = _group_automorphisms(factors)
        seen: set[tuple[int, ...]] = set()
        for gens in itertools.product(range(size), repeat=k):
            if gens in seen:
                continue
            orbit = {tuple(a[g] for g in gens) for a in autos}
            seen |= orbit
            maps = [tuple(op[x][g] for x in range(size)) for g in min(orbit)]
            if len(closure(maps, (0,))) == size:
                reps.append(FunctionFamily.from_images(maps))
    reps.sort(key=lambda fam: tuple(f.images for f in fam.members))
    return reps
