"""Finite carriers: self-maps, Cayley tables, bi-magmas, R-maps, partitions.

Elements of every carrier are the integers 0..n-1.  All values are frozen
after construction and safe to share between threads or processes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence, Union


class GuardExceeded(Exception):
    """A brute-force sweep was asked to exceed its configured size limit."""


class CrossCheckFailed(AssertionError):
    """An internal consistency check failed: two independent routes to the
    same count disagree, a count disagrees with its literature value, or a
    computed object fails the invariant it was built to have."""


@dataclass(frozen=True)
class Limits:
    """Size guards for the exhaustive searches.  All sweeps refuse, with an
    explicit error, to run above these bounds; nothing is silently truncated."""

    sn_sweep: int = 8            # n! sweeps over the symmetric group
    hom_space: int = 10**7       # |B|**|A| function sweeps
    subset_listing: int = 16     # 2**n ideal listings
    two_part_split: int = 16     # 2**(k-1) groupings of k finest blocks
    # exhaustive route of the simple-solution census; measured on a 2-vCPU
    # VM: t = 9 takes 0.25 s and 56 MB max RSS, t = 10 takes 2.8 s and 291 MB
    simple_bls_brute: int = 9
    # orbit sweep of the self-map conjugacy census, all n**n maps; measured
    # on a 2-vCPU VM: n = 8 takes 3.0 s per call and 57 MB max RSS
    conjugacy_census: int = 8
    census_carrier: int = 7      # table backtracking searches
    family_enum: int = 10**6     # generator-tuple enumeration, t**k; simple-BLS triples, sigma(t)


DEFAULT_LIMITS = Limits()


def _check_range(values: Iterable[int], bound: int, what: str) -> None:
    for v in values:
        # exactly int: a bool would serialise as True/False, which no parser reads back
        if type(v) is not int:
            raise ValueError(f"{what}: entry {v!r} is not an int")
        if not 0 <= v < bound:
            raise ValueError(f"{what}: entry {v!r} outside 0..{bound - 1}")


def _check_carrier(n: int, name: str = "n") -> None:
    # exactly int, as for entries: a size True or 1.0 serialises in a form no parser reads back
    if type(n) is not int or n < 0:
        raise ValueError(f"carrier size {name} must be an integer >= 0, got {name} = {n!r}")


@dataclass(frozen=True)
class FiniteFunction:
    """A function {0..n-1} -> {0..codomain-1}, stored as its tuple of images.

    ``codomain`` defaults to ``n``, the usual self-map case.
    """

    n: int
    images: tuple[int, ...]
    codomain: int = -1  # -1 means "same as n"

    def __post_init__(self) -> None:
        _check_carrier(self.n)
        if self.codomain == -1:
            object.__setattr__(self, "codomain", self.n)
        _check_carrier(self.codomain, "codomain")
        if len(self.images) != self.n:
            raise ValueError("images length must equal carrier size")
        if not isinstance(self.images, tuple):
            object.__setattr__(self, "images", tuple(self.images))
        _check_range(self.images, self.codomain, "FiniteFunction")

    def __call__(self, x: int) -> int:
        return self.images[x]

    def is_bijective(self) -> bool:
        return self.codomain == self.n and sorted(self.images) == list(range(self.n))

    def compose(self, other: "FiniteFunction") -> "FiniteFunction":
        """self after other."""
        if other.codomain != self.n:
            raise ValueError("composition mismatch")
        return FiniteFunction(other.n, tuple(self.images[v] for v in other.images), self.codomain)

    def power(self, k: int) -> "FiniteFunction":
        """self composed with itself k >= 0 times."""
        if self.codomain != self.n:
            raise ValueError("powers need a self-map")
        if type(k) is not int or k < 0:
            raise ValueError(f"power {k!r} is not an int >= 0")
        result = identity_function(self.n)
        base = self
        while k:
            if k & 1:
                result = base.compose(result)
            base = base.compose(base)
            k >>= 1
        return result

    @staticmethod
    def from_images(images: Sequence[int], codomain: Optional[int] = None) -> "FiniteFunction":
        return FiniteFunction(len(images), tuple(images), codomain if codomain is not None else -1)


def identity_function(n: int) -> FiniteFunction:
    return FiniteFunction(n, tuple(range(n)))


def closure(maps: Sequence[Sequence[int]], seed: Iterable[int]) -> set[int]:
    """The least set containing ``seed`` that every map carries into itself,
    each map given as its tuple of images."""
    seen = set(seed)
    stack = list(seen)
    while stack:
        x = stack.pop()
        for f in maps:
            v = f[x]
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return seen


@dataclass(frozen=True)
class Permutation(FiniteFunction):
    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.is_bijective():
            raise ValueError("permutation must be bijective")

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, v in enumerate(self.images):
            inv[v] = i
        return Permutation(self.n, tuple(inv))

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation(n, tuple(range(n)))


def all_permutations(n: int, limits: Limits = DEFAULT_LIMITS) -> Iterator[tuple[int, ...]]:
    """All permutations of 0..n-1 as tuples, in lexicographic order."""
    if n > limits.sn_sweep:
        raise GuardExceeded(f"S_{n} sweep refused (limit n <= {limits.sn_sweep})")
    return itertools.permutations(range(n))


@dataclass(frozen=True)
class CayleyTable:
    """A magma on 0..n-1: ``table[x][y]`` is the product x*y."""

    n: int
    table: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        _check_carrier(self.n)
        if len(self.table) != self.n:
            raise ValueError("table must have n rows")
        rows = []
        for row in self.table:
            row = tuple(row)
            if len(row) != self.n:
                raise ValueError("ragged Cayley table")
            _check_range(row, self.n, "CayleyTable")
            rows.append(row)
        object.__setattr__(self, "table", tuple(rows))

    def apply(self, x: int, y: int) -> int:
        return self.table[x][y]

    def row(self, x: int) -> tuple[int, ...]:
        return self.table[x]

    def column(self, y: int) -> tuple[int, ...]:
        return tuple(self.table[x][y] for x in range(self.n))

    def opposite(self) -> "CayleyTable":
        return CayleyTable(self.n, tuple(tuple(self.table[y][x] for y in range(self.n))
                                         for x in range(self.n)))

    def relabel(self, sigma: Sequence[int]) -> "CayleyTable":
        """Transport the structure along x -> sigma(x)."""
        inv = [0] * self.n
        for i, v in enumerate(sigma):
            inv[v] = i
        return CayleyTable(self.n, tuple(
            tuple(sigma[self.table[inv[x]][inv[y]]] for y in range(self.n))
            for x in range(self.n)))

    def flat(self) -> tuple[int, ...]:
        return tuple(v for row in self.table for v in row)

    @staticmethod
    def from_columns(n: int, columns: Sequence[Sequence[int]]) -> "CayleyTable":
        return CayleyTable(n, tuple(tuple(columns[y][x] for y in range(n)) for x in range(n)))

    @staticmethod
    def from_flat(n: int, flat: Sequence[int]) -> "CayleyTable":
        """The table whose row-major flattening (see ``flat``) is ``flat``."""
        return CayleyTable(n, tuple(tuple(flat[i * n:(i + 1) * n]) for i in range(n)))


@dataclass(frozen=True)
class BiMagma:
    """Two magma structures on a shared carrier."""

    dot: CayleyTable
    star: CayleyTable

    def __post_init__(self) -> None:
        if self.dot.n != self.star.n:
            raise ValueError("both tables must share the carrier size")

    @property
    def n(self) -> int:
        return self.dot.n

    def relabel(self, sigma: Sequence[int]) -> "BiMagma":
        return BiMagma(self.dot.relabel(sigma), self.star.relabel(sigma))

    @staticmethod
    def from_flat(n: int, flat: Sequence[int]) -> "BiMagma":
        """The bi-magma whose flattened dot table followed by its flattened
        star table is ``flat``."""
        return BiMagma(CayleyTable.from_flat(n, flat[:n * n]),
                       CayleyTable.from_flat(n, flat[n * n:]))


@dataclass(frozen=True)
class RMap:
    """A map X*X -> X*X stored as the n*n output pairs in row-major (x, y) order."""

    n: int
    out: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        _check_carrier(self.n)
        if len(self.out) != self.n * self.n:
            raise ValueError("out must list n*n pairs")
        pairs = []
        for uv in self.out:
            u, v = uv
            _check_range((u, v), self.n, "RMap")
            pairs.append((u, v))
        object.__setattr__(self, "out", tuple(pairs))

    def apply(self, x: int, y: int) -> tuple[int, int]:
        return self.out[x * self.n + y]

    def is_bijective(self) -> bool:
        return len(set(self.out)) == self.n * self.n

    def compose(self, other: "RMap") -> "RMap":
        """self after other."""
        if other.n != self.n:
            raise ValueError("carrier mismatch")
        return RMap(self.n, tuple(self.apply(u, v) for (u, v) in other.out))

    def relabel(self, sigma: Sequence[int]) -> "RMap":
        n = self.n
        inv = [0] * n
        for i, v in enumerate(sigma):
            inv[v] = i
        out = []
        for x in range(n):
            for y in range(n):
                u, v = self.apply(inv[x], inv[y])
                out.append((sigma[u], sigma[v]))
        return RMap(n, tuple(out))

    @staticmethod
    def from_function(n: int, fn) -> "RMap":
        return RMap(n, tuple(tuple(fn(x, y)) for x in range(n) for y in range(n)))


def flip_map(n: int) -> RMap:
    return RMap.from_function(n, lambda x, y: (y, x))


def identity_rmap(n: int) -> RMap:
    return RMap.from_function(n, lambda x, y: (x, y))


def lyubashenko_rmap(f: FiniteFunction, g: FiniteFunction) -> RMap:
    if f.n != g.n or f.codomain != f.n or g.codomain != g.n:
        raise ValueError("need two self-maps on the same carrier")
    return RMap.from_function(f.n, lambda x, y: (f(x), g(y)))


@dataclass(frozen=True)
class SetPartition:
    """A partition of 0..n-1 into sorted blocks, listed by least element."""

    n: int
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        _check_carrier(self.n)
        seen: set[int] = set()
        blocks = []
        for block in self.blocks:
            block = tuple(sorted(block))
            if not block:
                raise ValueError("empty block")
            for v in block:
                if v in seen:
                    raise ValueError(f"element {v} repeated across blocks")
                seen.add(v)
            _check_range(block, self.n, "SetPartition")
            blocks.append(block)
        if len(seen) != self.n:
            raise ValueError("blocks must cover the carrier")
        blocks.sort(key=lambda b: b[0])
        object.__setattr__(self, "blocks", tuple(blocks))

    def block_of(self) -> tuple[int, ...]:
        owner = [0] * self.n
        for i, block in enumerate(self.blocks):
            for v in block:
                owner[v] = i
        return tuple(owner)

    def __len__(self) -> int:
        return len(self.blocks)


@dataclass(frozen=True)
class Witness:
    """Minimal counterexample to a law: the inputs and both evaluated sides.

    ``kind`` distinguishes which equation (or structural condition) failed,
    so failure messages stand on their own.
    """

    kind: str
    inputs: tuple
    lhs: object = None
    rhs: object = None

    def describe(self) -> str:
        parts = [self.kind, "at", repr(self.inputs)]
        if self.lhs is not None or self.rhs is not None:
            parts += [f"lhs={self.lhs!r}", f"rhs={self.rhs!r}"]
        return " ".join(parts)


@dataclass(frozen=True)
class Verdict:
    holds: bool
    witness: Optional[Witness] = None

    def __post_init__(self) -> None:
        if self.holds and self.witness is not None:
            raise ValueError("a holding verdict carries no witness")
        if not self.holds and self.witness is None:
            raise ValueError("a failing verdict needs a witness")

    def __bool__(self) -> bool:
        return self.holds


VERDICT_OK = Verdict(True, None)


Structure = Union[CayleyTable, BiMagma, RMap]


def canonical_correspondence(value: Union[RMap, BiMagma]) -> Union[BiMagma, RMap]:
    """The bijection between R-maps and bi-magmas: R(x, y) = (x.y, x*y)."""
    if isinstance(value, RMap):
        n = value.n
        dot = CayleyTable(n, tuple(tuple(value.apply(x, y)[0] for y in range(n)) for x in range(n)))
        star = CayleyTable(n, tuple(tuple(value.apply(x, y)[1] for y in range(n)) for x in range(n)))
        return BiMagma(dot, star)
    if isinstance(value, BiMagma):
        n = value.n
        return RMap(n, tuple((value.dot.table[x][y], value.star.table[x][y])
                             for x in range(n) for y in range(n)))
    raise TypeError(f"expected RMap or BiMagma, got {type(value).__name__}")


def _is_rmap_morphism(sigma: Sequence[int], a: RMap, b: RMap) -> bool:
    n = a.n
    for x in range(n):
        for y in range(n):
            u, v = a.apply(x, y)
            if (sigma[u], sigma[v]) != b.apply(sigma[x], sigma[y]):
                return False
    return True


def find_homomorphisms(a: RMap, b: RMap, limits: Limits = DEFAULT_LIMITS) -> list[FiniteFunction]:
    """All maps sigma with (sigma x sigma) . R_a = R_b . (sigma x sigma),
    in lexicographic order of their image tuples."""
    space = b.n ** a.n
    if space > limits.hom_space:
        raise GuardExceeded(
            f"{b.n}**{a.n} = {space} candidate maps exceeds limit {limits.hom_space}")
    found = []
    for images in itertools.product(range(b.n), repeat=a.n):
        if _is_rmap_morphism(images, a, b):
            found.append(FiniteFunction(a.n, images, b.n))
    return found


def are_isomorphic(a: Structure, b: Structure,
                   limits: Limits = DEFAULT_LIMITS) -> Optional[Permutation]:
    """Brute-force isomorphism over S_n; returns the lexicographically least
    witnessing permutation, or None.  This is the oracle that the structured
    isomorphism tests are validated against."""
    if type(a) is not type(b):
        raise TypeError("can only compare structures of the same kind")
    n = a.n
    if b.n != n:
        return None
    for sigma in all_permutations(n, limits):
        if a.relabel(sigma) == b:
            return Permutation(n, sigma)
    return None


def automorphisms(a: Structure, limits: Limits = DEFAULT_LIMITS) -> list[Permutation]:
    """The automorphism group of the structure, as a list of permutations.

    Group closure is verified before returning.
    """
    n = a.n
    autos = [Permutation(n, sigma) for sigma in all_permutations(n, limits)
             if a.relabel(sigma) == a]
    images = {p.images for p in autos}
    for p in autos:
        for q in autos:
            if p.compose(q).images not in images:
                raise CrossCheckFailed("automorphism set not closed under composition")
    return autos
