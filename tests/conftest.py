"""Shared strategies and corpus generators for the suite.

The library itself has no randomness.  The corpus generators here draw
from explicitly seeded generators; the ``hypothesis`` strategies are not
seeded, so their tests draw new examples from run to run.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import strategies as st

from ybmag import (BiMagma, BiPlonkaPartition, CayleyTable, FiniteFunction,
                   OdometerTriple, RMap, SetPartition, build_odometer, rebuild)


# ---------------------------------------------------------------------------
# hypothesis strategies


@st.composite
def cayley_tables(draw, max_n: int = 5):
    n = draw(st.integers(min_value=1, max_value=max_n))
    rows = draw(st.lists(st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
                         min_size=n, max_size=n))
    return CayleyTable(n, tuple(tuple(r) for r in rows))


@st.composite
def bimagmas(draw, max_n: int = 4):
    n = draw(st.integers(min_value=1, max_value=max_n))
    def table():
        rows = draw(st.lists(st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
                             min_size=n, max_size=n))
        return CayleyTable(n, tuple(tuple(r) for r in rows))
    return BiMagma(table(), table())


@st.composite
def rmaps(draw, max_n: int = 4):
    n = draw(st.integers(min_value=1, max_value=max_n))
    out = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                        min_size=n * n, max_size=n * n))
    return RMap(n, tuple(out))


@st.composite
def self_maps(draw, max_n: int = 6):
    n = draw(st.integers(min_value=1, max_value=max_n))
    images = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    return FiniteFunction(n, tuple(images))


@st.composite
def permutation_tuples(draw, max_n: int = 5):
    n = draw(st.integers(min_value=1, max_value=max_n))
    return tuple(draw(st.permutations(list(range(n)))))


# ---------------------------------------------------------------------------
# census table stacks


def stack_rows(stacks) -> list[tuple[int, ...]]:
    """The rows of uint8 table stacks, one 2-D array or an iterable of them
    such as a census raw stream, as int tuples."""
    if isinstance(stacks, np.ndarray):
        stacks = [stacks]
    return [tuple(row) for stack in stacks for row in stack.tolist()]


# ---------------------------------------------------------------------------
# random Plonka bi-magma corpus


def random_partition(rng: random.Random, n: int) -> SetPartition:
    elems = list(range(n))
    rng.shuffle(elems)
    blocks = []
    i = 0
    while i < n:
        size = rng.randint(1, n - i)
        blocks.append(tuple(sorted(elems[i:i + size])))
        i += size
    return SetPartition(n, tuple(blocks))


def _commuting_seeds(rng: random.Random, size: int, involutive: bool) -> list[tuple[int, ...]]:
    if involutive:
        # a random involution: pair up some points
        points = list(range(size))
        rng.shuffle(points)
        images = list(range(size))
        for i in range(0, size - 1, 2):
            if rng.random() < 0.7:
                a, b = points[i], points[i + 1]
                images[a], images[b] = b, a
        return [tuple(images)]
    seeds = [tuple(rng.randrange(size) for _ in range(size))]
    if size <= 4:
        base = seeds[0]
        for _ in range(30):
            cand = tuple(rng.randrange(size) for _ in range(size))
            if all(cand[base[x]] == base[cand[x]] for x in range(size)):
                seeds.append(cand)
                break
    return seeds


def _seed_product(rng: random.Random, size: int, seeds, max_power: int) -> tuple[int, ...]:
    img = list(range(size))
    for seed in seeds:
        for _ in range(rng.randrange(max_power + 1)):
            img = [seed[v] for v in img]
    return tuple(img)


def random_bi_partition(rng: random.Random, n: int) -> BiPlonkaPartition:
    """Valid bi-partition data: members of each block family are products of
    powers of commuting seed maps, so all commutation constraints hold."""
    part = random_partition(rng, n)
    k = len(part.blocks)
    flavour = rng.random()
    f_grid, g_grid = [], []
    for block in part.blocks:
        size = len(block)
        if flavour < 0.15:
            # unitary flavour: mutually inverse permutation powers
            perm = list(range(size))
            rng.shuffle(perm)
            order = 1
            img = list(perm)
            while img != list(range(size)):
                img = [perm[v] for v in img]
                order += 1
            f_row, g_row = [], []
            for _ in range(k):
                e = rng.randrange(order)
                fwd = list(range(size))
                for _ in range(e):
                    fwd = [perm[v] for v in fwd]
                back = list(range(size))
                for _ in range((order - e) % order):
                    back = [perm[v] for v in back]
                f_row.append(FiniteFunction(size, tuple(fwd)))
                g_row.append(FiniteFunction(size, tuple(back)))
        else:
            seeds = _commuting_seeds(rng, size, involutive=flavour < 0.30)
            max_power = 2 if flavour < 0.30 else size + 1
            f_row = [FiniteFunction(size, _seed_product(rng, size, seeds, max_power))
                     for _ in range(k)]
            g_row = [FiniteFunction(size, _seed_product(rng, size, seeds, max_power))
                     for _ in range(k)]
        f_grid.append(tuple(f_row))
        g_grid.append(tuple(g_row))
    return BiPlonkaPartition(part, tuple(f_grid), tuple(g_grid))


def random_plonka_bimagma(rng: random.Random, n: int) -> BiMagma:
    if rng.random() < 0.12:
        # simple flavour: a Lyubashenko bi-magma from an incompressible pair
        divisors = [m for m in range(1, n + 1) if n % m == 0]
        m = rng.choice(divisors)
        triple = OdometerTriple(m, n // m, rng.randint(1, m))
        f, g = build_odometer(triple)
        part = SetPartition(n, (tuple(range(n)),))
        return rebuild(BiPlonkaPartition(part, ((f,),), ((g,),)))
    return rebuild(random_bi_partition(rng, n))


@pytest.fixture(scope="session")
def plonka_corpus():
    """10_000 random Plonka bi-magmas on 1..8 points, fixed seed."""
    rng = random.Random(20240917)
    corpus = []
    for _ in range(10_000):
        n = rng.randint(1, 8)
        corpus.append(random_plonka_bimagma(rng, n))
    return corpus
