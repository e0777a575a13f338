"""The benchmark's workloads, their inputs and their reference answers.

A workload is a list of queries; one job runs every query once, in order.
Each query is a call into ybmag plus a check against a reference that does
not come from the call itself: a literature count, an independently
computed number, a second route, a round trip, or a labelled count pinned
from the engine at the seed commit (marked ``pinned at seed`` below).

Only the ``structure-queries`` inputs depend on the seed (its corpus,
relabellings, random bi-magmas and query order).  The census and
cross-check jobs are fixed queries: the seed does not change them.

Library functions are named through this module's globals and looked up
when a query runs, so the tracer can wrap them like any other import.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
from dataclasses import dataclass
from typing import Callable, Optional

from ybmag.build import (EssSolution, OdometerSolution,
                         RightPlonkaOppositeSolution, build_solution,
                         free_k_cyclic, trivial_bimagma)
from ybmag.census import (CensusQuery, census_simple_bls, enumerate_structures,
                          function_conjugacy_census)
from ybmag.cli import main as cli_main
from ybmag.core import BiMagma, CayleyTable, FiniteFunction, canonical_correspondence
from ybmag.families import FunctionFamily, OdometerTriple, odometer_canonicalize
from ybmag.formats import parse_structure, serialize, serialize_json
from ybmag.ideals import decomposition_report, is_simple
from ybmag.laws import (BiMagmaLaw, MagmaLaw, RMapLaw, check_bimagma_law,
                        check_magma_law, check_rmap_law)
from ybmag.plonka import bi_plonka_partition, plonka_partition, rebuild, structured_iso

# ---------------------------------------------------------------------------
# references

# Right involutory right Plonka magmas up to isomorphism on 1..6 points
# (the paper's census counts).
RIGHT_INVOLUTORY_CLASSES = {1: 1, 2: 2, 3: 4, 4: 12, 5: 37, 6: 164}
# Conjugacy classes of self-maps: OEIS A001372 (all) and A001373 (connected).
SELF_MAP_CLASSES = {1: 1, 2: 3, 3: 7, 4: 19, 5: 47, 6: 130}
CONNECTED_SELF_MAP_CLASSES = {1: 1, 2: 2, 3: 4, 4: 9, 5: 20, 6: 51}
# Labelled (raw) census counts and the bi-magma class counts, which have no
# literature value: pinned at seed from the engine's census rows.
PINNED_AT_SEED = {
    ("right_plonka+right_involutory", 4): (12, 70),
    ("right_plonka+right_involutory", 6): (164, 16636),
    ("right_plonka+associative", 3): (3, 10),
    ("right_plonka+associative", 4): (5, 41),
    ("bls", 2): (7, 10),
    ("bls", 3): (55, 249),
    ("plonka_bimagma", 2): (7, 10),
    ("plonka_bimagma", 3): (55, 249),
}


def partition_number(n: int) -> int:
    """p(n), by the recurrence over the largest part."""
    def count(total: int, cap: int) -> int:
        if total == 0:
            return 1
        return sum(count(total - part, part) for part in range(1, min(total, cap) + 1))
    return count(n, n)


def divisor_sum(t: int) -> int:
    """sigma(t), the number of simple solutions on t points."""
    return sum(d for d in range(1, t + 1) if t % d == 0)


# ---------------------------------------------------------------------------
# workload model


@dataclass(frozen=True)
class Query:
    """One call into ybmag: ``run(workers)`` returns the output and
    ``check(output, earlier)`` compares it with the reference, where
    ``earlier`` maps the keys of the job's earlier queries to their outputs."""

    key: str
    run: Callable[[int], object]
    check: Callable[[object, dict], bool]
    # whether the call runs in ``workers`` processes; otherwise it runs in one
    forks: bool = False


@dataclass
class Workload:
    name: str
    queries: list[Query]
    # census calls take a worker count; a job at workers=2 differs only there
    parallel: bool = False
    # set when the seed chose the inputs; it also shuffles each job's order
    order_seed: Optional[int] = None

    @property
    def seeded(self) -> bool:
        return self.order_seed is not None

    def job(self, index: int) -> list[Query]:
        """The queries of job ``index``; seeded workloads shuffle them."""
        if self.order_seed is None:
            return list(self.queries)
        order = list(self.queries)
        random.Random(self.order_seed * 1_000_003 + index).shuffle(order)
        return order


# ---------------------------------------------------------------------------
# census-narrow, census-wide, cross-check


def _census_query(n: int, *, magma=(), bimagma=(), rmap=()) -> CensusQuery:
    return CensusQuery(n, tuple(magma), tuple(bimagma), tuple(rmap))


def _row_matches(label: str, n: int, expected_classes: int) -> Callable:
    pinned_classes, pinned_raw = PINNED_AT_SEED[(label, n)]
    if pinned_classes != expected_classes:
        raise ValueError(f"reference tables disagree for {label} at n={n}")

    def check(result, earlier) -> bool:
        return (result.row.class_count == expected_classes
                and result.row.raw_count == pinned_raw)
    return check


def census_narrow(tiny: bool) -> Workload:
    n = 4 if tiny else 6
    query = _census_query(n, magma=(MagmaLaw.RIGHT_PLONKA, MagmaLaw.RIGHT_INVOLUTORY))
    label = query.label()
    return Workload("census-narrow", [
        Query(f"{label}@{n}", lambda w: enumerate_structures(query, workers=w),
              _row_matches(label, n, RIGHT_INVOLUTORY_CLASSES[n]), forks=True),
    ], parallel=True)


def census_wide(tiny: bool) -> Workload:
    n_assoc, n_bi = (3, 2) if tiny else (4, 3)
    assoc = _census_query(n_assoc, magma=(MagmaLaw.RIGHT_PLONKA, MagmaLaw.ASSOCIATIVE))
    bls = _census_query(n_bi, rmap=(RMapLaw.BLS,))
    plonka_bi = _census_query(n_bi, bimagma=(BiMagmaLaw.PLONKA_BIMAGMA,))
    bls_classes = PINNED_AT_SEED[("bls", n_bi)][0]
    bls_check = _row_matches("bls", n_bi, bls_classes)
    plonka_check = _row_matches("plonka_bimagma", n_bi, bls_classes)

    def second_route(result, earlier) -> bool:
        # criterion 04 at census scale: the BLS route and the bi-magma axiom
        # route find the same classes and the same labelled structures
        first = earlier["bls"]
        return (plonka_check(result, earlier)
                and result.row.class_count == first.row.class_count
                and result.row.raw_count == first.row.raw_count)

    return Workload("census-wide", [
        Query(f"{assoc.label()}@{n_assoc}", lambda w: enumerate_structures(assoc, workers=w),
              _row_matches(assoc.label(), n_assoc, partition_number(n_assoc)), forks=True),
        # bi-magma censuses take a worker count but run in one process
        Query("bls", lambda w: enumerate_structures(bls, workers=w), bls_check),
        Query("plonka_bimagma", lambda w: enumerate_structures(plonka_bi, workers=w),
              second_route),
    ], parallel=True)


def cross_check(tiny: bool) -> Workload:
    t, n = (4, 4) if tiny else (8, 6)

    def simple_ok(result, earlier) -> bool:
        return result.count == result.pair_route_count == divisor_sum(t)

    return Workload("cross-check", [
        Query(f"simple_bls@{t}", lambda w: census_simple_bls(t), simple_ok),
        Query(f"self_maps@{n}", lambda w: function_conjugacy_census(n),
              lambda out, earlier: out == SELF_MAP_CLASSES[n]),
        Query(f"connected_self_maps@{n}",
              lambda w: function_conjugacy_census(n, connected_only=True),
              lambda out, earlier: out == CONNECTED_SELF_MAP_CLASSES[n]),
    ])


# ---------------------------------------------------------------------------
# structure-queries

# Free k-cyclic magmas (generators, k, idempotent) on both sides of the
# vectorised law path (n >= 24): n = 10, 12, 18 | 24, 27, 32, 48.
FREE_SPECS = ((2, 5, True), (3, 2, True), (2, 3, False), (3, 2, False),
              (3, 3, True), (4, 2, True), (3, 4, True))
TINY_FREE_SPECS = ((2, 2, True), (3, 2, True), (3, 2, False))
# R-map laws run in full on the right-Plonka-opposite solution, by carrier.
# They are the few large inputs that set the query tail, and they make a job
# long enough (about 2 s) that its time averages over short swings in the
# speed of a shared machine.
OPPOSITE_LAWS = {12: (RMapLaw.YANG_BAXTER, RMapLaw.BLS), 18: (RMapLaw.YANG_BAXTER,),
                 24: (RMapLaw.YANG_BAXTER,), 27: (RMapLaw.BLS,),
                 32: (RMapLaw.YANG_BAXTER, RMapLaw.BLS), 48: (RMapLaw.YANG_BAXTER, RMapLaw.BLS)}
# structured_iso searches block-local bijections by brute force; with blocks
# of 8 points its cost depends on the relabelling, so only blocks of at most
# 5 points are used and the job costs the same for every seed
ISO_SIZES = (4, 10, 12)
BI_PLONKA_SIZES = (12, 24, 32)
DECOMPOSE_SIZES = (4, 10, 12)          # two-part split search is 2**(n-1)
ODOMETER_CARRIERS = (6, 8, 9, 12)
ESS_PRIMES = (5, 7, 11)
RANDOM_BIMAGMAS = 8                    # per carrier size 3 and 4


def _permutation(rng: random.Random, n: int) -> tuple[int, ...]:
    images = list(range(n))
    rng.shuffle(images)
    return tuple(images)


def _holds(expected: bool) -> Callable:
    return lambda verdict, earlier: verdict.holds is expected


def _round_trips(original) -> Callable:
    return lambda out, earlier: out == original


def _magma_queries(m: CayleyTable, generators: int, k: int, idempotent: bool,
                   rng: random.Random) -> list[Query]:
    n = m.n
    qs = [
        Query(f"right_plonka@{n}", lambda w: check_magma_law(m, MagmaLaw.RIGHT_PLONKA),
              _holds(True)),
        Query(f"k_cyclic@{n}", lambda w: check_magma_law(m, MagmaLaw.K_CYCLIC, k),
              _holds(True)),
        Query(f"band@{n}", lambda w: check_magma_law(m, MagmaLaw.BAND), _holds(idempotent)),
        Query(f"serialize@{n}", lambda w: parse_structure(serialize(m)), _round_trips(m)),
    ]
    for extremity in ("coarsest", "finest"):
        def partition_round_trip(w, extremity=extremity):
            part = plonka_partition(m, extremity)
            return part, rebuild(part)

        def rebuilt_exactly(out, earlier, extremity=extremity):
            part, rebuilt = out
            # the coarsest blocks of a free magma are its generators' classes
            return rebuilt == m and (extremity != "coarsest" or len(part.partition) == generators)

        qs.append(Query(f"plonka_{extremity}@{n}", partition_round_trip, rebuilt_exactly))
    if n in ISO_SIZES:
        target = m.relabel(_permutation(rng, n))
        qs.append(Query(f"structured_iso@{n}", lambda w: structured_iso(m, target),
                        lambda sigma, earlier: sigma is not None
                        and m.relabel(sigma.images) == target))
    return qs


def _opposite_queries(r, n: int, tiny: bool) -> list[Query]:
    qs = [Query(f"opposite_simple@{n}", lambda w: is_simple(r), _holds(False))]
    for law in OPPOSITE_LAWS.get(n, ()) if not tiny or n <= 12 else ():
        qs.append(Query(f"opposite_{law.value}@{n}", lambda w, law=law: check_rmap_law(r, law),
                        _holds(True)))
    if n in BI_PLONKA_SIZES:
        def bi_round_trip(w):
            b = canonical_correspondence(r)
            return b, rebuild(bi_plonka_partition(b, "coarsest"))
        qs.append(Query(f"bi_plonka@{n}", bi_round_trip,
                        lambda out, earlier: out[0] == out[1]))
    if n in DECOMPOSE_SIZES:
        qs.append(Query(f"opposite_report@{n}", lambda w: decomposition_report(r),
                        lambda rep, earlier: rep.biconnected is False
                        and rep.ess_indecomposable is False))
    if n == 12:
        qs.append(Query(f"serialize_rmap@{n}", lambda w: parse_structure(serialize(r)),
                        _round_trips(r)))
        qs.append(Query(f"json_rmap@{n}", lambda w: parse_structure(serialize_json(r)),
                        _round_trips(r)))
    return qs


def _odometer_queries(triple: OdometerTriple, sigma) -> tuple[list[Query], object, FunctionFamily]:
    r = build_solution(OdometerSolution(triple)).relabel(sigma)
    pair = canonical_correspondence(r)
    dot, star = pair.dot, pair.star
    f = FiniteFunction(r.n, tuple(dot.table[x][0] for x in range(r.n)))
    g = FiniteFunction(r.n, tuple(star.table[0][y] for y in range(r.n)))
    family = FunctionFamily(r.n, (f, g))
    t = triple.carrier
    qs = [
        Query(f"odometer_yang_baxter@{t}", lambda w: check_rmap_law(r, RMapLaw.YANG_BAXTER),
              _holds(True)),
        Query(f"odometer_bls@{t}", lambda w: check_rmap_law(r, RMapLaw.BLS), _holds(True)),
        Query(f"odometer_simple@{t}", lambda w: is_simple(r), _holds(True)),
        Query(f"odometer_classify@{t}", lambda w: odometer_canonicalize(f, g),
              lambda out, earlier: out == triple),
        Query(f"serialize_family@{t}", lambda w: parse_structure(serialize(family)),
              _round_trips(family)),
    ]
    if t <= 12:
        qs.append(Query(f"odometer_report@{t}", lambda w: decomposition_report(r),
                        lambda rep, earlier: rep.biconnected and rep.ess_indecomposable))
    return qs, r, family


def _random_table(rng: random.Random, n: int) -> CayleyTable:
    return CayleyTable(n, tuple(tuple(rng.randrange(n) for _ in range(n)) for _ in range(n)))


def _small_plonka_bimagmas(rng: random.Random, tiny: bool) -> list[BiMagma]:
    """Plonka bi-magmas on 3 and 4 points from the builders, relabelled."""
    found = [trivial_bimagma(3), trivial_bimagma(4),
             canonical_correspondence(build_solution(
                 RightPlonkaOppositeSolution(free_k_cyclic(2, 2, True).table)))]
    for m, d in ((1, 1), (3, 1), (3, 2), (2, 1), (2, 2)):
        for carrier in (3, 4):
            if carrier % m == 0:
                r = build_solution(OdometerSolution(OdometerTriple(m, carrier // m, d)))
                found.append(canonical_correspondence(r))
    relabelled = []
    for i in range(4 if tiny else 2 * RANDOM_BIMAGMAS):
        b = found[i % len(found)]
        relabelled.append(b.relabel(_permutation(rng, b.n)))
    return relabelled


def _bimagma_agreement(b: BiMagma, expected: Optional[bool], label: str) -> Query:
    def both(w):
        return (check_rmap_law(canonical_correspondence(b), RMapLaw.BLS).holds,
                check_bimagma_law(b, BiMagmaLaw.PLONKA_BIMAGMA).holds)

    def agree(out, earlier) -> bool:
        return out[0] == out[1] and (expected is None or out[0] is expected)

    return Query(label, both, agree)


def _cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(argv)
    return code, buf.getvalue()


def _cli_queries(workdir: str, m: CayleyTable, m_relabelled: CayleyTable, generators: int,
                 opposite, odometer, family: FunctionFamily, triple: OdometerTriple
                 ) -> list[Query]:
    paths = {}
    for name, value in (("magma", m), ("magma_relabelled", m_relabelled),
                        ("opposite", opposite), ("odometer", odometer), ("family", family)):
        paths[name] = os.path.join(workdir, f"{name}.txt")
        with open(paths[name], "w", encoding="utf-8") as fh:
            fh.write(serialize(value))

    def iso_ok(out, earlier) -> bool:
        code, text = out
        words = text.split()
        if code != 0 or not words or words[0] != "ISOMORPHIC":
            return False
        return m.relabel(tuple(int(v) for v in words[1:])) == m_relabelled

    def exact(code: int, text: str) -> Callable:
        return lambda out, earlier: out == (code, text)

    return [
        Query("cli_check_right_plonka",
              lambda w: _cli(["check", "--law", "right-plonka", paths["magma"]]),
              exact(0, "HOLDS\n")),
        Query("cli_check_bls", lambda w: _cli(["check", "--law", "bls", paths["opposite"]]),
              exact(0, "HOLDS\n")),
        Query("cli_simple_odometer", lambda w: _cli(["simple", paths["odometer"]]),
              exact(0, "SIMPLE\n")),
        Query("cli_simple_opposite", lambda w: _cli(["simple", paths["opposite"]]),
              lambda out, earlier: out[0] == 1 and out[1].startswith("NOT_SIMPLE\n")),
        Query("cli_iso_structured",
              lambda w: _cli(["iso", "--method", "structured", paths["magma"],
                              paths["magma_relabelled"]]), iso_ok),
        Query("cli_decompose",
              lambda w: _cli(["decompose", "--extremity", "coarsest", paths["magma"]]),
              lambda out, earlier: out[0] == 0
              and out[1].count("block ") == generators),
        Query("cli_report_odometer", lambda w: _cli(["report", paths["odometer"]]),
              lambda out, earlier: out[0] == 0 and out[1].startswith("biconnected true\n")),
        Query("cli_classify_odometer", lambda w: _cli(["classify-odometer", paths["family"]]),
              exact(0, f"{triple.m} {triple.n} {triple.d}\n")),
    ]


def structure_queries(seed: int, tiny: bool, workdir: str) -> Workload:
    rng = random.Random(seed)
    queries: list[Query] = []
    magmas = {}
    for generators, k, idempotent in TINY_FREE_SPECS if tiny else FREE_SPECS:
        base = free_k_cyclic(generators, k, idempotent).table
        m = base.relabel(_permutation(rng, base.n))
        magmas[m.n] = (m, generators)
        queries += _magma_queries(m, generators, k, idempotent, rng)
        opposite = build_solution(RightPlonkaOppositeSolution(m))
        queries += _opposite_queries(opposite, m.n, tiny)

    odometers = []
    for t in ODOMETER_CARRIERS[:2] if tiny else ODOMETER_CARRIERS:
        m_div = rng.choice([d for d in range(1, t + 1) if t % d == 0])
        triple = OdometerTriple(m_div, t // m_div, rng.randint(1, m_div))
        qs, r, family = _odometer_queries(triple, _permutation(rng, t))
        queries += qs
        odometers.append((triple, r, family))

    for p in ESS_PRIMES[:1] if tiny else ESS_PRIMES:
        h1 = rng.randrange(p)
        h2 = rng.randrange(1, p) if h1 == 0 else rng.randrange(p)
        r = build_solution(EssSolution(p, h1, h2)).relabel(_permutation(rng, p))
        queries.append(Query(f"ess_braid@{p}", lambda w, r=r: check_rmap_law(r, RMapLaw.BRAID),
                             _holds(True)))
        queries.append(Query(f"ess_simple@{p}", lambda w, r=r: is_simple(r), _holds(True)))

    count = 2 if tiny else RANDOM_BIMAGMAS
    for i in range(count):
        for n in (3, 4):
            b = BiMagma(_random_table(rng, n), _random_table(rng, n))
            queries.append(_bimagma_agreement(b, None, f"random_bimagma_{i}@{n}"))
    for i, b in enumerate(_small_plonka_bimagmas(rng, tiny)):
        queries.append(_bimagma_agreement(b, True, f"plonka_bimagma_{i}@{b.n}"))

    m12, generators = magmas[12]
    triple, odometer, family = odometers[-1]
    queries += _cli_queries(workdir, m12, m12.relabel(_permutation(rng, 12)), generators,
                            build_solution(RightPlonkaOppositeSolution(m12)), odometer,
                            family, triple)
    keys = [q.key for q in queries]
    if len(set(keys)) != len(keys):
        raise ValueError("query keys must be unique within a job")
    return Workload("structure-queries", queries, order_seed=seed)


# ---------------------------------------------------------------------------


WORKLOADS = ("census-narrow", "census-wide", "cross-check", "structure-queries")


def build_workload(name: str, seed: int, tiny: bool, workdir: str) -> Workload:
    """Generate the inputs of one workload; this is the timed set-up."""
    if name == "census-narrow":
        return census_narrow(tiny)
    if name == "census-wide":
        return census_wide(tiny)
    if name == "cross-check":
        return cross_check(tiny)
    if name == "structure-queries":
        return structure_queries(seed, tiny, workdir)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")

