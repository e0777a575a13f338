"""Command-line interface.

Exit codes: 0 when a law holds or an operation succeeds, 1 when a checked
property fails (a machine-readable ``WITNESS`` line is printed), 2 for
usage or parse errors, 3 when a size guard refuses a sweep, 4 when an
internal consistency check fails (a census second route or literature value
disagrees, or a computed object fails its invariant).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
import time
from typing import Optional, Sequence

from .core import (BiMagma, CayleyTable, CrossCheckFailed, FiniteFunction,
                   GuardExceeded, RMap, SetPartition, Verdict, Witness,
                   are_isomorphic, canonical_correspondence, find_homomorphisms)
from .build import (BlsFromPartitionSolution, EssSolution, FlipSolution,
                    FreeMagmaResult, IdentitySolution, LyubashenkoSolution,
                    OdometerSolution, RightPlonkaOppositeSolution,
                    SkewBraceSolution, build_solution, cyclic_trivial_brace,
                    free_k_cyclic, magma_from_function, trivial_bimagma,
                    trivial_brace)
from .census import CensusQuery, census_simple_bls, enumerate_structures, \
    function_conjugacy_census
from .families import FunctionFamily, OdometerTriple, odometer_canonicalize
from .formats import ParseError, parse_structure, serialize, serialize_json
from .ideals import IdealKind, decomposition_report, ideals, is_simple
from .laws import (BiMagmaLaw, MagmaLaw, RMapLaw, check_bimagma_law,
                   check_magma_law, check_rmap_law)
from .plonka import (BiPlonkaPartition, NotPlonkaError, bi_plonka_partition,
                     bijectivize, plonka_partition, structured_iso)


def _fmt_value(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, tuple):
        return ",".join(_fmt_value(v) for v in value)
    return str(value)


def witness_line(w: Witness) -> str:
    inputs = " ".join(_fmt_value(v) for v in w.inputs) if w.inputs else "-"
    return f"WITNESS {inputs} {_fmt_value(w.lhs)} {_fmt_value(w.rhs)}"


def _read_structure(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_structure(fh.read())


def _law_named(name: str, kinds: tuple):
    """The law called ``name`` in the first of the law enums ``kinds`` that
    has one, or None."""
    return next((law for kind in kinds for law in kind if law.value == name), None)


def _resolve_law(structure, name: str):
    """Pick the law enum for the structure kind, converting between R-maps
    and bi-magmas when the law lives on the other side."""
    name = name.replace("-", "_")
    for kind, kinds, noun in ((CayleyTable, (MagmaLaw,), "a magma law"),
                              (BiMagma, (BiMagmaLaw, RMapLaw), "a bi-magma or R-map law"),
                              (RMap, (RMapLaw, BiMagmaLaw), "an R-map or bi-magma law")):
        if isinstance(structure, kind):
            law = _law_named(name, kinds)
            if law is None:
                raise ValueError(f"{name!r} is not {noun}")
            if not isinstance(law, kinds[0]):
                structure = canonical_correspondence(structure)
            return structure, law, {MagmaLaw: check_magma_law, BiMagmaLaw: check_bimagma_law,
                                    RMapLaw: check_rmap_law}[type(law)]
    raise ValueError("check expects a magma, bimagma or rmap file")


def _cmd_check(args) -> int:
    structure = _read_structure(args.file)
    target, law, checker = _resolve_law(structure, args.law)
    if law is MagmaLaw.K_CYCLIC:
        verdict: Verdict = checker(target, law, args.k)
    else:
        if args.k is not None:
            raise ValueError("--k only applies to the k-cyclic law")
        verdict = checker(target, law)
    if verdict.holds:
        print("HOLDS")
        return 0
    print(f"FAILS {verdict.witness.kind}")
    print(witness_line(verdict.witness))
    return 1


def _print_partition(p) -> None:
    blocks = p.partition.blocks
    for i, block in enumerate(blocks):
        print(f"block {i}: " + " ".join(str(v) for v in block))
    for name, grid in zip("fg", p.grids):
        for i, row in enumerate(grid):
            for j, fn in enumerate(row):
                print(f"{name} {i} {j}: " + " ".join(str(v) for v in fn.images))


def _cmd_decompose(args) -> int:
    structure = _read_structure(args.file)
    if isinstance(structure, CayleyTable):
        part = plonka_partition(structure, args.extremity)
    elif isinstance(structure, BiMagma):
        part = bi_plonka_partition(structure, args.extremity)
    else:
        raise ValueError("decompose expects a magma or bimagma file")
    _print_partition(part)
    return 0


def _cmd_iso(args) -> int:
    a = _read_structure(args.file_a)
    b = _read_structure(args.file_b)
    if not all(isinstance(s, (CayleyTable, BiMagma, RMap)) for s in (a, b)):
        raise ValueError("iso expects magma, bimagma or rmap files")
    if isinstance(a, RMap):
        a = canonical_correspondence(a)
    if isinstance(b, RMap):
        b = canonical_correspondence(b)
    if args.method == "structured":
        sigma = structured_iso(a, b)
    else:
        sigma = are_isomorphic(a, b)
    if sigma is None:
        print("NOT_ISOMORPHIC")
        return 1
    print("ISOMORPHIC " + " ".join(str(v) for v in sigma.images))
    return 0


def _cmd_ideals(args) -> int:
    structure = _read_structure(args.file)
    kind = IdealKind(args.kind.replace("-", "_"))
    for subset in ideals(structure, kind):
        print(" ".join(str(v) for v in subset))
    return 0


def _cmd_simple(args) -> int:
    structure = _read_structure(args.file)
    if isinstance(structure, RMap):
        kind = IdealKind.RMAP_IDEAL
    elif isinstance(structure, BiMagma):
        kind = IdealKind.BIMAGMA_RIGHT_LEFT
    else:
        kind = IdealKind(args.kind.replace("-", "_")) if args.kind else IdealKind.MAGMA_TWO_SIDED
    verdict = is_simple(structure, kind)
    if verdict.holds:
        print("SIMPLE")
        return 0
    print("NOT_SIMPLE")
    print(witness_line(verdict.witness))
    return 1


def _cmd_report(args) -> int:
    structure = _read_structure(args.file)
    if isinstance(structure, BiMagma):
        structure = canonical_correspondence(structure)
    if not isinstance(structure, RMap):
        raise ValueError("report expects an rmap (or bimagma) file")
    rep = decomposition_report(structure)
    print(f"biconnected {'true' if rep.biconnected else 'false'}")
    if rep.ess_indecomposable is None:
        print("ess_indecomposable unknown")
    else:
        print(f"ess_indecomposable {'true' if rep.ess_indecomposable else 'false'}")
    for i, block in enumerate(rep.finest_valid_partition.blocks):
        print(f"block {i}: " + " ".join(str(v) for v in block))
    return 0


def _cmd_classify_odometer(args) -> int:
    structure = _read_structure(args.file)
    if not isinstance(structure, FunctionFamily) or len(structure.members) != 2:
        raise ValueError("classify-odometer expects a family file with two members")
    triple = odometer_canonicalize(structure.members[0], structure.members[1])
    print(f"{triple.m} {triple.n} {triple.d}")
    return 0


def _parse_images(text: str) -> FiniteFunction:
    images = tuple(int(v) for v in text.split(","))
    return FiniteFunction(len(images), images)


def _parse_triple(text: str) -> OdometerTriple:
    m, n, d = (int(v) for v in text.split(","))
    return OdometerTriple(m, n, d)


def _parse_bi_partition(path: str) -> "BiPlonkaPartition":
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    missing = [key for key in ("blocks", "f", "g") if key not in data]
    if missing:
        raise ValueError(f"partition file lacks {', '.join(missing)}")
    blocks = tuple(tuple(b) for b in data["blocks"])
    n = sum(len(b) for b in blocks)
    part = SetPartition(n, blocks)

    def grid(key):
        if len(data[key]) > len(part.blocks):   # fewer rows fail the grid's own check
            raise ValueError(f"partition file's {key} grid has {len(data[key])} rows "
                             f"for {len(part.blocks)} blocks")
        return tuple(tuple(FiniteFunction(len(part.blocks[i]), tuple(images))
                           for images in row) for i, row in enumerate(data[key]))
    return BiPlonkaPartition(part, grid("f"), grid("g"))


def _read_input(args, kind: type):
    """The structure in ``--input``, refused unless a magma or a bi-magma, as ``kind`` says."""
    structure = _read_structure(args.input)
    if not isinstance(structure, kind):
        noun = "magma" if kind is CayleyTable else "bimagma"
        raise ValueError(f"build --variant {args.variant} expects a {noun} file")
    return structure


# each build variant: the flags it needs ("a|b" is met by either flag) and its builder
_BUILD_VARIANTS = {
    "identity": ("size", lambda a: build_solution(IdentitySolution(a.size))),
    "flip": ("size", lambda a: build_solution(FlipSolution(a.size))),
    "lyubashenko": ("f g", lambda a: build_solution(
        LyubashenkoSolution(_parse_images(a.f), _parse_images(a.g)))),
    "opposite": ("input", lambda a: build_solution(
        RightPlonkaOppositeSolution(_read_input(a, CayleyTable)))),
    "ess": ("prime h1 h2", lambda a: build_solution(EssSolution(a.prime, a.h1, a.h2))),
    "odometer": ("triple", lambda a: build_solution(OdometerSolution(_parse_triple(a.triple)))),
    "brace": ("input", lambda a: build_solution(SkewBraceSolution(_read_input(a, BiMagma)))),
    "bls-partition": ("input", lambda a: build_solution(
        BlsFromPartitionSolution(_parse_bi_partition(a.input)))),
    "magma-from-function": ("f", lambda a: magma_from_function(_parse_images(a.f))),
    "trivial-bimagma": ("size", lambda a: trivial_bimagma(a.size)),
    "trivial-brace": ("size|input", lambda a: cyclic_trivial_brace(a.size) if a.input is None
                      else trivial_brace(_read_input(a, CayleyTable))),
    "free-k-cyclic": ("generators k", lambda a: free_k_cyclic(a.generators, a.k, not a.relaxed)),
}


def _cmd_build(args) -> int:
    if args.variant not in _BUILD_VARIANTS:
        raise ValueError(f"unknown build variant {args.variant!r}")
    flags, builder = _BUILD_VARIANTS[args.variant]
    missing = [" or ".join(f"--{name}" for name in either.split("|"))
               for either in flags.split()
               if all(getattr(args, name) is None for name in either.split("|"))]
    if missing:
        raise ValueError(f"build --variant {args.variant} needs {', '.join(missing)}")
    result, legend = builder(args), []
    if isinstance(result, FreeMagmaResult):
        result, legend = result.table, result.legend_lines()
    sys.stdout.write(serialize_json(result) + "\n" if args.json else serialize(result))
    for line in legend:
        print(line)
    return 0


def _cmd_census(args) -> int:
    start = time.perf_counter()
    by_laws = args.n is not None or args.laws is not None
    chosen = [flag for flag, given in (("--n/--laws", by_laws),
                                       ("--simple-bls", args.simple_bls is not None),
                                       ("--function-classes", args.function_classes is not None))
              if given]
    if len(chosen) > 1:
        raise ValueError("census takes exactly one of --n/--laws, --simple-bls and "
                         f"--function-classes, got {' and '.join(chosen)}")
    if args.connected_only and args.function_classes is None:
        raise ValueError("--connected-only goes only with --function-classes")
    for flag, given in (("--stats", args.stats), ("--k", args.k is not None),
                        ("--predicates", args.predicates is not None),
                        ("--workers", args.workers is not None)):
        if given and not by_laws:
            raise ValueError(f"{flag} goes only with --n/--laws")
    if args.mode is not None and not (by_laws or args.simple_bls is not None):
        raise ValueError("--mode goes only with --n/--laws or --simple-bls")
    if args.simple_bls is not None:
        result = census_simple_bls(args.simple_bls)
        elapsed_ms = int((time.perf_counter() - start) * 1000)
        route = "single_route" if result.single_route else "dual_route"
        print(f"{args.simple_bls}\tsimple_bls[{route}]\t{result.count}\t{len(result.triples)}"
              f"\t{elapsed_ms}")
        if args.mode == "representatives":
            for t in result.triples:
                print(f"{t.m} {t.n} {t.d}")
        return 0
    if args.function_classes is not None:
        count = function_conjugacy_census(args.function_classes, args.connected_only)
        elapsed_ms = int((time.perf_counter() - start) * 1000)
        label = "connected_self_maps" if args.connected_only else "self_maps"
        print(f"{args.function_classes}\t{label}\t{count}"
              f"\t{args.function_classes ** args.function_classes}\t{elapsed_ms}")
        return 0
    if args.n is None or not args.laws:
        raise ValueError("census needs --n and --laws (or --simple-bls / --function-classes)")
    kinds, laws = (MagmaLaw, BiMagmaLaw, RMapLaw), []
    for name in args.laws.split(","):
        name = name.strip().replace("-", "_")
        if (law := _law_named(name, kinds)) is None:
            raise ValueError(f"unknown law {name!r}")
        laws.append(law)
    predicates = tuple(p.strip().replace("-", "_") for p in args.predicates.split(",")) \
        if args.predicates else ()
    query = CensusQuery(args.n, *(tuple(law for law in laws if isinstance(law, kind))
                                  for kind in kinds), args.k, predicates, args.mode or "count")
    result = enumerate_structures(query, workers=1 if args.workers is None else args.workers)
    if args.stats:
        print(json.dumps(dataclasses.asdict(result.stats)), file=sys.stderr)
    print(result.row.tsv())
    for rep in result.representatives:
        print()
        sys.stdout.write(serialize(rep))
    return 0


def _cmd_bijectivize(args) -> int:
    structure = _read_structure(args.file)
    if not isinstance(structure, FiniteFunction):
        raise ValueError("bijectivize expects a function file")
    result = bijectivize(structure)
    print(f"target {result.target.n}: " + " ".join(str(v) for v in result.target.images))
    print(f"unit: " + " ".join(str(v) for v in result.unit.images))
    return 0


def _cmd_morphisms(args) -> int:
    a = _read_structure(args.file_a)
    b = _read_structure(args.file_b)
    if isinstance(a, BiMagma):
        a = canonical_correspondence(a)
    if isinstance(b, BiMagma):
        b = canonical_correspondence(b)
    if not isinstance(a, RMap) or not isinstance(b, RMap):
        raise ValueError("morphisms expects rmap (or bimagma) files")
    for hom in find_homomorphisms(a, b):
        print(" ".join(str(v) for v in hom.images))
    return 0


@functools.cache   # built on the first call, then shared by every main call
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ybmag",
        description="Finite set-theoretic Yang-Baxter structures: law checks, "
                    "decompositions, classifications and censuses.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="evaluate a law on a structure file")
    p.add_argument("--law", required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("file")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("decompose", help="coarsest or finest partition data")
    p.add_argument("--extremity", choices=("coarsest", "finest"), required=True)
    p.add_argument("file")
    p.set_defaults(fn=_cmd_decompose)

    p = sub.add_parser("iso", help="isomorphism test for two structure files")
    p.add_argument("--method", choices=("brute", "structured"), default="brute")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.set_defaults(fn=_cmd_iso)

    p = sub.add_parser("ideals", help="list every ideal of the given kind")
    p.add_argument("--kind", required=True,
                   choices=[k.value.replace("_", "-") for k in IdealKind]
                   + [k.value for k in IdealKind])
    p.add_argument("file")
    p.set_defaults(fn=_cmd_ideals)

    p = sub.add_parser("simple", help="closure-based simplicity check")
    p.add_argument("--kind", default=None)
    p.add_argument("file")
    p.set_defaults(fn=_cmd_simple)

    p = sub.add_parser("report", help="bi-connectedness and decomposability")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_report)

    p = sub.add_parser("classify-odometer", help="canonical (m, n, d) of a pair")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_classify_odometer)

    p = sub.add_parser("build", help="construct a named solution or structure")
    p.add_argument("--variant", required=True)
    p.add_argument("--size", type=int, default=None)
    p.add_argument("--f", default=None)
    p.add_argument("--g", default=None)
    p.add_argument("--prime", type=int, default=None)
    p.add_argument("--h1", type=int, default=None)
    p.add_argument("--h2", type=int, default=None)
    p.add_argument("--triple", default=None)
    p.add_argument("--generators", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--relaxed", action="store_true")
    p.add_argument("--input", default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_build)

    p = sub.add_parser("census", help="isomorphism-class counts")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--laws", default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--predicates", default=None)
    p.add_argument("--mode", choices=("count", "representatives"), default=None,
                   help="count (the default) or representatives; with --n/--laws or --simple-bls")
    p.add_argument("--workers", type=int, default=None,
                   help="accepted with --n/--laws for compatibility: every census runs in one "
                        "process; a value below 1 is a usage error")
    p.add_argument("--simple-bls", type=int, default=None)
    p.add_argument("--function-classes", type=int, default=None)
    p.add_argument("--connected-only", action="store_true")
    p.add_argument("--stats", action="store_true",
                   help="print the census counters (search frontier per depth, raw tables, "
                        "rejects, orbit images) as one JSON line on stderr")
    p.set_defaults(fn=_cmd_census)

    p = sub.add_parser("bijectivize", help="stabilised bijective quotient of a self-map")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_bijectivize)

    p = sub.add_parser("morphisms", help="all structure maps between two solutions")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.set_defaults(fn=_cmd_morphisms)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except GuardExceeded as exc:
        print(f"guard exceeded: {exc}", file=sys.stderr)
        return 3
    except CrossCheckFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except NotPlonkaError as exc:
        print(f"FAILS {exc.verdict.witness.kind}")
        print(witness_line(exc.verdict.witness))
        return 1
    except (ValueError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
