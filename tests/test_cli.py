import itertools
import json
import pathlib
import random
import re
import types

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings, strategies as st

from ybmag import (BiMagma, CayleyTable, FiniteFunction, FunctionFamily, OdometerSolution,
                   OdometerTriple, bi_plonka_partition, build_solution,
                   canonical_correspondence, flip_map, identity_rmap, lyubashenko_rmap,
                   parse_structure, serialize, serialize_json, trivial_bimagma)
from ybmag import RMap, build, census, cli, laws, plonka
from ybmag.cli import main, witness_line
from ybmag.formats import ParseError
from ybmag.ideals import IdealKind
from ybmag.laws import BiMagmaLaw, MagmaLaw, RMapLaw

from conftest import bimagmas, cayley_tables, rmaps, self_maps
from law_oracles import RMAP_ORACLES

GOLDEN = pathlib.Path(__file__).parent / "golden"
_CYCLE_1025 = ",".join(str((x + 1) % 1025) for x in range(1025))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# formats


def test_parse_golden_magma():
    parsed = parse_structure((GOLDEN / "left_zero_2.txt").read_text())
    assert parsed == CayleyTable(2, ((0, 0), (1, 1)))


def test_parse_golden_bimagma_is_flips_correspondent():
    parsed = parse_structure((GOLDEN / "flip_bimagma_2.txt").read_text())
    assert canonical_correspondence(parsed) == flip_map(2)


def test_parse_golden_rmap():
    parsed = parse_structure((GOLDEN / "flip_2.txt").read_text())
    assert parsed == flip_map(2)


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse_structure("magma 2\n0 0\n1 9\n")
    assert err.value.line == 3 and err.value.column == 3
    with pytest.raises(ParseError) as err:
        parse_structure("magma 2\n0 0 0\n1 1\n")
    assert err.value.line == 2
    with pytest.raises(ParseError):
        parse_structure("widget 2\n")


@given(cayley_tables())
def test_plain_round_trip_magma(m):
    assert parse_structure(serialize(m)) == m
    assert serialize(parse_structure(serialize(m))) == serialize(m)


@given(bimagmas())
def test_plain_round_trip_bimagma(b):
    assert parse_structure(serialize(b)) == b


@given(rmaps())
def test_plain_round_trip_rmap(r):
    assert parse_structure(serialize(r)) == r


@given(self_maps())
def test_plain_round_trip_function(f):
    assert parse_structure(serialize(f)) == f


def test_json_round_trip():
    family = FunctionFamily(2, (FiniteFunction(2, (1, 0)), FiniteFunction(2, (0, 1))))
    for value in (CayleyTable(2, ((0, 0), (1, 1))), flip_map(3),
                  canonical_correspondence(flip_map(2)), family,
                  FiniteFunction(3, (1, 2, 1))):
        assert parse_structure(serialize_json(value)) == value


@pytest.mark.parametrize("data", [{"kind": "magma", "n": True, "dot": [[0]]},
                                  {"kind": "rmap", "n": 1.0, "out": [[0, 0]]},
                                  {"kind": "function", "n": 1.0, "images": [0]}])
def test_json_carrier_size_must_be_an_int(capsys, tmp_path, data):
    path = tmp_path / "structure.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ParseError, match="carrier size n must be an integer >= 0"):
        parse_structure(path.read_text())
    code, out, err = run(capsys, "build", "--variant", "opposite", "--input", str(path))
    assert code == 2 and out == "" and "carrier size n" in err


# ---------------------------------------------------------------------------
# subcommands against library results


def test_check_holds(capsys):
    code, out, _ = run(capsys, "check", "--law", "right-plonka",
                       str(GOLDEN / "left_zero_2.txt"))
    assert code == 0 and out == "HOLDS\n"


def test_check_fails_with_witness_line(capsys):
    code, out, _ = run(capsys, "check", "--law", "right-plonka", str(GOLDEN / "z3.txt"))
    assert code == 1
    lines = out.splitlines()
    assert lines[0].startswith("FAILS right_")
    assert lines[1].startswith("WITNESS ")
    parts = lines[1].split(" ")
    assert len(parts) == 6  # WITNESS x y z lhs rhs


def test_check_vectorised_witness_line_matches_loop(capsys, tmp_path):
    # a failing R-map on 24 points, the identity with one planted cell in its
    # last row: the line names the reference loop's witness
    out = list(identity_rmap(24).out)
    out[23 * 24 + 5] = (0, 0)
    planted = RMap(24, tuple(out))
    path = tmp_path / "planted.txt"
    path.write_text(serialize(planted), encoding="utf-8")
    code, text, _ = run(capsys, "check", "--law", "yang-baxter", str(path))
    expected = RMAP_ORACLES[RMapLaw.YANG_BAXTER](planted)
    assert code == 1
    assert text == f"FAILS yang_baxter\n{witness_line(expected)}\n"


def test_check_rmap_law_on_bimagma_file(capsys):
    code, out, _ = run(capsys, "check", "--law", "yang-baxter",
                       str(GOLDEN / "flip_bimagma_2.txt"))
    assert code == 0 and out == "HOLDS\n"


def test_check_k_cyclic(capsys):
    code, out, _ = run(capsys, "check", "--law", "k-cyclic", "--k", "2",
                       str(GOLDEN / "left_zero_2.txt"))
    assert code == 0


def test_decompose_matches_library(capsys):
    code, out, _ = run(capsys, "decompose", "--extremity", "finest",
                       str(GOLDEN / "left_zero_2.txt"))
    assert code == 0
    assert out.splitlines()[0] == "block 0: 0"
    assert out.splitlines()[1] == "block 1: 1"


def test_decompose_bimagma_prints_both_grids(capsys, tmp_path):
    swap = FiniteFunction(3, (1, 0, 2))
    ident = FiniteFunction(3, (0, 1, 2))
    cycle = FiniteFunction(3, (1, 2, 0))
    path = tmp_path / "b.txt"
    for b in (trivial_bimagma(3),
              canonical_correspondence(lyubashenko_rmap(swap, ident)),
              canonical_correspondence(lyubashenko_rmap(cycle, cycle))):
        path.write_text(serialize(b))
        for extremity in ("coarsest", "finest"):
            code, out, _ = run(capsys, "decompose", "--extremity", extremity, str(path))
            assert code == 0
            p = bi_plonka_partition(b, extremity)
            expected = [f"block {i}: " + " ".join(map(str, block))
                        for i, block in enumerate(p.partition.blocks)]
            for name, grid in (("f", p.f_endomaps), ("g", p.g_endomaps)):
                expected += [f"{name} {i} {j}: " + " ".join(map(str, fn.images))
                             for i, row in enumerate(grid) for j, fn in enumerate(row)]
            assert out.splitlines() == expected
            assert any(line.startswith("g ") for line in expected)


def test_decompose_rejects_non_plonka(capsys):
    code, out, _ = run(capsys, "decompose", "--extremity", "coarsest",
                       str(GOLDEN / "z3.txt"))
    assert code == 1
    assert out.splitlines()[1].startswith("WITNESS")


def test_iso_command(capsys, tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_text(serialize(CayleyTable(2, ((0, 0), (0, 0)))))
    b.write_text(serialize(CayleyTable(2, ((1, 1), (1, 1)))))
    code, out, _ = run(capsys, "iso", str(a), str(b))
    assert code == 0 and out == "ISOMORPHIC 1 0\n"
    code, out, _ = run(capsys, "iso", "--method", "structured", str(a), str(b))
    assert code == 0 and out == "ISOMORPHIC 1 0\n"
    c = tmp_path / "c.txt"
    c.write_text(serialize(CayleyTable(2, ((0, 1), (0, 1)))))
    code, out, _ = run(capsys, "iso", str(a), str(c))
    assert code == 1 and out == "NOT_ISOMORPHIC\n"


@pytest.mark.parametrize("kind", ["magma", "bimagma"])
@pytest.mark.parametrize("method", ["brute", "structured"])
def test_iso_command_on_empty_structures(capsys, tmp_path, kind, method):
    empty = CayleyTable(0, ())
    path = tmp_path / "empty.txt"
    path.write_text(serialize(empty if kind == "magma" else BiMagma(empty, empty)))
    code, out, _ = run(capsys, "iso", "--method", method, str(path), str(path))
    assert code == 0 and out == "ISOMORPHIC \n"


@pytest.mark.parametrize("name", ["collapse_3.txt", "swap_id_family.txt"])
@pytest.mark.parametrize("method", ["brute", "structured"])
def test_iso_refuses_function_and_family_files(capsys, name, method):
    path = str(GOLDEN / name)
    for argv in ((path, path), (str(GOLDEN / "z3.txt"), path)):
        code, out, err = run(capsys, "iso", "--method", method, *argv)
        assert code == 2 and out == ""
        assert err == "error: iso expects magma, bimagma or rmap files\n"


def test_ideals_command(capsys):
    code, out, _ = run(capsys, "ideals", "--kind", "rmap-ideal", str(GOLDEN / "flip_2.txt"))
    assert code == 0 and out == "0 1\n"


def test_simple_command(capsys, tmp_path):
    code, out, _ = run(capsys, "simple", str(GOLDEN / "flip_2.txt"))
    assert code == 0 and out == "SIMPLE\n"
    ident = tmp_path / "id2.txt"
    from ybmag import identity_rmap
    ident.write_text(serialize(identity_rmap(2)))
    code, out, _ = run(capsys, "simple", str(ident))
    assert code == 1
    assert out.splitlines() == ["NOT_SIMPLE", "WITNESS 0 - -"]


def test_report_command(capsys):
    code, out, _ = run(capsys, "report", str(GOLDEN / "flip_2.txt"))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "biconnected false"
    assert lines[1] == "ess_indecomposable false"


def test_report_answers_above_sixteen_points(capsys, tmp_path):
    # one finest block on 18 points: the split search has nothing to group
    path = tmp_path / "odometer18.txt"
    path.write_text(serialize(build_solution(OdometerSolution(OdometerTriple(6, 3, 1)))))
    code, out, _ = run(capsys, "report", str(path))
    assert code == 0
    assert out.splitlines() == ["biconnected true", "ess_indecomposable true",
                                "block 0: " + " ".join(map(str, range(18)))]


def test_parser_is_built_once_and_reused(capsys):
    argvs = [["check", "--law", "right-plonka", str(GOLDEN / "left_zero_2.txt")],
             ["report", str(GOLDEN / "flip_2.txt")],
             ["check", "--law", "no-such-law", str(GOLDEN / "flip_2.txt")],
             ["census", "--n", "two"],
             ["simple", "--help"],
             ["decompose", "--extremity", "finest", str(GOLDEN / "left_zero_2.txt")],
             ["--help"],
             ["simple", str(GOLDEN / "flip_2.txt")]]

    def call(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    cli._build_parser.cache_clear()
    shared = [call(argv) for argv in argvs]
    assert cli._build_parser.cache_info().misses == 1
    fresh = []
    for argv in argvs:
        cli._build_parser.cache_clear()
        fresh.append(call(argv))
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 0, 2, 2, 0, 0, 0, 0]
    assert "usage: ybmag census" in shared[3][2] and "usage: ybmag simple" in shared[4][1]


def test_classify_odometer_command(capsys):
    code, out, _ = run(capsys, "classify-odometer", str(GOLDEN / "swap_id_family.txt"))
    assert code == 0 and out == "2 1 2\n"


def test_build_and_check_pipeline(capsys, tmp_path):
    code, out, _ = run(capsys, "build", "--variant", "ess",
                       "--prime", "3", "--h1", "1", "--h2", "0")
    assert code == 0
    built = tmp_path / "ess.txt"
    built.write_text(out)
    code, out, _ = run(capsys, "check", "--law", "braid", str(built))
    assert code == 0 and out == "HOLDS\n"


def test_build_free_k_cyclic_legend(capsys):
    code, out, _ = run(capsys, "build", "--variant", "free-k-cyclic",
                       "--generators", "2", "--k", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "magma 4"
    assert "0: (0, {})" in lines


def test_build_trivial_brace_and_solution(capsys, tmp_path):
    code, out, _ = run(capsys, "build", "--variant", "trivial-brace", "--size", "2")
    brace = tmp_path / "brace.txt"
    brace.write_text(out)
    code, out, _ = run(capsys, "build", "--variant", "brace", "--input", str(brace))
    assert code == 0
    assert parse_structure(out) == flip_map(2)


def test_build_bls_partition_variant(capsys, tmp_path):
    part = tmp_path / "part.json"
    part.write_text(json.dumps({
        "blocks": [[0, 1], [2]],
        "f": [[[1, 0], [0, 1]], [[0], [0]]],
        "g": [[[1, 0], [1, 0]], [[0], [0]]],
    }))
    code, out, _ = run(capsys, "build", "--variant", "bls-partition",
                       "--input", str(part))
    assert code == 0
    built = tmp_path / "solution.txt"
    built.write_text(out)
    code, out, _ = run(capsys, "check", "--law", "bls", str(built))
    assert code == 0 and out == "HOLDS\n"


@pytest.mark.parametrize("variant, flag", [
    ("identity", "--size"), ("flip", "--size"), ("lyubashenko", "--f"),
    ("opposite", "--input"), ("ess", "--prime"), ("odometer", "--triple"),
    ("brace", "--input"), ("bls-partition", "--input"), ("magma-from-function", "--f"),
    ("trivial-bimagma", "--size"), ("trivial-brace", "--size or --input"),
    ("free-k-cyclic", "--generators"),
])
def test_build_without_required_flags_is_usage_error(capsys, variant, flag):
    code, out, err = run(capsys, "build", "--variant", variant)
    assert code == 2 and out == ""
    assert flag in err and "Traceback" not in err


@pytest.mark.parametrize("variant, name, noun", [
    ("opposite", "collapse_3.txt", "magma"), ("trivial-brace", "flip_2.txt", "magma"),
    ("brace", "z3.txt", "bimagma")])
def test_build_input_of_another_kind_is_usage_error(capsys, variant, name, noun):
    code, out, err = run(capsys, "build", "--variant", variant, "--input", str(GOLDEN / name))
    assert code == 2 and out == ""
    assert err == f"error: build --variant {variant} expects a {noun} file\n"


def test_build_bls_partition_missing_key_is_usage_error(capsys, tmp_path):
    full = {"blocks": [[0, 1]], "f": [[[1, 0]]], "g": [[[1, 0]]]}
    for key in full:
        part = tmp_path / f"no_{key}.json"
        part.write_text(json.dumps({k: v for k, v in full.items() if k != key}))
        code, out, err = run(capsys, "build", "--variant", "bls-partition",
                             "--input", str(part))
        assert code == 2 and out == ""
        assert err.startswith("error:") and key in err


def test_build_json_output(capsys):
    code, out, _ = run(capsys, "build", "--variant", "identity", "--size", "2", "--json")
    data = json.loads(out)
    assert data["kind"] == "rmap" and data["n"] == 2


def test_census_command(capsys):
    code, out, _ = run(capsys, "census", "--n", "3", "--laws", "right-plonka")
    assert code == 0
    fields = out.strip().split("\t")
    assert fields[:3] == ["3", "right_plonka", "11"]


def test_census_representatives(capsys):
    code, out, _ = run(capsys, "census", "--n", "2", "--laws", "right-plonka",
                       "--mode", "representatives")
    assert code == 0
    blocks = out.strip().split("\n\n")
    assert len(blocks) == 4  # row plus three representatives


def test_census_representative_on_0_points_parses_back(capsys):
    code, out, _ = run(capsys, "census", "--n", "0", "--laws", "bls", "--mode", "representatives")
    row, representative = out.split("\n\n", 1)
    assert code == 0 and row.split("\t")[2] == "1"
    empty = CayleyTable(0, ())
    assert parse_structure(representative) == BiMagma(empty, empty)


def test_census_workers_below_one_is_usage_error(capsys):
    code, out, err = run(capsys, "census", "--n", "2", "--laws", "right-plonka",
                         "--workers", "0")
    assert code == 2 and out == "" and err.startswith("error:")


def test_census_cross_check_failure_exit_code(capsys, monkeypatch):
    monkeypatch.setitem(census.KNOWN_COUNTS, ("right_plonka", 3), 12)
    code, out, err = run(capsys, "census", "--n", "3", "--laws", "right-plonka")
    assert code == 4 and out == ""
    assert err.startswith("error: census right_plonka at n=3 found 11 classes")
    assert "Traceback" not in err


def test_census_k_without_k_cyclic_is_usage_error(capsys):
    code, out, err = run(capsys, "census", "--n", "3", "--laws", "right-plonka", "--k", "2")
    assert code == 2 and out == ""
    assert err.startswith("error: k only applies to the k_cyclic law")


def test_census_k_below_one_is_usage_error(capsys):
    for k in ("0", "-1"):
        code, out, err = run(capsys, "census", "--n", "3", "--laws", "right-plonka,k-cyclic",
                             "--k", k)
        assert code == 2 and out == ""
        assert err.startswith("error: k_cyclic needs an integer k >= 1")


@pytest.mark.parametrize("laws, table", [
    ("right-plonka", (1, 0, 0, 1)),                                      # not right Plonka
    ("right-plonka,right-involutory", (1, 1, 1, 2, 2, 2, 0, 0, 0)),     # 3-cycle columns
])
def test_census_column_search_failure_exit_code(capsys, monkeypatch, laws, table):
    monkeypatch.setattr(census, "_iter_plonka_tables",
                        lambda n, pool, band: iter([np.array([table], dtype=np.uint8)]))
    n = "2" if len(table) == 4 else "3"
    code, out, err = run(capsys, "census", "--n", n, "--laws", laws)
    assert code == 4 and out == ""
    assert err.startswith("error: column search produced table")
    assert "Traceback" not in err


@pytest.mark.parametrize("laws", ["plonka-bimagma", "bls"])
def test_census_two_grid_search_failure_exit_code(capsys, monkeypatch, laws):
    # dot (1, 0, 0, 1) is not right Plonka; each cell lists dot, then star transposed
    monkeypatch.setattr(census, "_iter_plonka_tables",
                        lambda n, pool, band: iter([np.array([(1, 0, 0, 0, 0, 0, 1, 0)],
                                                             dtype=np.uint8)]))
    code, out, err = run(capsys, "census", "--n", "2", "--laws", laws)
    assert code == 4 and out == ""
    assert err.startswith("error: column search produced bi-magma")
    assert "Traceback" not in err


def test_census_partial_orbit_exit_code(capsys, monkeypatch):
    # x.y = 0 is right Plonka, but the stream leaves out x.y = 1 of its orbit
    monkeypatch.setattr(census, "_iter_plonka_tables",
                        lambda n, pool, band: iter([np.zeros((1, 4), dtype=np.uint8)]))
    code, out, err = run(capsys, "census", "--n", "2", "--laws", "right-plonka")
    assert code == 4 and out == ""
    assert err.startswith("error: orbit dedupe on n=2 saw 1 raw tables")
    assert "Traceback" not in err


def test_census_one_grid_pool_guard_exit_code(capsys):
    code, out, err = run(capsys, "census", "--n", "7", "--laws", "right-plonka")
    assert code == 3 and out == ""
    assert "823543 self-maps refused" in err


def test_census_stats_leave_stdout_alone(capsys, monkeypatch):
    # a frozen clock, so the rows' elapsed_ms agree
    monkeypatch.setattr(census, "time", types.SimpleNamespace(perf_counter=lambda: 0.0))
    argv = ["census", "--n", "3", "--laws", "right-plonka,associative",
            "--mode", "representatives"]
    code, plain, err = run(capsys, *argv)
    assert code == 0 and err == ""
    code, out, err = run(capsys, *argv, "--stats")
    assert code == 0 and out == plain
    assert err.count("\n") == 1
    # the frozen clock gives every phase zero seconds
    assert json.loads(err) == {"nodes": [1, 27, 43, 45], "raw_tables": 45, "batch_rejects": 35,
                               "object_rejects": 0, "orbit_images": 18, "search_s": 0.0,
                               "batch_check_s": 0.0, "object_check_s": 0.0, "dedupe_s": 0.0}


def test_census_phase_times_go_to_stderr(capsys, monkeypatch):
    # a clock that ticks a millisecond a reading: both runs read it equally
    # often, so their rows agree, and every phase takes some time
    argv = ["census", "--n", "3", "--laws", "right-plonka,total", "--mode", "representatives"]
    runs = []
    for extra in ((), ("--stats",)):
        ticks = itertools.count()
        monkeypatch.setattr(census, "time", types.SimpleNamespace(
            perf_counter=lambda: next(ticks) / 1000))
        runs.append(run(capsys, *argv, *extra))
    (code, plain, err), (stats_code, out, stats_err) = runs
    assert code == stats_code == 0 and err == "" and out == plain
    phases = {name: value for name, value in json.loads(stats_err).items()
              if name.endswith("_s")}
    assert sorted(phases) == ["batch_check_s", "dedupe_s", "object_check_s", "search_s"]
    assert all(value > 0 for value in phases.values())


@pytest.mark.parametrize("laws", ["plonka-bimagma", "bls"])
def test_census_two_grid_search_guard_exit_code(capsys, laws):
    code, out, err = run(capsys, "census", "--n", "5", "--laws", laws)
    assert code == 3 and out == ""
    assert "limited to n <= 4" in err


@pytest.mark.parametrize("laws", ["associative", "yang-baxter-bimagma"])
def test_census_generic_sweep_refuses_a_large_carrier_before_counting(capsys, laws):
    code, out, err = run(capsys, "census", "--n", "1000000", "--laws", laws)
    assert code == 3 and out == ""
    assert err == "guard exceeded: census carrier limit is 7\n"


def test_census_predicates_on_bimagma_query_is_usage_error(capsys):
    code, out, err = run(capsys, "census", "--n", "2", "--laws", "plonka-bimagma",
                         "--predicates", "right-simple")
    assert code == 2 and out == ""
    assert err.startswith("error: predicates apply to magma queries only")


def test_simple_bls_cross_check_failure_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(census, "is_incompressible", lambda family: True)
    code, out, err = run(capsys, "census", "--simple-bls", "4")
    assert code == 4 and out == ""
    assert err.startswith("error: simple-solution routes disagree at t=4")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, message", [
    (("--n", "3", "--laws", "right-plonka", "--simple-bls", "2"),
     "census takes exactly one of --n/--laws, --simple-bls and --function-classes, "
     "got --n/--laws and --simple-bls"),
    (("--laws", "right-plonka", "--function-classes", "3"),
     "got --n/--laws and --function-classes"),
    (("--simple-bls", "2", "--function-classes", "3"),
     "got --simple-bls and --function-classes"),
    (("--n", "3", "--laws", "right-plonka", "--connected-only"),
     "--connected-only goes only with --function-classes"),
    (("--simple-bls", "2", "--connected-only"),
     "--connected-only goes only with --function-classes"),
    (("--simple-bls", "2", "--stats"), "--stats goes only with --n/--laws"),
    (("--function-classes", "3", "--stats"), "--stats goes only with --n/--laws"),
    (("--simple-bls", "2", "--k", "2"), "--k goes only with --n/--laws"),
    (("--function-classes", "3", "--predicates", "right-simple"),
     "--predicates goes only with --n/--laws"),
    (("--simple-bls", "3", "--workers", "0"), "--workers goes only with --n/--laws"),
    (("--function-classes", "3", "--workers", "1"), "--workers goes only with --n/--laws"),
    (("--function-classes", "3", "--mode", "representatives"),
     "--mode goes only with --n/--laws or --simple-bls"),
    (("--function-classes", "3", "--mode", "count"),
     "--mode goes only with --n/--laws or --simple-bls"),
    (("--mode", "count"), "--mode goes only with --n/--laws or --simple-bls"),
])
def test_census_conflicting_selectors_are_usage_errors(capsys, argv, message):
    code, out, err = run(capsys, "census", *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err.splitlines()[0]


def test_census_simple_bls_command(capsys):
    code, out, _ = run(capsys, "census", "--simple-bls", "6")
    assert code == 0
    fields = out.strip().split("\t")
    assert fields[2] == "12"


def test_census_simple_bls_lists_its_triples(capsys):
    code, out, _ = run(capsys, "census", "--simple-bls", "4", "--mode", "representatives")
    row, *triples = out.splitlines()
    assert code == 0 and row.split("\t")[2] == "7"
    assert triples == ["1 4 1", "2 2 1", "2 2 2", "4 1 1", "4 1 2", "4 1 3", "4 1 4"]


@pytest.mark.parametrize("t, message", [
    ("99999999999999999999", "t=99999999999999999999 would list at least 99999999999999999999 "
                             "triples (limit 1000000)"),
    ("720720", "t=720720 would list 3249792 triples (limit 1000000)"),
])
def test_census_simple_bls_refuses_above_the_triple_limit(capsys, t, message):
    code, out, err = run(capsys, "census", "--simple-bls", t)
    assert code == 3 and out == ""
    assert err == f"guard exceeded: simple-solution census at {message}\n"


@pytest.mark.parametrize("variant, what", [
    ("identity", "identity solution"), ("flip", "flip solution"),
    ("trivial-bimagma", "trivial bi-magma"), ("trivial-brace", "cyclic group")])
def test_build_size_guard_refuses_before_building(capsys, variant, what):
    code, out, err = run(capsys, "build", "--variant", variant, "--size", "4097")
    assert code == 3 and out == ""
    assert err == f"guard exceeded: {what} would have 4097 elements (limit 4096)\n"


@pytest.mark.parametrize("variant, size, message", [
    ("identity", 1025, "identity solution would have 1050625 cells (limit 1048576)"),
    ("flip", 4096, "flip solution would have 16777216 cells (limit 1048576)"),
    ("trivial-bimagma", 725, "trivial bi-magma would have 1051250 cells (limit 1048576)"),
    ("trivial-brace", 1025, "cyclic group would have 1050625 cells (limit 1048576)"),
    ("trivial-brace", 513, "trivial brace's associativity check would read 135005697 triples "
                           "(limit 134217728)")])
def test_build_work_guard_refuses_below_the_element_limit(capsys, variant, size, message):
    code, out, err = run(capsys, "build", "--variant", variant, "--size", str(size))
    assert code == 3 and out == ""
    assert err == f"guard exceeded: {message}\n"


def _sized(prefix, low, high, guard):
    """(argv, refused) pairs: a size in low..high, or one past ``guard``."""
    return st.one_of(st.integers(low, high).map(lambda v: (prefix + (str(v),), False)),
                     st.integers(guard, 10 ** 30).map(lambda v: (prefix + (str(v),), True)))


_SIZED_CALLS = st.one_of(
    _sized(("census", "--simple-bls"), 1, 6, 10 ** 7),
    _sized(("census", "--function-classes"), 0, 6, 9),
    st.sampled_from(["identity", "flip", "trivial-bimagma", "trivial-brace"]).flatmap(
        lambda variant: _sized(("build", "--variant", variant, "--size"), 0, 6, 10 ** 7)))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])   # capsys is read per call
@given(_SIZED_CALLS)
def test_sized_commands_answer_or_refuse(capsys, call):
    argv, refused = call
    code, out, err = run(capsys, *argv)   # an exception would escape main and fail the test
    assert "Traceback" not in err
    if refused:
        assert code == 3 and out == "" and err.startswith("guard exceeded: ")
    elif argv[-3:] == ("trivial-brace", "--size", "0"):   # no group on the empty carrier
        assert code == 2 and err == "error: trivial brace needs a group table\n"
    else:
        assert code == 0 and out and err == ""


@pytest.mark.parametrize("argv, message", [
    (("ess", "--prime", "1031", "--h1", "1", "--h2", "0"),
     "ESS solution would have 1062961 cells (limit 1048576)"),
    (("ess", "--prime", "99999999999999999999", "--h1", "1", "--h2", "0"),
     "ESS solution would have 99999999999999999999 elements (limit 4096)"),
    (("odometer", "--triple", "33,33,1"),
     "odometer solution would have 1185921 cells (limit 1048576)"),
    (("lyubashenko", "--f", _CYCLE_1025, "--g", _CYCLE_1025),
     "Lyubashenko solution would have 1050625 cells (limit 1048576)"),
    (("magma-from-function", "--f", _CYCLE_1025),
     "magma from a function would have 1050625 cells (limit 1048576)"),
    (("free-k-cyclic", "--generators", "5", "--k", "5"),
     "free magma would have 9765625 cells (limit 1048576)"),
    (("free-k-cyclic", "--generators", "99999999999999999999", "--k", "2"),
     "free magma would have more than 2**64 elements (limit 4096)")])
def test_build_refuses_every_variant_before_building(capsys, argv, message):
    code, out, err = run(capsys, "build", "--variant", *argv)
    assert code == 3 and out == ""
    assert err == f"guard exceeded: {message}\n"


def test_trivial_brace_size_is_refused_before_the_group_is_built(capsys, monkeypatch):
    monkeypatch.setattr(build, "cyclic_group_table", lambda n: pytest.fail("the group was built"))
    for size in (513, 1024):
        code, out, err = run(capsys, "build", "--variant", "trivial-brace", "--size", str(size))
        assert code == 3 and out == ""
        assert err == (f"guard exceeded: trivial brace's associativity check would read "
                       f"{size ** 3} triples (limit 134217728)\n")


def test_skew_brace_triple_guard_from_check_and_build(capsys, monkeypatch, tmp_path):
    brace = tmp_path / "brace.txt"
    brace.write_text(serialize(BiMagma(*[CayleyTable(3, tuple(
        tuple((x + y) % 3 for y in range(3)) for x in range(3)))] * 2)))
    monkeypatch.setattr(laws, "_SKEW_BRACE_TRIPLES", 26)
    for argv in (("check", "--law", "skew-left-brace"), ("build", "--variant", "brace", "--input")):
        code, out, err = run(capsys, *argv, str(brace))
        assert code == 3 and out == ""
        assert err == ("guard exceeded: skew brace compatibility check would read 27 triples "
                       "(limit 26)\n")


def test_build_bls_partition_with_more_rows_than_blocks_is_usage_error(capsys, tmp_path):
    part = tmp_path / "part.json"
    part.write_text(json.dumps({"blocks": [[0, 1]], "f": [[[1, 0]], [[0, 1]]], "g": [[[1, 0]]]}))
    code, out, err = run(capsys, "build", "--variant", "bls-partition", "--input", str(part))
    assert code == 2 and out == ""
    assert err == "error: partition file's f grid has 2 rows for 1 blocks\n"


def test_census_function_classes_command(capsys):
    code, out, _ = run(capsys, "census", "--function-classes", "4",
                       "--connected-only")
    assert code == 0
    assert out.split("\t")[2] == "9"


@pytest.mark.parametrize("argv", [("--function-classes", "-1"),
                                  ("--n", "-1", "--laws", "right-plonka")])
def test_census_negative_carrier_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, "census", *argv)
    assert code == 2 and out == ""
    assert err == "error: carrier size n must be an integer >= 0, got n = -1\n"


def test_bijectivize_command(capsys):
    code, out, _ = run(capsys, "bijectivize", str(GOLDEN / "collapse_3.txt"))
    assert code == 0
    assert out.splitlines() == ["target 2: 1 0", "unit: 0 1 0"]


def test_internal_check_failure_exit_code(capsys, monkeypatch):
    # bijectivize's own check that the unit intertwines, forced to fail
    real = plonka.BijectivizationResult
    monkeypatch.setattr(plonka, "BijectivizationResult", lambda target, unit: real(
        FiniteFunction(target.n, tuple(range(target.n))), unit))
    code, out, err = run(capsys, "bijectivize", str(GOLDEN / "collapse_3.txt"))
    assert code == 4 and out == ""
    assert err.startswith("error: unit does not intertwine the maps")
    assert "Traceback" not in err


def test_morphisms_command(capsys, tmp_path):
    ident = tmp_path / "id2.txt"
    ident.write_text(serialize(canonical_correspondence(flip_map(2)).relabel((0, 1))))
    code, out, _ = run(capsys, "morphisms", str(GOLDEN / "flip_2.txt"), str(ident))
    assert code == 0
    assert "0 1" in out.splitlines()


def test_parse_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("magma 2\n0 0\n")
    code, _, err = run(capsys, "check", "--law", "band", str(bad))
    assert code == 2 and "parse error" in err


def test_guard_exit_code(capsys, tmp_path):
    big = tmp_path / "big.txt"
    big.write_text(serialize(flip_map(9)))
    code, _, err = run(capsys, "ideals", "--kind", "rmap-ideal", str(big))
    assert code == 0  # n = 9 is inside the listing guard
    huge = tmp_path / "huge.txt"
    huge.write_text(serialize(flip_map(17)))
    code, _, err = run(capsys, "ideals", "--kind", "rmap-ideal", str(huge))
    assert code == 3 and "guard" in err


def test_unknown_law_exit_code(capsys):
    code, _, err = run(capsys, "check", "--law", "nonsense", str(GOLDEN / "z3.txt"))
    assert code == 2


# ---------------------------------------------------------------------------
# every file subcommand on mutated files


def _fuzz_files():
    """Valid files of all five kinds, plain and JSON: the golden ones and
    seeded random structures on 1-3 points."""
    rng = random.Random(27)
    values = [parse_structure(path.read_text()) for path in sorted(GOLDEN.glob("*.txt"))
              if not path.name.startswith("reproduce_counts")]
    for n in (1, 2, 3):
        def images():
            return tuple(rng.randrange(n) for _ in range(n))

        def table():
            return CayleyTable.from_flat(n, [rng.randrange(n) for _ in range(n * n)])

        values += [table(), BiMagma(table(), table()),
                   RMap(n, tuple((rng.randrange(n), rng.randrange(n)) for _ in range(n * n))),
                   FiniteFunction(n, images()),
                   FunctionFamily(n, (FiniteFunction(n, images()), FiniteFunction(n, images())))]
    return [text for value in values for text in (serialize(value), serialize_json(value))]


_FUZZ_FILES = _fuzz_files()
# a token is a number, a word, a run of blanks or any other single character
_TOKEN = re.compile(r"-?[0-9]+|[A-Za-z_]+|\s+|.", re.S)
_REPLACEMENTS = ("-1", "0", "1", "2", "3", "4", "9", "99999999999999999999", "x", "1.5",
                 "->", "[", "]", "{", ",", '"', "null", "magma", "rmap", "family")


def _mutate(text, mutations):
    """``text`` with each mutation applied in turn: a token dropped,
    duplicated or replaced, a number set to another in -1..4 (the entries
    stay in place, some of them out of range), or the text cut short."""
    for op, at, replacement in mutations:
        if op == "truncate":
            text = text[:at % (len(text) + 1)]
            continue
        tokens = _TOKEN.findall(text)
        chosen = [i for i, token in enumerate(tokens)
                  if not token.isspace() and (op != "entry" or token[-1].isdigit())]
        if not chosen:
            continue
        i = chosen[at % len(chosen)]
        tokens[i] = {"drop": "", "duplicate": f"{tokens[i]} {tokens[i]}",
                     "replace": replacement, "entry": str(at % 6 - 1)}[op]
        text = "".join(tokens)
    return text


_LAW_NAMES = sorted({law.value for kind in (MagmaLaw, BiMagmaLaw, RMapLaw) for law in kind})
_IDEAL_KINDS = [kind.value for kind in IdealKind]
_ONE_FILE = st.one_of(
    st.sampled_from(_LAW_NAMES).map(
        lambda law: ("check", "--law", law) + (("--k", "2") if law == "k_cyclic" else ())),
    st.sampled_from(("coarsest", "finest")).map(lambda e: ("decompose", "--extremity", e)),
    st.sampled_from(_IDEAL_KINDS).map(lambda kind: ("ideals", "--kind", kind)),
    st.sampled_from([()] + [("--kind", kind) for kind in _IDEAL_KINDS]).map(
        lambda kind: ("simple", *kind)),
    st.sampled_from([("report",), ("classify-odometer",), ("bijectivize",)]),
    st.sampled_from(("opposite", "brace", "trivial-brace")).map(
        lambda variant: ("build", "--variant", variant, "--input")))
_TWO_FILES = st.sampled_from([("iso",), ("iso", "--method", "structured"), ("morphisms",)])
_MUTATIONS = st.lists(st.tuples(st.sampled_from(("drop", "duplicate", "replace", "truncate",
                                                 "entry", "entry", "entry")),
                                st.integers(0, 1 << 16), st.sampled_from(_REPLACEMENTS)),
                      min_size=1, max_size=3)


@settings(max_examples=1000, deadline=None,   # capsys is read and the files rewritten per call
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(_FUZZ_FILES), _MUTATIONS, st.one_of(_ONE_FILE, _TWO_FILES),
       st.one_of(st.none(), st.sampled_from(_FUZZ_FILES)))
def test_file_commands_on_mutated_files_answer_or_refuse(capsys, tmp_path, text, mutations,
                                                         command, other):
    path = tmp_path / "mutated.txt"
    path.write_text(_mutate(text, mutations))
    files = [str(path)]
    if command[0] in ("iso", "morphisms"):
        second = tmp_path / "other.txt"
        second.write_text(text if other is None else other)
        files.append(str(second))
    try:
        code, _, err = run(capsys, *command, *files)   # an exception would escape main
    except SystemExit as exc:   # argparse
        code, err = exc.code, capsys.readouterr().err
        assert code == 2
    assert code in (0, 1, 2, 3, 4) and "Traceback" not in err


# ---------------------------------------------------------------------------
# random build and census flag sets


def _small_or_past(low, high, past=4097):
    """An int in low..high, or one past the guards at ``past``, up to 10**30."""
    return st.one_of(st.integers(low, high), st.integers(past, 10 ** 30))


def _partition_json(p):
    return json.dumps({"blocks": [list(block) for block in p.partition.blocks],
                       **{key: [[list(fn.images) for fn in row] for row in grid]
                          for key, grid in zip("fg", p.grids)}})


_PARTITIONS = [json.dumps({"blocks": [[0, 1], [2]], "f": [[[1, 0], [0, 1]], [[0], [0]]],
                           "g": [[[1, 0], [1, 0]], [[0], [0]]]})] + [
    _partition_json(bi_plonka_partition(b, extremity))
    for b in [trivial_bimagma(3)] + [canonical_correspondence(build_solution(OdometerSolution(
        OdometerTriple(*triple)))) for triple in ((2, 1, 1), (1, 2, 1), (2, 2, 1))]
    for extremity in ("coarsest", "finest")]
_JUNK = st.text("0123456789,-x. ", max_size=8)
# images of a self-map on at most 8 points, of a map with entries out of range or of a
# cycle past the cell limit, comma-joined, or a malformed string
_IMAGES = st.one_of(
    st.integers(1, 8).flatmap(lambda n: st.lists(st.integers(0, n - 1), min_size=n, max_size=n)),
    st.lists(st.integers(-1, 8), min_size=1, max_size=8),
    st.integers(1025, 3000).map(lambda n: [(x + 1) % n for x in range(n)])).map(
        lambda images: ",".join(map(str, images))) | _JUNK
_INPUTS = st.one_of(st.sampled_from(_FUZZ_FILES + _PARTITIONS),
                    st.tuples(st.sampled_from(_PARTITIONS), _MUTATIONS).map(
                        lambda drawn: _mutate(*drawn)),
                    st.none())   # no such file
_BUILD_FLAGS = {
    "size": _small_or_past(-1, 8) | _JUNK, "f": _IMAGES, "g": _IMAGES,
    "prime": _small_or_past(-1, 8), "h1": st.integers(-10 ** 30, 10 ** 30),
    "h2": st.integers(-10 ** 30, 10 ** 30),
    "triple": st.tuples(*[_small_or_past(0, 8)] * 3).map(lambda t: ",".join(map(str, t))) | _JUNK,
    "generators": _small_or_past(0, 3), "k": _small_or_past(0, 3), "relaxed": st.just(True),
    "input": _INPUTS, "json": st.just(True)}
_CENSUS_FLAGS = {
    "n": _small_or_past(-1, 3, 8),
    "laws": st.lists(st.sampled_from(_LAW_NAMES + ["right-plonka", "left-plonka", "k-cyclic",
                                                   "nonsense"]), max_size=3).map(",".join),
    "k": st.integers(-1, 3), "predicates": st.sampled_from(("right-simple", "nonsense", "")),
    "mode": st.sampled_from(("count", "representatives", "bogus")),
    "workers": st.integers(-1, 2), "simple-bls": _small_or_past(-1, 8, 10 ** 7),
    "function-classes": _small_or_past(-1, 4, 9), "connected-only": st.just(True),
    "stats": st.just(True)}
# a census names one selector and, now and then, the flags that go with it
_CENSUS_SELECTORS = st.sampled_from((
    (("n", "laws"), ("mode", "stats")),
    (("simple-bls",), ("mode",)), (("function-classes",), ("connected-only",)))).flatmap(
        lambda names: st.fixed_dictionaries({name: _CENSUS_FLAGS[name] for name in names[0]},
                                            optional={name: _CENSUS_FLAGS[name]
                                                      for name in names[1]}))


@settings(max_examples=2000, deadline=None,   # capsys is read and the input rewritten per call
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_random_build_and_census_flag_sets_answer_or_refuse(capsys, tmp_path, data):
    command = data.draw(st.sampled_from(("build", "census")))
    if command == "build":
        variant = data.draw(st.sampled_from(sorted(cli._BUILD_VARIANTS) + ["nonsense"]))
        argv, others = [command, "--variant", variant], _BUILD_FLAGS
        needed = [data.draw(st.sampled_from(either.split("|")))   # one flag of "a|b"
                  for either in cli._BUILD_VARIANTS.get(variant, ("",))[0].split()]
        flags = data.draw(st.fixed_dictionaries({name: others[name] for name in needed}))
    else:
        argv, others = [command], _CENSUS_FLAGS
        flags = data.draw(_CENSUS_SELECTORS)
    if data.draw(st.integers(0, 3)) == 0:   # any other flags as well
        flags.update(data.draw(st.fixed_dictionaries({}, optional=others)))
    for name, value in flags.items():
        if name == "input":
            path = tmp_path / "input.txt"
            path.unlink(missing_ok=True)
            if value is not None:
                path.write_text(value)
            value = path
        argv += [f"--{name}"] if value is True else [f"--{name}", str(value)]
    try:
        code, out, err = run(capsys, *argv)   # an exception would escape main and fail the test
    except SystemExit as exc:   # argparse refuses a malformed int or a flag-like value
        (out, err), code = capsys.readouterr(), exc.code
        assert code == 2
    event(f"{command} exit {code}")
    assert code in (0, 1, 2, 3, 4) and "Traceback" not in err
    if code == 3:
        assert out == "" and err.startswith("guard exceeded: ")
    elif code == 2:
        assert out == "" and err
