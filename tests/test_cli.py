import itertools
import json
import pathlib
import types

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ybmag import (BiMagma, CayleyTable, FiniteFunction, FunctionFamily, OdometerSolution,
                   OdometerTriple, bi_plonka_partition, build_solution,
                   canonical_correspondence, flip_map, identity_rmap, lyubashenko_rmap,
                   parse_structure, serialize, serialize_json, trivial_bimagma)
from ybmag import RMap, census, cli, plonka
from ybmag.cli import main, witness_line
from ybmag.formats import ParseError
from ybmag.laws import MagmaLaw, RMapLaw

from conftest import bimagmas, cayley_tables, rmaps, self_maps
from law_oracles import RMAP_ORACLES

GOLDEN = pathlib.Path(__file__).parent / "golden"


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
