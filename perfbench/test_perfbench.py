"""Self-test of the benchmark: ``python3 -m pytest perfbench -q`` from the
repository root.  It runs every workload at tiny size, checks that every
declared metric prints with its unit, that count metrics repeat exactly,
that the tracer restores what it wraps, the self-time arithmetic, and the
scaling of wall times to reference seconds."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNT_METRICS = ("census.raw_tables", "census.classes", "laws.calls", "core.tables_built")


def _run(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(workload: str, seed: int, trace: int) -> dict:
    done = _run(workload, seed, trace)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    result = _result(workload, 3, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
    if not trace:
        assert all(m["value"] != 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_count_metrics_repeat_exactly(workload):
    first, second = _result(workload, 1, 1), _result(workload, 2, 1)
    for name in COUNT_METRICS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def test_workloads_are_seeded_only_where_documented(tmp_path):
    for name in workloads.WORKLOADS:
        a = workloads.build_workload(name, 1, True, str(tmp_path))
        b = workloads.build_workload(name, 2, True, str(tmp_path))
        assert a.seeded == (name == "structure-queries")
        assert [q.key for q in a.queries] == [q.key for q in b.queries]


def test_bare_directory_exits_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("census-narrow", 1, 0, cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""


def test_references_are_independent_of_the_engine():
    assert [workloads.partition_number(n) for n in range(1, 8)] == [1, 2, 3, 5, 7, 11, 15]
    assert [workloads.divisor_sum(t) for t in range(1, 9)] == [1, 3, 4, 7, 6, 12, 8, 15]


def test_tail_is_the_median_until_ten_samples_back_a_higher_rank():
    for count in (1, 2, 20, 21):
        values = [float(i) for i in range(count)]
        assert run.tail(values) == run.statistics.median(values)
        assert run._beyond_tail(count) == count // 2
    values = [float(i) for i in range(30)]
    assert run.tail(values) == 19.0 and run._beyond_tail(30) == 10


def test_query_figures_do_not_depend_on_the_number_of_jobs():
    def job(index):
        j = run.JobResult(index, 1, False)
        j.query_seconds = [0.001, 0.002, 0.010]
        j.seconds = sum(j.query_seconds)
        return j
    for count in (2, 3, 4):
        jobs = [job(i) for i in range(count)]
        figures = run._timings(jobs, jobs, [1.0], ref=False)
        assert figures["query_p50_ms"] == pytest.approx(2.0)
        assert figures["query_tail_ms"] == pytest.approx(10.0)


def test_reference_seconds_scale_by_the_probes_around_a_call():
    ref = run.REFERENCE_PROBE_S
    assert run.to_reference(2.0, [ref], [ref]) == pytest.approx(2.0)
    # a host half as fast doubles the probe time and the call's wall time
    assert run.to_reference(4.0, [2 * ref, 2 * ref], [2 * ref]) == pytest.approx(2.0)


def test_only_single_process_calls_are_scaled_to_reference_seconds():
    def nap(w):
        time.sleep(0.01)
    workload = workloads.Workload("synthetic", [
        workloads.Query("parallel", nap, lambda out, earlier: True, forks=True),
        workloads.Query("single", nap, lambda out, earlier: True),
    ], parallel=True)
    job = run.run_job(workload, 1, 2, {})
    assert job.failures == [] and len(job.query_ref_seconds) == 2
    assert job.query_ref_seconds[0] == job.query_seconds[0]
    assert job.query_ref_seconds[1] > 0 and job.probes
    assert job.ref_seconds == pytest.approx(sum(job.query_ref_seconds))
    # at workers=1 the parallel call runs in one process and is scaled too
    job = run.run_job(workload, 1, 1, {})
    assert len(job.query_ref_seconds) == 2 and len(job.probes) >= 2


def test_self_time_arithmetic_on_a_synthetic_tree():
    spans = [
        ("census.enumerate_structures", 0.0, 10.0, -1, 1, (3, 4, 2)),
        ("laws.check_magma_law", 1.0, 4.0, 0, 1, (27, True)),
        ("core.CayleyTable", 2.0, 3.0, 1, 1, None),
        ("laws.check_magma_law", 5.0, 8.0, 0, 1, (27, False)),
        ("laws.check_rmap_law", 6.0, 7.0, 3, 1, (8, True)),
    ]
    assert tracing.self_times(spans) == [4.0, 2.0, 1.0, 2.0, 1.0]
    totals = tracing.layer_totals(spans)
    assert totals["census"] == {"calls": 1, "busy_s": 10.0, "self_s": 4.0}
    # the nested laws call is inside another laws call: busy counts it once
    assert totals["laws"] == {"calls": 3, "busy_s": 6.0, "self_s": 5.0}
    assert totals["core"] == {"calls": 1, "busy_s": 1.0, "self_s": 1.0}
    metrics = tracing.job_metrics(spans, 10.0)
    assert metrics["trace.self_sum_frac"] == 1.0
    assert metrics["census.orbit_images"] == 2 * 6
    assert metrics["laws.reject_frac"] == pytest.approx(1 / 3)
    assert metrics["laws.cells_per_s"] == pytest.approx((27 + 8) / (3.0 + 1.0))


def test_tracer_wraps_cross_module_names_and_restores_them():
    from ybmag import census, core, plonka
    originals = (census.CayleyTable, census.check_magma_law, plonka.check_magma_law)
    tracer = tracing.Tracer((census, plonka))
    tracer.install()
    try:
        assert census.CayleyTable is not core.CayleyTable
        table = census.CayleyTable(1, ((0,),))
        assert isinstance(table, census.CayleyTable) and type(table) is core.CayleyTable
        assert tracer.spans == []          # nothing is recorded outside a job
        tracer.job = 7
        plonka.plonka_partition(core.CayleyTable(2, ((0, 0), (1, 1))), "coarsest")
        tracer.job = None
        assert [s[0] for s in tracer.spans if s[3] == -1][0] == "laws.check_magma_law"
        assert all(s[4] == 7 for s in tracer.spans)
    finally:
        tracer.uninstall()
    assert (census.CayleyTable, census.check_magma_law, plonka.check_magma_law) == originals
