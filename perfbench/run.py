#!/usr/bin/env python3
"""Run one ybmag benchmark workload and print its metrics.

    python3 perfbench/run.py --workload census-narrow --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: the package is imported from
``src/`` of that checkout, never from an installed copy.  The load is a
closed loop from one process: each job runs its queries one after another
and the next job starts when the last has ended.  Jobs run until the next
one would end after ``--seconds``; only whole jobs are measured.

``--trace 0`` prints the end-to-end metrics: set-up time (median of one
in-process and several fresh-process set-ups), job and query times, peak
memory and the share of correct outputs.  Its times are in reference
seconds: timed calls are bracketed by bursts of a short fixed probe of
Python and numpy work, and each wall time is scaled by
``REFERENCE_PROBE_S`` over the mean probe time around it, so that the
figures do not follow the speed of a shared host.  The wall-time figures
are in the detail line.

``--trace 1`` alternates untraced and traced jobs at workers=1 and prints
the per-layer metrics, taken from spans recorded around every call that
crosses a module boundary.  Span times are wall times; the tracing
overhead compares job times in reference seconds.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
carries the run's details (sample counts, failures, machine facts).  Both,
and the spans of a traced run, are also written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 6            # fresh-process set-ups per untraced run
SETUP_JOB = 0               # job id of the traced set-up
SPANS_WRITTEN = 3           # traced jobs whose spans are written, with the set-up's
PROBE_TIMEOUT_S = 60
# time of one speed_probe() on an unloaded core of the reference host (a
# 2-vCPU x86-64 VM, Python 3.11, numpy 2); a reference second is a wall
# second there
REFERENCE_PROBE_S = 0.0035
PROBE_WARMUP = 5
PROBE_EVERY_S = 0.05        # calls are probed after once this long has passed since the last probe
PROBE_SHARE = 0.1           # the probes after calls last this share of the calls' time
PROBE_LEAD_S = 0.05         # probes before a job's first call and around a set-up


def _import_package():
    """Import ybmag from this checkout's ``src``, then the benchmark's modules."""
    if not (SRC / "ybmag" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no ybmag sources at {SRC.relative_to(ROOT)}/ybmag "
                         "(run from the root of a source checkout)")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import ybmag
    if Path(ybmag.__file__).resolve().parent != (SRC / "ybmag").resolve():
        raise SystemExit(f"perfbench: imported ybmag from {ybmag.__file__}, not from src/")
    import tracer
    import workloads
    return workloads, tracer


# ---------------------------------------------------------------------------
# host speed

_PROBE_TABLE = None


def speed_probe() -> float:
    """Wall time of a fixed kernel of the kinds of work the library does:
    tuple keys in dicts and sets, integer arithmetic in Python, and fancy
    indexing and comparison of a small integer array.  The garbage
    collector is off meanwhile, so that the time does not depend on how
    many objects the library keeps alive."""
    global _PROBE_TABLE
    if _PROBE_TABLE is None:
        import numpy
        _PROBE_TABLE = numpy.arange(64, dtype=numpy.int64).reshape(8, 8)
    table = _PROBE_TABLE
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        counts: dict = {}
        total = 0
        for i in range(2000):
            key = (i % 13, i % 7, i % 5)
            counts[key] = counts.get(key, 0) + 1
            total += len(frozenset(key)) + i * i % 7
        for i in range(300):
            total += int((table[(table + i) % 8, :] == table).sum())
        return time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()


def probe_burst(seconds: float) -> list[float]:
    """Run :func:`speed_probe` back to back for about ``seconds``, at least once."""
    deadline = time.perf_counter() + seconds
    times = [speed_probe()]
    while time.perf_counter() < deadline:
        times.append(speed_probe())
    return times


def to_reference(seconds: float, before: list[float], after: list[float]) -> float:
    """Scale a wall time by the host's speed around it: the mean probe time
    of the bursts just before and just after it, against the reference."""
    return seconds * REFERENCE_PROBE_S / statistics.fmean(before + after)


# ---------------------------------------------------------------------------
# statistics


def tail(values: list[float]) -> float:
    """The highest percentile with at least ten samples beyond it (the 11th
    largest sample), but never below the median: with 21 samples or fewer
    no higher percentile is backed by ten samples, so it is the median."""
    ordered = sorted(values)
    if len(ordered) - 11 < len(ordered) // 2:
        return statistics.median(ordered)
    return ordered[-11]


def _beyond_tail(count: int) -> int:
    """How many of ``count`` samples lie above :func:`tail`."""
    return min(10, count // 2)


# ---------------------------------------------------------------------------
# jobs


class JobResult:
    def __init__(self, index: int, workers: int, traced: bool):
        self.index = index
        self.workers = workers
        self.traced = traced
        self.seconds = 0.0
        self.query_seconds: list[float] = []
        # the same, in reference seconds, and the probe times they came from
        self.ref_seconds = 0.0
        self.query_ref_seconds: list[float] = []
        self.probes: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []


def run_job(workload, index: int, workers: int, last_times: dict[str, float],
            tracer=None) -> JobResult:
    """Run every query of job ``index`` once.  The job time is the sum of
    the query calls; reference checks run outside the timed calls, and a
    failing or raising query is counted without stopping the job.

    The job also records its times in reference seconds; ``last_times``
    maps query keys to their last wall time, across jobs.  Untimed, the job
    runs a burst of :func:`speed_probe` before its first call, for
    ``PROBE_SHARE`` of that call's last time (at least ``PROBE_LEAD_S``),
    and after the last call and any call that ends ``PROBE_EVERY_S`` or
    more after the last burst, for ``PROBE_SHARE`` of the time of the calls
    since.  The calls between two bursts are scaled by those two.

    A call that runs in several processes is not scaled: its reference time
    is its wall time.  Its workers fill every core, and on the reference
    host its wall time spreads less from run to run than when it is scaled
    by probes run alongside it in as many processes (interquartile range
    over median of ten census-narrow runs at workers=2: 0.07 against 0.17)."""
    result = JobResult(index, workers, tracer is not None)
    earlier: dict = {}
    clock = time.perf_counter
    unscaled: list[float] = []
    before: list[float] = []    # empty when no burst has run since the last parallel call
    last_probe = 0.0

    def probe(seconds: float) -> list[float]:
        nonlocal last_probe
        times = probe_burst(seconds)
        result.probes += times
        last_probe = clock()
        return times

    def record(ref: float) -> None:
        result.ref_seconds += ref
        result.query_ref_seconds.append(ref)

    def scale_unscaled() -> None:
        nonlocal before
        after = probe(PROBE_SHARE * sum(unscaled))
        for elapsed in unscaled:
            record(to_reference(elapsed, before, after))
        unscaled.clear()
        before = after

    for query in workload.job(index):
        result.attempted += 1
        parallel = query.forks and workers > 1
        if parallel and unscaled:
            scale_unscaled()
        if not parallel and not before:
            before = probe(max(PROBE_LEAD_S, PROBE_SHARE * last_times.get(query.key, 0.0)))
        if tracer is not None:
            tracer.job = index
        start = clock()
        try:
            out = query.run(workers)
            error = None
        except Exception as exc:  # every failure is counted, none aborts the run
            out, error = None, exc
        elapsed = clock() - start
        if tracer is not None:
            tracer.job = None
        result.seconds += elapsed
        result.query_seconds.append(elapsed)
        last_times[query.key] = elapsed
        if parallel:
            record(elapsed)
            before = []
        else:
            unscaled.append(elapsed)
            if clock() - last_probe >= PROBE_EVERY_S:
                scale_unscaled()
        if error is None:
            try:
                ok = bool(query.check(out, earlier))
            except Exception as exc:
                ok, error = False, exc
        else:
            ok = False
        earlier[query.key] = out
        if not ok:
            reason = f"{type(error).__name__}: {error}" if error is not None else "wrong output"
            result.failures.append(f"job {index} {query.key}: {reason}")
    if unscaled:
        scale_unscaled()
    return result


def measure(workload, seconds: float, modes: list[tuple[int, object]],
            between=None) -> list[JobResult]:
    """Closed loop over the given (workers, tracer) modes in turn: at least
    one job of each, then more while the next job is expected to end
    before the deadline.  ``between`` runs after every job, untimed."""
    deadline = time.perf_counter() + seconds
    results: list[JobResult] = []
    last: dict[int, float] = {}
    last_times: dict[str, float] = {}
    index = SETUP_JOB
    while True:
        mode = index % len(modes)
        if index >= len(modes) and time.perf_counter() + last[mode] > deadline:
            break
        index += 1
        workers, tracer = modes[mode]
        started = time.perf_counter()
        if tracer is not None:
            tracer.install()
        try:
            job = run_job(workload, index, workers, last_times, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        last[mode] = time.perf_counter() - started
        results.append(job)
        if between is not None:
            between()
    return results


# ---------------------------------------------------------------------------
# machine facts


def _git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def machine_facts() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "ybmag").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    import numpy
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_sha": _git_sha(),
        "source_sha256": digest.hexdigest(),
    }


# ---------------------------------------------------------------------------
# the two kinds of run


class SetupProbes:
    """Set-up times of fresh processes (import plus input generation),
    spread evenly over the measured window so that they sample the machine
    at the same moments as the jobs do.  ``times`` are in reference
    seconds, from bursts of speed probes just before and after each process."""

    def __init__(self, args):
        self.cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                    "--workload", args.workload, "--seed", str(args.seed), "--seconds", "1",
                    "--trace", "0"] + (["--tiny"] if args.tiny else [])
        self.due = [i * args.seconds / SETUP_PROBES for i in range(SETUP_PROBES)]
        self.start = time.perf_counter()
        self.times: list[float] = []
        self.wall: list[float] = []

    def _probe(self) -> None:
        before = probe_burst(PROBE_LEAD_S)
        done = subprocess.run(self.cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S, check=True)
        after = probe_burst(PROBE_LEAD_S)
        seconds = float(done.stdout.strip().splitlines()[-1])
        self.wall.append(seconds)
        self.times.append(to_reference(seconds, before, after))

    def __call__(self) -> None:
        """Run every probe that is due by now."""
        while self.due and time.perf_counter() - self.start >= self.due[0]:
            self.due.pop(0)
            self._probe()

    def finish(self) -> list[float]:
        for _ in self.due:
            self._probe()
        self.due.clear()
        return self.times


def _timings(one: list[JobResult], two: list[JobResult], setups: list[float],
             ref: bool) -> dict:
    """The timing metrics, in reference seconds or in wall seconds."""
    def job_time(j):
        return j.ref_seconds if ref else j.seconds

    def query_times(j):
        return j.query_ref_seconds if ref else j.query_seconds
    # a job is a fixed mix of queries: take the median and the slowest query
    # of each job, then their medians over jobs, so that neither depends on
    # how many jobs the run held
    job_times = [job_time(j) for j in one]
    return {
        "setup_s": statistics.median(setups),
        "job_p50_s": statistics.median(job_times),
        "job_tail_s": tail(job_times),
        "job_2w_p50_s": statistics.median(job_time(j) for j in two),
        "query_p50_ms": statistics.median(statistics.median(query_times(j)) for j in one) * 1e3,
        "query_tail_ms": statistics.median(max(query_times(j)) for j in one) * 1e3,
    }


def end_to_end(args, workload, setup_s: float, detail: dict) -> tuple[dict, list[JobResult]]:
    for _ in range(PROBE_WARMUP):
        speed_probe()
    first_probes = probe_burst(PROBE_LEAD_S)
    probes = SetupProbes(args)
    modes = [(1, None), (2, None)] if workload.parallel else [(1, None)]
    jobs = measure(workload, args.seconds, modes, between=probes)
    # the in-process set-up imports numpy, so no probe can run before it
    setups = [to_reference(setup_s, first_probes, [])] + probes.finish()
    one = [j for j in jobs if j.workers == 1]
    # where no call takes a worker count, the workers=2 job is the same job
    two = [j for j in jobs if j.workers == 2] or one
    metrics = _timings(one, two, setups, ref=True)
    metrics.update({
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_frac": 1.0 - sum(len(j.failures) for j in jobs) / sum(j.attempted for j in jobs),
    })
    queries = sum(len(j.query_seconds) for j in one)
    speed = [p for j in jobs for p in j.probes]
    detail.update({
        "wall": _timings(one, two, [setup_s] + probes.wall, ref=False),
        "reference_probe_s": REFERENCE_PROBE_S,
        "probe_p50_s": statistics.median(speed),
        "setup_samples_s": setups,
        "job_samples": len(one),
        "job_samples_beyond_tail": _beyond_tail(len(one)),
        "job_2w_samples": len(two),
        "job_2w_is_job": not workload.parallel,
        "query_samples": queries,
    })
    return metrics, jobs


def _split_by_job(spans: list) -> dict[int, list]:
    """Spans of each job, with parent indices local to the job."""
    by_job: dict[int, list] = {}
    first: dict[int, int] = {}
    for sid, span in enumerate(spans):
        job = span[4]
        base = first.setdefault(job, sid)
        name, start, end, parent, _, info = span
        by_job.setdefault(job, []).append(
            (name, start, end, parent - base if parent >= 0 else -1, job, info))
    return by_job


def per_layer(args, workload, tracing, tracer, detail: dict) -> tuple[dict, list[JobResult]]:
    jobs = measure(workload, args.seconds, [(1, None), (1, tracer)])
    traced = [j for j in jobs if j.traced]
    plain = [j for j in jobs if not j.traced]
    by_job = _split_by_job(tracer.spans)
    per_job = [tracing.job_metrics(by_job.get(j.index, []), j.seconds) for j in traced]
    metrics = tracing.median_metrics(per_job)
    setup = tracing.layer_totals(by_job.get(SETUP_JOB, []))["build"]
    for key in ("calls", "busy_s", "self_s"):
        metrics[f"build.{key}"] = setup[key]
    # in reference seconds, so that the host's speed does not enter the ratio
    traced_p50 = statistics.median(j.ref_seconds for j in traced)
    plain_p50 = statistics.median(j.ref_seconds for j in plain)
    metrics["trace.overhead_frac"] = traced_p50 / plain_p50 - 1.0
    detail.update({
        "traced_jobs": len(traced),
        "untraced_jobs": len(plain),
        "traced_job_p50_s": traced_p50,
        "untraced_job_p50_s": plain_p50,
        "wall_traced_job_p50_s": statistics.median(j.seconds for j in traced),
        "wall_untraced_job_p50_s": statistics.median(j.seconds for j in plain),
        "spans": len(tracer.spans),
        "spans_written_jobs": [SETUP_JOB] + [j.index for j in traced[:SPANS_WRITTEN]],
    })
    return metrics, jobs


# ---------------------------------------------------------------------------


def _declared_metrics(trace: bool) -> dict[str, str]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs, for the benchmark's self-test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    start = time.perf_counter()
    workloads, tracing = _import_package()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    units = _declared_metrics(bool(args.trace))
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        tracer = None
        if args.trace:
            from ybmag import build, census, cli, core, families, formats, ideals, laws, plonka
            modules = (core, laws, plonka, ideals, families, build, census, formats, cli,
                       workloads)
            tracer = tracing.Tracer(modules)
            tracer.install()
            tracer.job = SETUP_JOB
        try:
            workload = workloads.build_workload(args.workload, args.seed, args.tiny, str(workdir))
        finally:
            if tracer is not None:
                tracer.job = None
                tracer.uninstall()
        setup_s = time.perf_counter() - start
        if args.setup_probe:
            print(repr(setup_s))
            return 0

        detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "tiny": args.tiny,
                  "seed_changes_inputs": workload.seeded, "queries_per_job": len(workload.queries)}
        if args.trace:
            metrics, jobs = per_layer(args, workload, tracing, tracer, detail)
        else:
            metrics, jobs = end_to_end(args, workload, setup_s, detail)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if set(metrics) != set(units):
        raise SystemExit(f"perfbench: metrics {sorted(set(metrics) ^ set(units))} "
                         "differ between the run and BENCHMARK.json")
    attempted = sum(j.attempted for j in jobs)
    failures = [f for j in jobs for f in j.failures]
    detail["failures"] = failures[:20]
    detail["machine"] = machine_facts()
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"result-{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"detail": detail, "result": result}, fh, indent=1)
    if tracer is not None:
        tracer.write(OUT / f"spans-{stem}.tsv.gz", jobs=detail["spans_written_jobs"])
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
