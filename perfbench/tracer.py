"""In-memory span tracer for the benchmark's traced runs.

The tracer wraps the public names that each ybmag module (and the
benchmark's own workload module) imports at module level from another ybmag
module, so a span is recorded at every call through such a name.  A name
imported inside a function is looked up when the function runs and is not
wrapped: ``families.analyze_family`` imports ``plonka.connected_components``
that way, so those calls leave no ``plonka`` span and their time counts as
``families`` self time.  Nothing in the package is edited: the wrappers
replace module attributes while a traced run is installed and the originals
are put back afterwards.

A span is ``(name, start, end, parent, job, info)``: ``name`` is
``"<layer>.<function>"``, ``parent`` the index of the enclosing span (or -1),
``job`` the identifier of the benchmark job that was recording, and
``info`` a small annotation taken from the arguments and result of calls
that the per-layer metrics need (law size and verdict, bytes, census row).
Spans are only recorded while a job is active, so reference checks that
run between timed calls leave no spans.
"""

from __future__ import annotations

import enum
import gzip
import inspect
import math
import statistics
import time
from typing import Callable, Optional, Sequence

LAYERS = ("core", "laws", "plonka", "ideals", "families", "build", "census",
          "formats", "cli")

_PACKAGE = "ybmag"


def layer_of(module_name: str) -> Optional[str]:
    """The layer a module belongs to: ``ybmag.laws`` -> ``laws``."""
    prefix, _, rest = module_name.partition(".")
    if prefix == _PACKAGE and rest in LAYERS:
        return rest
    return None


class _ClassProxy:
    """Stands in for a wrapped class: calls are traced constructions, and
    ``isinstance`` and attribute access behave as on the class."""

    def __init__(self, cls: type, traced_call: Callable):
        self._cls = cls
        self._traced_call = traced_call

    def __call__(self, *args, **kwargs):
        return self._traced_call(*args, **kwargs)

    def __instancecheck__(self, obj) -> bool:
        return isinstance(obj, self._cls)

    def __getattr__(self, name: str):
        return getattr(self._cls, name)


def _wrappable(obj) -> bool:
    if inspect.isfunction(obj):
        return True
    if inspect.isclass(obj):
        # exception classes must stay real types for ``except`` clauses, and
        # enum classes are namespaces of constants, not work
        return not issubclass(obj, (BaseException, enum.Enum))
    return False


class Tracer:
    """Records spans for calls across module boundaries while installed and
    while ``job`` names the job to record them under."""

    def __init__(self, modules: Sequence):
        self.modules = tuple(modules)
        self.spans: list = []
        self.job: Optional[int] = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans = self.spans
        stack = self._stack
        annotate = ANNOTATORS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            job = self.job
            if job is None:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            sid = len(spans)
            spans.append(None)
            stack.append(sid)
            out = None
            start = clock()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                end = clock()
                stack.pop()
                info = annotate(args, kwargs, out) if annotate is not None else None
                spans[sid] = (name, start, end, parent, job, info)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every public name a module imported at module level from
        another layer."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module in self.modules:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not _wrappable(obj):
                    continue
                owner = getattr(obj, "__module__", "") or ""
                layer = layer_of(owner)
                if layer is None or owner == module.__name__:
                    continue
                traced = self._wrap(f"{layer}.{obj.__name__}", obj)
                replacement = _ClassProxy(obj, traced) if inspect.isclass(obj) else traced
                self._saved.append((module, attr, obj))
                setattr(module, attr, replacement)

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._saved):
            setattr(module, attr, obj)
        self._saved.clear()

    def write(self, path, jobs: Sequence[int]) -> None:
        """Write the spans of the given jobs, one tab-separated line each,
        gzip-compressed."""
        keep = set(jobs)
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as out:
            out.write("id\tparent\tjob\tname\tstart\tend\tinfo\n")
            for sid, (name, start, end, parent, job, info) in enumerate(self.spans):
                if job not in keep:
                    continue
                out.write(f"{sid}\t{parent}\t{job}\t{name}\t{start:.9f}\t{end:.9f}\t"
                          f"{'' if info is None else info}\n")


# ---------------------------------------------------------------------------
# annotations: what the per-layer metrics need from arguments and results

# Law instances a checker evaluates when the law holds: n ** arity.
_MAGMA_ARITY = {"band": 1, "k_cyclic": 2, "right_involutory": 2, "left_involutory": 2,
                "commutative": 2, "left_cancellative": 2, "right_cancellative": 2,
                "left_quasigroup": 2, "right_quasigroup": 2, "total": 2}
_RMAP_ARITY = {"unitary": 2, "involutive": 2, "diagonal": 1,
               "left_right_nondegenerate": 2, "right_left_nondegenerate": 2}
_BIMAGMA_ARITY = {"lyubashenko_form": 2}


def _law_cells(arity: dict[str, int]) -> Callable:
    def note(args, kwargs, out):
        if out is None:
            return None
        structure, law = args[0], args[1] if len(args) > 1 else kwargs["law"]
        return structure.n ** arity.get(law.value, 3), out.holds
    return note


def _census_row(args, kwargs, out):
    if out is None:
        return None
    return args[0].n, out.row.raw_count, out.row.class_count


def _text_bytes(args, kwargs, out):
    text = out if isinstance(out, str) else (args[0] if args else kwargs.get("text"))
    return len(text.encode("utf-8")) if isinstance(text, str) else None


ANNOTATORS = {
    "laws.check_magma_law": _law_cells(_MAGMA_ARITY),
    "laws.check_rmap_law": _law_cells(_RMAP_ARITY),
    "laws.check_bimagma_law": _law_cells(_BIMAGMA_ARITY),
    "census.enumerate_structures": _census_row,
    "families.is_incompressible": lambda args, kwargs, out: out,
    "formats.serialize": _text_bytes,
    "formats.serialize_json": _text_bytes,
    "formats.parse_structure": _text_bytes,
}


# ---------------------------------------------------------------------------
# span arithmetic


def self_times(spans: Sequence[tuple]) -> list[float]:
    """Each span's duration minus the part of its interval that its child
    spans cover.  Calls on one thread nest: children lie inside their parent
    and one ends before the next starts, so the cover is their total."""
    out = [end - start for name, start, end, parent, job, info in spans]
    for name, start, end, parent, job, info in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def layer_totals(spans: Sequence[tuple]) -> dict[str, dict[str, float]]:
    """Per layer: ``calls`` (spans), ``busy_s`` (time with a call into the
    layer open, nested calls of the same layer counted once) and ``self_s``
    (busy time minus time spent in other layers it called)."""
    totals = {layer: {"calls": 0, "busy_s": 0.0, "self_s": 0.0} for layer in LAYERS}
    selfs = self_times(spans)
    # open_layers[i]: the layers with a call open while span i runs
    open_layers: list[tuple[str, ...]] = []
    for sid, (name, start, end, parent, job, info) in enumerate(spans):
        layer = name.partition(".")[0]
        around = open_layers[parent] if parent >= 0 else ()
        entry = totals[layer]
        entry["calls"] += 1
        entry["self_s"] += selfs[sid]
        if layer in around:
            open_layers.append(around)
        else:
            entry["busy_s"] += end - start
            open_layers.append(around + (layer,))
    return totals


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def job_metrics(spans: Sequence[tuple], job_seconds: float) -> dict[str, float]:
    """Per-layer metrics for the spans of one traced job."""
    totals = layer_totals(spans)
    out: dict[str, float] = {}
    for layer in LAYERS:
        for key in ("calls", "busy_s", "self_s"):
            out[f"{layer}.{key}"] = totals[layer][key]

    raw = classes = images = 0
    laws_fail = 0
    held_cells = 0
    held_time = 0.0
    fam_calls = fam_accept = 0
    tables = conversions = 0
    nbytes = 0
    for name, start, end, parent, job, info in spans:
        if name == "census.enumerate_structures" and info is not None:
            n, raw_count, class_count = info
            raw += raw_count
            classes += class_count
            images += class_count * math.factorial(n)
        elif name.startswith("laws.check_") and info is not None:
            cells, holds = info
            if holds:
                held_cells += cells
                held_time += end - start
            else:
                laws_fail += 1
        elif name == "families.is_incompressible" and info is not None:
            fam_calls += 1
            fam_accept += bool(info)
        elif name == "core.CayleyTable":
            tables += 1
        elif name == "core.canonical_correspondence":
            conversions += 1
        elif name.startswith("formats.") and info is not None:
            nbytes += info

    census_busy = totals["census"]["busy_s"]
    out["census.raw_tables"] = raw
    out["census.classes"] = classes
    out["census.class_yield"] = _ratio(classes, raw)
    out["census.tables_per_s"] = _ratio(raw, census_busy)
    out["census.orbit_images"] = images
    laws_checks = sum(1 for s in spans if s[0].startswith("laws.check_"))
    out["laws.reject_frac"] = _ratio(laws_fail, laws_checks)
    out["laws.cells_per_s"] = _ratio(held_cells, held_time)
    out["core.tables_built"] = tables
    out["core.conversions"] = conversions
    out["families.accept_frac"] = _ratio(fam_accept, fam_calls)
    out["formats.bytes"] = nbytes
    out["trace.spans"] = len(spans)
    layer_self = sum(totals[layer]["self_s"] for layer in LAYERS)
    out["trace.self_sum_frac"] = _ratio(layer_self, job_seconds)
    return out


def median_metrics(per_job: Sequence[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(m[key] for m in per_job) for key in per_job[0]}
