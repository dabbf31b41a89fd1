"""Span tracer for the traced benchmark run.

:class:`Tracer` wraps the public functions of each layer under the name
its caller looks them up by (``repro.runtime.session.generate_gemm_program``,
``repro.cpu.fastvec.decode_program``, class attributes for methods), keeps
one span per call in memory (name, start, end, parent), and turns them into
per-layer self times and counts when the run ends.  Spans are written out
as Chrome trace-event JSON, which Perfetto and ``chrome://tracing`` open.

A wrapper patched at a name nobody calls records nothing and raises
nothing, so :func:`missing_layers` checks that every layer a workload is
meant to exercise recorded at least one call.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib
import json
import statistics
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Tuple

#: (module, attribute path inside it, span name).  Module-level functions
#: are patched in the *calling* module's namespace; methods on their class.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.runtime.plan", "SweepPlan.expanded_jobs", "runtime.plan.expand"),
    ("repro.runtime.plan", "SweepPlan.job_keys", "runtime.plan.hash"),
    ("repro.runtime.plan", "SweepReport.grid", "runtime.plan.report_views"),
    ("repro.runtime.plan", "SweepReport.batch_curves", "runtime.plan.report_views"),
    ("repro.runtime.plan", "SweepReport.to_json", "runtime.plan.report_json"),
    ("repro.runtime.session", "Session.run", "runtime.session.run"),
    ("repro.runtime.session", "resolve_backend", "runtime.registry.resolve"),
    ("repro.analysis.bounds", "resolve_backend", "runtime.registry.resolve"),
    ("repro.runtime.cache", "ResultCache.__init__", "runtime.cache.load"),
    ("repro.runtime.cache", "ResultCache.get", "runtime.cache.get"),
    ("repro.runtime.cache", "ResultCache.put", "runtime.cache.put"),
    ("repro.runtime.cache", "ResultCache.flush", "runtime.cache.flush"),
    ("repro.runtime.session", "generate_gemm_program", "workloads.codegen.lower"),
    ("repro.analysis.bounds", "build_gemm_kernel", "workloads.codegen.lower"),
    ("repro.cpu.fastvec", "decode_program", "cpu.decode.decode"),
    ("repro.cpu.fastvec", "FastVecCoreModel.run", "cpu.fastvec.kernel"),
    ("repro.cpu.fast", "FastCoreModel.run", "cpu.fast.run"),
    ("repro.cpu.analytic", "AnalyticCoreModel.run_shape", "cpu.analytic.run"),
    ("repro.analysis.bounds", "bound_program", "analysis.bounds.bound"),
    ("repro.analysis.bounds", "cross_check_bounds", "analysis.bounds.check"),
)

#: Spans each workload must record at least one call of (the traced-run
#: guard): the layers the workload is there to exercise.
REQUIRED: Dict[str, Tuple[str, ...]] = {
    "fast-cold": (
        "runtime.plan.expand", "runtime.plan.hash", "runtime.plan.report_views",
        "runtime.session.run", "runtime.registry.resolve", "runtime.cache.get",
        "runtime.cache.put", "runtime.cache.flush", "workloads.codegen.lower",
        "cpu.decode.decode", "cpu.fastvec.kernel",
    ),
    "analytic-grid": (
        "runtime.plan.expand", "runtime.plan.hash", "runtime.plan.report_views",
        "runtime.session.run", "runtime.registry.resolve", "runtime.cache.get",
        "runtime.cache.put", "runtime.cache.flush", "cpu.analytic.run",
    ),
    "warm-rerun": (
        "runtime.plan.expand", "runtime.plan.hash", "runtime.plan.report_views",
        "runtime.plan.report_json", "runtime.session.run", "runtime.cache.load",
        "runtime.cache.get",
    ),
    "bounds-oracle": (
        "analysis.bounds.check", "analysis.bounds.bound", "runtime.registry.resolve",
        "workloads.codegen.lower", "cpu.decode.decode", "cpu.fastvec.kernel",
        "cpu.fast.run", "cpu.analytic.run",
    ),
}


#: Calls per timing, and timings, of :meth:`Tracer.wrapper_cost_s`.
COST_CALLS = 20_000
COST_REPEATS = 5


@dataclasses.dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int  # index into the span list, -1 at top level


def _hooks(tracer: "Tracer") -> Dict[str, Callable[[Tuple[Any, ...], Any, Span], None]]:
    """Per-span counters, read from each call's arguments and result."""
    count = tracer.counts

    def cache_load(args, result, span):
        count["runtime.cache.entries"] += len(args[0])

    def cache_get(args, result, span):
        count["runtime.cache.misses" if result is None else "runtime.cache.hits"] += 1

    def report_json(args, result, span):
        count["runtime.plan.report_json_bytes"] += len(result)

    def lowered(args, result, span):
        program = getattr(result, "program", result)  # GemmKernel or Program
        count["workloads.codegen.instructions"] += len(program)

    def fastvec(args, result, span):
        count["cpu.fastvec.instructions"] += len(args[1])
        tracer.fast_results.append(result)

    def fast(args, result, span):
        count["cpu.fast.instructions"] += len(args[1])
        parent = tracer.spans[span.parent].name if span.parent >= 0 else ""
        if parent == "cpu.fastvec.kernel":
            count["cpu.fastvec.scalar_fallbacks"] += 1

    def check(args, result, span):
        count["analysis.bounds.violations"] += sum(len(c.violations) for c in result)

    return {
        "runtime.cache.load": cache_load,
        "runtime.cache.get": cache_get,
        "runtime.plan.report_json": report_json,
        "workloads.codegen.lower": lowered,
        "cpu.fastvec.kernel": fastvec,
        "cpu.fast.run": fast,
        "analysis.bounds.check": check,
    }


class Tracer:
    """In-memory spans around the layer entry points listed in :data:`TARGETS`."""

    #: Span names of the two phases the benchmark itself opens: set-up, and
    #: the timed region.
    SETUP_SPAN = "benchmark.setup"
    ROOT_SPAN = "benchmark.run"

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, int] = defaultdict(int)
        #: ``SimResult``s the fast kernel returned (``bounds-oracle`` sums them).
        self.fast_results: List[Any] = []
        self._stack: List[int] = []
        self._undo: List[Tuple[object, str, object]] = []

    # -- patching -------------------------------------------------------------

    def install(self) -> None:
        hooks = _hooks(self)
        for module_name, path, name in TARGETS:
            owner: Any = importlib.import_module(module_name)
            *owners, attr = path.split(".")
            for part in owners:
                owner = getattr(owner, part, None)
            if attr not in getattr(owner, "__dict__", {}):
                continue  # renamed or moved: the guard reports the silent layer
            original = owner.__dict__[attr]
            setattr(owner, attr, self._wrap(original, name, hooks.get(name)))
            self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _wrap(self, original: Callable, name: str, hook) -> Callable:
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with self.span(name) as span:
                result = original(*args, **kwargs)
            if hook is not None:
                hook(args, result, span)
            return result

        return wrapper

    # -- spans ----------------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Span]:
        """Open a span; it nests under whichever span is open around it."""
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        span = Span(name, time.perf_counter_ns(), 0, parent)
        self.spans.append(span)
        try:
            yield span
        finally:
            span.end_ns = time.perf_counter_ns()
            self._stack.pop()

    @staticmethod
    def wrapper_cost_s() -> float:
        """Seconds one wrapped call costs over a bare call, measured in this process.

        Times a no-op through a throwaway tracer's wrapper against the bare
        no-op, :data:`COST_CALLS` times each, and takes the median of
        :data:`COST_REPEATS`.  Wrapper calls times this is the tracing
        overhead of a run, measured on the host as it is while the run's
        heap is still in place.
        """

        def noop(*args, **kwargs):
            return None

        wrapped = Tracer()._wrap(noop, "trace.noop", None)
        costs = []
        for _ in range(COST_REPEATS):
            start = time.perf_counter()
            for _ in range(COST_CALLS):
                wrapped()
            middle = time.perf_counter()
            for _ in range(COST_CALLS):
                noop()
            costs.append((2 * middle - start - time.perf_counter()) / COST_CALLS)
        return statistics.median(costs)

    # -- results --------------------------------------------------------------

    def layer_totals(self, phase: str) -> Dict[str, Dict[str, float]]:
        """``{span name: {"calls", "self_s", "total_s"}}`` inside one phase.

        ``phase`` names a top-level span (:attr:`SETUP_SPAN` or
        :attr:`ROOT_SPAN`); it and every span under it count.  Self time is
        a span's duration minus its direct children's, so the self times add
        up to the phase's wall.
        """
        child_ns = [0] * len(self.spans)
        top: List[str] = []  # each span's top-level ancestor (parents come first)
        for span in self.spans:
            top.append(span.name if span.parent < 0 else top[span.parent])
            if span.parent >= 0:
                child_ns[span.parent] += span.end_ns - span.start_ns
        totals: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0}
        )
        for span, children, ancestor in zip(self.spans, child_ns, top):
            if ancestor != phase:
                continue
            entry = totals[span.name]
            duration = span.end_ns - span.start_ns
            entry["calls"] += 1
            entry["self_s"] += (duration - children) / 1e9
            entry["total_s"] += duration / 1e9
        return dict(totals)

    def write_chrome_trace(self, path: Path) -> None:
        """Complete ('X') trace events, timestamps in microseconds."""
        origin = self.spans[0].start_ns if self.spans else 0
        events = [
            {
                "name": span.name,
                "cat": span.name.rsplit(".", 1)[0],
                "ph": "X",
                "ts": (span.start_ns - origin) / 1e3,
                "dur": (span.end_ns - span.start_ns) / 1e3,
                "pid": 1,
                "tid": 1,
                "args": {"id": index, "parent": span.parent},
            }
            for index, span in enumerate(self.spans)
        ]
        path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))


def missing_layers(workload: str, *phases: Dict[str, Dict[str, float]]) -> List[str]:
    """Required spans of ``workload`` that recorded zero calls in every phase."""
    return [
        name for name in REQUIRED[workload]
        if not any(totals.get(name, {}).get("calls") for totals in phases)
    ]


def layer_of(span_name: str) -> str:
    """``cpu.fastvec.kernel`` -> ``cpu.fastvec`` (the module a span belongs to)."""
    return span_name.rsplit(".", 1)[0]
