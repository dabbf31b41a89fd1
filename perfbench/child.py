"""One closed-loop benchmark run in a fresh process.

Usage (``run.py`` spawns it; there is no reason to call it by hand)::

    python3 perfbench/child.py SPEC_JSON START

``SPEC_JSON`` names the workload, its input (a canonical plan or shape
list), where the repository sources are, the result-cache directory and
the output paths.  ``START`` is the parent's ``time.monotonic()`` just
before it spawned this process, so ``setup_s`` covers interpreter start,
``import repro``, input parsing and ``Session``/``ResultCache``
construction (including loading a filled store).  Then one timed region
runs the workload once, serially (``workers=1``), with cold program and
decode memos.  Per-point results are written after the timed region.

Untraced runs also time a fixed probe loop throughout (:class:`HostSpeed`)
and report the probe's mean duration in set-up and in the timed region, so
``run.py`` can scale their timings to a reference host speed.  Probe time
is subtracted from both.  A set-up-only run stops after set-up: it is one
more sample of ``setup_s``, which a handful of full runs sample too thinly.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import signal
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

#: The host-speed probe: this many iterations of a fixed loop (about 3 ms),
#: run from a timer signal every :data:`PROBE_EVERY_S` seconds.
PROBE_LOOPS = 20_000
PROBE_EVERY_S = 0.015
_PROBE_TABLE = {i: i * 7 for i in range(256)}


def probe() -> float:
    """Seconds one fixed pure-Python loop takes: the host's speed right now.

    The loop runs no repository code and allocates no garbage-collected
    objects, so a change to the program cannot move it; only the host can.
    """
    start = time.perf_counter()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc = (acc + _PROBE_TABLE[i & 255] * i) % 1_000_003
    return time.perf_counter() - start


class HostSpeed:
    """Times :func:`probe` from a ``SIGALRM`` timer while the run goes on.

    A shared host's speed swings by 30% and more from one second to the
    next as its neighbours come and go.  Probes interleaved with the run see
    the host the run saw; probes made only before and after a run of several
    seconds do not.  A probe is a signal handler, so it runs between the
    program's bytecodes and never straddles a window boundary the main code
    reads.
    """

    def __init__(self) -> None:
        self.probes: List[Tuple[float, float]] = []  # (monotonic start, seconds)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def _probe(self, signum, frame) -> None:
        began = time.monotonic()
        self.probes.append((began, probe()))

    def window(self, begin: float, end: float) -> Tuple[float, float]:
        """(probe seconds spent inside ``[begin, end)``, mean probe there)."""
        inside = [s for t, s in self.probes if begin <= t < end]
        if not inside:  # a window shorter than the probe period
            inside = [s for _, s in self.probes]
        return sum(inside), statistics.fmean(inside)


def _peak_rss_mb() -> float:
    """This process's peak resident memory (``VmHWM``).

    Not ``getrusage``: Linux carries ``ru_maxrss`` over from the parent's
    image across ``fork`` and ``exec``, so it would report ``run.py``'s size
    whenever that is the larger.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0  # kB
    raise RuntimeError("no VmHWM in /proc/self/status")


# -- workloads: set-up, timed region, outputs ------------------------------------------
#
# The timed region receives only what set-up built, so everything a user pays
# before the first point can run is set-up, and nothing after the last
# result (writing records for the checks) is timed.


def _sweep_setup(spec: Dict[str, Any]) -> Any:
    from repro import ResultCache, Session, SweepPlan

    plan = SweepPlan.from_json(spec["input"])
    return plan, Session(cache=ResultCache(Path(spec["cache_dir"])), workers=1)


def _sweep_run(spec: Dict[str, Any], state: Any) -> Any:
    plan, session = state
    report = session.run(plan)
    report.grid()
    if plan.batches is not None:
        report.batch_curves()
    # The re-render a user waits on; other workloads serialize after timing.
    report_json = report.to_json() if spec["workload"] == "warm-rerun" else None
    return report, report_json


def _sweep_outputs(spec: Dict[str, Any], state: Any, out: Any) -> Dict[str, Any]:
    report, report_json = out
    Path(spec["records_out"]).write_text(report_json or report.to_json())
    files = [f for f in Path(spec["cache_dir"]).rglob("*") if f.is_file()]
    return {
        "points": len(report.results),
        "jobs": report.job_count,
        "store_bytes": sum(f.stat().st_size for f in files),
    }


def _bounds_setup(spec: Dict[str, Any]) -> Any:
    from repro import GemmShape
    from repro.analysis import bounds  # noqa: F401  -- imported as a user would

    payload = json.loads(spec["input"])
    shapes = [GemmShape(m, n, k, name) for name, m, n, k in payload["shapes"]]
    return shapes, payload["designs"]


def _bounds_run(spec: Dict[str, Any], state: Any) -> Any:
    from repro.analysis import bounds  # looked up per call, so a tracer sees it

    shapes, designs = state
    return [(shape, bounds.cross_check_bounds(shape, design_keys=designs)) for shape in shapes]


def _bounds_outputs(spec: Dict[str, Any], state: Any, out: Any) -> Dict[str, Any]:
    records = {
        f"{check.design_key}:{shape.name}": {
            "lower_bound": check.report.lower_bound,
            "fast_cycles": check.fast_cycles,
            "analytic_cycles": check.analytic_cycles,
            "violations": len(check.violations),
        }
        for shape, shape_checks in out
        for check in shape_checks
    }
    Path(spec["records_out"]).write_text(json.dumps(records, sort_keys=True))
    return {"points": len(records), "jobs": len(records), "store_bytes": 0}


def main(argv) -> int:
    spec_path, start = argv[1], float(argv[2])
    spec = json.loads(Path(spec_path).read_text())
    host: Optional[HostSpeed] = None if spec["trace"] else HostSpeed()
    if host is not None:
        host.start()
    sys.path.insert(0, spec["src"])
    import repro  # noqa: F401  -- part of set-up, as for any user

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    if spec["workload"] == "bounds-oracle":
        setup, run, outputs = _bounds_setup, _bounds_run, _bounds_outputs
    else:
        setup, run, outputs = _sweep_setup, _sweep_run, _sweep_outputs
    with tracer.span(tracer.SETUP_SPAN) if tracer is not None else contextlib.nullcontext():
        state = setup(spec)
    setup_end = time.monotonic()
    if spec["setup_only"]:  # one more set-up sample for ``setup_s``; never traced
        host.stop()
        probes, probe_s = host.window(start, setup_end)
        Path(spec["result_out"]).write_text(
            json.dumps({"setup_s": setup_end - start - probes, "setup_probe_s": probe_s}))
        return 0
    with tracer.span(tracer.ROOT_SPAN) if tracer is not None else contextlib.nullcontext():
        begin = time.monotonic()
        out = run(spec, state)
        end = time.monotonic()
    result: Dict[str, Any] = {"peak_rss_mb": _peak_rss_mb()}
    if tracer is not None:
        tracer.uninstall()  # writing the records for the checks is not the workload's
        result["wrapper_s"] = tracer.wrapper_cost_s()
    setup_probes = run_probes = 0.0
    if host is not None:
        host.stop()
        setup_probes, result["setup_probe_s"] = host.window(start, setup_end)
        run_probes, result["run_probe_s"] = host.window(begin, end)
    result["setup_s"] = setup_end - start - setup_probes
    result["run_s"] = end - begin - run_probes
    result.update(outputs(spec, state, out))
    if tracer is not None:
        tracer.write_chrome_trace(Path(spec["trace_out"]))
        result["layers"] = _layer_metrics(tracer)
    Path(spec["result_out"]).write_text(json.dumps(result))
    return 0


def _layer_metrics(tracer) -> Dict[str, Any]:
    """Span totals, hook counters and memo statistics of the traced run."""
    from repro.cpu.decode import decode_program
    from repro.runtime.session import cached_program

    out: Dict[str, Any] = {
        "spans": tracer.layer_totals(tracer.ROOT_SPAN),
        "setup_spans": tracer.layer_totals(tracer.SETUP_SPAN),
        "counts": dict(tracer.counts),
    }
    for name, memo in (("workloads.codegen", cached_program), ("cpu.decode", decode_program)):
        info = memo.cache_info()
        out["counts"][f"{name}.memo_hits"] = info.hits
        out["counts"][f"{name}.memo_misses"] = info.misses
    out["fast_results"] = [dataclasses.asdict(r) for r in tracer.fast_results]
    return out


if __name__ == "__main__":
    status = main(sys.argv)
    sys.stdout.flush()
    sys.stderr.flush()
    # Skip interpreter teardown: freeing the program memo's objects takes
    # about a second after a fast sweep, and every output is already written.
    os._exit(status)
