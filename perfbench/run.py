#!/usr/bin/env python3
"""The repository benchmark: one workload, one seed, timed end to end.

Usage::

    python3 perfbench/run.py --workload fast-cold --seed 1 --seconds 25 --trace 0

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src/``.  The command generates the workload's input from the
seed, then starts fresh-process runs of it (``child.py``) one after another
for ``--seconds`` (at least :data:`MIN_RUNS`), checks every point each run
produced, and prints one JSON object as its last line of output:

- ``--trace 0``: the end-to-end metrics, each the median over the runs,
  with timings scaled to the reference host speed (:func:`reference_s`);
- ``--trace 1``: a few untraced runs, then one traced run; the per-layer
  metrics, the layer split and the tracing overhead.

See ``perfbench/README.md`` for the workloads, metrics and checks.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Set, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("fast-cold", "analytic-grid", "warm-rerun", "bounds-oracle")
MIN_RUNS = 3
MIN_RUNS_BEFORE_TRACE = 2
#: Set-up-only runs after each full run.  A full run of several seconds
#: yields one set-up sample; these add samples for ``setup_s`` cheaply.
SETUPS_PER_RUN = 2
CHILD_TIMEOUT_S = 120

#: Mean duration of ``child.probe`` on the reference host.  A shared host's
#: speed swings from second to second, so each untraced run times that fixed
#: loop throughout, and end-to-end timings are given in reference seconds:
#: host seconds scaled by how much slower or faster the probe ran meanwhile.
REFERENCE_PROBE_S = 0.0025


def import_repro() -> None:
    """Put the checkout's sources first on the path, or fail without a result."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no repro package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise SystemExit(f"error: imported repro from {repro.__file__}, not {SRC}")


# -- one run ---------------------------------------------------------------------------


def spawn(workload: str, payload: str, run_dir: Path, cache_dir: Path,
          trace_out: Optional[Path] = None, setup_only: bool = False) -> Dict[str, Any]:
    """One fresh-process run; returns its result dict (``ok`` False on a crash)."""
    run_dir.mkdir(parents=True)
    spec = {
        "workload": workload,
        "input": payload,
        "src": str(SRC),
        "cache_dir": str(cache_dir),
        "records_out": str(run_dir / "records.json"),
        "result_out": str(run_dir / "result.json"),
        "trace": trace_out is not None,
        "trace_out": str(trace_out) if trace_out is not None else "",
        "setup_only": setup_only,
    }
    spec_path = run_dir / "spec.json"
    spec_path.write_text(json.dumps(spec))
    start = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(spec_path), repr(start)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"ok": False, "wall_s": time.monotonic() - start,
                "error": f"run exceeded {CHILD_TIMEOUT_S} s"}
    wall_s = time.monotonic() - start
    if proc.returncode != 0:
        return {"ok": False, "wall_s": wall_s, "error": proc.stderr.strip()[-2000:]}
    result = json.loads((run_dir / "result.json").read_text())
    result.update(ok=True, wall_s=wall_s)
    if not setup_only:
        result["records_text"] = (run_dir / "records.json").read_text()
    return result


def records_of(result: Dict[str, Any], ids: Optional[Dict[str, str]]) -> Dict[str, dict]:
    """A run's records; ``ids`` is ``checks.point_ids`` of a sweep, else ``None``."""
    import checks

    if ids is None:  # bounds-oracle writes its records keyed already
        return json.loads(result["records_text"])
    return checks.sweep_records(result["records_text"], ids)


# -- preparation -----------------------------------------------------------------------


def fill_store(payload: str, cache_dir: Path) -> str:
    """Run the plan once into ``cache_dir``; returns the report JSON."""
    from repro import ResultCache, Session, SweepPlan

    plan = SweepPlan.from_json(payload)
    with Session(cache=ResultCache(cache_dir), workers=1) as session:
        return session.run(plan).to_json()


def sweep_plan(workload: str, payload: str):
    """The input's ``SweepPlan``, or ``None`` on ``bounds-oracle``."""
    if workload == "bounds-oracle":
        return None
    from repro import SweepPlan

    return SweepPlan.from_json(payload)


# -- the loop --------------------------------------------------------------------------


def run_loop(workload: str, payload: str, work: Path, seconds: float, min_runs: int,
             shared_cache: Optional[Path]) -> Tuple[List[Dict[str, Any]], List[Dict[str, Any]]]:
    """Untraced fresh-process runs, one after another, for ``seconds``.

    Each full run is followed by :data:`SETUPS_PER_RUN` set-up-only runs.
    Another round starts while the loop would end nearer ``seconds`` with
    it than without it, judged by the median round so far.  Returns the
    full runs and the set-up-only runs.
    """
    runs: List[Dict[str, Any]] = []
    setups: List[Dict[str, Any]] = []
    rounds: List[float] = []
    began = time.monotonic()
    while True:
        round_began = time.monotonic()
        index = len(runs)
        run_dir = work / f"run{index}"
        cache = shared_cache if shared_cache is not None else run_dir / "cache"
        runs.append(spawn(workload, payload, run_dir, cache))
        for extra in range(SETUPS_PER_RUN):
            setup_dir = work / f"setup{index}-{extra}"
            cache = shared_cache if shared_cache is not None else setup_dir / "cache"
            setups.append(spawn(workload, payload, setup_dir, cache, setup_only=True))
        rounds.append(time.monotonic() - round_began)
        typical = statistics.median(rounds)
        if len(runs) >= min_runs and time.monotonic() - began + typical / 2 > seconds:
            return runs, setups


def check_runs(generated, plan, runs: List[Dict[str, Any]], fill_json: Optional[str],
               pin: Optional[dict]) -> Dict[str, Any]:
    """Check every point of every run; returns counts and the reference records.

    ``generated`` is the ``inputs.Inputs``, ``plan`` its :func:`sweep_plan`,
    and ``pin`` the seed's entry of ``pins.json`` (``None`` when unpinned).
    """
    import checks

    ids = None if plan is None else checks.point_ids(plan)
    good = [r for r in runs if r["ok"]]
    if fill_json is not None:
        reference = checks.sweep_records(fill_json, ids)
    elif good:
        reference = records_of(good[0], ids)
    else:
        reference = {}
    if reference:
        expected = len(reference)
    elif plan is None:
        data = json.loads(generated.payload)
        expected = len(data["shapes"]) * len(data["designs"])
    else:
        expected = len(ids)
    if plan is None:
        shared = checks.violations(reference)
    elif reference:
        rng = random.Random(f"tier-up:{generated.workload}:{generated.seed}")
        shared = checks.tier_up_failures(plan, reference, rng)
    else:
        shared = set()
    failures: Dict[str, Set[str]] = {}  # records text -> failed points
    attempted = failed = 0
    for run in runs:
        attempted += expected
        if not run["ok"]:
            failed += expected
            continue
        text = run["records_text"]
        if text not in failures:  # runs nearly always agree: check each text once
            records = records_of(run, ids)
            diff = checks.differing(records, reference)
            if fill_json is not None and text != fill_json and not diff:
                diff = set(records) | set(reference)  # same points, other report bytes
            bad = set(shared) | diff
            if pin is not None:
                bad |= checks.pinned_failures(records, pin, generated.content_sha256)
            failures[text] = bad
        failed += len(failures[text])
    return {"attempted": attempted, "failed": failed, "reference": reference,
            "pinned": pin is not None}


# -- metrics ---------------------------------------------------------------------------


def reference_s(host_s: float, probe_s: float) -> float:
    """Host seconds in which the probe averaged ``probe_s``, as reference seconds."""
    return host_s * REFERENCE_PROBE_S / probe_s


def end_to_end(runs: List[Dict[str, Any]], setups: List[Dict[str, Any]],
               err: float) -> Dict[str, Dict[str, Any]]:
    good = [r for r in runs if r["ok"]]
    return {
        "points_per_s": {
            "value": statistics.median(
                r["points"] / reference_s(r["run_s"], r["run_probe_s"]) for r in good),
            "unit": "points/s",
        },
        "setup_s": {
            "value": statistics.median(
                reference_s(r["setup_s"], r["setup_probe_s"])
                for r in good + [r for r in setups if r["ok"]]),
            "unit": "s",
        },
        "peak_rss_mb": {
            "value": statistics.median(r["peak_rss_mb"] for r in good), "unit": "MiB",
        },
        "paper_err": {"value": err, "unit": "ratio"},
    }


def per_layer(traced: Dict[str, Any], sim: Dict[str, int]) -> Dict[str, Dict[str, Any]]:
    from tracer import Tracer

    spans = traced["layers"]["spans"]
    counts = traced["layers"]["counts"]

    def self_s(name: str, phase: str = "spans") -> float:
        return traced["layers"][phase].get(name, {}).get("self_s", 0.0)

    def calls(name: str) -> int:
        return int(spans.get(name, {}).get("calls", 0))

    def ratio(num: float, den: float, scale: float = 1.0) -> float:
        return num / den * scale if den else 0.0

    def hit_ratio(layer: str) -> float:
        hits, misses = counts[f"{layer}.memo_hits"], counts[f"{layer}.memo_misses"]
        return ratio(hits, hits + misses)

    points = traced["points"]
    fast_instr = counts.get("cpu.fastvec.instructions", 0)
    ref_instr = counts.get("cpu.fast.instructions", 0)
    wrapper_calls = sum(e["calls"] for n, e in spans.items() if n != Tracer.ROOT_SPAN)
    values = {
        "runtime.plan.expand_s": (self_s("runtime.plan.expand"), "s"),
        "runtime.plan.hash_s": (self_s("runtime.plan.hash"), "s"),
        "runtime.plan.jobs": (traced["jobs"], "count"),
        "runtime.plan.distinct": (points, "count"),
        "runtime.plan.report_views_s": (self_s("runtime.plan.report_views"), "s"),
        "runtime.plan.report_json_s": (self_s("runtime.plan.report_json"), "s"),
        "runtime.plan.report_json_bytes": (counts.get("runtime.plan.report_json_bytes", 0), "bytes"),
        "runtime.session.self_s": (self_s("runtime.session.run"), "s"),
        "runtime.registry.resolve_s": (self_s("runtime.registry.resolve"), "s"),
        "runtime.registry.backends_per_point": (
            ratio(calls("runtime.registry.resolve"), points), "ratio"),
        "runtime.cache.load_s": (self_s("runtime.cache.load", "setup_spans"), "s"),
        "runtime.cache.entries": (counts.get("runtime.cache.entries", 0), "count"),
        "runtime.cache.get_s": (self_s("runtime.cache.get"), "s"),
        "runtime.cache.hits": (counts.get("runtime.cache.hits", 0), "count"),
        "runtime.cache.misses": (counts.get("runtime.cache.misses", 0), "count"),
        "runtime.cache.put_s": (self_s("runtime.cache.put"), "s"),
        "runtime.cache.puts": (calls("runtime.cache.put"), "count"),
        "runtime.cache.flush_s": (self_s("runtime.cache.flush"), "s"),
        "runtime.cache.store_bytes": (traced["store_bytes"], "bytes"),
        "workloads.codegen.lower_s": (self_s("workloads.codegen.lower"), "s"),
        "workloads.codegen.programs": (calls("workloads.codegen.lower"), "count"),
        "workloads.codegen.instructions": (
            counts.get("workloads.codegen.instructions", 0), "count"),
        "workloads.codegen.memo_hit_ratio": (hit_ratio("workloads.codegen"), "ratio"),
        "cpu.decode.decode_s": (self_s("cpu.decode.decode"), "s"),
        "cpu.decode.programs": (counts["cpu.decode.memo_misses"], "count"),
        "cpu.decode.memo_hit_ratio": (hit_ratio("cpu.decode"), "ratio"),
        "cpu.fastvec.kernel_s": (self_s("cpu.fastvec.kernel"), "s"),
        "cpu.fastvec.runs": (calls("cpu.fastvec.kernel"), "count"),
        "cpu.fastvec.instructions": (fast_instr, "count"),
        "cpu.fastvec.ns_per_instr": (
            ratio(self_s("cpu.fastvec.kernel"), fast_instr, 1e9), "ns/instr"),
        "cpu.fastvec.scalar_fallbacks": (
            counts.get("cpu.fastvec.scalar_fallbacks", 0), "count"),
        "cpu.fast.run_s": (self_s("cpu.fast.run"), "s"),
        "cpu.fast.runs": (calls("cpu.fast.run"), "count"),
        "cpu.fast.ns_per_instr": (ratio(self_s("cpu.fast.run"), ref_instr, 1e9), "ns/instr"),
        "cpu.analytic.run_s": (self_s("cpu.analytic.run"), "s"),
        "cpu.analytic.points": (calls("cpu.analytic.run"), "count"),
        "cpu.analytic.us_per_point": (
            ratio(self_s("cpu.analytic.run"), calls("cpu.analytic.run"), 1e6), "us/point"),
        "analysis.bounds.bound_s": (self_s("analysis.bounds.bound"), "s"),
        "analysis.bounds.check_s": (self_s("analysis.bounds.check"), "s"),
        "analysis.bounds.reports": (calls("analysis.bounds.bound"), "count"),
        "analysis.bounds.violations": (counts.get("analysis.bounds.violations", 0), "count"),
        "sim.cycles": (sim["cycles"], "cycles"),
        "sim.instructions": (sim["instructions"], "count"),
        "sim.weight_loads": (sim["weight_loads"], "count"),
        "sim.bypasses": (sim["bypasses"], "count"),
        "trace.wall_s": (traced["run_s"], "s"),
        "trace.wrapper_calls": (wrapper_calls, "count"),
        "trace.overhead_s": (wrapper_calls * traced["wrapper_s"], "s"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def print_layer_split(workload: str, traced: Dict[str, Any]) -> None:
    """Self time per layer (module) as a share of each traced phase."""
    from tracer import Tracer, layer_of

    for phase, key in ((Tracer.ROOT_SPAN, "spans"), (Tracer.SETUP_SPAN, "setup_spans")):
        spans = traced["layers"][key]
        wall = spans[phase]["total_s"]
        layers: Dict[str, List[float]] = {}
        for name, entry in spans.items():
            layer = "benchmark (glue)" if name == phase else layer_of(name)
            acc = layers.setdefault(layer, [0.0, 0])
            acc[0] += entry["self_s"]
            acc[1] += entry["calls"]
        print(f"layer split ({workload}, {phase}, traced wall {wall:.3f} s):")
        for layer, (self_s, n) in sorted(layers.items(), key=lambda kv: -kv[1][0]):
            print(f"  {layer:<20} {self_s:9.4f} s  {100 * self_s / wall:5.1f}%  {n:>8} calls")


def machine_facts() -> Dict[str, Any]:
    import numpy

    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model, "python": platform.python_version(),
            "numpy": numpy.__version__}


# -- entry point -----------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_repro()
    import checks
    import inputs

    seed = inputs.DEFAULT_SEED if args.seed is None else args.seed
    workload = args.workload
    generated = inputs.GENERATORS[workload](seed)
    payload = generated.payload
    plan = sweep_plan(workload, payload)
    OUT.mkdir(exist_ok=True)
    (OUT / f"input-{workload}-seed{seed}.json").write_text(payload)
    print(f"workload {workload} seed {seed} input sha256 {generated.sha256} "
          f"content sha256 {generated.content_sha256}")
    print("machine " + json.dumps(machine_facts(), sort_keys=True))

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    try:
        fill_json = None
        shared_cache = None
        if workload == "warm-rerun":
            shared_cache = work / "filled"
            fill_json = fill_store(payload, shared_cache)
        if args.trace:
            runs, setups = run_loop(workload, payload, work / "untraced", args.seconds / 2,
                                    MIN_RUNS_BEFORE_TRACE, shared_cache)
            trace_out = OUT / f"trace-{workload}-seed{seed}.json"
            cache = shared_cache if shared_cache is not None else work / "traced" / "cache"
            traced = spawn(workload, payload, work / "traced", cache, trace_out)
            all_runs = runs + [traced]
        else:
            all_runs, setups = run_loop(workload, payload, work, args.seconds, MIN_RUNS,
                                        shared_cache)
        outcome = check_runs(generated, plan, all_runs, fill_json,
                             checks.load_pin(workload, seed))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for run in setups:
        if not run["ok"]:
            print(f"set-up-only run: FAILED: {run['error']}", file=sys.stderr)
    for index, run in enumerate(all_runs):
        if not run["ok"]:
            print(f"run {index}: FAILED: {run['error']}", file=sys.stderr)
        elif "run_probe_s" in run:
            print(f"run {index}: setup {run['setup_s']:.3f} s, timed {run['run_s']:.3f} s "
                  f"(host at {REFERENCE_PROBE_S / run['run_probe_s']:.2f}x reference), "
                  f"{run['points']} points, peak rss {run['peak_rss_mb']:.1f} MiB")
        else:
            print(f"run {index} (traced): setup {run['setup_s']:.3f} s, "
                  f"timed {run['run_s']:.3f} s, {run['points']} points")
    reference = outcome["reference"]
    correct = outcome["failed"] == 0 and all(r["ok"] for r in all_runs + setups)
    print(f"checks: {outcome['attempted']} points attempted, {outcome['failed']} failed"
          f" ({'pinned digests' if outcome['pinned'] else 'no pin for this seed'})")

    if not args.trace:
        metrics = {}
        if reference:
            err = checks.paper_err(checks.table1_cycles(plan, reference))
            metrics = end_to_end(all_runs, setups, err)
    elif traced["ok"] and any(r["ok"] for r in runs):
        import tracer

        layers = traced["layers"]
        missing = tracer.missing_layers(workload, layers["spans"], layers["setup_spans"])
        if missing:
            correct = False
            print(f"error: traced run recorded no calls into {', '.join(missing)}",
                  file=sys.stderr)
        print_layer_split(workload, traced)
        if workload == "bounds-oracle":
            sim = checks.sim_totals(traced["layers"]["fast_results"])
        else:
            sim = checks.sim_totals(reference.values())
        metrics = per_layer(traced, sim)
        overhead = metrics["trace.overhead_s"]["value"]
        print(f"trace written to {trace_out}; overhead {overhead:.3f} s "
              f"({metrics['trace.wrapper_calls']['value']} wrapper calls x "
              f"{traced['wrapper_s'] * 1e6:.2f} us, {overhead / traced['run_s']:.1%} "
              "of the traced timed region)")
    else:
        metrics = {}
    print(json.dumps({"correct": correct, "attempted": outcome["attempted"],
                      "failed": outcome["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
