"""Sweep-scaling perf trajectory: cold/warm sweep times per fidelity.

This bench is the recorded perf baseline the ROADMAP asked for: it times
cold (empty result cache) and warm (fully cached) sweeps of the table1 and
bert-full suites at the ``fast`` (skeleton walk), ``fast-ref`` (scalar
reference) and ``analytic`` fidelities and writes ``BENCH_sweep.json`` at
the repo root — one entry in the PR-over-PR perf trajectory (fields
documented in the README's "Perf trajectory" section).

Each fidelity's cold time is the median of :data:`COLD_RUNS` cold runs,
each on a fresh result cache and session and an empty steady-state walk
memo (:meth:`repro.cpu.steady.SteadyStateWalk.cache_clear`; the program
memo stays pre-warmed, below): one cold table1 sweep of the fast tiers
takes 0.03-0.09 s, too short to time once, and without the clear every run
after the first would replay the first run's blocks.  The cold runs go in
rounds of one run per fidelity: a shared host changes speed for seconds at
a time, and timed one fidelity after another, all five ``fast`` runs of one
sweep took 86-96 ms against 35-50 ms in the next while ``fast-ref`` held
(a 29.8x ratio against its 45x floor).  Interleaved, a slow stretch slows
every tier's samples alike, so the gated ratios keep their value.  Three
assertions pin the perf claims:

- the fast model runs the cold table1 grid at least
  ``VECTORIZED_SPEEDUP_FLOOR`` times faster than the scalar ``fast-ref``
  model (the shared program-generation memo is pre-warmed, instruction
  objects included, so neither side is charged for lowering: ``fast``
  reads the skeleton lowering builds, ``fast-ref`` walks the objects a
  program builds on first iteration);
- the analytic tier runs the table1 grid >= 50x faster than ``fast-ref``
  on the same plan (measured in-process, cold caches both sides);
  ``fast-ref`` is the denominator because no fast-model speedup moves it
  (the ``fast`` / ``analytic`` ratio is recorded, ungated);
- the FastCoreModel port-selection micro-opt (1-port store special case,
  inlined 2-load-port min) changed *no* timing: both the scalar and the
  ``fast`` model still equal the pre-optimization reference values
  pinned below.

Beside those in-process numbers it records, ungated, the cold sweep a user
waits on: ``process_cold_s``, the median wall time of :data:`COLD_RUNS`
fresh ``python -m repro sweep`` processes (:data:`PROCESS_COLD_ARGS`),
interpreter start and ``import repro`` included, with cold memos.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from repro.cpu.fast import FastCoreModel
from repro.cpu.fastvec import FastVecCoreModel
from repro.cpu.steady import SteadyStateWalk
from repro.engine.designs import DESIGNS, get_design
from repro.runtime import ResultCache, Session, SweepPlan
from repro.runtime.session import cached_program
from repro.utils.tables import format_table
from repro.workloads.codegen import generate_gemm_program
from repro.workloads.gemm import GemmShape

REPO_ROOT = Path(__file__).resolve().parents[1]
BENCH_JSON = REPO_ROOT / "BENCH_sweep.json"

#: Fidelities the trajectory tracks (program memo pre-warmed; see above).
TIMED_FIDELITIES = ("fast", "fast-ref", "analytic")

#: Suites timed per fidelity: the Table I layers and the structurally
#: richest inference suite (head-batched attention shapes).
TIMED_SUITES = ("table1", "bert-full")

#: The in-sweep speedup floor the analytic tier must clear on table1,
#: against the scalar ``fast-ref`` model (about 70x measured).  The ratio
#: against ``fast`` is recorded but not gated: both run the same skeleton
#: walk, ``analytic`` lowering each shape's skeleton itself.
ANALYTIC_SPEEDUP_FLOOR = 50.0

#: The cold-sweep speedup floor the fast model must clear over the scalar
#: reference on table1: half the ratio measured with the steady-state
#: jumps (a median of 90x over 24 runs on a 2-vCPU host), rounded down.
VECTORIZED_SPEEDUP_FLOOR = 45.0

#: Cold runs per fidelity, in rounds of one per fidelity; ``cold_s`` is
#: their median.
COLD_RUNS = 5

#: The fresh-process sweep behind ``process_cold_s`` (serial, no cache).
PROCESS_COLD_ARGS = (
    "sweep", "--workloads", "table1", "--designs", "all",
    "--scale", "4", "--no-cache", "--jobs", "1",
)

#: FastCoreModel reference results captured immediately *before* the
#: port-selection micro-opt (commit history: generic min-over-range scan
#: per instruction).  The optimization is legal only if timing is
#: bit-identical, so these pins are the before/after assertion.
MICRO_OPT_SHAPE = GemmShape(256, 256, 256, name="microopt-pin")
MICRO_OPT_PINS = {
    "baseline": {"cycles": 778339, "instructions": 6016, "engine_busy_cycles": 194560},
    "rasa-dmdb-wls": {"cycles": 131331, "instructions": 6016, "engine_busy_cycles": 32808},
}


def _suite_plan(suite: str, fidelity: str, settings) -> SweepPlan:
    return SweepPlan(
        designs=tuple(DESIGNS),
        suites=(suite,),
        scale=settings.scale,
        core=settings.core,
        codegen=settings.codegen,
        fidelity=fidelity,
    )


def _timed_run(session: Session, plan: SweepPlan):
    start = time.perf_counter()
    report = session.run(plan)
    return time.perf_counter() - start, report


def _process_cold_s() -> float:
    """Median wall time of fresh ``python -m repro sweep`` processes."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(REPO_ROOT / "src")] + [p for p in (os.environ.get("PYTHONPATH"),) if p]
    ))
    times = []
    for _ in range(COLD_RUNS):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-m", "repro", *PROCESS_COLD_ARGS],
            check=True, stdout=subprocess.DEVNULL, env=env,
        )
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def test_port_selection_micro_opt_timing_identical(emit):
    """Neither fast-model rewrite may move a single cycle off the pins."""
    rows = []
    for design_key, pins in MICRO_OPT_PINS.items():
        program = generate_gemm_program(MICRO_OPT_SHAPE)
        config = get_design(design_key).config
        scalar = FastCoreModel(engine=config).run(program)
        vector = FastVecCoreModel(engine=config).run(program)
        for field, pinned in pins.items():
            assert getattr(scalar, field) == pinned, (design_key, field)
            assert getattr(vector, field) == pinned, (design_key, field)
        rows.append((design_key, pins["cycles"], scalar.cycles, "identical"))
    emit(
        "FastCoreModel port-selection micro-opt (before/after pins, 256^3)",
        format_table(["design", "pre-opt cycles", "post-opt cycles", "timing"], rows),
    )


def test_sweep_scaling(emit, settings, tmp_path):
    """Time cold/warm suite sweeps per fidelity; write BENCH_sweep.json."""
    sweeps = {}
    rows = []
    for suite in TIMED_SUITES:
        per_fidelity = {}
        # Pre-warm the shared program memo so the speedup row compares
        # the two models, not who pays for lowering.  Lowering builds the
        # skeleton ``fast`` reads; the Instruction objects fast-ref walks
        # are built on a program's first iteration, so iterate each
        # program once here too.
        for job in _suite_plan(suite, "fast", settings).iter_jobs():
            list(cached_program(job.shape, job.codegen))
        plans = {fidelity: _suite_plan(suite, fidelity, settings) for fidelity in TIMED_FIDELITIES}
        cold_times = {fidelity: [] for fidelity in TIMED_FIDELITIES}
        last = {}
        for run in range(COLD_RUNS):
            for fidelity, plan in plans.items():  # one round (module doc)
                SteadyStateWalk.cache_clear()  # cold walks, not replays
                cache = ResultCache(tmp_path / f"{suite}-{fidelity}-{run}")
                with Session(cache=cache, workers=1) as session:
                    seconds, cold = _timed_run(session, plan)
                    cold_times[fidelity].append(seconds)
                    if run == COLD_RUNS - 1:
                        last[fidelity] = (cold, *_timed_run(session, plan))
        for fidelity, plan in plans.items():
            cold, warm_s, warm = last[fidelity]
            cold_s = statistics.median(cold_times[fidelity])
            assert warm.simulated == 0  # warm run is pure cache hits
            assert warm.results == cold.results
            per_fidelity[fidelity] = {
                "cold_s": round(cold_s, 6),
                "warm_s": round(warm_s, 6),
                "jobs": plan.job_count(),
                "distinct_points": cold.distinct_points,
                "simulated_cold": cold.simulated,
                "cache_hits_warm": warm.cache_hits,
            }
            rows.append(
                (
                    suite,
                    fidelity,
                    plan.job_count(),
                    cold.distinct_points,
                    f"{cold_s:.3f}s",
                    f"{warm_s:.3f}s",
                )
            )
        cold = {fidelity: per_fidelity[fidelity]["cold_s"] for fidelity in TIMED_FIDELITIES}
        sweeps[suite] = {
            "fidelities": per_fidelity,
            "analytic_ref_speedup_cold": round(cold["fast-ref"] / cold["analytic"], 2),
            "analytic_speedup_cold": round(cold["fast"] / cold["analytic"], 2),
            "vectorized_speedup_cold": round(cold["fast-ref"] / cold["fast"], 2),
        }

    assert sweeps["table1"]["analytic_ref_speedup_cold"] >= ANALYTIC_SPEEDUP_FLOOR, (
        "analytic tier lost its table1 speedup floor over fast-ref: "
        f"{sweeps['table1']['analytic_ref_speedup_cold']:.1f}x < "
        f"{ANALYTIC_SPEEDUP_FLOOR:.0f}x"
    )
    assert (
        sweeps["table1"]["vectorized_speedup_cold"] >= VECTORIZED_SPEEDUP_FLOOR
    ), (
        "fast model lost its table1 speedup floor over fast-ref: "
        f"{sweeps['table1']['vectorized_speedup_cold']:.1f}x < "
        f"{VECTORIZED_SPEEDUP_FLOOR:.0f}x"
    )

    process_cold_s = _process_cold_s()
    record = {
        "schema": 1,
        "generated_by": "benchmarks/bench_sweep_scaling.py",
        "scale": settings.scale,
        "workers": 1,
        "cold_runs": COLD_RUNS,
        "designs": len(DESIGNS),
        "process_cold_s": round(process_cold_s, 6),
        "sweeps": sweeps,
        "micro_opt_pins": {
            "shape": list(MICRO_OPT_SHAPE.dims),
            "results": MICRO_OPT_PINS,
            "note": "fast-model port-selection micro-opt is timing-identical",
        },
    }
    BENCH_JSON.write_text(json.dumps(record, indent=2) + "\n")

    emit(
        f"Sweep scaling (cold = median of {COLD_RUNS} empty-cache runs, "
        "warm = fully cached; workers=1)",
        format_table(
            ["suite", "fidelity", "jobs", "distinct", "cold", "warm"], rows
        )
        + "\n"
        + "\n".join(
            f"{suite}: fast "
            f"{data['vectorized_speedup_cold']:.1f}x faster than fast-ref, "
            f"analytic {data['analytic_ref_speedup_cold']:.1f}x faster than "
            f"fast-ref and {data['analytic_speedup_cold']:.1f}x faster than fast "
            "(cold)"
            for suite, data in sweeps.items()
        )
        + f"\nfresh-process `repro {' '.join(PROCESS_COLD_ARGS)}`: "
        f"{process_cold_s:.3f}s (median of {COLD_RUNS}, import included)"
        + f"\nwrote {BENCH_JSON}",
    )
