"""Output checks: every point a run produced, checked outside the timed region.

A *record* is one point's modeled output, keyed by an identity the
benchmark owns rather than by the repository's cache key: the ``SimResult``
counters of a sweep point, keyed ``design/fidelity/MxNxK`` (tile-padded
dims), or the cycle figures and violation count of one ``bounds-oracle``
``design:shape-name`` pair.  Labels and the key schema stay out, so a
change to how keys are hashed or which job's label a result carries leaves
every record as it was.  A point fails when

- its digest differs from the one pinned in ``pins.json`` (pinned seeds
  only: :data:`inputs.DEFAULT_SEED` and :data:`inputs.HELD_OUT_SEED`);
- it differs from the reference: the first run of the invocation, or on
  ``warm-rerun`` the report the fill produced;
- it is in the seeded sample re-run on the next tier up (``fast-ref`` for
  ``fast`` points, ``fast`` for small ``analytic`` points) and disagrees;
- it reports a bound violation (``bounds-oracle``);
- its run crashed or left it out.
"""

from __future__ import annotations

import hashlib
import json
import random
import statistics
from pathlib import Path
from typing import Dict, Iterable, Optional, Set

#: Hex digits kept per point digest in ``pins.json``.
DIGEST_HEX = 6

#: Points re-run on the next tier up per invocation, and the largest
#: programs (in instructions) eligible, so the re-run stays cheap.
TIER_UP_POINTS = 4
TIER_UP = {"fast": ("fast-ref", 6_000), "analytic": ("fast", 3_000)}

#: The ``SimResult`` fields a sweep record keeps: modeled counters only.
COUNTERS = ("cycles", "instructions", "mm_count", "bypass_count", "weight_loads",
            "engine_busy_cycles")

PINS = Path(__file__).resolve().parent / "pins.json"

Records = Dict[str, dict]


def point_digest(key: str, record: dict) -> str:
    blob = f"{key}\n{json.dumps(record, sort_keys=True)}"
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:DIGEST_HEX]


def digest_string(records: Records) -> str:
    """All point digests, concatenated in sorted key order."""
    return "".join(point_digest(key, records[key]) for key in sorted(records))


def load_pin(workload: str, seed: int) -> Optional[dict]:
    pins = json.loads(PINS.read_text()) if PINS.exists() else {}
    return pins.get(workload, {}).get(str(seed))


def pinned_failures(records: Records, pin: dict, content_sha256: str) -> Set[str]:
    """Points whose digest differs from the pin, by sorted position.

    A different content hash means the generator drifted: every point fails.
    Missing or extra positions fail too.
    """
    keys = sorted(records)
    if pin["content_sha256"] != content_sha256:
        return set(keys) | {f"pinned#{i}" for i in range(len(keys), pin["points"])}
    got = digest_string(records)
    want = pin["digests"]
    width = DIGEST_HEX
    failed: Set[str] = set()
    for index in range(max(len(keys), pin["points"])):
        span = slice(index * width, (index + 1) * width)
        if got[span] != want[span]:
            failed.add(keys[index] if index < len(keys) else f"pinned#{index}")
    return failed


def differing(records: Records, reference: Records) -> Set[str]:
    """Points that differ from the reference, are missing, or are extra."""
    keys = set(records) | set(reference)
    return {k for k in keys if records.get(k) != reference.get(k)}


def violations(records: Records) -> Set[str]:
    return {key for key, record in records.items() if record.get("violations")}


def tier_up_failures(plan, records: Records, rng: random.Random) -> Set[str]:
    """Re-run a seeded sample of small sweep points on the next tier up."""
    from repro import generate_gemm_program, resolve_backend

    tier, limit = TIER_UP[plan.fidelity]
    first_job = {}
    for job in plan.expanded_jobs():
        first_job.setdefault(point_id(job), job)
    small = sorted(k for k, r in records.items() if r["instructions"] <= limit)
    failed: Set[str] = set()
    for point in rng.sample(small, min(TIER_UP_POINTS, len(small))):
        job = first_job[point]
        program = generate_gemm_program(job.shape, job.codegen)
        backend = resolve_backend(job.design_key, fidelity=tier, core=job.core)
        if counters(backend.prepare(program).run()) != records[point]:
            failed.add(point)
    return failed


def point_id(job) -> str:
    """A sweep point as the benchmark names it: design, fidelity, padded dims.

    The workloads run at default core and codegen settings, so this names
    exactly one cache key (:func:`point_ids` checks that).
    """
    m, n, k = job.shape.tile_padded().dims
    return f"{job.design_key}/{job.fidelity}/{m}x{n}x{k}"


def point_ids(plan) -> Dict[str, str]:
    """Cache key -> :func:`point_id`, for every distinct point of ``plan``."""
    ids: Dict[str, str] = {}
    for key, job in zip(plan.job_keys(), plan.expanded_jobs()):
        ids.setdefault(key, point_id(job))
    if len(set(ids.values())) != len(ids):
        raise ValueError("two cache keys share one (design, fidelity, padded shape)")
    return ids


def counters(result) -> dict:
    return {name: getattr(result, name) for name in COUNTERS}


def sweep_records(report_json: str, ids: Dict[str, str]) -> Records:
    """A report's results as records; ``ids`` comes from :func:`point_ids`."""
    from repro import SweepReport

    report = SweepReport.from_json(report_json)
    return {ids[key]: counters(r) for key, r in report.results.items()}


def table1_cycles(plan, records: Records) -> Dict[str, Dict[str, int]]:
    """``cycles[table1 workload][design]`` from a run's records.

    ``plan`` is the sweep's ``SweepPlan``, or ``None`` on ``bounds-oracle``.
    """
    cycles: Dict[str, Dict[str, int]] = {}
    if plan is None:
        for key, record in records.items():
            design, name = key.split(":", 1)
            if name.startswith("table1/"):
                cycles.setdefault(name, {})[design] = record["fast_cycles"]
        return cycles
    for job in plan.expanded_jobs():
        if job.workload.startswith("table1/"):
            record = records[point_id(job)]
            cycles.setdefault(job.workload, {})[job.design_key] = record["cycles"]
    return cycles


def paper_err(cycles: Dict[str, Dict[str, int]]) -> float:
    """Mean |simulated Table I geomean normalized runtime - paper average|.

    Taken over the five designs the paper reports
    (:data:`repro.experiments.runtime_sweep.PAPER_AVERAGES`).
    """
    from repro.experiments.runtime_sweep import PAPER_AVERAGES

    gaps = []
    for design, paper in PAPER_AVERAGES.items():
        ratios = [row[design] / row["baseline"] for row in cycles.values()]
        gaps.append(abs(statistics.geometric_mean(ratios) - paper))
    return statistics.fmean(gaps)


def sim_totals(results: Iterable[dict]) -> Dict[str, int]:
    """Modeled statistics summed over distinct points (must repeat exactly)."""
    totals = {"cycles": 0, "instructions": 0, "weight_loads": 0, "bypasses": 0}
    for r in results:
        totals["cycles"] += r["cycles"]
        totals["instructions"] += r["instructions"]
        totals["weight_loads"] += r["weight_loads"]
        totals["bypasses"] += r["bypass_count"]
    return totals
