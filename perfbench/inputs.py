"""Seeded workload inputs: each (workload, seed) pair becomes one value.

This is the only place randomness enters the benchmark.  The generator
draws from the repository's registered suites and hands the program nothing
but the result: a canonical :class:`repro.SweepPlan` JSON for the sweep
workloads, or a list of GEMM shapes for ``bounds-oracle``.  Every draw is
sized by a budget (distinct points, or simulated instructions) and has a
fixed count, so run length and points per run barely depend on the seed.

Each input also carries its *content*: what was drawn, in the benchmark's
own terms (designs, named shapes, suites, batches, scale, fidelity).  The
pinned digests are tied to the content's hash, not to the plan JSON, so a
change to how ``SweepPlan`` serializes cannot read as a different input.

Every workload also carries the paper's Table I GEMMs at its own scale,
which is where ``paper_err`` comes from.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro import CodegenOptions, GemmShape, SweepPlan, resolve_backend
from repro.engine.designs import DESIGNS
from repro.workloads.suites import SUITES

#: The seed the pinned digests were made with, and the one held out.
DEFAULT_SEED = 1
HELD_OUT_SEED = 7

#: ``fast-cold``: Table I at the CLI's default scale plus this many drawn
#: GEMMs, from these batches of the other suites, near this instruction total.
FAST_SCALE = 4
FAST_BATCHES = (1, 8, 32, 64, 128, 256, 512)
FAST_DRAW = 6
FAST_INSTRUCTIONS = (3_000, 24_000)

#: ``analytic-grid``: full-size suites; one batch per stratum, the last one
#: chosen to land nearest the distinct-point budget.  The first two strata
#: are sub-tile batches (at most one 16-row tile), so padding dedup shares
#: work across them.
GRID_SCALE = 1
GRID_STRATA = ((1, 8), (9, 16), (17, 128), (129, 1024))
GRID_POINTS = 1_920

#: ``warm-rerun``: a wider batch axis (more jobs per distinct point).
WARM_SCALE = 8
WARM_STRATA = ((1, 4), (5, 8), (9, 12), (13, 16), (17, 32), (33, 64), (65, 128),
               (129, 256), (257, 512), (513, 1024))
WARM_POINTS = 3_200

#: ``bounds-oracle``: Table I at scale 16 plus drawn tile-padded GEMMs.
BOUNDS_TABLE1_SCALE = 16
BOUNDS_SCALES = (4, 8)
BOUNDS_DRAW = 5
BOUNDS_INSTRUCTIONS = (1_000, 8_000)

#: Draws tried per budget fit (see :func:`_budget_draw`, :func:`_batch_axis`).
DRAW_TRIES = 24


@dataclasses.dataclass(frozen=True)
class Inputs:
    """What the program receives for one (workload, seed) pair."""

    workload: str
    seed: int
    #: What the program receives: ``SweepPlan`` JSON, or ``{"designs", "shapes"}``.
    payload: str
    #: What was drawn, as canonical JSON of the benchmark's own making.
    content: str

    @property
    def sha256(self) -> str:
        return _sha256(self.payload)

    @property
    def content_sha256(self) -> str:
        return _sha256(self.content)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _canonical(data: dict) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def _named(workloads: Sequence[Tuple[str, GemmShape]]) -> List[list]:
    return [[name, s.m, s.n, s.k] for name, s in workloads]


def _rng(workload: str, seed: int) -> random.Random:
    # String seeding is stable across processes (no hash randomization).
    return random.Random(f"{workload}:{seed}")


def _instructions(shape: GemmShape) -> int:
    """Exact dynamic instruction count of the shape's default kernel."""
    backend = resolve_backend("baseline", fidelity="analytic")
    return backend.run_shape(shape, CodegenOptions()).instructions


def _table1() -> List[Tuple[str, GemmShape]]:
    """The nine Table I GEMMs, unscaled, named ``table1/<layer>``."""
    suite = SUITES["table1"].build()
    return [(f"table1/{entry.layers[0]}", entry.shape) for entry in suite.distinct()]


def _budget_draw(
    rng: random.Random, candidates: Sequence[Tuple[int, object]], count: int
) -> List[Tuple[int, object]]:
    """Draw ``count`` candidates whose sizes sum close to a fixed budget.

    ``candidates`` are ``(size, item)`` pairs sorted by size; the budget is
    ``count`` times their mean size.  Each try leaves one of ``count``
    equal-count strata out at random, draws one item from each of the
    others, and adds the remaining candidate that brings the total nearest
    the budget; the try nearest the budget wins.
    """
    if len(candidates) < 2 * count:
        raise ValueError(f"{len(candidates)} candidates cannot fill {count} strata")
    strata = [
        candidates[i * len(candidates) // count:(i + 1) * len(candidates) // count]
        for i in range(count)
    ]
    budget = count * sum(size for size, _ in candidates) / len(candidates)
    best: List[Tuple[int, object]] = []
    for _ in range(DRAW_TRIES):
        skipped = rng.randrange(count)
        picks = [rng.choice(s) for i, s in enumerate(strata) if i != skipped]
        need = budget - sum(size for size, _ in picks)
        rest = [c for c in candidates if c not in picks]
        picks.append(min(rest, key=lambda c: abs(c[0] - need)))
        if not best or _gap(picks, budget) < _gap(best, budget):
            best = picks
    return best


def _gap(picks: Sequence[Tuple[int, object]], budget: float) -> float:
    return abs(sum(size for size, _ in picks) - budget)


def _suite_candidates(
    suites: Sequence[str],
    batches: Sequence[Optional[int]],
    scales: Sequence[int],
    window: Tuple[int, int],
    exclude: Set[Tuple[int, int, int]],
) -> List[Tuple[int, Tuple[str, GemmShape, int]]]:
    """Distinct suite GEMMs (by padded dims) inside an instruction window."""
    seen = set(exclude)
    found = []
    for name in suites:
        spec = SUITES[name]
        for batch in batches:
            suite = spec.build(batch=batch)
            for entry in suite.distinct():
                for scale in scales:
                    scaled = entry.shape.scaled(scale)
                    dims = scaled.tile_padded().dims
                    if dims in seen:
                        continue
                    seen.add(dims)
                    size = _instructions(scaled)
                    if window[0] <= size <= window[1]:
                        suite_at = name if batch is None else f"{name}@b{batch}"
                        label = f"{suite_at}/{entry.layers[0]}"
                        found.append((size, (label, entry.shape, scale)))
    found.sort(key=lambda c: (c[0], c[1][1].dims, c[1][0]))
    return found


def fast_cold(seed: int) -> Inputs:
    """Table I plus drawn GEMMs of the other suites, on ``fast``, cold."""
    rng = _rng("fast-cold", seed)
    table1 = _table1()
    exclude = {s.scaled(FAST_SCALE).tile_padded().dims for _, s in table1}
    others = [name for name in SUITES if name != "table1"]
    candidates = _suite_candidates(
        others, FAST_BATCHES, (FAST_SCALE,), FAST_INSTRUCTIONS, exclude
    )
    drawn = [item for _, item in _budget_draw(rng, candidates, FAST_DRAW)]
    workloads = tuple(table1) + tuple((label, shape) for label, shape, _ in drawn)
    plan = SweepPlan(
        designs=tuple(DESIGNS), workloads=workloads, scale=FAST_SCALE, fidelity="fast"
    )
    content = {"designs": list(DESIGNS), "workloads": _named(workloads),
               "scale": FAST_SCALE, "fidelity": "fast"}
    return Inputs("fast-cold", seed, plan.to_json(), _canonical(content))


def _batch_axis(
    rng: random.Random,
    strata: Sequence[Tuple[int, int]],
    scale: int,
    budget: int,
    extra: Set[Tuple[int, int, int]],
) -> Tuple[int, ...]:
    """One batch per stratum, drawn to land nearest ``budget`` points.

    A point is one (design, tile-padded shape) pair, so the distinct point
    count is the number of distinct padded dims times the design count.
    Several draws of the leading strata are each completed by the best of
    one fixed sample of last-stratum batches; the nearest axis wins.
    """
    memo: Dict[int, Set[Tuple[int, int, int]]] = {}

    def dims(batch: int) -> Set[Tuple[int, int, int]]:
        if batch not in memo:
            memo[batch] = {
                entry.shape.tile_padded().dims
                for spec in SUITES.values()
                for entry in spec.build(batch=batch, scale=scale).distinct()
            }
        return memo[batch]

    lo, hi = strata[-1]
    lasts = sorted(rng.sample(range(lo, hi + 1), DRAW_TRIES))
    best: Tuple[float, Tuple[int, ...]] = (float("inf"), ())
    for _ in range(DRAW_TRIES // 2):
        chosen = {rng.randint(lo, hi) for lo, hi in strata[:-1]}
        if len(chosen) < len(strata) - 1:
            continue  # two strata drew the same batch
        covered = set(extra).union(*(dims(b) for b in chosen))
        for last in lasts:
            gap = abs(len(covered | dims(last)) * len(DESIGNS) - budget)
            if gap < best[0]:
                best = (gap, tuple(sorted(chosen | {last})))
    return best[1]


def _analytic_grid_plan(
    workload: str, seed: int, strata, scale: int, budget: int
) -> Inputs:
    rng = _rng(workload, seed)
    table1 = _table1()
    extra = {s.scaled(scale).tile_padded().dims for _, s in table1}
    batches = _batch_axis(rng, strata, scale, budget, extra)
    plan = SweepPlan(
        designs=tuple(DESIGNS),
        workloads=tuple(table1),
        suites=tuple(SUITES),
        batches=batches,
        scale=scale,
        fidelity="analytic",
    )
    content = {"designs": list(DESIGNS), "workloads": _named(table1),
               "suites": list(SUITES), "batches": list(batches), "scale": scale,
               "fidelity": "analytic"}
    return Inputs(workload, seed, plan.to_json(), _canonical(content))


def analytic_grid(seed: int) -> Inputs:
    """Every suite x every design x a seeded batch axis, on ``analytic``."""
    return _analytic_grid_plan(
        "analytic-grid", seed, GRID_STRATA, GRID_SCALE, GRID_POINTS
    )


def warm_rerun(seed: int) -> Inputs:
    """A wider batch-axis analytic grid, re-run against a filled store."""
    return _analytic_grid_plan(
        "warm-rerun", seed, WARM_STRATA, WARM_SCALE, WARM_POINTS
    )


def bounds_oracle(seed: int) -> Inputs:
    """Table I at scale 16 plus drawn tile-padded GEMMs of the other suites."""
    rng = _rng("bounds-oracle", seed)
    table1 = [
        (label, shape.scaled(BOUNDS_TABLE1_SCALE))
        for label, shape in _table1()
    ]
    exclude = {shape.tile_padded().dims for _, shape in table1}
    # Drawn names must not start with ``table1/``: that prefix marks the
    # GEMMs ``paper_err`` is taken over.
    others = [name for name in SUITES if name != "table1"]
    candidates = _suite_candidates(
        others, [None], BOUNDS_SCALES, BOUNDS_INSTRUCTIONS, exclude
    )
    drawn = [
        (f"{label}/s{scale}", shape.scaled(scale).tile_padded())
        for _, (label, shape, scale) in _budget_draw(rng, candidates, BOUNDS_DRAW)
    ]
    payload = _canonical({"designs": list(DESIGNS), "shapes": _named(table1 + drawn)})
    return Inputs("bounds-oracle", seed, payload, payload)


#: Workload name -> generator.
GENERATORS: Dict[str, Callable[[int], Inputs]] = {
    "fast-cold": fast_cold,
    "analytic-grid": analytic_grid,
    "warm-rerun": warm_rerun,
    "bounds-oracle": bounds_oracle,
}
