"""Common experiment plumbing, now a thin client of :mod:`repro.runtime`.

Every simulation below goes through the backend registry
(:func:`repro.runtime.resolve_backend`) and every grid is declared as a
:class:`repro.runtime.SweepPlan` and executed by the shared
:class:`repro.runtime.Session` (:meth:`repro.runtime.Session.from_env`) —
parallel across worker processes and memoized in the on-disk result cache.
Environment knobs:

- ``REPRO_SWEEP_WORKERS`` — worker process count (default: CPU count);
- ``REPRO_NO_CACHE``      — any non-empty value disables the disk cache;
- ``REPRO_CACHE_DIR``     — cache location (default ``~/.cache/repro``).

The paper's absolute cycle counts come from full-size layers on MacSim; our
default sweeps run the same layers *scaled down* (every GEMM dimension
divided by ``scale``) because normalized runtimes converge quickly with
size — the steady-state initiation interval dominates — which a dedicated
convergence test verifies.  Pass ``scale=1`` for full-size runs.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Dict

from repro.cpu.config import CoreConfig
from repro.cpu.result import SimResult
from repro.engine.designs import DESIGNS
from repro.errors import ExperimentError
from repro.runtime.plan import SweepJob, SweepPlan
from repro.runtime.session import Session, run_job
from repro.utils.tables import geometric_mean as geometric_mean  # re-exported
from repro.workloads.codegen import CodegenOptions
from repro.workloads.gemm import GemmShape
from repro.workloads.layers import table1_gemms


@dataclasses.dataclass(frozen=True)
class ExperimentSettings:
    """Shared knobs for every sweep.

    ``core`` and ``codegen`` use ``default_factory`` so no single shared
    instance leaks across settings objects; all three fields are frozen
    dataclasses, keeping settings hashable — they feed both the in-process
    memoization below and the runtime layer's persistent cache keys.
    """

    scale: int = 4
    core: CoreConfig = dataclasses.field(default_factory=CoreConfig)
    codegen: CodegenOptions = dataclasses.field(default_factory=CodegenOptions)


DEFAULT_SETTINGS = ExperimentSettings()


def workload_shapes(settings: ExperimentSettings = DEFAULT_SETTINGS) -> Dict[str, GemmShape]:
    """The nine Table I GEMMs at the settings' scale."""
    return {
        name: shape.scaled(settings.scale) for name, shape in table1_gemms().items()
    }


def run_design(
    design_key: str,
    shape: GemmShape,
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    fidelity: str = "fast",
) -> SimResult:
    """Generate the stream for ``shape`` and simulate it on one design.

    One :class:`SweepJob` through :func:`repro.runtime.session.run_job`, so
    shape-level fidelities (``analytic``) skip generation entirely.
    """
    return run_job(SweepJob(
        design_key=design_key,
        shape=shape,
        core=settings.core,
        codegen=settings.codegen,
        fidelity=fidelity,
    ))


@functools.lru_cache(maxsize=8)
def runtime_sweep(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
) -> Dict[str, Dict[str, SimResult]]:
    """Run every design on every Table I workload (the Fig. 5 grid).

    Declares the grid as a :class:`SweepPlan` and runs it through
    :meth:`Session.from_env` — parallel workers plus the persistent result
    cache — and memoizes in-process on top: Fig. 6 and the energy
    table reuse the same grid without a second lookup pass.

    Returns ``results[workload_name][design_key]``.
    """
    plan = SweepPlan(
        designs=tuple(DESIGNS),
        workloads=tuple(workload_shapes(settings).items()),
        core=settings.core,
        codegen=settings.codegen,
    )
    return Session.from_env().run(plan).grid()


def normalized_runtimes(
    results: Dict[str, Dict[str, SimResult]],
    baseline_key: str = "baseline",
) -> Dict[str, Dict[str, float]]:
    """Normalize each design's cycles to the baseline, per workload.

    An empty grid yields an empty table; a workload row lacking
    ``baseline_key`` raises :class:`ExperimentError` (not ``KeyError``) so
    callers see which row was malformed.
    """
    table: Dict[str, Dict[str, float]] = {}
    for workload, per_design in results.items():
        try:
            base = per_design[baseline_key]
        except KeyError:
            raise ExperimentError(
                f"workload {workload!r} has no baseline design "
                f"{baseline_key!r}; present: {', '.join(per_design) or 'none'}"
            ) from None
        table[workload] = {
            key: result.normalized_to(base) for key, result in per_design.items()
        }
    return table
