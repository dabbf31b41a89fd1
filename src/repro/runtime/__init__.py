"""``repro.runtime`` — the unified execution layer.

Every simulation in the repository — engine-bound, in-order fast-model, or
cycle-accurate OoO — runs through this subsystem:

- :mod:`repro.runtime.backend` defines the :class:`SimBackend` protocol
  (``prepare(program)`` then ``run()`` -> :class:`repro.cpu.result.SimResult`)
  and the three adapters wrapping :class:`repro.engine.engine.MatrixEngine`,
  :class:`repro.cpu.fast.FastCoreModel` and
  :class:`repro.cpu.ooo.core.OutOfOrderCore`;
- :mod:`repro.runtime.registry` maps (design key x fidelity) to a ready
  backend in one lookup (:func:`resolve_backend`);
- :mod:`repro.runtime.cache` persists :class:`SimResult`s in an on-disk
  JSON store keyed by a stable, *label-independent* hash of the full
  simulation input (bump :data:`CODE_VERSION` on timing or key-schema
  changes — version 2 dropped display labels from keys, version 3 keys
  shapes by their tile-padded dimensions);
- :mod:`repro.runtime.plan` declares sweeps: a frozen, serializable
  :class:`SweepPlan` (designs x workloads/suites x batches x knobs x
  fidelity) that expands lazily to dedup-keyed :class:`SweepJob`\\ s,
  shards deterministically (:meth:`SweepPlan.shard`), and round-trips
  through canonical JSON; results come back as a :class:`SweepReport`
  with typed views (``grid()``, ``suite_totals()``, ``batch_curves()``)
  and bit-identical shard merging;
- :mod:`repro.runtime.session` executes plans: a :class:`Session` owns
  the result cache, backend resolution and the ``multiprocessing`` pool,
  and exposes the single entry point ``session.run(plan)`` with
  crash-safe streaming write-back; :func:`run_job` is the one
  shape-vs-program dispatch every simulated point goes through.

(The deprecated ``SweepRunner.run_*`` shim family is gone: every driver,
bench and test declares a :class:`SweepPlan` and runs it through a
:class:`Session` — see the README migration table.)

The experiment drivers (:mod:`repro.experiments`), the CLI (``repro
sweep`` / ``repro plan``) and the benchmark suite are all thin clients of
this layer; future scaling work (multi-host sharding, async serving, new
backends) plugs in here.
"""

from repro.runtime.backend import (
    AnalyticBackend,
    EngineBackend,
    FastCoreBackend,
    OoOCoreBackend,
    ShapeBackend,
    SimBackend,
)
from repro.runtime.cache import CODE_VERSION, ResultCache, cache_key
from repro.runtime.plan import (
    PLAN_FORMAT,
    SuiteBatchCurve,
    SuiteTotals,
    SweepJob,
    SweepPlan,
    SweepReport,
)
from repro.runtime.registry import (
    FIDELITIES,
    register_backend,
    resolve_backend,
)
from repro.runtime.session import PROGRAM_CACHE_SIZE, Session, cached_program, run_job

__all__ = [
    "SimBackend",
    "ShapeBackend",
    "AnalyticBackend",
    "EngineBackend",
    "FastCoreBackend",
    "OoOCoreBackend",
    "FIDELITIES",
    "register_backend",
    "resolve_backend",
    "ResultCache",
    "cache_key",
    "CODE_VERSION",
    "PLAN_FORMAT",
    "SweepJob",
    "SweepPlan",
    "SweepReport",
    "Session",
    "SuiteTotals",
    "SuiteBatchCurve",
    "PROGRAM_CACHE_SIZE",
    "cached_program",
    "run_job",
]
