"""Sessions: the one execution facade behind every sweep.

A :class:`Session` owns the three resources a sweep needs — the persistent
:class:`repro.runtime.cache.ResultCache`, backend resolution through the
fidelity registry, and the ``multiprocessing`` worker pool — and exposes a
single entry point: :meth:`Session.run` takes a declarative
:class:`repro.runtime.plan.SweepPlan` and returns a
:class:`repro.runtime.plan.SweepReport`.

Execution layers three accelerations on top of the backend registry:

1. **memoization** — each distinct point's cache key is looked up in the
   result cache first; only misses simulate, and every fresh result is
   written back;
2. **deduplication** — points are identified by their cache key, which is
   *label-independent* and keyed on tile-*padded* dims (see
   :mod:`repro.runtime.cache`): within one run, every distinct
   (design, padded dims, core, codegen, fidelity) point simulates
   **exactly once**, no matter how many plan jobs map onto it.  Full-model
   suites lean on this hard — BERT-base's 72 per-layer GEMMs are 3
   distinct points — and batch axes lean on the padding: batches 1..16 of
   an FC layer are one point;
3. **parallelism** — misses fan out over a ``multiprocessing`` pool
   (``fork`` start method where available, so workers inherit the warm
   per-process program cache).  The pool is created lazily and *persists
   across* ``run()`` calls — multi-plan sessions pay the fork cost once —
   and tasks submit in computed chunks rather than one IPC round trip per
   job.  ``workers=1`` — or a single-CPU host — degrades to plain serial
   execution in-process, with bit-identical results: jobs are independent
   deterministic simulations.

Write-back is **crash-safe**: results stream back from the pool
*unordered*, and each is appended to the cache's on-disk log the moment
it completes, before the next one is taken — a job that raises, or a
sweep that is SIGKILLed, loses only the genuinely unfinished work, never
a point that already completed, regardless of submission order.  The
``finally`` block only closes the log.  (A worker *process* that dies
outright — OOM kill, segfault — is a ``multiprocessing.Pool`` limitation:
that one task's result never arrives, so the run eventually blocks until
interrupted; every completed point is already on disk by then.)

Sharded plans (:meth:`repro.runtime.plan.SweepPlan.shard`) run only the
distinct keys the shard owns; the partial reports merge bit-identically
into the unsharded result (:meth:`repro.runtime.plan.SweepReport.merge`),
which is what lets one plan fan out across hosts.

Program generation is itself memoized per process keyed on the *unlabeled*
``(shape, codegen)`` (bounded by :data:`PROGRAM_CACHE_SIZE`): the usual
grid runs every design on the same programs, so each worker lowers each
distinct GEMM only once.  Lowering builds the program's structure-of-arrays
decode directly and defers its ``Instruction`` objects to the first
iteration (see :mod:`repro.workloads.codegen`): a cold ``fast`` sweep
builds none, while fidelities that walk objects (``fast-ref``, ``ooo``,
``engine``) build them once per memoized program.
"""

from __future__ import annotations

import functools
import os
from typing import TYPE_CHECKING, Callable, Dict, Iterable, Iterator, Optional, Sequence

from repro.cpu.result import SimResult
from repro.errors import ExperimentError, VerificationError
from repro.isa.program import Program
from repro.runtime.cache import ResultCache
from repro.runtime.plan import SweepJob, SweepPlan, SweepReport
from repro.runtime.registry import resolve_backend
from repro.workloads.codegen import CodegenOptions, generate_gemm_program
from repro.workloads.gemm import GemmShape

if TYPE_CHECKING:
    import multiprocessing
    import multiprocessing.pool

#: Bound of the per-process program memo.  32 thrashed on full-model suites
#: (ResNet-50 alone lowers 53 shapes); 256 holds every catalog in the
#: repository simultaneously with room for ad-hoc shapes.
PROGRAM_CACHE_SIZE = 256


@functools.lru_cache(maxsize=PROGRAM_CACHE_SIZE)
def _unlabeled_program(shape: GemmShape, codegen: CodegenOptions) -> Program:
    return generate_gemm_program(shape, codegen)


def cached_program(shape: GemmShape, codegen: CodegenOptions) -> Program:
    """Per-process program cache: every design reuses one lowered stream.

    Memoized on the *unlabeled* shape — a GEMM's display name never changes
    the generated stream, so BERT's 48 identically-shaped projections share
    one lowering.  Introspect/reset via ``cached_program.cache_info()`` /
    ``cached_program.cache_clear()``.
    """
    return _unlabeled_program(shape.unlabeled(), codegen)


cached_program.cache_info = _unlabeled_program.cache_info  # type: ignore[attr-defined]
cached_program.cache_clear = _unlabeled_program.cache_clear  # type: ignore[attr-defined]


def run_job(job: SweepJob) -> SimResult:
    """Simulate one job: the one shape-vs-program dispatch.

    Shape-level backends (``run_shape``, e.g. the analytic fidelity) skip
    program generation entirely — no lowering, no instruction walk; the
    program-based fidelities go through the per-process program memo.
    Top-level so worker processes can unpickle it.
    """
    backend = resolve_backend(job.design_key, fidelity=job.fidelity, core=job.core)
    run_shape = getattr(backend, "run_shape", None)
    if run_shape is not None:
        return run_shape(job.shape, job.codegen)
    program = cached_program(job.shape, job.codegen)
    return backend.prepare(program).run()


def _execute_indexed(item: "tuple[int, SweepJob]") -> "tuple[int, SimResult]":
    """Pool task keeping the submission index with its result.

    Results stream back *unordered* (see :meth:`Session._simulate`) so a
    slow or dying job cannot withhold completed later results from the
    cache; the index maps each arrival back to its key.
    """
    index, job = item
    return index, run_job(job)


def _owned_distinct_jobs(plan: SweepPlan) -> Dict[str, SweepJob]:
    """The first job per distinct key, limited to the keys the shard owns.

    First-occurrence order.
    """
    jobs = plan.expanded_jobs()  # one expansion, one hash per distinct point, ever
    keys = plan.job_keys()
    distinct: Dict[str, SweepJob] = {}
    for key, job in zip(keys, jobs):
        if key not in distinct:
            distinct[key] = job
    if plan.shard_spec is not None:
        owned = set(plan.shard_keys())  # the partition's single source
        distinct = {k: j for k, j in distinct.items() if k in owned}
    return distinct


def _pool_context() -> multiprocessing.context.BaseContext:
    """Prefer ``fork`` (cheap, inherits warm caches); fall back otherwise.

    Only a parallel fan-out needs a pool, so ``multiprocessing`` loads here:
    serial runs (``workers=1``) never import it.
    """
    import multiprocessing

    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else None)


def _env_workers() -> Optional[int]:
    """Parse ``REPRO_SWEEP_WORKERS`` (``None`` when unset)."""
    env = os.environ.get("REPRO_SWEEP_WORKERS")
    if not env:
        return None
    try:
        workers = int(env)
    except ValueError:
        raise ExperimentError(
            f"REPRO_SWEEP_WORKERS must be an integer worker count, got {env!r}"
        ) from None
    if workers < 1:
        raise ExperimentError(
            "REPRO_SWEEP_WORKERS must be a positive worker count, got "
            f"{env!r}; use 1 for serial execution or unset it for the "
            "CPU-count default"
        )
    return workers


class Session:
    """Run :class:`SweepPlan`\\ s: cache, backend registry, worker pool.

    Args:
        cache: a :class:`ResultCache` for persistent memoization, or
            ``None`` to always simulate.
        workers: worker process count for cache misses; defaults to the
            CPU count.  ``1`` forces serial in-process execution; zero or
            negative counts are rejected with :class:`ExperimentError`
            rather than silently degrading to serial.
        verify: statically lint each distinct program through
            :func:`repro.analysis.verifier.lint_shape` before anything
            simulates, raising :class:`repro.errors.VerificationError` on
            any diagnostic.  Each program identity (tile-padded unlabeled
            shape + codegen options — at most one lint per cache key) is
            verified once per session, so repeated ``run()`` calls and
            multi-design grids pay the pass once per distinct stream.
    """

    def __init__(
        self,
        cache: Optional[ResultCache] = None,
        workers: Optional[int] = None,
        verify: bool = False,
    ) -> None:
        self.cache = cache
        if workers is None:
            workers = os.cpu_count() or 1
        if not isinstance(workers, int) or isinstance(workers, bool) or workers < 1:
            raise ExperimentError(
                f"workers must be a positive integer, got {workers!r}; "
                "use workers=1 for serial execution"
            )
        self.workers = workers
        self.verify = verify
        # Lazily created, persists across run() calls.
        self._pool: Optional[multiprocessing.pool.Pool] = None
        self._verified: "set[tuple[GemmShape, CodegenOptions]]" = set()

    @classmethod
    def from_env(cls) -> "Session":
        """The session the experiment drivers share, read from the environment.

        Environment knobs:

        - ``REPRO_SWEEP_WORKERS`` — worker count (default: CPU count);
        - ``REPRO_NO_CACHE``      — any non-empty value disables the cache;
        - ``REPRO_CACHE_DIR``     — cache location (default ``~/.cache/repro``).
        """
        cache = None if os.environ.get("REPRO_NO_CACHE") else ResultCache()
        return cls(cache=cache, workers=_env_workers())

    # -- execution -----------------------------------------------------------------

    def run(
        self,
        plan: SweepPlan,
        progress: Optional[Callable[[int, int], None]] = None,
    ) -> SweepReport:
        """Execute a plan (or the shard of it the plan owns).

        Keys (canonical-JSON SHA-256s) are computed once per distinct
        (design, tile-padded shape) point of the plan, never per job;
        dedup, the cache lookup, the shard filter, the miss write-back and
        the report's positional views all reuse the plan's memoized keys.
        Results completed before a mid-run crash or kill are already on
        disk — each is appended to the cache's log as it arrives, and the
        ``finally`` only closes the log.

        Args:
            plan: the declarative sweep description.
            progress: optional ``(completed, total)`` callback over the
                run's *distinct* points — called once after the cache scan
                and once per simulated result, from this thread.  The
                service worker forwards it into heartbeat payloads so a
                nearly-done shard is visible before a reaper requeue.
        """
        distinct = _owned_distinct_jobs(plan)
        if self.verify:
            self._verify_jobs(distinct.values())
        results: Dict[str, SimResult] = {}
        misses: Dict[str, SweepJob] = {}
        for key, job in distinct.items():
            cached = self.cache.get(key) if self.cache is not None else None
            if cached is not None:
                results[key] = cached
            else:
                misses[key] = job
        miss_keys = list(misses)
        total = len(distinct)
        completed = len(results)
        if progress is not None:
            progress(completed, total)
        try:
            for index, result in self._simulate(list(misses.values())):
                results[miss_keys[index]] = result
                if self.cache is not None:
                    self.cache.put(miss_keys[index], result)
                completed += 1
                if progress is not None:
                    progress(completed, total)
        finally:
            if self.cache is not None:
                self.cache.flush()
        return SweepReport(
            plan=plan,
            results=results,
            simulated=len(misses),
            cache_hits=len(distinct) - len(misses),
        )

    def _verify_jobs(self, jobs: "Iterable[SweepJob]") -> None:
        """Lint every distinct program before simulation (``verify=True``).

        Diagnostics are design-independent — the stream is a function of
        (shape, codegen) only — so the lint memoizes on the tile-padded
        unlabeled program identity: a grid of 8 designs over one GEMM
        verifies once, and sessions running many plans never re-lint a
        stream they already proved clean.  Shape-level (analytic) jobs are
        linted too: the whole point is checking the program whose
        skeleton they walk.
        """
        from repro.analysis import verifier  # deferred: pulls in codegen + engine

        for job in jobs:
            identity = (job.shape.tile_padded(), job.codegen)
            if identity in self._verified:
                continue
            report = verifier.lint_shape(job.shape, job.codegen)
            if report.diagnostics:
                shown = "; ".join(str(d) for d in report.diagnostics[:3])
                more = len(report.diagnostics) - 3
                raise VerificationError(
                    f"program for {job.shape} failed static verification "
                    f"with {len(report.diagnostics)} diagnostic(s): {shown}"
                    + (f"; +{more} more" if more > 0 else "")
                )
            self._verified.add(identity)

    def _simulate(
        self, jobs: Sequence[SweepJob]
    ) -> Iterator["tuple[int, SimResult]"]:
        """Yield ``(submission index, result)`` pairs as jobs complete.

        Parallel runs stream **unordered** (``imap_unordered``, one task
        per job): every finished result reaches the caller — and the
        cache — immediately, so a slow, failed, or killed job never
        withholds the points that already completed.
        """
        if not jobs:
            return
        if self.workers <= 1 or len(jobs) == 1:
            for index, job in enumerate(jobs):
                yield index, run_job(job)
            return
        # Batch IPC: one task per job was one pickled round trip per point,
        # which dominated wall time once the analytic tier made the points
        # themselves cheap.  Chunks of jobs/(workers*4) keep every worker
        # busy (4 chunks each smooths uneven chunk durations) while cutting
        # round trips by the chunk size.
        chunksize = max(1, len(jobs) // (self.workers * 4))
        yield from self._get_pool().imap_unordered(
            _execute_indexed, enumerate(jobs), chunksize=chunksize
        )

    # -- worker-pool lifecycle -------------------------------------------------------

    def _get_pool(self) -> multiprocessing.pool.Pool:
        """The persistent worker pool, created on first parallel fan-out.

        Spawning a ``multiprocessing.Pool`` costs tens of milliseconds plus
        a fork per worker; sessions that run many plans (sweep suites, the
        benchmark harness, notebook loops) previously paid it per ``run()``
        call.  The pool now lives until :meth:`close`.  Workers inherit the
        process state (the ``FIDELITIES`` map, program memo) from
        pool-creation time — add an entry to ``FIDELITIES`` before the first
        parallel run.
        """
        if self._pool is None:
            self._pool = _pool_context().Pool(processes=self.workers)
        return self._pool

    def close(self) -> None:
        """Shut down the worker pool (idempotent; the pool respawns on use)."""
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __del__(self) -> None:
        try:
            self.close()
        except Exception:
            pass  # interpreter teardown; the pool's own finalizer handles it
