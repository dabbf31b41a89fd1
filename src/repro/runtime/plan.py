"""Declarative sweep plans: one serializable value describes a whole sweep.

A :class:`SweepPlan` declares the full cross-product a sweep covers —
design keys, named GEMM workloads and/or model suites, an optional batch
axis, the core/codegen/scale knobs and the simulation fidelity — as one
frozen value.  Nothing executes at construction: :meth:`SweepPlan.iter_jobs`
expands the declaration lazily into dedup-keyed :class:`SweepJob`\\ s, and a
:class:`repro.runtime.session.Session` turns a plan into a
:class:`SweepReport`.

Because a plan is a value, it composes the ways values do:

- **serialization** — :meth:`SweepPlan.to_json` renders the plan as
  canonical JSON (sorted keys, compact separators) through the runtime's
  one codec (:mod:`repro.runtime.cache`), and :func:`SweepPlan.from_json`
  reconstructs an equal plan, so plans travel between processes and hosts;
- **sharding** — :meth:`SweepPlan.shard` marks a deterministic partition
  of the plan's *distinct cache keys*: shard ``i`` of ``n`` owns every
  ``sorted(keys)[i::n]`` point.  Shards are disjoint and exhaustive, each
  runs independently (on another host, say), and
  :meth:`SweepReport.merge` reassembles results that are bit-identical
  to an unsharded run;
- **inspection** — job counts, distinct points and the dedup factor are
  all derivable before anything simulates.

The report type at the other end replaces the old ``run_*`` return-shape
zoo: :meth:`SweepReport.grid` is the (workload x design) table,
:meth:`SweepReport.suite_totals` the occurrence-weighted
:class:`SuiteTotals` per (suite, design), and
:meth:`SweepReport.batch_curves` the per-batch :class:`SuiteBatchCurve`
view.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.cpu.config import CoreConfig
from repro.cpu.result import SimResult
from repro.engine.designs import get_design
from repro.errors import ExperimentError
from repro.runtime.cache import cache_key, decode, encode, key_fragment, key_hasher
from repro.runtime.registry import FIDELITIES
from repro.workloads.codegen import CodegenOptions
from repro.workloads.gemm import GemmShape
from repro.workloads.ops import DEFAULT_LOWERING, LoweringConfig
from repro.workloads.suites import SUITES, DistinctGemm, SuiteSpec, WorkloadSuite

#: Bump when the plan/report JSON schema changes incompatibly.
PLAN_FORMAT = 2


def _check_settings(core: object, codegen: object) -> None:
    """Refuse a ``core``/``codegen`` of the wrong type (plans and jobs alike)."""
    if not isinstance(core, CoreConfig):
        raise ExperimentError(f"core must be a CoreConfig, got {core!r}")
    if not isinstance(codegen, CodegenOptions):
        raise ExperimentError(f"codegen must be a CodegenOptions, got {codegen!r}")


@dataclasses.dataclass(frozen=True)
class SweepJob:
    """One simulation of the grid: design x shape under shared settings."""

    design_key: str
    shape: GemmShape
    workload: str = ""
    core: CoreConfig = dataclasses.field(default_factory=CoreConfig)
    codegen: CodegenOptions = dataclasses.field(default_factory=CodegenOptions)
    fidelity: str = "fast"

    def __post_init__(self) -> None:
        # Keys render these fields as they are: a stray None would key one
        # point twice, or fail only when the key is first computed.
        _check_settings(self.core, self.codegen)

    @property
    def key(self) -> str:
        """The job's stable cache key."""
        return cache_key(
            self.design_key, self.shape, self.core, self.codegen, self.fidelity
        )


@dataclasses.dataclass(frozen=True)
class SuiteTotals:
    """Occurrence-weighted end-to-end totals of one suite on one design.

    ``per_shape`` keeps the distinct points behind the aggregate as
    ``(representative shape, occurrence count, result)`` triples, so
    downstream consumers (energy models, reports) can re-weight without
    re-simulating.  ``cycles``/``instructions``/``mm_count``/
    ``bypass_count``/``weight_loads`` are the multiset-weighted sums —
    i.e. what a back-to-back run of every suite GEMM would accumulate.
    """

    suite: str
    design_key: str
    gemm_count: int      # suite GEMMs, duplicates included
    simulations: int     # distinct points actually simulated
    cycles: int
    instructions: int
    mm_count: int
    bypass_count: int
    weight_loads: int
    per_shape: Tuple[Tuple[GemmShape, int, SimResult], ...]

    @property
    def dedup_factor(self) -> float:
        """How many per-layer simulations each distinct point stood in for."""
        return self.gemm_count / self.simulations if self.simulations else 0.0

    def normalized_to(self, baseline: "SuiteTotals") -> float:
        """End-to-end runtime normalized to a baseline suite run.

        Raises :class:`ExperimentError` when the baseline ran in zero
        cycles — a silent 0.0 here would read as "infinitely fast".
        """
        if baseline.cycles == 0:
            raise ExperimentError(
                f"cannot normalize suite {self.suite!r}: baseline suite "
                f"{baseline.suite!r} on design {baseline.design_key!r} "
                "ran in zero cycles"
            )
        return self.cycles / baseline.cycles

    def speedup_over(self, baseline: "SuiteTotals") -> float:
        """End-to-end speedup over a baseline suite run (>1 is faster).

        Raises :class:`ExperimentError` when this suite ran in zero
        cycles — a silent 0.0 here would read as "no speedup at all".
        """
        if self.cycles == 0:
            raise ExperimentError(
                f"cannot compute speedup: suite {self.suite!r} on design "
                f"{self.design_key!r} ran in zero cycles"
            )
        return baseline.cycles / self.cycles


@dataclasses.dataclass(frozen=True)
class SuiteBatchCurve:
    """One suite's end-to-end totals along the batch axis, on one design.

    ``totals[i]`` are the occurrence-weighted :class:`SuiteTotals` of the
    suite rebuilt at ``batches[i]``.  Batches whose rebuilt shapes lower
    to streams already simulated at another batch (sub-tile batches, or
    batches the suite's geometry maps onto the same padded dims) share
    results — the curve stores the expanded per-batch view regardless, so
    every point is directly comparable to a standalone single-batch suite
    sweep.
    """

    suite: str
    design_key: str
    batches: Tuple[int, ...]
    totals: Tuple[SuiteTotals, ...]

    def __post_init__(self) -> None:
        if len(self.batches) != len(self.totals):
            raise ExperimentError(
                f"suite {self.suite!r} curve has {len(self.batches)} batches "
                f"but {len(self.totals)} totals"
            )

    def totals_by_batch(self) -> Dict[int, SuiteTotals]:
        """``{batch: totals}`` — the mapping view of the curve."""
        return dict(zip(self.batches, self.totals))

    def normalized_to(self, baseline: "SuiteBatchCurve") -> Dict[int, float]:
        """Per-batch normalized runtime against a baseline design's curve.

        This is the Fig. 7 y-axis at suite granularity: each batch's
        end-to-end cycles divided by the baseline design's cycles *at the
        same batch*.
        """
        if baseline.batches != self.batches:
            raise ExperimentError(
                f"cannot normalize suite {self.suite!r}: curve batches "
                f"{self.batches} do not match baseline batches "
                f"{baseline.batches}"
            )
        return {
            batch: mine.normalized_to(theirs)
            for batch, mine, theirs in zip(
                self.batches, self.totals, baseline.totals
            )
        }


def _validated_batches(batches: Sequence[int]) -> Tuple[int, ...]:
    """Check a batch axis: non-empty, positive integers, no duplicates."""
    batches = tuple(batches)
    if not batches:
        raise ExperimentError("a suite batch sweep needs at least one batch size")
    for batch in batches:
        if not isinstance(batch, int) or isinstance(batch, bool) or batch < 1:
            raise ExperimentError(
                f"batch sizes must be positive integers, got {batch!r}"
            )
    duplicates = sorted({b for b in batches if batches.count(b) > 1})
    if duplicates:
        raise ExperimentError(
            "suite batch curves are keyed by batch size; got duplicates: "
            f"{', '.join(str(b) for b in duplicates)}"
        )
    return batches


def _workload_entry(entry: Any) -> Tuple[str, GemmShape]:
    """One ``(name, GemmShape)`` workload entry, its name as a string."""
    if not isinstance(entry, (tuple, list)) or len(entry) != 2:
        raise ExperimentError(
            f"workload entries must be (name, GemmShape) pairs, got {entry!r}"
        )
    name, shape = entry
    if not isinstance(shape, GemmShape):
        raise ExperimentError(f"workload {name!r} must be a GemmShape, got {shape!r}")
    return str(name), shape


def _resolve_spec(name: str) -> SuiteSpec:
    """Look up a registered suite by name."""
    spec = SUITES.get(name) if isinstance(name, str) else None
    if spec is None:
        raise ExperimentError(
            f"unknown workload suite {name!r}; known: {', '.join(SUITES)}"
        )
    return spec


def _expand_totals(
    suite: WorkloadSuite,
    design: str,
    entries: Sequence,
    results: Iterator[SimResult],
) -> SuiteTotals:
    """Re-weight one design's distinct-point results into suite totals.

    Consumes exactly ``len(entries)`` results from ``results`` — callers
    iterate a flat result stream in job-submission order.
    """
    per_shape = tuple(
        (entry.shape, entry.count, next(results)) for entry in entries
    )
    return SuiteTotals(
        suite=suite.name,
        design_key=design,
        gemm_count=len(suite),
        simulations=len(entries),
        cycles=sum(c * r.cycles for _, c, r in per_shape),
        instructions=sum(c * r.instructions for _, c, r in per_shape),
        mm_count=sum(c * r.mm_count for _, c, r in per_shape),
        bypass_count=sum(c * r.bypass_count for _, c, r in per_shape),
        weight_loads=sum(c * r.weight_loads for _, c, r in per_shape),
        per_shape=per_shape,
    )


def _duplicates(names: Sequence[str]) -> List[str]:
    return sorted({n for n in names if names.count(n) > 1})


@dataclasses.dataclass(frozen=True)
class SweepPlan:
    """A frozen, declarative description of one sweep.

    The cross-product it declares:

    - ``designs`` x ``workloads`` — the classic (workload x design) grid
      (``workloads`` maps display names to :class:`GemmShape`\\ s);
    - ``designs`` x ``suites`` [x ``batches``] — whole-model multisets,
      named by their :data:`repro.workloads.suites.SUITES` registry keys
      and optionally swept along a batch axis.

    ``core``/``codegen``/``fidelity`` apply to every declared point;
    ``scale`` shrinks suite GEMMs exactly like
    :meth:`repro.workloads.suites.SuiteSpec.build` and named workload
    shapes via :meth:`repro.workloads.gemm.GemmShape.scaled` (same
    floors), so plans serialize the *unscaled* declaration; ``batch`` is a
    single streamed-rows override, ``batches`` the sweep axis (mutually
    exclusive).  ``scale_batch``/``scale_spatial`` are the dimension-
    role-aware lowering knobs (:class:`repro.workloads.ops.LoweringConfig`)
    — they apply at op lowering, before the generic ``scale``, and only to
    suites.  ``shard_spec`` marks the plan as one deterministic slice of
    the full key set — see :meth:`shard`.

    Plans validate eagerly — unknown designs, workload entries that are
    not ``(name, GemmShape)`` pairs, unknown suites, unknown fidelities,
    bad batches and bad shards all raise at construction — and expand
    lazily (:meth:`iter_jobs`).  A fidelity must be a key of
    :data:`repro.runtime.registry.FIDELITIES`, so a plan no backend can run
    is refused before anything is enqueued or scanned, not when a worker
    first simulates.
    """

    designs: Tuple[str, ...] = ()
    workloads: Tuple[Tuple[str, GemmShape], ...] = ()
    suites: Tuple[str, ...] = ()
    batches: Optional[Tuple[int, ...]] = None
    batch: Optional[int] = None
    scale: int = 1
    scale_batch: int = 1
    scale_spatial: int = 1
    core: CoreConfig = dataclasses.field(default_factory=CoreConfig)
    codegen: CodegenOptions = dataclasses.field(default_factory=CodegenOptions)
    fidelity: str = "fast"
    shard_spec: Optional[Tuple[int, int]] = None

    # -- construction-time normalization + validation ------------------------------

    def __post_init__(self) -> None:
        object.__setattr__(self, "designs", tuple(self.designs))
        workloads = self.workloads
        if isinstance(workloads, Mapping):
            workloads = tuple(workloads.items())
        object.__setattr__(
            self, "workloads", tuple(_workload_entry(entry) for entry in workloads)
        )
        object.__setattr__(self, "suites", tuple(self.suites))
        if self.batches is not None:
            object.__setattr__(self, "batches", _validated_batches(self.batches))
        self._validate()

    def _validate(self) -> None:
        if not (self.workloads or self.suites):
            raise ExperimentError(
                "plan declares no work: give it workloads or suites"
            )
        if not self.designs:
            raise ExperimentError(
                "a plan with workloads or suites needs at least one design key"
            )
        for key in self.designs:
            get_design(key)  # raises ConfigError naming the known designs
        dup = _duplicates(self.designs)
        if dup:
            raise ExperimentError(
                f"plan designs must be unique; got duplicates: {', '.join(dup)}"
            )
        dup = _duplicates([name for name, _ in self.workloads])
        if dup:
            raise ExperimentError(
                "plan workloads are keyed by name; got duplicates: "
                f"{', '.join(dup)}"
            )
        for name in self.suites:
            _resolve_spec(name)  # unknown names raise here
        dup = _duplicates(self.suites)
        if dup:
            raise ExperimentError(
                "plan totals are keyed by suite name; got duplicates: "
                f"{', '.join(dup)}"
            )
        if self.batch is not None and self.batches is not None:
            raise ExperimentError(
                "batch (a single override) and batches (a sweep axis) are "
                "mutually exclusive"
            )
        if self.batch is not None and (
            not isinstance(self.batch, int)
            or isinstance(self.batch, bool)
            or self.batch < 1
        ):
            raise ExperimentError(
                f"batch must be a positive integer, got {self.batch!r}"
            )
        if (self.batch is not None or self.batches is not None) and not self.suites:
            raise ExperimentError(
                "batch/batches apply to suite workloads; the plan has no suites"
            )
        for knob in ("scale", "scale_batch", "scale_spatial"):
            value = getattr(self, knob)
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise ExperimentError(
                    f"{knob} must be a positive integer, got {value!r}"
                )
        if (self.scale_batch != 1 or self.scale_spatial != 1) and not self.suites:
            raise ExperimentError(
                "scale_batch/scale_spatial are dimension-role-aware "
                "lowering knobs; they apply to suite workloads only"
            )
        _check_settings(self.core, self.codegen)
        if not isinstance(self.fidelity, str) or self.fidelity not in FIDELITIES:
            raise ExperimentError(
                f"unknown fidelity {self.fidelity!r}; registered: "
                f"{', '.join(FIDELITIES)}"
            )
        if self.shard_spec is not None:
            object.__setattr__(
                self, "shard_spec", _validated_shard(self.shard_spec)
            )

    # -- lazy expansion ------------------------------------------------------------

    def built_suites(self) -> List[Tuple[WorkloadSuite, Optional[int]]]:
        """Every (built suite, batch) point of the suite axes, in job order.

        Without a batch axis this is one entry per suite (``batch`` is the
        plan-level override or ``None``); with one, it is the suite rebuilt
        at every batch — ``len(suites) * len(batches)`` entries, suite-major
        like :meth:`iter_jobs`.  Memoized per plan instance: the executor,
        every report view, and the CLI stats all share one build.
        """
        cached = self.__dict__.get("_built_suites")
        if cached is not None:
            return cached
        lowering = self.lowering_config()
        batches = (self.batch,) if self.batches is None else self.batches
        built = [
            (_resolve_spec(name).build(batch=batch, scale=self.scale,
                                       lowering=lowering), batch)
            for name in self.suites
            for batch in batches
        ]
        object.__setattr__(self, "_built_suites", built)
        return built

    def suite_entries(self) -> List[Tuple[WorkloadSuite, Optional[int], List[DistinctGemm]]]:
        """:meth:`built_suites` with each suite's ``distinct()`` entries, once per plan."""
        cached = self.__dict__.get("_suite_entries")
        if cached is None:
            cached = [(suite, batch, suite.distinct()) for suite, batch in self.built_suites()]
            object.__setattr__(self, "_suite_entries", cached)
        return cached

    def lowering_config(self) -> LoweringConfig:
        """The plan's role-aware lowering knobs as one config value."""
        if self.scale_batch == 1 and self.scale_spatial == 1:
            return DEFAULT_LOWERING
        return LoweringConfig(
            scale_batch=self.scale_batch, scale_spatial=self.scale_spatial
        )

    def iter_jobs(self) -> Iterator[SweepJob]:
        """Lazily expand the declaration into the flat job stream.

        Order is part of the contract (views consume results positionally):
        the workload grid first (workload-major), then the suite axes —
        suite-major, batch-major within a suite, design-major within a
        batch, distinct entries innermost.
        """
        for name, shape in self.workloads:
            scaled = shape.scaled(self.scale)
            for design in self.designs:
                yield SweepJob(
                    design_key=design,
                    shape=scaled,
                    workload=name,
                    core=self.core,
                    codegen=self.codegen,
                    fidelity=self.fidelity,
                )
        for suite, batch, entries in self.suite_entries():
            label = "" if batch is None else f"@b{batch}"
            for design in self.designs:
                for entry in entries:
                    yield SweepJob(
                        design_key=design,
                        shape=entry.shape,
                        workload=f"{entry.shape.name}{label}",
                        core=self.core,
                        codegen=self.codegen,
                        fidelity=self.fidelity,
                    )

    def job_count(self) -> int:
        """Total declared jobs, duplicates included (the pre-dedup count)."""
        return len(self.job_keys())

    def expanded_jobs(self) -> Tuple[SweepJob, ...]:
        """The full job stream, materialized once per plan instance.

        :meth:`iter_jobs` rebuilds every suite on each pass; the executor
        and the key memo below share this single expansion instead.
        """
        cached = self.__dict__.get("_expanded_jobs")
        if cached is None:
            cached = tuple(self.iter_jobs())
            object.__setattr__(self, "_expanded_jobs", cached)
        return cached

    def job_keys(self) -> Tuple[str, ...]:
        """Every job's cache key, aligned with :meth:`iter_jobs` order.

        ``keys[i] == expanded_jobs()[i].key``, but each distinct (design,
        tile-padded dims) point hashes once per plan instance: every job
        shares the plan's core, codegen and fidelity, so those render once
        (:func:`repro.runtime.cache.key_hasher`), and each shape's padded
        fragment once.  The tuple is memoized, and the session, the shard
        filter and every report view read from it — repeated inspection
        (``plan show``, stats lines) costs no re-hashing.
        """
        cached = self.__dict__.get("_job_keys")
        if cached is None:
            hasher = key_hasher(self.core, self.codegen, self.fidelity)
            fragments: Dict[GemmShape, str] = {}  # shape -> its padded key form
            points: Dict[Tuple[str, str], str] = {}  # (design, fragment) -> key
            keys: List[str] = []
            for job in self.expanded_jobs():
                fragment = fragments.get(job.shape)
                if fragment is None:
                    fragment = key_fragment(job.shape.tile_padded())
                    fragments[job.shape] = fragment
                point = (job.design_key, fragment)
                key = points.get(point)
                if key is None:
                    key = points[point] = hasher(*point)
                keys.append(key)
            cached = tuple(keys)
            object.__setattr__(self, "_job_keys", cached)
        return cached

    def distinct_keys(self) -> Tuple[str, ...]:
        """The plan's distinct cache keys, first-occurrence order.

        This is the dedup identity — label-free, tile-padded — so it is
        also the unit of sharding and of cache accounting.  Memoized like
        :meth:`job_keys`.
        """
        cached = self.__dict__.get("_distinct_keys")
        if cached is None:
            cached = tuple(dict.fromkeys(self.job_keys()))
            object.__setattr__(self, "_distinct_keys", cached)
        return cached

    def shard_keys(self) -> Tuple[str, ...]:
        """The distinct keys this plan actually owns (all, when unsharded).

        Shard ``i`` of ``n`` owns ``sorted(distinct)[i::n]`` — a
        deterministic, disjoint, exhaustive partition that depends only on
        the key set, never on expansion order or host.
        """
        distinct = self.distinct_keys()
        if self.shard_spec is None:
            return distinct
        index, count = self.shard_spec
        owned = set(sorted(distinct)[index::count])
        return tuple(key for key in distinct if key in owned)

    # -- sharding ------------------------------------------------------------------

    def unsharded(self) -> "SweepPlan":
        """This plan with any shard annotation removed (the merge identity)."""
        if self.shard_spec is None:
            return self
        return dataclasses.replace(self, shard_spec=None)

    def shard(self, index: int, count: int) -> "SweepPlan":
        """Deterministic shard ``index`` of ``count`` — see :meth:`shard_keys`.

        Sharding a shard would silently re-partition an already-partial
        key set, so it is rejected; shard the unsharded plan instead.
        """
        if self.shard_spec is not None:
            raise ExperimentError(
                f"plan is already shard {self.shard_spec[0]}/"
                f"{self.shard_spec[1]}; shard the unsharded plan instead"
            )
        return dataclasses.replace(
            self, shard_spec=_validated_shard((index, count))
        )

    # -- serialization -------------------------------------------------------------

    def to_json(self, indent: Optional[int] = None) -> str:
        """Canonical JSON (sorted keys; compact when ``indent`` is None)."""
        payload = {"format": PLAN_FORMAT, "plan": encode(self)}
        separators = (",", ":") if indent is None else None
        return json.dumps(payload, sort_keys=True, indent=indent, separators=separators)

    @classmethod
    def from_json(cls, text: str) -> "SweepPlan":
        """Inverse of :meth:`to_json`: ``from_json(p.to_json()) == p``."""
        return _decode_plan(_loads_payload(text, "plan"))


def _validated_shard(shard: Sequence[int]) -> Tuple[int, int]:
    shard = tuple(shard)
    if len(shard) != 2:
        raise ExperimentError(f"shard must be (index, count), got {shard!r}")
    index, count = shard
    for value in (index, count):
        if not isinstance(value, int) or isinstance(value, bool):
            raise ExperimentError(f"shard must be two integers, got {shard!r}")
    if count < 1 or not 0 <= index < count:
        raise ExperimentError(
            f"shard index must satisfy 0 <= index < count, got {index}/{count}"
        )
    return index, count


def _loads_payload(text: str, section: str) -> Dict[str, Any]:
    try:
        raw = json.loads(text)
    except ValueError as exc:
        raise ExperimentError(f"malformed {section} JSON: {exc}") from None
    if not isinstance(raw, dict) or raw.get("format") != PLAN_FORMAT:
        raise ExperimentError(
            f"not a format-{PLAN_FORMAT} {section} document"
        )
    body = raw.get(section)
    if not isinstance(body, dict):
        raise ExperimentError(f"{section} document has no {section!r} section")
    _refuse_unknown(raw, ("format", section), f"{section} document")
    return body


def _refuse_unknown(raw: Dict[str, Any], known: Tuple[str, ...], where: str) -> None:
    """Refuse keys outside ``known``: a misplaced field is an error, not dropped."""
    unknown = sorted(raw.keys() - set(known))
    if unknown:
        raise ExperimentError(f"malformed {where}: unknown field(s) {', '.join(unknown)}")


def _decode_plan(raw: Any) -> SweepPlan:
    try:
        return decode(SweepPlan, raw)
    except (TypeError, ValueError) as exc:
        raise ExperimentError(f"malformed plan JSON: {exc}") from None


# -- reports -----------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class SweepReport:
    """The results of running one :class:`SweepPlan` (or one shard of it).

    ``results`` maps each owned distinct cache key to its
    :class:`SimResult`; everything else is a *view* recomputed from the
    plan, so two reports are equal — and serialize identically — whenever
    their plans and result sets are, regardless of how the work was
    scheduled, cached or sharded.  ``simulated``/``cache_hits`` are run
    diagnostics and deliberately excluded from equality and JSON.
    """

    plan: SweepPlan
    results: Dict[str, SimResult]
    simulated: int = dataclasses.field(default=0, compare=False)
    cache_hits: int = dataclasses.field(default=0, compare=False)

    # -- completeness --------------------------------------------------------------

    @property
    def is_partial(self) -> bool:
        """Whether this report covers only one shard of its plan."""
        return self.plan.shard_spec is not None

    def _require_complete(self, view: str) -> None:
        if self.is_partial:
            index, count = self.plan.shard_spec
            raise ExperimentError(
                f"report covers shard {index}/{count} only; merge all "
                f"{count} shard reports before reading {view}"
            )

    # -- positional result access --------------------------------------------------

    def job_keys(self) -> Tuple[str, ...]:
        """Cache keys aligned with :meth:`SweepPlan.iter_jobs` order.

        Delegates to the plan's memoized :meth:`SweepPlan.job_keys`, so a
        run plus any number of views never hashes a job twice.
        """
        return self.plan.job_keys()

    def _results_in_order(self) -> Iterator[SimResult]:
        for key in self.job_keys():
            yield self.results[key]

    # -- typed views ---------------------------------------------------------------

    def grid(self) -> Dict[str, Dict[str, SimResult]]:
        """``grid[workload_name][design_key]`` over the plan's workloads."""
        self._require_complete("grid()")
        stream = self._results_in_order()
        table: Dict[str, Dict[str, SimResult]] = {}
        for name, _ in self.plan.workloads:
            table[name] = {design: next(stream) for design in self.plan.designs}
        return table

    def _suite_stream(self) -> Iterator[SimResult]:
        stream = self._results_in_order()
        for _ in range(len(self.plan.workloads) * len(self.plan.designs)):
            next(stream)
        return stream

    def suite_totals(self) -> Dict[str, Dict[str, SuiteTotals]]:
        """``totals[suite_name][design_key]`` — occurrence-weighted totals.

        Only for plans without a batch axis; batch sweeps read
        :meth:`batch_curves` instead.
        """
        self._require_complete("suite_totals()")
        if self.plan.batches is not None:
            raise ExperimentError(
                "this plan sweeps a batch axis; read batch_curves() instead "
                "of suite_totals()"
            )
        stream = self._suite_stream()
        totals: Dict[str, Dict[str, SuiteTotals]] = {}
        for suite, _, entries in self.plan.suite_entries():
            totals[suite.name] = {
                design: _expand_totals(suite, design, entries, stream)
                for design in self.plan.designs
            }
        return totals

    def suite_layer_cycles(self) -> Dict[str, Dict[str, Dict[str, int]]]:
        """``cycles[suite][design][label]`` — per-layer-label cycle totals.

        Labels that occur multiple times in the multiset (e.g. the 24
        per-head copies of one attention matmul) aggregate
        occurrence-weighted, so summing a suite's labels reproduces its
        :class:`SuiteTotals` cycles exactly.  Like :meth:`suite_totals`,
        this view is for plans without a batch axis; the experiments use
        it to split training suites into fwd/dgrad/wgrad shares.
        """
        self._require_complete("suite_layer_cycles()")
        if self.plan.batches is not None:
            raise ExperimentError(
                "this plan sweeps a batch axis; suite_layer_cycles() reads "
                "single-batch suite plans only"
            )
        stream = self._suite_stream()
        table: Dict[str, Dict[str, Dict[str, int]]] = {}
        for suite, _, entries in self.plan.suite_entries():
            per_design: Dict[str, Dict[str, int]] = {}
            for design in self.plan.designs:
                cycles: Dict[str, int] = {}
                for entry in entries:
                    result = next(stream)
                    for label in entry.layers:
                        cycles[label] = cycles.get(label, 0) + result.cycles
                per_design[design] = cycles
            table[suite.name] = per_design
        return table

    def batch_curves(self) -> Dict[str, Dict[str, SuiteBatchCurve]]:
        """``curves[suite_name][design_key]`` along the plan's batch axis."""
        self._require_complete("batch_curves()")
        if self.plan.batches is None:
            raise ExperimentError(
                "this plan has no batch axis; read suite_totals() instead "
                "of batch_curves()"
            )
        stream = self._suite_stream()
        per_point: Dict[Tuple[str, int, str], SuiteTotals] = {}
        names: List[str] = []
        for suite, batch, entries in self.plan.suite_entries():
            if suite.name not in names:
                names.append(suite.name)
            for design in self.plan.designs:
                per_point[(suite.name, batch, design)] = _expand_totals(
                    suite, design, entries, stream
                )
        return {
            name: {
                design: SuiteBatchCurve(
                    suite=name,
                    design_key=design,
                    batches=self.plan.batches,
                    totals=tuple(
                        per_point[(name, batch, design)]
                        for batch in self.plan.batches
                    ),
                )
                for design in self.plan.designs
            }
            for name in names
        }

    # -- stats ---------------------------------------------------------------------

    @property
    def job_count(self) -> int:
        """Expanded jobs this report's shard covers (pre-dedup)."""
        if not self.is_partial:
            return len(self.job_keys())
        owned = set(self.plan.shard_keys())
        return sum(1 for key in self.job_keys() if key in owned)

    @property
    def distinct_points(self) -> int:
        """Distinct simulation points this report's shard owns."""
        return len(self.results)

    # -- merging -------------------------------------------------------------------

    def merge(self, *others: "SweepReport") -> "SweepReport":
        """Reassemble shard reports into the full report, bit-identically.

        All reports must stem from the same unsharded plan; the union of
        their result sets must cover every distinct key (no missing
        shard).  Overlap is fine when the overlapping results agree —
        simulations are deterministic, so disagreement means the reports
        came from different code versions and is an error.
        """
        base = self.plan.unsharded()
        merged: Dict[str, SimResult] = dict(self.results)
        simulated = self.simulated
        cache_hits = self.cache_hits
        for other in others:
            if other.plan.unsharded() != base:
                raise ExperimentError(
                    "cannot merge reports from different plans; shards must "
                    "share one unsharded SweepPlan"
                )
            for key, result in other.results.items():
                if key in merged and merged[key] != result:
                    raise ExperimentError(
                        "shard reports disagree on a result (key "
                        f"{key[:12]}…); were they produced by different "
                        "code versions?"
                    )
                merged[key] = result
            simulated += other.simulated
            cache_hits += other.cache_hits
        missing = [k for k in base.distinct_keys() if k not in merged]
        if missing:
            raise ExperimentError(
                f"merged shards cover {len(merged)} of "
                f"{len(merged) + len(missing)} distinct points; "
                f"{len(missing)} missing — run and merge every shard"
            )
        return SweepReport(
            plan=base,
            results=merged,
            simulated=simulated,
            cache_hits=cache_hits,
        )

    # -- serialization -------------------------------------------------------------

    def to_json(self, indent: Optional[int] = None) -> str:
        """Canonical JSON of (plan, results) — diagnostics excluded.

        Two complete reports over equal plans and results render the very
        same string, which is what makes the sharded CI smoke's
        ``merged == single-shot`` comparison a plain file diff.
        """
        body = {"plan": encode(self.plan), "results": encode(self.results)}
        payload = {"format": PLAN_FORMAT, "report": body}
        separators = (",", ":") if indent is None else None
        return json.dumps(payload, sort_keys=True, indent=indent, separators=separators)

    @classmethod
    def from_json(cls, text: str) -> "SweepReport":
        """Inverse of :meth:`to_json` (diagnostic counters reset to zero).

        Report JSON arrives from files and over the network, so the result
        set must hold exactly the points the plan owns — a truncated or
        padded report is refused here, before it can seal a service shard
        or reach a merge.
        """
        body = _loads_payload(text, "report")
        _refuse_unknown(body, ("plan", "results"), "report")
        plan = _decode_plan(body.get("plan"))
        raw = body.get("results")
        if not isinstance(raw, dict):
            raise ExperimentError(
                "malformed report JSON: results must map cache keys to results"
            )
        try:
            results = {key: decode(SimResult, entry) for key, entry in raw.items()}
        except (TypeError, ValueError) as exc:
            raise ExperimentError(f"malformed report JSON: {exc}") from None
        owned = set(plan.shard_keys())
        if set(results) != owned:
            missing = len(owned - set(results))
            extra = len(set(results) - owned)
            raise ExperimentError(
                f"malformed report JSON: the plan owns {len(owned)} points, "
                f"the results miss {missing} and add {extra}"
            )
        return cls(plan=plan, results=results)
