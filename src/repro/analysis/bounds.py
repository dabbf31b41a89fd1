"""Static cycle-bound analyzer and the one cross-tier oracle.

This module bounds *cycles* — the paper's headline metric — without
simulating, by turning the hazard structure of a program into a
latency-weighted dependence DAG and bounding, per (program, design), what
any legal execution under the fast model's machine description can achieve:

- **lower bounds**, each sound against :class:`repro.cpu.fast.FastCoreModel`
  by construction:

  - *critical-path* — one O(n) longest-path pass over the RAW dependence
    DAG.  Each instruction's completion floor is the max over its operand
    producers plus its minimum latency (load: L1 hit + tile transfer; mm:
    engine-domain ceil of readiness, plus the WL cost when the residency
    replay says this mm loads weights, plus the FF→complete dataflow
    latency; scalar: 1 cycle), anchored at the frontend dispatch floor and
    closed with the in-order retire recurrence, in the fast model's integer
    ticks (:attr:`repro.cpu.config.CoreConfig.ticks_per_cycle`).
  - *mm-issue* — engine throughput: consecutive mm completions advance by
    at least :meth:`repro.engine.config.EngineConfig.min_issue_delta`
    (per-policy WL/FF/FS/DR overlap floors plus drain-port serialization),
    summed over the program's weight-load/bypass mix.
  - *weight-load* — WL bandwidth: WL windows serialize on the load links,
    so the last completion trails the first readiness by at least
    ``weight_loads · wl`` plus one full dataflow latency.
  - *load-ports* / *store-port* — port occupancy: each tile transfer holds
    a port for 16 cycles, so the busiest of the P ports serves
    ``ceil(count / P)`` back-to-back transfers.
  - *frontend* / *retire* — pipeline pacing on the instruction count.

- **bottleneck attribution**: the binding resource is the largest lower
  bound — the static roofline naming what limits each design on each
  program — with tightness ratios against achieved cycles.

There is no static upper bound: a greedy list schedule of the full
resource model *is* the fast model, so the achieved cycles come from
:class:`repro.cpu.fast.FastCoreModel` (``fast-ref``), whose engine timing is
the one recurrence, :func:`repro.engine.scheduler.schedule_stages`.

:func:`cross_check_bounds` is the one place the tiers are compared: per
design it asserts the ``fast`` result equal to ``fast-ref``'s field for
field, ``LB <= fast`` exactly, the verifier's static counters equal to
``fast``'s, and the ``analytic`` result equal to ``fast``'s field for
field.  CI gates it over every suite times all eight designs.

The bounds assume the runtime's default ideal memory (fixed-latency tile
loads); custom memory hierarchies change the fast model's load latencies
and void the lower bound.

The future Pareto search uses the lower bound as a simulation-free pruner:
a candidate design whose LB already exceeds the incumbent's achieved
cycles cannot win, and is discarded without lowering a single program.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.verifier import PolicyCounters, StaticCounters, static_counters
from repro.cpu.config import CoreConfig
from repro.cpu.result import SimResult
from repro.engine.config import EngineConfig
from repro.engine.designs import DESIGNS, get_design
from repro.errors import ExperimentError
from repro.isa.instructions import NUM_SCALAR_REGS, NUM_TILE_REGS
from repro.isa.opcodes import Opcode
from repro.isa.program import Program
from repro.runtime.registry import resolve_backend
from repro.systolic.substage import StageDurations
from repro.workloads.codegen import CodegenOptions, build_gemm_kernel
from repro.workloads.gemm import GemmShape

#: Attribution order: ties in the lower-bound components resolve to the
#: earliest entry, so the binding resource is deterministic.
RESOURCE_ORDER: Tuple[str, ...] = (
    "critical-path",
    "mm-issue",
    "weight-load",
    "load-ports",
    "store-port",
    "frontend",
    "retire",
)


def _mm_dataflow_cycles(stages: StageDurations) -> int:
    """Engine cycles from FF start to instruction completion.

    The FF→FS→DR(+extra) dataflow latency every mm pays after its weights
    are in place.  The critical-path, mm-issue and weight-load lower bounds
    all charge mm edges through this one seam, so a seeded mutation
    (inflating the dependence-edge latency) pushes the lower bound past the
    achieved cycles and must be caught by :func:`cross_check_bounds` — the
    mutation test monkeypatches exactly this function.
    """
    return stages.ff + stages.fs + stages.dr + stages.extra


def _cycles(ticks: int, tick: int) -> int:
    return -(-ticks // tick)


@dataclasses.dataclass(frozen=True)
class ResourceBound:
    """One lower-bound component: the cycles ``resource`` alone enforces."""

    resource: str
    cycles: int


@dataclasses.dataclass(frozen=True)
class BoundsReport:
    """Static cycle lower bound and bottleneck attribution for one (program, design).

    Attributes:
        name: the program's name.
        design_key: the design the bounds were computed for.
        lower_bound: max over ``components`` — no legal execution under the
            fast model's machine description finishes earlier.
        components: every per-resource lower bound, in
            :data:`RESOURCE_ORDER`.
        binding: the resource whose component equals ``lower_bound`` (first
            in :data:`RESOURCE_ORDER` on ties) — the bottleneck attribution.
    """

    name: str
    design_key: str
    lower_bound: int
    components: Tuple[ResourceBound, ...]
    binding: str

    def component(self, resource: str) -> int:
        """The cycles of one named component; raises on unknown names."""
        for bound in self.components:
            if bound.resource == resource:
                return bound.cycles
        raise ExperimentError(
            f"unknown bound resource {resource!r}; "
            f"known: {', '.join(b.resource for b in self.components)}"
        )

    def tightness(self, achieved_cycles: int) -> float:
        """``lower_bound / achieved`` — 1.0 means the bound is exact."""
        if achieved_cycles <= 0:
            return 0.0
        return self.lower_bound / achieved_cycles


@dataclasses.dataclass(frozen=True)
class BoundViolation:
    """One broken invariant found by :func:`cross_check_bounds`."""

    design_key: str
    kind: str
    detail: str

    def __str__(self) -> str:
        return f"{self.design_key}: {self.kind}: {self.detail}"


@dataclasses.dataclass(frozen=True)
class BoundsCheck:
    """One design's bounds next to its achieved cycles, with any violations."""

    design_key: str
    report: BoundsReport
    analytic_cycles: int
    fast_cycles: int
    violations: Tuple[BoundViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def lb_tightness(self) -> float:
        return self.report.tightness(self.fast_cycles)


# -- the residency replay ------------------------------------------------------------


def _loads_weights(
    bypasses_on_reuse: bool,
    resident: Optional[Tuple[int, int]],
    key: Tuple[int, int],
) -> bool:
    """Whether this mm pays a WL — the scheduler's residency rule.

    Identical to :meth:`repro.engine.scheduler.EngineScheduler.schedule_mm`'s
    bypass test and :func:`repro.analysis.verifier.static_counters`' replay
    (:func:`cross_check_bounds` proves the three agree).
    """
    return not (bypasses_on_reuse and resident is not None and resident == key)


# -- lower bounds --------------------------------------------------------------------


def _critical_path_lb(
    program: Program, core: CoreConfig, engine: EngineConfig, ratio: int
) -> int:
    """Longest path through the latency-weighted RAW dependence DAG.

    One program-order pass: every timestamp is a provable floor on the fast
    model's corresponding timestamp (dispatch ignores ROB stalls, execution
    ignores port contention, mm readiness splits B from A/C — each
    relaxation only lowers the result), so the final retire ceiling is a
    sound lower bound on the fast model's cycles.
    """
    tick = core.ticks_per_cycle  # every timestamp below is in ticks
    fetch_step = tick // core.fetch_width
    retire_step = tick // core.retire_width
    engine_tick = ratio * tick
    frontend = core.frontend_latency * tick
    transfer = core.tile_transfer_cycles * tick
    load_latency = core.tile_load_latency * tick
    stages = engine.stages
    wl = stages.wl
    dataflow = _mm_dataflow_cycles(stages)
    bypasses_on = engine.control.bypasses_on_reuse

    tile = [0] * NUM_TILE_REGS
    scalar = [0] * NUM_SCALAR_REGS
    version = [0] * NUM_TILE_REGS
    resident: Optional[Tuple[int, int]] = None
    retire = 0

    # Operands are plain fields (``Instruction._validate`` pins each
    # opcode's form) and maxima are compare-and-assign, as in fast-ref.
    for i, inst in enumerate(program):
        dispatch = frontend + (i + 1) * fetch_step
        op = inst.opcode
        if op is Opcode.RASA_TL:
            complete = dispatch + load_latency
            assert inst.dst is not None  # _validate invariant
            reg = inst.dst.index
            tile[reg] = complete
            version[reg] += 1
        elif op is Opcode.RASA_TS:
            complete = tile[inst.srcs[0].index]
            if dispatch > complete:
                complete = dispatch
            complete += transfer
        elif op is Opcode.RASA_MM:
            c_reg, a_reg, b_reg = inst.srcs
            b = b_reg.index
            c = c_reg.index
            key = (b, version[b])
            loading = _loads_weights(bypasses_on, resident, key)
            resident = key
            ready = tile[b]
            if dispatch > ready:
                ready = dispatch
            ready_b = -(-ready // engine_tick)
            ready = tile[a_reg.index]
            if dispatch > ready:
                ready = dispatch
            if tile[c] > ready:
                ready = tile[c]
            ready_ac = -(-ready // engine_tick)
            ff_start = ready_b + wl if loading else ready_b
            if ready_ac > ff_start:
                ff_start = ready_ac
            complete = (ff_start + dataflow) * engine_tick
            tile[c] = complete
            version[c] += 1
        else:  # scalar ALU / branch / nop: scalar srcs, optional scalar dst
            start = dispatch
            for src in inst.srcs:
                if scalar[src.index] > start:
                    start = scalar[src.index]
            complete = start + tick
            dst = inst.dst
            if dst is not None:
                scalar[dst.index] = complete
        retire += retire_step
        if complete + tick > retire:
            retire = complete + tick
    return _cycles(retire, tick)


def _resource_lbs(
    counts: StaticCounters, core: CoreConfig, engine: EngineConfig, ratio: int
) -> Dict[str, int]:
    """The per-resource throughput lower bounds (everything but the DAG walk)."""
    policy_counts = counts.for_policy(engine.control.bypasses_on_reuse)
    n = counts.instructions
    stages = engine.stages
    tick = core.ticks_per_cycle
    fetch_step = tick // core.fetch_width
    transfer = core.tile_transfer_cycles
    d1 = core.frontend_latency * tick + fetch_step  # inst 0's dispatch floor, in ticks
    bounds: Dict[str, int] = {name: 0 for name in RESOURCE_ORDER}

    if n == 0:
        return bounds

    # Frontend pacing: the last instruction dispatches no earlier than the
    # sustained-fetch floor, executes >= 1 cycle, retires one cycle later.
    bounds["frontend"] = _cycles(d1 + (n - 1) * fetch_step + 2 * tick, tick)
    # Retire pacing: the first retire is at least the first complete + 1;
    # every further instruction adds the in-order retire interval.
    bounds["retire"] = _cycles(d1 + 2 * tick + (n - 1) * (tick // core.retire_width), tick)

    if counts.tile_loads:
        # The busiest of the P load ports serves ceil(loads/P) transfers
        # back-to-back; its last load still pays the full load latency.
        queued = -(-counts.tile_loads // core.load_ports)
        latency = (queued - 1) * transfer + core.tile_load_latency
        bounds["load-ports"] = _cycles(d1 + (latency + 1) * tick, tick)
    if counts.tile_stores:
        queued = -(-counts.tile_stores // core.store_ports)
        bounds["store-port"] = _cycles(d1 + (queued * transfer + 1) * tick, tick)

    if counts.mm_count:
        e0 = -(-d1 // (ratio * tick))  # earliest engine cycle any WL can start
        loads = policy_counts.weight_loads
        bypasses = policy_counts.bypass_count
        # The first mm always loads (nothing is resident); the remaining
        # completions each advance by at least the per-policy issue delta.
        first = stages.wl + _mm_dataflow_cycles(stages)
        issue_end = (
            e0
            + first
            + (loads - 1) * engine.min_issue_delta(loading=True)
            + bypasses * engine.min_issue_delta(loading=False)
        )
        bounds["mm-issue"] = issue_end * ratio + 1
        # WL windows serialize on the weight-load links; after the last of
        # them the final mm still flows through FF/FS/DR.
        wl_end = e0 + loads * stages.wl + _mm_dataflow_cycles(stages)
        bounds["weight-load"] = wl_end * ratio + 1
    return bounds


# -- entry points --------------------------------------------------------------------


def bound_program(
    program: Program,
    design_key: str,
    core: Optional[CoreConfig] = None,
    counters: Optional[StaticCounters] = None,
) -> BoundsReport:
    """Compute the full :class:`BoundsReport` for one (program, design).

    ``counters`` are ``program``'s :func:`static_counters`; they do not
    depend on the design, so a caller bounding one program on many designs
    computes them once and passes them in.  ``None`` computes them here.
    """
    core = core if core is not None else CoreConfig()
    engine = get_design(design_key).config
    ratio = core.engine_clock_ratio(engine.clock_mhz)
    if counters is None:
        counters = static_counters(program)

    components = _resource_lbs(counters, core, engine, ratio)
    if len(program):
        components["critical-path"] = _critical_path_lb(program, core, engine, ratio)
    lower = max(components.values())
    binding = next(
        name for name in RESOURCE_ORDER if components[name] == lower
    )
    return BoundsReport(
        name=program.name,
        design_key=design_key,
        lower_bound=lower,
        components=tuple(
            ResourceBound(resource=name, cycles=components[name])
            for name in RESOURCE_ORDER
        ),
        binding=binding,
    )


def bound_shape(
    shape: GemmShape,
    codegen: CodegenOptions = CodegenOptions(),
    design_key: str = "baseline",
    core: Optional[CoreConfig] = None,
) -> BoundsReport:
    """Generate the kernel for ``shape`` and bound it — the one-call entry."""
    kernel = build_gemm_kernel(shape, codegen)
    return bound_program(kernel.program, design_key, core=core)


def _static_counter_mismatches(
    design_key: str, counts: PolicyCounters, fast: SimResult
) -> List[BoundViolation]:
    """One violation per :class:`PolicyCounters` field the static pass gets wrong."""
    return [
        BoundViolation(
            design_key, "static-counter-mismatch",
            f"static {field.name} {getattr(counts, field.name)} != "
            f"fast {getattr(fast, field.name)}",
        )
        for field in dataclasses.fields(PolicyCounters)
        if getattr(counts, field.name) != getattr(fast, field.name)
    ]


def cross_check_bounds(
    shape: GemmShape,
    codegen: CodegenOptions = CodegenOptions(),
    design_keys: Optional[Sequence[str]] = None,
    core: Optional[CoreConfig] = None,
) -> Tuple[BoundsCheck, ...]:
    """The cross-tier oracle: LB, static, analytic, fast and fast-ref, per design.

    Cycles depend on the full (PE, control) design pair, so the fast model
    runs once per requested design; the program and its static counters do
    not, so they are built once per shape.  Per design the check asserts

    - the ``fast`` result equal, field for field, to the scalar ``fast-ref``
      reference (any drift is a bug in the skeleton walk or in the
      skeleton lowering builds),
    - ``LB <= fast`` exactly (a violation is a bug in the bounds, the
      scheduler, or the fast model),
    - the verifier's static counters, projected onto the design's control
      policy, equal to ``fast``'s :class:`PolicyCounters` fields, and
    - the ``analytic`` result equal, field for field, to ``fast``'s (any
      drift is a bug in lowering a shape without its program).

    Returns one :class:`BoundsCheck` per design; gate on
    ``all(c.ok for c in checks)``.
    """
    keys = list(design_keys) if design_keys is not None else list(DESIGNS)
    core = core if core is not None else CoreConfig()
    program = build_gemm_kernel(shape, codegen).program
    counters = static_counters(program)
    checks: List[BoundsCheck] = []
    for key in keys:
        report = bound_program(program, key, core=core, counters=counters)
        fast = resolve_backend(key, fidelity="fast", core=core).prepare(program).run()
        fast_ref = (
            resolve_backend(key, fidelity="fast-ref", core=core)
            .prepare(program)
            .run()
        )
        analytic = resolve_backend(
            key, fidelity="analytic", core=core
        ).run_shape(shape, codegen)
        lb = report.lower_bound
        violations: List[BoundViolation] = []
        if fast != fast_ref:
            violations.append(BoundViolation(
                key, "fast-ref-mismatch",
                f"fast {fast} != scalar reference {fast_ref}",
            ))
        if lb > fast.cycles:
            violations.append(BoundViolation(
                key, "lb-exceeds-fast",
                f"lower bound {lb} > fast cycles {fast.cycles}",
            ))
        bypasses = get_design(key).config.control.bypasses_on_reuse
        violations.extend(_static_counter_mismatches(
            key, counters.for_policy(bypasses), fast
        ))
        if analytic != fast:
            violations.append(BoundViolation(
                key, "analytic-fast-mismatch", f"analytic {analytic} != fast {fast}",
            ))
        checks.append(BoundsCheck(
            design_key=key,
            report=report,
            analytic_cycles=analytic.cycles,
            fast_cycles=fast.cycles,
            violations=tuple(violations),
        ))
    return tuple(checks)
