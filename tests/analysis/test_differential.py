"""Differential test across every tier that must agree, through the one oracle.

Hypothesis draws a GEMM, a legal register blocking and mm order, both
scalar overheads and a :class:`CoreConfig`, and runs
:func:`repro.analysis.bounds.cross_check_bounds` on it: ``fast ==
fast-ref``, ``analytic == fast``, ``LB <= fast`` and static counters ==
``fast`` counters on any input.  About half the draws keep the default
core and overheads, where the walk jumps; the rest draw both freely.

The regression corpus pins the inputs on which the retired analytic
closed forms were silently wrong: the analytic model must now return
``fast-ref``'s whole result on each.

``fast`` and ``fast-ref`` count time in integer ticks of 1/L cycle.
:func:`exact_cycles` evaluates ``fast-ref``'s recurrence again in
``fractions.Fraction`` time, sharing no code with the ticks, and both
models must equal it on tiny programs at drawn widths 1–8.

``ooo`` is compared on tiny programs at the default core only, with
``test_model_fuzz.py``'s tolerance.  Random cores are left out of that
assertion: at ``retire_width=1`` the two models' retire accounting drifts
past the tolerance (up to ~10 %).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.bounds import cross_check_bounds
from repro.cpu.analytic import AnalyticCoreModel
from repro.cpu.config import CoreConfig
from repro.cpu.fast import FastCoreModel
from repro.engine.config import EngineConfig
from repro.engine.designs import DESIGNS, get_design
from repro.engine.scheduler import EngineScheduler
from repro.isa.instructions import NUM_SCALAR_REGS, NUM_TILE_REGS
from repro.isa.opcodes import Opcode
from repro.isa.program import Program
from repro.runtime.registry import resolve_backend
from repro.workloads.codegen import CodegenOptions, generate_gemm_program
from repro.workloads.gemm import GemmShape
from repro.workloads.tiling import BlockingConfig, MMOrder

from tests.cpu.test_fastvec import tile_programs

#: Every (bm, bn) with bm·bn + bm + bn <= 8 tile registers.
LEGAL_BLOCKINGS = ((1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 2))
DEFAULT_OVERHEADS = (2, 6)

designs = st.sampled_from(sorted(DESIGNS))
overheads = st.tuples(st.integers(0, 6), st.integers(0, 24))
cores = st.builds(
    CoreConfig,
    rob_size=st.integers(8, 128),
    fetch_width=st.integers(1, 8),
    retire_width=st.integers(1, 8),
    alu_ports=st.integers(1, 4),
    load_ports=st.integers(1, 3),
    store_ports=st.integers(1, 2),
    l1_latency=st.integers(1, 12),
    pipeline_stages=st.integers(2, 20),
)


@st.composite
def codegens(draw, overheads=overheads):
    """A legal blocking and mm order, with ``(per K step, per block)`` overheads."""
    bm, bn = draw(st.sampled_from(LEGAL_BLOCKINGS))
    kstep, block = draw(overheads)
    return CodegenOptions(
        blocking=BlockingConfig(bm, bn, draw(st.sampled_from(list(MMOrder)))),
        scalar_overhead_per_kstep=kstep,
        scalar_overhead_per_block=block,
    )


@st.composite
def points(draw):
    """(shape, codegen, core): half at the default core and overheads, half free."""
    shape = GemmShape(
        draw(st.integers(1, 160)), draw(st.integers(1, 160)), draw(st.integers(1, 320))
    )
    if draw(st.booleans()):
        return shape, draw(codegens(st.just(DEFAULT_OVERHEADS))), CoreConfig()
    return shape, draw(codegens()), draw(cores)


@settings(max_examples=100, deadline=None)
@given(point=points(), design=designs)
def test_every_tier_agrees(point, design):
    shape, codegen, core = point
    (check,) = cross_check_bounds(shape, codegen, design_keys=[design], core=core)
    assert check.ok, (shape, codegen, core, check.violations)
    assert check.analytic_cycles == check.fast_cycles


#: Inputs on which the retired closed forms returned wrong cycles with no
#: warning (``fast == fast-ref`` on each).
REGRESSIONS = {
    # closed forms 7,362 vs fast 10,494 (-29.8 %)
    "block-overhead-20-db-wls": (
        GemmShape(157, 168, 12),
        CodegenOptions(blocking=BlockingConfig(1, 1), scalar_overhead_per_block=20),
        CoreConfig(), "rasa-db-wls",
    ),
    # closed forms 7,270 vs fast 7,918 (-8.2 %)
    "block-overhead-20-dmdb-wls": (
        GemmShape(157, 168, 12),
        CodegenOptions(blocking=BlockingConfig(1, 1), scalar_overhead_per_block=20),
        CoreConfig(), "rasa-dmdb-wls",
    ),
    # closed forms 16,643 vs fast 19,643 (-15.3 %)
    "rob-16-dmdb-wls": (
        GemmShape(128, 128, 128), CodegenOptions(), CoreConfig(rob_size=16),
        "rasa-dmdb-wls",
    ),
    # closed forms 97,379 vs fast 97,979 (-0.6 %)
    "rob-16-baseline": (
        GemmShape(128, 128, 128), CodegenOptions(), CoreConfig(rob_size=16),
        "baseline",
    ),
    # closed forms 6,147 vs fast 11,547 (-46.8 %)
    "overheads-7-24-db-wls": (
        GemmShape(99, 208, 6),
        CodegenOptions(
            blocking=BlockingConfig(1, 1),
            scalar_overhead_per_kstep=7,
            scalar_overhead_per_block=24,
        ),
        CoreConfig(), "rasa-db-wls",
    ),
}


@pytest.mark.parametrize("name", sorted(REGRESSIONS))
def test_regression_corpus(name):
    shape, codegen, core, design = REGRESSIONS[name]
    config = get_design(design).config
    analytic = AnalyticCoreModel(core=core, engine=config).run_shape(shape, codegen)
    program = generate_gemm_program(shape, codegen)
    assert analytic == FastCoreModel(core=core, engine=config).run(program)
    (check,) = cross_check_bounds(shape, codegen, design_keys=[design], core=core)
    assert check.ok, check.violations


@settings(max_examples=30, deadline=None)
@given(
    m=st.integers(1, 64), n=st.integers(1, 64), k=st.integers(1, 128),
    codegen=codegens(), design=designs,
)
def test_ooo_tracks_fast_on_tiny_programs(m, n, k, codegen, design):
    program = generate_gemm_program(GemmShape(m, n, k), codegen)
    fast = resolve_backend(design, fidelity="fast").simulate(program)
    ooo = resolve_backend(design, fidelity="ooo").simulate(program)
    assert (ooo.mm_count, ooo.bypass_count) == (fast.mm_count, fast.bypass_count)
    diff = abs(fast.cycles - ooo.cycles)
    assert diff <= 32 or diff / ooo.cycles < 0.05, (fast.cycles, ooo.cycles)


def exact_cycles(program: Program, core: CoreConfig, engine: EngineConfig) -> int:
    """``fast-ref``'s recurrence (``FastCoreModel.run``) in exact rationals.

    A dispatch adds ``Fraction(1, fetch_width)``, a retire
    ``Fraction(1, retire_width)``; every other latency is whole cycles, and
    the engine keeps its own integer clock (:class:`EngineScheduler`).
    """
    ratio = core.engine_clock_ratio(engine.clock_mhz)
    scheduler = EngineScheduler(engine)
    fetch, retire_step = Fraction(1, core.fetch_width), Fraction(1, core.retire_width)
    transfer = core.tile_transfer_cycles
    tile = [Fraction(0)] * NUM_TILE_REGS
    scalar = [Fraction(0)] * NUM_SCALAR_REGS
    version = [0] * NUM_TILE_REGS
    loads = [Fraction(0)] * core.load_ports
    stores = [Fraction(0)] * core.store_ports
    alus = [Fraction(0)] * core.alu_ports
    retires: List[Fraction] = [Fraction(0)]
    dispatch = Fraction(core.frontend_latency)
    for i, inst in enumerate(program):
        dispatch += fetch
        if i >= core.rob_size:
            dispatch = max(dispatch, retires[i + 1 - core.rob_size])
        op = inst.opcode
        if op is Opcode.RASA_TL:
            port = loads.index(min(loads))  # the lowest index on ties
            start = max(dispatch, loads[port])
            loads[port] = start + transfer
            complete = start + core.tile_load_latency
            tile[inst.dst.index] = complete
            version[inst.dst.index] += 1
        elif op is Opcode.RASA_TS:
            port = stores.index(min(stores))
            start = max(dispatch, tile[inst.srcs[0].index], stores[port])
            stores[port] = complete = start + transfer
        elif op is Opcode.RASA_MM:
            c, a, b = (reg.index for reg in inst.srcs)
            ready = math.ceil(max(dispatch, tile[a], tile[b], tile[c]) / ratio)
            times = scheduler.schedule_mm(
                ready_b=ready, ready_ac=ready, weight_key=(b, version[b])
            )
            complete = Fraction(times.complete * ratio)
            tile[c] = complete
            version[c] += 1
        else:
            port = alus.index(min(alus))
            start = max([dispatch, alus[port]] + [scalar[src.index] for src in inst.srcs])
            alus[port] = complete = start + 1
            if inst.dst is not None:
                scalar[inst.dst.index] = complete
        retires.append(max(retires[-1] + retire_step, complete + 1))
    return math.ceil(retires[-1])


def assert_exact(program: Program, core: CoreConfig, design: str) -> int:
    """``fast == fast-ref``, both at the exact cycles; returns them."""
    fast = resolve_backend(design, fidelity="fast", core=core).prepare(program).run()
    reference = resolve_backend(design, fidelity="fast-ref", core=core).prepare(program).run()
    assert fast == reference
    assert fast.cycles == exact_cycles(program, core, get_design(design).config)
    return fast.cycles


@st.composite
def tiny_programs(draw):
    """A tiny generated GEMM on a drawn codegen, or a hand-built program."""
    if draw(st.booleans()):
        return draw(tile_programs())
    shape = GemmShape(
        draw(st.integers(1, 48)), draw(st.integers(1, 48)), draw(st.integers(1, 96))
    )
    return generate_gemm_program(shape, draw(codegens()))


@settings(max_examples=60, deadline=None)
@given(program=tiny_programs(), core=cores, design=designs)
def test_fast_and_fast_ref_equal_exact_rational_time(program, core, design):
    assert_exact(program, core, design)


@pytest.mark.parametrize("widths", [(3, 3), (6, 3), (4, 3)], ids=str)
def test_dlrm2_at_retire_width_3_reads_the_exact_cycles(widths):
    # The shortest Table I program (DLRM-2 at scale 4, 376 instructions) on
    # which float time read one cycle high at these widths: 48,740.
    program = generate_gemm_program(GemmShape(128, 32, 256))
    core = CoreConfig(fetch_width=widths[0], retire_width=widths[1])
    assert assert_exact(program, core, "baseline") == 48_739
