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

``ooo`` is compared on tiny programs at the default core only, with
``test_model_fuzz.py``'s tolerance.  Random cores are left out of that
assertion: at ``retire_width=1`` the two models' retire accounting drifts
past the tolerance (up to ~10 %).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.bounds import cross_check_bounds
from repro.cpu.analytic import AnalyticCoreModel
from repro.cpu.config import CoreConfig
from repro.cpu.fast import FastCoreModel
from repro.engine.designs import DESIGNS, get_design
from repro.runtime.registry import resolve_backend
from repro.workloads.codegen import CodegenOptions, generate_gemm_program
from repro.workloads.gemm import GemmShape
from repro.workloads.tiling import BlockingConfig, MMOrder

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
