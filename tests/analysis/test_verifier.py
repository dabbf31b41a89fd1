"""Static verifier: well-formedness, counters, lints and hazards."""

import dataclasses

import pytest

from repro.analysis.verifier import (
    Diagnostic,
    Region,
    hazard_report,
    kernel_regions,
    lint_shape,
    static_counters,
    verify_kernel,
    verify_program,
)
from repro.engine.designs import DESIGNS, get_design
from repro.isa.instructions import (
    Instruction,
    MemOperand,
    ScalarReg,
    TileReg,
    rasa_mm,
    rasa_tl,
    rasa_ts,
    scalar_op,
)
from repro.isa.opcodes import Opcode
from repro.isa.program import Program
from repro.runtime.registry import resolve_backend
from repro.tile.hostmem import HostMatrix
from repro.workloads.codegen import build_gemm_kernel
from repro.workloads.gemm import GemmShape


def _kernel(m=64, n=64, k=64):
    return build_gemm_kernel(GemmShape(m=m, n=n, k=k))


def _codes(report):
    return [d.code for d in report.diagnostics]


# -- clean programs ------------------------------------------------------------


@pytest.mark.parametrize("dims", [(64, 64, 64), (50, 70, 90), (128, 256, 64)])
def test_codegen_output_is_clean(dims):
    report = verify_kernel(_kernel(*dims))
    assert report.ok
    assert report.errors == ()
    assert report.warnings == ()


def test_counters_match_program_stats():
    kernel = _kernel()
    stats = kernel.program.stats
    counters = static_counters(kernel.program)
    assert counters.instructions == stats.total
    assert counters.mm_count == stats.matmuls
    assert counters.tile_loads == stats.tile_loads
    assert counters.tile_stores == stats.tile_stores
    assert counters.scalars == stats.scalars


# -- seeded mutations: every corruption class must be caught -------------------


def _mutate(program, pc, replacement):
    insts = list(program)
    insts[pc] = replacement
    return Program(insts, name=f"{program.name}+mutated")


def test_mutation_register_clobber_is_use_before_def():
    # A single-tile GEMM only touches three registers, so rewriting the
    # first mm's A operand to an untouched register is a guaranteed clobber.
    kernel = _kernel(16, 16, 32)
    program = kernel.program
    first_mm = next(
        pc for pc, inst in enumerate(program) if inst.opcode is Opcode.RASA_MM
    )
    written_before = set()
    for inst in program[:first_mm]:
        written_before.update(r.index for r in inst.tile_writes)
    clobber = next(i for i in range(8) if i not in written_before)
    old = program[first_mm]
    mutated = _mutate(
        program, first_mm, rasa_mm(old.mm_c, TileReg(clobber), old.mm_b)
    )
    report = verify_program(mutated, regions=kernel_regions(kernel))
    bad = [d for d in report.errors if d.code == "use-before-def"]
    assert bad, report.diagnostics
    assert bad[0].pc == first_mm
    assert f"treg{clobber}" in bad[0].registers


def test_mutation_shrunk_region_is_oob():
    kernel = _kernel()
    a, b, c = kernel_regions(kernel)
    shrunk = Region(
        dataclasses.replace(c.matrix, rows=c.matrix.rows - 16), writable=True
    )
    report = verify_program(kernel.program, regions=(a, b, shrunk))
    oob = [d for d in report.errors if d.code == "oob-access"]
    assert oob  # the last C row of tiles now extends past / falls outside C
    assert all(d.opcode in ("rasa_tl", "rasa_ts") for d in oob)


def test_mutation_store_into_input_is_aliasing():
    kernel = _kernel()
    program = kernel.program
    store_pc = next(
        pc for pc, inst in enumerate(program) if inst.opcode is Opcode.RASA_TS
    )
    old = program[store_pc]
    mutated = _mutate(
        program,
        store_pc,
        rasa_ts(kernel.a_host.base, old.srcs[0], kernel.a_host.stride),
    )
    report = verify_program(mutated, regions=kernel_regions(kernel))
    alias = [d for d in report.errors if d.code == "store-aliases-input"]
    assert len(alias) == 1
    assert alias[0].pc == store_pc
    assert "'A'" in alias[0].reason


def test_mutation_wrong_stride_is_bad_stride():
    kernel = _kernel()
    program = kernel.program
    load_pc = next(
        pc for pc, inst in enumerate(program) if inst.opcode is Opcode.RASA_TL
    )
    old = program[load_pc]
    mutated = _mutate(
        program, load_pc, rasa_tl(old.dst, old.mem.address, old.mem.stride * 2)
    )
    report = verify_program(mutated, regions=kernel_regions(kernel))
    bad = [d for d in report.errors if d.code == "bad-stride"]
    assert len(bad) == 1
    assert bad[0].pc == load_pc


def test_stride_below_row_bytes_rejected_without_regions():
    program = Program([rasa_tl(TileReg(0), 0x1000, 32)], name="narrow")
    report = verify_program(program)  # no regions: the stride floor still applies
    assert _codes(report) == ["bad-stride"]
    assert "overlap" in report.diagnostics[0].reason


def test_mutation_misaligned_address():
    kernel = _kernel()
    program = kernel.program
    load_pc = next(
        pc for pc, inst in enumerate(program) if inst.opcode is Opcode.RASA_TL
    )
    old = program[load_pc]
    mutated = _mutate(
        program, load_pc, rasa_tl(old.dst, old.mem.address + 8, old.mem.stride)
    )
    report = verify_program(mutated, regions=kernel_regions(kernel))
    mis = [d for d in report.errors if d.code == "misaligned-tile"]
    assert len(mis) == 1
    assert mis[0].pc == load_pc


def test_tile_read_before_any_write():
    program = Program(
        [rasa_ts(0x1000, TileReg(3)), rasa_tl(TileReg(3), 0x1000)], name="cold"
    )
    report = verify_program(program)
    ubd = [d for d in report.errors if d.code == "use-before-def"]
    assert len(ubd) == 1
    assert ubd[0].pc == 0
    assert ubd[0].registers == ("treg3",)


def test_scalar_liveness_default_vs_strict():
    program = Program(
        [scalar_op(Opcode.ADD, dst=ScalarReg(0), srcs=(ScalarReg(0),))],
        name="loop",
    )
    assert verify_program(program).ok  # scalars are live-in by default
    strict = verify_program(program, scalar_live_in=frozenset())
    assert _codes(strict) == ["use-before-def"]
    assert strict.diagnostics[0].registers == ("r0",)


def test_each_clobbered_register_reported_once():
    program = Program(
        [rasa_ts(0x1000, TileReg(3)), rasa_ts(0x2000, TileReg(3))], name="twice"
    )
    report = verify_program(program)
    assert len([d for d in report.errors if d.code == "use-before-def"]) == 1


# -- lints ---------------------------------------------------------------------


def test_dead_store_flagged():
    program = Program(
        [
            rasa_tl(TileReg(0), 0x1000),
            rasa_ts(0x9000, TileReg(0)),
            rasa_ts(0x9000, TileReg(0)),
        ],
        name="dead",
    )
    report = verify_program(program)
    dead = [d for d in report.warnings if d.code == "dead-store"]
    assert len(dead) == 1
    assert dead[0].pc == 1
    assert report.errors == ()


def test_store_observed_by_load_is_not_dead():
    program = Program(
        [
            rasa_tl(TileReg(0), 0x1000),
            rasa_ts(0x9000, TileReg(0)),
            rasa_tl(TileReg(1), 0x9000),
            rasa_ts(0x9000, TileReg(0)),
        ],
        name="observed",
    )
    assert "dead-store" not in _codes(verify_program(program))


def test_redundant_weight_reload_flagged():
    # The canonical anti-pattern: reload B between two mms that use it —
    # the second mm would have bypassed its WL stage.
    program = Program(
        [
            rasa_tl(TileReg(0), 0x1000),
            rasa_tl(TileReg(6), 0x2000),
            rasa_tl(TileReg(4), 0x3000),
            rasa_mm(TileReg(0), TileReg(6), TileReg(4)),
            rasa_tl(TileReg(4), 0x3000),  # same bytes, kills the bypass
            rasa_mm(TileReg(0), TileReg(6), TileReg(4)),
        ],
        name="naive",
    )
    report = verify_program(program)
    redundant = [d for d in report.warnings if d.code == "redundant-load"]
    assert len(redundant) == 1
    assert redundant[0].pc == 4
    assert redundant[0].registers == ("treg4",)
    # The lint's claim is checkable against the counters: eliding pc 4
    # turns the reuse back on.
    assert static_counters(program).weight_reuses == 0
    elided = Program([i for pc, i in enumerate(program) if pc != 4], name="x")
    assert static_counters(elided).weight_reuses == 1


def test_streaming_reload_not_flagged():
    # Reloading the same A bytes is a block-scheduling tradeoff, not a
    # residency kill: the next mm's weight operand is treg4 either way.
    program = Program(
        [
            rasa_tl(TileReg(0), 0x1000),
            rasa_tl(TileReg(6), 0x2000),
            rasa_tl(TileReg(4), 0x3000),
            rasa_mm(TileReg(0), TileReg(6), TileReg(4)),
            rasa_tl(TileReg(6), 0x2000),  # same A bytes
            rasa_mm(TileReg(0), TileReg(6), TileReg(4)),
        ],
        name="stream",
    )
    assert "redundant-load" not in _codes(verify_program(program))


def test_reload_whose_bypass_an_intervening_mm_kills_anyway_not_flagged():
    # treg5's reload is content-identical, but the next mm reads treg4 and
    # resets residency regardless — eliding the reload changes nothing.
    program = Program(
        [
            rasa_tl(TileReg(0), 0x1000),
            rasa_tl(TileReg(6), 0x2000),
            rasa_tl(TileReg(4), 0x3000),
            rasa_tl(TileReg(5), 0x3040),
            rasa_mm(TileReg(0), TileReg(6), TileReg(4)),
            rasa_mm(TileReg(0), TileReg(6), TileReg(5)),
            rasa_tl(TileReg(4), 0x3000),
            rasa_tl(TileReg(5), 0x3040),  # next mm reads treg4 first
            rasa_mm(TileReg(0), TileReg(6), TileReg(4)),
            rasa_mm(TileReg(0), TileReg(6), TileReg(5)),
        ],
        name="reset",
    )
    assert "redundant-load" not in _codes(verify_program(program))


def test_store_between_reloads_invalidates_held_bytes():
    # A store overlapping the held region means the reload fetches *new*
    # bytes — not redundant.
    program = Program(
        [
            rasa_tl(TileReg(0), 0x1000),
            rasa_tl(TileReg(6), 0x2000),
            rasa_tl(TileReg(4), 0x3000),
            rasa_mm(TileReg(0), TileReg(6), TileReg(4)),
            rasa_ts(0x3000, TileReg(0)),
            rasa_tl(TileReg(4), 0x3000),
            rasa_mm(TileReg(0), TileReg(6), TileReg(4)),
        ],
        name="clobbered-memory",
    )
    assert "redundant-load" not in _codes(verify_program(program))


# -- static counters vs the residency rule -------------------------------------


def test_weight_reuse_counts_consecutive_same_b():
    c, a0, a1, b = TileReg(0), TileReg(6), TileReg(7), TileReg(4)
    program = Program(
        [
            rasa_tl(c, 0x1000),
            rasa_tl(a0, 0x2000),
            rasa_tl(a1, 0x2040),
            rasa_tl(b, 0x3000),
            rasa_mm(c, a0, b),
            rasa_mm(c, a1, b),  # reuse: same B register, same version
            rasa_tl(b, 0x3040),
            rasa_mm(c, a0, b),  # reload bumped the version: no reuse
        ],
        name="reuse",
    )
    counters = static_counters(program)
    assert counters.mm_count == 3
    assert counters.weight_reuses == 1
    wlbp = counters.for_policy(bypasses_on_reuse=True)
    assert (wlbp.weight_loads, wlbp.bypass_count) == (2, 1)
    base = counters.for_policy(bypasses_on_reuse=False)
    assert (base.weight_loads, base.bypass_count) == (3, 0)


def test_static_counters_equal_fast_model_on_every_design():
    kernel = _kernel(48, 80, 64)
    counters = static_counters(kernel.program)
    for key in DESIGNS:
        bypasses = get_design(key).config.control.bypasses_on_reuse
        static = counters.for_policy(bypasses)
        fast = resolve_backend(key, fidelity="fast").prepare(kernel.program).run()
        assert static.instructions == fast.instructions
        assert static.mm_count == fast.mm_count
        assert static.weight_loads == fast.weight_loads
        assert static.bypass_count == fast.bypass_count


# -- hazards -------------------------------------------------------------------


def test_hazard_report_hand_counted():
    c, a, b = TileReg(0), TileReg(6), TileReg(4)
    program = Program(
        [
            rasa_tl(c, 0x1000),
            rasa_tl(a, 0x2000),
            rasa_tl(b, 0x3000),
            rasa_mm(c, a, b),
            rasa_mm(c, a, b),
            rasa_ts(0x1000, c),
        ],
        name="hand",
    )
    report = hazard_report(program)
    assert report.raw == 7  # 3 per mm + 1 for the store
    assert report.waw == 2  # each mm overwrites C
    assert report.war == 0  # an mm's own C read never WARs its write
    assert report.longest_raw_chain == 4  # tl -> mm -> mm -> ts
    assert report.max_live == 3
    assert report.pressure == (1, 2, 1, 2, 0, 0, 0, 0, 0)
    assert sum(report.pressure) == len(program)


def test_war_from_earlier_reader():
    t = TileReg(0)
    program = Program(
        [rasa_tl(t, 0x1000), rasa_ts(0x2000, t), rasa_tl(t, 0x3000)],
        name="war",
    )
    report = hazard_report(program)
    assert report.war == 1
    assert report.waw == 1
    assert report.raw == 1


def test_kernel_pressure_histogram_covers_whole_program():
    kernel = _kernel()
    report = hazard_report(kernel.program)
    assert sum(report.pressure) == len(kernel.program)
    assert report.max_live <= 8
    # The 2x2 register blocking keeps 4 C accumulators plus operands live.
    assert report.max_live >= 4


# -- report plumbing -----------------------------------------------------------


def test_diagnostics_sorted_by_pc():
    kernel = _kernel()
    a, b, c = kernel_regions(kernel)
    shrunk = Region(
        dataclasses.replace(c.matrix, rows=c.matrix.rows - 16), writable=True
    )
    report = verify_program(kernel.program, regions=(a, b, shrunk))
    pcs = [d.pc for d in report.diagnostics]
    assert pcs == sorted(pcs)


def test_diagnostic_str_carries_location():
    d = Diagnostic("oob-access", 17, "rasa_tl", ("treg2",), "went walkabout")
    assert str(d) == "pc 17: rasa_tl [treg2]: oob-access: went walkabout"


def test_lint_shape_end_to_end():
    report = lint_shape(GemmShape(64, 64, 64))
    assert report.ok
    assert report.counters.mm_count == GemmShape(64, 64, 64).mm_count


def test_oob_lists_known_regions():
    matrix = HostMatrix(0x1000, 16, 32, element_bytes=2, name="A")
    program = Program([rasa_tl(TileReg(0), 0x90000)], name="lost")
    report = verify_program(program, regions=(Region(matrix),))
    assert _codes(report) == ["oob-access"]
    assert "'A'" in report.diagnostics[0].reason or "A=" in report.diagnostics[0].reason


def test_operand_accessor_guard():
    inst = rasa_tl(TileReg(0), 0x1000)
    assert inst.tile_writes == (TileReg(0),)
    assert Instruction(Opcode.NOP).tile_reads == ()
    assert MemOperand(0x40, 64).stride == 64
