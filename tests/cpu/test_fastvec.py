"""Bit-identity of the vectorized fast model against the scalar reference.

The vectorized kernel (`repro.cpu.fastvec`) is only allowed to exist
because it is *exactly* the scalar `FastCoreModel` — same `SimResult`
field for field, same per-mm `StageTimes`, same exceptions.  These tests
enforce that contract three ways:

- a hypothesis sweep over random well-formed programs, random designs and
  random core configurations (including the non-power-of-two and
  multi-store-port shapes that must fall back to the scalar path), with
  the WLBP FF/FS overlap flag drawn too;
- every suite workload at scale 4 across all 8 paper designs, the exact
  grid the CI equality oracle gates on, plus one workload with that flag
  off — no registered design turns it off, so these two are the only
  checks of fastvec's FS-end bypass floor against the reference
  :class:`~repro.engine.scheduler.EngineScheduler`;
- targeted edge cases (empty programs, drain-conflict exceptions, decode
  memoization identity).
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.cpu.config import CoreConfig
from repro.cpu.decode import decode_program
from repro.cpu.fast import FastCoreModel
from repro.cpu.fastvec import FastVecCoreModel
from repro.engine.config import EngineConfig
from repro.engine.designs import DESIGNS
from repro.errors import ScheduleError
from repro.experiments.runner import ExperimentSettings, workload_shapes
from repro.isa.builder import ProgramBuilder
from repro.isa.instructions import ScalarReg, TileReg
from repro.isa.opcodes import Opcode
from repro.isa.program import Program
from repro.runtime.session import cached_program
from repro.workloads.codegen import CodegenOptions

T = [TileReg(i) for i in range(8)]

SCALE4 = ExperimentSettings(scale=4)


def assert_identical(
    program, config: EngineConfig, core=CoreConfig(), memory=None
):
    """Full-result equality: SimResult fields AND the kept StageTimes."""
    scalar = FastCoreModel(core=core, engine=config, memory=memory)
    vector = FastVecCoreModel(core=core, engine=config, memory=memory)
    expected = scalar.run(program, keep_schedule=True)
    actual = vector.run(program, keep_schedule=True)
    assert dataclasses.asdict(actual) == dataclasses.asdict(expected)
    assert vector.last_schedule == scalar.last_schedule
    # keep_schedule=False must clear the retained schedule identically.
    assert vector.run(program) == scalar.run(program)
    assert vector.last_schedule is None and scalar.last_schedule is None


@st.composite
def tile_programs(draw):
    """Random well-formed programs: loads, stores, mms, scalar noise."""
    builder = ProgramBuilder("fuzz")
    written = set()
    for reg in (0, 4, 6):
        builder.tl(T[reg], reg * 0x400)
        written.add(reg)
    for _ in range(draw(st.integers(0, 60))):
        kind = draw(st.sampled_from(["tl", "ts", "mm", "mm", "scalar"]))
        if kind == "tl":
            reg = draw(st.integers(0, 7))
            builder.tl(T[reg], draw(st.integers(0, 1 << 20)) * 64)
            written.add(reg)
        elif kind == "ts":
            builder.ts(
                draw(st.integers(0, 1 << 20)) * 64,
                T[draw(st.sampled_from(sorted(written)))],
            )
        elif kind == "mm":
            c = draw(st.sampled_from(sorted(written)))
            builder.mm(
                T[c],
                T[draw(st.sampled_from(sorted(written)))],
                T[draw(st.sampled_from(sorted(written)))],
            )
            written.add(c)
        else:
            builder.scalar(
                draw(st.sampled_from([Opcode.ADD, Opcode.MUL, Opcode.MOV])),
                dst=ScalarReg(draw(st.integers(0, 15))),
                srcs=(ScalarReg(draw(st.integers(0, 15))),),
            )
    return builder.build()


@st.composite
def core_configs(draw):
    """Core shapes spanning the vectorized gate and the scalar fallback:
    non-power-of-two fetch/retire widths and store_ports > 1 must delegate,
    and still be bit-identical."""
    return CoreConfig(
        rob_size=draw(st.sampled_from([1, 3, 8, 13, 97])),
        fetch_width=draw(st.sampled_from([1, 2, 3, 4])),
        retire_width=draw(st.sampled_from([1, 2, 4, 6])),
        load_ports=draw(st.integers(1, 4)),
        store_ports=draw(st.integers(1, 2)),
        alu_ports=draw(st.integers(1, 4)),
    )


class TestPropertyEquality:
    @settings(max_examples=40, deadline=None)
    @given(
        program=tile_programs(),
        design=st.sampled_from(sorted(DESIGNS)),
        core=core_configs(),
        ff_overlaps_fs=st.booleans(),
    )
    def test_random_programs_bit_identical(
        self, program, design, core, ff_overlaps_fs
    ):
        config = dataclasses.replace(
            DESIGNS[design].config, wlbp_ff_overlaps_fs=ff_overlaps_fs
        )
        assert_identical(program, config, core=core)


class TestSuitePrograms:
    """The CI oracle grid: every scale-4 suite workload x all 8 designs."""

    @pytest.mark.parametrize(
        "workload", sorted(workload_shapes(SCALE4)), ids=str
    )
    @pytest.mark.parametrize("design", sorted(DESIGNS), ids=str)
    def test_suite_workload_bit_identical(self, workload, design):
        shape = workload_shapes(SCALE4)[workload]
        program = cached_program(shape, CodegenOptions())
        assert_identical(program, DESIGNS[design].config)

    @pytest.mark.parametrize("design", sorted(DESIGNS), ids=str)
    def test_bypass_waits_for_fs_end_bit_identical(self, design):
        # Ablation E9: a bypassed FF may not overlap the previous FS.
        config = dataclasses.replace(
            DESIGNS[design].config, wlbp_ff_overlaps_fs=False
        )
        shape = workload_shapes(SCALE4)["BERT-1"]
        assert_identical(cached_program(shape, CodegenOptions()), config)


class TestEdgeCases:
    def test_empty_program(self):
        assert_identical(Program([], name="empty"), DESIGNS["baseline"].config)

    def test_scalar_only_program(self):
        builder = ProgramBuilder("scalars")
        for i in range(20):
            builder.scalar(
                Opcode.ADD, dst=ScalarReg(i % 4), srcs=(ScalarReg((i + 1) % 4),)
            )
        assert_identical(builder.build(), DESIGNS["rasa-pipe"].config)

    def test_drain_conflict_raises_identically(self):
        """Both models must raise the same ScheduleError, same message.

        The paper's designs keep dr <= ff so bypassed back-to-back mms
        never collide on the drain port; a counterfactual wide-output tile
        geometry (tile_n > tile_m, as the register-scaling experiment
        sweeps) makes the conflict reachable.
        """
        from repro.engine.config import ControlPolicy
        from repro.systolic.pe import BASELINE_PE

        config = EngineConfig(
            pe=BASELINE_PE,
            control=ControlPolicy.WLBP,
            tile_m=8,
            tile_n=32,
            tile_k=32,
        )
        builder = ProgramBuilder("drain")
        builder.tl(T[0], 0x0).tl(T[1], 0x400).tl(T[2], 0x800).tl(T[3], 0xc00)
        builder.mm(T[0], T[1], T[2])
        # Independent C, resident B: bypassed FF starts right behind the
        # previous FF and its drain collides with the previous drain.
        builder.mm(T[3], T[1], T[2])
        program = builder.build()
        core = CoreConfig()
        with pytest.raises(ScheduleError) as scalar_exc:
            FastCoreModel(core=core, engine=config).run(program)
        with pytest.raises(ScheduleError) as vector_exc:
            FastVecCoreModel(core=core, engine=config).run(program)
        assert "drain-port conflict" in str(scalar_exc.value)
        assert str(vector_exc.value) == str(scalar_exc.value)

    def test_decode_is_memoized_per_program(self):
        program = cached_program(
            workload_shapes(SCALE4)["table1-m1"]
            if "table1-m1" in workload_shapes(SCALE4)
            else next(iter(workload_shapes(SCALE4).values())),
            CodegenOptions(),
        )
        assert decode_program(program) is decode_program(program)
