"""Bit-identity of the ``fast`` model against the scalar reference.

The skeleton walk behind ``fast`` (`repro.cpu.fastvec`, `repro.cpu.steady`)
is only allowed to exist because it is *exactly* the scalar
`FastCoreModel` — same `SimResult` field for field, same
exceptions.  These tests enforce that contract three ways:

- a hypothesis sweep over random well-formed programs, random designs and
  random core configurations (non-power-of-two widths and several store
  ports included), each walked op by op as a one-block skeleton, with the
  WLBP FF/FS overlap flag drawn too;
- every suite workload at scale 4 across all 8 paper designs, the exact
  grid the CI equality oracle gates on, plus one workload with that flag
  off — no registered design turns it off, so these two are the only
  checks of the walk's FS-end bypass floor against the reference
  :class:`~repro.engine.scheduler.EngineScheduler`;
- targeted edge cases (empty programs, drain-conflict exceptions, decode
  memoization identity).

Generated programs take the steady-state walk (`repro.cpu.steady`), which
steps a few periods of each repeating run and jumps the rest, so these
tests also pin how few instructions it steps (`last_walked`) — a period
detector that never fired would pass every equality test — and draw
generated programs past the detector's limits (more than 8 blocks per row,
up to 64 K steps, non-power-of-two widths) against the scalar reference.

The walk memoizes whole blocks across runs (the "Memo" section of
`repro.cpu.steady`).  Every test here starts from an empty memo, so a
`last_walked` pin still proves the period detector fired, not that an
earlier test left a hit behind; `TestGeneratedDifferential` keeps one warm
memo across its draws, and `TestWalkMemo` runs against memos warmed by
walks that differ in a single input.
"""

from __future__ import annotations

import collections
import dataclasses
import sys
import threading
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from repro.cpu import analytic, fast, fastvec, steady
from repro.cpu.analytic import AnalyticCoreModel
from repro.cpu.config import CoreConfig
from repro.cpu.decode import decode_program
from repro.cpu.fast import FastCoreModel
from repro.cpu.fastvec import FastVecCoreModel
from repro.cpu.result import SimResult
from repro.cpu.steady import SteadyStateWalk
from repro.engine.config import ControlPolicy, EngineConfig
from repro.engine.designs import DESIGNS
from repro.errors import ScheduleError
from repro.experiments.runner import ExperimentSettings, run_design, workload_shapes
from repro.isa.builder import ProgramBuilder
from repro.isa.instructions import ScalarReg, TileReg
from repro.isa.opcodes import Opcode
from repro.isa.program import Program
from repro.runtime.session import cached_program
from repro.systolic.pe import BASELINE_PE
from repro.workloads.array_lowering import gemm_skeleton
from repro.workloads.codegen import CodegenOptions, generate_gemm_program
from repro.workloads.gemm import GemmShape
from repro.workloads.tiling import BlockingConfig, MMOrder

from tests.workloads.test_array_lowering import LEGAL_BLOCKINGS

T = [TileReg(i) for i in range(8)]

SCALE4 = ExperimentSettings(scale=4)

#: Most instructions one Table I program at scale 4 steps on any design
#: (ResNet50-2, 50,176 instructions long, steps 192).
TABLE1_MOST_WALKED = 282

#: The counterfactual wide-output geometry whose drains collide.
DRAIN_CONFLICT_ENGINE = EngineConfig(
    pe=BASELINE_PE, control=ControlPolicy.WLBP, tile_m=8, tile_n=32, tile_k=32
)


@pytest.fixture(autouse=True)
def cold_walk_memo():
    """Each test starts with an empty walk memo (module doc)."""
    SteadyStateWalk.cache_clear()


def assert_identical(
    program, config: EngineConfig, core=CoreConfig()
) -> FastVecCoreModel:
    """Full-result equality, every SimResult field; returns the ``fast`` model."""
    vector = FastVecCoreModel(core=core, engine=config)
    actual = vector.run(program)
    expected = FastCoreModel(core=core, engine=config).run(program)
    assert dataclasses.asdict(actual) == dataclasses.asdict(expected)
    return vector


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
    """Core shapes: non-power-of-two fetch/retire widths, several ports and
    tiny ROBs must be bit-identical too."""
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
        vector = assert_identical(program, config, core=core)
        assert vector.last_walked == len(program)  # one block: every op stepped


class TestSuitePrograms:
    """The CI oracle grid: every scale-4 suite workload x all 8 designs."""

    @pytest.mark.parametrize(
        "workload", sorted(workload_shapes(SCALE4)), ids=str
    )
    @pytest.mark.parametrize("design", sorted(DESIGNS), ids=str)
    def test_suite_workload_bit_identical(self, workload, design):
        shape = workload_shapes(SCALE4)[workload]
        program = cached_program(shape, CodegenOptions())
        vector = assert_identical(program, DESIGNS[design].config)
        # The plain run jumped: it stepped a few periods, not the stream.
        assert vector.last_walked <= TABLE1_MOST_WALKED

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
        config = DRAIN_CONFLICT_ENGINE
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

    def test_drain_conflict_on_the_skeleton_walk_raises_identically(self):
        """The walk raises fast-ref's exact text, and builds no objects."""
        program = generate_gemm_program(GemmShape(256, 64, 512))
        with pytest.raises(ScheduleError) as vector_exc:
            FastVecCoreModel(engine=DRAIN_CONFLICT_ENGINE).run(program)
        assert not program.built
        with pytest.raises(ScheduleError) as scalar_exc:
            FastCoreModel(engine=DRAIN_CONFLICT_ENGINE).run(program)
        assert str(vector_exc.value) == str(scalar_exc.value)
        assert str(vector_exc.value) == "drain-port conflict between mm 0 and 1: 123 > 99"

    def test_decode_is_memoized_per_program(self):
        program = cached_program(
            workload_shapes(SCALE4)["table1-m1"]
            if "table1-m1" in workload_shapes(SCALE4)
            else next(iter(workload_shapes(SCALE4).values())),
            CodegenOptions(),
        )
        assert decode_program(program) is decode_program(program)


def assert_jumps(program, config, most, core=CoreConfig()) -> SimResult:
    """``fast == fast-ref``, with at most ``most`` instructions stepped."""
    vector = FastVecCoreModel(core=core, engine=config)
    actual = vector.run(program)
    assert vector.last_walked <= most
    assert actual == FastCoreModel(core=core, engine=config).run(program)
    return actual


class TestSteadyStateJump:
    """The skeleton walk jumps where the state recurs, and stays exact."""

    @pytest.mark.parametrize("design", sorted(DESIGNS), ids=str)
    @pytest.mark.parametrize(
        ("dims", "most"),
        [
            ((256, 256, 512), 268),  # 11,136 instructions
            ((32, 32, 25088), 134),  # one block of 784 K steps: 7,854
        ],
        ids=str,
    )
    def test_default_codegen_steps_a_few_periods(self, dims, most, design):
        assert_jumps(generate_gemm_program(GemmShape(*dims)), DESIGNS[design].config,
                     most=most)

    def test_period_four_block_run(self):
        # Blocks repeat with period 4, after 7 blocks: 2,970 instructions.
        options = CodegenOptions(
            blocking=BlockingConfig(1, 1), scalar_overhead_per_block=20
        )
        program = generate_gemm_program(GemmShape(157, 168, 12), options)
        assert_jumps(program, DESIGNS["rasa-db-wls"].config, most=270)

    def test_small_rob(self):
        program = generate_gemm_program(GemmShape(128, 128, 128))  # 864
        assert_jumps(program, DESIGNS["rasa-dmdb-wls"].config,
                     core=CoreConfig(rob_size=16), most=108)

    def test_non_power_of_two_widths_jump_exactly(self):
        # Float time read one cycle high here at widths 3/6 (4,974,628) and
        # kept the walk from jumping; in ticks it jumps and reads 4,974,627.
        options = CodegenOptions(
            blocking=BlockingConfig(1, 3, MMOrder.ALTERNATE),
            scalar_overhead_per_kstep=0,
            scalar_overhead_per_block=12,
        )
        core = CoreConfig(rob_size=25, fetch_width=3, retire_width=6, store_ports=2,
                          l1_latency=10, pipeline_stages=10)
        program = generate_gemm_program(GemmShape(316, 302, 1295), options)
        config = DESIGNS["rasa-wlbp"].config
        result = assert_jumps(program, config, core=core, most=227)  # of 39,340
        assert result.cycles == 4_974_627


class TestWalkMemory:
    """A walk keeps the ROB ring and a few snapshots, not a history.

    A history of one retire time per stepped instruction would peak at
    about 360 KiB on each program below (11,136 instructions) and grow
    linearly with length.
    """

    #: Peak bytes one walk may allocate: the ring, the snapshots, the result.
    MOST_BYTES = 64 * 1024

    SHAPE = GemmShape(256, 256, 512)

    def assert_bounded(self, program, core) -> int:
        """Bounded memory and ``fast == fast-ref``; returns the ops stepped."""
        config = DESIGNS["rasa-dmdb-wls"].config
        vector = FastVecCoreModel(core=core, engine=config)
        decode_program(program)  # a hand-built program's walk is memoized
        tracemalloc.start()
        try:
            actual = vector.run(program)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(program) == 11_136
        assert peak < self.MOST_BYTES
        assert actual == FastCoreModel(core=core, engine=config).run(program)
        return vector.last_walked

    def test_generated_program_at_non_power_of_two_widths(self):
        # It jumps as at width 4 (test_default_codegen_steps_a_few_periods).
        program = generate_gemm_program(self.SHAPE)
        assert self.assert_bounded(program, CoreConfig(fetch_width=3, retire_width=6)) <= 268

    def test_hand_built_program(self):
        program = Program(list(generate_gemm_program(self.SHAPE)), name="hand")
        assert self.assert_bounded(program, CoreConfig()) == len(program)  # no jump


@st.composite
def generated_points(draw):
    """Generated programs past the detector's limits, on drawn cores.

    Odd tile counts, rows of more than 8 blocks, up to 64 K steps; any
    legal blocking and order; widths powers of two or not (the walk jumps
    at both).  The tile product is capped so fast-ref stays quick.
    """
    blocking = draw(st.sampled_from(LEGAL_BLOCKINGS))
    m_tiles = draw(st.integers(1, 12))
    n_tiles = draw(st.integers(1, 28))
    k_tiles = draw(st.integers(1, min(64, 6000 // (m_tiles * n_tiles))))
    shape = GemmShape(
        16 * m_tiles - draw(st.integers(0, 15)),
        16 * n_tiles - draw(st.integers(0, 15)),
        32 * k_tiles - draw(st.integers(0, 31)),
    )
    options = CodegenOptions(
        blocking, draw(st.integers(0, 6)), draw(st.integers(0, 24))
    )
    widths = st.sampled_from([1, 2, 3, 4, 6, 8])
    core = CoreConfig(
        rob_size=draw(st.integers(8, 128)),
        fetch_width=draw(widths),
        retire_width=draw(widths),
        load_ports=draw(st.integers(1, 3)),
        store_ports=draw(st.integers(1, 2)),
        alu_ports=draw(st.integers(1, 4)),
        l1_latency=draw(st.integers(1, 12)),
    )
    config = dataclasses.replace(
        DESIGNS[draw(st.sampled_from(sorted(DESIGNS)))].config,
        wlbp_ff_overlaps_fs=draw(st.booleans()),
    )
    return generate_gemm_program(shape, options), core, config


#: Walk inputs one field away from the default core on ``rasa-dmdb-wls``
#: (or, for the bypass floor, ``rasa-dmdb-wlbp``): (core, design, FF/FS
#: overlap).
ONE_INPUT_AWAY = {
    "core-clock": (CoreConfig(clock_mhz=1000), "rasa-dmdb-wls", True),
    "l1-latency": (CoreConfig(l1_latency=7), "rasa-dmdb-wls", True),
    "memory-latency": (CoreConfig(l1_latency=11), "rasa-dmdb-wls", True),  # tile load 27
    "rob-size": (CoreConfig(rob_size=48), "rasa-dmdb-wls", True),
    "port-split": (CoreConfig(load_ports=1, store_ports=2), "rasa-dmdb-wls", True),
    "ff-after-fs": (CoreConfig(), "rasa-dmdb-wlbp", False),
}


class TestWalkMemo:
    """A memo hit replays exactly what stepping the block would do."""

    SHAPE = GemmShape(128, 128, 256)

    @pytest.mark.parametrize("variant", sorted(ONE_INPUT_AWAY), ids=str)
    def test_a_warm_memo_answers_only_its_own_walk_inputs(self, variant):
        core, design, ff_overlaps_fs = ONE_INPUT_AWAY[variant]
        program = generate_gemm_program(self.SHAPE)
        warm = DESIGNS[design].config
        FastVecCoreModel(engine=warm).run(program)
        AnalyticCoreModel(engine=warm).run_shape(self.SHAPE)
        assert SteadyStateWalk.cache_info().hits > 0  # analytic replayed fast's blocks
        config = dataclasses.replace(warm, wlbp_ff_overlaps_fs=ff_overlaps_fs)
        expected = FastCoreModel(core=core, engine=config).run(program)
        before = SteadyStateWalk.cache_info()
        vector = FastVecCoreModel(core=core, engine=config)
        assert vector.run(program) == expected
        assert SteadyStateWalk.cache_info().hits == before.hits  # nothing to reuse
        assert AnalyticCoreModel(core, config).run_shape(self.SHAPE) == expected

    def test_a_block_reentered_at_another_floor_phase_is_walked(self):
        # The walk re-enters a block from the same relative state with the
        # floor at another phase of the engine clock; a memo blind to the
        # floor modulo the ratio replays it 13 cycles early.
        options = CodegenOptions(BlockingConfig(3, 1, MMOrder.ALTERNATE), 6, 19)
        program = generate_gemm_program(GemmShape(55, 214, 31), options)
        assert_jumps(program, DESIGNS["rasa-pipe"].config, core=CoreConfig(rob_size=8),
                     most=len(program))

    def test_entries_that_differ_only_in_the_rob_ring_are_walked_apart(self):
        # Two walks enter one block at the same floor, with every register,
        # port and engine time equal, but different ROB rings.  A ROB of 4
        # makes the block's first dispatches wait on the ring's oldest
        # entries; a memo keyed without the ring replays the first entry's
        # effect for the second.
        core = CoreConfig(rob_size=4)
        config = DESIGNS["rasa-dmdb-wls"].config
        skeleton = gemm_skeleton(GemmShape(32, 32, 64), CodegenOptions())  # one block
        floor = 40 * core.ticks_per_cycle
        late = 2 * floor

        def walk_from(ring):
            walk = SteadyStateWalk(core, config)
            walk.dispatch = floor
            walk.retires.extend(ring)
            walk.retire = ring[-1]
            return walk.run(skeleton, "ring")

        rings = ([floor - 3, floor - 2, floor - 1, late], [late - 3, late - 2, late - 1, late])
        cold = []
        for ring in rings:
            SteadyStateWalk.cache_clear()
            cold.append(walk_from(ring))
        assert cold[0].cycles != cold[1].cycles  # the ring alone moves the result
        SteadyStateWalk.cache_clear()
        assert [walk_from(ring) for ring in rings] == cold
        assert SteadyStateWalk.cache_info().misses == 2

    def test_suite_grid_is_equal_with_the_memo_cold_and_warm(self):
        points = [
            (shape, DESIGNS[design].config)
            for shape in workload_shapes(SCALE4).values()
            for design in sorted(DESIGNS)
        ]

        def fast_run(shape, config):
            return FastVecCoreModel(engine=config).run(cached_program(shape, CodegenOptions()))

        cold = []
        for shape, config in points:
            SteadyStateWalk.cache_clear()
            cold.append(fast_run(shape, config))
        SteadyStateWalk.cache_clear()
        filling = [fast_run(shape, config) for shape, config in points]
        first = SteadyStateWalk.cache_info()
        warm = [fast_run(shape, config) for shape, config in points]
        analytic_warm = [
            AnalyticCoreModel(engine=config).run_shape(shape) for shape, config in points
        ]
        second = SteadyStateWalk.cache_info()
        assert cold == filling == warm
        # analytic names the point after the shape, fast after the program
        assert analytic_warm == [
            dataclasses.replace(result, program=shape.name)
            for result, (shape, _) in zip(warm, points)
        ]
        # The second pass reuses every block: all hits, no new entries.
        assert second.misses == first.misses and second.hits > first.hits
        assert second.currsize == first.currsize <= second.maxsize

    def test_memo_never_exceeds_its_bound(self, monkeypatch):
        monkeypatch.setattr(steady, "BLOCK_MEMO_SIZE", 5)
        stored = 0
        for design in ("baseline", "rasa-wlbp", "rasa-dmdb-wls"):
            for dims in ((128, 128, 256), (96, 80, 200), (256, 64, 512)):
                program = generate_gemm_program(GemmShape(*dims))
                config = DESIGNS[design].config
                assert FastVecCoreModel(engine=config).run(program) == (
                    FastCoreModel(engine=config).run(program)
                )
                info = SteadyStateWalk.cache_info()
                assert info.maxsize == 5 and info.currsize <= 5
                stored = info.misses
        assert stored > 5  # it filled, and was cleared

    def test_walks_in_threads_share_the_memo(self, monkeypatch):
        points = [
            (GemmShape(*dims), DESIGNS[design].config)
            for dims in ((128, 128, 256), (96, 80, 200), (256, 64, 512), (48, 176, 96))
            for design in ("baseline", "rasa-wlbp", "rasa-dmdb-wls")
        ]
        expected = []
        for shape, config in points:
            SteadyStateWalk.cache_clear()
            expected.append(AnalyticCoreModel(engine=config).run_shape(shape))
        monkeypatch.setattr(steady, "BLOCK_MEMO_SIZE", 16)  # clears under contention
        SteadyStateWalk.cache_clear()
        results = {}

        def work(turn: int) -> None:
            order = points[turn:] + points[:turn]
            results[turn] = [
                AnalyticCoreModel(engine=config).run_shape(shape) for shape, config in order
            ]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(turn,)) for turn in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for turn in range(4):
            assert results[turn] == expected[turn:] + expected[:turn]
        assert SteadyStateWalk.cache_info().hits > 0

    def test_hand_built_program_stays_out_of_the_memo(self):
        program = Program(list(generate_gemm_program(self.SHAPE)), name="hand")
        assert_jumps(program, DESIGNS["rasa-dmdb-wls"].config, most=len(program))
        info = SteadyStateWalk.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 0, 0)

    def test_a_block_that_raises_stores_nothing(self):
        program = generate_gemm_program(GemmShape(256, 64, 512))
        with pytest.raises(ScheduleError, match="drain-port conflict between mm 0 and 1"):
            FastVecCoreModel(engine=DRAIN_CONFLICT_ENGINE).run(program)
        info = SteadyStateWalk.cache_info()
        assert (info.misses, info.currsize) == (1, 0)

    def test_block_runs_still_jump(self):
        # 32 x 32 blocks: the period detector, not one memo hit per block,
        # must cover the grid.
        program = generate_gemm_program(GemmShape(1024, 1024, 64))
        assert_jumps(program, DESIGNS["rasa-dmdb-wls"].config, most=300)
        info = SteadyStateWalk.cache_info()
        assert info.hits + info.misses <= 12


class TestGeneratedDifferential:
    @settings(max_examples=100, deadline=None)
    @given(point=generated_points())
    def test_generated_programs_equal_fast_ref(self, point):
        program, core, config = point
        vector = FastVecCoreModel(core=core, engine=config)
        assert vector.run(program) == FastCoreModel(core=core, engine=config).run(program)


def test_fast_point_enters_through_the_names_perfbench_traces(monkeypatch):
    """perfbench's tracer wraps these names; a moved entry point would
    leave its layer silent."""
    calls: collections.Counter = collections.Counter()

    def count(label: str, owner, name: str) -> None:
        original = owner.__dict__[name]  # defined right there, as the tracer needs

        def wrapper(*args, **kwargs):
            calls[label] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    count("fast", fastvec.FastVecCoreModel, "run")
    count("decode", fastvec, "decode_program")
    count("fast-ref", fast.FastCoreModel, "run")
    count("analytic", analytic.AnalyticCoreModel, "run_shape")
    shape = GemmShape(96, 80, 200)
    run_design("rasa-dmdb-wls", shape)
    assert calls == {"fast": 1, "decode": 1}  # and no scalar fallback
    run_design("rasa-dmdb-wls", shape, fidelity="analytic")
    assert calls == {"fast": 1, "decode": 1, "analytic": 1}  # and still no fast-ref
    # perfbench reads the walk memo's statistics: one miss, then hits.
    before = decode_program.cache_info()
    hand_built = ProgramBuilder("hand").tl(T[0], 0).build()
    decode_program(hand_built)
    decode_program(hand_built)
    after = decode_program.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses + 1)
