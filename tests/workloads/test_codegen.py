"""Tests for the LIBXSMM-style code generator.

The heavyweight check — generated program executed on the functional engine
reproduces C += A@B bit-exactly — lives in tests/engine/test_engine.py and
tests/integration/; here we verify the *structure* of the streams.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigError
from repro.isa.opcodes import Opcode
from repro.workloads.codegen import CodegenOptions, build_gemm_kernel, generate_gemm_program
from repro.workloads.gemm import GemmShape
from repro.workloads.tiling import BlockingConfig, MMOrder


class TestStreamStructure:
    def test_instruction_counts(self):
        shape = GemmShape(m=64, n=64, k=128)  # 4x4x4 tiles, 2x2 blocking
        program = generate_gemm_program(shape)
        s = program.stats
        assert s.matmuls == shape.mm_count == 64
        # Per block: 4 C loads + 4 C stores; per K step: 2 A + 2 B loads.
        blocks = 2 * 2
        assert s.tile_stores == blocks * 4
        assert s.tile_loads == blocks * 4 + blocks * 4 * 4

    def test_scalar_overhead_knobs(self):
        shape = GemmShape(m=32, n=32, k=64)
        none = generate_gemm_program(
            shape, CodegenOptions(scalar_overhead_per_kstep=0, scalar_overhead_per_block=0)
        )
        assert none.stats.scalars == 0
        some = generate_gemm_program(
            shape, CodegenOptions(scalar_overhead_per_kstep=3, scalar_overhead_per_block=5)
        )
        assert some.stats.scalars == 1 * (2 * 3 + 5)  # one block, two K steps

    @pytest.mark.parametrize("value", [-1, -3, 2.0, True])
    @pytest.mark.parametrize(
        "field", ["scalar_overhead_per_kstep", "scalar_overhead_per_block"]
    )
    def test_overheads_must_be_non_negative_integers(self, field, value):
        """Every tier must accept the options or none: ``fast-ref`` refuses a
        negative count and lowering chokes on a float, and ``2.0`` would
        compare equal to the default yet key differently."""
        with pytest.raises(ConfigError, match=f"{field} must be a non-negative integer"):
            CodegenOptions(**{field: value})

    @pytest.mark.parametrize("blocking", [None, MMOrder.ALTERNATE, (2, 2)])
    def test_blocking_must_be_a_blocking_config(self, blocking):
        """``None`` would key as ``"blocking":null`` and fail only when lowered."""
        with pytest.raises(ConfigError, match="blocking must be a BlockingConfig"):
            CodegenOptions(blocking=blocking)

    def test_each_mm_preceded_by_operand_loads(self):
        # Every mm's A and B registers must have been written earlier in the
        # stream (no use-before-def), and C loaded before first use.
        shape = GemmShape(m=48, n=48, k=96)
        program = generate_gemm_program(shape)
        written = set()
        for inst in program:
            for reg in inst.tile_writes:
                written.add(reg.index)
            if inst.opcode is Opcode.RASA_MM:
                assert inst.mm_a.index in written
                assert inst.mm_b.index in written
                assert inst.mm_c.index in written

    def test_weight_reuse_order_property(self):
        shape = GemmShape(m=64, n=64, k=64)
        reuse = generate_gemm_program(
            shape, CodegenOptions(blocking=BlockingConfig(mm_order=MMOrder.WEIGHT_REUSE))
        )
        alt = generate_gemm_program(
            shape, CodegenOptions(blocking=BlockingConfig(mm_order=MMOrder.ALTERNATE))
        )
        assert reuse.weight_reuse_fraction() == pytest.approx(0.5)
        assert alt.weight_reuse_fraction() == 0.0

    def test_tags_identify_tiles(self):
        program = generate_gemm_program(GemmShape(m=32, n=32, k=32))
        mm_tags = [i.tag for i in program.matmuls()]
        assert mm_tags == [
            "mm[0,0,0]", "mm[1,0,0]", "mm[0,1,0]", "mm[1,1,0]"
        ]


class TestKernelLayout:
    def test_write_inputs_validates_shapes(self, rng):
        from repro.errors import WorkloadError
        from repro.tile.memory import TileMemory

        kernel = build_gemm_kernel(GemmShape(m=32, n=32, k=32))
        with pytest.raises(WorkloadError):
            kernel.write_inputs(
                TileMemory(),
                rng.standard_normal((16, 32)).astype(np.float32),
                rng.standard_normal((32, 32)).astype(np.float32),
            )

    def test_unaligned_kernel_pads(self):
        kernel = build_gemm_kernel(GemmShape(m=20, n=20, k=40))
        assert (kernel.padded.m, kernel.padded.n, kernel.padded.k) == (32, 32, 64)
        assert kernel.program.stats.matmuls == 2 * 2 * 2

    def test_result_roundtrip_without_mms(self, rng):
        # Writing inputs and reading the result back (no execution) must
        # return the initial C.
        from repro.tile.memory import TileMemory

        kernel = build_gemm_kernel(GemmShape(m=24, n=24, k=32))
        mem = TileMemory()
        a = rng.standard_normal((24, 32)).astype(np.float32)
        b = rng.standard_normal((32, 24)).astype(np.float32)
        c = rng.standard_normal((24, 24)).astype(np.float32)
        kernel.write_inputs(mem, a, b, c)
        assert np.array_equal(kernel.read_result(mem), c)


@settings(max_examples=20, deadline=None)
@given(
    m_tiles=st.integers(1, 4),
    n_tiles=st.integers(1, 4),
    k_tiles=st.integers(1, 3),
    order=st.sampled_from([MMOrder.WEIGHT_REUSE, MMOrder.ALTERNATE]),
)
def test_stream_covers_every_tile_once(m_tiles, n_tiles, k_tiles, order):
    """Property: the generated stream computes each (m, n, k) tile exactly once
    and stores each C tile exactly once."""
    shape = GemmShape(m=16 * m_tiles, n=16 * n_tiles, k=32 * k_tiles)
    options = CodegenOptions(blocking=BlockingConfig(bm=2, bn=2, mm_order=order))
    program = generate_gemm_program(shape, options)
    mm_tags = [i.tag for i in program.matmuls()]
    assert len(mm_tags) == len(set(mm_tags)) == shape.mm_count
    store_tags = [
        i.tag for i in program if i.opcode is Opcode.RASA_TS
    ]
    assert len(store_tags) == len(set(store_tags)) == m_tiles * n_tiles
