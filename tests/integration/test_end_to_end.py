"""End-to-end integration: layers -> codegen -> functional engine -> oracle.

These are the tests that tie every substrate together: a convolution layer
is lowered to GEMM, code-generated into a RASA instruction stream, executed
functionally on the matrix engine (with real tile registers, VNNI-packed B,
simulation memory), timed on both CPU models, and checked bit-exactly
against the NumPy oracles — for multiple design points.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cpu.fast import FastCoreModel
from repro.engine.designs import DESIGNS
from repro.engine.engine import MatrixEngine
from repro.tile.memory import TileMemory
from repro.workloads.codegen import CodegenOptions, build_gemm_kernel
from repro.workloads.gemm import GemmShape
from repro.workloads.lowering import (
    conv_reference,
    filters_to_gemm_b,
    gemm_output_to_conv,
    im2col,
)
from repro.workloads.ops import ConvOp, lower
from repro.workloads.reference import gemm_reference
from repro.workloads.tiling import BlockingConfig, MMOrder


class TestConvThroughFullPipeline:
    """A small convolution through the complete simulated stack."""

    @pytest.mark.parametrize("design_key", ["baseline", "rasa-wlbp", "rasa-dmdb-wls"])
    def test_conv_layer_exact(self, rng, design_key):
        layer = ConvOp("tiny", batch=2, filters=18, channels=3, x=5, y=5, r=3, s=3)
        inputs = rng.standard_normal((2, 3, 5, 5)).astype(np.float32)
        weights = rng.standard_normal((18, 3, 3, 3)).astype(np.float32)

        # Lower to GEMM.
        a = im2col(inputs, 3, 3)
        b = filters_to_gemm_b(weights)
        (_, shape, _), = lower(layer)
        assert a.shape == (shape.m, shape.k)

        # Generate, place in memory, execute on the engine.
        config = DESIGNS[design_key].config
        kernel = build_gemm_kernel(shape)
        memory = TileMemory()
        kernel.write_inputs(memory, a, b)
        engine = MatrixEngine(config, functional="oracle", memory=memory)
        engine.run(kernel.program)
        out = kernel.read_result(memory)

        # Bit-exact vs the pipeline oracle...
        expected = gemm_reference(a, b, chains=config.pe.psum_chains)
        assert np.array_equal(out, expected)

        # ...and close to the true convolution (BF16 quantization tolerance).
        conv_out = gemm_output_to_conv(out, 2, 5, 5)
        direct = conv_reference(inputs.astype(np.float64), weights.astype(np.float64))
        np.testing.assert_allclose(conv_out, direct, rtol=0.02, atol=0.02)


class TestOrderingInvariance:
    def test_mm_order_changes_timing_not_results(self, rng):
        """WEIGHT_REUSE vs ALTERNATE ordering must produce identical data
        (accumulation per C tile is in the same k order) but different WLBP
        timing — the crux of why codegen ordering matters."""
        shape = GemmShape(m=64, n=64, k=128, name="order")
        a = rng.standard_normal((64, 128)).astype(np.float32)
        b = rng.standard_normal((128, 64)).astype(np.float32)
        outputs = {}
        cycles = {}
        for order in (MMOrder.WEIGHT_REUSE, MMOrder.ALTERNATE):
            options = CodegenOptions(blocking=BlockingConfig(bm=2, bn=2, mm_order=order))
            kernel = build_gemm_kernel(shape, options)
            memory = TileMemory()
            kernel.write_inputs(memory, a, b)
            engine = MatrixEngine(
                DESIGNS["rasa-wlbp"].config, functional="oracle", memory=memory
            )
            engine.run(kernel.program)
            outputs[order] = kernel.read_result(memory)
            cycles[order] = FastCoreModel(
                engine=DESIGNS["rasa-wlbp"].config
            ).run(kernel.program).cycles
        assert np.array_equal(outputs[MMOrder.WEIGHT_REUSE], outputs[MMOrder.ALTERNATE])
        assert cycles[MMOrder.WEIGHT_REUSE] < cycles[MMOrder.ALTERNATE]


class TestTimingFunctionalConsistency:
    def test_engine_and_cpu_model_agree_on_bypasses(self, rng):
        """The functional engine and the CPU timing model must count exactly
        the same WLBP bypasses on the same program."""
        shape = GemmShape(m=96, n=64, k=128, name="consistency")
        kernel = build_gemm_kernel(shape)
        config = DESIGNS["rasa-wlbp"].config
        engine = MatrixEngine(config, functional="off")
        engine_report = engine.run(kernel.program)
        cpu_result = FastCoreModel(engine=config).run(kernel.program)
        assert engine_report.stats.bypass_count == cpu_result.bypass_count
        assert engine_report.stats.mm_count == cpu_result.mm_count


class TestSerializedAssemblyPipeline:
    def test_disassemble_reassemble_execute(self, rng):
        """A kernel survives a text round-trip and still computes correctly."""
        from repro.isa.assembler import assemble, disassemble

        shape = GemmShape(m=32, n=32, k=64, name="asm")
        options = CodegenOptions(
            scalar_overhead_per_kstep=0, scalar_overhead_per_block=0
        )
        kernel = build_gemm_kernel(shape, options)
        text = disassemble(kernel.program)
        program = assemble(text, name="reassembled")
        a = rng.standard_normal((32, 64)).astype(np.float32)
        b = rng.standard_normal((64, 32)).astype(np.float32)
        memory = TileMemory()
        kernel.write_inputs(memory, a, b)
        engine = MatrixEngine(DESIGNS["baseline"].config, functional="oracle", memory=memory)
        engine.run(program)
        out = kernel.read_result(memory)
        assert np.array_equal(out, gemm_reference(a, b))
