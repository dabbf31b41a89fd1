"""The contract of the deferred programs code generation hands out.

A generated program knows its length and name and carries its decode; its
``Instruction`` objects are emitted only when a consumer first iterates or
indexes it.  Everything a consumer can observe must match the eager stream
the emitter builds directly: the objects (tags included), slicing,
concatenation, statistics, reuse analysis, the asm round trip and the
simulated results.
"""

from __future__ import annotations

import dataclasses
import gc
import weakref

import pytest

from repro.cpu.config import CoreConfig
from repro.cpu.decode import decode_program
from repro.cpu.fastvec import FastVecCoreModel
from repro.errors import IsaError
from repro.isa.assembler import assemble, disassemble
from repro.isa.builder import ProgramBuilder
from repro.isa.program import Program
from repro.runtime.registry import resolve_backend
from repro.workloads import codegen
from repro.workloads.codegen import (
    CodegenOptions,
    build_gemm_kernel,
    generate_gemm_program,
)
from repro.workloads.gemm import GemmShape
from repro.workloads.tiling import BlockingConfig, MMOrder, TileLoopNest

from tests.workloads.test_array_lowering import assert_same_decode

#: Edge blocks in M and N, several K steps, non-default mm order.
SHAPE = GemmShape(m=80, n=48, k=100)
OPTIONS = CodegenOptions(
    blocking=BlockingConfig(bm=2, bn=2, mm_order=MMOrder.ALTERNATE),
    scalar_overhead_per_kstep=3,
    scalar_overhead_per_block=5,
)


def eager(shape: GemmShape, options: CodegenOptions) -> Program:
    """The stream as the emitter builds it directly, object by object."""
    kernel = build_gemm_kernel(shape, options)
    builder = ProgramBuilder(kernel.program.name)
    for block in TileLoopNest(kernel.padded, options.blocking).blocks():
        codegen._emit_block(builder, block, kernel.padded, options,
                            kernel.a_host, kernel.b_host, kernel.c_host)
    return builder.build()


def untagged(program: Program) -> list:
    return [dataclasses.replace(inst, tag="") for inst in program]


class TestDeferral:
    def test_len_name_and_decode_build_nothing(self):
        program = generate_gemm_program(SHAPE, OPTIONS)
        assert len(program) == len(eager(SHAPE, OPTIONS))
        assert program.name == "gemm_80x48x100"
        assert decode_program(program) is program.decoded
        FastVecCoreModel().run(program)  # the vectorized kernel reads the decode
        assert not program.built

    def test_first_iteration_is_the_eager_stream(self):
        program = generate_gemm_program(SHAPE, OPTIONS)
        first = list(program)
        assert program.built
        assert first == list(eager(SHAPE, OPTIONS))  # tags included
        assert list(program) == first
        assert all(a is b for a, b in zip(program, first))  # emitted once

    def test_indexing_builds_the_stream(self):
        program = generate_gemm_program(SHAPE, OPTIONS)
        reference = eager(SHAPE, OPTIONS)
        assert program[7] == reference[7] and program[-1] == reference[-1]
        assert program.built

    def test_emit_must_match_the_declared_length(self):
        program = Program.deferred(3, lambda: [], name="short")
        assert len(program) == 3
        with pytest.raises(IsaError, match="emitted 0 instructions, declared 3"):
            list(program)

    def test_decode_memo_does_not_pin_generated_programs(self):
        before = decode_program.cache_info()
        program = generate_gemm_program(SHAPE, OPTIONS)
        decode_program(program)
        after = decode_program.cache_info()
        assert (after.hits, after.misses) == (before.hits, before.misses)
        alive = weakref.ref(program)
        del program
        gc.collect()
        assert alive() is None


class TestUnchangedViews:
    def test_slicing_and_concatenation(self):
        program, reference = generate_gemm_program(SHAPE, OPTIONS), eager(SHAPE, OPTIONS)
        part, expected = program[3:40], reference[3:40]
        assert list(part) == list(expected) and part.name == expected.name
        both, expected = program + reference, reference + reference
        assert list(both) == list(expected) and both.name == expected.name
        # Derived programs carry no decode: walking one agrees with the carried.
        whole = program[:]
        assert whole.decoded is None
        assert_same_decode(decode_program(whole), decode_program(program))

    def test_stats_and_reuse(self):
        for options in (OPTIONS, CodegenOptions()):
            program, reference = generate_gemm_program(SHAPE, options), eager(SHAPE, options)
            assert program.stats == reference.stats
            assert program.weight_reuse_fraction() == reference.weight_reuse_fraction()
            assert repr(program) == repr(reference)

    def test_asm_round_trip(self):
        program = generate_gemm_program(SHAPE, OPTIONS)
        text = disassemble(program)
        assert text == disassemble(eager(SHAPE, OPTIONS))
        assert untagged(assemble(text, name=program.name)) == untagged(program)


class TestSimulation:
    @pytest.mark.parametrize("design", ["baseline", "rasa-dmdb-wls"])
    def test_fast_on_a_non_power_of_two_core_equals_fast_ref(self, design):
        core = CoreConfig(fetch_width=3, retire_width=6)
        program = generate_gemm_program(SHAPE, OPTIONS)
        fast = resolve_backend(design, fidelity="fast", core=core).prepare(program).run()
        assert program.built  # the scalar fallback walks the objects
        fresh = generate_gemm_program(SHAPE, OPTIONS)
        reference = resolve_backend(design, fidelity="fast-ref", core=core)
        assert fast == reference.prepare(fresh).run()

    def test_fast_on_the_default_core_equals_fast_ref_on_the_eager_stream(self):
        program = generate_gemm_program(SHAPE, OPTIONS)
        fast = resolve_backend("rasa-pipe", fidelity="fast").prepare(program).run()
        assert not program.built
        reference = resolve_backend("rasa-pipe", fidelity="fast-ref")
        assert fast == reference.prepare(eager(SHAPE, OPTIONS)).run()
