"""The carried skeleton == the decode walk over the emitted objects.

``build_gemm_kernel`` writes each program's run-length skeleton straight
from the loop nest (:mod:`repro.workloads.array_lowering`); the ``fast``
model then walks it without an ``Instruction`` ever existing.  The oracle
is the object path it replaces: emit the instructions with
``codegen._emit_block`` and walk them with ``decode_program``.  The
carried skeleton, unrolled, must equal that walk op for op, and encode
exactly ``len(program)`` instructions, over

- every registered suite's distinct shapes at scale 4;
- hypothesis-drawn shapes up to 300 per dim (edge-clipped blocks in M and
  N, single-K-step streams) with drawn codegen options;
- every legal ``BlockingConfig`` in both ``MMOrder``s;
- scalar overheads 0-7 per K step and per block (0 means no ALU ops).
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, List

import pytest
from hypothesis import given, settings, strategies as st

from repro.cpu.decode import KIND_ALU, Skeleton, SkeletonBlock, SkeletonOp, decode_program
from repro.isa.builder import ProgramBuilder
from repro.isa.instructions import NUM_TILE_REGS
from repro.isa.program import Program
from repro.workloads import codegen
from repro.workloads.codegen import CodegenOptions, build_gemm_kernel
from repro.workloads.gemm import GemmShape
from repro.workloads.suites import get_suite, suite_names
from repro.workloads.tiling import BlockingConfig, MMOrder, TileLoopNest

LEGAL_BLOCKINGS = tuple(
    BlockingConfig(bm, bn, order)
    for bm, bn in itertools.product(range(1, NUM_TILE_REGS), repeat=2)
    if bm * bn + bm + bn <= NUM_TILE_REGS
    for order in MMOrder
)

#: Streams longer than this are checked on a prefix of whole blocks: the
#: object walk costs ~10 us per instruction, and one scale-4 suite shape
#: (resnet50-train's 401408x32x800 wgrad) lowers to 3.3M instructions.
FULL_WALK_LIMIT = 150_000
PREFIX_BLOCKS = 64


def blocks_of(skeleton: Skeleton) -> Iterator[SkeletonBlock]:
    """Every block of the stream, in program order."""
    for row, repeat in skeleton.rows:
        for _ in range(repeat):
            for block, count in row:
                for _ in range(count):
                    yield block


def unrolled(blocks: Iterable[SkeletonBlock]) -> List[SkeletonOp]:
    """Every op of ``blocks``, in program order."""
    return [
        op
        for block in blocks
        for op in block.prologue + block.kstep * block.k_steps + block.epilogue
    ]


def assert_same_decode(actual: Skeleton, expected: Skeleton) -> None:
    """Two skeletons encode the same stream, op for op."""
    assert actual.instructions == expected.instructions
    assert unrolled(blocks_of(actual)) == unrolled(blocks_of(expected))


def walked(program: Program) -> Skeleton:
    """``decode_program``'s walk of a copy of ``program`` that carries no decode.

    The walk memo is cleared afterwards, so no test keeps the copies (and
    their objects) alive.
    """
    copy = program[:]  # emits the objects
    assert copy.decoded is None
    try:
        return decode_program(copy)
    finally:
        decode_program.cache_clear()


def assert_lowering_matches_walk(shape: GemmShape, options: CodegenOptions) -> None:
    kernel = build_gemm_kernel(shape, options)
    carried = kernel.program.decoded
    assert isinstance(carried, Skeleton)
    assert carried.instructions == len(kernel.program)
    assert decode_program(kernel.program) is carried
    assert not kernel.program.built
    if len(kernel.program) <= FULL_WALK_LIMIT:
        assert_same_decode(carried, walked(kernel.program))
        return
    builder = ProgramBuilder()
    nest = TileLoopNest(kernel.padded, options.blocking)
    for block in itertools.islice(nest.blocks(), PREFIX_BLOCKS):
        codegen._emit_block(builder, block, kernel.padded, options,
                            kernel.a_host, kernel.b_host, kernel.c_host)
    prefix = walked(builder.build())
    assert unrolled(itertools.islice(blocks_of(carried), PREFIX_BLOCKS)) == unrolled(
        blocks_of(prefix)
    )


def _suite_shapes():
    seen = set()
    for name in suite_names():
        for entry in get_suite(name, scale=4).distinct():
            padded = entry.shape.tile_padded()
            if padded.dims not in seen:
                seen.add(padded.dims)
                yield pytest.param(padded, id=f"{name}-{'x'.join(map(str, padded.dims))}")


@pytest.mark.parametrize("shape", list(_suite_shapes()))
def test_every_suite_shape_matches_the_walk(shape):
    assert_lowering_matches_walk(shape, CodegenOptions())


@pytest.mark.parametrize("blocking", LEGAL_BLOCKINGS, ids=str)
@pytest.mark.parametrize(
    "dims", [(16, 16, 32), (80, 112, 32), (112, 80, 160), (48, 176, 96)], ids=str
)
def test_every_blocking_matches_the_walk(blocking, dims):
    assert_lowering_matches_walk(GemmShape(*dims), CodegenOptions(blocking=blocking))


@pytest.mark.parametrize("per_kstep", range(8))
@pytest.mark.parametrize("per_block", range(8))
def test_every_scalar_overhead_matches_the_walk(per_kstep, per_block):
    options = CodegenOptions(
        blocking=BlockingConfig(bm=3, bn=1),
        scalar_overhead_per_kstep=per_kstep,
        scalar_overhead_per_block=per_block,
    )
    assert_lowering_matches_walk(GemmShape(80, 40, 96), options)


def test_no_overhead_lowers_no_alu_ops():
    options = CodegenOptions(scalar_overhead_per_kstep=0, scalar_overhead_per_block=0)
    skeleton = decode_program(build_gemm_kernel(GemmShape(48, 48, 64), options).program)
    assert not any(op[0] == KIND_ALU for op in unrolled(blocks_of(skeleton)))


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(1, 300),
    n=st.integers(1, 300),
    k=st.integers(1, 300),
    blocking=st.sampled_from(LEGAL_BLOCKINGS),
    per_kstep=st.integers(0, 7),
    per_block=st.integers(0, 7),
)
def test_drawn_shapes_and_options_match_the_walk(m, n, k, blocking, per_kstep, per_block):
    options = CodegenOptions(blocking, per_kstep, per_block)
    assert_lowering_matches_walk(GemmShape(m, n, k), options)
