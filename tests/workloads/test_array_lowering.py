"""Direct array lowering == the decode walk over the emitted objects.

``build_gemm_kernel`` builds each program's structure-of-arrays decode
straight from the loop nest (:mod:`repro.workloads.array_lowering`); the
vectorized fast model then runs on it without an ``Instruction`` ever
existing.  The oracle is the object path it replaces: emit the
instructions with ``codegen._emit_block`` and walk them with
``repro.cpu.decode``.  Every field must be equal, dtypes and the per-op
``alu_reads`` tuples included, over

- every registered suite's distinct shapes at scale 4;
- hypothesis-drawn shapes up to 300 per dim (edge-clipped blocks in M and
  N, single-K-step streams) with drawn codegen options;
- every legal ``BlockingConfig`` in both ``MMOrder``s;
- scalar overheads 0-7 per K step and per block (0 means no ALU ops).
"""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cpu.decode import KIND_ALU, DecodedProgram, _decode, decode_program
from repro.isa.builder import ProgramBuilder
from repro.isa.instructions import NUM_TILE_REGS
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


def assert_same_decode(actual: DecodedProgram, expected: DecodedProgram) -> None:
    for field in dataclasses.fields(DecodedProgram):
        got, want = getattr(actual, field.name), getattr(expected, field.name)
        if isinstance(want, np.ndarray):
            assert got.dtype == want.dtype, field.name
            np.testing.assert_array_equal(got, want, err_msg=field.name)
        else:
            assert got == want, field.name


def prefix_of(decoded: DecodedProgram, n: int) -> DecodedProgram:
    """``decoded`` restricted to its first ``n`` instructions.

    Every array is in program order and every writer precedes its reader,
    so this is exactly the decode of the stream's first ``n`` instructions.
    """
    def cut(positions: np.ndarray) -> int:
        return int(np.searchsorted(positions, n))

    loads, stores, mms, alus = (
        cut(decoded.load_pos), cut(decoded.store_pos), cut(decoded.mm_pos),
        cut(decoded.alu_pos),
    )
    return DecodedProgram(
        n=n,
        kind=decoded.kind[:n],
        load_pos=decoded.load_pos[:loads],
        load_addr=decoded.load_addr[:loads],
        load_stride=decoded.load_stride[:loads],
        store_pos=decoded.store_pos[:stores],
        store_writer=decoded.store_writer[:stores],
        mm_pos=decoded.mm_pos[:mms],
        mm_a_writer=decoded.mm_a_writer[:mms],
        mm_b_writer=decoded.mm_b_writer[:mms],
        mm_c_writer=decoded.mm_c_writer[:mms],
        mm_b_reg=decoded.mm_b_reg[:mms],
        mm_b_version=decoded.mm_b_version[:mms],
        alu_pos=decoded.alu_pos[:alus],
        alu_reads=decoded.alu_reads[:alus],
    )


def assert_lowering_matches_walk(shape: GemmShape, options: CodegenOptions) -> None:
    kernel = build_gemm_kernel(shape, options)
    carried = kernel.program.decoded
    assert isinstance(carried, DecodedProgram)
    assert carried.n == len(kernel.program)
    assert not kernel.program.built
    if len(kernel.program) <= FULL_WALK_LIMIT:
        assert_same_decode(carried, _decode(kernel.program))  # emits the objects
        return
    builder = ProgramBuilder()
    nest = TileLoopNest(kernel.padded, options.blocking)
    for block in itertools.islice(nest.blocks(), PREFIX_BLOCKS):
        codegen._emit_block(builder, block, kernel.padded, options,
                            kernel.a_host, kernel.b_host, kernel.c_host)
    prefix = builder.build()
    assert_same_decode(prefix_of(carried, len(prefix)), _decode(prefix))


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
    decoded = decode_program(build_gemm_kernel(GemmShape(48, 48, 64), options).program)
    assert decoded.alu_pos.size == 0 and decoded.alu_reads == ()
    assert not (decoded.kind == KIND_ALU).any()


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
