"""GEMM lowering straight to the run-length skeleton.

:func:`gemm_skeleton` writes down the :class:`repro.cpu.decode.Skeleton`
of the stream :func:`repro.workloads.codegen.build_gemm_kernel` emits —
op for op the one :func:`repro.cpu.decode.decode_program` walks from the
emitted ``Instruction`` objects — without building one object.

The stream is a row-major sequence of register blocks
(:class:`repro.workloads.tiling.TileLoopNest`) of at most four geometries:
interior, right edge, bottom edge and corner.  So the skeleton is rows of
(interior block x count, then the edge block), interior rows x count, then
the edge row; each block its C loads, one K-step template x ``k_tiles``,
then its stores and block scalars, in register operands.  Every tile
operand is produced inside its own block (the C loads, the K step's A/B
loads, the previous K step's mm), and the loop counter ``r0`` is the one
operand that crosses blocks, so a block template plus the carried
readiness of ``r0`` is all the steady-state walk (:mod:`repro.cpu.steady`)
needs to step the stream.

This module sits on the deterministic path: no wall clock, no randomness
(enforced by ``tools/lint_invariants.py``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Tuple

from repro.cpu.decode import (
    KIND_ALU,
    KIND_LOAD,
    KIND_MM,
    KIND_STORE,
    Skeleton,
    SkeletonBlock,
    SkeletonOp,
)
from repro.isa.builder import LOOP_OVERHEAD_PATTERN, ProgramBuilder
from repro.workloads.gemm import GemmShape
from repro.workloads.tiling import Block

if TYPE_CHECKING:
    from repro.workloads.codegen import CodegenOptions

#: Per :data:`LOOP_OVERHEAD_PATTERN` slot: the skeleton op the builder emits.
_OVERHEAD_OPS: Tuple[SkeletonOp, ...] = tuple(
    (KIND_ALU, tuple(r.index for r in inst.scalar_reads),
     tuple(r.index for r in inst.scalar_writes))
    for inst in ProgramBuilder().loop_overhead(len(LOOP_OVERHEAD_PATTERN)).build()
)


def _overhead(count: int) -> Tuple[SkeletonOp, ...]:
    """``count`` scalar ops of :meth:`ProgramBuilder.loop_overhead`."""
    return tuple(_OVERHEAD_OPS[slot % len(_OVERHEAD_OPS)] for slot in range(count))


def _skeleton_block(h: int, w: int, k_tiles: int, options: "CodegenOptions") -> SkeletonBlock:
    """One ``h x w`` block in register operands, in ``codegen._emit_block`` order."""
    blocking = options.blocking
    c = [[blocking.c_reg(i, j).index for j in range(w)] for i in range(h)]
    a = [blocking.a_reg(i).index for i in range(h)]
    b = [blocking.b_reg(j).index for j in range(w)]
    c_tiles = [c[i][j] for i in range(h) for j in range(w)]  # row-major
    pairs = Block(0, 0, h, w).mm_pairs(blocking.mm_order)
    return SkeletonBlock(
        prologue=tuple((KIND_LOAD, reg) for reg in c_tiles),
        kstep=(
            tuple((KIND_LOAD, reg) for reg in a + b)
            + tuple((KIND_MM, c[i][j], a[i], b[j]) for i, j in pairs)
            + _overhead(options.scalar_overhead_per_kstep)
        ),
        k_steps=k_tiles,
        epilogue=(
            tuple((KIND_STORE, reg) for reg in c_tiles)
            + _overhead(options.scalar_overhead_per_block)
        ),
    )


def gemm_skeleton(padded: GemmShape, options: "CodegenOptions") -> Skeleton:
    """The run structure of ``padded``'s kernel stream (module doc)."""
    bm, bn = options.blocking.bm, options.blocking.bn
    k_tiles = padded.k_tiles

    def runs(tiles: int, size: int) -> List[Tuple[int, int]]:
        """``(extent, count)``: whole blocks of ``size``, then the clipped edge."""
        return [(extent, count)
                for extent, count in ((size, tiles // size), (tiles % size, 1))
                if extent and count]

    columns = runs(padded.n_tiles, bn)
    return Skeleton(rows=tuple(
        (tuple((_skeleton_block(h, w, k_tiles, options), count) for w, count in columns),
         repeat)
        for h, repeat in runs(padded.m_tiles, bm)
    ))
