"""LIBXSMM-style code generation: GEMM -> RASA instruction stream.

This substitutes for the paper's Intel-SDE trace collection: instead of
tracing LIBXSMM binaries, we generate the equivalent dynamic stream
directly — the same C-resident register-blocked loop nest, the same
Algorithm-1 register assignment and mm ordering, plus configurable scalar
loop overhead standing in for the pointer arithmetic between tile ops.

The generator also lays the three operand matrices out in simulation memory
(A row-major BF16, B VNNI-packed BF16, C row-major FP32) so the very same
program can be executed functionally and checked against the NumPy oracle.

Lowering builds the stream's structure-of-arrays decode directly
(:mod:`repro.workloads.array_lowering`) and returns a *deferred*
:class:`~repro.isa.program.Program` carrying it: the ``Instruction``
objects are emitted by :func:`_emit_block` only when a consumer first
iterates or indexes the program (asm/disasm, the verifier, bounds and the
object-walking models), never for the vectorized ``fast`` model.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Optional

import numpy as np

from repro.errors import WorkloadError
from repro.isa.builder import ProgramBuilder
from repro.isa.program import Program
from repro.tile.hostmem import HostMatrix, layout_gemm_operands
from repro.tile.memory import TileMemory
from repro.tile.vnni import pack_b_vnni
from repro.workloads.array_lowering import lower_gemm_arrays
from repro.workloads.gemm import GemmShape
from repro.workloads.tiling import Block, BlockingConfig, TileLoopNest


@dataclasses.dataclass(frozen=True)
class CodegenOptions:
    """Code generation knobs.

    Attributes:
        blocking: register blocking + mm ordering.
        scalar_overhead_per_kstep: scalar instructions emitted per K step
            (pointer bumps / loop test), approximating LIBXSMM's overhead.
        scalar_overhead_per_block: scalar instructions per register block
            (block setup / loop control).
    """

    blocking: BlockingConfig = BlockingConfig()
    scalar_overhead_per_kstep: int = 2
    scalar_overhead_per_block: int = 6


@dataclasses.dataclass
class GemmKernel:
    """A generated kernel: the program plus its operand layout in memory."""

    shape: GemmShape            # logical (possibly unaligned) dimensions
    padded: GemmShape           # tile-aligned dimensions the program covers
    options: CodegenOptions
    a_host: HostMatrix
    b_host: HostMatrix          # VNNI-packed: (K/2) x (2N)
    c_host: HostMatrix
    program: Program

    def write_inputs(
        self,
        memory: TileMemory,
        a: np.ndarray,
        b: np.ndarray,
        c: Optional[np.ndarray] = None,
    ) -> None:
        """Zero-pad operands to the padded shape and place them in memory."""
        a = np.asarray(a, dtype=np.float32)
        b = np.asarray(b, dtype=np.float32)
        if a.shape != (self.shape.m, self.shape.k):
            raise WorkloadError(f"A must be {self.shape.m}x{self.shape.k}, got {a.shape}")
        if b.shape != (self.shape.k, self.shape.n):
            raise WorkloadError(f"B must be {self.shape.k}x{self.shape.n}, got {b.shape}")
        pa = np.zeros((self.padded.m, self.padded.k), dtype=np.float32)
        pa[: self.shape.m, : self.shape.k] = a
        pb = np.zeros((self.padded.k, self.padded.n), dtype=np.float32)
        pb[: self.shape.k, : self.shape.n] = b
        pc = np.zeros((self.padded.m, self.padded.n), dtype=np.float32)
        if c is not None:
            c = np.asarray(c, dtype=np.float32)
            if c.shape != (self.shape.m, self.shape.n):
                raise WorkloadError(
                    f"C must be {self.shape.m}x{self.shape.n}, got {c.shape}"
                )
            pc[: self.shape.m, : self.shape.n] = c
        self.a_host.store(memory, pa)
        self.b_host.store(memory, pack_b_vnni(pb))
        self.c_host.store(memory, pc)

    def read_result(self, memory: TileMemory) -> np.ndarray:
        """Read back the (unpadded) M x N float32 result."""
        full = self.c_host.load(memory)
        return full[: self.shape.m, : self.shape.n]


def _emit_block(
    builder: ProgramBuilder,
    block: Block,
    kernel_shape: GemmShape,
    options: CodegenOptions,
    a_host: HostMatrix,
    b_host: HostMatrix,
    c_host: HostMatrix,
) -> None:
    blocking = options.blocking
    # Step 1: load the C block.
    for i in range(block.bm):
        for j in range(block.bn):
            addr = c_host.tile_address(block.m0 + i, block.n0 + j)
            builder.tl(blocking.c_reg(i, j), addr, c_host.stride,
                       tag=f"C[{block.m0 + i},{block.n0 + j}]")
    # Step 2: stream the K dimension, computing partial sums.
    for k in range(kernel_shape.k_tiles):
        for i in range(block.bm):
            addr = a_host.tile_address(block.m0 + i, k)
            builder.tl(blocking.a_reg(i), addr, a_host.stride,
                       tag=f"A[{block.m0 + i},{k}]")
        for j in range(block.bn):
            addr = b_host.tile_address(k, block.n0 + j)
            builder.tl(blocking.b_reg(j), addr, b_host.stride,
                       tag=f"B[{k},{block.n0 + j}]")
        for i, j in block.mm_pairs(blocking.mm_order):
            builder.mm(
                blocking.c_reg(i, j),
                blocking.a_reg(i),
                blocking.b_reg(j),
                tag=f"mm[{block.m0 + i},{block.n0 + j},{k}]",
            )
        builder.loop_overhead(options.scalar_overhead_per_kstep, tag="kstep")
    # Step 3: store the C block.
    for i in range(block.bm):
        for j in range(block.bn):
            addr = c_host.tile_address(block.m0 + i, block.n0 + j)
            builder.ts(addr, blocking.c_reg(i, j), c_host.stride,
                       tag=f"C[{block.m0 + i},{block.n0 + j}]")
    builder.loop_overhead(options.scalar_overhead_per_block, tag="block")


def _emit_program(
    name: str,
    padded: GemmShape,
    options: CodegenOptions,
    a_host: HostMatrix,
    b_host: HostMatrix,
    c_host: HostMatrix,
) -> Program:
    """Emit every block's instructions: the deferred program's objects."""
    builder = ProgramBuilder(name=name)
    for block in TileLoopNest(padded, options.blocking).blocks():
        _emit_block(builder, block, padded, options, a_host, b_host, c_host)
    return builder.build()


def build_gemm_kernel(
    shape: GemmShape,
    options: CodegenOptions = CodegenOptions(),
    base_address: int = 0x10000,
) -> GemmKernel:
    """Generate the full kernel (program + operand layout) for ``shape``.

    The program carries its decode and builds its instructions on first use
    (see the module docstring).
    """
    padded = GemmShape(
        m=shape.padded_m, n=shape.padded_n, k=shape.padded_k, name=shape.name
    )
    a_host, b_host, c_host = layout_gemm_operands(
        padded.m, padded.n, padded.k, base=base_address
    )
    name = shape.name or f"gemm_{shape.m}x{shape.n}x{shape.k}"
    decoded = lower_gemm_arrays(padded, options, a_host, b_host, c_host)
    emit = functools.partial(
        _emit_program, name, padded, options, a_host, b_host, c_host
    )
    return GemmKernel(
        shape=shape,
        padded=padded,
        options=options,
        a_host=a_host,
        b_host=b_host,
        c_host=c_host,
        program=Program.deferred(decoded.n, emit, name=name, decoded=decoded),
    )


def generate_gemm_program(
    shape: GemmShape, options: CodegenOptions = CodegenOptions()
) -> Program:
    """Generate just the instruction stream for ``shape``."""
    return build_gemm_kernel(shape, options).program
