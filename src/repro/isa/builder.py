"""ProgramBuilder: a fluent emission API for RASA instruction streams.

The builder mirrors how Algorithm 1 in the paper is written — load C tiles,
load A/B tiles, issue ``rasa_mm``s, store C tiles — and optionally interleaves
scalar loop-overhead instructions the way LIBXSMM-generated kernels do.
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import IsaError
from repro.isa.instructions import (
    Instruction,
    ScalarReg,
    TileReg,
    rasa_mm,
    rasa_tl,
    rasa_ts,
    scalar_op,
)
from repro.isa.opcodes import Opcode
from repro.isa.program import Program

#: The repeating scalar mix of :meth:`ProgramBuilder.loop_overhead`: adds
#: bump the loop counter ``r0`` (read and write), the compare reads ``r0``
#: into ``r1``, the branch touches no register.
LOOP_OVERHEAD_PATTERN = (Opcode.ADD, Opcode.ADD, Opcode.CMP, Opcode.BRANCH)


class ProgramBuilder:
    """Incrementally build a :class:`Program`.

    Example (Algorithm 1 from the paper)::

        b = ProgramBuilder("algorithm1")
        tregs = [TileReg(i) for i in range(8)]
        for i, addr in enumerate(c_addrs):            # Step 1: load C tiles
            b.tl(tregs[i], addr)
        b.tl(tregs[4], b0).tl(tregs[6], a0)           # Step 2: compute
        b.mm(tregs[0], tregs[6], tregs[4])
        ...
        for i, addr in enumerate(c_addrs):            # Step 3: store C tiles
            b.ts(addr, tregs[i])
        program = b.build()
    """

    def __init__(self, name: str = "program") -> None:
        self.name = name
        self._instructions: List[Instruction] = []

    # -- tile instructions ----------------------------------------------------

    def tl(self, dst: TileReg, address: int, stride: int = 64, tag: str = "") -> "ProgramBuilder":
        """Emit a tile load."""
        self._instructions.append(rasa_tl(dst, address, stride, tag=tag))
        return self

    def ts(self, address: int, src: TileReg, stride: int = 64, tag: str = "") -> "ProgramBuilder":
        """Emit a tile store."""
        self._instructions.append(rasa_ts(address, src, stride, tag=tag))
        return self

    def mm(self, c: TileReg, a: TileReg, b: TileReg, tag: str = "") -> "ProgramBuilder":
        """Emit a matmul-accumulate."""
        self._instructions.append(rasa_mm(c, a, b, tag=tag))
        return self

    # -- scalar loop overhead ---------------------------------------------------

    def scalar(
        self,
        opcode: Opcode,
        dst: Optional[ScalarReg] = None,
        srcs: tuple = (),
        tag: str = "",
    ) -> "ProgramBuilder":
        """Emit one scalar instruction."""
        self._instructions.append(scalar_op(opcode, dst=dst, srcs=srcs, tag=tag))
        return self

    def loop_overhead(self, count: int, tag: str = "loop") -> "ProgramBuilder":
        """Emit ``count`` scalar instructions modelling address/loop arithmetic.

        The mix (add, add, cmp, branch, ...) approximates the pointer-bump and
        loop-test code LIBXSMM emits between tile instructions.
        """
        if count < 0:
            raise IsaError(f"loop_overhead count must be >= 0, got {count}")
        pattern = LOOP_OVERHEAD_PATTERN
        counter = ScalarReg(0)
        for i in range(count):
            op = pattern[i % len(pattern)]
            if op is Opcode.BRANCH:
                self.scalar(op, dst=None, srcs=(), tag=tag)
            elif op is Opcode.CMP:
                self.scalar(op, dst=ScalarReg(1), srcs=(counter,), tag=tag)
            else:
                self.scalar(op, dst=counter, srcs=(counter,), tag=tag)
        return self

    # -- finalization ----------------------------------------------------------

    def extend(self, program: Program) -> "ProgramBuilder":
        """Append all instructions of an existing program."""
        self._instructions.extend(program)
        return self

    def __len__(self) -> int:
        return len(self._instructions)

    def build(self) -> Program:
        """Finalize into an immutable :class:`Program`."""
        return Program(self._instructions, name=self.name)
