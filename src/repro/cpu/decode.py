"""Program decode: the stream as a run-length skeleton of register operands.

The scalar :class:`repro.cpu.fast.FastCoreModel` re-walks ``Instruction``
objects once per design — for a table1 sweep that is 8 identical attribute
walks over every program.  :func:`decode_program` gives each program one
design-independent :class:`Skeleton` instead, shared by every design: the
stream as run-length-encoded rows of run-length-encoded register blocks,
each block a prologue, one K-step template repeated ``k_steps`` times and
an epilogue, every op a plain tuple of its kind and register operands.
The steady-state walk (:mod:`repro.cpu.steady`) runs on the skeleton alone.

Generated GEMM programs never need a walk of their objects: the code
generator writes their skeleton down from the loop nest
(:mod:`repro.workloads.array_lowering`) and the program carries it, so
:func:`decode_program` returns it as is.  Every other program (hand-built,
assembled, sliced or concatenated) is walked once into a one-block
skeleton whose prologue is the whole stream, memoized on program identity.

This module sits on the deterministic simulation path: no wall clock, no
randomness (enforced by ``tools/lint_invariants.py``).
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Any, Tuple

from repro.isa.instructions import Instruction
from repro.isa.opcodes import Opcode
from repro.isa.program import Program

#: Op-kind codes: the first element of every :data:`SkeletonOp`.
KIND_LOAD = 0
KIND_STORE = 1
KIND_MM = 2
KIND_ALU = 3

#: Walked decodes retained (programs that carry no skeleton of their own).
DECODE_CACHE_SIZE = 256


#: One skeleton instruction: ``(KIND_LOAD, dst)``, ``(KIND_STORE, src)`` and
#: ``(KIND_MM, c, a, b)`` name tile registers; ``(KIND_ALU, reads, writes)``
#: holds tuples of scalar registers.
SkeletonOp = Tuple[Any, ...]


@dataclasses.dataclass(frozen=True, eq=False)
class SkeletonBlock:
    """One register block's stream: ``prologue``, ``kstep`` × ``k_steps``, ``epilogue``.

    Equality is identity: a skeleton names each distinct block once and
    repeats it.
    """

    prologue: Tuple[SkeletonOp, ...]
    kstep: Tuple[SkeletonOp, ...]
    k_steps: int
    epilogue: Tuple[SkeletonOp, ...]

    @property
    def instructions(self) -> int:
        return len(self.prologue) + self.k_steps * len(self.kstep) + len(self.epilogue)


#: A row of blocks: ``(block, repeat)`` runs, left to right.
SkeletonRow = Tuple[Tuple[SkeletonBlock, int], ...]


@dataclasses.dataclass(frozen=True, eq=False)
class Skeleton:
    """A program as ``(row, repeat)`` runs, top to bottom (see module doc)."""

    rows: Tuple[Tuple[SkeletonRow, int], ...]

    @property
    def instructions(self) -> int:
        """The length of the stream the skeleton encodes."""
        return sum(
            repeat * count * block.instructions
            for row, repeat in self.rows
            for block, count in row
        )


def _op(inst: Instruction) -> SkeletonOp:
    """The skeleton op of one :class:`~repro.isa.instructions.Instruction`."""
    op = inst.opcode
    if op is Opcode.RASA_TL:
        assert inst.dst is not None
        return (KIND_LOAD, inst.dst.index)
    if op is Opcode.RASA_TS:
        return (KIND_STORE, inst.srcs[0].index)
    if op is Opcode.RASA_MM:
        return (KIND_MM, inst.mm_c.index, inst.mm_a.index, inst.mm_b.index)
    return (  # scalar ALU / branch
        KIND_ALU,
        tuple(src.index for src in inst.scalar_reads),
        tuple(dst.index for dst in inst.scalar_writes),
    )


@functools.lru_cache(maxsize=DECODE_CACHE_SIZE)
def _walked(program: Program) -> Skeleton:
    block = SkeletonBlock(
        prologue=tuple(_op(inst) for inst in program), kstep=(), k_steps=0, epilogue=()
    )
    return Skeleton(rows=((((block, 1),), 1),))


def decode_program(program: Program) -> Skeleton:
    """The :class:`Skeleton` of ``program``.

    A program that carries its skeleton (every generated GEMM program) gets
    it back without a walk, and is not retained here.  Any other program is
    walked once and memoized on *identity*: :class:`repro.isa.program.Program`
    hashes by object, so a logically equal program built twice is walked
    twice — wasteful but correct.  Introspect/reset the walk memo via
    ``decode_program.cache_info()`` / ``decode_program.cache_clear()``.
    """
    carried = program.decoded
    if isinstance(carried, Skeleton):
        return carried
    return _walked(program)


decode_program.cache_info = _walked.cache_info  # type: ignore[attr-defined]
decode_program.cache_clear = _walked.cache_clear  # type: ignore[attr-defined]
