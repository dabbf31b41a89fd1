"""Shared structure-of-arrays program pre-decode for the vectorized fast model.

The scalar :class:`repro.cpu.fast.FastCoreModel` re-walks ``Instruction``
objects once per design — for a table1 sweep that is 8 identical attribute
walks over every program.  :func:`decode_program` walks a program exactly
once and produces a :class:`DecodedProgram`: numpy arrays over the whole
stream (instruction kinds, memory operands) plus, per instruction class,
the *writer index* of every register operand — the program-order index of
the instruction whose result the operand reads, or ``-1`` when the operand
still holds its reset value.

Writer indices are the key design move: they eliminate the per-design
``tile_ready`` / ``scalar_ready`` register scoreboards entirely.  At run
time a reader's operand-readiness is simply ``complete[writer]``, so the
decoded form is design-independent and one decode is shared by all designs
(and by both the vectorized kernel and any future consumer).

Generated GEMM programs never need the walk: the code generator builds
their decode directly from the loop nest
(:mod:`repro.workloads.array_lowering`) and the program carries it, so
:func:`decode_program` returns it as is.  The walk remains for every other
program (hand-built, assembled, sliced or concatenated), memoized on
program identity.

A generated program's decode is a :class:`SkeletonDecode`: the flat arrays
plus the :class:`Skeleton` they were expanded from — the stream as
run-length-encoded rows of run-length-encoded register blocks, each block a
prologue, one K-step template repeated ``k_steps`` times and an epilogue,
with register operands instead of writer indices.  The steady-state walk
(:mod:`repro.cpu.steady`) runs on the skeleton alone.

This module sits on the deterministic simulation path: no wall clock, no
randomness (enforced by ``tools/lint_invariants.py``).
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Any, List, Tuple

import numpy as np

from repro.isa.instructions import NUM_SCALAR_REGS, NUM_TILE_REGS
from repro.isa.opcodes import Opcode
from repro.isa.program import Program

#: Instruction-kind codes stored in :attr:`DecodedProgram.kind`.
KIND_LOAD = 0
KIND_STORE = 1
KIND_MM = 2
KIND_ALU = 3

#: Walked decodes retained (programs that carry no decode of their own).
DECODE_CACHE_SIZE = 256


@dataclasses.dataclass(frozen=True, eq=False)
class DecodedProgram:
    """Design-independent structure-of-arrays view of one program.

    All ``*_pos`` arrays hold program-order instruction indices (int64,
    ascending); all ``*_writer`` arrays hold the program-order index of the
    instruction that produced the operand's value, or ``-1`` for the reset
    value (readiness 0.0).  Equality is identity (``eq=False``): decodes
    belong to one program object (carried or memoized) and are never
    compared by content.
    """

    n: int
    #: Per-instruction kind code (``KIND_*``), length ``n``.
    kind: np.ndarray
    # -- tile loads --------------------------------------------------------
    load_pos: np.ndarray
    load_addr: np.ndarray
    load_stride: np.ndarray
    # -- tile stores -------------------------------------------------------
    store_pos: np.ndarray
    #: Writer of the stored tile register (a load or an mm), or ``-1``.
    store_writer: np.ndarray
    # -- matrix multiplies -------------------------------------------------
    mm_pos: np.ndarray
    mm_a_writer: np.ndarray
    mm_b_writer: np.ndarray
    mm_c_writer: np.ndarray
    #: Architectural B register index — half of the WLBP weight key.
    mm_b_reg: np.ndarray
    #: Write count of the B register before this mm — the other half: the
    #: scalar model's ``tile_version[b]`` at the moment it schedules the mm.
    mm_b_version: np.ndarray
    # -- scalar ALU / branch ----------------------------------------------
    alu_pos: np.ndarray
    #: Per ALU op: writer indices of its scalar source registers.
    alu_reads: Tuple[Tuple[int, ...], ...]


#: One skeleton instruction: ``(KIND_LOAD, dst)``, ``(KIND_STORE, src)`` and
#: ``(KIND_MM, c, a, b)`` name tile registers; ``(KIND_ALU, reads, writes)``
#: holds tuples of scalar registers.
SkeletonOp = Tuple[Any, ...]


@dataclasses.dataclass(frozen=True, eq=False)
class SkeletonBlock:
    """One register block's stream: ``prologue``, ``kstep`` × ``k_steps``, ``epilogue``.

    ``height`` x ``width`` is the block's size in C tiles.  Equality is
    identity: a skeleton names each distinct block once and repeats it.
    """

    height: int
    width: int
    prologue: Tuple[SkeletonOp, ...]
    kstep: Tuple[SkeletonOp, ...]
    k_steps: int
    epilogue: Tuple[SkeletonOp, ...]


#: A row of blocks: ``(block, repeat)`` runs, left to right.
SkeletonRow = Tuple[Tuple[SkeletonBlock, int], ...]


@dataclasses.dataclass(frozen=True, eq=False)
class Skeleton:
    """A program as ``(row, repeat)`` runs, top to bottom (see module doc)."""

    rows: Tuple[Tuple[SkeletonRow, int], ...]


@dataclasses.dataclass(frozen=True, eq=False)
class SkeletonDecode(DecodedProgram):
    """A decode whose producer kept the run structure it was expanded from."""

    skeleton: Skeleton


def _decode(program: Program) -> DecodedProgram:
    """One walk over ``program`` building every array (see module doc)."""
    tile_writer = [-1] * NUM_TILE_REGS
    tile_version = [0] * NUM_TILE_REGS
    scalar_writer = [-1] * NUM_SCALAR_REGS

    n = len(program)
    kind = np.empty(n, dtype=np.int8)
    load_pos: List[int] = []
    load_addr: List[int] = []
    load_stride: List[int] = []
    store_pos: List[int] = []
    store_writer: List[int] = []
    mm_pos: List[int] = []
    mm_a_writer: List[int] = []
    mm_b_writer: List[int] = []
    mm_c_writer: List[int] = []
    mm_b_reg: List[int] = []
    mm_b_version: List[int] = []
    alu_pos: List[int] = []
    alu_reads: List[Tuple[int, ...]] = []

    for i, inst in enumerate(program):
        op = inst.opcode
        if op is Opcode.RASA_TL:
            assert inst.mem is not None and inst.dst is not None
            kind[i] = KIND_LOAD
            load_pos.append(i)
            load_addr.append(inst.mem.address)
            load_stride.append(inst.mem.stride)
            reg = inst.dst.index
            tile_writer[reg] = i
            tile_version[reg] += 1
        elif op is Opcode.RASA_TS:
            kind[i] = KIND_STORE
            store_pos.append(i)
            store_writer.append(tile_writer[inst.srcs[0].index])
        elif op is Opcode.RASA_MM:
            kind[i] = KIND_MM
            a = inst.mm_a.index
            b = inst.mm_b.index
            c = inst.mm_c.index
            mm_pos.append(i)
            mm_a_writer.append(tile_writer[a])
            mm_b_writer.append(tile_writer[b])
            mm_c_writer.append(tile_writer[c])
            mm_b_reg.append(b)
            mm_b_version.append(tile_version[b])
            tile_writer[c] = i
            tile_version[c] += 1
        else:  # scalar ALU / branch
            kind[i] = KIND_ALU
            alu_pos.append(i)
            alu_reads.append(
                tuple(scalar_writer[src.index] for src in inst.scalar_reads)
            )
            for dst in inst.scalar_writes:
                scalar_writer[dst.index] = i

    def _arr(values: List[int]) -> np.ndarray:
        return np.asarray(values, dtype=np.int64)

    return DecodedProgram(
        n=n,
        kind=kind,
        load_pos=_arr(load_pos),
        load_addr=_arr(load_addr),
        load_stride=_arr(load_stride),
        store_pos=_arr(store_pos),
        store_writer=_arr(store_writer),
        mm_pos=_arr(mm_pos),
        mm_a_writer=_arr(mm_a_writer),
        mm_b_writer=_arr(mm_b_writer),
        mm_c_writer=_arr(mm_c_writer),
        mm_b_reg=_arr(mm_b_reg),
        mm_b_version=_arr(mm_b_version),
        alu_pos=_arr(alu_pos),
        alu_reads=tuple(alu_reads),
    )


@functools.lru_cache(maxsize=DECODE_CACHE_SIZE)
def _walked(program: Program) -> DecodedProgram:
    return _decode(program)


def decode_program(program: Program) -> DecodedProgram:
    """The :class:`DecodedProgram` of ``program``.

    A program that carries its decode (every generated GEMM program) gets
    it back without a walk, and is not retained here.  Any other program is
    walked once and memoized on *identity*: :class:`repro.isa.program.Program`
    hashes by object, so a logically equal program built twice is walked
    twice — wasteful but correct.  Introspect/reset the walk memo via
    ``decode_program.cache_info()`` / ``decode_program.cache_clear()``.
    """
    carried = program.decoded
    if isinstance(carried, DecodedProgram):
        return carried
    return _walked(program)


decode_program.cache_info = _walked.cache_info  # type: ignore[attr-defined]
decode_program.cache_clear = _walked.cache_clear  # type: ignore[attr-defined]
