"""Instruction and operand model for the RASA ISA.

Instructions are small immutable dataclasses.  Register operands are typed
(:class:`TileReg` vs :class:`ScalarReg`) so the renamer and the engine can
tell tile dataflow from scalar dataflow without string parsing.

Dependency convention (used by both CPU models):

- ``rasa_tl  t, [m]``  writes ``t``          (reads nothing tile-wise)
- ``rasa_ts  [m], t``  reads ``t``
- ``rasa_mm  c, a, b`` reads ``c, a, b`` and writes ``c`` (accumulation)
- scalar ops read ``srcs`` and write ``dst``; every non-tile opcode takes
  scalar registers only, ``add``/``mul``/``mov``/``cmp`` take a ``dst`` and
  ``branch``/``nop`` take none

:meth:`Instruction._validate` pins these forms at construction, so the
per-instruction loops (``fast-ref``, the static counters, the critical-path
bound) read ``srcs`` and ``dst`` as plain fields; the checked views below
(``mm_*``, ``tile_*``, ``scalar_*``) serve everything else.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Tuple, Union, cast

from repro.errors import IsaError
from repro.isa.opcodes import Opcode

#: Number of architectural tile registers (Intel-AMX-like, Sec. IV-A).
NUM_TILE_REGS = 8
#: Number of architectural scalar registers modelled for loop overhead.
NUM_SCALAR_REGS = 16


@dataclasses.dataclass(frozen=True, order=True)
class TileReg:
    """An architectural tile register ``treg0..treg7``."""

    index: int

    def __post_init__(self) -> None:
        if not 0 <= self.index < NUM_TILE_REGS:
            raise IsaError(f"tile register index {self.index} out of range")

    def __str__(self) -> str:
        return f"treg{self.index}"


@dataclasses.dataclass(frozen=True, order=True)
class ScalarReg:
    """An architectural scalar register ``r0..r15``."""

    index: int

    def __post_init__(self) -> None:
        if not 0 <= self.index < NUM_SCALAR_REGS:
            raise IsaError(f"scalar register index {self.index} out of range")

    def __str__(self) -> str:
        return f"r{self.index}"


#: Either register kind — the static type of ``Instruction.dst``/``srcs``
#: (both expose ``.index``; :meth:`Instruction._validate` pins the concrete
#: kind per opcode).
Reg = Union[TileReg, ScalarReg]


@dataclasses.dataclass(frozen=True)
class MemOperand:
    """A tile memory operand: base address plus row stride (Sec. II-B).

    A tile in memory is up to 16 chunks of up to 64 B separated by a fixed
    stride; ``address`` is the byte address of row 0 and ``stride`` the byte
    distance between consecutive rows.
    """

    address: int
    stride: int = 64

    def __post_init__(self) -> None:
        if self.address < 0:
            raise IsaError(f"negative tile address {self.address}")
        if self.stride <= 0:
            raise IsaError(f"tile stride must be positive, got {self.stride}")

    def __str__(self) -> str:
        if self.stride == 64:
            return f"[0x{self.address:x}]"
        return f"[0x{self.address:x}, stride={self.stride}]"


@dataclasses.dataclass(frozen=True)
class Instruction:
    """One decoded instruction.

    Attributes:
        opcode: the instruction kind.
        dst: tile or scalar destination register (None for stores, branches
            and nops; required by every other opcode).
        srcs: source registers in ISA order.  For ``rasa_mm`` this is
            ``(C, A, B)`` — note C is both source and destination.
        mem: memory operand for ``rasa_tl``/``rasa_ts``.
        tag: free-form annotation from the code generator (e.g. which tile of
            which fold this instruction handles); used for debugging and for
            reuse-distance analysis, never by the simulators' semantics.
    """

    opcode: Opcode
    dst: Optional[Reg] = None
    srcs: Tuple[Reg, ...] = ()
    mem: Optional[MemOperand] = None
    tag: str = ""

    def __post_init__(self) -> None:
        self._validate()

    def _validate(self) -> None:
        op = self.opcode
        if op is Opcode.RASA_TL:
            if not isinstance(self.dst, TileReg) or self.mem is None or self.srcs:
                raise IsaError(f"rasa_tl requires a tile dst and a mem operand: {self}")
        elif op is Opcode.RASA_TS:
            if self.dst is not None or self.mem is None:
                raise IsaError(f"rasa_ts requires a mem operand and no dst: {self}")
            if len(self.srcs) != 1 or not isinstance(self.srcs[0], TileReg):
                raise IsaError(f"rasa_ts requires exactly one tile source: {self}")
        elif op is Opcode.RASA_MM:
            if len(self.srcs) != 3 or not all(isinstance(s, TileReg) for s in self.srcs):
                raise IsaError(f"rasa_mm requires three tile sources (C, A, B): {self}")
            if self.dst != self.srcs[0]:
                raise IsaError(f"rasa_mm destination must equal the C source: {self}")
        else:  # scalar ALU, branch, nop: scalar registers only
            if any(not isinstance(s, ScalarReg) for s in self.srcs):
                raise IsaError(f"scalar op sources must be scalar registers: {self}")
            if op is Opcode.BRANCH or op is Opcode.NOP:
                if self.dst is not None:
                    raise IsaError(f"{op.value} cannot have a destination: {self}")
            elif not isinstance(self.dst, ScalarReg):
                # The text form names the destination first; without one,
                # ``cmp r1, r2`` would read back as a write to r1.
                raise IsaError(f"{op.value} requires a scalar dst: {self}")

    # -- dataflow views -----------------------------------------------------

    @property
    def tile_reads(self) -> Tuple[TileReg, ...]:
        """Tile registers this instruction reads."""
        if self.opcode is Opcode.RASA_TS or self.opcode is Opcode.RASA_MM:
            return tuple(s for s in self.srcs if isinstance(s, TileReg))
        return ()

    @property
    def tile_writes(self) -> Tuple[TileReg, ...]:
        """Tile registers this instruction writes."""
        if isinstance(self.dst, TileReg):
            return (self.dst,)
        return ()

    @property
    def scalar_reads(self) -> Tuple[ScalarReg, ...]:
        return tuple(s for s in self.srcs if isinstance(s, ScalarReg))

    @property
    def scalar_writes(self) -> Tuple[ScalarReg, ...]:
        if isinstance(self.dst, ScalarReg):
            return (self.dst,)
        return ()

    # -- rasa_mm operand accessors -------------------------------------------

    @property
    def mm_c(self) -> TileReg:
        """The C (accumulator) operand of a ``rasa_mm``."""
        self._require_mm()
        return cast(TileReg, self.srcs[0])

    @property
    def mm_a(self) -> TileReg:
        """The A (input) operand of a ``rasa_mm``."""
        self._require_mm()
        return cast(TileReg, self.srcs[1])

    @property
    def mm_b(self) -> TileReg:
        """The B (weight) operand of a ``rasa_mm`` — the WLBP reuse target."""
        self._require_mm()
        return cast(TileReg, self.srcs[2])

    def _require_mm(self) -> None:
        if self.opcode is not Opcode.RASA_MM:
            raise IsaError(f"not a rasa_mm instruction: {self}")

    def __str__(self) -> str:
        # Robust against malformed operand lists: validation errors stringify
        # the instruction they reject.
        op = self.opcode.value
        if self.opcode is Opcode.RASA_TL:
            return f"{op} {self.dst}, {self.mem}"
        if self.opcode is Opcode.RASA_TS:
            src = self.srcs[0] if self.srcs else "?"
            return f"{op} {self.mem}, {src}"
        if self.opcode is Opcode.RASA_MM:
            operands = ", ".join(str(s) for s in self.srcs) or "?"
            return f"{op} {operands}"
        parts = [str(s) for s in self.srcs]
        if self.dst is not None:
            parts.insert(0, str(self.dst))
        return f"{op} {', '.join(parts)}" if parts else op


# -- constructors ------------------------------------------------------------


def rasa_tl(dst: TileReg, address: int, stride: int = 64, tag: str = "") -> Instruction:
    """Build a tile load: ``dst <- memory[address]``."""
    return Instruction(Opcode.RASA_TL, dst=dst, mem=MemOperand(address, stride), tag=tag)


def rasa_ts(address: int, src: TileReg, stride: int = 64, tag: str = "") -> Instruction:
    """Build a tile store: ``memory[address] <- src``."""
    return Instruction(
        Opcode.RASA_TS, srcs=(src,), mem=MemOperand(address, stride), tag=tag
    )


def rasa_mm(c: TileReg, a: TileReg, b: TileReg, tag: str = "") -> Instruction:
    """Build a matmul-accumulate: ``c += a @ b`` on the matrix engine."""
    return Instruction(Opcode.RASA_MM, dst=c, srcs=(c, a, b), tag=tag)


def scalar_op(
    opcode: Opcode,
    dst: Optional[ScalarReg] = None,
    srcs: Tuple[ScalarReg, ...] = (),
    tag: str = "",
) -> Instruction:
    """Build a scalar ALU/branch instruction for loop-overhead modelling."""
    if opcode.is_tile:
        raise IsaError(f"{opcode} is not a scalar opcode")
    return Instruction(opcode, dst=dst, srcs=srcs, tag=tag)
