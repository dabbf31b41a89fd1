"""The RASA instruction set (AMX-like tile ISA plus minimal scalar ops).

The matrix engine is driven by three tile instructions (Sec. IV-A):

- ``rasa_tl treg, [addr]``   — load a 1 KB tile from memory into a tile register
- ``rasa_ts [addr], treg``   — store a tile register back to memory
- ``rasa_mm tc, ta, tb``     — ``C(16x16 f32) += A(16x32 bf16) @ B(32x16 bf16)``

Scalar ALU/branch opcodes model the loop overhead LIBXSMM-generated kernels
carry around the tile instructions, so the CPU model sees realistic streams.

The assembler and the JSONL trace format load on first use
(:mod:`repro.utils.lazy`): no sweep reads or writes program text.
"""

from typing import TYPE_CHECKING

from repro.isa.opcodes import Opcode
from repro.isa.instructions import (
    Instruction,
    MemOperand,
    ScalarReg,
    TileReg,
    scalar_op,
    rasa_mm,
    rasa_tl,
    rasa_ts,
)
from repro.isa.program import Program, ProgramStats
from repro.isa.builder import ProgramBuilder
from repro.utils.lazy import DeferredExports

if TYPE_CHECKING:
    from repro.isa.assembler import assemble, disassemble
    from repro.isa.trace import load_trace, save_trace

__getattr__ = DeferredExports(__name__, {
    "repro.isa.assembler": ("assemble", "disassemble"),
    "repro.isa.trace": ("load_trace", "save_trace"),
})

__all__ = [
    "Opcode",
    "Instruction",
    "TileReg",
    "ScalarReg",
    "MemOperand",
    "rasa_tl",
    "rasa_ts",
    "rasa_mm",
    "scalar_op",
    "Program",
    "ProgramStats",
    "ProgramBuilder",
    "assemble",
    "disassemble",
    "load_trace",
    "save_trace",
]
