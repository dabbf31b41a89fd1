"""Textual assembler/disassembler for RASA programs (``.rasa`` syntax).

The syntax matches the paper's Algorithm 1 listing::

    rasa_tl treg0, ptr[0x1000]
    rasa_tl treg4, ptr[0x2000, stride=128]
    rasa_mm treg0, treg6, treg4
    rasa_ts ptr[0x1000], treg0
    add r0, r0
    branch

Comments start with ``//`` or ``#``; blank lines are ignored.  Round-tripping
``assemble(disassemble(p))`` reproduces the program exactly (minus tags).
"""

from __future__ import annotations

import re
from typing import List, Tuple

from repro.errors import AssemblerError
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

_PTR_RE = re.compile(
    r"ptr\[\s*(?P<addr>0x[0-9a-fA-F]+|\d+)\s*(?:,\s*stride\s*=\s*(?P<stride>\d+)\s*)?\]"
)
_TREG_RE = re.compile(r"^treg(\d+)$")
_SREG_RE = re.compile(r"^r(\d+)$")

_SCALAR_OPCODES = {
    op.value: op
    for op in (Opcode.ADD, Opcode.MUL, Opcode.MOV, Opcode.CMP, Opcode.BRANCH, Opcode.NOP)
}


def _parse_treg(token: str, line_no: int) -> TileReg:
    match = _TREG_RE.match(token)
    if not match:
        raise AssemblerError(f"line {line_no}: expected tile register, got {token!r}")
    return TileReg(int(match.group(1)))


def _parse_sreg(token: str, line_no: int) -> ScalarReg:
    match = _SREG_RE.match(token)
    if not match:
        raise AssemblerError(f"line {line_no}: expected scalar register, got {token!r}")
    return ScalarReg(int(match.group(1)))


def _parse_ptr(token: str, line_no: int) -> Tuple[int, int]:
    match = _PTR_RE.fullmatch(token.strip())
    if not match:
        raise AssemblerError(f"line {line_no}: expected ptr[...] operand, got {token!r}")
    address = int(match.group("addr"), 0)
    stride = int(match.group("stride") or 64)
    return address, stride


def _split_operands(rest: str) -> List[str]:
    # Split on commas that are not inside ptr[...] brackets.
    parts: List[str] = []
    depth = 0
    current = []
    for ch in rest:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(current).strip())
            current = []
        else:
            current.append(ch)
    tail = "".join(current).strip()
    if tail:
        parts.append(tail)
    return parts


def assemble(text: str, name: str = "assembled") -> Program:
    """Parse ``.rasa`` assembly text into a :class:`Program`."""
    instructions: List[Instruction] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("//", 1)[0].split("#", 1)[0].strip()
        if not line:
            continue
        mnemonic, _, rest = line.partition(" ")
        operands = _split_operands(rest) if rest.strip() else []
        if mnemonic == Opcode.RASA_TL.value:
            if len(operands) != 2:
                raise AssemblerError(f"line {line_no}: rasa_tl needs 2 operands")
            dst = _parse_treg(operands[0], line_no)
            address, stride = _parse_ptr(operands[1], line_no)
            instructions.append(rasa_tl(dst, address, stride))
        elif mnemonic == Opcode.RASA_TS.value:
            if len(operands) != 2:
                raise AssemblerError(f"line {line_no}: rasa_ts needs 2 operands")
            address, stride = _parse_ptr(operands[0], line_no)
            src = _parse_treg(operands[1], line_no)
            instructions.append(rasa_ts(address, src, stride))
        elif mnemonic == Opcode.RASA_MM.value:
            if len(operands) != 3:
                raise AssemblerError(f"line {line_no}: rasa_mm needs 3 operands")
            c, a, b = (_parse_treg(tok, line_no) for tok in operands)
            instructions.append(rasa_mm(c, a, b))
        elif mnemonic in _SCALAR_OPCODES:
            opcode = _SCALAR_OPCODES[mnemonic]
            if opcode in (Opcode.BRANCH, Opcode.NOP):
                # No destination: every operand is a scalar source.
                srcs = tuple(_parse_sreg(tok, line_no) for tok in operands)
                instructions.append(scalar_op(opcode, srcs=srcs))
            else:
                if not operands:
                    raise AssemblerError(f"line {line_no}: {mnemonic} needs operands")
                dst = _parse_sreg(operands[0], line_no)
                srcs = tuple(_parse_sreg(tok, line_no) for tok in operands[1:])
                instructions.append(scalar_op(opcode, dst=dst, srcs=srcs))
        else:
            raise AssemblerError(f"line {line_no}: unknown mnemonic {mnemonic!r}")
    return Program(instructions, name=name)


def disassemble(program: Program) -> str:
    """Render a program back to ``.rasa`` text."""
    lines = []
    for inst in program:
        if inst.opcode is Opcode.RASA_TL:
            assert inst.mem is not None  # _validate invariant
            lines.append(f"rasa_tl {inst.dst}, ptr[0x{inst.mem.address:x}"
                         + (f", stride={inst.mem.stride}]" if inst.mem.stride != 64 else "]"))
        elif inst.opcode is Opcode.RASA_TS:
            assert inst.mem is not None  # _validate invariant
            lines.append(f"rasa_ts ptr[0x{inst.mem.address:x}"
                         + (f", stride={inst.mem.stride}]" if inst.mem.stride != 64 else "]")
                         + f", {inst.srcs[0]}")
        else:
            lines.append(str(inst))
    return "\n".join(lines) + "\n"
