"""Tests for the textual assembler/disassembler, including round-trips."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import AssemblerError
from repro.isa.assembler import assemble, disassemble
from repro.isa.builder import ProgramBuilder
from repro.isa.instructions import ScalarReg, TileReg
from repro.isa.opcodes import Opcode

EXAMPLE = """
// Step 1: load C
rasa_tl treg0, ptr[0x1000]
rasa_tl treg4, ptr[0x8000, stride=128]   # B tile, strided
rasa_mm treg0, treg6, treg4
rasa_ts ptr[0x1000], treg0
add r0, r0
cmp r1, r0
branch
nop
"""


class TestAssemble:
    def test_example(self):
        p = assemble(EXAMPLE)
        assert len(p) == 8
        assert p[0].opcode is Opcode.RASA_TL
        assert p[1].mem.stride == 128
        assert p[2].mm_b == TileReg(4)
        assert p[4].dst == ScalarReg(0)

    def test_comments_and_blanks_ignored(self):
        assert len(assemble("// nothing\n\n# more nothing\n")) == 0

    def test_decimal_address(self):
        p = assemble("rasa_tl treg1, ptr[4096]")
        assert p[0].mem.address == 4096

    def test_bad_mnemonic(self):
        with pytest.raises(AssemblerError, match="unknown mnemonic"):
            assemble("frobnicate treg0")

    def test_bad_register(self):
        with pytest.raises(AssemblerError, match="tile register"):
            assemble("rasa_mm treg0, r3, treg4")

    def test_wrong_arity(self):
        with pytest.raises(AssemblerError, match="3 operands"):
            assemble("rasa_mm treg0, treg1")

    def test_bad_ptr(self):
        with pytest.raises(AssemblerError, match="ptr"):
            assemble("rasa_tl treg0, [0x1000]")

    def test_branch_and_nop_operands_are_scalar_sources(self):
        p = assemble("branch r1\nnop r2, r3\n")
        assert (p[0].dst, p[0].srcs) == (None, (ScalarReg(1),))
        assert (p[1].dst, p[1].srcs) == (None, (ScalarReg(2), ScalarReg(3)))

    @pytest.mark.parametrize("line", ["nop treg3", "branch treg0", "branch r1, treg2"])
    def test_branch_and_nop_refuse_tile_operands(self, line):
        with pytest.raises(AssemblerError, match="line 2: expected scalar register"):
            assemble(f"nop\n{line}\n")

    def test_error_reports_line_number(self):
        with pytest.raises(AssemblerError, match="line 3"):
            assemble("nop\nnop\nbogus one\n")


class TestRoundTrip:
    def test_example_roundtrip(self):
        p = assemble(EXAMPLE)
        again = assemble(disassemble(p))
        assert [str(i) for i in again] == [str(i) for i in p]

    def test_branch_and_nop_sources_roundtrip(self):
        p = assemble("branch r1\nnop r2\nbranch\nnop\n")
        again = assemble(disassemble(p))
        assert list(again) == list(p)
        assert disassemble(again) == "branch r1\nnop r2\nbranch\nnop\n"

    def test_builder_roundtrip(self):
        b = ProgramBuilder()
        b.tl(TileReg(0), 0x100).tl(TileReg(4), 0x8000, stride=256)
        b.mm(TileReg(0), TileReg(6), TileReg(4))
        b.ts(0x100, TileReg(0))
        b.loop_overhead(4)
        p = b.build()
        again = assemble(disassemble(p))
        assert [str(i) for i in again] == [str(i) for i in p]


@st.composite
def random_programs(draw):
    b = ProgramBuilder()
    for _ in range(draw(st.integers(0, 30))):
        kind = draw(st.sampled_from(["tl", "ts", "mm", "scalar"]))
        if kind == "tl":
            b.tl(
                TileReg(draw(st.integers(0, 7))),
                draw(st.integers(0, 1 << 30)),
                stride=draw(st.sampled_from([64, 128, 4096])),
            )
        elif kind == "ts":
            b.ts(draw(st.integers(0, 1 << 30)), TileReg(draw(st.integers(0, 7))))
        elif kind == "mm":
            c = TileReg(draw(st.integers(0, 7)))
            b.mm(c, TileReg(draw(st.integers(0, 7))), TileReg(draw(st.integers(0, 7))))
        else:
            b.scalar(Opcode.ADD, dst=ScalarReg(draw(st.integers(0, 15))),
                     srcs=(ScalarReg(draw(st.integers(0, 15))),))
    return b.build()


@settings(max_examples=50, deadline=None)
@given(random_programs())
def test_roundtrip_random_programs(program):
    again = assemble(disassemble(program))
    assert [str(i) for i in again] == [str(i) for i in program]
