"""Tests for instruction construction, validation, and dataflow views."""

from __future__ import annotations

import pytest

from repro.errors import IsaError
from repro.isa.instructions import (
    Instruction,
    MemOperand,
    ScalarReg,
    TileReg,
    rasa_mm,
    rasa_tl,
    rasa_ts,
    scalar_op,
)
from repro.isa.opcodes import Opcode


class TestRegisters:
    def test_tile_reg_range(self):
        assert TileReg(0).index == 0
        assert TileReg(7).index == 7
        with pytest.raises(IsaError):
            TileReg(8)
        with pytest.raises(IsaError):
            TileReg(-1)

    def test_scalar_reg_range(self):
        assert ScalarReg(15).index == 15
        with pytest.raises(IsaError):
            ScalarReg(16)

    def test_str(self):
        assert str(TileReg(3)) == "treg3"
        assert str(ScalarReg(4)) == "r4"


class TestMemOperand:
    def test_defaults(self):
        mem = MemOperand(0x1000)
        assert mem.stride == 64

    def test_negative_address_rejected(self):
        with pytest.raises(IsaError):
            MemOperand(-4)

    def test_zero_stride_rejected(self):
        with pytest.raises(IsaError):
            MemOperand(0, stride=0)


class TestConstruction:
    def test_tl(self):
        inst = rasa_tl(TileReg(2), 0x1000, stride=128)
        assert inst.opcode is Opcode.RASA_TL
        assert inst.tile_writes == (TileReg(2),)
        assert inst.tile_reads == ()
        assert inst.mem.stride == 128

    def test_ts(self):
        inst = rasa_ts(0x2000, TileReg(5))
        assert inst.tile_reads == (TileReg(5),)
        assert inst.tile_writes == ()

    def test_mm_reads_and_writes(self):
        inst = rasa_mm(TileReg(0), TileReg(6), TileReg(4))
        assert inst.mm_c == TileReg(0)
        assert inst.mm_a == TileReg(6)
        assert inst.mm_b == TileReg(4)
        assert set(inst.tile_reads) == {TileReg(0), TileReg(6), TileReg(4)}
        assert inst.tile_writes == (TileReg(0),)

    def test_mm_dst_must_be_c(self):
        with pytest.raises(IsaError):
            Instruction(
                Opcode.RASA_MM,
                dst=TileReg(1),
                srcs=(TileReg(0), TileReg(6), TileReg(4)),
            )

    def test_scalar_op(self):
        inst = scalar_op(Opcode.ADD, dst=ScalarReg(0), srcs=(ScalarReg(0),))
        assert inst.scalar_writes == (ScalarReg(0),)
        assert inst.scalar_reads == (ScalarReg(0),)

    def test_scalar_op_rejects_tile_opcode(self):
        with pytest.raises(IsaError):
            scalar_op(Opcode.RASA_MM)

    def test_branch_has_no_dst(self):
        inst = scalar_op(Opcode.BRANCH)
        assert inst.dst is None
        with pytest.raises(IsaError):
            Instruction(Opcode.BRANCH, dst=ScalarReg(0))

    @pytest.mark.parametrize("opcode", [Opcode.BRANCH, Opcode.NOP])
    @pytest.mark.parametrize("dst", [ScalarReg(0), TileReg(0)], ids=str)
    def test_branch_and_nop_take_no_destination(self, opcode, dst):
        with pytest.raises(IsaError, match="cannot have a destination"):
            Instruction(opcode, dst=dst)

    @pytest.mark.parametrize(
        "opcode", [op for op in Opcode if not op.is_tile], ids=lambda op: op.value
    )
    def test_non_tile_opcodes_take_scalar_registers_only(self, opcode):
        with pytest.raises(IsaError, match="scalar registers"):
            Instruction(opcode, srcs=(TileReg(3),))
        inst = Instruction(opcode, srcs=(ScalarReg(1),))
        assert inst.scalar_reads == (ScalarReg(1),) and inst.tile_reads == ()

    def test_tl_requires_mem(self):
        with pytest.raises(IsaError):
            Instruction(Opcode.RASA_TL, dst=TileReg(0))

    def test_ts_requires_single_tile_source(self):
        with pytest.raises(IsaError):
            Instruction(Opcode.RASA_TS, mem=MemOperand(0), srcs=())

    def test_mm_accessors_reject_non_mm(self):
        inst = rasa_tl(TileReg(0), 0)
        with pytest.raises(IsaError):
            _ = inst.mm_b


class TestOpcodeProperties:
    def test_classification(self):
        assert Opcode.RASA_TL.is_tile and Opcode.RASA_TL.is_memory
        assert Opcode.RASA_MM.is_tile and Opcode.RASA_MM.is_matmul
        assert not Opcode.RASA_MM.is_memory
        assert Opcode.ADD.is_scalar and not Opcode.ADD.is_tile

    def test_str_rendering(self):
        assert str(rasa_tl(TileReg(0), 0x1000)) == "rasa_tl treg0, [0x1000]"
        assert str(rasa_mm(TileReg(0), TileReg(6), TileReg(4))) == (
            "rasa_mm treg0, treg6, treg4"
        )
        assert str(rasa_ts(0x20, TileReg(1))) == "rasa_ts [0x20], treg1"
