"""Tests for the tile loop nest and register blocking."""

from __future__ import annotations

import pytest

from repro.errors import WorkloadError
from repro.isa.instructions import TileReg
from repro.workloads.gemm import GemmShape
from repro.workloads.tiling import Block, BlockingConfig, MMOrder, TileLoopNest


class TestBlockingConfig:
    def test_algorithm1_register_assignment(self):
        # Algorithm 1: C in treg0-3, B in treg4-5, A in treg6-7.
        b = BlockingConfig(bm=2, bn=2)
        assert b.c_reg(0, 0) == TileReg(0)
        assert b.c_reg(1, 1) == TileReg(3)
        assert b.b_reg(0) == TileReg(4)
        assert b.b_reg(1) == TileReg(5)
        assert b.a_reg(0) == TileReg(6)
        assert b.a_reg(1) == TileReg(7)

    def test_register_budget_enforced(self):
        with pytest.raises(WorkloadError):
            BlockingConfig(bm=3, bn=2)  # 6+3+2 = 11 > 8
        with pytest.raises(WorkloadError):
            BlockingConfig(bm=1, bn=4)  # 4+1+4 = 9 > 8

    def test_budget_boundary(self):
        # 2x2 uses exactly 8; 1x3 uses 3+1+3=7.
        BlockingConfig(bm=2, bn=2)
        BlockingConfig(bm=1, bn=3)
        with pytest.raises(WorkloadError):
            BlockingConfig(bm=4, bn=1)  # 4+4+1 = 9

    @pytest.mark.parametrize("order", ["weight_reuse", "alternate", "bogus", None])
    def test_mm_order_must_be_an_mmorder(self, order):
        """A string keys like the enum of the same value but lowers as the
        other order (``Block.mm_pairs`` tests identity), so a store shared
        by the two configs would return one's cycles for the other."""
        with pytest.raises(WorkloadError, match="mm_order must be an MMOrder"):
            BlockingConfig(mm_order=order)


class TestBlocks:
    def test_full_coverage_no_overlap(self):
        shape = GemmShape(m=5 * 16, n=3 * 16, k=64)
        nest = TileLoopNest(shape, BlockingConfig(bm=2, bn=2))
        seen = set()
        for block in nest.blocks():
            for i in range(block.bm):
                for j in range(block.bn):
                    tile = (block.m0 + i, block.n0 + j)
                    assert tile not in seen
                    seen.add(tile)
        assert seen == {(i, j) for i in range(5) for j in range(3)}

    def test_edge_blocks_clipped(self):
        shape = GemmShape(m=3 * 16, n=16, k=32)
        nest = TileLoopNest(shape, BlockingConfig(bm=2, bn=2))
        blocks = list(nest.blocks())
        assert blocks[-1].bm == 1  # M edge
        assert all(b.bn == 1 for b in blocks)  # N is a single tile column

    def test_block_count(self):
        shape = GemmShape(m=5 * 16, n=3 * 16, k=64)
        nest = TileLoopNest(shape, BlockingConfig(bm=2, bn=2))
        assert nest.block_count == 3 * 2
        assert len(list(nest.blocks())) == 6


class TestMMOrder:
    def test_weight_reuse_order_groups_b(self):
        block = Block(m0=0, n0=0, bm=2, bn=2)
        pairs = block.mm_pairs(MMOrder.WEIGHT_REUSE)
        assert pairs == [(0, 0), (1, 0), (0, 1), (1, 1)]  # B-consecutive

    def test_alternate_order_interleaves_b(self):
        block = Block(m0=0, n0=0, bm=2, bn=2)
        pairs = block.mm_pairs(MMOrder.ALTERNATE)
        assert pairs == [(0, 0), (0, 1), (1, 0), (1, 1)]  # B alternates


class TestBypassPrediction:
    def test_weight_reuse_gives_half(self):
        shape = GemmShape(m=64, n=64, k=128)
        nest = TileLoopNest(shape, BlockingConfig(bm=2, bn=2))
        assert nest.expected_bypass_fraction() == pytest.approx(0.5)

    def test_alternate_gives_zero(self):
        shape = GemmShape(m=64, n=64, k=128)
        nest = TileLoopNest(
            shape, BlockingConfig(bm=2, bn=2, mm_order=MMOrder.ALTERNATE)
        )
        assert nest.expected_bypass_fraction() == 0.0

    def test_edge_blocks_lower_fraction(self):
        # bm=1 edge blocks cannot reuse at all.
        shape = GemmShape(m=48, n=32, k=64)  # 3 m-tiles: one 2-block + one 1-block
        nest = TileLoopNest(shape, BlockingConfig(bm=2, bn=2))
        assert nest.expected_bypass_fraction() == pytest.approx(
            (1 * 2 * 2) / (3 * 2 * 2)
        )

    def test_prediction_matches_program(self):
        from repro.workloads.codegen import generate_gemm_program

        shape = GemmShape(m=48, n=32, k=64)
        nest = TileLoopNest(shape, BlockingConfig(bm=2, bn=2))
        program = generate_gemm_program(shape)
        assert program.weight_reuse_fraction() == pytest.approx(
            nest.expected_bypass_fraction()
        )
