"""Tile loop nest and register blocking (Algorithm 1, generalized).

The code generator walks a GEMM's tile grid in a C-resident register-blocked
order: an (bm x bn) block of C tiles is loaded once, the K dimension streams
A and B tiles through the remaining registers, and the C block stores back.
With the default bm = bn = 2 this is exactly the paper's Algorithm 1 — four
C tiles (treg0-3), two B tiles (treg4-5), two A tiles (treg6-7).

The ``mm_order`` inside a K step controls B-register reuse distance and
therefore how often WLBP can bypass weight loads:

- ``WEIGHT_REUSE`` (Algorithm 1's order): all mm's sharing a B tile are
  consecutive -> (bm − 1)/bm of mm's can bypass (50 % at bm = 2).
- ``ALTERNATE``: B registers alternate every mm -> no bypass opportunities.
  (Ablation E10 quantifies the difference.)
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Iterator, List

from repro.errors import WorkloadError
from repro.isa.instructions import NUM_TILE_REGS, TileReg
from repro.utils.validation import check_positive
from repro.workloads.gemm import GemmShape


class MMOrder(enum.Enum):
    """Ordering of the rasa_mm's inside one K step of a register block."""

    WEIGHT_REUSE = "weight_reuse"
    ALTERNATE = "alternate"


@dataclasses.dataclass(frozen=True)
class BlockingConfig:
    """Register blocking factors and mm ordering.

    ``bm`` x ``bn`` C tiles stay register-resident per block; the register
    budget ``bm·bn + bm + bn <= 8`` must hold (8 architectural tregs).
    """

    bm: int = 2
    bn: int = 2
    mm_order: MMOrder = MMOrder.WEIGHT_REUSE

    def __post_init__(self) -> None:
        check_positive("bm", self.bm)
        check_positive("bn", self.bn)
        # Lowering tests the order by identity, while keys render it by
        # value: a plain string would key like the enum and lower otherwise.
        if not isinstance(self.mm_order, MMOrder):
            raise WorkloadError(
                f"mm_order must be an MMOrder, got {self.mm_order!r}"
            )
        needed = self.bm * self.bn + self.bm + self.bn
        if needed > NUM_TILE_REGS:
            raise WorkloadError(
                f"blocking {self.bm}x{self.bn} needs {needed} tile registers, "
                f"only {NUM_TILE_REGS} exist"
            )

    # -- register allocation (Algorithm 1's assignment, generalized) ------------

    def c_reg(self, i: int, j: int) -> TileReg:
        """C tile register for block-local position (i, j)."""
        return TileReg(i * self.bn + j)

    def b_reg(self, j: int) -> TileReg:
        """B tile register for block-local column j."""
        return TileReg(self.bm * self.bn + j)

    def a_reg(self, i: int) -> TileReg:
        """A tile register for block-local row i."""
        return TileReg(self.bm * self.bn + self.bn + i)


@dataclasses.dataclass(frozen=True)
class Block:
    """One register block: a rectangle of C tiles at (m0, n0), size bm' x bn'."""

    m0: int
    n0: int
    bm: int
    bn: int

    def mm_pairs(self, order: MMOrder) -> List[tuple]:
        """Block-local (i, j) mm ordering for one K step."""
        if order is MMOrder.WEIGHT_REUSE:
            return [(i, j) for j in range(self.bn) for i in range(self.bm)]
        return [(i, j) for i in range(self.bm) for j in range(self.bn)]


class TileLoopNest:
    """Enumerates the register blocks covering a GEMM's tile grid."""

    def __init__(self, shape: GemmShape, blocking: BlockingConfig = BlockingConfig()):
        self.shape = shape
        self.blocking = blocking

    def blocks(self) -> Iterator[Block]:
        """Yield blocks in row-major (M-outer, N-inner) order, edge-clipped."""
        bm, bn = self.blocking.bm, self.blocking.bn
        for m0 in range(0, self.shape.m_tiles, bm):
            for n0 in range(0, self.shape.n_tiles, bn):
                yield Block(
                    m0=m0,
                    n0=n0,
                    bm=min(bm, self.shape.m_tiles - m0),
                    bn=min(bn, self.shape.n_tiles - n0),
                )

    @property
    def block_count(self) -> int:
        bm, bn = self.blocking.bm, self.blocking.bn
        return (-(-self.shape.m_tiles // bm)) * (-(-self.shape.n_tiles // bn))

    def expected_bypass_fraction(self) -> float:
        """Upper bound on WLBP bypasses this nest's streams allow.

        Within each K step, mm's sharing a B tile are consecutive under
        WEIGHT_REUSE ordering: (bm' − 1) of every bm' can bypass.  B tiles
        are reloaded every K step, so the first mm of each B group never
        bypasses.
        """
        total = 0
        bypasses = 0
        for block in self.blocks():
            per_step = block.bm * block.bn
            total += per_step * self.shape.k_tiles
            if self.blocking.mm_order is MMOrder.WEIGHT_REUSE:
                bypasses += (block.bm - 1) * block.bn * self.shape.k_tiles
        return bypasses / total if total else 0.0
