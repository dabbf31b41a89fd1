"""Host-side matrix layout helpers: place matrices in TileMemory, find tiles.

The code generator lays each GEMM operand out row-major at a base address
and emits tile loads/stores whose addresses this module computes.  The same
arithmetic is used on the functional side to write inputs into simulation
memory and read results back, so addresses can never diverge between the
two paths.  The address arithmetic is on every sweep's path; numpy and the
BF16 codec are imported only by the functional data movement
(:meth:`HostMatrix.store` / :meth:`HostMatrix.load`).
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING

from repro.errors import TileError
from repro.tile.layout import ROWS

if TYPE_CHECKING:
    import numpy as np

    from repro.tile.memory import TileMemory


@dataclasses.dataclass(frozen=True)
class HostMatrix:
    """A matrix resident in simulation memory.

    Attributes:
        base: byte address of element (0, 0).
        rows, cols: logical dimensions.
        element_bytes: 2 for BF16, 4 for FP32.
        name: label used in instruction tags.
    """

    base: int
    rows: int
    cols: int
    element_bytes: int
    name: str = ""

    def __post_init__(self) -> None:
        if self.element_bytes not in (2, 4):
            raise TileError(f"element_bytes must be 2 or 4, got {self.element_bytes}")
        if self.rows <= 0 or self.cols <= 0:
            raise TileError(f"matrix dims must be positive: {self.rows}x{self.cols}")

    @property
    def stride(self) -> int:
        """Leading dimension in bytes (row-major, densely packed)."""
        return self.cols * self.element_bytes

    @property
    def tile_cols_elems(self) -> int:
        """Elements per 64 B tile row (32 for BF16, 16 for FP32)."""
        return 64 // self.element_bytes

    @property
    def size_bytes(self) -> int:
        return self.rows * self.stride

    def tile_address(self, row_tile: int, col_tile: int) -> int:
        """Byte address of the (row_tile, col_tile) tile's element (0, 0).

        A tile spans 16 rows x ``tile_cols_elems`` columns.
        """
        row = row_tile * ROWS
        col = col_tile * self.tile_cols_elems
        if row >= self.rows or col >= self.cols:
            raise TileError(
                f"tile ({row_tile}, {col_tile}) out of range for "
                f"{self.rows}x{self.cols} matrix {self.name!r}"
            )
        return self.base + row * self.stride + col * self.element_bytes

    @property
    def row_tiles(self) -> int:
        return -(-self.rows // ROWS)

    @property
    def col_tiles(self) -> int:
        return -(-self.cols // self.tile_cols_elems)

    @property
    def end(self) -> int:
        """One past the last byte — the next free base address."""
        return self.base + self.size_bytes

    # -- functional data movement ---------------------------------------------------

    def store(self, memory: TileMemory, values: np.ndarray) -> None:
        """Write ``values`` (rows x cols floats) into simulation memory.

        BF16 matrices are encoded with RNE rounding; FP32 stored verbatim.
        """
        import numpy as np

        from repro.numerics.bf16 import f32_to_bf16_bits

        values = np.asarray(values, dtype=np.float32)
        if values.shape != (self.rows, self.cols):
            raise TileError(
                f"matrix {self.name!r} expects shape {(self.rows, self.cols)}, "
                f"got {values.shape}"
            )
        if self.element_bytes == 2:
            payload = f32_to_bf16_bits(values).view(np.uint8)
        else:
            payload = np.ascontiguousarray(values).view(np.uint8)
        memory.write(self.base, payload.reshape(-1))

    def load(self, memory: TileMemory) -> np.ndarray:
        """Read the matrix back from simulation memory as float32 values."""
        import numpy as np

        from repro.numerics.bf16 import bf16_bits_to_f32

        raw = memory.read(self.base, self.size_bytes)
        if self.element_bytes == 2:
            bits = raw.view(np.uint16).reshape(self.rows, self.cols)
            return bf16_bits_to_f32(bits)
        return raw.view(np.float32).reshape(self.rows, self.cols).copy()


def layout_gemm_operands(
    m: int, n: int, k: int, base: int = 0x10000
) -> "tuple[HostMatrix, HostMatrix, HostMatrix]":
    """Lay out A (MxK bf16), B (VNNI-packed, bf16), C (MxN fp32) back to back.

    B is stored in the VNNI K-pair layout (see :mod:`repro.tile.vnni`): the
    host matrix has ``K/2`` rows of ``2N`` BF16 elements, so its (k_tile,
    n_tile) tile is exactly one 16x64 B register payload.  Dimensions must
    already be padded to whole tiles (M, N multiples of 16; K multiple of
    32) — the tiling layer guarantees that.
    """
    a = HostMatrix(base, m, k, element_bytes=2, name="A")
    b = HostMatrix(a.end, k // 2, 2 * n, element_bytes=2, name="B")
    c = HostMatrix(b.end, m, n, element_bytes=4, name="C")
    return a, b, c
