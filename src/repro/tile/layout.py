"""Tile register geometry.

A tile register is ``ROWS`` rows of ``ROW_BYTES`` bytes (16 x 64 B = 1 KB,
matching Intel AMX).  Matrix views over that storage:

- BF16 (2 B/element): 16 x 32 — the A-operand tile, and the B-operand tile
  when interpreted as two logical 32-element K-rows per physical register row.
- FP32 (4 B/element): 16 x 16 — the C-operand (accumulator) tile.

Simulation note: BF16 elements are *stored* as ``np.float32`` values that are
exactly BF16-representable (see :mod:`repro.numerics.bf16`), so a layout
carries both the in-register element size (``element_bytes``, used for
capacity checks) and the simulation dtype.  The geometry is on every sweep's
path (core configs and the code generator read it); numpy is imported only
by the methods that build arrays.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING

from repro.errors import TileError

if TYPE_CHECKING:
    import numpy as np
    from numpy.typing import DTypeLike

#: Physical tile register geometry (Sec. IV-A: "16 rows of 64B").
ROWS = 16
ROW_BYTES = 64
TILE_BYTES = ROWS * ROW_BYTES


@dataclasses.dataclass(frozen=True)
class TileLayout:
    """A typed matrix view over the 1 KB tile register storage.

    Attributes:
        name: layout name ("bf16" or "fp32").
        dtype: the NumPy dtype used *in simulation* ("float32" for both).
        element_bytes: the architectural element size in the register (2 for
            BF16, 4 for FP32), used to check the view fills exactly 1 KB.
        rows, cols: matrix dimensions of the view.
    """

    name: str
    dtype: DTypeLike
    element_bytes: int
    rows: int
    cols: int

    def __post_init__(self) -> None:
        if self.rows * self.cols * self.element_bytes != TILE_BYTES:
            raise TileError(
                f"layout {self.name}: {self.rows}x{self.cols} of "
                f"{self.element_bytes}B does not fill a {TILE_BYTES}B tile register"
            )

    @property
    def shape(self) -> tuple:
        return (self.rows, self.cols)

    def zeros(self) -> np.ndarray:
        """A zero-initialized matrix with this layout's shape and dtype."""
        import numpy as np

        return np.zeros(self.shape, dtype=self.dtype)

    def check(self, data: np.ndarray) -> np.ndarray:
        """Validate and coerce ``data`` to this layout; raise TileError if wrong."""
        import numpy as np

        array = np.asarray(data)
        if array.shape != self.shape:
            raise TileError(
                f"layout {self.name}: expected shape {self.shape}, got {array.shape}"
            )
        return array.astype(self.dtype, copy=False)


#: BF16 tile view: 16 rows x 32 columns (values stored as bf16-exact float32).
BF16_TILE = TileLayout("bf16", "float32", 2, ROWS, 2 * ROWS)
#: FP32 tile view: 16 rows x 16 columns.
FP32_TILE = TileLayout("fp32", "float32", 4, ROWS, ROWS)
