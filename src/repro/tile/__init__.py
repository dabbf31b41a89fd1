"""Tile register file substrate (Intel-AMX-like, Sec. II-B / IV-A).

Eight architectural tile registers, each 16 rows x 64 B (1 KB).  A register
holds either a BF16 tile (16x32) or an FP32 tile (16x16); the register file
additionally tracks the per-register *dirty bits* that the WLBP control
optimization consults to detect safe weight reuse.

The geometry and the host-matrix address arithmetic load with the package;
the numpy-backed registers, register file, memory and VNNI packing load on
first use (:mod:`repro.utils.lazy`).
"""

from typing import TYPE_CHECKING

from repro.tile.layout import TileLayout, BF16_TILE, FP32_TILE
from repro.tile.hostmem import HostMatrix, layout_gemm_operands
from repro.utils.lazy import DeferredExports

if TYPE_CHECKING:
    from repro.tile.register import TileRegister
    from repro.tile.regfile import TileRegisterFile
    from repro.tile.memory import TileMemory
    from repro.tile.vnni import pack_b_vnni, unpack_b_vnni, unpack_b_tile

__getattr__ = DeferredExports(__name__, {
    "repro.tile.register": ("TileRegister",),
    "repro.tile.regfile": ("TileRegisterFile",),
    "repro.tile.memory": ("TileMemory",),
    "repro.tile.vnni": ("pack_b_vnni", "unpack_b_vnni", "unpack_b_tile"),
})

__all__ = [
    "TileLayout",
    "BF16_TILE",
    "FP32_TILE",
    "TileRegister",
    "TileRegisterFile",
    "TileMemory",
    "HostMatrix",
    "layout_gemm_operands",
    "pack_b_vnni",
    "unpack_b_vnni",
    "unpack_b_tile",
]
