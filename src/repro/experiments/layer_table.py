"""Table I — the evaluated layer dimensions, plus their lowered GEMMs."""

from __future__ import annotations

from repro.utils.tables import format_table
from repro.workloads.layers import TABLE1_LAYERS, table1_gemms
from repro.workloads.ops import ConvOp


def table1_report() -> str:
    """Render Table I with the lowered GEMM shape and rasa_mm count."""
    gemms = table1_gemms()
    rows = []
    for name, layer in TABLE1_LAYERS.items():
        if isinstance(layer, ConvOp):
            dims = (
                f"N={layer.batch} K={layer.filters} C={layer.channels} "
                f"X=Y={layer.x} R=S={layer.r}"
            )
        else:
            dims = f"N={layer.batch} NIN={layer.nin} NON={layer.non}"
        gemm = gemms[name]
        rows.append(
            (name, dims, f"{gemm.m}x{gemm.n}x{gemm.k}", gemm.mm_count)
        )
    return format_table(
        ["layer", "dimensions", "GEMM MxNxK", "rasa_mm count"],
        rows,
        title="Table I — layer dimensions used in evaluation",
    )
