"""Analysis passes over programs and schedules: static verification, occupancy, bounds.

The bounds oracle and the verifier load with the package; the numpy-backed
occupancy timelines load on first use (:mod:`repro.utils.lazy`).
"""

from typing import TYPE_CHECKING

from repro.analysis.bounds import (
    RESOURCE_ORDER,
    BoundsCheck,
    BoundsReport,
    BoundViolation,
    ResourceBound,
    bound_program,
    bound_shape,
    cross_check_bounds,
)
from repro.analysis.verifier import (
    Diagnostic,
    HazardReport,
    PolicyCounters,
    Region,
    StaticCounters,
    VerifierReport,
    hazard_report,
    kernel_regions,
    lint_shape,
    static_counters,
    verify_kernel,
    verify_program,
)
from repro.utils.lazy import DeferredExports

if TYPE_CHECKING:
    from repro.analysis.occupancy import (
        OccupancyReport,
        occupancy_timeline,
        schedule_utilization,
        single_mm_active_pes,
    )

__getattr__ = DeferredExports(__name__, {
    "repro.analysis.occupancy": (
        "OccupancyReport",
        "occupancy_timeline",
        "schedule_utilization",
        "single_mm_active_pes",
    ),
})

__all__ = [
    "single_mm_active_pes",
    "occupancy_timeline",
    "schedule_utilization",
    "OccupancyReport",
    "RESOURCE_ORDER",
    "BoundsCheck",
    "BoundsReport",
    "BoundViolation",
    "ResourceBound",
    "bound_program",
    "bound_shape",
    "cross_check_bounds",
    "Diagnostic",
    "HazardReport",
    "PolicyCounters",
    "Region",
    "StaticCounters",
    "VerifierReport",
    "hazard_report",
    "kernel_regions",
    "lint_shape",
    "static_counters",
    "verify_kernel",
    "verify_program",
]
