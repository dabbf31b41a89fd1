"""Weight-stationary systolic array substrate.

This package implements the array the RASA engine is built around, at two
levels of abstraction that are cross-validated against each other:

- :mod:`repro.systolic.array` — a cycle-accurate *functional* simulator
  (actual BF16/FP32 arithmetic flowing through PE registers, Fig. 1).
- :mod:`repro.systolic.timing` — closed-form latency/occupancy models
  (Eq. 1 / Eq. 2 of the paper) used by the engine scheduler.

plus the PE microarchitecture variants of Fig. 4(c), the PE-utilization
model behind Fig. 2, and SCALE-Sim-style dataflow latency models (WS/OS/IS)
referenced in Sec. II-C.

The PE variants and sub-stage durations every engine config carries load
with the package; the rest loads on first use (:mod:`repro.utils.lazy`).
"""

from typing import TYPE_CHECKING

from repro.systolic.substage import SubStage, StageDurations
from repro.systolic.pe import PESpec, BASELINE_PE, DB_PE, DM_PE, DMDB_PE, PE_SPECS
from repro.utils.lazy import DeferredExports

if TYPE_CHECKING:
    from repro.systolic.timing import (
        fold_latency,
        inactive_time,
        mac_interval,
        pe_active_cycles,
        weight_disturb_interval,
    )
    from repro.systolic.array import ArrayRun, SystolicArray
    from repro.systolic.os_array import OutputStationaryArray
    from repro.systolic.utilization import utilization_single_fold, utilization_sweep
    from repro.systolic.dataflow import Dataflow, gemm_dataflow_latency

__getattr__ = DeferredExports(__name__, {
    "repro.systolic.timing": (
        "fold_latency",
        "inactive_time",
        "mac_interval",
        "pe_active_cycles",
        "weight_disturb_interval",
    ),
    "repro.systolic.array": ("ArrayRun", "SystolicArray"),
    "repro.systolic.os_array": ("OutputStationaryArray",),
    "repro.systolic.utilization": ("utilization_single_fold", "utilization_sweep"),
    "repro.systolic.dataflow": ("Dataflow", "gemm_dataflow_latency"),
})

__all__ = [
    "SubStage",
    "StageDurations",
    "PESpec",
    "BASELINE_PE",
    "DB_PE",
    "DM_PE",
    "DMDB_PE",
    "PE_SPECS",
    "fold_latency",
    "inactive_time",
    "mac_interval",
    "weight_disturb_interval",
    "pe_active_cycles",
    "SystolicArray",
    "OutputStationaryArray",
    "ArrayRun",
    "utilization_single_fold",
    "utilization_sweep",
    "Dataflow",
    "gemm_dataflow_latency",
]
