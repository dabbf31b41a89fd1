"""Engine configuration: tile geometry, array geometry, control policy.

The ISA fixes the logical tile dimensions (Sec. IV-A): TM = 16 input rows,
TK = 32 reduction depth, TN = 16 output columns — one ``rasa_mm`` computes
``C(16x16 f32) += A(16x32 bf16) @ B(32x16 bf16)``.  The *physical* array is
derived from the PE variant: double-multiplier PEs pack two K values per PE,
halving the row count at equal multiplier count (32x16 -> 16x16, Sec. V).
"""

from __future__ import annotations

import dataclasses
import enum
import functools

from repro.errors import ConfigError
from repro.systolic.pe import BASELINE_PE, PESpec
from repro.systolic.substage import StageDurations
from repro.tile.layout import BF16_TILE, FP32_TILE


class ControlPolicy(enum.Enum):
    """RASA-Control pipelining schemes (Sec. IV-B, Fig. 4b)."""

    BASE = "base"    # fully serialized rasa_mm execution
    PIPE = "pipe"    # next WL overlaps previous DR
    WLBP = "wlbp"    # dirty-bit weight-load bypass on B reuse (implies PIPE)
    WLS = "wls"      # weight-load skip: prefetch into shadow buffers (needs DB)

    @property
    def bypasses_on_reuse(self) -> bool:
        """Whether the policy skips WL when the resident weights match."""
        return self in (ControlPolicy.WLBP, ControlPolicy.WLS)


@dataclasses.dataclass(frozen=True)
class EngineConfig:
    """Full configuration of one matrix-engine design point.

    Attributes:
        pe: PE microarchitecture variant (data optimization).
        control: control policy (control optimization).
        clock_mhz: engine clock (the paper runs all arrays at 500 MHz).
        wlbp_ff_overlaps_fs: the paper's WLBP additionally lets a bypassed
            instruction's FF overlap the previous FS ("we also allow these
            stages to be overlapped"); set False to restrict a bypassed FF
            to start only at the previous DR (ablation E9).
        tile_m / tile_n / tile_k: logical rasa_mm tile dimensions.  The
            defaults are fixed by the architectural 1 KB tile registers
            (16 x 16 FP32 out, 16 x 32 BF16 in); overriding them models a
            *hypothetical* ISA with differently sized registers — used by
            the register-scaling counterfactual (E17).  Functional execution
            requires the architectural defaults.
    """

    pe: PESpec = BASELINE_PE
    control: ControlPolicy = ControlPolicy.BASE
    clock_mhz: int = 500
    wlbp_ff_overlaps_fs: bool = True
    tile_m: int = FP32_TILE.rows
    tile_n: int = FP32_TILE.cols
    tile_k: int = BF16_TILE.cols

    def __post_init__(self) -> None:
        if self.clock_mhz <= 0:
            raise ConfigError(f"clock_mhz must be positive, got {self.clock_mhz}")
        if self.control is ControlPolicy.WLS and not self.pe.is_double_buffered:
            raise ConfigError(
                "WLS prefetches weights into a shadow buffer and therefore "
                f"requires a double-buffered PE; got {self.pe.name!r}"
            )
        for name in ("tile_m", "tile_n", "tile_k"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if self.tile_k % self.pe.weights_per_buffer:
            raise ConfigError(
                f"tile_k={self.tile_k} must be divisible by the PE's "
                f"weights_per_buffer={self.pe.weights_per_buffer}"
            )

    @property
    def is_architectural(self) -> bool:
        """True when the tile geometry matches the real 1 KB registers."""
        return (
            self.tile_m == FP32_TILE.rows
            and self.tile_n == FP32_TILE.cols
            and self.tile_k == BF16_TILE.cols
        )

    # -- physical array geometry -------------------------------------------------

    @property
    def phys_rows(self) -> int:
        """Physical PE rows: TK divided by the weights packed per PE."""
        return self.tile_k // self.pe.weights_per_buffer

    @property
    def phys_cols(self) -> int:
        return self.tile_n

    @property
    def num_pes(self) -> int:
        return self.phys_rows * self.phys_cols

    @property
    def num_multipliers(self) -> int:
        """Total multipliers — constant across variants by construction (Sec. V)."""
        return self.num_pes * self.pe.multipliers

    @property
    def wl_rows_per_cycle(self) -> int:
        """B rows delivered per WL cycle (2 with the RASA-DB extra links)."""
        return 2 if self.pe.is_double_buffered else 1

    @functools.cached_property
    def stages(self) -> StageDurations:
        """Sub-stage durations of one rasa_mm on this design.

        Cached on the instance: the scheduler reads it once per mm.  The
        cache lives in the instance ``__dict__``, outside the dataclass
        fields, so equality, hashing and ``asdict`` are unaffected.
        """
        return StageDurations.for_array(
            self.phys_rows,
            self.phys_cols,
            tm=self.tile_m,
            wl_rows_per_cycle=self.wl_rows_per_cycle,
            extra=1 if self.pe.is_double_multiplier else 0,
        )

    @property
    def serial_mm_latency(self) -> int:
        """Latency of one serialized rasa_mm (Eq. 1; 95 for the baseline)."""
        return self.stages.serial_total

    @property
    def min_initiation_interval(self) -> int:
        """The TM-cycle floor on back-to-back rasa_mm throughput (Sec. V)."""
        return self.tile_m

    def min_issue_delta(self, loading: bool) -> int:
        """Provable floor on the completion advance between consecutive mms.

        In engine cycles: however operand readiness lands, instruction *i*'s
        DR end trails instruction *i − 1*'s by at least this much.  Follows
        from :func:`repro.engine.scheduler.schedule_stages`'
        policy floors (``prev.dr_end`` / ``prev.fs_end`` / ``prev.ff_start``
        for BASE / PIPE+WLBP / WLS), the FF-feeder serialization
        (``ff_start >= prev.ff_end``), and the drain-port serialization the
        scheduler enforces (``dr_start >= prev.dr_end``), using
        ``dr_end == ff_start + ff + fs + dr`` for every scheduled mm.
        :mod:`repro.analysis.bounds` builds its mm-issue throughput lower
        bound from these deltas.

        Args:
            loading: whether the instruction loads weights (False: a
                WLBP/WLS bypass).
        """
        stages = self.stages
        if not loading:
            if self.wlbp_ff_overlaps_fs:
                return max(stages.ff, stages.dr)
            return max(stages.ff + stages.fs, stages.dr)
        if self.control is ControlPolicy.BASE:
            return stages.wl + stages.ff + stages.fs + stages.dr
        if self.control in (ControlPolicy.PIPE, ControlPolicy.WLBP):
            return max(stages.wl + stages.ff + stages.fs, stages.dr)
        # WLS: the shadow load needs only the shadow vacated (prev FF start).
        return max(stages.wl, stages.ff, stages.dr)

    def describe(self) -> str:
        return (
            f"{self.phys_rows}x{self.phys_cols} {self.pe.name} PEs, "
            f"{self.control.value} control @ {self.clock_mhz} MHz"
        )
