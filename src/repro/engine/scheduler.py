"""Sub-stage timeline scheduler: where RASA-Control actually happens.

The scheduler assigns each ``rasa_mm`` a :class:`StageTimes` — the engine
cycles at which its WL/FF/FS/DR sub-stages run — subject to

1. dataflow within the instruction: FF may not start before its WL ends
   (weights must be resident / the shadow swap happens at FF start), and the
   streaming wavefront cannot stall, so FS and DR follow FF back-to-back;
2. structural resources: one weight-load path (WL regions serialize), the
   row-0 west feeders (FF regions serialize), the south drain ports;
3. the control policy's overlap rules (Fig. 4b):
   - BASE  — WL waits for the previous DR to finish (full serialization);
   - PIPE  — WL may overlap the previous DR (waits only for its FS end);
   - WLBP  — like PIPE, but when the B register's weights are already
     resident and clean, WL is skipped and FF may start as soon as the
     previous FF ends (overlapping the previous FS and DR);
   - WLS   — WL prefetches into the shadow buffer, constrained only by the
     load links being free and the shadow being vacated (previous FF start).

``check_schedule_legality`` independently re-verifies a produced schedule
against the closed-form per-PE occupancy windows of
:mod:`repro.systolic.timing` — MAC windows, single-buffer weight disturbance
and drain ports must never collide.  The test suite runs it over every
policy and workload shape.
"""

from __future__ import annotations

import dataclasses
from typing import Hashable, Optional, Sequence

from repro.engine.config import ControlPolicy, EngineConfig
from repro.errors import ScheduleError


@dataclasses.dataclass(frozen=True)
class StageTimes:
    """Scheduled sub-stage boundaries of one rasa_mm, in engine cycles.

    All intervals are half-open.  A bypassed instruction has a zero-width WL
    (``wl_start == wl_end == ff_start``).  ``complete`` adds the pipelined
    merge-adder latency of DM designs to ``dr_end``.
    """

    index: int
    wl_start: int
    wl_end: int
    ff_start: int
    ff_end: int
    fs_end: int
    dr_end: int
    complete: int
    bypassed: bool

    def __post_init__(self) -> None:
        ordered = (
            self.wl_start <= self.wl_end <= self.ff_start
            and self.ff_start <= self.ff_end <= self.fs_end <= self.dr_end <= self.complete
        )
        if not ordered:
            raise ScheduleError(f"stage times out of order: {self}")

    @property
    def fs_start(self) -> int:
        return self.ff_end

    @property
    def dr_start(self) -> int:
        return self.fs_end

    @property
    def span(self) -> int:
        """Cycles from first activity to completion."""
        return self.complete - self.wl_start


class EngineScheduler:
    """Schedules an in-order stream of rasa_mm operations onto the array.

    The scheduler is deliberately independent of the CPU model: callers pass
    operand readiness times (in engine cycles) and an opaque *weight key*
    identifying the B register's exact contents (architectural register plus
    write version), and get back the scheduled stage times.
    """

    def __init__(self, config: EngineConfig) -> None:
        self.config = config
        # Read once: ``schedule_mm`` runs once per mm of every program.
        self._bypasses_on_reuse = config.control.bypasses_on_reuse
        self._prev: Optional[StageTimes] = None
        self._resident_weights: Optional[Hashable] = None
        self._count = 0
        self._bypasses = 0
        self._weight_loads = 0

    # -- queries ------------------------------------------------------------------

    @property
    def mm_count(self) -> int:
        return self._count

    @property
    def bypass_count(self) -> int:
        return self._bypasses

    @property
    def weight_load_count(self) -> int:
        return self._weight_loads

    @property
    def last(self) -> Optional[StageTimes]:
        return self._prev

    @property
    def resident_weights(self) -> Optional[Hashable]:
        """Key of the weights currently held by the active buffers."""
        return self._resident_weights

    def reset(self) -> None:
        self._prev = None
        self._resident_weights = None
        self._count = 0
        self._bypasses = 0
        self._weight_loads = 0

    # -- scheduling -----------------------------------------------------------------

    def schedule_mm(
        self,
        ready_b: int,
        ready_ac: int,
        weight_key: Hashable,
    ) -> StageTimes:
        """Schedule the next rasa_mm.

        Args:
            ready_b: engine cycle at which the B (weight) register is readable.
            ready_ac: engine cycle at which both A and C registers are readable.
            weight_key: identity of the B register *contents* — equal keys mean
                bit-identical weights (the dirty-bit test of WLBP).

        Returns:
            The scheduled :class:`StageTimes`.
        """
        config = self.config
        stages = config.stages
        prev = self._prev
        policy = config.control

        bypass = (
            self._bypasses_on_reuse
            and self._resident_weights is not None
            and self._resident_weights == weight_key
        )

        if bypass:
            ff_floor = max(ready_b, ready_ac)
            if prev is not None:
                if config.wlbp_ff_overlaps_fs:
                    ff_floor = max(ff_floor, prev.ff_end)
                else:
                    ff_floor = max(ff_floor, prev.fs_end)
            ff_start = ff_floor
            wl_start = wl_end = ff_start
        else:
            wl_floor = ready_b
            if prev is not None:
                wl_floor = max(wl_floor, prev.wl_end)
                if policy is ControlPolicy.BASE:
                    wl_floor = max(wl_floor, prev.dr_end)
                elif policy in (ControlPolicy.PIPE, ControlPolicy.WLBP):
                    wl_floor = max(wl_floor, prev.fs_end)
                else:  # WLS: shadow load; wait only for the shadow to be free
                    wl_floor = max(wl_floor, prev.ff_start)
            wl_start = wl_floor
            wl_end = wl_start + stages.wl
            ff_start = max(wl_end, ready_ac)
            if prev is not None:
                ff_start = max(ff_start, prev.ff_end)
            self._weight_loads += 1

        ff_end = ff_start + stages.ff
        fs_end = ff_end + stages.fs
        dr_end = fs_end + stages.dr
        complete = dr_end + stages.extra

        times = StageTimes(
            index=self._count,
            wl_start=wl_start,
            wl_end=wl_end,
            ff_start=ff_start,
            ff_end=ff_end,
            fs_end=fs_end,
            dr_end=dr_end,
            complete=complete,
            bypassed=bypass,
        )
        if prev is not None and times.dr_start < prev.dr_end:
            raise ScheduleError(
                f"drain-port conflict between mm {prev.index} and {times.index}: "
                f"{prev.dr_end} > {times.dr_start}"
            )

        self._prev = times
        self._resident_weights = weight_key
        self._count += 1
        if bypass:
            self._bypasses += 1
        return times

    def invalidate_weights(self, weight_key: Hashable) -> None:
        """Drop residency if ``weight_key`` matches (a write dirtied the register)."""
        if self._resident_weights == weight_key:
            self._resident_weights = None


def check_schedule_legality(
    schedule: Sequence[StageTimes],
    config: EngineConfig,
) -> None:
    """Re-verify a schedule against per-PE occupancy closed forms.

    Raises :class:`ScheduleError` on the first violation.  Checks, for every
    adjacent pair of instructions:

    - FF separation >= TM (MAC windows at every PE are disjoint);
    - weights are in place before use (FF >= own WL end);
    - on single-buffered designs, the next WL's buffer-disturbance window
      starts only after the previous instruction's last MAC in every row
      (``wl_start >= prev.ff_start + TM + C − 1``);
    - drain ports never emit two instructions' outputs in the same cycle.
    """
    stages = config.stages
    tm = config.tile_m
    cols = config.phys_cols
    single_buffered = not config.pe.is_double_buffered
    for i, cur in enumerate(schedule):
        if cur.ff_start < cur.wl_end:
            raise ScheduleError(f"mm {cur.index}: FF starts before its WL ends")
        if not cur.bypassed and cur.wl_end - cur.wl_start != stages.wl:
            raise ScheduleError(f"mm {cur.index}: WL duration != {stages.wl}")
        if cur.ff_end - cur.ff_start != stages.ff:
            raise ScheduleError(f"mm {cur.index}: FF duration != {stages.ff}")
        if i == 0:
            continue
        prev = schedule[i - 1]
        if cur.ff_start < prev.ff_start + tm:
            raise ScheduleError(
                f"MAC-window overlap: mm {cur.index} FF at {cur.ff_start} < "
                f"mm {prev.index} FF {prev.ff_start} + TM {tm}"
            )
        if single_buffered and not cur.bypassed:
            earliest = prev.ff_start + tm + cols - 1
            if cur.wl_start < earliest:
                raise ScheduleError(
                    f"weight-buffer disturbance: mm {cur.index} WL at "
                    f"{cur.wl_start} < {earliest} (prev FF {prev.ff_start})"
                )
        if cur.dr_start < prev.dr_end:
            raise ScheduleError(
                f"drain-port conflict between mm {prev.index} and mm {cur.index}"
            )
