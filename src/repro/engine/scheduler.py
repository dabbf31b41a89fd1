"""Sub-stage timeline scheduler: where RASA-Control actually happens.

:func:`schedule_stages` is RASA-Control's recurrence, written once over
plain ints: it places one ``rasa_mm``'s WL/FF/FS/DR sub-stages after the
previous mm's, subject to

1. dataflow within the instruction: FF may not start before its WL ends
   (weights must be resident / the shadow swap happens at FF start), and the
   streaming wavefront cannot stall, so FS and DR follow FF back-to-back;
2. structural resources: one weight-load path (WL regions serialize), the
   row-0 west feeders (FF regions serialize), the south drain ports;
3. the control policy's overlap rules (Fig. 4b), :data:`WL_FLOORS`:
   - BASE  — WL waits for the previous DR to finish (full serialization);
   - PIPE  — WL may overlap the previous DR (waits only for its FS end);
   - WLBP  — like PIPE, but when the B register's weights are already
     resident and clean, WL is skipped and FF may start as soon as the
     previous FF ends (overlapping the previous FS and DR);
   - WLS   — WL prefetches into the shadow buffer, constrained only by the
     load links being free and the shadow being vacated (previous FF start).

:func:`engine_rules` derives what the recurrence reads of an
:class:`EngineConfig`, in one place.  :class:`EngineScheduler` (``fast-ref``,
``ooo``, ``MatrixEngine``, E17) wraps each result in a :class:`StageTimes`;
the steady-state walk behind ``fast`` and ``analytic``
(:mod:`repro.cpu.steady`) calls it once per mm and keeps the ints.  Three
oracles state the rules again, on purpose: ``EngineConfig.min_issue_delta``
(a closed form), :mod:`repro.analysis.bounds` (a relaxed mm edge) and the
verifier's residency replay.  Derived from this recurrence, a wrong rule
would loosen the bound along with the model, and ``LB <= fast`` would no
longer catch it.

``check_schedule_legality`` independently re-verifies a produced schedule
against the closed-form per-PE occupancy windows of
:mod:`repro.systolic.timing` — MAC windows, single-buffer weight disturbance
and drain ports must never collide.  The test suite runs it over every
policy and workload shape.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Hashable, Optional, Sequence, Tuple

from repro.engine.config import ControlPolicy, EngineConfig
from repro.errors import ScheduleError

#: A mm's stage ends, as the next mm's recurrence reads them:
#: ``(wl_end, ff_start, ff_end, fs_end, dr_end)``, indexed by these names.
StageEnds = Tuple[int, ...]
WL_END, FF_START, FF_END, FS_END, DR_END = range(5)

#: The previous mm's stage end each policy's weight load waits for.
WL_FLOORS: Dict[ControlPolicy, int] = {
    ControlPolicy.BASE: DR_END,
    ControlPolicy.PIPE: FS_END,
    ControlPolicy.WLBP: FS_END,
    ControlPolicy.WLS: FF_START,
}

#: Everything :func:`schedule_stages` reads of an engine configuration: the
#: WL, FF, FS and DR durations, the DM merge-adder latency after DR, the
#: previous mm's stage end a WL waits for, the one a bypassed FF waits for,
#: and whether the policy bypasses on reuse.  A plain tuple: the walk
#: unpacks it once per mm.
EngineRules = Tuple[int, int, int, int, int, int, int, bool]


def engine_rules(config: EngineConfig) -> EngineRules:
    """The rules :func:`schedule_stages` reads, derived from ``config``."""
    stages = config.stages
    return (
        stages.wl, stages.ff, stages.fs, stages.dr, stages.extra,
        WL_FLOORS[config.control],
        FF_END if config.wlbp_ff_overlaps_fs else FS_END,  # FS_END: E9's ablation
        config.control.bypasses_on_reuse,
    )


def schedule_stages(
    rules: EngineRules,
    prev: Optional[StageEnds],
    ready_b: int,
    ready_ac: int,
    resident: bool,
    index: int,
) -> Tuple[int, StageEnds, int]:
    """Place one rasa_mm's sub-stages, in engine cycles.

    ``prev`` is the previous mm's stage ends (``None`` before the first
    mm), ``ready_b``/``ready_ac`` when the B and the A/C registers are
    readable, ``resident`` whether the active buffers hold exactly B's
    contents (the dirty-bit test of WLBP) and ``index`` the mm's place in
    its stream.  Returns ``(wl_start, ends, complete)``; a bypassed WL has
    zero width (``ends[WL_END] == wl_start``).  Raises
    :class:`ScheduleError` if the drain would start before the previous
    mm's drain ends.
    """
    wl, ff, fs, dr, extra, wl_floor, bypass_floor, bypasses_on_reuse = rules
    if resident and bypasses_on_reuse:
        ff_start = ready_b if ready_b > ready_ac else ready_ac
        if prev is not None and prev[bypass_floor] > ff_start:
            ff_start = prev[bypass_floor]
        wl_start = wl_end = ff_start
    else:
        wl_start = ready_b
        if prev is not None:
            if prev[WL_END] > wl_start:
                wl_start = prev[WL_END]
            if prev[wl_floor] > wl_start:
                wl_start = prev[wl_floor]
        wl_end = wl_start + wl
        ff_start = wl_end if wl_end > ready_ac else ready_ac
        if prev is not None and prev[FF_END] > ff_start:
            ff_start = prev[FF_END]
    ff_end = ff_start + ff
    fs_end = ff_end + fs
    dr_end = fs_end + dr
    if prev is not None and fs_end < prev[DR_END]:
        raise ScheduleError(
            f"drain-port conflict between mm {index - 1} and {index}: "
            f"{prev[DR_END]} > {fs_end}"
        )
    return wl_start, (wl_end, ff_start, ff_end, fs_end, dr_end), dr_end + extra


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
    def dr_start(self) -> int:
        return self.fs_end


class EngineScheduler:
    """Schedules an in-order stream of rasa_mm operations onto the array.

    The scheduler is deliberately independent of the CPU model: callers pass
    operand readiness times (in engine cycles) and an opaque *weight key*
    identifying the B register's exact contents (architectural register plus
    write version), and get back the scheduled stage times.  A write to the
    register changes its key, so it ends the residency by itself.
    """

    def __init__(self, config: EngineConfig) -> None:
        self.config = config
        self._rules = engine_rules(config)
        self._prev: Optional[StageEnds] = None
        self._resident_weights: Optional[Hashable] = None
        self._count = 0
        self._bypasses = 0

    # -- queries ------------------------------------------------------------------

    @property
    def mm_count(self) -> int:
        return self._count

    @property
    def bypass_count(self) -> int:
        return self._bypasses

    @property
    def weight_load_count(self) -> int:
        return self._count - self._bypasses

    @property
    def resident_weights(self) -> Optional[Hashable]:
        """Key of the weights currently held by the active buffers."""
        return self._resident_weights

    def reset(self) -> None:
        self._prev = None
        self._resident_weights = None
        self._count = 0
        self._bypasses = 0

    # -- scheduling -----------------------------------------------------------------

    def schedule_mm(
        self,
        ready_b: int,
        ready_ac: int,
        weight_key: Hashable,
    ) -> StageTimes:
        """Schedule the next rasa_mm (:func:`schedule_stages`).

        Args:
            ready_b: engine cycle at which the B (weight) register is readable.
            ready_ac: engine cycle at which both A and C registers are readable.
            weight_key: identity of the B register *contents* — equal keys mean
                bit-identical weights (the dirty-bit test of WLBP).

        Returns:
            The scheduled :class:`StageTimes`.
        """
        index = self._count
        resident = (
            self._resident_weights is not None and self._resident_weights == weight_key
        )
        wl_start, ends, complete = schedule_stages(
            self._rules, self._prev, ready_b, ready_ac, resident, index
        )
        wl_end, ff_start, ff_end, fs_end, dr_end = ends
        bypassed = wl_end == wl_start
        self._prev = ends
        self._resident_weights = weight_key
        self._count = index + 1
        self._bypasses += bypassed
        return StageTimes(
            index, wl_start, wl_end, ff_start, ff_end, fs_end, dr_end, complete, bypassed
        )


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
