"""The one engine behind ``fast`` and ``analytic``: the fast core model
over a skeleton, with exact steady-state jumps.

:class:`SteadyStateWalk` computes exactly what
:class:`repro.cpu.fast.FastCoreModel` computes for the program a
:class:`~repro.cpu.decode.Skeleton` encodes — the same
:class:`~repro.cpu.result.SimResult`, with the same arithmetic — but steps
only the first periods of each repeating run of K steps, blocks and block
rows, and jumps over the rest.  ``fast`` walks a program's skeleton
(:func:`repro.cpu.decode.decode_program`); ``analytic`` walks the skeleton
of a shape (:func:`repro.workloads.array_lowering.gemm_skeleton`) and
never builds a program.

**Why a jump is exact (max-plus cyclicity).**  The fast model only adds
constants and takes maxes, so it commutes with a uniform shift: started
from a state shifted by Δ, the same instructions produce every timestamp
shifted by Δ.  So if the state after repeat ``j`` of a run equals the state
after repeat ``j - p`` plus Δ, each later period of ``p`` repeats is the
matched period shifted by one more Δ: ``k`` whole periods on, the state is
the state after ``j`` plus ``k·Δ``, and every counter has moved by ``k``
times its increment over the matched period (Baccelli, Cohen, Olsder and
Quadrat, *Synchronization and Linearity*, 1992, ch. 3).

**The compared state** is taken at a repeat boundary, relative to the
floor F, the last dispatch time.  Every later instruction dispatches after
F, so a timestamp below F loses every later ``max`` it enters; it is raised
to F before comparing.  Engine stage ends are raised to ⌈F / ratio⌉ the
same way; a raised drain end still never exceeds a later FS end, so the
drain check is unaffected.  Compared:

- the retire times of the instructions in the ROB, oldest first, and the
  last retire time;
- tile and scalar register readiness;
- the free times of each port kind, sorted: the ports of one kind are
  symmetric under least-loaded choice, so the walk keeps each kind as a
  sorted list and only the multiset matters;
- whether an mm has issued, and the engine's previous stage ends;
- the resident weights, as B register plus the writes to it since.

Register write versions, the mm/bypass/weight-load counts and the last
mm's completion are not compared; a jump advances them by their
increments.  The small fields are compared first; the ROB ring only on a
candidate match.

**When a jump is exact.**  Δ must be a multiple of the engine clock ratio,
or ⌈x / ratio⌉ would not commute with the shift.  Fetch and retire widths
must be powers of two, so every timestamp is a dyadic rational float64
holds exactly and ``k·Δ`` adds without rounding (with widths 3/6 a jump on
``GemmShape(316, 302, 1295)`` lands one cycle off).  The walk reads the
widths from the core and jumps only then; at other widths it steps every
instruction, which is ``fast-ref``'s own arithmetic.  The load latency is
one constant, so the walk models the ideal memory only.

**Why the skeleton suffices.**  Every tile operand of a generated program
is produced inside its own block and only the loop counter ``r0`` crosses
blocks (:mod:`repro.workloads.array_lowering`), so register scoreboards
over the skeleton's ops replay ``fast-ref``'s walk exactly; any other
program's skeleton is its whole stream, one block stepped op by op.  A
drain-port :class:`~repro.errors.ScheduleError` keeps ``fast-ref``'s text:
a conflict inside the periodic regime already occurs in the first stepped
period.

This module sits on the deterministic simulation path: no wall clock, no
randomness (enforced by ``tools/lint_invariants.py``).
"""

from __future__ import annotations

import bisect
import collections
import functools
from typing import Callable, Deque, List, NamedTuple, Optional, Sequence, Tuple

from repro.cpu.config import CoreConfig
from repro.cpu.decode import (
    KIND_ALU,
    KIND_LOAD,
    KIND_MM,
    KIND_STORE,
    Skeleton,
    SkeletonBlock,
    SkeletonOp,
    SkeletonRow,
)
from repro.cpu.result import SimResult
from repro.engine.config import ControlPolicy, EngineConfig
from repro.errors import ScheduleError
from repro.isa.instructions import NUM_SCALAR_REGS, NUM_TILE_REGS

#: Earlier boundaries of a run each new boundary is compared with: the
#: longest period a jump can take.
MAX_PERIOD = 8


class _Snapshot(NamedTuple):
    """The state at one repeat boundary."""

    key: tuple  # the compared state (module doc) without the ROB ring
    floor: float  # F, the last dispatch time
    retires: Tuple[float, ...]  # the ROB ring's retire times, unclamped
    mm_count: int
    bypasses: int
    weight_loads: int
    tile_version: Tuple[int, ...]
    resident_version: int


def _is_pow2(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


class SteadyStateWalk:
    """One fast-model run over a skeleton, with exact periodic jumps.

    ``load_latency`` is the ideal memory's constant tile-load latency.
    After :meth:`run`, ``walked`` holds the instructions actually stepped.
    """

    def __init__(self, core: CoreConfig, engine: EngineConfig, load_latency: int) -> None:
        self.core = core
        self.engine = engine
        #: Whether a jump is exact at this core's widths (module doc).
        self.jumps = _is_pow2(core.fetch_width) and _is_pow2(core.retire_width)
        self.ratio = core.engine_clock_ratio(engine.clock_mhz)
        self.inv_fetch = 1.0 / core.fetch_width
        self.inv_retire = 1.0 / core.retire_width
        self.transfer = core.tile_transfer_cycles
        self.load_latency = load_latency
        stages = engine.stages
        policy = engine.control
        self._engine_rules = (
            stages.wl, stages.ff, stages.fs, stages.dr, stages.extra,
            policy.bypasses_on_reuse, policy is ControlPolicy.BASE,
            policy is ControlPolicy.WLS, engine.wlbp_ff_overlaps_fs,
        )
        # CPU side, as FastCoreModel.run keeps it; port free times sorted.
        self.dispatch = float(core.frontend_latency)
        self.retire = 0.0
        #: The ROB ring: the last ``rob`` retire times, oldest first, so
        #: ``retires[0]`` is the entry the next instruction waits for.  The
        #: deque drops the oldest on each append, so a walk that steps every
        #: instruction holds ``rob`` of them, as ``fast-ref`` does.
        self.retires: Deque[float] = collections.deque(
            [0.0] * core.rob_size, maxlen=core.rob_size
        )
        self.tile_ready = [0.0] * NUM_TILE_REGS
        self.tile_version = [0] * NUM_TILE_REGS
        self.scalar_ready = [0.0] * NUM_SCALAR_REGS
        self.load_ports = [0.0] * core.load_ports
        self.store_ports = [0.0] * core.store_ports
        self.alu_ports = [0.0] * core.alu_ports
        # Engine side, as EngineScheduler keeps it.
        self.has_prev = False
        #: The previous mm's wl_end, ff_start, ff_end, fs_end and dr_end.
        self.prev: Tuple[int, ...] = (0, 0, 0, 0, 0)
        self.resident = (-1, -1)  # B register and its version
        self.mm_count = self.bypasses = self.weight_loads = 0
        self.first_wl: Optional[int] = None
        self.last_complete = 0
        self.walked = 0
        self._scalars: Tuple[int, ...] = ()

    # -- the walk ----------------------------------------------------------

    def run(self, skeleton: Skeleton, program: str) -> SimResult:
        """Walk ``skeleton``: ``fast-ref``'s result for it, named ``program``."""
        self._scalars = tuple(sorted({
            reg
            for row, _ in skeleton.rows
            for block, _ in row
            for op in block.prologue + block.kstep + block.epilogue
            if op[0] == KIND_ALU
            for reg in op[2]
        }))
        for row, repeat in skeleton.rows:
            if len(row) == 1:  # rows of one block run are one longer run
                block, count = row[0]
                self._repeat(repeat * count, functools.partial(self._block, block))
            else:
                self._repeat(repeat, functools.partial(self._row, row))
        return SimResult(
            design=self.engine.describe(),
            program=program,
            cycles=int(-(-self.retire // 1)),
            instructions=skeleton.instructions,
            mm_count=self.mm_count,
            bypass_count=self.bypasses,
            weight_loads=self.weight_loads,
            engine_busy_cycles=(
                self.last_complete - self.first_wl if self.first_wl is not None else 0
            ),
            clock_mhz=self.core.clock_mhz,
        )

    def _row(self, row: SkeletonRow) -> None:
        for block, count in row:
            self._repeat(count, functools.partial(self._block, block))

    def _block(self, block: SkeletonBlock) -> None:
        self._step(block.prologue)
        self._repeat(block.k_steps, functools.partial(self._step, block.kstep))
        self._step(block.epilogue)

    def _repeat(self, count: int, body: Callable[[], None]) -> None:
        """Walk ``count`` repeats of ``body``, jumping once the state recurs."""
        history: Optional[List[_Snapshot]] = [] if self.jumps else None
        done = 0
        while done < count:
            body()
            done += 1
            if history is None or done == count:
                continue
            now = self._snapshot()
            match = self._match(now, history)
            if match is None:
                history.append(now)
                if len(history) > MAX_PERIOD:
                    del history[0]
                continue
            period, then = match
            periods = (count - done) // period
            if periods:
                self._advance(periods, now, then)
                done += periods * period
            history = None  # walk the tail

    # -- one stretch of instructions: FastCoreModel.run's arithmetic -------

    def _step(self, ops: Sequence[SkeletonOp]) -> None:
        inv_fetch = self.inv_fetch
        inv_retire = self.inv_retire
        transfer = self.transfer
        load_latency = self.load_latency
        insort = bisect.insort
        retires = self.retires
        append = retires.append
        tile_ready = self.tile_ready
        tile_version = self.tile_version
        scalar_ready = self.scalar_ready
        load_ports = self.load_ports
        store_ports = self.store_ports
        alu_ports = self.alu_ports
        dispatch = self.dispatch
        retire = self.retire

        ratio = self.ratio
        (s_wl, s_ff, s_fs, s_dr, s_extra,
         bypass_on_reuse, is_base, is_wls, ff_overlaps_fs) = self._engine_rules
        has_prev = self.has_prev
        prev_wl_end, prev_ff_start, prev_ff_end, prev_fs_end, prev_dr_end = self.prev
        resident_b, resident_v = self.resident
        mm_count = self.mm_count
        bypasses = self.bypasses
        weight_loads = self.weight_loads
        first_wl = self.first_wl
        last_complete = self.last_complete

        for op in ops:
            d = dispatch + inv_fetch
            t = retires[0]
            if t > d:
                d = t
            dispatch = d
            kind = op[0]
            if kind == KIND_LOAD:
                start = load_ports[0]
                if d > start:
                    start = d
                del load_ports[0]
                insort(load_ports, start + transfer)
                complete = start + load_latency
                reg = op[1]
                tile_ready[reg] = complete
                tile_version[reg] += 1
            elif kind == KIND_MM:
                _, c, a, b = op
                ready_cpu = d
                t = tile_ready[a]
                if t > ready_cpu:
                    ready_cpu = t
                t = tile_ready[b]
                if t > ready_cpu:
                    ready_cpu = t
                t = tile_ready[c]
                if t > ready_cpu:
                    ready_cpu = t
                ready = int(-(-ready_cpu // ratio))
                version = tile_version[b]
                if bypass_on_reuse and resident_b == b and resident_v == version:
                    ff_start = ready
                    if has_prev:
                        floor = prev_ff_end if ff_overlaps_fs else prev_fs_end
                        if floor > ff_start:
                            ff_start = floor
                    wl_start = wl_end = ff_start
                    bypasses += 1
                else:
                    wl_start = ready
                    if has_prev:
                        if prev_wl_end > wl_start:
                            wl_start = prev_wl_end
                        if is_base:
                            floor = prev_dr_end
                        elif is_wls:
                            floor = prev_ff_start
                        else:  # PIPE / WLBP
                            floor = prev_fs_end
                        if floor > wl_start:
                            wl_start = floor
                    wl_end = wl_start + s_wl
                    ff_start = wl_end if wl_end > ready else ready
                    if has_prev and prev_ff_end > ff_start:
                        ff_start = prev_ff_end
                    weight_loads += 1
                ff_end = ff_start + s_ff
                fs_end = ff_end + s_fs
                dr_end = fs_end + s_dr
                if has_prev and fs_end < prev_dr_end:
                    raise ScheduleError(
                        f"drain-port conflict between mm {mm_count - 1} and "
                        f"{mm_count}: {prev_dr_end} > {fs_end}"
                    )
                if first_wl is None:
                    first_wl = wl_start
                last_complete = dr_end + s_extra
                complete = float(last_complete * ratio)
                tile_ready[c] = complete
                tile_version[c] += 1
                has_prev = True
                prev_wl_end = wl_end
                prev_ff_start = ff_start
                prev_ff_end = ff_end
                prev_fs_end = fs_end
                prev_dr_end = dr_end
                resident_b = b
                resident_v = version
                mm_count += 1
            elif kind == KIND_STORE:
                start = store_ports[0]
                if d > start:
                    start = d
                t = tile_ready[op[1]]
                if t > start:
                    start = t
                complete = start + transfer
                del store_ports[0]
                insort(store_ports, complete)
            else:  # scalar ALU / branch
                start = alu_ports[0]
                if d > start:
                    start = d
                for reg in op[1]:
                    t = scalar_ready[reg]
                    if t > start:
                        start = t
                complete = start + 1
                del alu_ports[0]
                insort(alu_ports, complete)
                for reg in op[2]:
                    scalar_ready[reg] = complete
            t = retire + inv_retire
            retire = complete + 1
            if t > retire:
                retire = t
            append(retire)

        self.dispatch = dispatch
        self.retire = retire
        self.has_prev = has_prev
        self.prev = (prev_wl_end, prev_ff_start, prev_ff_end, prev_fs_end, prev_dr_end)
        self.resident = (resident_b, resident_v)
        self.mm_count = mm_count
        self.bypasses = bypasses
        self.weight_loads = weight_loads
        self.first_wl = first_wl
        self.last_complete = last_complete
        self.walked += len(ops)

    # -- periods -------------------------------------------------------------

    def _snapshot(self) -> _Snapshot:
        """The clamped state relative to the floor (module doc), and counters."""
        floor = self.dispatch
        scalar_ready = self.scalar_ready
        cpu = [
            *self.tile_ready,
            *[scalar_ready[reg] for reg in self._scalars],
            *self.load_ports,
            *self.store_ports,
            *self.alu_ports,
        ]
        key: list = [self.retire - floor]
        key += [(t if t > floor else floor) - floor for t in cpu]
        if self.has_prev:
            efloor = int(-(-floor // self.ratio))
            key += [(e if e > efloor else efloor) - efloor for e in self.prev]
        b, v = self.resident
        key.append(b)
        key.append(self.tile_version[b] - v if b >= 0 else 0)
        return _Snapshot(
            tuple(key), floor, tuple(self.retires), self.mm_count, self.bypasses,
            self.weight_loads, tuple(self.tile_version), v,
        )

    @staticmethod
    def _ring(snapshot: _Snapshot) -> List[float]:
        floor = snapshot.floor
        return [(t if t > floor else floor) - floor for t in snapshot.retires]

    def _match(
        self, now: _Snapshot, history: List[_Snapshot]
    ) -> Optional[Tuple[int, _Snapshot]]:
        """The shortest period ``p`` whose boundary ``p`` back matches ``now``."""
        ring = None
        for period in range(1, len(history) + 1):
            then = history[-period]
            if then.key != now.key or (now.floor - then.floor) % self.ratio:
                continue
            if ring is None:
                ring = self._ring(now)
            if self._ring(then) == ring:
                return period, then
        return None

    def _advance(self, periods: int, now: _Snapshot, then: _Snapshot) -> None:
        """Jump ``periods`` periods of ``now``'s match with ``then``."""
        shift = periods * (now.floor - then.floor)
        self.dispatch += shift
        self.retire += shift
        retires = self.retires
        retires.extend([t + shift for t in retires])
        for times in (self.tile_ready, self.scalar_ready, self.load_ports,
                      self.store_ports, self.alu_ports):
            times[:] = [t + shift for t in times]
        engine_shift = int(shift) // self.ratio
        if self.has_prev:
            self.prev = tuple(e + engine_shift for e in self.prev)
        if now.mm_count > then.mm_count:  # the last mm moves too
            self.last_complete += engine_shift
        self.mm_count += periods * (now.mm_count - then.mm_count)
        self.bypasses += periods * (now.bypasses - then.bypasses)
        self.weight_loads += periods * (now.weight_loads - then.weight_loads)
        self.tile_version[:] = [
            version + periods * (late - early)
            for version, late, early in zip(
                self.tile_version, now.tile_version, then.tile_version
            )
        ]
        b, v = self.resident
        self.resident = (
            b, v + periods * (now.resident_version - then.resident_version)
        )


__all__ = ["MAX_PERIOD", "SteadyStateWalk"]
