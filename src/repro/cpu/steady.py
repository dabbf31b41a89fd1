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
to F before comparing.  Engine stage ends are raised to the engine floor
⌈F / (ratio·L)⌉ the same way; a raised drain end still never exceeds a
later FS end, so the drain check is unaffected.  Compared:

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
increments.  At K-step boundaries the small fields are compared first and
the ROB ring only on a candidate match; block and row boundaries compare
the packed whole state the memo keys on (below).

**When a jump is exact.**  Time is ``fast-ref``'s integer ticks of 1/L
cycle (:attr:`~repro.cpu.config.CoreConfig.ticks_per_cycle`), exact at
every width, so ``k·Δ`` adds without rounding.  Δ must be a multiple of
one engine cycle, ``ratio·L`` ticks, or ⌈t / (ratio·L)⌉ would not commute
with the shift.  The load latency is one constant, so the walk models the
ideal memory only.

**Why the skeleton suffices.**  Every tile operand of a generated program
is produced inside its own block and only the loop counter ``r0`` crosses
blocks (:mod:`repro.workloads.array_lowering`), so register scoreboards
over the skeleton's ops replay ``fast-ref``'s walk exactly; any other
program's skeleton is its whole stream, one block stepped op by op.  A
drain-port :class:`~repro.errors.ScheduleError` keeps ``fast-ref``'s text:
a conflict inside the periodic regime already occurs in the first stepped
period.

**Memo.**  The same argument makes a block's effect a function of its
entry state relative to the floor: entered from a state shifted by whole
engine cycles, a block leaves its exit state shifted alike and moves
every counter by the same amount.  So one process remembers each block
it walks, across walks, shapes and designs, and replays it for any later
walk that enters the block from the same relative state (a grid's points
share blocks: on perfbench ``analytic-grid`` 4,480 of 5,440 block walks
are replays).

- *Key:* a token for everything the walk reads besides the state (the
  core, the engine's stage rules and clock ratio, the load latency and
  the scalar registers the skeleton writes), the block, and the packed
  entry state: the compared state above, ROB ring included, with F modulo
  the engine cycle, as one int64 ``bytes``.  Every timestamp is a tick
  count, so packing loses nothing, and block and row boundaries use the
  same packed state to find periods, so a miss packs each boundary once.
- *Stored:* the packed exit state, the floor's advance, the
  mm/bypass/weight-load counts, the writes per tile register, and the last
  mm's completion (and, entered before any mm, the first weight load)
  relative to the entry's engine floor.
- *A hit* keeps the exit state packed at the shifted floor and rebuilds
  the timestamps only before the walk next steps an instruction; it steps
  none (``walked``).  Jumps shift a packed state by moving its floor.
- *Scope:* every block with K steps, so every block of a generated
  program: a hand-built program's one-block skeleton runs once and would
  pin its whole stream.  A block that raises stores nothing.
  Blocks are keyed by identity; :func:`~repro.workloads.array_lowering.gemm_skeleton`
  returns one shared object per distinct block.
- *Bound:* :data:`BLOCK_MEMO_SIZE` entries; a full memo is emptied.
  Packed states and write counts are interned (a block's exit state is
  the next block's entry).  Every memo operation is one dict read or write, so
  walks in threads share it safely; :meth:`SteadyStateWalk.cache_info`
  counts hits and misses (a thread race may drop a count) and
  :meth:`SteadyStateWalk.cache_clear` empties it.

This module sits on the deterministic simulation path: no wall clock, no
randomness (enforced by ``tools/lint_invariants.py``).
"""

from __future__ import annotations

import bisect
import collections
import functools
import struct
from typing import Any, Callable, Deque, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

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

#: Block walks the memo keeps (module doc, "Memo"); it is cleared when full.
BLOCK_MEMO_SIZE = 4096


class _Snapshot(NamedTuple):
    """The state at one repeat boundary."""

    #: The compared state (module doc): at K-step boundaries a list without
    #: the ROB ring, which is compared only on a candidate match; at block
    #: and row boundaries the packed whole state, ring included.
    key: Union[List[int], bytes]
    floor: int  # F, the last dispatch time
    retires: Optional[Tuple[int, ...]]  # the unclamped ring, if ``key`` lacks it
    mm_count: int
    bypasses: int
    weight_loads: int
    tile_version: Tuple[int, ...]


class _BlockEffect(NamedTuple):
    """What one block did to the state it entered (module doc, "Memo")."""

    state: bytes  # the packed exit state
    advance: int  # exit floor minus entry floor
    mm_count: int
    bypasses: int
    weight_loads: int
    tile_version: Tuple[int, ...]  # per-register write counts
    #: The last mm's completion and, entered before any mm, the first
    #: weight load, in engine cycles after the entry's engine floor; None
    #: when the block issues no mm (or, for ``first_wl``, one had issued).
    last_complete: Optional[int]
    first_wl: Optional[int]


class CacheInfo(NamedTuple):
    """The walk memo's statistics, as ``functools.lru_cache`` reports them."""

    hits: int
    misses: int
    maxsize: int
    currsize: int


#: The memo: ``(walk token, block, packed entry state)`` -> its effect.
_BLOCKS: Dict[tuple, _BlockEffect] = {}
#: Everything a walk reads (its core, engine rules, clock ratio, load
#: latency and scalar registers) -> the token its memo keys carry.
_TOKENS: Dict[tuple, object] = {}
#: One object per distinct packed state and per-block version counts: a
#: block's exit state is the next block's entry state, and walks that reach
#: a state by stepping share the copy the memo holds.
_INTERNED: Dict[Any, Any] = {}
#: Memo hits and misses since the last clear.
_STATS = [0, 0]


def _forget() -> None:
    """Drop every memo entry; a walk holding a dropped token stores on."""
    _BLOCKS.clear()
    _TOKENS.clear()
    _INTERNED.clear()


class SteadyStateWalk:
    """One fast-model run over a skeleton, with exact periodic jumps.

    ``load_latency`` is the ideal memory's tile-load latency, in cycles.
    After :meth:`run`, ``walked`` holds the instructions actually stepped.
    """

    def __init__(self, core: CoreConfig, engine: EngineConfig, load_latency: int) -> None:
        self.core = core
        self.engine = engine
        tick = self.tick = core.ticks_per_cycle
        self.fetch_step = tick // core.fetch_width
        self.retire_step = tick // core.retire_width
        self.engine_tick = core.engine_clock_ratio(engine.clock_mhz) * tick  # per engine cycle
        self.transfer = core.tile_transfer_cycles * tick
        self.load_latency = load_latency * tick
        stages = engine.stages
        policy = engine.control
        self._engine_rules = (
            stages.wl, stages.ff, stages.fs, stages.dr, stages.extra,
            policy.bypasses_on_reuse, policy is ControlPolicy.BASE,
            policy is ControlPolicy.WLS, engine.wlbp_ff_overlaps_fs,
        )
        # CPU side, as FastCoreModel.run keeps it; port free times sorted.
        self.dispatch = core.frontend_latency * tick
        self.retire = 0
        #: The ROB ring: the last ``rob`` retire times, oldest first, so
        #: ``retires[0]`` is the entry the next instruction waits for.  The
        #: deque drops the oldest on each append, so a walk that steps every
        #: instruction holds ``rob`` of them, as ``fast-ref`` does.
        self.retires: Deque[int] = collections.deque(
            [0] * core.rob_size, maxlen=core.rob_size
        )
        self.tile_ready = [0] * NUM_TILE_REGS
        self.tile_version = [0] * NUM_TILE_REGS
        self.scalar_ready = [0] * NUM_SCALAR_REGS
        self.load_ports = [0] * core.load_ports
        self.store_ports = [0] * core.store_ports
        self.alu_ports = [0] * core.alu_ports
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
        #: This walk's memo token, set by :meth:`run`.
        self._token: object = None
        #: The packed whole state (:meth:`_state`), while it is current.
        self._packed: Optional[bytes] = None
        #: False after a memo hit until :meth:`_materialize`: then only
        #: ``_packed``, ``dispatch``, the versions and the counters are
        #: current, and the other timestamps are rebuilt from ``_packed``.
        self._live = True

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
        reads = (self.core, self._engine_rules, self.engine_tick, self.load_latency,
                 self._scalars)
        self._token = _TOKENS.setdefault(reads, object())
        for row, repeat in skeleton.rows:
            if len(row) == 1:  # rows of one block run are one longer run
                block, count = row[0]
                self._repeat(repeat * count, functools.partial(self._block, block))
            else:
                self._repeat(repeat, functools.partial(self._row, row))
        if not self._live:  # after a memo hit: of the timestamps, read only this
            self.retire = self.dispatch + memoryview(self._state()).cast("q")[0]
        return SimResult(
            design=self.engine.describe(),
            program=program,
            cycles=-(-self.retire // self.tick),
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
        """Replay ``block``'s memoized effect, or walk it and memoize it."""
        if not block.k_steps:
            self._walk(block)
            return
        key = (self._token, block, self._state())
        effect = _BLOCKS.get(key)
        if effect is not None:
            _STATS[0] += 1
            self._replay(effect)
            return
        _STATS[1] += 1
        floor, mm_count, bypasses, weight_loads = (
            self.dispatch, self.mm_count, self.bypasses, self.weight_loads)
        versions = tuple(self.tile_version)
        first = self.first_wl is None
        self._walk(block)  # a ScheduleError stores nothing
        efloor = -(-floor // self.engine_tick)
        mms = self.mm_count - mm_count
        if len(_BLOCKS) >= BLOCK_MEMO_SIZE:
            _forget()
        writes = tuple(late - early for late, early in zip(self.tile_version, versions))
        _BLOCKS[key] = _BlockEffect(
            self._state(), self.dispatch - floor, mms, self.bypasses - bypasses,
            self.weight_loads - weight_loads, _INTERNED.setdefault(writes, writes),
            self.last_complete - efloor if mms else None,
            self.first_wl - efloor if mms and first else None,  # type: ignore[operator]
        )

    def _walk(self, block: SkeletonBlock) -> None:
        self._materialize()
        self._packed = None
        self._step(block.prologue)
        self._repeat(
            block.k_steps, functools.partial(self._step, block.kstep), whole=False
        )
        self._step(block.epilogue)

    def _repeat(self, count: int, body: Callable[[], None], whole: bool = True) -> None:
        """Walk ``count`` repeats of ``body``, jumping once the state recurs.

        ``whole``: compare the packed whole state at each boundary, as block
        and row boundaries do; K-step boundaries compare the ring lazily.
        """
        history: Optional[List[_Snapshot]] = []
        done = 0
        while done < count:
            body()
            done += 1
            if history is None or done == count:
                continue
            now = self._snapshot(whole)
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
        tick = self.tick
        fetch_step = self.fetch_step
        retire_step = self.retire_step
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

        engine_tick = self.engine_tick
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
            d = dispatch + fetch_step
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
                ready = -(-ready_cpu // engine_tick)
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
                complete = last_complete * engine_tick
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
                complete = start + tick
                del alu_ports[0]
                insort(alu_ports, complete)
                for reg in op[2]:
                    scalar_ready[reg] = complete
            t = retire + retire_step
            retire = complete + tick
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

    def _key(self) -> List[int]:
        """The clamped state relative to the floor (module doc), ring aside."""
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
        b, v = self.resident
        key.append(b)
        key.append(self.tile_version[b] - v if b >= 0 else 0)
        if self.has_prev:
            efloor = -(-floor // self.engine_tick)
            key += [(e if e > efloor else efloor) - efloor for e in self.prev]
        return key

    def _state(self) -> bytes:
        """The whole compared state, packed: :meth:`_key`, F mod the engine cycle, ring."""
        state = self._packed
        if state is None:
            floor = self.dispatch
            values = self._key()
            values.append(floor % self.engine_tick)
            values += [t - floor if t > floor else 0 for t in self.retires]
            state = struct.pack(f"{len(values)}q", *values)
            state = self._packed = _INTERNED.setdefault(state, state)
        return state

    def _materialize(self) -> None:
        """Rebuild every timestamp from the packed state after memo hits."""
        if self._live:
            return
        values = memoryview(self._state()).cast("q").tolist()
        floor = self.dispatch
        retires = self.retires
        retires.extend([floor + t for t in values[-len(retires):]])
        self.retire = floor + values[0]
        self.tile_ready[:] = [floor + t for t in values[1:1 + NUM_TILE_REGS]]
        at = 1 + NUM_TILE_REGS
        for reg in self._scalars:
            self.scalar_ready[reg] = floor + values[at]
            at += 1
        for times in (self.load_ports, self.store_ports, self.alu_ports):
            times[:] = [floor + t for t in values[at:at + len(times)]]
            at += len(times)
        if self.has_prev:  # else no mm has issued: no resident, no stage ends
            b = values[at]
            self.resident = (b, self.tile_version[b] - values[at + 1])
            efloor = -(-floor // self.engine_tick)
            self.prev = tuple(efloor + e for e in values[at + 2:at + 7])
        self._live = True

    def _replay(self, effect: _BlockEffect) -> None:
        """Apply a memoized block effect from the current floor."""
        if effect.last_complete is not None:
            efloor = -(-self.dispatch // self.engine_tick)
            self.last_complete = efloor + effect.last_complete
            if effect.first_wl is not None:
                self.first_wl = efloor + effect.first_wl
            self.has_prev = True
        self.dispatch += effect.advance
        self.mm_count += effect.mm_count
        self.bypasses += effect.bypasses
        self.weight_loads += effect.weight_loads
        self.tile_version[:] = [
            version + steps for version, steps in zip(self.tile_version, effect.tile_version)
        ]
        self._packed = effect.state
        self._live = False

    def _snapshot(self, whole: bool) -> _Snapshot:
        """The compared state at a repeat boundary, and the counters."""
        if whole:
            key: Union[List[int], bytes] = self._state()
            retires = None
        else:
            key, retires = self._key(), tuple(self.retires)
        return _Snapshot(
            key, self.dispatch, retires, self.mm_count, self.bypasses,
            self.weight_loads, tuple(self.tile_version),
        )

    @staticmethod
    def _ring(snapshot: _Snapshot) -> List[int]:
        floor = snapshot.floor
        assert snapshot.retires is not None
        return [(t if t > floor else floor) - floor for t in snapshot.retires]

    def _match(
        self, now: _Snapshot, history: List[_Snapshot]
    ) -> Optional[Tuple[int, _Snapshot]]:
        """The shortest period ``p`` whose boundary ``p`` back matches ``now``."""
        ring = None
        for period in range(1, len(history) + 1):
            then = history[-period]
            if then.key != now.key or (now.floor - then.floor) % self.engine_tick:
                continue
            if now.retires is None:  # the packed key holds the ring
                return period, then
            if ring is None:
                ring = self._ring(now)
            if self._ring(then) == ring:
                return period, then
        return None

    def _advance(self, periods: int, now: _Snapshot, then: _Snapshot) -> None:
        """Jump ``periods`` periods of ``now``'s match with ``then``.

        The packed state is relative, so it stays current.
        """
        shift = periods * (now.floor - then.floor)
        engine_shift = shift // self.engine_tick
        self.dispatch += shift
        if self._live:
            self.retire += shift
            retires = self.retires
            retires.extend([t + shift for t in retires])
            for times in (self.tile_ready, self.scalar_ready, self.load_ports,
                          self.store_ports, self.alu_ports):
                times[:] = [t + shift for t in times]
            if self.has_prev:
                self.prev = tuple(e + engine_shift for e in self.prev)
                b, v = self.resident  # the resident weights keep their lag
                self.resident = (b, v + periods * (now.tile_version[b] - then.tile_version[b]))
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

    # -- the memo ------------------------------------------------------------

    @staticmethod
    def cache_info() -> CacheInfo:
        """Hits, misses, bound and size of the block memo (module doc)."""
        return CacheInfo(_STATS[0], _STATS[1], BLOCK_MEMO_SIZE, len(_BLOCKS))

    @staticmethod
    def cache_clear() -> None:
        """Empty the block memo and reset its statistics."""
        _forget()
        _STATS[:] = [0, 0]


__all__ = ["BLOCK_MEMO_SIZE", "MAX_PERIOD", "SteadyStateWalk"]
