"""The ``fast`` core model: steady-state jumps, else numpy propagation.

:class:`FastVecCoreModel` computes exactly the timestamps of the scalar
:class:`repro.cpu.fast.FastCoreModel` — same ``SimResult``, same optional
``last_schedule``, same ``ScheduleError``s — in one of two ways.

A generated GEMM program carries its run-length skeleton
(:class:`repro.cpu.decode.SkeletonDecode`).  When a periodic jump is exact
— no kept schedule, the exact-type :class:`~repro.cpu.memory.IdealMemory`,
power-of-two fetch and retire widths — :class:`repro.cpu.steady.SteadyStateWalk`
steps the first periods of each repeating run of K steps, blocks and block
rows and jumps the rest; a program of millions of instructions steps a few
hundred.  ``last_walked`` records how many a run stepped.

Every other run — hand-built programs, kept schedules, stateful memory,
other widths, and a walk that finds no period within its budget — takes
the full walk below: timestamps propagated with
``np.maximum.accumulate`` over ROB-sized blocks instead of a per-instruction
Python loop.  The stream is processed in blocks of ``rob_size`` because the
only backward-looking constraint, ``dispatch_i >= retire_(i - rob_size)``,
then always reaches into the *previous* block: each block's dispatches,
load/store starts and retires become affine prefix-max (Lindley) recurrences
``t_j = max(v_j, t_(j-c) + s)``, solved in closed form as
``max.accumulate(v_j - j*s) + j*s`` per residue class.

Why the recurrences are safe to use where they are used:

- **dispatch / retire** — single chains with constant increments
  (``1/fetch_width``, ``1/retire_width``).
- **loads** — a c-server queue with *constant* service time (the tile
  transfer occupancy) and *nondecreasing* arrivals (dispatch timestamps):
  under least-loaded port choice the j-th load then starts exactly at
  ``max(dispatch_j, start_(j-c) + transfer)`` whatever the tie-break, so
  the c port chains decompose by load ordinal mod c.  Memory latency only
  affects the load's *complete*, never its port occupancy.
- **stores** — arrivals include operand readiness and are *not* monotone,
  so the c-server closed form is invalid in general; the default core has
  ``store_ports == 1`` where the plain Lindley chain needs no monotonicity.
  Other port counts fall back to the scalar model.
- **ALU ops and rasa_mms** stay as (short) scalar walks: ALU arrivals are
  dependence-shaped (no valid multi-server closed form) and the engine
  scheduler chain is inherently sequential.  Both are minority opcodes in
  GEMM streams; the walks read operand readiness straight from the decoded
  writer indices (:mod:`repro.cpu.decode`), so no register scoreboards.

**Bit-identity of the float arithmetic.**  Every timestamp in the scalar
model is a multiple of ``2**-k`` where ``2**k = lcm(fetch_width,
retire_width)``: all latencies and occupancies are integers and the only
fractional increments are the width reciprocals.  When both widths are
powers of two (the gate below), every add/subtract/multiply this module
performs on such values is exact in float64 (dyadic values far below the
2**53 mantissa limit), so regrouping the recurrences cannot change a single
bit.  Non-power-of-two widths delegate to the scalar model, as does a
non-default store-port count — so the model is bit-identical to
``FastCoreModel`` on *every* configuration, by construction where it
matters and by delegation elsewhere.

This module sits on the deterministic simulation path: no wall clock, no
randomness (enforced by ``tools/lint_invariants.py``).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.cpu.config import CoreConfig
from repro.cpu.decode import DecodedProgram, SkeletonDecode, decode_program
from repro.cpu.fast import FastCoreModel
from repro.cpu.memory import IdealMemory, MemoryModel
from repro.cpu.result import SimResult
from repro.cpu.steady import SteadyStateWalk
from repro.engine.config import ControlPolicy, EngineConfig
from repro.engine.scheduler import StageTimes
from repro.errors import ScheduleError
from repro.isa.program import Program


def _is_pow2(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


class FastVecCoreModel:
    """Drop-in replacement for :class:`FastCoreModel` (same results, faster).

    The constructor signature, ``run`` contract, ``last_schedule`` attribute
    and every raised error match the scalar model exactly; the test suite
    asserts full-``SimResult`` equality on random and suite programs.
    """

    def __init__(
        self,
        core: CoreConfig = CoreConfig(),
        engine: Optional[EngineConfig] = None,
        memory: Optional[MemoryModel] = None,
    ) -> None:
        self.core = core
        self.engine = engine if engine is not None else EngineConfig()
        self.ratio = core.engine_clock_ratio(self.engine.clock_mhz)
        self.memory: MemoryModel = memory if memory is not None else IdealMemory(
            l1_latency=core.l1_latency, transfer_cycles=core.tile_transfer_cycles
        )
        self.last_schedule: Optional[List[StageTimes]] = None
        #: Instructions the last run stepped one by one: ``len(program)`` on
        #: a full walk, far fewer when the steady-state walk jumped.
        self.last_walked = 0
        self._reference: Optional[FastCoreModel] = None

    # -- scalar delegation -------------------------------------------------

    def _vectorizable(self) -> bool:
        """Whether the closed forms above are exact for this configuration."""
        core = self.core
        return (
            _is_pow2(core.fetch_width)
            and _is_pow2(core.retire_width)
            and core.store_ports == 1
        )

    def _run_reference(self, program: Program, keep_schedule: bool) -> SimResult:
        if self._reference is None:
            self._reference = FastCoreModel(
                core=self.core, engine=self.engine, memory=self.memory
            )
        result = self._reference.run(program, keep_schedule=keep_schedule)
        self.last_schedule = self._reference.last_schedule
        self.last_walked += len(program)
        return result

    # -- the steady-state walk ---------------------------------------------

    def _jumpable(self, keep_schedule: bool) -> bool:
        """Whether a periodic jump is exact for this run (:mod:`repro.cpu.steady`)."""
        core = self.core
        return (
            not keep_schedule
            and type(self.memory) is IdealMemory
            and _is_pow2(core.fetch_width)
            and _is_pow2(core.retire_width)
        )

    def run(self, program: Program, keep_schedule: bool = False) -> SimResult:
        """Simulate ``program``; see :meth:`FastCoreModel.run`.

        A generated program walks its skeleton and jumps its periods when
        that is exact; anything else, or a walk that finds no periods within
        its budget, takes the full walk below.
        """
        self.last_walked = 0
        jumpable = self._jumpable(keep_schedule)
        if not jumpable and not self._vectorizable():
            return self._run_reference(program, keep_schedule)
        decoded = decode_program(program)
        if jumpable and isinstance(decoded, SkeletonDecode):
            memory: IdealMemory = self.memory  # type: ignore[assignment]
            walk = SteadyStateWalk(
                self.core, self.engine, memory.l1_latency + memory.transfer_cycles
            )
            if walk.run(decoded.skeleton):
                self.last_schedule = None
                self.last_walked = walk.walked
                return SimResult(
                    design=self.engine.describe(),
                    program=program.name,
                    cycles=int(-(-walk.retire // 1)),
                    instructions=decoded.n,
                    mm_count=walk.mm_count,
                    bypass_count=walk.bypasses,
                    weight_loads=walk.weight_loads,
                    engine_busy_cycles=(
                        walk.last_complete - walk.first_wl
                        if walk.first_wl is not None
                        else 0
                    ),
                    clock_mhz=self.core.clock_mhz,
                )
            self.last_walked = walk.walked
        if not self._vectorizable():
            return self._run_reference(program, keep_schedule)
        self.last_walked += decoded.n
        return self._kernel(program, decoded, keep_schedule)

    # -- the kernel --------------------------------------------------------

    def _kernel(
        self, program: Program, decoded: DecodedProgram, keep_schedule: bool
    ) -> SimResult:
        """The full walk: every instruction, in ROB-sized numpy blocks."""
        core = self.core
        n = decoded.n
        rob = core.rob_size
        inv_fetch = 1.0 / core.fetch_width
        inv_retire = 1.0 / core.retire_width
        transfer = core.tile_transfer_cycles
        memory = self.memory
        # Exact-type check: a subclass may override the latency rule, and
        # only the genuine ideal model is a closed-form constant.
        ideal = type(memory) is IdealMemory
        ideal_latency = (
            memory.l1_latency + memory.transfer_cycles  # type: ignore[attr-defined]
            if ideal
            else 0
        )

        # Per-block affine offsets, shared by every block.
        idx_fetch = np.arange(rob, dtype=np.float64) * inv_fetch
        idx_retire = np.arange(rob, dtype=np.float64) * inv_retire
        one_minus_idx_retire = 1.0 - idx_retire
        idx_transfer = np.arange(rob, dtype=np.float64) * transfer
        neg_inf = np.full(rob, -np.inf)

        # Block boundaries per instruction class (block k owns indices
        # [k*rob, (k+1)*rob), so bounds come from one searchsorted each).
        edges = np.arange(0, n + rob, rob, dtype=np.int64)
        load_bounds = np.searchsorted(decoded.load_pos, edges).tolist()
        store_bounds = np.searchsorted(decoded.store_pos, edges).tolist()
        mm_bounds = np.searchsorted(decoded.mm_pos, edges).tolist()
        alu_bounds = np.searchsorted(decoded.alu_pos, edges).tolist()

        # Walk-side views (python ints index faster than numpy scalars).
        mm_pos = decoded.mm_pos.tolist()
        mm_a_writer = decoded.mm_a_writer.tolist()
        mm_b_writer = decoded.mm_b_writer.tolist()
        mm_c_writer = decoded.mm_c_writer.tolist()
        mm_b_reg = decoded.mm_b_reg.tolist()
        mm_b_version = decoded.mm_b_version.tolist()
        alu_pos = decoded.alu_pos.tolist()
        alu_reads = decoded.alu_reads
        load_addr = decoded.load_addr
        load_stride = decoded.load_stride

        dispatch = np.empty(n, dtype=np.float64)
        complete = np.zeros(n, dtype=np.float64)
        retire = np.empty(n, dtype=np.float64)

        # Carried recurrence state.
        dispatch_carry = float(core.frontend_latency)
        retire_carry = 0.0
        load_ports = core.load_ports
        load_carry = [0.0] * load_ports
        store_carry = 0.0
        alu_port_times = [0.0] * core.alu_ports
        num_alu_ports = core.alu_ports

        # Inlined engine-scheduler state (see EngineScheduler.schedule_mm).
        engine = self.engine
        stages = engine.stages
        s_wl, s_ff, s_fs, s_dr = stages.wl, stages.ff, stages.fs, stages.dr
        s_extra = stages.extra
        ratio = self.ratio
        policy = engine.control
        bypass_on_reuse = policy.bypasses_on_reuse
        is_base = policy is ControlPolicy.BASE
        is_wls = policy is ControlPolicy.WLS
        ff_overlaps_fs = engine.wlbp_ff_overlaps_fs
        has_prev = False
        prev_wl_end = prev_ff_start = prev_ff_end = prev_fs_end = prev_dr_end = 0
        prev_index = 0
        resident_b_reg = -1
        resident_b_version = -1
        mm_count = 0
        bypasses = 0
        weight_loads = 0
        schedule: Optional[List[StageTimes]] = [] if keep_schedule else None
        first_wl: Optional[int] = None
        last_complete = 0

        for block, lo in enumerate(range(0, n, rob)):
            hi = min(lo + rob, n)
            m = hi - lo

            # Dispatch: d_j = max(d_(j-1) + 1/W, retire_(j-rob)).
            ring = retire[lo - rob : hi - rob] if lo >= rob else neg_inf[:m]
            w = ring - idx_fetch[:m]
            first = dispatch_carry + inv_fetch
            if first > w[0]:
                w[0] = first
            np.maximum.accumulate(w, out=w)
            disp = w
            disp += idx_fetch[:m]
            dispatch[lo:hi] = disp
            dispatch_carry = float(disp[-1])
            disp_list = disp.tolist()

            # Tile loads: c constant-service port chains by load ordinal mod c.
            lb, le = load_bounds[block], load_bounds[block + 1]
            if le > lb:
                offs = decoded.load_pos[lb:le]
                arrivals = dispatch[offs]
                count = le - lb
                starts = np.empty(count, dtype=np.float64)
                for cls in range(load_ports):
                    j0 = (cls - lb) % load_ports
                    if j0 >= count:
                        continue
                    sub = arrivals[j0::load_ports]
                    u = sub - idx_transfer[: len(sub)]
                    if load_carry[cls] > u[0]:
                        u[0] = load_carry[cls]
                    np.maximum.accumulate(u, out=u)
                    u += idx_transfer[: len(sub)]
                    starts[j0::load_ports] = u
                    load_carry[cls] = float(u[-1]) + transfer
                if ideal:
                    complete[offs] = starts + ideal_latency
                else:
                    # Stateful memory models are order-dependent: issue the
                    # latency probes one by one, in program order, exactly
                    # like the scalar model does.
                    lat = np.empty(count, dtype=np.float64)
                    starts_list = starts.tolist()
                    for j in range(count):
                        lat[j] = memory.tile_load_latency(
                            int(load_addr[lb + j]),
                            int(load_stride[lb + j]),
                            starts_list[j],
                        )
                    complete[offs] = starts + lat

            # rasa_mms: the sequential engine-scheduler chain, inlined.
            for j in range(mm_bounds[block], mm_bounds[block + 1]):
                i = mm_pos[j]
                ready_cpu = disp_list[i - lo]
                writer = mm_a_writer[j]
                if writer >= 0 and complete[writer] > ready_cpu:
                    ready_cpu = complete[writer]
                writer = mm_b_writer[j]
                if writer >= 0 and complete[writer] > ready_cpu:
                    ready_cpu = complete[writer]
                writer = mm_c_writer[j]
                if writer >= 0 and complete[writer] > ready_cpu:
                    ready_cpu = complete[writer]
                ready = int(-(-ready_cpu // ratio))

                b_reg = mm_b_reg[j]
                b_version = mm_b_version[j]
                bypass = (
                    bypass_on_reuse
                    and resident_b_reg == b_reg
                    and resident_b_version == b_version
                )
                if bypass:
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
                complete_engine = dr_end + s_extra
                if has_prev and fs_end < prev_dr_end:
                    raise ScheduleError(
                        f"drain-port conflict between mm {prev_index} and "
                        f"{mm_count}: {prev_dr_end} > {fs_end}"
                    )
                if schedule is not None:
                    schedule.append(
                        StageTimes(
                            index=mm_count,
                            wl_start=wl_start,
                            wl_end=wl_end,
                            ff_start=ff_start,
                            ff_end=ff_end,
                            fs_end=fs_end,
                            dr_end=dr_end,
                            complete=complete_engine,
                            bypassed=bypass,
                        )
                    )
                if first_wl is None:
                    first_wl = wl_start
                last_complete = complete_engine
                complete[i] = float(complete_engine * ratio)
                has_prev = True
                prev_wl_end = wl_end
                prev_ff_start = ff_start
                prev_ff_end = ff_end
                prev_fs_end = fs_end
                prev_dr_end = dr_end
                prev_index = mm_count
                resident_b_reg = b_reg
                resident_b_version = b_version
                mm_count += 1

            # Tile stores: the single port is a plain Lindley chain (the
            # _vectorizable gate pinned store_ports == 1).
            sb, se = store_bounds[block], store_bounds[block + 1]
            if se > sb:
                offs = decoded.store_pos[sb:se]
                writers = decoded.store_writer[sb:se]
                ready_arr = complete[np.maximum(writers, 0)]
                vals = np.maximum(
                    dispatch[offs], np.where(writers >= 0, ready_arr, 0.0)
                )
                count = se - sb
                u = vals - idx_transfer[:count]
                if store_carry > u[0]:
                    u[0] = store_carry
                np.maximum.accumulate(u, out=u)
                u += idx_transfer[:count]
                store_carry = float(u[-1]) + transfer
                complete[offs] = u + transfer

            # Scalar ALU / branch: dependence-shaped arrivals, short walk.
            for j in range(alu_bounds[block], alu_bounds[block + 1]):
                i = alu_pos[j]
                start = disp_list[i - lo]
                port = 0
                best = alu_port_times[0]
                for q in range(1, num_alu_ports):
                    if alu_port_times[q] < best:
                        best = alu_port_times[q]
                        port = q
                if best > start:
                    start = best
                for writer in alu_reads[j]:
                    if writer >= 0 and complete[writer] > start:
                        start = complete[writer]
                done = start + 1
                alu_port_times[port] = done
                complete[i] = done

            # Retire: r_j = max(complete_j + 1, r_(j-1) + 1/W).
            u = complete[lo:hi] + one_minus_idx_retire[:m]
            first = retire_carry + inv_retire
            if first > u[0]:
                u[0] = first
            np.maximum.accumulate(u, out=u)
            u += idx_retire[:m]
            retire[lo:hi] = u
            retire_carry = float(u[-1])

        self.last_schedule = schedule
        engine_busy = (last_complete - first_wl) if first_wl is not None else 0
        return SimResult(
            design=engine.describe(),
            program=program.name,
            cycles=int(-(-retire_carry // 1)),
            instructions=n,
            mm_count=mm_count,
            bypass_count=bypasses,
            weight_loads=weight_loads,
            engine_busy_cycles=engine_busy,
            clock_mhz=core.clock_mhz,
        )


__all__ = ["FastVecCoreModel", "DecodedProgram", "decode_program"]
