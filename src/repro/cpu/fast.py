"""Fast timestamp-propagation core model.

One pass over the program computes, per instruction, its dispatch, execute
and retire timestamps, in exact integer ticks of 1/L cycle
(:attr:`~repro.cpu.config.CoreConfig.ticks_per_cycle`), under the
Skylake-like resource constraints of :class:`repro.cpu.config.CoreConfig`:

- frontend: sustained ``fetch_width`` instructions per cycle after a
  pipeline-fill delay (no branch mispredictions — the paper's traces are
  loop-dominated GEMM kernels with perfectly predictable branches);
- ROB: instruction ``i`` cannot dispatch before instruction ``i − 97``
  retires;
- ports: 4 ALU ports (1-cycle ops), 2 load ports and 1 store port moving
  one 64 B tile row per cycle (16-cycle occupancy per tile), and one matrix
  engine port scheduled by :class:`repro.engine.scheduler.EngineScheduler`
  in 500 MHz engine cycles (4 CPU cycles each);
- in-order retire at ``retire_width`` per cycle.

Dataflow is tracked through architectural tile/scalar registers with
infinite renaming (no WAR/WAW stalls), matching an aggressive OoO core.
The cycle-accurate model in :mod:`repro.cpu.ooo` validates this model's
timing on small programs.
"""

from __future__ import annotations

from typing import List, Optional

from repro.cpu.config import CoreConfig
from repro.cpu.memory import IdealMemory, MemoryModel
from repro.cpu.result import SimResult
from repro.engine.config import EngineConfig
from repro.engine.scheduler import EngineScheduler, StageTimes
from repro.isa.instructions import NUM_SCALAR_REGS, NUM_TILE_REGS
from repro.isa.opcodes import Opcode
from repro.isa.program import Program


class FastCoreModel:
    """O(n) timestamp-propagation simulation of a program on one design."""

    def __init__(
        self,
        core: CoreConfig = CoreConfig(),
        engine: Optional[EngineConfig] = None,
        memory: Optional[MemoryModel] = None,
    ) -> None:
        self.core = core
        self.engine = engine if engine is not None else EngineConfig()
        self.ratio = core.engine_clock_ratio(self.engine.clock_mhz)
        # Default: the paper's ideal no-stall memory at the core's L1 latency.
        self.memory: MemoryModel = memory if memory is not None else IdealMemory(
            l1_latency=core.l1_latency, transfer_cycles=core.tile_transfer_cycles
        )
        self.last_schedule: Optional[List[StageTimes]] = None

    def run(self, program: Program, keep_schedule: bool = False) -> SimResult:
        """Simulate ``program``; returns the end-to-end :class:`SimResult`.

        Args:
            program: the instruction stream (program order = fetch order).
            keep_schedule: retain every mm's :class:`StageTimes` on
                ``self.last_schedule`` (memory-heavy; used by tests).
        """
        core = self.core
        scheduler = EngineScheduler(self.engine)

        tick = core.ticks_per_cycle  # every timestamp below is in ticks
        fetch_step = tick // core.fetch_width
        retire_step = tick // core.retire_width
        engine_tick = self.ratio * tick
        transfer = core.tile_transfer_cycles * tick
        memory = self.memory

        tile_ready = [0] * NUM_TILE_REGS
        tile_version = [0] * NUM_TILE_REGS
        scalar_ready = [0] * NUM_SCALAR_REGS
        load_ports = [0] * core.load_ports
        store_ports = [0] * core.store_ports
        alu_ports = [0] * core.alu_ports

        rob_size = core.rob_size
        retire_ring = [0] * rob_size  # retire time of inst i mod rob
        dispatch_prev = core.frontend_latency * tick
        retire_prev = 0

        # Port selection is on the per-instruction hot path; the default
        # core has 2 load ports and 1 store port, where the generic
        # min-over-range scan is pure overhead.  The inline forms keep
        # min()'s lowest-index tie-breaking, so timing is bit-identical.
        two_load_ports = core.load_ports == 2
        one_store_port = core.store_ports == 1

        mm_count = 0
        schedule: Optional[List[StageTimes]] = [] if keep_schedule else None
        first_wl: Optional[int] = None
        last_complete = 0

        # Operands are read as plain fields (``Instruction._validate`` pins
        # each opcode's form), and maxima of a few temporaries are
        # compare-and-assign: this loop runs once per instruction.
        for i, inst in enumerate(program):
            dispatch = dispatch_prev + fetch_step
            if i >= rob_size:
                rob_free = retire_ring[i % rob_size]
                if rob_free > dispatch:
                    dispatch = rob_free
            dispatch_prev = dispatch
            op = inst.opcode

            if op is Opcode.RASA_TL:
                assert inst.mem is not None and inst.dst is not None
                if two_load_ports:
                    port = 0 if load_ports[0] <= load_ports[1] else 1
                else:
                    port = min(range(core.load_ports), key=load_ports.__getitem__)
                start = load_ports[port]
                if dispatch > start:
                    start = dispatch
                load_ports[port] = start + transfer
                complete = start + memory.tile_load_latency(
                    inst.mem.address, inst.mem.stride
                ) * tick
                reg = inst.dst.index
                tile_ready[reg] = complete
                tile_version[reg] += 1

            elif op is Opcode.RASA_TS:
                if one_store_port:
                    port = 0
                else:
                    port = min(range(core.store_ports), key=store_ports.__getitem__)
                start = dispatch
                ready = tile_ready[inst.srcs[0].index]
                if ready > start:
                    start = ready
                if store_ports[port] > start:
                    start = store_ports[port]
                store_ports[port] = start + transfer
                complete = start + transfer

            elif op is Opcode.RASA_MM:
                c_reg, a_reg, b_reg = inst.srcs
                b = b_reg.index
                c = c_reg.index
                # The mm issues to the engine once all three tile operands are
                # ready (same rule as the cycle-accurate core, so the two
                # models agree; loads complete far ahead in steady state, so
                # splitting B readiness from A/C gains almost nothing).
                start = dispatch
                ready = tile_ready[a_reg.index]
                if ready > start:
                    start = ready
                ready = tile_ready[b]
                if ready > start:
                    start = ready
                ready = tile_ready[c]
                if ready > start:
                    start = ready
                engine_ready = -(-start // engine_tick)  # ceil into the engine clock
                times = scheduler.schedule_mm(
                    ready_b=engine_ready,
                    ready_ac=engine_ready,
                    weight_key=(b, tile_version[b]),
                )
                if first_wl is None:
                    first_wl = times.wl_start
                last_complete = times.complete
                complete = times.complete * engine_tick
                tile_ready[c] = complete
                tile_version[c] += 1
                mm_count += 1
                if schedule is not None:
                    schedule.append(times)

            else:  # scalar ALU / branch / nop: scalar srcs, optional scalar dst
                free = min(alu_ports)
                port = alu_ports.index(free)  # lowest index on ties, as min()
                start = dispatch if dispatch >= free else free
                for src in inst.srcs:
                    ready = scalar_ready[src.index]
                    if ready > start:
                        start = ready
                complete = start + tick
                alu_ports[port] = complete
                dst = inst.dst
                if dst is not None:
                    scalar_ready[dst.index] = complete

            retire = retire_prev + retire_step
            if complete + tick > retire:
                retire = complete + tick
            retire_prev = retire
            retire_ring[i % rob_size] = retire

        self.last_schedule = schedule
        engine_busy = (last_complete - first_wl) if first_wl is not None else 0
        return SimResult(
            design=self.engine.describe(),
            program=program.name,
            cycles=-(-retire_prev // tick),
            instructions=len(program),
            mm_count=mm_count,
            bypass_count=scheduler.bypass_count,
            weight_loads=scheduler.weight_load_count,
            engine_busy_cycles=engine_busy,
            clock_mhz=core.clock_mhz,
        )
