"""The cycle-accurate out-of-order core.

Each cycle, in order: (1) retire up to ``retire_width`` completed uops from
the ROB head, (2) wakeup/select — issue ready reservation-station uops
oldest-first onto free ports (``rasa_mm`` additionally in program order onto
the matrix engine), (3) dispatch up to ``issue_width`` fetched instructions
into the ROB and reservation stations.  Idle stretches fast-forward to the
next event, so long engine operations don't cost simulation time.

This model exists to validate :class:`repro.cpu.fast.FastCoreModel`; the
test suite asserts the two agree on total cycles within a small tolerance
(and exactly on engine-side statistics) across policies and programs.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.cpu.config import CoreConfig
from repro.cpu.memory import IdealMemory, MemoryModel
from repro.cpu.ooo.frontend import FetchUnit
from repro.cpu.ooo.ports import ExecutionPorts
from repro.cpu.ooo.rename import RenameTable
from repro.cpu.ooo.rob import ReorderBuffer
from repro.cpu.ooo.uop import Uop
from repro.cpu.result import SimResult
from repro.engine.config import EngineConfig
from repro.engine.scheduler import EngineScheduler, StageTimes
from repro.errors import SimError
from repro.isa.opcodes import Opcode
from repro.isa.program import Program


class OutOfOrderCore:
    """Cycle-by-cycle OoO simulation of a program on one engine design."""

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

    def run(self, program: Program, max_cycles: int = 50_000_000) -> SimResult:
        """Simulate ``program``; raises :class:`SimError` on deadlock/timeout."""
        core = self.core
        scheduler = EngineScheduler(self.engine)
        fetch = FetchUnit(core, len(program))
        rob = ReorderBuffer(core)
        rename = RenameTable()
        ports = ExecutionPorts(core)
        rs: List[Uop] = []
        instructions = list(program)
        next_dispatch_index = 0
        next_mm_issue_index = 0  # the engine consumes rasa_mm in program order
        mm_order: List[int] = [
            i for i, inst in enumerate(instructions) if inst.opcode is Opcode.RASA_MM
        ]
        mm_position = {index: pos for pos, index in enumerate(mm_order)}
        schedule: List[StageTimes] = []

        cycle = 0
        total_dispatched = 0
        while rob.occupancy or next_dispatch_index < len(instructions):
            if cycle > max_cycles:
                raise SimError(f"OoO simulation exceeded {max_cycles} cycles")

            # 1. Retire.
            rob.retire(cycle)

            # 2. Wakeup/select: oldest-first over the reservation stations.
            issued_this_cycle = 0
            for uop in sorted(rs, key=lambda u: u.index):
                if issued_this_cycle >= core.issue_width:
                    break
                if not uop.ready_at(cycle):
                    continue
                if self._try_issue(
                    uop, cycle, ports, scheduler, schedule, mm_position, next_mm_issue_index
                ):
                    if uop.inst.opcode is Opcode.RASA_MM:
                        next_mm_issue_index += 1
                    rs.remove(uop)
                    issued_this_cycle += 1

            # 3. Dispatch into ROB + RS.
            can_dispatch = min(
                core.issue_width,
                fetch.available(cycle),
                rob.free_slots,
                core.scheduler_size - len(rs),
            )
            for _ in range(max(0, can_dispatch)):
                inst = instructions[next_dispatch_index]
                weight_key: Optional[Tuple[int, int]] = None
                if inst.opcode is Opcode.RASA_MM:
                    weight_key = (inst.mm_b.index, rename.tile_version(inst.mm_b))
                uop = Uop(next_dispatch_index, inst, weight_key=weight_key)
                rename.rename(uop)
                rob.allocate(uop)
                rs.append(uop)
                fetch.consume(1)
                next_dispatch_index += 1
                total_dispatched += 1

            cycle += 1
            # Fast-forward across idle stretches (e.g. a 380-CPU-cycle mm).
            if rs and not any(u.ready_at(cycle) for u in rs):
                pending = [
                    d.complete_cycle
                    for u in rs
                    for d in u.deps
                    if d.complete_cycle is not None and d.complete_cycle > cycle
                ]
                head_not_retirable = rob.occupancy and rob.free_slots == 0
                if pending and not head_not_retirable and fetch.available(cycle) == 0:
                    cycle = max(cycle, min(pending))

        engine_busy = 0
        if schedule:
            engine_busy = schedule[-1].complete - schedule[0].wl_start
        return SimResult(
            design=self.engine.describe(),
            program=program.name,
            cycles=rob.last_retire_cycle,
            instructions=len(instructions),
            mm_count=len(schedule),
            bypass_count=scheduler.bypass_count,
            weight_loads=scheduler.weight_load_count,
            engine_busy_cycles=engine_busy,
            clock_mhz=core.clock_mhz,
        )

    def _try_issue(
        self,
        uop: Uop,
        cycle: int,
        ports: ExecutionPorts,
        scheduler: EngineScheduler,
        schedule: List[StageTimes],
        mm_position: Dict[int, int],
        next_mm_issue_index: int,
    ) -> bool:
        """Issue ``uop`` at ``cycle`` if its port is free; set completion time."""
        core = self.core
        op = uop.inst.opcode
        transfer = core.tile_transfer_cycles
        if op is Opcode.RASA_TL:
            if not ports.load.acquire(cycle, transfer):
                return False
            assert uop.inst.mem is not None  # _validate invariant
            uop.complete_cycle = cycle + self.memory.tile_load_latency(
                uop.inst.mem.address, uop.inst.mem.stride
            )
        elif op is Opcode.RASA_TS:
            if not ports.store.acquire(cycle, transfer):
                return False
            uop.complete_cycle = cycle + transfer
        elif op is Opcode.RASA_MM:
            if mm_position[uop.index] != next_mm_issue_index:
                return False  # engine consumes mm's strictly in program order
            ready = -(-cycle // self.ratio)
            times = scheduler.schedule_mm(
                ready_b=ready, ready_ac=ready, weight_key=uop.weight_key
            )
            schedule.append(times)
            uop.complete_cycle = times.complete * self.ratio
        else:
            if not ports.alu.acquire(cycle, 1):
                return False
            uop.complete_cycle = cycle + 1
        uop.issued = True
        uop.issue_cycle = cycle
        return True
