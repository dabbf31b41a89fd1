"""The ``fast`` core model: the skeleton walk, with steady-state jumps.

:class:`FastVecCoreModel` computes exactly the timestamps of the scalar
:class:`repro.cpu.fast.FastCoreModel` — same ``SimResult``, same optional
``last_schedule``, same ``ScheduleError``s — by running
:class:`repro.cpu.steady.SteadyStateWalk` over the program's skeleton
(:func:`repro.cpu.decode.decode_program`): the one a generated program
carries, or for any other program a memoized one-block walk of its
``Instruction`` objects.  On a generated program the walk steps the first
periods of each repeating run of K steps, blocks and block rows and jumps
the rest at any core width, so a program of millions of instructions
steps a few hundred; ``last_walked`` records how many a run stepped one by
one.  A block the walk's memo already holds (:mod:`repro.cpu.steady`,
"Memo") is replayed, not stepped, so it adds none: ``last_walked`` is at
most what a cold memo steps, and every pin on it is an upper bound.

A kept schedule (``keep_schedule=True``) and any memory but the exact-type
:class:`~repro.cpu.memory.IdealMemory` go to ``fast-ref`` itself: the walk
keeps no per-mm :class:`~repro.engine.scheduler.StageTimes`, and it models
one constant load latency.

This module sits on the deterministic simulation path: no wall clock, no
randomness (enforced by ``tools/lint_invariants.py``).
"""

from __future__ import annotations

from typing import List, Optional

from repro.cpu.config import CoreConfig
from repro.cpu.decode import decode_program
from repro.cpu.fast import FastCoreModel
from repro.cpu.memory import IdealMemory, MemoryModel
from repro.cpu.result import SimResult
from repro.cpu.steady import SteadyStateWalk
from repro.engine.config import EngineConfig
from repro.engine.scheduler import StageTimes
from repro.isa.program import Program


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
        self.memory: MemoryModel = memory if memory is not None else IdealMemory(
            l1_latency=core.l1_latency, transfer_cycles=core.tile_transfer_cycles
        )
        self.last_schedule: Optional[List[StageTimes]] = None
        #: Instructions the last run stepped one by one: a few hundred on a
        #: generated program at any width; ``len(program)`` on any other
        #: program and on a ``fast-ref`` run.
        self.last_walked = 0

    def run(self, program: Program, keep_schedule: bool = False) -> SimResult:
        """Simulate ``program``; see :meth:`FastCoreModel.run`."""
        memory = self.memory
        # Exact-type check: a subclass may override the latency rule.
        if not keep_schedule and type(memory) is IdealMemory:
            walk = SteadyStateWalk(
                self.core, self.engine, memory.l1_latency + memory.transfer_cycles
            )
            self.last_schedule = None
            self.last_walked = 0
            result = walk.run(decode_program(program), program.name)
            self.last_walked = walk.walked
            return result
        reference = FastCoreModel(core=self.core, engine=self.engine, memory=memory)
        result = reference.run(program, keep_schedule=keep_schedule)
        self.last_schedule = reference.last_schedule
        self.last_walked = len(program)
        return result


__all__ = ["FastVecCoreModel", "decode_program"]
