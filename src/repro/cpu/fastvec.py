"""The ``fast`` core model: the skeleton walk, with steady-state jumps.

:class:`FastVecCoreModel` computes exactly the timestamps of the scalar
:class:`repro.cpu.fast.FastCoreModel` on the ideal memory — same
``SimResult``, same ``ScheduleError``s — by running
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

The walk keeps no per-mm schedule and loads every tile in
``core.tile_load_latency``: a kept schedule or a cache hierarchy is
``fast-ref``'s.

This module sits on the deterministic simulation path: no wall clock, no
randomness (enforced by ``tools/lint_invariants.py``).
"""

from __future__ import annotations

from typing import Optional

from repro.cpu.config import CoreConfig
from repro.cpu.decode import decode_program
from repro.cpu.result import SimResult
from repro.cpu.steady import SteadyStateWalk
from repro.engine.config import EngineConfig
from repro.isa.program import Program


class FastVecCoreModel:
    """:class:`FastCoreModel`'s results on the ideal memory, from the walk.

    ``run`` returns the scalar model's ``SimResult`` and raises its errors
    exactly; the test suite asserts full-``SimResult`` equality on random
    and suite programs.
    """

    def __init__(
        self,
        core: CoreConfig = CoreConfig(),
        engine: Optional[EngineConfig] = None,
    ) -> None:
        self.core = core
        self.engine = engine if engine is not None else EngineConfig()
        #: Instructions the last run stepped one by one: a few hundred on a
        #: generated program at any width; ``len(program)`` on any other.
        self.last_walked = 0

    def run(self, program: Program) -> SimResult:
        """Simulate ``program``; see :meth:`FastCoreModel.run`."""
        walk = SteadyStateWalk(self.core, self.engine)
        self.last_walked = 0
        result = walk.run(decode_program(program), program.name)
        self.last_walked = walk.walked
        return result


__all__ = ["FastVecCoreModel", "decode_program"]
