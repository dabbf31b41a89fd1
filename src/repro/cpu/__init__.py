"""Trace-driven CPU core models (the paper's MacSim substrate).

The paper replays Intel-SDE traces through MacSim configured like a Skylake
core: 2 GHz, 16 pipeline stages, ROB of 97, fetch/issue/retire width 4, with
the matrix engine attached as a 500 MHz functional unit and an ideal memory
system ("the core is not stalled by memory").

These models execute :class:`repro.isa.program.Program` streams against a
RASA :class:`repro.engine.config.EngineConfig`:

- :class:`repro.cpu.fast.FastCoreModel` — O(n) timestamp propagation over
  the ``Instruction`` objects; the ``fast-ref`` reference.
- :class:`repro.cpu.fastvec.FastVecCoreModel` — the same arithmetic over a
  program's run-length skeleton, jumping repeating runs exactly
  (:mod:`repro.cpu.steady`); used for the evaluation sweeps.  The
  shape-level :class:`repro.cpu.analytic.AnalyticCoreModel` runs the same
  walk on a shape's skeleton without building a program.
- :class:`repro.cpu.ooo.core.OutOfOrderCore` — a cycle-by-cycle OoO core
  (fetch/rename/ROB/scheduler/execute/retire) used to validate the fast
  model's timing on small programs.  No sweep runs it, so it loads on
  first use (:mod:`repro.utils.lazy`).
"""

from typing import TYPE_CHECKING

from repro.cpu.config import CoreConfig
from repro.cpu.result import SimResult
from repro.cpu.fast import FastCoreModel
from repro.cpu.fastvec import FastVecCoreModel
from repro.utils.lazy import DeferredExports

if TYPE_CHECKING:
    from repro.cpu.ooo.core import OutOfOrderCore

__getattr__ = DeferredExports(__name__, {
    "repro.cpu.ooo.core": ("OutOfOrderCore",),
})

__all__ = [
    "CoreConfig",
    "SimResult",
    "FastCoreModel",
    "FastVecCoreModel",
    "OutOfOrderCore",
]
