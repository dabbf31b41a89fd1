"""The ``analytic`` core model: sweep points from a shape, never a program.

The ``analytic`` fidelity answers (GemmShape, design) points without
generating a program: :meth:`AnalyticCoreModel.run_shape` lowers the
tile-padded shape to its run-length skeleton only
(:func:`repro.workloads.array_lowering.gemm_skeleton` — a few block
templates, no ``Instruction`` objects) and runs the same steady-state walk
as the ``fast`` fidelity (:class:`repro.cpu.steady.SteadyStateWalk`).  The
walk steps the first periods of each repeating run of K steps, blocks and
block rows and jumps the rest exactly, so a point costs a few hundred
stepped instructions whatever its M, N and K.

``analytic == fast`` therefore holds by construction, field for field, on
every core, codegen option, blocking and width the API accepts;
:func:`repro.analysis.bounds.cross_check_bounds` asserts it.  Like
``fast``, the model assumes the ideal memory (every tile load takes
``core.tile_load_latency``); a cache hierarchy needs ``fast-ref``.
"""

from __future__ import annotations

from typing import Optional

from repro.cpu.config import CoreConfig
from repro.cpu.result import SimResult
from repro.cpu.steady import SteadyStateWalk
from repro.engine.config import EngineConfig
from repro.workloads.array_lowering import gemm_skeleton
from repro.workloads.codegen import CodegenOptions
from repro.workloads.gemm import GemmShape


class AnalyticCoreModel:
    """(GemmShape, design) -> :class:`SimResult`, through the shape's skeleton."""

    def __init__(
        self,
        core: CoreConfig = CoreConfig(),
        engine: Optional[EngineConfig] = None,
    ) -> None:
        self.core = core
        self.engine = engine if engine is not None else EngineConfig()

    def run_shape(
        self,
        shape: GemmShape,
        codegen: CodegenOptions = CodegenOptions(),
    ) -> SimResult:
        """The ``fast`` model's :class:`SimResult` for ``shape``'s program."""
        return SteadyStateWalk(self.core, self.engine).run(
            gemm_skeleton(shape.tile_padded(), codegen),
            shape.name or f"gemm_{shape.m}x{shape.n}x{shape.k}",
        )
