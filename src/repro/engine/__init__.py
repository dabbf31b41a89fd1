"""The RASA matrix engine — the paper's primary contribution.

A :class:`MatrixEngine` wraps the weight-stationary systolic array with:

- the four-sub-stage execution model (WL/FF/FS/DR, Fig. 4a),
- a control policy (BASE, PIPE, WLBP, WLS — Fig. 4b) that decides how the
  sub-stages of consecutive ``rasa_mm`` instructions overlap,
- the per-tile-register dirty bits WLBP consults to skip weight loads, and
- the PE data-path variant (baseline, DB, DM, DMDB — Fig. 4c).

:mod:`repro.engine.designs` names the eight design points the paper
evaluates in Fig. 5.

The configs, the scheduler the core models share and the design registry
load with the package; the functional :class:`MatrixEngine` (numpy-backed)
and the pipeline diagrams load on first use (:mod:`repro.utils.lazy`).
"""

from typing import TYPE_CHECKING

from repro.engine.config import ControlPolicy, EngineConfig
from repro.engine.scheduler import EngineScheduler, StageTimes, check_schedule_legality
from repro.engine.designs import (
    BASELINE_DESIGN,
    DESIGNS,
    FIG5_DESIGNS,
    FIG6_DESIGNS,
    DesignPoint,
    get_design,
)
from repro.utils.lazy import DeferredExports

if TYPE_CHECKING:
    from repro.engine.diagram import render_pipeline
    from repro.engine.engine import EngineStats, MatrixEngine

__getattr__ = DeferredExports(__name__, {
    "repro.engine.diagram": ("render_pipeline",),
    "repro.engine.engine": ("EngineStats", "MatrixEngine"),
})

__all__ = [
    "ControlPolicy",
    "EngineConfig",
    "EngineScheduler",
    "StageTimes",
    "check_schedule_legality",
    "render_pipeline",
    "MatrixEngine",
    "EngineStats",
    "DesignPoint",
    "DESIGNS",
    "FIG5_DESIGNS",
    "FIG6_DESIGNS",
    "BASELINE_DESIGN",
    "get_design",
]
