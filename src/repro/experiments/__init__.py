"""Experiment drivers: one module per paper table/figure.

Every driver returns plain data structures *and* a formatted text rendering
(the same rows/series the paper's figure plots), so the benchmark harness
under ``benchmarks/`` just invokes these and prints.  All simulation flows
through :mod:`repro.runtime` (declarative :class:`SweepPlan`\\ s run by a
parallel, cache-backed :class:`Session`); the drivers only build plans and
render tables.

| Driver                  | Paper artifact                          |
|-------------------------|------------------------------------------|
| ``toy``                 | Fig. 1 — 2x2 WS walkthrough (28.6 %)     |
| ``utilization_sweep``   | Fig. 2 — PE utilization vs TM            |
| ``layer_table``         | Table I — layer dimensions               |
| ``runtime_sweep``       | Fig. 5 — normalized runtime, 8 designs   |
| ``ppa_sweep``           | Fig. 6 — performance per area            |
| ``batch_sweep``         | Fig. 7 — batch-size sensitivity          |
| ``area_energy``         | Sec. V text — area + energy efficiency   |
| ``model_report``        | E15 — whole-model suite runtime/speedup  |
| ``suite_batch_sweep``   | E16 — per-model batch curves (Fig. 7)    |
| ``register_scaling``    | E17 — register-scaling counterfactual    |
| ``training_report``     | E18 — training vs inference per pass     |
"""

from repro.experiments.runner import ExperimentSettings, run_design, runtime_sweep
from repro.experiments.toy import fig1_toy_example
from repro.experiments.utilization_sweep import fig2_utilization
from repro.experiments.layer_table import table1_report
from repro.experiments.runtime_sweep import fig5_normalized_runtime
from repro.experiments.ppa_sweep import fig6_performance_per_area
from repro.experiments.batch_sweep import fig7_batch_sensitivity
from repro.experiments.area_energy import area_energy_report
from repro.experiments.model_report import ModelReport, model_report
from repro.experiments.register_scaling import (
    register_scaling_sweep,
    render_register_scaling,
)
from repro.experiments.suite_batch_sweep import SuiteBatchSweep, suite_batch_sweep
from repro.experiments.training_report import TrainingReport, training_report
from repro.experiments.report import full_report

__all__ = [
    "ExperimentSettings",
    "run_design",
    "runtime_sweep",
    "fig1_toy_example",
    "fig2_utilization",
    "table1_report",
    "fig5_normalized_runtime",
    "fig6_performance_per_area",
    "fig7_batch_sensitivity",
    "area_energy_report",
    "ModelReport",
    "model_report",
    "SuiteBatchSweep",
    "suite_batch_sweep",
    "register_scaling_sweep",
    "render_register_scaling",
    "TrainingReport",
    "training_report",
    "full_report",
]
