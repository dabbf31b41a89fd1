"""E15 — extension: whole-model normalized runtime and speedup per suite.

The paper's Fig. 5 evaluates three layers per MLPerf model and argues the
relative performance of the designs is workload-independent.  This driver
stress-tests that claim end to end: every registered workload suite
(:mod:`repro.workloads.suites` — full ResNet-50, the 12-layer BERT-base
stack, the DLRM MLPs, the Table I trio, and the training passes) goes
into one :class:`repro.runtime.SweepPlan`, simulates at its *distinct*
shapes only (:meth:`repro.runtime.SweepReport.suite_totals`), and expands
into occurrence-weighted end-to-end cycles, normalized runtime, speedup
and energy-efficiency per design.

If the paper's sampling was representative, every model row lands near the
Fig. 5 geomean (~0.21 for RASA-DMDB-WLS); the training row shows the
wgrad dilution discussed in :mod:`repro.workloads.training`.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, List, Optional, Sequence

from repro.engine.designs import DESIGNS
from repro.errors import ExperimentError
from repro.experiments.runner import (
    DEFAULT_SETTINGS,
    ExperimentSettings,
    geometric_mean,
)
from repro.physical.energy import EnergyModel
from repro.runtime.plan import SuiteTotals, SweepPlan
from repro.runtime.session import Session
from repro.utils.tables import format_table
from repro.workloads.suites import suite_names

#: The design whose speedup/energy columns headline the table.
BEST_DESIGN = "rasa-dmdb-wls"


def suite_energy_j(totals: SuiteTotals) -> float:
    """Occurrence-weighted end-to-end energy of one suite run (joules).

    The engine config comes from ``totals.design_key``, so the energy model
    always matches the design that produced the results.
    """
    config = DESIGNS[totals.design_key].config
    model = EnergyModel()
    return sum(
        count * model.run_energy(result, config).total_j
        for _, count, result in totals.per_shape
    )


@dataclasses.dataclass(frozen=True)
class ModelReport:
    """Per-model end-to-end totals across designs, plus rendered table."""

    totals: Dict[str, Dict[str, SuiteTotals]]  # suite -> design -> totals
    design_keys: Sequence[str]

    def normalized(self) -> Dict[str, Dict[str, float]]:
        """``normalized[suite][design]`` — end-to-end runtime vs baseline."""
        return {
            suite: {
                key: per_design[key].normalized_to(per_design["baseline"])
                for key in self.design_keys
            }
            for suite, per_design in self.totals.items()
        }

    def render(self) -> str:
        normalized = self.normalized()
        best = BEST_DESIGN if BEST_DESIGN in self.design_keys else self.design_keys[-1]
        headers = (
            ["model", "GEMMs", "distinct"]
            + [DESIGNS[key].label for key in self.design_keys]
            + [f"speedup ({DESIGNS[best].label})", "energy eff"]
        )
        rows: List[List[object]] = []
        for suite, per_design in self.totals.items():
            base = per_design["baseline"]
            best_energy = suite_energy_j(per_design[best])
            if best_energy == 0.0:
                raise ExperimentError(
                    f"cannot compute energy efficiency: suite {suite!r} on "
                    f"design {best!r} reports zero energy"
                )
            rows.append(
                [suite, base.gemm_count, base.simulations]
                + [f"{normalized[suite][key]:.3f}" for key in self.design_keys]
                + [
                    f"{per_design[best].speedup_over(base):.2f}x",
                    f"{suite_energy_j(base) / best_energy:.2f}x",
                ]
            )
        if len(self.totals) > 1:
            rows.append(
                ["GEOMEAN", "", ""]
                + [
                    f"{geometric_mean(normalized[s][key] for s in self.totals):.3f}"
                    for key in self.design_keys
                ]
                + ["", ""]
            )
        return format_table(
            headers,
            rows,
            title="E15 — whole-model suites: end-to-end runtime vs baseline",
        )


def model_report(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    suites: Optional[Iterable[str]] = None,
    design_keys: Optional[Iterable[str]] = None,
    batch: Optional[int] = None,
    fidelity: str = "fast",
    session: Optional[Session] = None,
) -> ModelReport:
    """Run every suite on every design and aggregate end-to-end totals.

    The whole (suite x design) cross-product is one :class:`SweepPlan`
    executed through ``session`` (default: :meth:`Session.from_env`).
    Suites are scaled by ``settings.scale`` like every other sweep;
    ``batch`` overrides each suite's streamed-rows dimension, and
    ``fidelity`` selects the simulation backend (``"fast"`` default;
    ``"ooo"`` for cycle-accurate validation runs).  The design list must
    include ``"baseline"`` (normalization anchor).
    """
    design_keys = list(design_keys if design_keys is not None else DESIGNS)
    if "baseline" not in design_keys:
        raise ExperimentError(
            "model_report needs the 'baseline' design for normalization; "
            f"got: {', '.join(design_keys)}"
        )
    plan = SweepPlan(
        designs=tuple(design_keys),
        suites=tuple(suites if suites is not None else suite_names()),
        batch=batch,
        scale=settings.scale,
        core=settings.core,
        codegen=settings.codegen,
        fidelity=fidelity,
    )
    totals = (session or Session.from_env()).run(plan).suite_totals()
    return ModelReport(totals=totals, design_keys=design_keys)
