"""E18 — training vs inference: per-pass shares and the training premium.

Sec. V argues the engine "is not limited to inference since GEMM is also a
key building block for training".  With the op IR the training suites are
first class — ``training`` (fwd/dgrad/wgrad over the Table I FC layers)
and ``resnet50-train`` (fwd/dgrad/wgrad over every ResNet-50 convolution,
transposed-filter im2col backward lowerings) — so this driver quantifies
the claim end to end:

- **pass shares** — each pass's fraction of the end-to-end training
  cycles on the best design, recovered from the suite's per-label cycle
  view (:meth:`repro.runtime.plan.SweepReport.suite_layer_cycles`);
- **training premium** — total training cycles over the forward-only
  cycles *of the same run* (inference is the fwd slice of a training
  step, so the ratio is exact: same scale, same lowering, same cache
  keys);
- **normalized runtime** — the whole training suite on the best design
  vs the baseline, the Fig. 5 claim extended to backward passes.

wgrad dilutes the RASA gain (its streamed M is the large input-channel
extent, which already amortizes fill/drain on the baseline), so training
suites normalize slightly above their inference-only counterparts —
exactly the effect the table makes visible.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, Optional, Sequence, Tuple

from repro.engine.designs import DESIGNS
from repro.errors import ExperimentError
from repro.experiments.model_report import BEST_DESIGN
from repro.experiments.runner import DEFAULT_SETTINGS, ExperimentSettings
from repro.runtime.plan import SuiteTotals, SweepPlan
from repro.runtime.session import Session
from repro.utils.tables import format_table

#: The registered training suites E18 reports by default.
TRAINING_SUITES: Tuple[str, ...] = ("training", "resnet50-train")

#: The three passes of one training step, in execution order.
TRAINING_PASSES: Tuple[str, ...] = ("fwd", "dgrad", "wgrad")


def label_pass(label: str) -> str:
    """The training pass a suite layer label belongs to.

    Training suites suffix their backward labels ``-dgrad`` / ``-wgrad``
    (``conv2_1a-dgrad``, ``BERT-1-wgrad``); everything else is forward
    work.
    """
    for pass_ in ("dgrad", "wgrad"):
        if label.endswith(f"-{pass_}"):
            return pass_
    return "fwd"


def pass_cycles(label_cycles: Dict[str, int]) -> Dict[str, int]:
    """Aggregate one design's per-label cycles into per-pass totals."""
    cycles = {pass_: 0 for pass_ in TRAINING_PASSES}
    for label, value in label_cycles.items():
        cycles[label_pass(label)] += value
    return cycles


@dataclasses.dataclass(frozen=True)
class TrainingReport:
    """Per-training-suite pass shares, training premium, normalized runtime."""

    design_keys: Sequence[str]
    best_design: str
    totals: Dict[str, Dict[str, SuiteTotals]]       # suite -> design -> totals
    passes: Dict[str, Dict[str, Dict[str, int]]]    # suite -> design -> pass -> cycles

    def premium(self, suite: str, design: str) -> float:
        """Training cycles over forward-only cycles (>= 1.0) on one design."""
        cycles = self.passes[suite][design]
        forward = cycles["fwd"]
        if forward == 0:
            raise ExperimentError(
                f"suite {suite!r} on design {design!r} reports zero forward "
                "cycles; cannot compute the training premium"
            )
        return sum(cycles.values()) / forward

    def render(self) -> str:
        headers = (
            ["model", "GEMMs", "distinct"]
            + [f"{p} share" for p in TRAINING_PASSES]
            + ["train/infer (base)", f"train/infer ({DESIGNS[self.best_design].label})",
               "normalized"]
        )
        rows = []
        for suite, per_design in self.totals.items():
            base = per_design["baseline"]
            best = per_design[self.best_design]
            best_passes = self.passes[suite][self.best_design]
            total = sum(best_passes.values())
            rows.append(
                [suite, base.gemm_count, base.simulations]
                + [f"{best_passes[p] / total:.0%}" for p in TRAINING_PASSES]
                + [
                    f"{self.premium(suite, 'baseline'):.2f}x",
                    f"{self.premium(suite, self.best_design):.2f}x",
                    f"{best.normalized_to(base):.3f}",
                ]
            )
        return format_table(
            headers,
            rows,
            title=(
                "E18 — training vs inference: pass shares on "
                f"{DESIGNS[self.best_design].label}, training premium, "
                "end-to-end normalized runtime"
            ),
        )


def training_report(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    suites: Optional[Iterable[str]] = None,
    design_keys: Sequence[str] = ("baseline", BEST_DESIGN),
    fidelity: str = "fast",
    session: Optional[Session] = None,
) -> TrainingReport:
    """Run the training suites and split their cycles by pass.

    One :class:`SweepPlan` covers every (suite x design) point; the pass
    split comes from the report's per-label cycle view, so the premium
    and the shares are exact re-weightings of the same simulations the
    totals use.  ``design_keys`` must include ``"baseline"`` and the best
    design (defaults: exactly those two).
    """
    design_keys = list(design_keys)
    if "baseline" not in design_keys:
        raise ExperimentError(
            "training_report needs the 'baseline' design for normalization; "
            f"got: {', '.join(design_keys)}"
        )
    non_baseline = [key for key in design_keys if key != "baseline"]
    if not non_baseline:
        raise ExperimentError(
            "training_report compares a design against 'baseline'; give it "
            "at least one non-baseline design key"
        )
    best = BEST_DESIGN if BEST_DESIGN in design_keys else non_baseline[-1]
    names = list(suites if suites is not None else TRAINING_SUITES)
    plan = SweepPlan(
        designs=tuple(design_keys),
        suites=tuple(names),
        scale=settings.scale,
        core=settings.core,
        codegen=settings.codegen,
        fidelity=fidelity,
    )
    report = (session or Session.from_env()).run(plan)
    totals = report.suite_totals()
    label_cycles = report.suite_layer_cycles()
    passes = {
        suite: {
            design: pass_cycles(label_cycles[suite][design])
            for design in design_keys
        }
        for suite in totals
    }
    for suite, per_design in passes.items():
        grads = sum(
            per_design[design_keys[0]][p] for p in ("dgrad", "wgrad")
        )
        if grads == 0:
            raise ExperimentError(
                f"suite {suite!r} has no dgrad/wgrad work; E18 reports "
                f"training suites (e.g. {', '.join(TRAINING_SUITES)})"
            )
    return TrainingReport(
        design_keys=design_keys, best_design=best, totals=totals, passes=passes
    )
