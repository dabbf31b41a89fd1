"""Fig. 7 — batch-size sensitivity of RASA-DMDB-WLS.

The paper sweeps the six FC layers over batch sizes and observes:

1. batches 1..16 share one normalized runtime — 16 is the smallest work
   granularity (one tile row block), so those runs issue the same rasa_mm
   stream;
2. as batch grows, normalized runtime approaches the perfect-pipelining
   asymptote ``TM / L_baseline = 16 / 95 = 0.168``.

The default sweep shrinks the layers' NIN/NON by ``settings.scale`` (the
batch axis is swept at full range); the asymptote depends only on the
initiation-interval ratio, not the layer size.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Sequence

from repro.experiments.runner import DEFAULT_SETTINGS, ExperimentSettings
from repro.runtime.plan import SweepPlan
from repro.runtime.session import Session
from repro.utils.tables import format_table
from repro.workloads.layers import FC_LAYER_NAMES, TABLE1_LAYERS
from repro.workloads.ops import lower

DEFAULT_BATCHES: Sequence[int] = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)

#: The perfect-pipelining bound the paper derives: 16 / 95.
ASYMPTOTE = 16.0 / 95.0


@dataclasses.dataclass(frozen=True)
class BatchSweep:
    """Normalized runtime of RASA-DMDB-WLS per (layer, batch)."""

    batches: Sequence[int]
    series: Dict[str, Dict[int, float]]

    def render(self) -> str:
        headers = ["batch"] + list(self.series)
        rows = []
        for batch in self.batches:
            rows.append(
                [batch] + [f"{self.series[label][batch]:.3f}" for label in self.series]
            )
        table = format_table(
            headers,
            rows,
            title="Fig. 7 — RASA-DMDB-WLS runtime normalized to baseline vs batch",
        )
        return table + f"\nPerfect-pipelining asymptote: 16/95 = {ASYMPTOTE:.3f}"


def fig7_batch_sensitivity(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    batches: Sequence[int] = DEFAULT_BATCHES,
    design_key: str = "rasa-dmdb-wls",
) -> BatchSweep:
    """Sweep batch size for every FC layer on ``design_key`` vs the baseline.

    The (layer x batch x {design, baseline}) grid is declared as one
    :class:`SweepPlan` — each (layer, batch) point is a named workload —
    and fanned out through the environment-driven :meth:`Session.from_env`:
    parallel workers plus the persistent cache.
    """
    workloads: List = []
    for name in FC_LAYER_NAMES:
        layer = TABLE1_LAYERS[name]
        for batch in batches:
            (_, gemm, _), = lower(layer.with_batch(batch))
            # Shrink the fixed layer dimensions, sweep the batch at full range.
            shape = dataclasses.replace(
                gemm,
                n=max(32, gemm.n // settings.scale),
                k=max(32, gemm.k // settings.scale),
            )
            workloads.append((f"{name}@b{batch}", shape))
    plan = SweepPlan(
        designs=tuple(dict.fromkeys((design_key, "baseline"))),
        workloads=tuple(workloads),
        core=settings.core,
        codegen=settings.codegen,
    )
    grid = Session.from_env().run(plan).grid()
    series: Dict[str, Dict[int, float]] = {name: {} for name in FC_LAYER_NAMES}
    for name in FC_LAYER_NAMES:
        for batch in batches:
            per_design = grid[f"{name}@b{batch}"]
            series[name][batch] = per_design[design_key].normalized_to(
                per_design["baseline"]
            )
    return BatchSweep(batches=tuple(batches), series=series)
