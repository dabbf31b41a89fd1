#!/usr/bin/env python3
"""Analytic design-space grid: 10^4+ points in seconds, top-5 per suite.

The analytic fidelity never builds a program: each (shape, design) point
lowers the shape's run-length skeleton and walks it with exact
steady-state jumps, a few hundred stepped instructions whatever the GEMM's
size, so a batch x scale grid whose programs run to millions of
instructions takes seconds.  This example sweeps three model suites over
10 batch sizes and 6 scale factors on all 8 designs, ranks designs by
their occurrence-weighted end-to-end speedup over the baseline (geometric
mean across the grid), and prints the top 5 per suite.

Run:  python examples/analytic_grid.py
"""

from __future__ import annotations

import time
from typing import Dict

from repro.cpu.analytic import AnalyticCoreModel
from repro.engine.designs import DESIGNS
from repro.workloads.codegen import CodegenOptions
from repro.workloads.suites import get_suite

SUITES = ("bert-full", "dlrm", "resnet50")
BATCHES = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512)
SCALES = (1, 2, 3, 4, 6, 8)
TOP_K = 5


def main() -> None:
    codegen = CodegenOptions()
    # One model per design; each point walks its own shape's skeleton.
    models = {key: AnalyticCoreModel(engine=d.config) for key, d in DESIGNS.items()}

    start = time.perf_counter()
    points = 0
    # speedups[suite][design] -> list of per-grid-point normalized runtimes
    speedups: Dict[str, Dict[str, list]] = {s: {k: [] for k in DESIGNS} for s in SUITES}
    for suite_name in SUITES:
        for batch in BATCHES:
            for scale in SCALES:
                suite = get_suite(suite_name, batch=batch, scale=scale)
                distinct = suite.distinct()
                totals = {}
                for key, model in models.items():
                    cycles = 0
                    for entry in distinct:
                        cycles += (
                            entry.count
                            * model.run_shape(entry.shape, codegen).cycles
                        )
                        points += 1
                    totals[key] = cycles
                for key, cycles in totals.items():
                    speedups[suite_name][key].append(totals["baseline"] / cycles)
    elapsed = time.perf_counter() - start

    print(
        f"swept {points} (shape, design) points analytically in "
        f"{elapsed:.1f}s ({points / elapsed:.0f} points/s)\n"
    )
    for suite_name in SUITES:
        ranked = sorted(
            speedups[suite_name].items(),
            key=lambda item: _geomean(item[1]),
            reverse=True,
        )
        print(f"{suite_name}: top {TOP_K} designs by end-to-end speedup "
              f"(geomean over {len(BATCHES) * len(SCALES)} batch x scale points)")
        for rank, (key, values) in enumerate(ranked[:TOP_K], start=1):
            label = DESIGNS[key].label
            print(f"  {rank}. {label:16s} {_geomean(values):5.2f}x vs baseline")
        print()


def _geomean(values) -> float:
    product = 1.0
    for v in values:
        product *= v
    return product ** (1.0 / len(values)) if values else 0.0


if __name__ == "__main__":
    main()
