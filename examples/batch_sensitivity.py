#!/usr/bin/env python3
"""Fig. 7 in miniature: batch-size sensitivity of the best RASA design.

Sweeps a BERT and a DLRM FC layer over batch sizes and shows the two
effects the paper reports: the flat region below batch 16 (one tile row is
the smallest unit of work) and convergence to the 16/95 = 0.168 asymptote.

Run:  python examples/batch_sensitivity.py
"""

from __future__ import annotations

import dataclasses

from repro import FastCoreModel, build_gemm_kernel, get_design
from repro.workloads.layers import TABLE1_LAYERS
from repro.workloads.ops import lower

BATCHES = (1, 4, 16, 64, 256, 1024)
SCALE = 4  # shrink NIN/NON for a quick run; the asymptote is unaffected


def normalized_runtime(layer_name: str, batch: int) -> float:
    (_, gemm, _), = lower(TABLE1_LAYERS[layer_name].with_batch(batch))
    shape = dataclasses.replace(
        gemm, n=max(32, gemm.n // SCALE), k=max(32, gemm.k // SCALE)
    )
    program = build_gemm_kernel(shape).program
    base = FastCoreModel(engine=get_design("baseline").config).run(program)
    best = FastCoreModel(engine=get_design("rasa-dmdb-wls").config).run(program)
    return best.cycles / base.cycles


def main() -> None:
    layers = ("BERT-1", "DLRM-1")
    print(f"{'batch':>6s}" + "".join(f" {name:>10s}" for name in layers))
    for batch in BATCHES:
        row = [normalized_runtime(name, batch) for name in layers]
        print(f"{batch:6d}" + "".join(f" {v:10.3f}" for v in row))
    print(
        "\nbatches 1..16 issue the same rasa_mm stream (16 rows = minimum"
        "\nwork granularity); large batches approach the perfect-pipelining"
        f"\nasymptote 16/95 = {16 / 95:.3f} (paper Fig. 7)."
    )


if __name__ == "__main__":
    main()
