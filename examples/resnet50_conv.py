#!/usr/bin/env python3
"""ResNet50 convolution through the full RASA stack (Table I workloads).

Demonstrates the convolution path end to end:

1. a small ResNet-style convolution is lowered with im2col, executed
   functionally on the RASA engine, and checked against direct convolution;
2. the three ResNet50 layers from Table I are timed (scaled down 4x per
   dimension for a quick run) on the baseline vs RASA-DMDB-WLS.

Run:  python examples/resnet50_conv.py
"""

from __future__ import annotations

import numpy as np

from repro import FastCoreModel, MatrixEngine, TileMemory, build_gemm_kernel, get_design
from repro.workloads.layers import table1_gemms
from repro.workloads.lowering import (
    conv_reference,
    filters_to_gemm_b,
    gemm_output_to_conv,
    im2col,
)
from repro.workloads.ops import ConvOp, lower


def functional_demo() -> None:
    rng = np.random.default_rng(1)
    layer = ConvOp("demo-conv", batch=2, filters=20, channels=6, x=7, y=7, r=3, s=3)
    inputs = rng.standard_normal((2, 6, 7, 7)).astype(np.float32)
    weights = rng.standard_normal((20, 6, 3, 3)).astype(np.float32) * 0.2

    a = im2col(inputs, 3, 3)                 # (N*X*Y, C*R*S)
    b = filters_to_gemm_b(weights)           # (C*R*S, K)
    (_, shape, _), = lower(layer)
    kernel = build_gemm_kernel(shape)
    memory = TileMemory()
    kernel.write_inputs(memory, a, b)
    engine = MatrixEngine(get_design("rasa-dmdb-wls").config, memory=memory)
    report = engine.run(kernel.program)
    out = gemm_output_to_conv(kernel.read_result(memory), 2, 7, 7)

    direct = conv_reference(inputs.astype(np.float64), weights.astype(np.float64))
    err = np.max(np.abs(out - direct)) / np.max(np.abs(direct))
    print(f"{layer.name}: N={layer.batch} K={layer.filters} C={layer.channels} "
          f"X=Y={layer.x} R=S={layer.r}")
    print(f"  lowered GEMM: {shape}, {report.stats.mm_count} rasa_mm, "
          f"bypass rate {report.stats.bypass_rate:.0%}")
    print(f"  max relative error vs direct conv (BF16 inputs): {err:.2e}")


def timing_sweep(scale: int = 4) -> None:
    print(f"\nTable I ResNet50 layers, scaled 1/{scale} per dimension:")
    print(f"{'layer':12s} {'GEMM (MxNxK)':>22s} {'baseline cyc':>13s} "
          f"{'DMDB-WLS cyc':>13s} {'norm':>6s}")
    gemms = table1_gemms()
    for name in ("ResNet50-1", "ResNet50-2", "ResNet50-3"):
        shape = gemms[name].scaled(scale)
        program = build_gemm_kernel(shape).program
        base = FastCoreModel(engine=get_design("baseline").config).run(program)
        best = FastCoreModel(engine=get_design("rasa-dmdb-wls").config).run(program)
        print(
            f"{name:12s} {f'{shape.m}x{shape.n}x{shape.k}':>22s} "
            f"{base.cycles:13d} {best.cycles:13d} "
            f"{best.cycles / base.cycles:6.3f}"
        )
    print("paper Fig. 5: RASA-DMDB-WLS averages 0.208 normalized runtime.")


if __name__ == "__main__":
    functional_demo()
    timing_sweep()
