"""E14 — extension: RASA on training-pass GEMMs (FC and conv).

Sec. V notes the concept "is not limited to inference since GEMM is also a
key building block for training".  This bench runs the forward, dgrad and
wgrad GEMMs of two Table I FC layers *and* two ResNet-50 convolutions
(transposed-filter im2col backward lowerings from the op IR) across
designs.  The expected shape: passes whose streamed M is small (FC
fwd/dgrad at M = batch) gain the full RASA factor; passes that stream a
large M (FC wgrad at M = NIN, conv fwd/dgrad at M = batch x spatial)
already amortize fill/drain on the baseline, so the gain there is closer
to the pure II ratio with less to recover.
"""

from __future__ import annotations

from repro.cpu.fast import FastCoreModel
from repro.engine.designs import DESIGNS
from repro.runtime.session import cached_program
from repro.utils.tables import format_table
from repro.workloads.layers import TABLE1_LAYERS
from repro.workloads.ops import ConvOp, lower_ops
from repro.workloads.training import training_ops

FC_LAYERS = ("DLRM-1", "BERT-1")

#: Two ResNet-50 convolutions (a 3x3 mid conv and a 1x1 pointwise),
#: shrunk to bench size but keeping the catalog's channel geometry.
CONV_OPS = tuple(
    ConvOp(name, batch=4, filters=filters, channels=channels,
           x=14, y=14, r=r, s=r)
    for name, filters, channels, r in (
        ("conv4b", 256, 256, 3),
        ("conv4c", 1024, 256, 1),
    )
)


def _training_shapes(settings):
    """(label, scaled GemmShape) for every FC and conv training pass."""
    fc = [TABLE1_LAYERS[name] for name in FC_LAYERS]
    ops = training_ops(fc, forward="forward") + training_ops(CONV_OPS)
    return [(label, shape.scaled(settings.scale)) for label, shape in lower_ops(ops)]


def test_training_passes(benchmark, emit, settings):
    rows = []
    sample = None
    for label, scaled in _training_shapes(settings):
        program = cached_program(scaled, settings.codegen)
        if sample is None:
            sample = program
        base = FastCoreModel(engine=DESIGNS["baseline"].config).run(program)
        best = FastCoreModel(engine=DESIGNS["rasa-dmdb-wls"].config).run(program)
        rows.append(
            (
                label,
                f"{scaled.m}x{scaled.n}x{scaled.k}",
                base.cycles,
                best.cycles,
                f"{best.cycles / base.cycles:.3f}",
            )
        )
    benchmark(FastCoreModel(engine=DESIGNS["rasa-dmdb-wls"].config).run, sample)
    # Every training pass must still gain substantially.
    assert all(float(r[4]) < 0.25 for r in rows)
    emit(
        "Extension E14 — training-pass GEMMs (RASA-DMDB-WLS vs baseline)",
        format_table(
            ["layer / pass", "GEMM", "baseline cyc", "DMDB-WLS cyc", "normalized"],
            rows,
        ),
    )
