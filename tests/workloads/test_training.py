"""Tests for training-pass op derivation."""

from __future__ import annotations

from repro.workloads.layers import TABLE1_LAYERS
from repro.workloads.ops import ConvOp, FCOp, lower_ops
from repro.workloads.training import training_ops


def _passes(op, **kwargs):
    """{name: shape} of the three training passes of one op."""
    return dict(lower_ops(training_ops([op], **kwargs)))


def test_pass_shapes():
    gemms = _passes(FCOp("fc", batch=512, nin=1024, non=2048))
    assert gemms["fc-fwd"].dims == (512, 2048, 1024)
    assert gemms["fc-dgrad"].dims == (512, 1024, 2048)
    assert gemms["fc-wgrad"].dims == (1024, 2048, 512)


def test_all_passes_equal_macs():
    # Forward, dgrad and wgrad perform the same number of MACs.
    for op in (FCOp("fc", batch=128, nin=768, non=3072),
               ConvOp("c", batch=2, filters=8, channels=3, x=5, y=5, r=3, s=3)):
        macs = {shape.macs for shape in _passes(op).values()}
        assert len(macs) == 1


def test_training_ops_flattened():
    layers = [TABLE1_LAYERS["DLRM-1"], TABLE1_LAYERS["BERT-1"]]
    ops = training_ops(layers, forward="forward")
    assert [op.name for op in ops[:3]] == ["DLRM-1-forward", "DLRM-1-dgrad", "DLRM-1-wgrad"]
    assert [op.pass_ for op in ops] == ["fwd", "dgrad", "wgrad"] * 2
    gemms = dict(lower_ops(ops))
    assert len(gemms) == 6
    assert gemms["DLRM-1-wgrad"].m == 1024  # NIN becomes the streamed M


def test_wgrad_streams_large_m():
    # wgrad's M is NIN: the large-TM regime where even the serialized
    # baseline amortizes fill/drain (Sec. III's accelerator escape hatch).
    gemms = _passes(TABLE1_LAYERS["BERT-2"])
    assert gemms["BERT-2-wgrad"].m == 3072
    assert gemms["BERT-2-fwd"].m == 256
