"""Tests for the Table I layer catalog — dimensions straight from the paper."""

from __future__ import annotations

import pytest

from repro.experiments.layer_table import table1_report
from repro.workloads.layers import FC_LAYER_NAMES, TABLE1_LAYERS, table1_gemms
from repro.workloads.ops import ConvOp, FCOp, lower


def _gemm(op):
    (_, shape, count), = lower(op)
    assert count == 1
    return shape


def test_table1_complete():
    assert len(TABLE1_LAYERS) == 9
    assert set(FC_LAYER_NAMES) == {
        "DLRM-1", "DLRM-2", "DLRM-3", "BERT-1", "BERT-2", "BERT-3"
    }


def test_table1_layers_are_forward_ops_lowered_once():
    """Table I is declared as forward conv/FC ops; its GEMMs are their lowerings."""
    assert all(
        isinstance(op, (ConvOp, FCOp)) and op.pass_ == "fwd" and op.name == name
        for name, op in TABLE1_LAYERS.items()
    )
    assert table1_gemms() == {name: _gemm(op) for name, op in TABLE1_LAYERS.items()}


class TestConvGemmDims:
    def test_resnet50_1(self):
        g = _gemm(TABLE1_LAYERS["ResNet50-1"])
        # M = 32*56*56, N = 64 filters, K = 64*1*1.
        assert (g.m, g.n, g.k) == (100_352, 64, 64)

    def test_resnet50_2(self):
        g = _gemm(TABLE1_LAYERS["ResNet50-2"])
        assert (g.m, g.n, g.k) == (100_352, 64, 576)  # K = 64*3*3

    def test_resnet50_3(self):
        g = _gemm(TABLE1_LAYERS["ResNet50-3"])
        assert (g.m, g.n, g.k) == (32 * 14 * 14, 512, 1024)


class TestFCGemmDims:
    @pytest.mark.parametrize(
        "name,m,n,k",
        [
            ("DLRM-1", 512, 1024, 1024),
            ("DLRM-2", 512, 64, 1024),
            ("DLRM-3", 512, 2048, 2048),
            ("BERT-1", 256, 768, 768),
            ("BERT-2", 256, 768, 3072),
            ("BERT-3", 256, 3072, 768),
        ],
    )
    def test_dims(self, name, m, n, k):
        g = _gemm(TABLE1_LAYERS[name])
        assert (g.m, g.n, g.k) == (m, n, k)


class TestBatchOverride:
    def test_with_batch(self):
        g = _gemm(TABLE1_LAYERS["DLRM-1"].with_batch(64))
        assert g.m == 64
        assert g.k == 1024  # unchanged

    def test_batches_leq_16_same_mm_count(self):
        # Fig. 7's first observation: batches 1..16 use the same number of
        # rasa_mm since 16 rows is the smallest granularity of work.
        counts = {
            b: _gemm(TABLE1_LAYERS["BERT-1"].with_batch(b)).mm_count
            for b in (1, 2, 4, 8, 16)
        }
        assert len(set(counts.values())) == 1

    def test_dimension_text(self):
        report = table1_report()
        assert "N=512 NIN=1024 NON=1024" in report  # DLRM-1
        assert "X=Y=56 R=S=3" in report  # ResNet50-2
