"""Tests for the full-model op catalogs, through their GEMM lowerings."""

from __future__ import annotations

import pytest

from repro.errors import WorkloadError
from repro.workloads.models import (
    bert_encoder_ops,
    dlrm_ops,
    mlp_ops,
    resnet50_ops,
)
from repro.workloads.ops import lower, lower_ops
from repro.workloads.suites import get_suite


class TestResNet50:
    def test_conv_count(self):
        # 1 stem + Σ blocks*3 + 4 projection convs = 1 + 48 + 4 = 53.
        assert len(resnet50_ops()) == 53

    def test_stem_geometry(self):
        stem = resnet50_ops(batch=32)[0]
        assert (stem.filters, stem.channels, stem.r, stem.stride) == (64, 3, 7, 2)
        (_, g, _), = lower(stem)
        assert g.m == 32 * 112 * 112  # stride-2 output
        assert g.k == 3 * 7 * 7 == 147  # the paper's Sec. III example: K=147

    def test_table1_layers_present(self):
        """Table I's ResNet layers must appear in the full model.

        ResNet50-1/2 appear verbatim.  Table I's ResNet50-3 (C=1024 -> K=512
        1x1 at 14x14) is the conv5_1a projection, which in the real network
        has stride 2: the catalog carries the honest stride-2 GEMM
        (M = 32*7*7 = 1568); the paper's Table I quotes the stride-1
        simplification (M = 6272).
        """
        shapes = {shape.dims for _, shape in get_suite("resnet50", batch=32).gemms}
        assert (100_352, 64, 64) in shapes        # ResNet50-1 (conv2 1x1)
        assert (100_352, 64, 576) in shapes       # ResNet50-2 (conv2 3x3)
        assert (1_568, 512, 1024) in shapes       # ResNet50-3, stride-2 form

    def test_channel_chaining(self):
        # Every block's input channels must equal the previous block's output.
        gemms = {op.name: op for op in resnet50_ops()}
        assert gemms["conv3_1a"].channels == 256
        assert gemms["conv5_1a"].channels == 1024

    def test_total_macs_magnitude(self):
        # He et al. quote "3.8 billion FLOPs" for ResNet-50 (MAC counted
        # once); the conv portion of the catalog must land right there.
        total = sum(shape.macs for _, shape in lower_ops(resnet50_ops(batch=1)))
        assert 3.5e9 < total < 4.2e9


class TestBert:
    def test_layer_structure(self):
        gemms = dict(lower_ops(bert_encoder_ops(layers=2)))
        assert len(gemms) == 12
        assert gemms["enc0.ffn_up"].n == 3072
        assert gemms["enc1.ffn_down"].k == 3072

    def test_matches_table1_shapes(self):
        gemms = get_suite("bert-base").as_dict()
        q = gemms["enc0.q"]
        assert (q.m, q.n, q.k) == (256, 768, 768)          # BERT-1
        up = gemms["enc0.ffn_up"]
        assert (up.m, up.n, up.k) == (256, 3072, 768)      # BERT-3
        down = gemms["enc0.ffn_down"]
        assert (down.m, down.n, down.k) == (256, 768, 3072)  # BERT-2

    def test_bad_layer_count(self):
        with pytest.raises(WorkloadError):
            bert_encoder_ops(layers=0)


class TestDlrm:
    def test_mlp_chaining(self):
        gemms = dict(lower_ops(mlp_ops(512, (256, 1024, 64), "t")))
        assert gemms["t0"].k == 256 and gemms["t0"].n == 1024
        assert gemms["t1"].k == 1024 and gemms["t1"].n == 64

    def test_contains_table1_like_shapes(self):
        shapes = {shape.dims for _, shape in lower_ops(dlrm_ops(batch=512))}
        assert (512, 1024, 1024) in shapes      # DLRM-1
        assert (512, 2048, 2048) in shapes      # DLRM-3

    def test_mlp_needs_two_widths(self):
        with pytest.raises(WorkloadError):
            mlp_ops(4, (16,), "x")


class TestRegistry:
    def test_lookup(self):
        assert len(get_suite("bert-base")) == len(lower_ops(bert_encoder_ops())) == 72

    def test_unknown_model(self):
        with pytest.raises(WorkloadError, match="resnet50"):
            get_suite("alexnet")
