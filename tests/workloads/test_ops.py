"""Op IR tests: lowering shape tables, role-aware knobs, the op protocol."""

from __future__ import annotations

import dataclasses

import pytest

from repro.errors import WorkloadError
from repro.workloads.gemm import GemmShape
from repro.workloads.models import bert_full_ops
from repro.workloads.ops import (
    LOWERINGS,
    BatchedMatmulOp,
    ConvOp,
    FCOp,
    LoweringConfig,
    MatmulOp,
    lower,
    lower_ops,
    op_kind_counts,
    register_lowering,
)

CONV = ConvOp("c", batch=4, filters=32, channels=16, x=8, y=8, r=3, s=3)
FC = FCOp("f", batch=64, nin=256, non=512)


class TestShapeTables:
    """Golden lowered dims for every op kind x pass (the module shape table)."""

    def test_matmul(self):
        (label, shape, count), = lower(MatmulOp("mm", m=10, n=20, k=30))
        assert (label, shape.dims, count) == ("mm", (10, 20, 30), 1)
        assert shape.name == "mm"

    def test_batched_matmul(self):
        op = BatchedMatmulOp("bmm", count=24, m=128, n=128, k=64,
                             seq_axes=("m", "n"))
        (label, shape, count), = lower(op)
        assert (label, shape.dims, count) == ("bmm", (128, 128, 64), 24)

    @pytest.mark.parametrize("pass_,dims", [
        ("fwd", (4 * 8 * 8, 32, 16 * 9)),
        ("dgrad", (4 * 8 * 8, 16, 32 * 9)),
        ("wgrad", (16 * 9, 32, 4 * 8 * 8)),
    ])
    def test_conv_passes(self, pass_, dims):
        (_, shape, count), = lower(dataclasses.replace(CONV, pass_=pass_))
        assert shape.dims == dims
        assert count == 1

    def test_conv_strided_fwd_uses_output_spatial(self):
        op = dataclasses.replace(CONV, stride=2)
        (_, shape, _), = lower(op)
        assert shape.dims == (4 * 4 * 4, 32, 16 * 9)

    def test_conv_strided_dgrad_streams_input_spatial(self):
        op = dataclasses.replace(CONV, stride=2, pass_="dgrad")
        (_, shape, _), = lower(op)
        assert shape.m == 4 * 8 * 8  # input spatial, not output

    @pytest.mark.parametrize("pass_,dims", [
        ("fwd", (64, 512, 256)),
        ("dgrad", (64, 256, 512)),
        ("wgrad", (256, 512, 64)),
    ])
    def test_fc_passes(self, pass_, dims):
        (_, shape, _), = lower(dataclasses.replace(FC, pass_=pass_))
        assert shape.dims == dims


class TestLoweringConfig:
    @pytest.mark.parametrize("kwargs", [
        {"scale_batch": 0}, {"scale_spatial": -2},
    ])
    def test_non_positive_knobs_rejected(self, kwargs):
        with pytest.raises(Exception):
            LoweringConfig(**kwargs)

    def test_scale_batch_divides_conv_batch_only(self):
        cfg = LoweringConfig(scale_batch=4)
        (_, shape, _), = lower(CONV, cfg)
        assert shape.dims == (1 * 8 * 8, 32, 16 * 9)

    def test_scale_spatial_divides_conv_spatial_product_only(self):
        cfg = LoweringConfig(scale_spatial=4)
        (_, shape, _), = lower(CONV, cfg)
        assert shape.dims == (4 * 16, 32, 16 * 9)  # 8*8 -> 16; N, C*R*S intact

    def test_conv_wgrad_batch_role_lives_in_k(self):
        cfg = LoweringConfig(scale_batch=4, scale_spatial=4)
        (_, shape, _), = lower(dataclasses.replace(CONV, pass_="wgrad"), cfg)
        assert shape.dims == (16 * 9, 32, 1 * 16)

    def test_fc_wgrad_batch_role_lives_in_k(self):
        cfg = LoweringConfig(scale_batch=8)
        (_, shape, _), = lower(dataclasses.replace(FC, pass_="wgrad"), cfg)
        assert shape.dims == (256, 512, 8)

    def test_fc_ignores_scale_spatial(self):
        cfg = LoweringConfig(scale_spatial=64)
        (_, shape, _), = lower(FC, cfg)
        assert shape.dims == (64, 512, 256)

    def test_batched_matmul_knobs(self):
        op = BatchedMatmulOp("bmm", count=24, m=128, n=64, k=128,
                             seq_axes=("m", "k"))
        (_, shape, count), = lower(op, LoweringConfig(scale_batch=6,
                                                      scale_spatial=8))
        assert count == 4
        assert shape.dims == (16, 64, 16)  # seq axes m, k shrink; n intact

    def test_matmul_is_knob_inert(self):
        op = MatmulOp("mm", m=100, n=100, k=100)
        (_, shape, count), = lower(op, LoweringConfig(scale_batch=10,
                                                      scale_spatial=10))
        assert shape.dims == (100, 100, 100)
        assert count == 1

    def test_knobs_floor_at_one(self):
        cfg = LoweringConfig(scale_batch=1000, scale_spatial=1000)
        (_, shape, count), = lower(
            BatchedMatmulOp("bmm", count=4, m=8, n=8, k=64, seq_axes=("m", "n")),
            cfg,
        )
        assert count == 1
        assert shape.dims == (1, 1, 64)


class TestOpProtocol:
    def test_with_batch_on_every_kind(self):
        assert MatmulOp("m", 8, 8, 8).with_batch(4).m == 8  # role-free
        assert BatchedMatmulOp("b", 2, 8, 8, 8).with_batch(4).count == 4
        assert CONV.with_batch(16).batch == 16
        assert FC.with_batch(16).batch == 16

    def test_kind_strings(self):
        assert MatmulOp("m", 1, 1, 1).kind == "matmul"
        assert BatchedMatmulOp("b", 1, 1, 1, 1).kind == "batched-matmul"
        assert CONV.kind == "conv-fwd"
        assert dataclasses.replace(CONV, pass_="wgrad").kind == "conv-wgrad"
        assert dataclasses.replace(FC, pass_="dgrad").kind == "fc-dgrad"

    def test_bad_pass_rejected(self):
        with pytest.raises(WorkloadError, match="unknown pass"):
            FCOp("f", 1, 1, 1, pass_="backward")
        with pytest.raises(WorkloadError, match="unknown pass"):
            ConvOp("c", 1, 1, 1, 1, 1, 1, 1, pass_="bwd")

    def test_bad_seq_axis_rejected(self):
        with pytest.raises(WorkloadError, match="seq_axes"):
            BatchedMatmulOp("b", 1, 1, 1, 1, seq_axes=("q",))

    def test_ops_are_frozen_and_hashable(self):
        assert len({CONV, FC, CONV}) == 2
        with pytest.raises(dataclasses.FrozenInstanceError):
            CONV.batch = 1


class TestRegistry:
    def test_every_op_kind_registered(self):
        assert {MatmulOp, BatchedMatmulOp, ConvOp, FCOp} <= set(LOWERINGS)

    def test_unregistered_type_raises(self):
        @dataclasses.dataclass(frozen=True)
        class AlienOp:
            name: str

        with pytest.raises(WorkloadError, match="no registered lowering"):
            lower(AlienOp("alien"))

    def test_register_lowering_is_open(self):
        @dataclasses.dataclass(frozen=True)
        class EinsumOp:
            name: str

        @register_lowering(EinsumOp)
        def _lower_einsum(op, config):
            return ((op.name, GemmShape(32, 32, 32, name=op.name), 2),)

        try:
            (label, shape, count), = lower(EinsumOp("ein"))
            assert (label, count) == ("ein", 2)
        finally:
            del LOWERINGS[EinsumOp]


class TestOpSequences:
    def test_lower_ops_expands_counts(self):
        ops = [
            MatmulOp("a", 8, 8, 8),
            BatchedMatmulOp("b", count=3, m=8, n=8, k=8),
        ]
        rows = lower_ops(ops)
        assert [label for label, _ in rows] == ["a", "b", "b", "b"]

    def test_op_kind_counts(self):
        ops = [CONV, dataclasses.replace(CONV, pass_="dgrad"), FC, FC]
        assert op_kind_counts(ops) == {"conv-fwd": 1, "conv-dgrad": 1, "fc-fwd": 2}


class TestBertFullAttention:
    """The head-batched attention lowering vs an independent per-head oracle."""

    def test_attention_op_count(self):
        ops = bert_full_ops()
        attention = [op for op in ops if isinstance(op, BatchedMatmulOp)]
        # 12 encoder layers x (score + context) = 24 attention ops.
        assert len(attention) == 24

    def test_per_head_oracle_counts(self):
        """Counts == an independent heads x sequences enumeration.

        The oracle never touches the op IR: it walks (layer, head,
        sequence) tuples directly and tallies the two attention GEMM
        shapes BERT-base prescribes at tokens=256, seq=128, 12 heads of
        64 dims.
        """
        tokens, seq, heads, head_dim, layers = 256, 128, 12, 64, 12
        oracle = {}
        for _layer in range(layers):
            for _head in range(heads):
                for _sequence in range(tokens // seq):
                    score = (seq, seq, head_dim)
                    ctx = (seq, head_dim, seq)
                    oracle[score] = oracle.get(score, 0) + 1
                    oracle[ctx] = oracle.get(ctx, 0) + 1
        lowered = {}
        for op in bert_full_ops():
            if not isinstance(op, BatchedMatmulOp):
                continue
            for _, shape, count in lower(op):
                lowered[shape.dims] = lowered.get(shape.dims, 0) + count
        assert lowered == oracle
        assert sum(oracle.values()) == 576  # 24 ops x 24 per-head GEMMs

    def test_partial_trailing_sequence_still_costs_attention(self):
        """Regression: tokens not a multiple of seq must not silently drop
        the trailing sequence's attention work (padded execution pays it)."""
        ops = bert_full_ops(tokens=192)
        attention = [op for op in ops if isinstance(op, BatchedMatmulOp)]
        assert all(op.count == 12 * 2 for op in attention)  # ceil(192/128)

    def test_short_token_counts_shrink_the_sequence(self):
        ops = bert_full_ops(tokens=32)
        attention = [op for op in ops if isinstance(op, BatchedMatmulOp)]
        assert all(op.count == 12 for op in attention)  # one sequence
        score = attention[0]
        assert (score.m, score.n, score.k) == (32, 32, 64)

    def test_indivisible_heads_rejected(self):
        with pytest.raises(WorkloadError, match="heads"):
            bert_full_ops(hidden=100, heads=12)
