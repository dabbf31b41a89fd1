"""Tests for im2col convolution lowering against the direct-conv oracle."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.workloads.lowering import (
    conv_dgrad,
    conv_reference,
    conv_wgrad,
    dgrad_filters,
    filters_to_gemm_b,
    gemm_output_to_conv,
    im2col,
)
from repro.workloads.ops import ConvOp, lower
from repro.workloads.reference import (
    conv_dgrad_reference,
    conv_wgrad_reference,
)


def lower_and_multiply(inputs, weights):
    """The full lowering path in float64 (no BF16): im2col @ reshaped filters."""
    n, c, x, y = inputs.shape
    k, _, r, s = weights.shape
    a = im2col(inputs.astype(np.float64), r, s)
    b = filters_to_gemm_b(weights.astype(np.float64))
    return gemm_output_to_conv(a @ b, n, x, y)


class TestLoweringExactness:
    @pytest.mark.parametrize("r,s", [(1, 1), (3, 3), (5, 3)])
    def test_matches_direct_convolution(self, rng, r, s):
        inputs = rng.standard_normal((2, 3, 6, 7))
        weights = rng.standard_normal((4, 3, r, s))
        direct = conv_reference(inputs, weights)
        lowered = lower_and_multiply(inputs, weights)
        np.testing.assert_allclose(lowered, direct, rtol=1e-12, atol=1e-12)

    def test_pointwise_conv_is_plain_reshape(self, rng):
        # R=S=1: im2col must be a pure channel permutation (no padding taps).
        inputs = rng.standard_normal((2, 5, 4, 4))
        a = im2col(inputs, 1, 1)
        assert a.shape == (2 * 4 * 4, 5)
        np.testing.assert_array_equal(
            a, inputs.transpose(0, 2, 3, 1).reshape(-1, 5)
        )

    def test_zero_padding_at_borders(self):
        # A single bright pixel at a corner: the 3x3 im2col row for that
        # output must contain zeros for out-of-image taps.
        inputs = np.zeros((1, 1, 3, 3))
        inputs[0, 0, 0, 0] = 7.0
        a = im2col(inputs, 3, 3)
        # Output position (0,0): the pixel sits at tap (dr=1, ds=1) (center).
        row = a[0].reshape(1, 3, 3)
        assert row[0, 1, 1] == 7.0
        assert row.sum() == 7.0  # everything else is padding zeros


class TestGemmShapes:
    def test_table1_shape_consistency(self):
        (_, g, _), = lower(ConvOp("t", batch=2, filters=8, channels=3, x=5, y=5, r=3, s=3))
        assert (g.m, g.n, g.k) == (2 * 5 * 5, 8, 27)

    def test_im2col_dims_match_layer_gemm(self, rng):
        (_, g, _), = lower(ConvOp("t", batch=2, filters=8, channels=3, x=5, y=5, r=3, s=3))
        inputs = rng.standard_normal((2, 3, 5, 5))
        a = im2col(inputs, 3, 3)
        assert a.shape == (g.m, g.k)


#: Two ResNet-50 layer geometries, shrunk for the numeric oracle (the
#: channel/filter/spatial ratios of conv2_1b — the 3x3 mid conv — and
#: conv2_1c — the 1x1 expansion — at reduced width).  Both stride 1, the
#: regime the functional im2col path implements.
RESNET_LIKE = (
    ("conv2_1b", dict(n=2, c=8, x=7, y=7, k=8, r=3, s=3)),
    ("conv2_1c", dict(n=2, c=8, x=7, y=7, k=32, r=1, s=1)),
)


class TestTrainingPassLowering:
    """dgrad/wgrad im2col lowerings vs the direct adjoint oracles."""

    @pytest.mark.parametrize("name,geom", RESNET_LIKE)
    def test_dgrad_matches_adjoint_oracle(self, rng, name, geom):
        weights = rng.standard_normal((geom["k"], geom["c"], geom["r"], geom["s"]))
        grad = rng.standard_normal((geom["n"], geom["k"], geom["x"], geom["y"]))
        lowered = conv_dgrad(grad, weights)
        oracle = conv_dgrad_reference(grad, weights)
        assert lowered.shape == (geom["n"], geom["c"], geom["x"], geom["y"])
        np.testing.assert_allclose(lowered, oracle, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("name,geom", RESNET_LIKE)
    def test_wgrad_matches_adjoint_oracle(self, rng, name, geom):
        inputs = rng.standard_normal((geom["n"], geom["c"], geom["x"], geom["y"]))
        grad = rng.standard_normal((geom["n"], geom["k"], geom["x"], geom["y"]))
        lowered = conv_wgrad(inputs, grad, geom["r"], geom["s"])
        oracle = conv_wgrad_reference(inputs, grad, geom["r"], geom["s"])
        assert lowered.shape == (geom["k"], geom["c"], geom["r"], geom["s"])
        np.testing.assert_allclose(lowered, oracle, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("name,geom", RESNET_LIKE)
    def test_adjoint_inner_product_identities(self, rng, name, geom):
        """<dY, conv(X, W)> == <dgrad(dY, W), X> == <wgrad(X, dY), W>.

        The defining property of the gradients (what finite differences
        would estimate; exact here because convolution is linear), checked
        against the *oracles* so both sides are im2col-free.
        """
        inputs = rng.standard_normal((geom["n"], geom["c"], geom["x"], geom["y"]))
        weights = rng.standard_normal((geom["k"], geom["c"], geom["r"], geom["s"]))
        grad = rng.standard_normal((geom["n"], geom["k"], geom["x"], geom["y"]))
        forward_ip = float((grad * conv_reference(inputs, weights)).sum())
        dgrad_ip = float((conv_dgrad_reference(grad, weights) * inputs).sum())
        wgrad_ip = float(
            (conv_wgrad_reference(inputs, grad, geom["r"], geom["s"]) * weights).sum()
        )
        assert forward_ip == pytest.approx(dgrad_ip, rel=1e-10)
        assert forward_ip == pytest.approx(wgrad_ip, rel=1e-10)

    def test_dgrad_finite_difference_spot_check(self, rng):
        """One scalar input perturbation agrees with the assembled dX.

        Convolution is linear, so the central difference is exact up to
        float64 rounding — a genuinely lowering-free autograd check.
        """
        n, c, x, y, k, r, s = 1, 2, 4, 4, 3, 3, 3
        inputs = rng.standard_normal((n, c, x, y))
        weights = rng.standard_normal((k, c, r, s))
        grad = rng.standard_normal((n, k, x, y))
        dx = conv_dgrad_reference(grad, weights)
        eps = 1e-3
        for index in [(0, 0, 0, 0), (0, 1, 2, 3), (0, 1, 3, 1)]:
            bumped = inputs.copy()
            bumped[index] += eps
            dipped = inputs.copy()
            dipped[index] -= eps
            fd = (
                (grad * conv_reference(bumped, weights)).sum()
                - (grad * conv_reference(dipped, weights)).sum()
            ) / (2 * eps)
            assert fd == pytest.approx(dx[index], rel=1e-7)

    def test_dgrad_filters_shape_and_flip(self):
        weights = np.arange(2 * 3 * 3 * 3, dtype=np.float64).reshape(2, 3, 3, 3)
        flipped = dgrad_filters(weights)
        assert flipped.shape == (3, 2, 3, 3)
        assert flipped[1, 0, 0, 0] == weights[0, 1, 2, 2]
        assert flipped[2, 1, 1, 1] == weights[1, 2, 1, 1]  # center is fixed

    def test_wgrad_rejects_mismatched_operands(self, rng):
        with pytest.raises(WorkloadError, match="mismatch"):
            conv_wgrad(
                rng.standard_normal((1, 2, 4, 4)),
                rng.standard_normal((2, 3, 4, 4)),
                3, 3,
            )

    def test_dgrad_rejects_even_filters(self, rng):
        with pytest.raises(WorkloadError):
            conv_dgrad(
                rng.standard_normal((1, 2, 4, 4)),
                rng.standard_normal((2, 2, 2, 2)),
            )


class TestValidation:
    def test_even_filter_rejected(self, rng):
        with pytest.raises(WorkloadError):
            im2col(rng.standard_normal((1, 1, 4, 4)), 2, 2)

    def test_channel_mismatch(self, rng):
        with pytest.raises(WorkloadError):
            conv_reference(
                rng.standard_normal((1, 3, 4, 4)), rng.standard_normal((2, 4, 1, 1))
            )

    def test_bad_rank(self, rng):
        with pytest.raises(WorkloadError):
            conv_reference(rng.standard_normal((3, 4, 4)), rng.standard_normal((2, 3, 1, 1)))
