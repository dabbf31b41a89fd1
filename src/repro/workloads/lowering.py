"""Convolution lowering: im2col transformation and a direct-conv oracle.

Many frameworks "lower" convolution to GEMM (Sec. II-A, ref. [9]).  For a
stride-1 'same'-padded convolution of input (N, C, X, Y) with filters
(K, C, R, S):

- ``im2col`` builds the (N·X·Y, C·R·S) patch matrix A;
- the filters reshape to (C·R·S, K) as the GEMM's B;
- the GEMM output (N·X·Y, K) reshapes back to (N, K, X, Y).

``conv_reference`` computes the same convolution directly, so tests can
confirm the lowering (and then the whole simulated pipeline) is exact.

The **training passes** lower to GEMM the same way:

- **dgrad** (``conv_dgrad``): dX is the 'same' convolution of dY with the
  *transposed, spatially flipped* filters (:func:`dgrad_filters` turns
  (K, C, R, S) into (C, K, R, S) rotated 180°), so it reuses ``im2col``
  on dY — GEMM dims (N·X·Y, C, K·R·S);
- **wgrad** (``conv_wgrad``): dW is the patch matrix of the *inputs*
  contracted with dY over every (batch, spatial) position —
  ``X_colᵀ @ dY_mat``, GEMM dims (C·R·S, K, N·X·Y), the conv analog of
  the FC wgrad ``Xᵀ @ dY``.

Both are validated against the independent adjoint oracles in
:mod:`repro.workloads.reference` (``conv_dgrad_reference`` /
``conv_wgrad_reference``), which never touch im2col.
"""

from __future__ import annotations

import numpy as np

from repro.errors import WorkloadError


def _check_conv_operands(inputs: np.ndarray, weights: np.ndarray) -> None:
    if inputs.ndim != 4 or weights.ndim != 4:
        raise WorkloadError(
            f"conv expects NCHW inputs and KCRS weights, got {inputs.shape} / {weights.shape}"
        )
    if inputs.shape[1] != weights.shape[1]:
        raise WorkloadError(
            f"channel mismatch: input C={inputs.shape[1]}, weight C={weights.shape[1]}"
        )
    if weights.shape[2] % 2 == 0 or weights.shape[3] % 2 == 0:
        raise WorkloadError("'same' padding requires odd filter dims R, S")


def im2col(inputs: np.ndarray, r: int, s: int) -> np.ndarray:
    """Lower (N, C, X, Y) inputs to the (N·X·Y, C·R·S) patch matrix.

    Stride 1, 'same' zero padding (out-of-range taps read zero).  Column
    order is (c, dr, ds) row-major — matching the filter reshape below.
    """
    if r % 2 == 0 or s % 2 == 0:
        raise WorkloadError("'same' padding requires odd filter dims R, S")
    n, c, x, y = inputs.shape
    pad_r, pad_s = r // 2, s // 2
    padded = np.zeros((n, c, x + 2 * pad_r, y + 2 * pad_s), dtype=inputs.dtype)
    padded[:, :, pad_r : pad_r + x, pad_s : pad_s + y] = inputs
    columns = np.empty((n, x, y, c, r, s), dtype=inputs.dtype)
    for dr in range(r):
        for ds in range(s):
            columns[:, :, :, :, dr, ds] = padded[:, :, dr : dr + x, ds : ds + y].transpose(
                0, 2, 3, 1
            )
    return columns.reshape(n * x * y, c * r * s)


def filters_to_gemm_b(weights: np.ndarray) -> np.ndarray:
    """Reshape (K, C, R, S) filters to the GEMM B matrix (C·R·S, K)."""
    k = weights.shape[0]
    return weights.reshape(k, -1).T.copy()


def gemm_output_to_conv(output: np.ndarray, n: int, x: int, y: int) -> np.ndarray:
    """Reshape the GEMM output (N·X·Y, K) back to the (N, K, X, Y) tensor."""
    k = output.shape[1]
    return output.reshape(n, x, y, k).transpose(0, 3, 1, 2).copy()


def dgrad_filters(weights: np.ndarray) -> np.ndarray:
    """The transposed-filter bank dgrad convolves with.

    (K, C, R, S) forward filters become (C, K, R, S) filters rotated 180°
    spatially: ``W'[c, k, dr, ds] = W[k, c, R-1-dr, S-1-ds]``.  Convolving
    dY with these ('same' padding, stride 1) is exactly the adjoint of the
    forward convolution.
    """
    if weights.ndim != 4:
        raise WorkloadError(f"expected KCRS weights, got shape {weights.shape}")
    return weights.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1].copy()


def conv_dgrad(grad_output: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Input gradient dX via the transposed-filter im2col GEMM (stride 1).

    ``grad_output`` is dY (N, K, X, Y); the result is dX (N, C, X, Y).
    This is the *lowered* path — ``im2col`` on dY times the reshaped
    :func:`dgrad_filters` — which tests compare against the direct
    adjoint oracle :func:`repro.workloads.reference.conv_dgrad_reference`.
    """
    _check_conv_operands(grad_output, weights.transpose(1, 0, 2, 3))
    n, _, x, y = grad_output.shape
    r, s = weights.shape[2], weights.shape[3]
    a = im2col(grad_output, r, s)
    b = filters_to_gemm_b(dgrad_filters(weights))
    return gemm_output_to_conv(a @ b, n, x, y)


def conv_wgrad(inputs: np.ndarray, grad_output: np.ndarray, r: int, s: int) -> np.ndarray:
    """Weight gradient dW via the im2col GEMM ``X_colᵀ @ dY_mat`` (stride 1).

    ``inputs`` (N, C, X, Y) and ``grad_output`` dY (N, K, X, Y) produce
    dW (K, C, R, S).  The GEMM streams M = C·R·S rows against
    K-dim = N·X·Y — the conv analog of the FC wgrad ``Xᵀ @ dY``.
    """
    if inputs.ndim != 4 or grad_output.ndim != 4:
        raise WorkloadError(
            "conv_wgrad expects NCHW inputs and NKXY grads, got "
            f"{inputs.shape} / {grad_output.shape}"
        )
    if inputs.shape[0] != grad_output.shape[0] or inputs.shape[2:] != grad_output.shape[2:]:
        raise WorkloadError(
            f"batch/spatial mismatch: inputs {inputs.shape}, grads {grad_output.shape}"
        )
    n, c, x, y = inputs.shape
    k = grad_output.shape[1]
    x_col = im2col(inputs, r, s)                                    # (NXY, CRS)
    dy_mat = grad_output.transpose(0, 2, 3, 1).reshape(n * x * y, k)  # (NXY, K)
    dw = x_col.T @ dy_mat                                           # (CRS, K)
    return dw.T.reshape(k, c, r, s).copy()


def conv_reference(inputs: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Direct stride-1 'same' convolution in float64 (the lowering oracle)."""
    _check_conv_operands(inputs, weights)
    n, c, x, y = inputs.shape
    k, _, r, s = weights.shape
    pad_r, pad_s = r // 2, s // 2
    padded = np.zeros((n, c, x + 2 * pad_r, y + 2 * pad_s), dtype=np.float64)
    padded[:, :, pad_r : pad_r + x, pad_s : pad_s + y] = inputs
    out = np.zeros((n, k, x, y), dtype=np.float64)
    for dr in range(r):
        for ds in range(s):
            window = padded[:, :, dr : dr + x, ds : ds + y]
            out += np.einsum("ncxy,kc->nkxy", window, weights[:, :, dr, ds])
    return out
