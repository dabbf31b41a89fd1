"""Full-model op catalogs (extension beyond Table I's nine layers).

The paper evaluates three layers per MLPerf model; these catalogs carry the
*complete* matrix-engine work of each network as sequences of
:mod:`repro.workloads.ops` ops, each of which knows its own GEMM lowering:
every ResNet-50 convolution (:func:`resnet50_ops`), every BERT-base encoder
projection/FFN GEMM (:func:`bert_encoder_ops`), the *full* BERT-base stack
including the head-batched attention score/context matmuls
(:func:`bert_full_ops`), and the DLRM MLP stacks (:func:`dlrm_ops`).

Attention matmuls are not tile-GEMMs *per head* (seq x head_dim slices),
but head-batched they are exactly ``heads x sequences`` independent GEMMs
of one shape, which is how :func:`bert_full_ops` models them; embedding
lookups remain excluded (not matrix-engine work).
"""

from __future__ import annotations

from typing import List, Sequence

from repro.errors import WorkloadError
from repro.workloads.ops import BatchedMatmulOp, ConvOp, FCOp, Op

# -- ResNet-50 ------------------------------------------------------------------

#: Bottleneck stage plan: (output spatial, mid channels, out channels, blocks).
_RESNET50_STAGES = (
    (56, 64, 256, 3),
    (28, 128, 512, 4),
    (14, 256, 1024, 6),
    (7, 512, 2048, 3),
)


def resnet50_ops(batch: int = 32) -> List[Op]:
    """Every ResNet-50 convolution (ImageNet geometry), in order, as a
    forward :class:`ConvOp`."""
    ops: List[Op] = [
        ConvOp("conv1", batch, filters=64, channels=3, x=224, y=224, r=7, s=7, stride=2)
    ]
    in_channels = 64
    for stage_index, (size, mid, out, blocks) in enumerate(_RESNET50_STAGES, start=2):
        for block in range(blocks):
            prefix = f"conv{stage_index}_{block + 1}"
            # First block of stages 3-5 downsamples; feature-map x/y below is
            # the *input* size of each conv.
            first = block == 0
            stride = 2 if (first and stage_index > 2) else 1
            in_size = size * stride
            ops.append(
                ConvOp(f"{prefix}a", batch, mid, in_channels, in_size, in_size, 1, 1, stride)
            )
            ops.append(ConvOp(f"{prefix}b", batch, mid, mid, size, size, 3, 3))
            ops.append(ConvOp(f"{prefix}c", batch, out, mid, size, size, 1, 1))
            if first:
                ops.append(
                    ConvOp(
                        f"{prefix}_proj", batch, out, in_channels,
                        in_size, in_size, 1, 1, stride,
                    )
                )
            in_channels = out
    return ops


# -- BERT-base --------------------------------------------------------------------


def bert_encoder_ops(
    tokens: int = 256, hidden: int = 768, ffn: int = 3072, layers: int = 12
) -> List[Op]:
    """The projection/FFN ops of a BERT-base encoder stack.

    Per layer: Q, K, V projections (hidden -> hidden), attention output
    projection (hidden -> hidden), FFN up (hidden -> ffn), FFN down
    (ffn -> hidden), each an :class:`FCOp` with ``tokens`` batch rows —
    matching the paper's BERT-1/2/3 shapes at tokens = 256.
    """
    if layers <= 0:
        raise WorkloadError(f"layers must be positive, got {layers}")
    ops: List[Op] = []
    for i in range(layers):
        p = f"enc{i}"
        for proj in ("q", "k", "v", "attn_out"):
            ops.append(FCOp(f"{p}.{proj}", batch=tokens, nin=hidden, non=hidden))
        ops.append(FCOp(f"{p}.ffn_up", batch=tokens, nin=hidden, non=ffn))
        ops.append(FCOp(f"{p}.ffn_down", batch=tokens, nin=ffn, non=hidden))
    return ops


#: BERT-base attention geometry: 12 heads of 64 dims over 128-token sequences.
BERT_HEADS = 12
BERT_SEQ = 128


def bert_full_ops(
    tokens: int = 256,
    hidden: int = 768,
    ffn: int = 3072,
    layers: int = 12,
    heads: int = BERT_HEADS,
    seq: int = BERT_SEQ,
) -> List[Op]:
    """The *complete* BERT-base encoder stack, attention matmuls included.

    On top of the six projection/FFN :class:`FCOp`\\ s per layer, each
    encoder layer contributes two head-batched attention matmuls as
    :class:`BatchedMatmulOp`\\ s with ``count = heads x sequences``:

    - **score**:   Q_h (seq x head_dim) @ K_hᵀ -> (seq, seq, head_dim);
    - **context**: P_h (seq x seq) @ V_h       -> (seq, head_dim, seq).

    ``tokens`` is the total row count (batch x sequence), so the number of
    sequences is ``ceil(tokens / seq)`` — a trailing partial sequence
    still costs a (padded) attention pass, so rounding up matches padded
    execution where truncating would silently drop its score/context work.
    Below one full sequence the sequence itself shortens to ``tokens``
    (the batch-sweep small end).  Both matmuls mark their sequence dims as
    ``seq_axes`` for the role-aware ``scale_spatial`` knob.
    """
    if hidden % heads:
        raise WorkloadError(
            f"hidden {hidden} must divide evenly into {heads} heads"
        )
    head_dim = hidden // heads
    seq_eff = min(seq, tokens)
    sequences = -(-tokens // seq_eff)
    ops: List[Op] = []
    for op in bert_encoder_ops(tokens, hidden, ffn, layers):
        ops.append(op)
        if op.name.endswith(".v"):
            p = op.name[: -len(".v")]
            ops.append(
                BatchedMatmulOp(
                    f"{p}.attn_score",
                    count=heads * sequences,
                    m=seq_eff, n=seq_eff, k=head_dim,
                    seq_axes=("m", "n"),
                )
            )
            ops.append(
                BatchedMatmulOp(
                    f"{p}.attn_ctx",
                    count=heads * sequences,
                    m=seq_eff, n=head_dim, k=seq_eff,
                    seq_axes=("m", "k"),
                )
            )
    return ops


# -- DLRM -----------------------------------------------------------------------


def mlp_ops(batch: int, widths: Sequence[int], prefix: str) -> List[Op]:
    """Ops of an MLP with the given layer widths (forward FCs)."""
    if len(widths) < 2:
        raise WorkloadError("an MLP needs at least two widths")
    return [
        FCOp(f"{prefix}{i}", batch=batch, nin=nin, non=non)
        for i, (nin, non) in enumerate(zip(widths, widths[1:]))
    ]


def dlrm_ops(batch: int = 512) -> List[Op]:
    """DLRM MLP ops (RM2-class sizes, matching Table I's 1024/2048 FCs)."""
    return mlp_ops(batch, (256, 1024, 1024, 1024, 64), "bottom") + mlp_ops(
        batch, (512, 2048, 2048, 2048, 1024, 1), "top"
    )
