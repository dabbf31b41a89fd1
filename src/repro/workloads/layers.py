"""The MLPerf layer catalog of Table I, declared as ops.

Notation follows the paper: for convolutions, N = batch, K = filters,
C = input channels, X/Y = input spatial dims, R/S = filter dims; for FC
layers, N = batch, NIN/NON = input/output neurons.  All evaluation is on
inference (forward pass), so every layer is a forward
:class:`~repro.workloads.ops.ConvOp` or :class:`~repro.workloads.ops.FCOp`
and its GEMM is the op's registered lowering
(:func:`repro.workloads.ops.lower`).
"""

from __future__ import annotations

from typing import Dict, List, Union

from repro.workloads.gemm import GemmShape
from repro.workloads.ops import ConvOp, FCOp, lower_ops

#: Table I, verbatim.
TABLE1_LAYERS: Dict[str, Union[ConvOp, FCOp]] = {
    op.name: op
    for op in (
        ConvOp("ResNet50-1", batch=32, filters=64, channels=64, x=56, y=56, r=1, s=1),
        ConvOp("ResNet50-2", batch=32, filters=64, channels=64, x=56, y=56, r=3, s=3),
        ConvOp("ResNet50-3", batch=32, filters=512, channels=1024, x=14, y=14, r=1, s=1),
        FCOp("DLRM-1", batch=512, nin=1024, non=1024),
        FCOp("DLRM-2", batch=512, nin=1024, non=64),
        FCOp("DLRM-3", batch=512, nin=2048, non=2048),
        FCOp("BERT-1", batch=256, nin=768, non=768),
        FCOp("BERT-2", batch=256, nin=3072, non=768),
        FCOp("BERT-3", batch=256, nin=768, non=3072),
    )
}

#: The six FC layers used in the Fig. 7 batch-size sensitivity study.
FC_LAYER_NAMES: List[str] = [
    name for name, op in TABLE1_LAYERS.items() if isinstance(op, FCOp)
]


def table1_gemms() -> Dict[str, GemmShape]:
    """GEMM shapes of every Table I layer, in table order."""
    return dict(lower_ops(TABLE1_LAYERS.values()))
