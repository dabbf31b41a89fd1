"""Training-pass ops (extension; Sec. V: "our proposed concept is not
limited to inference since GEMM is also a key building block for training").

For an FC layer ``Y = X · W`` with batch N, input width NIN, output width
NON, one training step runs three GEMMs:

- **forward**:  Y  = X · W        -> (M, N, K) = (batch, NON, NIN)
- **dgrad**:    dX = dY · Wᵀ      -> (batch, NIN, NON)
- **wgrad**:    dW = Xᵀ · dY      -> (NIN, NON, batch)

wgrad is the interesting one for RASA: its streamed M dimension equals NIN
(large), so even the serialized baseline amortizes fill/drain well there —
the RASA gain concentrates in forward/dgrad, whose M is the (small) batch.
Convolutions follow the same pattern through their transposed-filter
im2col lowerings; :mod:`repro.workloads.ops` holds every pass's shape.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, List

from repro.workloads.ops import PASSES, Op


def training_ops(ops: Iterable[Op], forward: str = "fwd") -> List[Op]:
    """The fwd/dgrad/wgrad ops of one training step per forward conv/FC op.

    Each pass is its op with ``pass_`` replaced and ``-<pass>`` appended to
    its name, so every pass's GEMM is its op kind's registered lowering.
    ``forward`` is the forward pass's name suffix: the ``training`` suite
    spells it ``forward``, which predates the op IR and keeps its multiset
    labels byte-identical.
    """
    suffixes = {"fwd": forward, "dgrad": "dgrad", "wgrad": "wgrad"}
    return [
        dataclasses.replace(op, pass_=pass_, name=f"{op.name}-{suffixes[pass_]}")
        for op in ops
        for pass_ in PASSES
    ]
