"""Op-level workload IR: ops that know their own GEMM lowering.

A workload suite used to be a hand-built ``{label: GemmShape}`` dict, which
loses *where* each GEMM came from: a batched attention matmul, a conv
backward pass and an FC projection all flatten to anonymous ``(m, n, k)``
triples.  This module keeps the provenance.  A model is a sequence of
frozen **ops** —

- :class:`MatmulOp` — one plain GEMM, dimensions role-free;
- :class:`BatchedMatmulOp` — ``count`` independent, identically-shaped
  matmuls (e.g. attention score/context GEMMs, one per head per sequence);
- :class:`ConvOp` — a convolution in ``fwd``/``dgrad``/``wgrad`` form;
- :class:`FCOp` — a fully connected layer, likewise per training pass —

and a registered lowering pipeline turns each op into tile-engine work:
:func:`lower` maps ``(op, LoweringConfig)`` to a tuple of
``(label, GemmShape, count)`` entries, the multiset rows a
:class:`repro.workloads.suites.WorkloadSuite` expands.

Because ops carry *dimension roles*, the :class:`LoweringConfig` knobs can
scale them role-aware, which the generic every-dimension
:meth:`~repro.workloads.gemm.GemmShape.scaled` knob cannot:

- ``scale_batch`` divides the streamed **batch**: a conv's ``N``, an FC's
  batch rows (wherever the pass puts them — wgrad streams batch along K),
  and a batched matmul's ``count``;
- ``scale_spatial`` divides the **spatial/sequence extent**: a conv's
  output- (and dgrad's input-) spatial product, and a batched matmul's
  sequence axes.

With both knobs at 1 every lowering reproduces the shapes of the pre-IR
catalogs bit for bit, so unscaled suites keep their cache keys (and warm
caches).

Shape conventions (M = streamed rows, ``C(MxN) += A(MxK) @ B(KxN)``):

===========  ==========================  =================  ==================
op / pass    M                           N                  K
===========  ==========================  =================  ==================
matmul       m                           n                  k
batched mm   m (x count GEMMs)           n                  k
conv fwd     batch * X' * Y'             filters            C * R * S
conv dgrad   batch * X * Y               C                  filters * R * S
conv wgrad   C * R * S                   filters            batch * X' * Y'
fc fwd       batch                       NON                NIN
fc dgrad     batch                       NIN                NON
fc wgrad     NIN                         NON                batch
===========  ==========================  =================  ==================

The conv backward shapes are the transposed-filter im2col lowerings
implemented functionally in :mod:`repro.workloads.lowering` and validated
against the direct adjoint oracles in :mod:`repro.workloads.reference`.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, Iterable, List, Tuple, Type, Union

from repro.errors import WorkloadError
from repro.utils.validation import check_positive
from repro.workloads.gemm import GemmShape

#: One lowered multiset row: (layer label, GEMM shape, occurrence count).
LoweredGemm = Tuple[str, GemmShape, int]

#: The training/inference passes an op can represent.
PASSES = ("fwd", "dgrad", "wgrad")


def _check_pass(pass_: str) -> None:
    if pass_ not in PASSES:
        raise WorkloadError(
            f"unknown pass {pass_!r}; known: {', '.join(PASSES)}"
        )


@dataclasses.dataclass(frozen=True)
class LoweringConfig:
    """Dimension-role-aware lowering knobs (both default to identity).

    ``scale_batch`` divides every batch-role dimension and
    ``scale_spatial`` every spatial/sequence-role dimension, each floored
    at 1.  Roles are per-op (see the module shape table), so e.g. a large-
    batch ResNet-50 curve can shrink its ``X' * Y'`` spatial product
    without touching filter counts or channel depths — something the
    generic all-dimension ``scale`` knob cannot express.
    """

    scale_batch: int = 1
    scale_spatial: int = 1

    def __post_init__(self) -> None:
        check_positive("scale_batch", self.scale_batch)
        check_positive("scale_spatial", self.scale_spatial)


DEFAULT_LOWERING = LoweringConfig()


def _scaled(value: int, factor: int) -> int:
    """``value`` divided by ``factor``, floored at 1 (never vanishes)."""
    return value if factor == 1 else max(1, value // factor)


# -- the op hierarchy --------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class MatmulOp:
    """One plain GEMM whose dimensions carry no batch/spatial role."""

    name: str
    m: int
    n: int
    k: int

    def __post_init__(self) -> None:
        for field in ("m", "n", "k"):
            check_positive(field, getattr(self, field))

    @property
    def kind(self) -> str:
        return "matmul"

    def with_batch(self, batch: int) -> "MatmulOp":
        """Role-free dims: rebatching a plain matmul is the identity."""
        check_positive("batch", batch)
        return self


@dataclasses.dataclass(frozen=True)
class BatchedMatmulOp:
    """``count`` independent identically-shaped matmuls (heads x sequences).

    Attention lowers head-batched: one op per score/context matmul with
    ``count = heads * sequences``, so the suite multiset carries every
    per-head GEMM while dedup collapses them onto one simulation point.
    ``seq_axes`` names the dims (subset of ``m``/``n``/``k``) that are
    sequence positions — ``scale_spatial`` divides exactly those.
    """

    name: str
    count: int
    m: int
    n: int
    k: int
    seq_axes: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        for field in ("count", "m", "n", "k"):
            check_positive(field, getattr(self, field))
        object.__setattr__(self, "seq_axes", tuple(self.seq_axes))
        for axis in self.seq_axes:
            if axis not in ("m", "n", "k"):
                raise WorkloadError(
                    f"seq_axes must name m/n/k dims, got {axis!r}"
                )

    @property
    def kind(self) -> str:
        return "batched-matmul"

    def with_batch(self, batch: int) -> "BatchedMatmulOp":
        """The batch role of a batched matmul is its GEMM ``count``."""
        check_positive("batch", batch)
        return dataclasses.replace(self, count=batch)


@dataclasses.dataclass(frozen=True)
class ConvOp:
    """A convolution ('same' padding) in forward, dgrad, or wgrad form.

    Notation follows the paper (Table I): N = batch, K = filters, C = input
    channels, X/Y = input spatial dims, R/S = filter dims.  ``stride > 1``
    is supported for GEMM-shape purposes (the ResNet-50 catalog needs it);
    the functional im2col path in :mod:`repro.workloads.lowering`
    implements stride 1 only.
    """

    name: str
    batch: int    # N
    filters: int  # K
    channels: int  # C
    x: int
    y: int
    r: int
    s: int
    stride: int = 1
    pass_: str = "fwd"

    def __post_init__(self) -> None:
        for field in ("batch", "filters", "channels", "x", "y", "r", "s", "stride"):
            check_positive(field, getattr(self, field))
        _check_pass(self.pass_)

    @property
    def kind(self) -> str:
        return f"conv-{self.pass_}"

    @property
    def out_x(self) -> int:
        return -(-self.x // self.stride)

    @property
    def out_y(self) -> int:
        return -(-self.y // self.stride)

    def with_batch(self, batch: int) -> "ConvOp":
        check_positive("batch", batch)
        return dataclasses.replace(self, batch=batch)


@dataclasses.dataclass(frozen=True)
class FCOp:
    """A fully connected layer in forward, dgrad, or wgrad form.

    N = batch rows, NIN/NON = input/output neurons (Table I notation).
    """

    name: str
    batch: int  # N
    nin: int
    non: int
    pass_: str = "fwd"

    def __post_init__(self) -> None:
        for field in ("batch", "nin", "non"):
            check_positive(field, getattr(self, field))
        _check_pass(self.pass_)

    @property
    def kind(self) -> str:
        return f"fc-{self.pass_}"

    def with_batch(self, batch: int) -> "FCOp":
        check_positive("batch", batch)
        return dataclasses.replace(self, batch=batch)


Op = Union[MatmulOp, BatchedMatmulOp, ConvOp, FCOp]


# -- the lowering registry ---------------------------------------------------------

Lowering = Callable[["Op", LoweringConfig], Tuple[LoweredGemm, ...]]

#: Op type -> lowering function.  Open: new op kinds register here.
LOWERINGS: Dict[Type, Lowering] = {}


def register_lowering(op_type: Type) -> Callable[[Lowering], Lowering]:
    """Class decorator target: register the lowering for one op type."""

    def decorate(fn: Lowering) -> Lowering:
        LOWERINGS[op_type] = fn
        return fn

    return decorate


def lower(op: Op, config: LoweringConfig = DEFAULT_LOWERING) -> Tuple[LoweredGemm, ...]:
    """Lower one op to its ``(label, GemmShape, count)`` multiset rows.

    The registered pipeline dispatches on the op's exact type; unknown op
    types raise :class:`WorkloadError` naming the registered kinds.  With
    the identity config, every lowering reproduces the pre-IR catalog
    shape for its op bit for bit (golden-tested), so dedup keys — and warm
    result caches — survive the IR.
    """
    try:
        lowering = LOWERINGS[type(op)]
    except KeyError:
        known = ", ".join(t.__name__ for t in LOWERINGS)
        raise WorkloadError(
            f"no registered lowering for {type(op).__name__!r}; known: {known}"
        ) from None
    return lowering(op, config)


@register_lowering(MatmulOp)
def _lower_matmul(op: MatmulOp, config: LoweringConfig) -> Tuple[LoweredGemm, ...]:
    """Identity lowering: dimensions are role-free, knobs do not apply."""
    return ((op.name, GemmShape(m=op.m, n=op.n, k=op.k, name=op.name), 1),)


@register_lowering(BatchedMatmulOp)
def _lower_batched_matmul(
    op: BatchedMatmulOp, config: LoweringConfig
) -> Tuple[LoweredGemm, ...]:
    """Head-batched: one shape, ``count`` occurrences; seq axes scale."""
    dims = {"m": op.m, "n": op.n, "k": op.k}
    for axis in op.seq_axes:
        dims[axis] = _scaled(dims[axis], config.scale_spatial)
    shape = GemmShape(m=dims["m"], n=dims["n"], k=dims["k"], name=op.name)
    return ((op.name, shape, _scaled(op.count, config.scale_batch)),)


@register_lowering(ConvOp)
def _lower_conv(op: ConvOp, config: LoweringConfig) -> Tuple[LoweredGemm, ...]:
    """im2col lowerings per pass (see the module shape table).

    ``scale_spatial`` divides the streamed spatial *product* (output
    spatial for fwd/wgrad, input spatial for dgrad), ``scale_batch`` the
    conv batch — wherever the pass streams it (M for fwd/dgrad, K for
    wgrad).
    """
    batch = _scaled(op.batch, config.scale_batch)
    out_spatial = _scaled(op.out_x * op.out_y, config.scale_spatial)
    in_spatial = _scaled(op.x * op.y, config.scale_spatial)
    taps = op.r * op.s
    if op.pass_ == "fwd":
        m, n, k = batch * out_spatial, op.filters, op.channels * taps
    elif op.pass_ == "dgrad":
        m, n, k = batch * in_spatial, op.channels, op.filters * taps
    else:  # wgrad
        m, n, k = op.channels * taps, op.filters, batch * out_spatial
    return ((op.name, GemmShape(m=m, n=n, k=k, name=op.name), 1),)


@register_lowering(FCOp)
def _lower_fc(op: FCOp, config: LoweringConfig) -> Tuple[LoweredGemm, ...]:
    """FC passes stream batch along M (fwd/dgrad) or K (wgrad)."""
    batch = _scaled(op.batch, config.scale_batch)
    if op.pass_ == "fwd":
        m, n, k = batch, op.non, op.nin
    elif op.pass_ == "dgrad":
        m, n, k = batch, op.nin, op.non
    else:  # wgrad
        m, n, k = op.nin, op.non, batch
    return ((op.name, GemmShape(m=m, n=n, k=k, name=op.name), 1),)


# -- op-sequence helpers -----------------------------------------------------------


def lower_ops(
    ops: Iterable[Op], config: LoweringConfig = DEFAULT_LOWERING
) -> List[Tuple[str, GemmShape]]:
    """Expand a sequence of ops into the flat (label, shape) multiset.

    Each lowered entry repeats ``count`` times, so the result is exactly
    the network-order GEMM stream a back-to-back execution would issue —
    the rows a :class:`repro.workloads.suites.WorkloadSuite` holds.
    """
    rows: List[Tuple[str, GemmShape]] = []
    for op in ops:
        for label, shape, count in lower(op, config):
            rows.extend((label, shape) for _ in range(count))
    return rows


def op_kind_counts(ops: Iterable[Op]) -> Dict[str, int]:
    """``{op kind: op count}`` in first-occurrence order (suite listings)."""
    counts: Dict[str, int] = {}
    for op in ops:
        counts[op.kind] = counts.get(op.kind, 0) + 1
    return counts
