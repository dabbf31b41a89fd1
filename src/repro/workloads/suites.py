"""First-class model workload suites: name -> GEMM multiset.

The paper evaluates three layers per MLPerf model (Table I); the op
catalogs in :mod:`repro.workloads.models`, with the training passes of
:mod:`repro.workloads.training`, carry the *complete* matrix-engine work of
each network.  A :class:`WorkloadSuite` makes that sweepable: an ordered
multiset of (layer label, GEMM shape) pairs whose
:meth:`~WorkloadSuite.distinct` view collapses dimensionally identical
layers into one representative plus an occurrence count — the unit the
runtime layer simulates.

Suites are built from the **op IR** (:mod:`repro.workloads.ops`): each
registry entry holds an op factory, and :meth:`SuiteSpec.build` lowers the
ops through :func:`repro.workloads.ops.lower` under a
:class:`~repro.workloads.ops.LoweringConfig` — which is what gives every
suite the dimension-role-aware ``scale_batch`` / ``scale_spatial`` knobs
on top of the generic every-dimension ``scale``.

Real models repeat shapes heavily: BERT-base's 72 encoder GEMMs are 3
distinct points (48 identical q/k/v/attn-out projections alone), the full
attention-included stack's 648 GEMMs are 5 (each layer's 288 per-head
score and 288 context matmuls collapse onto one point apiece), DLRM's MLP
stacks repeat their 1024x1024 and 2048x2048 FCs, and ResNet-50's
within-stage bottleneck blocks reuse the same three convolutions.  The
registry (:data:`SUITES` / :func:`get_suite`) covers ``table1``,
``resnet50``, ``bert-base``, ``bert-full``, ``dlrm``, ``training``
(fwd/dgrad/wgrad over the Table I FC layers) and ``resnet50-train``
(fwd/dgrad/wgrad over every ResNet-50 convolution), each with an optional
batch override and the same ``scale`` convention the experiment layer
uses.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import WorkloadError
from repro.utils.validation import check_positive
from repro.workloads.gemm import GemmShape
from repro.workloads.layers import FC_LAYER_NAMES, TABLE1_LAYERS
from repro.workloads.models import (
    bert_encoder_ops,
    bert_full_ops,
    dlrm_ops,
    resnet50_ops,
)
from repro.workloads.ops import (
    DEFAULT_LOWERING,
    LoweringConfig,
    Op,
    lower_ops,
    op_kind_counts,
)
from repro.workloads.training import training_ops


@dataclasses.dataclass(frozen=True)
class DistinctGemm:
    """One distinct (m, n, k) point of a suite and the layers it covers."""

    shape: GemmShape          # first-occurrence representative (label kept)
    count: int                # occurrences in the suite multiset
    layers: Tuple[str, ...]   # every layer label that maps onto this point


@dataclasses.dataclass(frozen=True)
class WorkloadSuite:
    """An ordered GEMM multiset: the full matrix-engine work of one model.

    ``gemms`` keeps every (layer label, shape) pair in network order —
    duplicates included — so occurrence-weighted end-to-end aggregation
    stays exact; :meth:`distinct` is the deduplicated view sweeps simulate.
    """

    name: str
    gemms: Tuple[Tuple[str, GemmShape], ...]

    def __post_init__(self) -> None:
        if not self.gemms:
            raise WorkloadError(f"suite {self.name!r} has no GEMMs")

    @classmethod
    def from_ops(
        cls,
        name: str,
        ops: Sequence[Op],
        lowering: LoweringConfig = DEFAULT_LOWERING,
    ) -> "WorkloadSuite":
        """Lower an op sequence into a suite multiset.

        Batched ops expand to ``count`` rows apiece, so the multiset is
        the exact network-order GEMM stream (BERT-full's 24 attention ops
        become 576 rows) and occurrence weighting needs no special cases.
        """
        if not ops:
            raise WorkloadError(f"suite {name!r} has no ops")
        return cls(name=name, gemms=tuple(lower_ops(ops, lowering)))

    def __len__(self) -> int:
        """Total GEMM count, duplicates included."""
        return len(self.gemms)

    def as_dict(self) -> Dict[str, GemmShape]:
        """The suite as a {layer label: shape} mapping (network order)."""
        return dict(self.gemms)

    def distinct(self) -> List[DistinctGemm]:
        """The multiset collapsed by (m, n, k), in first-occurrence order."""
        order: List[Tuple[int, int, int]] = []
        rep: Dict[Tuple[int, int, int], GemmShape] = {}
        layers: Dict[Tuple[int, int, int], List[str]] = {}
        for label, shape in self.gemms:
            dims = shape.dims
            if dims not in rep:
                order.append(dims)
                rep[dims] = shape
                layers[dims] = []
            layers[dims].append(label)
        return [
            DistinctGemm(shape=rep[d], count=len(layers[d]), layers=tuple(layers[d]))
            for d in order
        ]

    @property
    def dedup_factor(self) -> float:
        """Per-layer simulations each distinct point stands in for."""
        return len(self) / len(self.distinct())

    @property
    def total_macs(self) -> int:
        """Useful MACs over the whole multiset (duplicates included)."""
        return sum(shape.macs for _, shape in self.gemms)

    def scaled(self, factor: int) -> "WorkloadSuite":
        """Every shape shrunk by ``factor`` (same floors as ``GemmShape.scaled``).

        Scaling can only merge distinct points (floored dimensions
        coincide), never split them, so dedup bookkeeping stays exact.
        Each distinct shape scales once: rows with equal shapes share one
        scaled shape.
        """
        check_positive("factor", factor)
        if factor == 1:
            return self
        scaled: Dict[GemmShape, GemmShape] = {}
        gemms: List[Tuple[str, GemmShape]] = []
        for label, shape in self.gemms:
            small = scaled.get(shape)
            if small is None:
                small = scaled[shape] = shape.scaled(factor)
            gemms.append((label, small))
        return WorkloadSuite(name=self.name, gemms=tuple(gemms))


# -- registry ----------------------------------------------------------------------


def _rebatched(ops: Iterable[Op], batch: Optional[int]) -> List[Op]:
    """``ops`` at ``batch`` (every op kind rebatches via ``with_batch``)."""
    return [op if batch is None else op.with_batch(batch) for op in ops]


def _table1_ops(batch: Optional[int]) -> List[Op]:
    return _rebatched(TABLE1_LAYERS.values(), batch)


def _training_ops(batch: Optional[int]) -> List[Op]:
    fc = _rebatched([TABLE1_LAYERS[name] for name in FC_LAYER_NAMES], batch)
    return training_ops(fc, forward="forward")


def _resnet50_train_ops(batch: Optional[int]) -> List[Op]:
    return training_ops(resnet50_ops(batch=batch))


@dataclasses.dataclass(frozen=True)
class SuiteSpec:
    """Registry entry: how to build one named suite.

    ``default_batch`` is the single source of the suite's batch fallback —
    :meth:`build` resolves it before calling the factory.  ``None`` means
    the factory keeps its catalog's per-layer defaults (Table I batches
    differ per model).

    ``factory`` maps the resolved batch to the suite's op sequence, which
    :meth:`build` lowers through the op IR.
    """

    name: str
    description: str
    default_batch: Optional[int]
    factory: Callable[[Optional[int]], Sequence[Op]]

    def _resolve_batch(self, batch: Optional[int]) -> Optional[int]:
        if batch is not None:
            check_positive("batch", batch)
            return batch
        return self.default_batch

    def ops(self, batch: Optional[int] = None) -> List[Op]:
        """The suite's op sequence at ``batch``."""
        return list(self.factory(self._resolve_batch(batch)))

    def build(
        self,
        batch: Optional[int] = None,
        scale: int = 1,
        lowering: LoweringConfig = DEFAULT_LOWERING,
    ) -> WorkloadSuite:
        """Lower the suite at ``batch``, then apply the scale knobs.

        ``lowering`` scales *roles* (batch/spatial dims, at lowering
        time); ``scale`` then shrinks every dimension generically — the
        two compose, and both default to identity.
        """
        suite = WorkloadSuite.from_ops(self.name, self.ops(batch), lowering)
        return suite.scaled(scale)

    def op_composition(self, batch: Optional[int] = None) -> Dict[str, int]:
        """``{op kind: count}`` of the suite, in first-occurrence order."""
        return op_kind_counts(self.ops(batch))


#: Every registered model workload suite, by name.
SUITES: Dict[str, SuiteSpec] = {
    spec.name: spec
    for spec in (
        SuiteSpec(
            "table1",
            "the paper's nine Table I layers (three per MLPerf model)",
            None,
            _table1_ops,
        ),
        SuiteSpec(
            "resnet50",
            "every ResNet-50 convolution, im2col-lowered (ImageNet geometry)",
            32,
            lambda batch: resnet50_ops(batch=batch),
        ),
        SuiteSpec(
            "bert-base",
            "full 12-layer BERT-base encoder projections + FFNs "
            "(batch = token rows)",
            256,
            lambda batch: bert_encoder_ops(tokens=batch),
        ),
        SuiteSpec(
            "bert-full",
            "BERT-base with head-batched attention score/context matmuls "
            "on top of the projections + FFNs",
            256,
            lambda batch: bert_full_ops(tokens=batch),
        ),
        SuiteSpec(
            "dlrm",
            "DLRM bottom + top MLP stacks (RM2-class widths)",
            512,
            lambda batch: dlrm_ops(batch=batch),
        ),
        SuiteSpec(
            "training",
            "fwd/dgrad/wgrad GEMMs of the six Table I FC layers",
            None,
            _training_ops,
        ),
        SuiteSpec(
            "resnet50-train",
            "fwd/dgrad/wgrad GEMMs of every ResNet-50 convolution "
            "(transposed-filter im2col backward lowerings)",
            32,
            _resnet50_train_ops,
        ),
    )
}


def suite_names() -> List[str]:
    """Registered suite names, registry order."""
    return list(SUITES)


def get_suite(
    name: str,
    batch: Optional[int] = None,
    scale: int = 1,
    lowering: LoweringConfig = DEFAULT_LOWERING,
) -> WorkloadSuite:
    """Build the named suite, optionally rebatched and scaled.

    ``batch`` overrides the streamed-rows dimension (FC/MLP batch, BERT
    token rows, conv batch); ``None`` keeps each catalog's defaults.
    ``lowering`` carries the dimension-role-aware ``scale_batch`` /
    ``scale_spatial`` knobs; ``scale`` shrinks every dimension
    generically on top.
    """
    try:
        spec = SUITES[name]
    except KeyError:
        raise WorkloadError(
            f"unknown workload suite {name!r}; known: {', '.join(SUITES)}"
        ) from None
    return spec.build(batch=batch, scale=scale, lowering=lowering)
