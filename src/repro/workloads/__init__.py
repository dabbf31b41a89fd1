"""Workloads: DL layers as ops -> GEMMs -> RASA instruction streams.

The paper evaluates nine MLPerf layers (Table I): three ResNet50
convolutions, three DLRM FC layers, three BERT FC layers.  This package

- declares every layer as an op that knows its own GEMM lowering —
  matmuls, head-batched matmuls, conv and FC layers per training pass
  (:mod:`repro.workloads.ops`); the registered lowerings are the one place
  a layer becomes a GEMM, and there are no separate layer types,
- catalogs Table I (:mod:`repro.workloads.layers`), whole networks
  (:mod:`repro.workloads.models`) and their training passes
  (:mod:`repro.workloads.training`) as op sequences,
- lowers convolutions to GEMM via im2col, forward and backward
  (:mod:`repro.workloads.lowering`, adjoint oracles in
  :mod:`repro.workloads.reference`),
- tiles GEMMs onto the 16x16x32 rasa_mm granularity with Algorithm-1-style
  register blocking (:mod:`repro.workloads.tiling`),
- generates the LIBXSMM-like instruction streams the simulators replay
  (:mod:`repro.workloads.codegen`), substituting for the paper's Intel-SDE
  trace collection, and
- packages whole-model GEMM multisets as sweepable
  :class:`~repro.workloads.suites.WorkloadSuite`\\ s
  (:mod:`repro.workloads.suites`): ``table1``, ``resnet50``, ``bert-base``,
  ``bert-full``, ``dlrm``, ``training`` and ``resnet50-train``.

The numpy-backed im2col lowering and reference oracles load on first use
(:mod:`repro.utils.lazy`); everything a sweep runs loads with the package.
"""

from typing import TYPE_CHECKING

from repro.workloads.gemm import GemmShape
from repro.workloads.ops import (
    BatchedMatmulOp,
    ConvOp,
    FCOp,
    LoweringConfig,
    MatmulOp,
    Op,
    lower,
    lower_ops,
    op_kind_counts,
)
from repro.workloads.layers import TABLE1_LAYERS, table1_gemms
from repro.workloads.tiling import BlockingConfig, TileLoopNest
from repro.workloads.codegen import (
    CodegenOptions,
    GemmKernel,
    build_gemm_kernel,
    generate_gemm_program,
)
from repro.workloads.training import training_ops
from repro.workloads.models import resnet50_ops
from repro.workloads.suites import (
    DistinctGemm,
    SUITES,
    SuiteSpec,
    WorkloadSuite,
    get_suite,
    suite_names,
)
from repro.utils.lazy import DeferredExports

if TYPE_CHECKING:
    from repro.workloads.lowering import im2col, conv_reference
    from repro.workloads.reference import gemm_reference

__getattr__ = DeferredExports(__name__, {
    "repro.workloads.lowering": ("im2col", "conv_reference"),
    "repro.workloads.reference": ("gemm_reference",),
})

__all__ = [
    "GemmShape",
    "Op",
    "MatmulOp",
    "BatchedMatmulOp",
    "ConvOp",
    "FCOp",
    "LoweringConfig",
    "lower",
    "lower_ops",
    "op_kind_counts",
    "TABLE1_LAYERS",
    "table1_gemms",
    "im2col",
    "conv_reference",
    "BlockingConfig",
    "TileLoopNest",
    "CodegenOptions",
    "GemmKernel",
    "build_gemm_kernel",
    "generate_gemm_program",
    "gemm_reference",
    "training_ops",
    "resnet50_ops",
    "DistinctGemm",
    "SUITES",
    "SuiteSpec",
    "WorkloadSuite",
    "get_suite",
    "suite_names",
]
