"""RASA: Register-Aware Systolic Array Matrix Engine for CPU — reproduction.

A from-scratch Python implementation of the full system described in
G. Jeong et al., *"RASA: Efficient Register-Aware Systolic Array Matrix
Engine for CPU"* (DAC 2021): the AMX-like tile ISA, the weight-stationary
systolic array (functional and cycle-accurate), the RASA sub-stage
pipelining engine with its control (PIPE/WLBP/WLS) and data (DB/DM/DMDB)
optimizations, a Skylake-like trace-driven out-of-order CPU model, the
LIBXSMM-style GEMM/convolution code generator, and Nangate-15nm-calibrated
area/energy models — plus experiment drivers regenerating every table and
figure in the paper's evaluation.  All simulation flows through
:mod:`repro.runtime`: a pluggable :class:`SimBackend` registry, an on-disk
result cache, and declarative, serializable, shardable :class:`SweepPlan`\\ s
executed by a multiprocessing :class:`Session`.

Quickstart::

    from repro import GemmShape, get_design, FastCoreModel, generate_gemm_program

    shape = GemmShape(m=256, n=256, k=256, name="demo")
    program = generate_gemm_program(shape)
    baseline = FastCoreModel(engine=get_design("baseline").config).run(program)
    rasa = FastCoreModel(engine=get_design("rasa-dmdb-wls").config).run(program)
    print(rasa.cycles / baseline.cycles)   # ~0.17-0.2: the paper's headline

``import repro`` loads only what a sweep runs, and no numpy: the
numpy-backed functional layer, the cycle-accurate OoO core and the
assembler load on first use (:mod:`repro.utils.lazy`).
"""

from typing import TYPE_CHECKING

from repro.cpu import CoreConfig, FastCoreModel, SimResult
from repro.engine import (
    BASELINE_DESIGN,
    ControlPolicy,
    DESIGNS,
    DesignPoint,
    EngineConfig,
    get_design,
)
from repro.isa import Program, ProgramBuilder
from repro.runtime import (
    ResultCache,
    Session,
    SimBackend,
    SweepJob,
    SweepPlan,
    SweepReport,
    resolve_backend,
)
from repro.workloads import (
    CodegenOptions,
    ConvOp,
    FCOp,
    GemmShape,
    TABLE1_LAYERS,
    generate_gemm_program,
)
from repro.workloads.codegen import build_gemm_kernel
from repro.utils.lazy import DeferredExports

if TYPE_CHECKING:
    from repro.cpu.ooo.core import OutOfOrderCore
    from repro.engine.engine import MatrixEngine
    from repro.isa.assembler import assemble, disassemble
    from repro.systolic.array import SystolicArray
    from repro.tile.memory import TileMemory
    from repro.tile.regfile import TileRegisterFile
    from repro.workloads.reference import gemm_reference

__getattr__ = DeferredExports(__name__, {
    "repro.cpu.ooo.core": ("OutOfOrderCore",),
    "repro.engine.engine": ("MatrixEngine",),
    "repro.isa.assembler": ("assemble", "disassemble"),
    "repro.systolic.array": ("SystolicArray",),
    "repro.tile.memory": ("TileMemory",),
    "repro.tile.regfile": ("TileRegisterFile",),
    "repro.workloads.reference": ("gemm_reference",),
})

__version__ = "1.0.0"

__all__ = [
    "CoreConfig",
    "FastCoreModel",
    "OutOfOrderCore",
    "SimResult",
    "ControlPolicy",
    "EngineConfig",
    "MatrixEngine",
    "DesignPoint",
    "DESIGNS",
    "BASELINE_DESIGN",
    "get_design",
    "Program",
    "ProgramBuilder",
    "SimBackend",
    "resolve_backend",
    "ResultCache",
    "SweepJob",
    "SweepPlan",
    "SweepReport",
    "Session",
    "assemble",
    "disassemble",
    "SystolicArray",
    "TileMemory",
    "TileRegisterFile",
    "GemmShape",
    "ConvOp",
    "FCOp",
    "TABLE1_LAYERS",
    "CodegenOptions",
    "generate_gemm_program",
    "build_gemm_kernel",
    "gemm_reference",
    "__version__",
]
