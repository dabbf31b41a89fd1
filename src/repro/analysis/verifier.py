"""Static ISA verifier and hazard analyzer: prove streams well-formed without simulating.

Everything the repository reports — Table I cycles, the Fig. 7 batch
curves, the PPA frontier — is computed from :class:`repro.isa.program.Program`
streams that codegen emits; a register clobber or mis-strided
:class:`~repro.isa.instructions.MemOperand` would silently corrupt results
across every fidelity at once.  This module is the check: one abstract
interpretation / dataflow pass over the stream, no simulator involved.

Three products per program:

1. **Well-formedness diagnostics** (:class:`Diagnostic`).  Under the
   documented dependency convention (``rasa_tl`` writes its tile register,
   ``rasa_ts`` reads its source, ``rasa_mm`` reads C/A/B and writes C):

   - *def-before-use* for tile and scalar registers.  Tile registers are
     always kernel-owned — the first access must be a write.  Scalar
     registers default to live-in at program entry (the surrounding code
     materializes loop counters and pointers before the kernel runs, and
     the builder's ``loop_overhead`` pattern reads ``r0`` on its first
     instruction); pass ``scalar_live_in=frozenset()`` to demand strict
     scalar def-before-use on self-contained programs.
   - *memory legality* against the kernel's operand regions: every
     ``rasa_tl``/``rasa_ts`` must address one whole 16-row x 64 B tile that
     lies inside exactly one operand matrix, 16-row/64-byte aligned on the
     matrix's own grid, with the operand's stride equal to the matrix row
     stride (VNNI-packed B included: its host matrix is (K/2) x 2N BF16, so
     a legal B tile is exactly one register payload).  Stores may only
     target writable (output) regions — a store landing in A or B is the
     *store/load aliasing* failure mode.
   - a region-free stride floor: ``stride < 64`` makes consecutive tile
     rows overlap in memory and is rejected even without region info.

2. **Static counters** (:class:`StaticCounters`).  ``instructions`` /
   ``mm_count`` and the policy-dependent ``weight_loads`` / ``bypass_count``
   derived purely from the stream by replaying the engine's weight-residency
   rule (:meth:`repro.engine.scheduler.EngineScheduler.schedule_mm`): a
   ``rasa_mm`` reuses resident weights iff its B register *contents* — the
   (register, version) pair the fast model keys on — match the previous
   mm's.  :func:`repro.analysis.bounds.cross_check_bounds` asserts these
   equal the fast model's counts on every design.  Two lints ride on the
   same walk: *dead tile stores* (overwritten before any read) and
   *redundant weight reloads* (reloading bytes a register already holds —
   the anti-pattern RASA's register reuse exists to eliminate).

3. **Hazard report** (:class:`HazardReport`).  Per-program RAW/WAR/WAW
   edge counts over tile registers, the longest RAW dependence chain (the
   K-dimension accumulation feedback the analytic tier models), and a
   tile-register pressure histogram from backward liveness — the inputs
   the future issue-pipeline ``ooo`` tier needs to size rename/ROB/RS
   structures.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple, cast

from repro.isa.instructions import (
    NUM_SCALAR_REGS,
    NUM_TILE_REGS,
    Instruction,
    MemOperand,
    TileReg,
)
from repro.isa.opcodes import Opcode
from repro.isa.program import Program
from repro.tile.hostmem import HostMatrix
from repro.tile.layout import ROW_BYTES, ROWS
from repro.workloads.codegen import CodegenOptions, GemmKernel, build_gemm_kernel
from repro.workloads.gemm import GemmShape

#: Default: every scalar register is live-in (loop counters / pointers are
#: materialized by the code surrounding the kernel; see the module docstring).
ALL_SCALARS_LIVE_IN: FrozenSet[int] = frozenset(range(NUM_SCALAR_REGS))


@dataclasses.dataclass(frozen=True)
class Diagnostic:
    """One structured verifier finding, anchored to a program point.

    Attributes:
        code: machine-readable kind (``use-before-def``, ``oob-access``,
            ``bad-stride``, ``misaligned-tile``, ``store-aliases-input``,
            ``dead-store``, ``redundant-load``).
        pc: index of the offending instruction in the program.
        opcode: its mnemonic.
        registers: the register names involved (may be empty for pure
            memory-legality findings).
        reason: human-readable explanation.
        severity: ``"error"`` for violations, ``"warning"`` for lints.
    """

    code: str
    pc: int
    opcode: str
    registers: Tuple[str, ...]
    reason: str
    severity: str = "error"

    def __str__(self) -> str:
        regs = f" [{', '.join(self.registers)}]" if self.registers else ""
        return f"pc {self.pc}: {self.opcode}{regs}: {self.code}: {self.reason}"


@dataclasses.dataclass(frozen=True)
class PolicyCounters:
    """The four :class:`~repro.cpu.result.SimResult` counters for one policy."""

    instructions: int
    mm_count: int
    weight_loads: int
    bypass_count: int


@dataclasses.dataclass(frozen=True)
class StaticCounters:
    """Instruction counts derived purely from the stream.

    ``weight_reuses`` counts the ``rasa_mm`` instructions whose B-register
    contents are already resident under the engine's residency rule; it
    becomes ``bypass_count`` on designs whose control policy bypasses on
    reuse and 0 on the others (:meth:`for_policy`).
    """

    instructions: int
    mm_count: int
    tile_loads: int
    tile_stores: int
    scalars: int
    weight_reuses: int

    def for_policy(self, bypasses_on_reuse: bool) -> PolicyCounters:
        """Project onto one design's control policy."""
        bypasses = self.weight_reuses if bypasses_on_reuse else 0
        return PolicyCounters(
            instructions=self.instructions,
            mm_count=self.mm_count,
            weight_loads=self.mm_count - bypasses,
            bypass_count=bypasses,
        )


@dataclasses.dataclass(frozen=True)
class HazardReport:
    """Tile-register hazard structure of one program.

    Attributes:
        raw, war, waw: dependence edge counts (one RAW edge per read with a
            prior writer, one WAW/WAR edge per write with a prior
            writer/reader; an instruction's own same-pc read — the mm C
            accumulate — never WARs against its write).
        longest_raw_chain: depth of the longest RAW dependence chain, in
            instructions — the serial spine an OoO core cannot hide.
        max_live: peak number of simultaneously live tile registers.
        pressure: histogram over program points; ``pressure[r]`` counts the
            instructions at which exactly ``r`` tile registers are live-in.
    """

    raw: int
    war: int
    waw: int
    longest_raw_chain: int
    max_live: int
    pressure: Tuple[int, ...]


@dataclasses.dataclass(frozen=True)
class Region:
    """One operand matrix a program may address, with write permission."""

    matrix: HostMatrix
    writable: bool = False


@dataclasses.dataclass(frozen=True)
class VerifierReport:
    """Everything the verifier derives from one program."""

    name: str
    diagnostics: Tuple[Diagnostic, ...]
    counters: StaticCounters
    hazards: HazardReport

    @property
    def ok(self) -> bool:
        return not self.diagnostics

    @property
    def errors(self) -> Tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.severity == "error")

    @property
    def warnings(self) -> Tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.severity == "warning")


# -- well-formedness -----------------------------------------------------------------


def _regs(*names: object) -> Tuple[str, ...]:
    return tuple(str(n) for n in names)


def _check_tile_access(
    diags: List[Diagnostic],
    pc: int,
    inst: Instruction,
    mem: MemOperand,
    regions: Optional[Sequence[Region]],
    is_store: bool,
) -> None:
    """Memory legality of one tile load/store."""
    op = inst.opcode.value
    registers = _regs(*(inst.tile_writes + inst.tile_reads))
    if mem.stride < ROW_BYTES:
        diags.append(Diagnostic(
            "bad-stride", pc, op, registers,
            f"stride {mem.stride} < {ROW_BYTES} makes consecutive tile rows "
            "overlap in memory",
        ))
        return
    if regions is None:
        return
    region = next(
        (r for r in regions
         if r.matrix.base <= mem.address < r.matrix.end),
        None,
    )
    if region is None:
        known = ", ".join(
            f"{r.matrix.name or '?'}=[0x{r.matrix.base:x},0x{r.matrix.end:x})"
            for r in regions
        )
        diags.append(Diagnostic(
            "oob-access", pc, op, registers,
            f"address 0x{mem.address:x} is outside every operand region ({known})",
        ))
        return
    matrix = region.matrix
    if is_store and not region.writable:
        diags.append(Diagnostic(
            "store-aliases-input", pc, op, registers,
            f"store into read-only operand {matrix.name!r} "
            f"(base 0x{matrix.base:x}) would corrupt an input matrix",
        ))
        # Fall through: alignment/bounds findings still apply.
    if mem.stride != matrix.stride:
        diags.append(Diagnostic(
            "bad-stride", pc, op, registers,
            f"stride {mem.stride} does not match operand {matrix.name!r} "
            f"row stride {matrix.stride}",
        ))
        return  # Row decomposition below assumes the matrix stride.
    offset = mem.address - matrix.base
    row, col_bytes = divmod(offset, matrix.stride)
    if row % ROWS or col_bytes % ROW_BYTES:
        diags.append(Diagnostic(
            "misaligned-tile", pc, op, registers,
            f"address 0x{mem.address:x} is row {row}, byte column {col_bytes} "
            f"of operand {matrix.name!r}; tiles start on "
            f"{ROWS}-row / {ROW_BYTES}-byte boundaries",
        ))
        return
    if row + ROWS > matrix.rows or col_bytes + ROW_BYTES > matrix.stride:
        diags.append(Diagnostic(
            "oob-access", pc, op, registers,
            f"tile at 0x{mem.address:x} (row {row}, byte column {col_bytes}) "
            f"extends past operand {matrix.name!r} "
            f"({matrix.rows} rows x {matrix.stride} B)",
        ))


def _well_formedness(
    program: Program,
    regions: Optional[Sequence[Region]],
    scalar_live_in: FrozenSet[int],
) -> List[Diagnostic]:
    diags: List[Diagnostic] = []
    tile_defined = [False] * NUM_TILE_REGS
    scalar_defined = [i in scalar_live_in for i in range(NUM_SCALAR_REGS)]
    for pc, inst in enumerate(program):
        op = inst.opcode.value
        for reg in inst.tile_reads:
            if not tile_defined[reg.index]:
                diags.append(Diagnostic(
                    "use-before-def", pc, op, _regs(reg),
                    f"tile register {reg} is read before any write",
                ))
                tile_defined[reg.index] = True  # report each register once
        for reg in inst.scalar_reads:
            if not scalar_defined[reg.index]:
                diags.append(Diagnostic(
                    "use-before-def", pc, op, _regs(reg),
                    f"scalar register {reg} is read before any write and is "
                    "not declared live-in",
                ))
                scalar_defined[reg.index] = True
        if inst.mem is not None:
            _check_tile_access(
                diags, pc, inst, inst.mem, regions,
                is_store=inst.opcode is Opcode.RASA_TS,
            )
        for reg in inst.tile_writes:
            tile_defined[reg.index] = True
        for reg in inst.scalar_writes:
            scalar_defined[reg.index] = True
    return diags


# -- static counters -----------------------------------------------------------------


def static_counters(program: Program) -> StaticCounters:
    """Derive the count side of a :class:`~repro.cpu.result.SimResult` statically.

    Replays exactly the state the fast model hands the engine scheduler: a
    per-register version counter (bumped by every tile write) and a resident
    weight key ``(B register index, version)``.  A ``rasa_mm`` whose key
    equals the previous mm's resident key is a weight reuse — the scheduler
    bypasses it under WLBP/WLS and reloads under BASE/PIPE, which is what
    :meth:`StaticCounters.for_policy` projects.
    """
    version = [0] * NUM_TILE_REGS
    resident: Optional[Tuple[int, int]] = None
    reuses = loads = stores = mms = scalars = 0
    for inst in program:
        op = inst.opcode
        if op is Opcode.RASA_TL:
            loads += 1
            assert inst.dst is not None  # _validate invariant
            version[inst.dst.index] += 1
        elif op is Opcode.RASA_TS:
            stores += 1
        elif op is Opcode.RASA_MM:
            mms += 1
            c, _, b = inst.srcs  # (C, A, B), a plain field: _validate pins it
            key = (b.index, version[b.index])
            if resident == key:
                reuses += 1
            resident = key
            version[c.index] += 1
        else:
            scalars += 1
    return StaticCounters(
        instructions=len(program),
        mm_count=mms,
        tile_loads=loads,
        tile_stores=stores,
        scalars=scalars,
        weight_reuses=reuses,
    )


# -- lints ---------------------------------------------------------------------------


def _tiles_overlap(a: MemOperand, b: MemOperand) -> bool:
    """Whether two 16-row x 64 B strided tile regions share any byte.

    Same-stride regions (the overwhelmingly common case — all tiles of one
    operand matrix) resolve in O(1): rows of ``a`` sit at ``a.address + i*s``
    and rows of ``b`` at ``b.address + j*s``, so a row pair overlaps iff
    ``|d + t*s| < 64`` for ``t = i - j`` in [-15, 15] and ``d`` the base
    delta — only the two ``t`` nearest ``-d/s`` can qualify.  Mixed strides
    fall back to the exact 16 x 16 row-interval scan.
    """
    if a.stride == b.stride:
        s = a.stride
        d = a.address - b.address
        for t in (-(d // s) - 1, -(d // s), -(d // s) + 1):
            if -(ROWS - 1) <= t <= ROWS - 1 and abs(d + t * s) < ROW_BYTES:
                return True
        return False
    rows_b = [(b.address + j * b.stride) for j in range(ROWS)]
    for i in range(ROWS):
        start = a.address + i * a.stride
        for other in rows_b:
            if start < other + ROW_BYTES and other < start + ROW_BYTES:
                return True
    return False


def _lints(program: Program) -> List[Diagnostic]:
    """Dead tile stores and redundant weight reloads, as warnings.

    - *dead-store*: a ``rasa_ts`` whose exact (address, stride) region is
      stored again before any overlapping ``rasa_tl`` reads it back —
      the first store can never be observed.
    - *redundant-load*: a ``rasa_tl`` that reloads the very bytes the
      engine's *currently-resident weight register* already holds (same
      operand, register unwritten since, no overlapping store to the region
      in between) *and* the next ``rasa_mm`` reads that register as its
      weight operand.  Reloading identical weights bumps the register
      version, so that ``rasa_mm`` — which would have bypassed its WL
      stage — pays a full weight load instead: the anti-pattern RASA's
      register reuse exists to eliminate.  Content-identical reloads that
      do **not** kill a bypass (streaming A tiles revisited by a later
      register block, or a weight register whose residency an intervening
      ``rasa_mm`` on another register resets anyway) are deliberately not
      flagged: eliding those loads would not change the weight-load count.
    """
    diags: List[Diagnostic] = []
    # Candidate dead-store pairs: consecutive stores with an identical key.
    last_store: Dict[Tuple[int, int], int] = {}
    candidates: List[Tuple[int, int]] = []  # (earlier store pc, later store pc)
    loads: List[Tuple[int, MemOperand]] = []
    for pc, inst in enumerate(program):
        mem = inst.mem
        if inst.opcode is Opcode.RASA_TL and mem is not None:
            loads.append((pc, mem))
        elif inst.opcode is Opcode.RASA_TS and mem is not None:
            key = (mem.address, mem.stride)
            if key in last_store:
                candidates.append((last_store[key], pc))
            last_store[key] = pc
    for first, second in candidates:
        mem = cast(MemOperand, program[first].mem)
        if any(first < pc < second and _tiles_overlap(mem, load_mem)
               for pc, load_mem in loads):
            continue  # an intervening load observes the first store
        src = program[first].srcs[0]
        diags.append(Diagnostic(
            "dead-store", first, Opcode.RASA_TS.value, _regs(src),
            f"store to 0x{mem.address:x} is overwritten at pc {second} "
            "before any load reads it",
            severity="warning",
        ))
    # Redundant weight reloads: track what (address, stride) each register
    # holds, plus the engine's resident weight key (the same replay as
    # :func:`static_counters`).  A reload only costs a bypass when the
    # *next* mm reads the reloaded register as its weight operand, so
    # precompute that with one backward pass.
    next_mm_b: List[Optional[int]] = [None] * len(program)
    pending_b: Optional[int] = None
    for pc in range(len(program) - 1, -1, -1):
        next_mm_b[pc] = pending_b
        if program[pc].opcode is Opcode.RASA_MM:
            pending_b = program[pc].mm_b.index

    holds: List[Optional[Tuple[int, int]]] = [None] * NUM_TILE_REGS
    version = [0] * NUM_TILE_REGS
    resident: Optional[Tuple[int, int]] = None
    for pc, inst in enumerate(program):
        if inst.opcode is Opcode.RASA_TL:
            mem = cast(MemOperand, inst.mem)
            key = (mem.address, mem.stride)
            reg = cast(TileReg, inst.dst)
            if (
                holds[reg.index] == key
                and resident == (reg.index, version[reg.index])
                and next_mm_b[pc] == reg.index
            ):
                diags.append(Diagnostic(
                    "redundant-load", pc, Opcode.RASA_TL.value, _regs(reg),
                    f"{reg} already holds the resident weight tile at "
                    f"0x{mem.address:x}; the reload turns the next "
                    "mm's WL bypass into a weight load",
                    severity="warning",
                ))
            holds[reg.index] = key
            version[reg.index] += 1
        elif inst.opcode is Opcode.RASA_TS:
            # Memory changed: registers sourced from overlapping bytes are
            # no longer redundant to reload.
            store_mem = cast(MemOperand, inst.mem)
            for index, held in enumerate(holds):
                if held is not None and _tiles_overlap(
                    MemOperand(held[0], held[1]), store_mem
                ):
                    holds[index] = None
        elif inst.opcode is Opcode.RASA_MM:
            resident = (inst.mm_b.index, version[inst.mm_b.index])
            version[inst.mm_c.index] += 1
            holds[inst.mm_c.index] = None
    return diags


# -- hazards -------------------------------------------------------------------------


def hazard_report(program: Program) -> HazardReport:
    """RAW/WAR/WAW structure and register pressure over tile registers.

    Within one instruction the architectural order is read-then-write (the
    mm accumulate reads C before producing the new C), so a WAR edge is
    checked against readers from *earlier* instructions only — an mm never
    WARs against its own C read — while its read does guard later writers.
    """
    last_writer: List[Optional[int]] = [None] * NUM_TILE_REGS
    read_since_write = [False] * NUM_TILE_REGS
    raw = war = waw = 0
    depth = [0] * len(program)  # RAW chain depth ending at each instruction
    longest = 0
    for pc, inst in enumerate(program):
        chain = 0
        for reg in inst.tile_reads:
            writer = last_writer[reg.index]
            if writer is not None:
                raw += 1
                chain = max(chain, depth[writer])
        for reg in inst.tile_writes:  # against pre-instruction state
            if last_writer[reg.index] is not None:
                waw += 1
            if read_since_write[reg.index]:
                war += 1
        for reg in inst.tile_reads:
            read_since_write[reg.index] = True
        for reg in inst.tile_writes:
            last_writer[reg.index] = pc
            read_since_write[reg.index] = False
        if inst.tile_reads or inst.tile_writes:
            depth[pc] = chain + 1
            longest = max(longest, depth[pc])
    live: set = set()
    max_live = 0
    pressure = [0] * (NUM_TILE_REGS + 1)
    for pc in range(len(program) - 1, -1, -1):
        inst = program[pc]
        for reg in inst.tile_writes:
            live.discard(reg.index)
        for reg in inst.tile_reads:
            live.add(reg.index)
        pressure[len(live)] += 1
        max_live = max(max_live, len(live))
    return HazardReport(
        raw=raw,
        war=war,
        waw=waw,
        longest_raw_chain=longest,
        max_live=max_live,
        pressure=tuple(pressure),
    )


# -- entry points --------------------------------------------------------------------


def verify_program(
    program: Program,
    regions: Optional[Sequence[Region]] = None,
    scalar_live_in: FrozenSet[int] = ALL_SCALARS_LIVE_IN,
) -> VerifierReport:
    """Run the full pass over one program.

    Args:
        program: the instruction stream.
        regions: the operand matrices the program may address (memory
            legality is skipped when ``None`` — only the stride floor
            applies).
        scalar_live_in: scalar register indices defined at entry; defaults
            to all of them (see the module docstring).
    """
    diagnostics = _well_formedness(program, regions, scalar_live_in)
    diagnostics.extend(_lints(program))
    diagnostics.sort(key=lambda d: (d.pc, d.code))
    return VerifierReport(
        name=program.name,
        diagnostics=tuple(diagnostics),
        counters=static_counters(program),
        hazards=hazard_report(program),
    )


def kernel_regions(kernel: GemmKernel) -> Tuple[Region, ...]:
    """The three operand regions of a generated kernel: A/B read-only, C writable."""
    return (
        Region(kernel.a_host, writable=False),
        Region(kernel.b_host, writable=False),
        Region(kernel.c_host, writable=True),
    )


def verify_kernel(kernel: GemmKernel) -> VerifierReport:
    """Verify a generated kernel's program against its own operand layout."""
    return verify_program(kernel.program, regions=kernel_regions(kernel))


def lint_shape(
    shape: GemmShape,
    codegen: CodegenOptions = CodegenOptions(),
) -> VerifierReport:
    """Generate and verify the kernel for ``shape`` — the one-call lint."""
    return verify_kernel(build_gemm_kernel(shape, codegen))

