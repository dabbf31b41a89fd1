"""GEMM lowering straight to the decoded structure-of-arrays.

:func:`lower_gemm_arrays` builds the :class:`repro.cpu.decode.DecodedProgram`
of the stream :func:`repro.workloads.codegen.build_gemm_kernel` emits —
array-equal to :func:`repro.cpu.decode.decode_program` walking the emitted
``Instruction`` objects — with numpy, and without building one object.

The stream is a row-major sequence of register blocks
(:class:`repro.workloads.tiling.TileLoopNest`) of at most four geometries:
interior, right edge, bottom edge and corner.  Every block of a geometry
emits the same instructions up to per-block offsets, so each geometry gets
one block-relative template per instruction class, tiled over its blocks:

- positions and writer indices add the block's start in the stream; every
  tile operand is produced inside its own block (the C loads, the K step's
  A/B loads, the previous K step's mm);
- tile addresses are affine in the block's tile origin ``(m0, n0)``;
- a B register's version adds the loads of it in earlier blocks, a cumsum
  over blocks;
- the loop counter ``r0`` is the one operand that crosses blocks: its
  writer is a prefix-max over the scalar stream.

This module sits on the deterministic path: no wall clock, no randomness
(enforced by ``tools/lint_invariants.py``).
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, List, Tuple

import numpy as np

from repro.cpu.decode import KIND_ALU, KIND_LOAD, KIND_MM, KIND_STORE, DecodedProgram
from repro.isa.builder import LOOP_OVERHEAD_PATTERN
from repro.isa.opcodes import Opcode
from repro.tile.hostmem import HostMatrix
from repro.tile.layout import ROWS
from repro.workloads.gemm import GemmShape
from repro.workloads.tiling import Block

if TYPE_CHECKING:
    from repro.workloads.codegen import CodegenOptions

#: Byte distance between horizontally adjacent tiles (one 64 B tile row).
TILE_COL_BYTES = 64

#: Per :data:`LOOP_OVERHEAD_PATTERN` slot: whether it reads / writes ``r0``.
_READS_COUNTER = np.array([op is not Opcode.BRANCH for op in LOOP_OVERHEAD_PATTERN])
_WRITES_COUNTER = np.array([op is Opcode.ADD for op in LOOP_OVERHEAD_PATTERN])


@dataclasses.dataclass(frozen=True, eq=False)
class _Template:
    """One block geometry's arrays, relative to the block.

    ``*_rel`` fields and writers are offsets from the block's first
    instruction.  ``load_addr`` is the address at tile origin ``(0, 0)``;
    it moves by ``load_m_step`` per tile row of ``m0`` and ``load_n_step``
    per tile column of ``n0``.  ``mm_b_step`` counts the B register's loads
    within the block up to the mm (its K step + 1); ``alu_slot`` indexes
    :data:`LOOP_OVERHEAD_PATTERN`.
    """

    kind: np.ndarray
    load_rel: np.ndarray
    load_addr: np.ndarray
    load_m_step: np.ndarray
    load_n_step: np.ndarray
    load_stride: np.ndarray
    store_rel: np.ndarray
    store_writer: np.ndarray
    mm_rel: np.ndarray
    mm_a_writer: np.ndarray
    mm_b_writer: np.ndarray
    mm_c_writer: np.ndarray
    mm_b_col: np.ndarray
    mm_b_step: np.ndarray
    alu_rel: np.ndarray
    alu_slot: np.ndarray

    def counts(self) -> Tuple[int, int, int, int, int]:
        """Instructions, loads, stores, mms and scalar ops per block."""
        return (len(self.kind), len(self.load_rel), len(self.store_rel),
                len(self.mm_rel), len(self.alu_rel))


def _template(
    h: int,
    w: int,
    k_tiles: int,
    options: "CodegenOptions",
    a_host: HostMatrix,
    b_host: HostMatrix,
    c_host: HostMatrix,
) -> _Template:
    """The arrays of one ``h x w`` block, in ``codegen._emit_block`` order.

    A block is: C loads (row-major), then per K step the A loads (rows),
    B loads (columns), mms (in ``mm_order``) and the K-step scalars, then
    the C stores (row-major) and the block scalars.
    """
    hw = h * w
    kstep_alus = options.scalar_overhead_per_kstep
    block_alus = options.scalar_overhead_per_block
    step_len = h + w + hw + kstep_alus
    body_end = hw + k_tiles * step_len
    steps = np.arange(k_tiles, dtype=np.int64)[:, None]
    step_start = hw + steps * step_len  # (K, 1)
    slots = np.arange(hw, dtype=np.int64)
    c_i, c_j = np.divmod(slots, w)  # C tiles, row-major
    pairs = Block(0, 0, h, w).mm_pairs(options.blocking.mm_order)
    mm_i, mm_j = np.array(pairs, dtype=np.int64).T

    def per_step(a_value: int, b_value: int) -> np.ndarray:
        """A value per K-step load: ``a_value`` for A rows, ``b_value`` for B."""
        return np.tile(np.repeat([a_value, b_value], [h, w]), k_tiles)

    step_kind = np.repeat([KIND_LOAD, KIND_MM, KIND_ALU], [h + w, hw, kstep_alus])
    kind = np.concatenate([
        np.full(hw, KIND_LOAD),
        np.tile(step_kind, k_tiles),
        np.full(hw, KIND_STORE),
        np.full(block_alus, KIND_ALU),
    ]).astype(np.int8)

    a_row = ROWS * a_host.stride  # bytes per tile row
    b_row = ROWS * b_host.stride
    c_row = ROWS * c_host.stride
    # A tile (m0 + i, k) and B tile (k, n0 + j), at the origin of K step 0.
    ab_addr = np.concatenate([
        a_host.base + np.arange(h) * a_row,
        b_host.base + np.arange(w) * TILE_COL_BYTES,
    ])
    ab_addr = ab_addr + steps * np.repeat([TILE_COL_BYTES, b_row], [h, w])

    mm_rel = step_start + h + w + np.arange(hw)  # (K, hw)
    mm_c_writer = mm_rel - step_len  # the previous K step's mm ...
    mm_c_writer[0] = mm_i * w + mm_j  # ... or, in K step 0, the C load
    last_mm_of_slot = mm_rel[-1][np.argsort(mm_i * w + mm_j)]

    return _Template(
        kind=kind,
        load_rel=np.concatenate([slots, (step_start + np.arange(h + w)).ravel()]),
        load_addr=np.concatenate([
            c_host.base + c_i * c_row + c_j * TILE_COL_BYTES, ab_addr.ravel(),
        ]),
        load_m_step=np.concatenate([np.full(hw, c_row), per_step(a_row, 0)]),
        load_n_step=np.concatenate([
            np.full(hw, TILE_COL_BYTES), per_step(0, TILE_COL_BYTES),
        ]),
        load_stride=np.concatenate([
            np.full(hw, c_host.stride), per_step(a_host.stride, b_host.stride),
        ]),
        store_rel=body_end + slots,
        store_writer=last_mm_of_slot,
        mm_rel=mm_rel.ravel(),
        mm_a_writer=(step_start + mm_i).ravel(),
        mm_b_writer=(step_start + h + mm_j).ravel(),
        mm_c_writer=mm_c_writer.ravel(),
        mm_b_col=np.tile(mm_j, k_tiles),
        mm_b_step=np.repeat(np.arange(1, k_tiles + 1), hw),
        alu_rel=np.concatenate([
            (step_start + h + w + hw + np.arange(kstep_alus)).ravel(),
            body_end + hw + np.arange(block_alus),
        ]),
        alu_slot=np.concatenate([
            np.tile(np.arange(kstep_alus), k_tiles), np.arange(block_alus),
        ]) % len(LOOP_OVERHEAD_PATTERN),
    )


def _place(out: np.ndarray, starts: np.ndarray, values: np.ndarray) -> None:
    """Write row ``b`` of ``values`` (or the one row) at ``out[starts[b]:]``."""
    out[starts[:, None] + np.arange(values.shape[-1])] = values


def lower_gemm_arrays(
    padded: GemmShape,
    options: "CodegenOptions",
    a_host: HostMatrix,
    b_host: HostMatrix,
    c_host: HostMatrix,
) -> DecodedProgram:
    """The decode of ``padded``'s kernel stream, built block-wise (module doc)."""
    blocking = options.blocking
    bm, bn = blocking.bm, blocking.bn
    k_tiles = padded.k_tiles
    # The register blocks in TileLoopNest.blocks() order: M outer, N inner.
    row_m0 = np.arange(0, padded.m_tiles, bm, dtype=np.int64)
    col_n0 = np.arange(0, padded.n_tiles, bn, dtype=np.int64)
    m0 = np.repeat(row_m0, len(col_n0))
    n0 = np.tile(col_n0, len(row_m0))
    heights = np.minimum(bm, padded.m_tiles - m0)
    widths = np.minimum(bn, padded.n_tiles - n0)

    geometries: List[Tuple[_Template, np.ndarray]] = []  # (template, its blocks)
    counts = np.empty((len(m0), 5), dtype=np.int64)
    for h in np.unique(heights).tolist():
        for w in np.unique(widths).tolist():
            template = _template(h, w, k_tiles, options, a_host, b_host, c_host)
            blocks = np.flatnonzero((heights == h) & (widths == w))
            counts[blocks] = template.counts()
            geometries.append((template, blocks))
    starts = np.cumsum(counts, axis=0) - counts  # per block: first index per class
    n, n_loads, n_stores, n_mms, n_alus = counts.sum(axis=0).tolist()
    # Loads of B register j before each block: K steps of every earlier
    # block at least j + 1 columns wide.
    b_loads = k_tiles * (widths[:, None] > np.arange(bn))
    b_loads_before = np.cumsum(b_loads, axis=0) - b_loads

    def empty(size: int) -> np.ndarray:
        return np.empty(size, dtype=np.int64)

    kind = np.empty(n, dtype=np.int8)
    load_pos, load_addr, load_stride = empty(n_loads), empty(n_loads), empty(n_loads)
    store_pos, store_writer = empty(n_stores), empty(n_stores)
    mm_pos, mm_a_writer, mm_b_writer, mm_c_writer = (empty(n_mms) for _ in range(4))
    mm_b_reg, mm_b_version = empty(n_mms), empty(n_mms)
    alu_pos, alu_slot = empty(n_alus), empty(n_alus)
    b_reg0 = blocking.b_reg(0).index
    for t, blocks in geometries:
        first, loads, stores, mms, alus = starts[blocks].T
        start = first[:, None]
        _place(kind, first, t.kind)
        _place(load_pos, loads, start + t.load_rel)
        _place(load_addr, loads, t.load_addr + m0[blocks, None] * t.load_m_step
               + n0[blocks, None] * t.load_n_step)
        _place(load_stride, loads, t.load_stride)
        _place(store_pos, stores, start + t.store_rel)
        _place(store_writer, stores, start + t.store_writer)
        _place(mm_pos, mms, start + t.mm_rel)
        _place(mm_a_writer, mms, start + t.mm_a_writer)
        _place(mm_b_writer, mms, start + t.mm_b_writer)
        _place(mm_c_writer, mms, start + t.mm_c_writer)
        _place(mm_b_reg, mms, b_reg0 + t.mm_b_col)
        _place(mm_b_version, mms, t.mm_b_step + b_loads_before[blocks][:, t.mm_b_col])
        _place(alu_pos, alus, start + t.alu_rel)
        _place(alu_slot, alus, t.alu_slot)

    # r0's writer: the last counter-writing scalar op before each one.
    last_write = np.maximum.accumulate(np.where(_WRITES_COUNTER[alu_slot], alu_pos, -1))
    counter_writer = np.full(n_alus, -1, dtype=np.int64)
    counter_writer[1:] = last_write[:-1]
    reads_counter = _READS_COUNTER[alu_slot].tolist()
    alu_reads = tuple(
        (writer,) if reads else ()
        for writer, reads in zip(counter_writer.tolist(), reads_counter)
    )
    return DecodedProgram(
        n=n,
        kind=kind,
        load_pos=load_pos,
        load_addr=load_addr,
        load_stride=load_stride,
        store_pos=store_pos,
        store_writer=store_writer,
        mm_pos=mm_pos,
        mm_a_writer=mm_a_writer,
        mm_b_writer=mm_b_writer,
        mm_c_writer=mm_c_writer,
        mm_b_reg=mm_b_reg,
        mm_b_version=mm_b_version,
        alu_pos=alu_pos,
        alu_reads=alu_reads,
    )
