"""Program container: an ordered instruction stream plus summary statistics.

A program is either built from its instructions, or *deferred*: it knows
its length and name up front and builds its :class:`Instruction` objects
on first iteration or indexing.  The code generator hands out deferred
programs that carry their run-length skeleton (:mod:`repro.cpu.decode`),
so consumers that only read the skeleton (the ``fast`` model) never build
the objects.

This module sits on the deterministic path: no wall clock, no randomness
(enforced by ``tools/lint_invariants.py``).
"""

from __future__ import annotations

import dataclasses
import gc
from typing import Callable, Iterable, Iterator, List, Optional, Union, overload

from repro.errors import IsaError
from repro.isa.instructions import Instruction
from repro.isa.opcodes import Opcode


@dataclasses.dataclass(frozen=True)
class ProgramStats:
    """Instruction-mix statistics of a program."""

    total: int
    tile_loads: int
    tile_stores: int
    matmuls: int
    scalars: int

    @property
    def tile_fraction(self) -> float:
        """Fraction of instructions that are tile instructions."""
        if not self.total:
            return 0.0
        return (self.tile_loads + self.tile_stores + self.matmuls) / self.total


class Program:
    """An ordered sequence of :class:`Instruction` — one dynamic trace.

    Programs are what the code generator emits and what both CPU models
    consume.  They behave like immutable sequences; use
    :class:`repro.isa.builder.ProgramBuilder` to construct them, or
    :meth:`deferred` to build the instructions only when first needed.
    """

    def __init__(self, instructions: Iterable[Instruction], name: str = "program") -> None:
        self._built: Optional[List[Instruction]] = list(instructions)
        self._emit: Optional[Callable[[], Iterable[Instruction]]] = None
        self._length = len(self._built)
        self.name = name
        #: A decode its producer already holds (a
        #: :class:`repro.cpu.decode.Skeleton`), or ``None``.
        self.decoded: Optional[object] = None

    @classmethod
    def deferred(
        cls,
        length: int,
        emit: Callable[[], Iterable[Instruction]],
        name: str,
        decoded: Optional[object] = None,
    ) -> "Program":
        """A program of ``length`` instructions that ``emit`` builds on first use.

        ``len``, ``name`` and ``decoded`` never call ``emit``; iterating,
        indexing, slicing and the statistics call it once and keep the
        result.  ``emit`` must yield exactly ``length`` instructions.
        """
        program = cls((), name=name)
        program._built = None
        program._emit = emit
        program._length = length
        program.decoded = decoded
        return program

    @property
    def built(self) -> bool:
        """Whether the :class:`Instruction` objects exist yet."""
        return self._built is not None

    @property
    def _instructions(self) -> List[Instruction]:
        if self._built is None:
            assert self._emit is not None
            # Instructions form no reference cycles, so a cyclic collection
            # during emission frees nothing and rescans every object built
            # so far: pause the collector, then restore the state it was in.
            enabled = gc.isenabled()
            gc.disable()
            try:
                built = list(self._emit())
            finally:
                if enabled:
                    gc.enable()
            if len(built) != self._length:
                raise IsaError(
                    f"program {self.name!r} emitted {len(built)} instructions, "
                    f"declared {self._length}"
                )
            self._built, self._emit = built, None
        return self._built

    def __len__(self) -> int:
        return self._length

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self._instructions)

    @overload
    def __getitem__(self, index: int) -> Instruction: ...

    @overload
    def __getitem__(self, index: slice) -> "Program": ...

    def __getitem__(self, index: Union[int, slice]) -> Union[Instruction, "Program"]:
        if isinstance(index, slice):
            return Program(
                self._instructions[index],
                name=f"{self.name}[{index.start}:{index.stop}]",
            )
        return self._instructions[index]

    def __add__(self, other: "Program") -> "Program":
        return Program(
            list(self._instructions) + list(other._instructions),
            name=f"{self.name}+{other.name}",
        )

    @property
    def stats(self) -> ProgramStats:
        """Compute the instruction-mix statistics."""
        loads = stores = matmuls = scalars = 0
        for inst in self._instructions:
            if inst.opcode is Opcode.RASA_TL:
                loads += 1
            elif inst.opcode is Opcode.RASA_TS:
                stores += 1
            elif inst.opcode is Opcode.RASA_MM:
                matmuls += 1
            else:
                scalars += 1
        return ProgramStats(
            total=len(self._instructions),
            tile_loads=loads,
            tile_stores=stores,
            matmuls=matmuls,
            scalars=scalars,
        )

    def matmuls(self) -> List[Instruction]:
        """Return just the ``rasa_mm`` instructions, in program order."""
        return [i for i in self._instructions if i.opcode is Opcode.RASA_MM]

    def weight_reuse_fraction(self) -> float:
        """Fraction of ``rasa_mm`` whose B register repeats the previous mm's B
        with no intervening write to it — the upper bound on WLBP bypasses.
        """
        mms_seen = 0
        reuses = 0
        last_b = None
        dirty = True
        for inst in self._instructions:
            if inst.opcode is Opcode.RASA_MM:
                if mms_seen and inst.mm_b == last_b and not dirty:
                    reuses += 1
                mms_seen += 1
                last_b = inst.mm_b
                dirty = False
            elif last_b is not None and last_b in inst.tile_writes:
                dirty = True
        if not mms_seen:
            return 0.0
        return reuses / mms_seen

    def __repr__(self) -> str:
        s = self.stats
        return (
            f"Program({self.name!r}, {s.total} insts: {s.matmuls} mm, "
            f"{s.tile_loads} tl, {s.tile_stores} ts, {s.scalars} scalar)"
        )
