"""Round-trip property: ``assemble(disassemble(p)) == p`` (modulo tags).

Runs over every distinct program each workload suite generates, deduplicated
across suites by padded shape, so the textual syntax provably covers the
whole codegen output space — not just hand-picked examples.
"""

import gc
import operator

import pytest

from repro.cli import main
from repro.isa.assembler import assemble, disassemble
from repro.workloads.codegen import build_gemm_kernel
from repro.workloads.suites import get_suite, suite_names

SCALE = 8


@pytest.fixture(autouse=True)
def _no_cyclic_gc():
    """Pause cyclic garbage collection while a test runs.

    Instructions form no reference cycles, yet the full collections their
    allocation triggers take about half the time of the largest programs.
    """
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


#: Every field of an :class:`~repro.isa.instructions.Instruction` but ``tag``.
_UNTAGGED = operator.attrgetter("opcode", "dst", "srcs", "mem")


def _first_difference(rebuilt, program):
    """The first position whose tag-free fields differ, or ``None``.

    Compares lazily, pair by pair: collecting the field tuples of a
    900,000-instruction program first triggers full garbage collections
    that cost several times the comparison itself.
    """
    pairs = zip(map(_UNTAGGED, rebuilt), map(_UNTAGGED, program))
    return next((index for index, (a, b) in enumerate(pairs) if a != b), None)


def _distinct_shapes():
    seen = set()
    shapes = []
    for name in suite_names():
        for entry in get_suite(name, scale=SCALE).distinct():
            padded = entry.shape.tile_padded()
            if padded.dims in seen:
                continue
            seen.add(padded.dims)
            shapes.append(pytest.param(padded, id=f"{name}-{'x'.join(map(str, padded.dims))}"))
    return shapes


@pytest.mark.parametrize("shape", _distinct_shapes())
def test_roundtrip_over_every_suite_program(shape):
    program = build_gemm_kernel(shape).program
    text = disassemble(program)
    rebuilt = assemble(text, name=program.name)
    assert len(rebuilt) == len(program)
    index = _first_difference(rebuilt, program)
    assert index is None, f"instruction {index}: {rebuilt[index]} != {program[index]}"
    # Second pass is a fixed point: disassembling the rebuild is identical.
    assert disassemble(rebuilt) == text


def test_roundtrip_keeps_nondefault_strides():
    program = build_gemm_kernel(get_suite("table1", scale=SCALE).distinct()[0].shape).program
    strides = {inst.mem.stride for inst in program if inst.mem is not None}
    assert strides - {64}, "expected at least one non-default stride to exercise"
    rebuilt = assemble(disassemble(program))
    assert [i.mem for i in rebuilt if i.mem] == [i.mem for i in program if i.mem]


def test_cli_asm_rejects_ill_formed_text(tmp_path, capsys):
    source = tmp_path / "bad.rasa"
    source.write_text("rasa_tl treg0 ptr[0x1000]\n")  # missing comma
    assert main(["asm", str(source), str(tmp_path / "out.jsonl")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert err.count("\n") == 1  # exactly one line


def test_cli_asm_rejects_unknown_mnemonic(tmp_path, capsys):
    source = tmp_path / "bad.rasa"
    source.write_text("rasa_frobnicate treg0\n")
    assert main(["asm", str(source), str(tmp_path / "out.jsonl")]) == 1
    assert "error:" in capsys.readouterr().err
