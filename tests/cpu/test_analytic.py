"""Analytic-tier tests: the analytic SimResult equals the fast model's.

The analytic model walks a shape's skeleton with the ``fast`` model's own
steady-state walk (see :mod:`repro.cpu.analytic`), so every test below
asserts equality with the scalar reference, field for field — on any core
and codegen, including the inputs the retired closed forms got wrong
(``tests/analysis/test_differential.py``).
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.cpu.analytic import AnalyticCoreModel
from repro.cpu.config import CoreConfig
from repro.cpu.fast import FastCoreModel
from repro.engine.designs import DESIGNS, get_design
from repro.experiments import ExperimentSettings, run_design
from repro.workloads.codegen import CodegenOptions, generate_gemm_program
from repro.workloads.gemm import GemmShape
from repro.workloads.suites import get_suite
from repro.workloads.tiling import BlockingConfig, MMOrder

#: Scaled-down settings: full-size layers shrink 16x per dimension, so the
#: fast-model reference side of each comparison stays test-suite cheap.
FAST_SETTINGS = ExperimentSettings(scale=16)

SQUARE = GemmShape(256, 256, 256, name="square")
TALL = GemmShape(1024, 16, 64, name="tall")  # degenerate bn' = 1 edge column
TINY = GemmShape(16, 16, 32, name="tiny")    # single tile, single K step

ALT_CODEGENS = (
    CodegenOptions(blocking=BlockingConfig(bm=1, bn=3)),
    CodegenOptions(blocking=BlockingConfig(bm=3, bn=1)),
    CodegenOptions(blocking=BlockingConfig(bm=2, bn=2, mm_order=MMOrder.ALTERNATE)),
)


def _fast_reference(design_key: str, shape: GemmShape, codegen: CodegenOptions):
    config = get_design(design_key).config
    return FastCoreModel(engine=config).run(generate_gemm_program(shape, codegen))


class TestAnalyticMatchesFast:
    """Unit-level: the analytic SimResult equals the fast model's, bit for bit."""

    @pytest.mark.parametrize("shape", [SQUARE, TALL, TINY], ids=lambda s: s.name)
    def test_every_design_default_codegen(self, design_key, shape):
        config = get_design(design_key).config
        analytic = AnalyticCoreModel(engine=config).run_shape(shape, CodegenOptions())
        assert analytic == _fast_reference(design_key, shape, CodegenOptions())

    @pytest.mark.parametrize("codegen", ALT_CODEGENS)
    @pytest.mark.parametrize("design", ["baseline", "rasa-dmdb-wls"])
    def test_alternate_blockings(self, design, codegen):
        config = get_design(design).config
        model = AnalyticCoreModel(engine=config)
        for shape in (SQUARE, TALL):
            assert model.run_shape(shape, codegen) == _fast_reference(
                design, shape, codegen
            )

    def test_unnamed_shape_gets_generated_program_name(self):
        config = get_design("baseline").config
        result = AnalyticCoreModel(engine=config).run_shape(
            GemmShape(64, 64, 64), CodegenOptions()
        )
        assert result.program == "gemm_64x64x64"

    def test_non_power_of_two_widths_read_exact_cycles(self):
        # Float time stepped at widths 3/6 read 4,974,628 here; integer
        # ticks read the exact 4,974,627, jumping or stepping.
        options = CodegenOptions(
            blocking=BlockingConfig(1, 3, MMOrder.ALTERNATE),
            scalar_overhead_per_kstep=0,
            scalar_overhead_per_block=12,
        )
        core = CoreConfig(rob_size=25, fetch_width=3, retire_width=6, store_ports=2,
                          l1_latency=10, pipeline_stages=10)
        config = get_design("rasa-wlbp").config
        shape = GemmShape(316, 302, 1295)
        analytic = AnalyticCoreModel(core=core, engine=config).run_shape(shape, options)
        assert analytic.cycles == 4_974_627
        program = generate_gemm_program(shape, options)
        assert analytic == FastCoreModel(core=core, engine=config).run(program)


class TestSuiteValidation:
    """All 8 designs on every distinct shape of the three richest suites."""

    @pytest.mark.parametrize("suite", ["table1", "bert-full", "resnet50-train"])
    def test_suite_matches_fast(self, suite):
        for entry in get_suite(suite, scale=FAST_SETTINGS.scale).distinct():
            for design in DESIGNS:
                analytic, fast = (
                    run_design(design, entry.shape, FAST_SETTINGS, fidelity)
                    for fidelity in ("analytic", "fast")
                )
                # Only the name differs: analytic names the labelled shape,
                # fast the memoized unlabeled program.
                assert dataclasses.replace(analytic, program=fast.program) == fast, (
                    suite, design, entry.shape.dims
                )
