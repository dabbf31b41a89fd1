"""Tests for the static cycle-bound analyzer (:mod:`repro.analysis.bounds`).

The load-bearing assertions are the cross-tier oracle — ``LB <= fast``
exactly, ``fast == fast-ref`` and ``analytic == fast`` field for field,
static counters equal to ``fast``'s — over every design, and the
seeded-mutation tests proving the oracle actually *fails* when a tier is
wrong (an inflated dependence-edge latency applied at the analyzer's
documented seam, a miscounting static replay, a scalar reference off by
one cycle, a miscounting or drifting analytic model).
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.analysis import bounds
from repro.analysis.bounds import (
    RESOURCE_ORDER,
    BoundsReport,
    ResourceBound,
    bound_program,
    bound_shape,
    cross_check_bounds,
)
from repro.analysis.verifier import static_counters
from repro.cpu.analytic import AnalyticCoreModel
from repro.cpu.config import CoreConfig
from repro.engine.designs import DESIGNS
from repro.errors import ConfigError, ExperimentError
from repro.isa.program import Program
from repro.workloads.codegen import build_gemm_kernel
from repro.workloads.gemm import GemmShape

SMALL = GemmShape(64, 64, 64, name="small")
TALL = GemmShape(128, 32, 64, name="tall")
ODD = GemmShape(17, 33, 65, name="odd")
CLIPPED = GemmShape(50, 70, 90, name="clipped")  # padded on every dim, N-edge block
NARROW = GemmShape(48, 32, 96, name="narrow")  # odd M-tile count, one block column


class TestOracle:
    @pytest.mark.parametrize(
        "shape", [SMALL, TALL, ODD, CLIPPED, NARROW], ids=lambda s: s.name
    )
    def test_cross_check_is_clean_on_every_design(self, shape):
        checks = cross_check_bounds(shape)
        assert [c.design_key for c in checks] == list(DESIGNS)
        for check in checks:
            assert check.ok, (shape, check.violations)

    def test_non_default_core_checks_every_tier(self, monkeypatch):
        # Off the default core the analytic tier still equals fast, and the
        # static counter check still runs and catches a miscount.
        real = bounds.static_counters
        monkeypatch.setattr(
            bounds, "static_counters",
            lambda program: dataclasses.replace(real(program), mm_count=0),
        )
        for check in cross_check_bounds(SMALL, core=CoreConfig(rob_size=16)):
            assert check.analytic_cycles == check.fast_cycles, check.design_key
            assert {v.kind for v in check.violations} == {
                "static-counter-mismatch"
            }, check.design_key

    @pytest.mark.parametrize("shape", [SMALL, TALL, ODD], ids=lambda s: s.name)
    def test_bounds_sandwich_the_fast_model(self, shape):
        for check in cross_check_bounds(shape):
            assert check.report.lower_bound <= check.fast_cycles, check.design_key

    def test_large_gemm_binds_on_mm_issue(self):
        # Compute-bound GEMMs bottleneck on the engine, not the core.
        report = bound_shape(GemmShape(256, 256, 256), design_key="baseline")
        assert report.binding == "mm-issue"
        assert report.lower_bound == report.component("mm-issue")


class TestCountersOncePerProgram:
    """Static counters do not depend on the design: one pass per program."""

    def test_cross_check_counts_the_program_once(self, monkeypatch):
        real = bounds.static_counters
        calls = []

        def spy(program):
            calls.append(program.name)
            return real(program)

        monkeypatch.setattr(bounds, "static_counters", spy)
        checks = cross_check_bounds(SMALL)
        assert len(checks) == len(DESIGNS) == 8
        assert all(check.ok for check in checks)
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "shape", [SMALL, TALL, ODD, CLIPPED, NARROW, None],
        ids=lambda s: s.name if s else "empty",
    )
    def test_passed_counters_give_the_computed_report(self, shape):
        program = (
            build_gemm_kernel(shape).program if shape else Program(instructions=())
        )
        counters = static_counters(program)
        for key in DESIGNS:
            assert bound_program(program, key, counters=counters) == (
                bound_program(program, key)
            ), key


class TestSeededMutations:
    def test_inflated_dependence_latency_breaks_the_lower_bound(self, monkeypatch):
        # An overlong dependence edge pushes the critical-path LB past the
        # achieved cycles — an unsound bound the oracle must reject.
        monkeypatch.setattr(bounds, "_mm_dataflow_cycles", lambda stages: 10**6)
        checks = cross_check_bounds(SMALL)
        assert all(not c.ok for c in checks)
        assert any(
            v.kind == "lb-exceeds-fast" for c in checks for v in c.violations
        )

    def test_miscounted_static_replay_is_a_static_counter_mismatch(
        self, monkeypatch
    ):
        # One spurious weight reuse shifts a WL into a bypass on every
        # design whose policy bypasses; the others never see reuses.
        real = bounds.static_counters

        def miscounting(program):
            counts = real(program)
            return dataclasses.replace(
                counts, weight_reuses=counts.weight_reuses + 1
            )

        monkeypatch.setattr(bounds, "static_counters", miscounting)
        flagged = {
            c.design_key
            for c in cross_check_bounds(SMALL)
            for v in c.violations
            if v.kind == "static-counter-mismatch"
        }
        assert flagged == {
            key for key, design in DESIGNS.items()
            if design.config.control.bypasses_on_reuse
        }

    def test_miscounted_analytic_model_is_an_analytic_fast_mismatch(
        self, monkeypatch
    ):
        real = AnalyticCoreModel.run_shape

        def miscounting(self, shape, codegen):
            result = real(self, shape, codegen)
            return dataclasses.replace(result, mm_count=result.mm_count + 1)

        monkeypatch.setattr(AnalyticCoreModel, "run_shape", miscounting)
        for check in cross_check_bounds(SMALL):
            assert [v.kind for v in check.violations] == [
                "analytic-fast-mismatch"
            ], check.design_key
            assert check.violations[0].detail.startswith("analytic SimResult(")

    def test_diverging_scalar_reference_is_a_fast_ref_mismatch(self, monkeypatch):
        real = bounds.resolve_backend

        class OffByOne:
            def __init__(self, prepared):
                self.prepared = prepared

            def run(self):
                result = self.prepared.run()
                return dataclasses.replace(result, cycles=result.cycles + 1)

        class Reference:
            def __init__(self, backend):
                self.backend = backend

            def prepare(self, program):
                return OffByOne(self.backend.prepare(program))

        def resolve(key, fidelity, **kwargs):
            backend = real(key, fidelity=fidelity, **kwargs)
            return Reference(backend) if fidelity == "fast-ref" else backend

        monkeypatch.setattr(bounds, "resolve_backend", resolve)
        for check in cross_check_bounds(SMALL):
            assert [v.kind for v in check.violations] == [
                "fast-ref-mismatch"
            ], check.design_key

    def test_drifting_analytic_cycles_are_an_analytic_fast_mismatch(self, monkeypatch):
        # One cycle off is a violation: there is no tolerance left.
        real = AnalyticCoreModel.run_shape

        def drifting(self, shape, codegen):
            result = real(self, shape, codegen)
            return dataclasses.replace(result, cycles=result.cycles + 1)

        monkeypatch.setattr(AnalyticCoreModel, "run_shape", drifting)
        for check in cross_check_bounds(SMALL):
            assert check.analytic_cycles == check.fast_cycles + 1, check.design_key
            assert [v.kind for v in check.violations] == [
                "analytic-fast-mismatch"
            ], check.design_key


class TestReportApi:
    def test_components_follow_resource_order(self):
        report = bound_shape(SMALL)
        assert tuple(b.resource for b in report.components) == RESOURCE_ORDER

    def test_unknown_component_raises(self):
        with pytest.raises(ExperimentError, match="unknown bound resource"):
            bound_shape(SMALL).component("dram-refresh")

    def test_unknown_design_raises(self):
        with pytest.raises(ConfigError):
            bound_shape(SMALL, design_key="rasa-quantum")

    def test_tightness_is_fraction_of_achieved(self):
        report = BoundsReport(
            name="t", design_key="baseline", lower_bound=80,
            components=(ResourceBound("mm-issue", 80),), binding="mm-issue",
        )
        assert report.tightness(100) == pytest.approx(0.8)
        assert report.tightness(0) == 0.0

    def test_empty_program_bounds_are_zero(self):
        report = bound_program(Program(instructions=()), "baseline")
        assert report.lower_bound == 0

