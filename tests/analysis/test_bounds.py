"""Tests for the static cycle-bound analyzer (:mod:`repro.analysis.bounds`).

The load-bearing assertions are the cycle-level oracle — ``LB <= fast``
exactly, ``fast == fast-ref``, analytic within its documented tolerance —
over every design, and the seeded-mutation test proving the oracle actually
*fails* when the bound is wrong (an inflated dependence-edge latency,
applied at the analyzer's documented seam).
"""

from __future__ import annotations

import pytest

from repro.analysis import bounds
from repro.analysis.bounds import (
    RESOURCE_ORDER,
    BoundsReport,
    BoundsSweep,
    ResourceBound,
    bound_program,
    bound_shape,
    cross_check_bounds,
)
from repro.engine.designs import DESIGNS
from repro.errors import ConfigError, ExperimentError
from repro.isa.program import Program
from repro.workloads.gemm import GemmShape

SMALL = GemmShape(64, 64, 64, name="small")
TALL = GemmShape(128, 32, 64, name="tall")
ODD = GemmShape(17, 33, 65, name="odd")


class TestOracle:
    @pytest.mark.parametrize("shape", [SMALL, TALL, ODD], ids=lambda s: s.name)
    def test_cross_check_is_clean_on_every_design(self, shape):
        checks = cross_check_bounds(shape)
        assert [c.design_key for c in checks] == list(DESIGNS)
        for check in checks:
            assert check.ok, (shape, check.violations)

    @pytest.mark.parametrize("shape", [SMALL, TALL, ODD], ids=lambda s: s.name)
    def test_bounds_sandwich_the_fast_model(self, shape):
        for check in cross_check_bounds(shape):
            assert check.report.lower_bound <= check.fast_cycles, check.design_key

    def test_large_gemm_binds_on_mm_issue(self):
        # Compute-bound GEMMs bottleneck on the engine, not the core.
        report = bound_shape(GemmShape(256, 256, 256), design_key="baseline")
        assert report.binding == "mm-issue"
        assert report.lower_bound == report.component("mm-issue")


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


class TestBoundsSweep:
    def _report(self, name):
        return BoundsReport(
            name=name, design_key="baseline", lower_bound=1,
            components=(ResourceBound("mm-issue", 1),), binding="mm-issue",
        )

    def test_merge_is_a_disjoint_union(self):
        a = BoundsSweep(reports={"k1": self._report("a")})
        b = BoundsSweep(reports={"k2": self._report("b")})
        assert set(a.merge(b).reports) == {"k1", "k2"}

    def test_merge_tolerates_equal_duplicates(self):
        a = BoundsSweep(reports={"k1": self._report("a")})
        assert a.merge(BoundsSweep(reports={"k1": self._report("a")})) == a

    def test_merge_rejects_disagreeing_reports(self):
        a = BoundsSweep(reports={"k1": self._report("a")})
        with pytest.raises(ExperimentError, match="k1"):
            a.merge(BoundsSweep(reports={"k1": self._report("b")}))
