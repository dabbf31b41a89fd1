"""Tests for the E15 whole-model suite report and session env parsing."""

from __future__ import annotations

import sys

import pytest

from repro.errors import ExperimentError
from repro.experiments.model_report import model_report, suite_energy_j
from repro.experiments.runner import ExperimentSettings
from repro.runtime import Session

SETTINGS = ExperimentSettings(scale=16)


@pytest.fixture(scope="module")
def report():
    return model_report(
        SETTINGS,
        suites=("bert-base", "dlrm"),
        session=Session(workers=1),
    )


class TestModelReport:
    def test_totals_layout(self, report):
        assert set(report.totals) == {"bert-base", "dlrm"}
        for per_design in report.totals.values():
            assert set(per_design) == set(report.design_keys)

    def test_normalized_anchored_at_baseline(self, report):
        normalized = report.normalized()
        for per_design in normalized.values():
            assert per_design["baseline"] == pytest.approx(1.0)
            assert per_design["rasa-dmdb-wls"] < 0.25

    def test_dedup_carried_through(self, report):
        base = report.totals["bert-base"]["baseline"]
        assert base.gemm_count == 72
        assert base.simulations == 3

    def test_render_contains_speedup_and_geomean(self, report):
        text = report.render()
        assert "E15" in text
        assert "speedup" in text
        assert "GEOMEAN" in text
        assert "bert-base" in text

    def test_energy_positive_and_best_design_wins(self, report):
        per_design = report.totals["dlrm"]
        base = suite_energy_j(per_design["baseline"])
        best = suite_energy_j(per_design["rasa-dmdb-wls"])
        assert base > best > 0.0

    def test_missing_baseline_rejected(self):
        with pytest.raises(ExperimentError, match="baseline"):
            model_report(
                SETTINGS,
                suites=("dlrm",),
                design_keys=["rasa-wlbp"],
                session=Session(workers=1),
            )

    def test_zero_energy_denominator_raises(self, report, monkeypatch):
        # sys.modules lookup: the package re-exports a ``model_report``
        # *function*, which shadows attribute-style module resolution.
        module = sys.modules["repro.experiments.model_report"]
        monkeypatch.setattr(module, "suite_energy_j", lambda totals: 0.0)
        with pytest.raises(ExperimentError, match="zero energy"):
            report.render()


class _RecordingSession(Session):
    """Records the fidelity of every plan it runs."""

    def __init__(self):
        super().__init__(workers=1)
        self.fidelities = []

    def run(self, plan):
        self.fidelities.append(plan.fidelity)
        return super().run(plan)


class TestFidelityPlumbing:
    def test_model_report_threads_fidelity_to_the_plan(self):
        session = _RecordingSession()
        model_report(
            SETTINGS,
            suites=("dlrm",),
            design_keys=["baseline", "rasa-dmdb-wls"],
            session=session,
            fidelity="engine",
        )
        assert session.fidelities == ["engine"]

    def test_engine_fidelity_reaches_the_backend(self):
        """The ``engine`` backend times engine-bound runs: fewer cycles."""
        kwargs = dict(
            suites=("dlrm",),
            design_keys=["baseline", "rasa-dmdb-wls"],
        )
        fast = model_report(SETTINGS, session=Session(workers=1), **kwargs)
        engine = model_report(
            SETTINGS, session=Session(workers=1), fidelity="engine", **kwargs
        )
        for design in ("baseline", "rasa-dmdb-wls"):
            assert (
                engine.totals["dlrm"][design].cycles
                < fast.totals["dlrm"][design].cycles
            )

    def test_runner_argument_is_gone(self):
        """The deprecated ``runner=`` spelling was removed with the shims."""
        with pytest.raises(TypeError, match="runner"):
            model_report(SETTINGS, suites=("dlrm",), runner=object())


class TestDefaultSessionEnv:
    def test_bad_workers_env_raises_experiment_error(self, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "lots")
        with pytest.raises(ExperimentError, match="REPRO_SWEEP_WORKERS"):
            Session.from_env()

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_non_positive_workers_env_raises(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", value)
        with pytest.raises(ExperimentError, match="REPRO_SWEEP_WORKERS"):
            Session.from_env()

    def test_good_workers_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "3")
        assert Session.from_env().workers == 3

    def test_deprecated_default_runner_is_gone(self):
        import repro.experiments.runner as runner_module

        assert not hasattr(runner_module, "default_runner")
