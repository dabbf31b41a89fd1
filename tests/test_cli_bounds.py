"""CLI surface of the bound analyzer: ``repro bounds`` and ``repro lint --bounds``."""

import json

from repro.analysis import bounds as bounds_analysis
from repro.cli import main


class TestBoundsCommand:
    def test_adhoc_gemm_clean(self, capsys):
        assert main(["bounds", "--m", "64", "--n", "64", "--k", "64"]) == 0
        out = capsys.readouterr().out
        assert "static cycle bounds" in out
        assert "mm-issue" in out
        assert "0 bound violation(s)" in out
        assert "VIOLATION" not in out

    def test_suite_bounds_clean(self, capsys):
        assert main(
            ["bounds", "--workloads", "dlrm", "--scale", "16",
             "--designs", "baseline,rasa-dmdb-wls"]
        ) == 0
        out = capsys.readouterr().out
        assert "2 design(s)" in out
        assert "VIOLATION" not in out

    def test_json_document(self, capsys):
        assert main(
            ["bounds", "--m", "64", "--n", "64", "--k", "64", "--json"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["total_violations"] == 0
        assert doc["scale"] == 4  # the suite default, printed when omitted
        assert len(doc["designs"]) == 8
        (program,) = doc["programs"]
        assert (program["m"], program["n"], program["k"]) == (64, 64, 64)
        for check in program["checks"]:
            assert check["violations"] == []
            assert check["lower_bound"] <= check["fast_cycles"]
            assert check["binding"] in check["components"]

    def test_unknown_design_rejected(self, capsys):
        assert main(
            ["bounds", "--m", "64", "--n", "64", "--k", "64",
             "--designs", "rasa-frobnicate"]
        ) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_partial_mnk_rejected(self, capsys):
        assert main(["bounds", "--m", "64"]) == 1
        assert "together" in capsys.readouterr().err

    def test_batch_with_mnk_rejected(self, capsys):
        # Ignoring --batch would bound a different GEMM than requested.
        assert main(
            ["bounds", "--m", "64", "--n", "64", "--k", "64", "--batch", "8"]
        ) == 1
        assert capsys.readouterr().err == (
            "error: --batch/--batches apply to suite workloads, not --m/--n/--k\n"
        )

    def test_scale_with_mnk_rejected(self, capsys):
        assert main(
            ["bounds", "--m", "64", "--n", "64", "--k", "64", "--scale", "8"]
        ) == 1
        assert "--scale does not apply" in capsys.readouterr().err

    def test_seeded_violation_exits_nonzero(self, capsys, monkeypatch):
        # The CI gate in one test: inflate a dependence edge's latency and
        # the command must turn red.
        monkeypatch.setattr(
            bounds_analysis, "_mm_dataflow_cycles", lambda stages: 10**6
        )
        assert main(["bounds", "--m", "64", "--n", "64", "--k", "64"]) == 1
        assert "lb-exceeds-fast" in capsys.readouterr().out


class TestLintBoundsFlag:
    def test_lint_with_bounds_clean(self, capsys):
        assert main(
            ["lint", "--m", "64", "--n", "64", "--k", "64", "--bounds"]
        ) == 0
        assert "0 bound violation(s)" in capsys.readouterr().out

    def test_lint_without_bounds_skips_cycle_oracle(self, capsys, monkeypatch):
        import repro.cli

        def boom(*args, **kwargs):  # pragma: no cover - fails if reached
            raise AssertionError("cross_check_bounds called without --bounds")

        monkeypatch.setattr(repro.cli, "cross_check_bounds", boom)
        assert main(["lint", "--m", "64", "--n", "64", "--k", "64"]) == 0
        assert "bound violation" not in capsys.readouterr().out

    def test_lint_json_gains_bounds_section(self, capsys):
        assert main(
            ["lint", "--m", "64", "--n", "64", "--k", "64", "--bounds",
             "--json", "--designs", "baseline"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["total_bound_violations"] == 0
        (program,) = doc["programs"]
        (check,) = program["bounds"]
        assert check["design"] == "baseline"

    def test_seeded_violation_fails_lint(self, capsys, monkeypatch):
        monkeypatch.setattr(
            bounds_analysis, "_mm_dataflow_cycles", lambda stages: 10**6
        )
        assert main(
            ["lint", "--m", "64", "--n", "64", "--k", "64", "--bounds"]
        ) == 1
        assert "lb-exceeds-fast" in capsys.readouterr().out
