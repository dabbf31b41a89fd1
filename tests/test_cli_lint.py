"""CLI surface of the static verifier: ``repro lint``, which never simulates,
and the model table, which carries no diagnostics."""

import json

from repro.cli import main
from repro.runtime import registry


class TestLintCommand:
    def test_adhoc_gemm_clean(self, capsys):
        assert main(["lint", "--m", "64", "--n", "64", "--k", "64"]) == 0
        out = capsys.readouterr().out
        assert "static verification" in out
        assert out.endswith("\n1 program(s): 0 diagnostic(s)\n")

    def test_suite_lint_clean(self, capsys):
        assert main(["lint", "--workloads", "table1", "--scale", "8"]) == 0
        assert capsys.readouterr().out.endswith(" program(s): 0 diagnostic(s)\n")

    def test_lint_runs_no_simulator(self, capsys, monkeypatch):
        # With no fidelity registered, any backend lookup raises.
        monkeypatch.setattr(registry, "FIDELITIES", {})
        assert main(["lint", "--m", "64", "--n", "64", "--k", "64"]) == 0
        assert "0 diagnostic(s)" in capsys.readouterr().out

    def test_json_document(self, capsys):
        assert main(
            ["lint", "--m", "50", "--n", "70", "--k", "90", "--json"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"scale", "programs", "total_diagnostics"}
        assert doc["total_diagnostics"] == 0
        (program,) = doc["programs"]
        assert (program["m"], program["n"], program["k"]) == (50, 70, 90)
        assert program["diagnostics"] == []
        assert program["counters"]["mm_count"] > 0
        assert program["hazards"]["longest_raw_chain"] > 0
        assert "counter_mismatches" not in program

    def test_partial_mnk_rejected(self, capsys):
        assert main(["lint", "--m", "64"]) == 1
        assert "together" in capsys.readouterr().err

    def test_batch_with_mnk_rejected(self, capsys):
        # Ignoring --batch would lint a different GEMM than requested.
        assert main(
            ["lint", "--m", "64", "--n", "64", "--k", "64", "--batch", "8"]
        ) == 1
        assert capsys.readouterr().err == (
            "error: --batch/--batches apply to suite workloads, not --m/--n/--k\n"
        )

    def test_scale_with_mnk_rejected(self, capsys):
        assert main(
            ["lint", "--m", "64", "--n", "64", "--k", "64", "--scale", "8"]
        ) == 1
        assert "--scale does not apply" in capsys.readouterr().err

    def test_mnk_and_workloads_mutually_exclusive(self, capsys):
        assert main(
            ["lint", "--m", "64", "--n", "64", "--k", "64",
             "--workloads", "table1"]
        ) == 1
        assert "mutually exclusive" in capsys.readouterr().err

    def test_shared_shapes_dedup_across_suites(self, capsys):
        assert main(
            ["lint", "--workloads", "resnet50,resnet50-train", "--scale", "16",
             "--json"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        dims = [(p["m"], p["n"], p["k"]) for p in doc["programs"]]
        assert len(dims) == len(set(dims))
        shared = [p for p in doc["programs"] if len(p["suites"]) > 1]
        assert shared, "forward conv GEMMs should appear in both suites"


class TestModelsLint:
    def test_models_without_lint_has_no_diags_column(self, capsys):
        # Diagnostics live in ``repro lint``; the model table carries none.
        assert main(["models"]) == 0
        assert "diags" not in capsys.readouterr().out
