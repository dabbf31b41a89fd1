"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import main


class TestInformational:
    def test_designs(self, capsys):
        assert main(["designs"]) == 0
        out = capsys.readouterr().out
        assert "rasa-dmdb-wls" in out and "95" in out

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        assert "ResNet50-2" in capsys.readouterr().out

    def test_fig1(self, capsys):
        assert main(["fig", "1"]) == 0
        assert "28.6%" in capsys.readouterr().out

    def test_fig2(self, capsys):
        assert main(["fig", "2"]) == 0
        assert "TM" in capsys.readouterr().out

    def test_fig5_scaled(self, capsys):
        assert main(["fig", "5", "--scale", "16"]) == 0
        out = capsys.readouterr().out
        assert "GEOMEAN" in out and "paper avg" in out

    def test_area(self, capsys):
        assert main(["area", "--scale", "16"]) == 0
        assert "0.847" in capsys.readouterr().out


class TestSimulate:
    def test_simulate(self, capsys):
        assert main(["simulate", "--design", "rasa-wlbp",
                     "--m", "64", "--n", "64", "--k", "64"]) == 0
        out = capsys.readouterr().out
        assert "rasa_mm" in out and "WLBP bypass" in out

    def test_simulate_fidelity(self, capsys):
        assert main(["simulate", "--design", "rasa-wlbp", "--fidelity", "engine",
                     "--m", "64", "--n", "64", "--k", "64"]) == 0
        assert "fidelity    : engine" in capsys.readouterr().out

    def test_simulate_analytic_matches_fast(self, capsys):
        args = ["simulate", "--design", "rasa-wlbp",
                "--m", "64", "--n", "64", "--k", "64"]
        assert main(args) == 0
        fast_out = capsys.readouterr().out
        assert main(args + ["--fidelity", "analytic"]) == 0
        analytic_out = capsys.readouterr().out
        assert "fidelity    : analytic" in analytic_out
        # The analytic tier reproduces the fast model's numbers exactly on
        # this point; only the fidelity line differs.
        assert analytic_out.replace("analytic", "fast") == fast_out

    def test_sweep_analytic(self, capsys):
        assert main(["sweep", "--m", "64", "--n", "64", "--k", "64",
                     "--fidelity", "analytic", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "Baseline" in out and "RASA-DMDB-WLS" in out

    def test_sweep(self, capsys):
        assert main(["sweep", "--m", "64", "--n", "64", "--k", "64",
                     "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "Baseline" in out and "RASA-DMDB-WLS" in out

    def test_unknown_design_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["simulate", "--design", "bogus", "--m", "16", "--n", "16", "--k", "32"])


class TestGridSweep:
    def test_table1_grid_cold_then_warm(self, tmp_path, capsys):
        argv = ["sweep", "--designs", "all", "--workloads", "table1",
                "--scale", "16", "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "GEOMEAN" in cold and "72 simulations" in cold
        assert "0 hits, 72 misses" in cold

        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "72 hits, 0 misses" in warm
        # Bit-identical cycles: the tables match apart from the stats line.
        assert cold.splitlines()[:-1] == warm.splitlines()[:-1]

    def test_mistyped_log_lines_are_resimulated(self, tmp_path, capsys):
        """A hand-edited log line whose cycles are not an int is re-run, not printed."""
        argv = ["sweep", "--workloads", "table1", "--designs", "baseline,rasa-pipe",
                "--scale", "16", "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        log = tmp_path / "simresults.jsonl"
        lines = log.read_text().splitlines()
        for index, cycles in ((0, None), (1, "123")):
            key, fields = json.loads(lines[index])
            lines[index] = json.dumps([key, {**fields, "cycles": cycles}])
        log.write_text("\n".join(lines) + "\n")

        with pytest.warns(RuntimeWarning, match="skipped 2 damaged line"):
            assert main(argv) == 0
        warm = capsys.readouterr().out
        assert warm.splitlines()[:-1] == cold.splitlines()[:-1]
        assert "cache: 16 hits, 2 misses" in warm.splitlines()[-1]

    def test_stats_line_counts_distinct_points(self, capsys):
        # At scale 2048 the nine Table I layers floor onto 2 distinct points.
        assert main(["sweep", "--workloads", "table1", "--scale", "2048",
                     "--designs", "baseline", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[-1].startswith("2 simulations in ")

    def test_design_subset_gets_baseline_for_normalization(self, tmp_path, capsys):
        assert main(["sweep", "--designs", "rasa-wlbp", "--workloads", "DLRM-2",
                     "--scale", "16", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "Baseline" in out and "RASA-WLBP" in out

    def test_unknown_workload(self, capsys):
        assert main(["sweep", "--workloads", "nope", "--no-cache"]) == 1
        assert "unknown workload" in capsys.readouterr().err

    def test_unknown_design_key(self, capsys):
        assert main(["sweep", "--designs", "nope", "--no-cache"]) == 1
        assert "unknown design" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", [",", " , ,"])
    def test_empty_designs_spec_rejected(self, spec, capsys):
        # Not "baseline alone": an empty list is a typo, as in repro lint.
        assert main(["sweep", "--designs", spec, "--workloads", "table1",
                     "--scale", "16", "--no-cache"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert '--designs needs "all"' in captured.err

    def test_partial_mnk_rejected(self, capsys):
        assert main(["sweep", "--m", "64", "--no-cache"]) == 1
        assert "together" in capsys.readouterr().err

    def test_scale_rejected_for_adhoc_gemm(self, capsys):
        # Silently ignoring --scale would report results for different
        # dimensions than the flag implies.
        assert main(["sweep", "--m", "512", "--n", "512", "--k", "512",
                     "--scale", "8", "--no-cache"]) == 1
        assert "--scale does not apply" in capsys.readouterr().err

    def test_workloads_rejected_for_adhoc_gemm(self, capsys):
        # Running only the ad-hoc GEMM would silently drop the suite.
        assert main(["sweep", "--m", "64", "--n", "64", "--k", "64",
                     "--workloads", "bert-base", "--designs", "rasa-pipe",
                     "--no-cache"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: --m/--n/--k (one ad-hoc GEMM) and --workloads (suites) "
            "are mutually exclusive\n"
        )


class TestSuiteSweep:
    def test_bert_base_dedups_72_layers_to_3_points(self, tmp_path, capsys):
        argv = ["sweep", "--workloads", "bert-base", "--scale", "16",
                "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        # 8 designs x 3 distinct points, standing in for 8 x 72 layer runs.
        assert "24 distinct points for 576 suite GEMM runs (24.0x dedup)" in cold
        assert "24 simulated, 0 cached" in cold
        assert "bert-base | 72    | 3" in cold

        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "0 simulated, 24 cached" in warm
        assert cold.splitlines()[:-1] == warm.splitlines()[:-1]

    def test_all_suites(self, tmp_path, capsys):
        assert main(["sweep", "--workloads", "all", "--designs",
                     "rasa-dmdb-wls", "--scale", "16",
                     "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        for suite in ("table1", "resnet50", "bert-base", "dlrm", "training"):
            assert suite in out
        assert "GEOMEAN" in out

    def test_suite_batch_override(self, tmp_path, capsys):
        assert main(["sweep", "--workloads", "dlrm", "--batch", "64",
                     "--designs", "rasa-wlbp", "--scale", "8",
                     "--cache-dir", str(tmp_path)]) == 0
        assert "dlrm" in capsys.readouterr().out

    def test_batch_rejected_for_layer_names(self, capsys):
        assert main(["sweep", "--workloads", "DLRM-2", "--batch", "64",
                     "--no-cache"]) == 1
        assert "apply to suite workloads" in capsys.readouterr().err

    def test_batch_rejected_for_adhoc_gemm(self, capsys):
        assert main(["sweep", "--m", "64", "--n", "64", "--k", "64",
                     "--batch", "8", "--no-cache"]) == 1
        assert "--batch" in capsys.readouterr().err

    def test_mixed_suite_and_layer_names_rejected(self, capsys):
        assert main(["sweep", "--workloads", "bert-base,DLRM-2",
                     "--no-cache"]) == 1
        assert "cannot mix" in capsys.readouterr().err

    def test_all_mixed_with_layer_name_rejected(self, capsys):
        assert main(["sweep", "--workloads", "all,DLRM-2", "--no-cache"]) == 1
        assert "cannot mix" in capsys.readouterr().err

    def test_all_mixed_into_a_list_expands_once(self, tmp_path, capsys):
        assert main(["sweep", "--workloads", "all,bert-base", "--designs",
                     "rasa-wlbp", "--scale", "16",
                     "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        for suite in ("table1", "resnet50", "bert-base", "dlrm", "training"):
            assert suite in out
        assert out.count("bert-base") == 1

    def test_repeated_suite_names_collapse_to_one(self, tmp_path, capsys):
        assert main(["sweep", "--workloads", "dlrm,dlrm", "--designs",
                     "rasa-wlbp", "--scale", "16",
                     "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert out.count("dlrm") == 1  # one row, honest stats
        assert "18 suite GEMM runs" in out  # 9 GEMMs x 2 designs, not x2 suites

    def test_suite_with_typo_names_the_unknown_token(self, capsys):
        assert main(["sweep", "--workloads", "bert-base,bertbase",
                     "--no-cache"]) == 1
        err = capsys.readouterr().err
        assert "unknown workload 'bertbase'" in err

    def test_cross_suite_dedup_in_stats_line(self, tmp_path, capsys):
        # training's forward GEMMs share dims with table1's FC layers: the
        # union has 16 distinct points at scale 16, not 9 + 13 = 22.
        assert main(["sweep", "--workloads", "table1,training", "--designs",
                     "rasa-wlbp", "--scale", "16",
                     "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        sims, runs = 2 * 16, 2 * (9 + 18)  # baseline + rasa-wlbp
        assert f"{sims} distinct points for {runs} suite GEMM runs" in out
        assert f"{sims} simulated, 0 cached" in out


class TestSuiteBatchSweep:
    def test_dlrm_two_batches(self, tmp_path, capsys):
        assert main(["sweep", "--workloads", "dlrm", "--batches", "64,512",
                     "--scale", "8", "--designs", "rasa-dmdb-wls",
                     "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "suite batch sweep — dlrm" in out
        assert "cross-batch dedup" in out
        # Two batch rows plus the geomean across the batch axis.
        assert "GEOMEAN" in out

    def test_sub_tile_batches_dedup_onto_one_point(self, tmp_path, capsys):
        # At scale 8, batches 1/2/4 all floor to one register block: the
        # dlrm suite's 6 distinct points simulate once for all 3 batches.
        assert main(["sweep", "--workloads", "dlrm", "--batches", "1,2,4",
                     "--scale", "8", "--designs", "rasa-wlbp",
                     "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "12 distinct points for 36 per-batch suite points" in out
        assert "(3.0x cross-batch dedup)" in out
        assert "12 simulated, 0 cached" in out

    def test_batch_curve_matches_per_batch_suite_sweep(self, tmp_path, capsys):
        """The curve's warm-cache rerun serves every point from the store."""
        argv = ["sweep", "--workloads", "dlrm", "--batches", "64,512",
                "--scale", "8", "--designs", "rasa-wlbp",
                "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "0 cached" in cold
        assert "0 simulated" in warm
        assert cold.splitlines()[:-1] == warm.splitlines()[:-1]

    def test_batch_and_batches_mutually_exclusive(self, capsys):
        assert main(["sweep", "--workloads", "dlrm", "--batch", "64",
                     "--batches", "1,2", "--no-cache"]) == 1
        assert "mutually exclusive" in capsys.readouterr().err

    def test_batches_rejected_for_layer_names(self, capsys):
        assert main(["sweep", "--workloads", "DLRM-2", "--batches", "1,2",
                     "--no-cache"]) == 1
        assert "apply to suite workloads" in capsys.readouterr().err

    def test_batches_rejected_for_adhoc_gemm(self, capsys):
        assert main(["sweep", "--m", "64", "--n", "64", "--k", "64",
                     "--batches", "1,2", "--no-cache"]) == 1
        assert "--batches" in capsys.readouterr().err

    def test_non_integer_batches_rejected(self, capsys):
        assert main(["sweep", "--workloads", "dlrm", "--batches", "1,two",
                     "--no-cache"]) == 1
        assert "comma-separated integers" in capsys.readouterr().err

    def test_duplicate_batches_rejected(self, capsys):
        assert main(["sweep", "--workloads", "dlrm", "--batches", "64,64",
                     "--no-cache"]) == 1
        assert "duplicates" in capsys.readouterr().err

    def test_non_positive_batches_rejected(self, capsys):
        assert main(["sweep", "--workloads", "dlrm", "--batches", "0,64",
                     "--no-cache"]) == 1
        assert "positive" in capsys.readouterr().err

    def test_negative_jobs_rejected(self, capsys):
        assert main(["sweep", "--workloads", "dlrm", "--jobs", "-3",
                     "--no-cache"]) == 1
        assert "workers must be a positive integer" in capsys.readouterr().err

    def test_zero_jobs_rejected(self, capsys):
        assert main(["sweep", "--workloads", "table1", "--jobs", "0",
                     "--no-cache"]) == 1
        assert "workers must be a positive integer" in capsys.readouterr().err


class TestFig7Suites:
    def test_fig7_suite_curves(self, capsys):
        assert main(["fig", "7", "--workloads", "dlrm", "--scale", "16"]) == 0
        out = capsys.readouterr().out
        assert "E16" in out and "0.168" in out and "dlrm" in out

    def test_workloads_rejected_for_other_figures(self, capsys):
        assert main(["fig", "5", "--workloads", "dlrm"]) == 1
        assert "fig 7 only" in capsys.readouterr().err

    def test_unknown_suite_rejected(self, capsys):
        assert main(["fig", "7", "--workloads", "bogus"]) == 1
        assert "unknown workload suite" in capsys.readouterr().err


class TestModels:
    def test_models_lists_suites(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        for suite in ("table1", "resnet50", "bert-base", "bert-full", "dlrm",
                      "training", "resnet50-train"):
            assert suite in out
        assert "24.0x" in out  # bert-base dedup factor

    def test_models_batch_override(self, capsys):
        assert main(["models", "--batch", "64"]) == 0
        assert "64" in capsys.readouterr().out

    def test_models_shows_op_composition(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        assert "ops" in out
        assert "53 conv-fwd / 53 conv-dgrad / 53 conv-wgrad" in out
        assert "72 fc-fwd / 24 batched-matmul" in out
        assert "6 fc-fwd / 6 fc-dgrad / 6 fc-wgrad" in out


class TestRoleAwareScaleKnobs:
    def test_scale_spatial_keeps_bert_full_tractable(self, tmp_path, capsys):
        # The CI smoke flags: head-batched attention shrinks its sequence
        # dims; batches 1 and 8 rebuild the token axis.
        assert main(["sweep", "--workloads", "bert-full", "--batches", "1,8",
                     "--scale-spatial", "8", "--designs", "rasa-dmdb-wls",
                     "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "suite batch sweep — bert-full" in out
        assert "cross-batch dedup" in out

    def test_resnet50_train_single_design_run(self, tmp_path, capsys):
        assert main(["sweep", "--workloads", "resnet50-train", "--designs",
                     "baseline", "--scale", "16", "--scale-batch", "8",
                     "--scale-spatial", "8",
                     "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "resnet50-train | 159" in out

    def test_knobs_change_the_simulated_points(self, tmp_path, capsys):
        base = ["sweep", "--workloads", "resnet50", "--designs", "rasa-wlbp",
                "--scale", "16", "--cache-dir", str(tmp_path)]
        assert main(base + ["--scale-spatial", "64"]) == 0
        spatial = capsys.readouterr().out
        assert main(base) == 0
        plain = capsys.readouterr().out
        # The spatially shrunk lowering simulates its own (cheaper) points;
        # the unknobbed rerun cannot be served by them.
        assert "0 cached" in spatial
        assert "0 simulated" not in plain.splitlines()[-1]

    def test_knobs_rejected_for_layer_names(self, capsys):
        assert main(["sweep", "--workloads", "DLRM-2", "--scale-batch", "4",
                     "--no-cache"]) == 1
        assert "apply to suite workloads" in capsys.readouterr().err

    def test_knobs_rejected_for_adhoc_gemm(self, capsys):
        assert main(["sweep", "--m", "64", "--n", "64", "--k", "64",
                     "--scale-spatial", "4", "--no-cache"]) == 1
        assert "--scale-batch/--scale-spatial" in capsys.readouterr().err

    def test_knobs_conflict_with_plan_file(self, tmp_path, capsys):
        plan_file = tmp_path / "plan.json"
        assert main(["plan", "show", "--workloads", "dlrm", "--scale", "8",
                     "-o", str(plan_file)]) == 0
        capsys.readouterr()
        assert main(["plan", "show", "--plan", str(plan_file),
                     "--scale-batch", "2"]) == 1
        err = capsys.readouterr().err
        assert "cannot amend a plan file" in err and "--scale-batch" in err

    def test_plan_show_records_the_knobs(self, capsys):
        assert main(["plan", "show", "--workloads", "resnet50",
                     "--scale-batch", "8", "--scale-spatial", "4"]) == 0
        out = capsys.readouterr().out
        assert "batch 1/8" in out and "spatial 1/4" in out
        assert '"scale_batch": 8' in out and '"scale_spatial": 4' in out

    def test_plan_json_round_trips_the_knobs(self, tmp_path, capsys):
        plan_file = tmp_path / "plan.json"
        assert main(["plan", "show", "--workloads", "resnet50-train",
                     "--scale", "16", "--scale-batch", "8", "--scale-spatial",
                     "8", "-o", str(plan_file)]) == 0
        capsys.readouterr()
        assert main(["plan", "run", "--plan", str(plan_file),
                     "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "resnet50-train" in out and "simulated" in out


class TestPlanShow:
    def test_show_summary_and_json(self, capsys):
        assert main(["plan", "show", "--workloads", "dlrm", "--scale", "8"]) == 0
        out = capsys.readouterr().out
        assert "distinct points" in out
        assert '"format": 2' in out and '"dlrm"' in out

    def test_show_rejects_empty_designs_spec(self, capsys):
        assert main(["plan", "show", "--designs", ","]) == 1
        assert '--designs needs "all"' in capsys.readouterr().err

    def test_show_shard_ownership(self, capsys):
        assert main(["plan", "show", "--workloads", "dlrm", "--scale", "8",
                     "--shard", "0/2"]) == 0
        assert "shard     : 0/2 — owns" in capsys.readouterr().out

    def test_show_writes_plan_file_that_reloads(self, tmp_path, capsys):
        plan_file = tmp_path / "plan.json"
        assert main(["plan", "show", "--workloads", "dlrm", "--scale", "8",
                     "-o", str(plan_file)]) == 0
        capsys.readouterr()
        assert main(["plan", "show", "--plan", str(plan_file)]) == 0
        assert "dlrm" in capsys.readouterr().out

    def test_bad_shard_spec_exits_1(self, capsys):
        assert main(["plan", "show", "--workloads", "dlrm",
                     "--shard", "zero/two"]) == 1
        assert "bad --shard spec" in capsys.readouterr().err

    def test_grid_plan_records_the_scale(self, capsys):
        # Table I grid plans keep unscaled shapes + the scale knob, so the
        # summary and JSON report the shrink actually applied.
        assert main(["plan", "show", "--workloads", "DLRM-2",
                     "--scale", "8"]) == 0
        out = capsys.readouterr().out
        assert "scale     : 1/8" in out
        assert '"scale": 8' in out

    def test_axis_flags_conflict_with_plan_file(self, tmp_path, capsys):
        plan_file = tmp_path / "plan.json"
        assert main(["plan", "show", "--workloads", "dlrm", "--scale", "8",
                     "-o", str(plan_file)]) == 0
        capsys.readouterr()
        assert main(["plan", "show", "--plan", str(plan_file),
                     "--workloads", "bogus-model", "--scale", "2"]) == 1
        err = capsys.readouterr().err
        assert "cannot amend a plan file" in err
        assert "--workloads" in err and "--scale" in err

    def test_default_valued_axis_flags_also_conflict_with_plan_file(
        self, tmp_path, capsys
    ):
        # Explicitly typing a flag at its default value must still be
        # caught — the user asked for table1, the file says dlrm.
        plan_file = tmp_path / "plan.json"
        assert main(["plan", "show", "--workloads", "dlrm", "--scale", "8",
                     "-o", str(plan_file)]) == 0
        capsys.readouterr()
        assert main(["plan", "show", "--plan", str(plan_file),
                     "--workloads", "table1"]) == 1
        assert "cannot amend a plan file" in capsys.readouterr().err

    def test_out_of_range_shard_exits_1(self, capsys):
        assert main(["plan", "show", "--workloads", "dlrm",
                     "--shard", "2/2"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_suite_exits_1(self, capsys):
        assert main(["plan", "show", "--workloads", "bogus-model,dlrm"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_workloads_rejected_for_adhoc_gemm(self, tmp_path, capsys):
        # The plan would hold only the ad-hoc GEMM; no file may be written.
        plan_file = tmp_path / "plan.json"
        assert main(["plan", "show", "--m", "64", "--n", "64", "--k", "64",
                     "--workloads", "bert-base", "-o", str(plan_file)]) == 1
        assert "mutually exclusive" in capsys.readouterr().err
        assert not plan_file.exists()


class TestPlanRunAndMerge:
    ARGS = ["--workloads", "dlrm", "--scale", "8", "--designs",
            "rasa-dmdb-wls", "--no-cache"]

    def test_full_run_prints_suite_table(self, capsys):
        assert main(["plan", "run"] + self.ARGS) == 0
        out = capsys.readouterr().out
        assert "suite sweep" in out and "dlrm" in out
        assert "simulated" in out

    def test_every_command_prints_one_dedup_figure(self, tmp_path, capsys):
        # 9 dlrm GEMMs on 6 distinct points, on the design and the baseline.
        figure = "12 distinct points for 18 suite GEMM runs (1.5x dedup)"
        shards = [str(tmp_path / f"s{index}.json") for index in range(2)]
        for index, path in enumerate(shards):
            assert main(["plan", "run"] + self.ARGS
                        + ["--shard", f"{index}/2", "-o", path]) == 0
        capsys.readouterr()
        show = [arg for arg in self.ARGS if arg != "--no-cache"]
        for argv in (["sweep"] + self.ARGS, ["plan", "show"] + show,
                     ["plan", "run"] + self.ARGS, ["plan", "merge", *shards]):
            assert main(argv) == 0
            assert figure in capsys.readouterr().out, argv

    def test_two_shards_merge_bit_identical_to_single_shot(
        self, tmp_path, capsys
    ):
        s0, s1 = tmp_path / "s0.json", tmp_path / "s1.json"
        full, merged = tmp_path / "full.json", tmp_path / "merged.json"
        assert main(["plan", "run"] + self.ARGS
                    + ["--shard", "0/2", "-o", str(s0)]) == 0
        assert main(["plan", "run"] + self.ARGS
                    + ["--shard", "1/2", "-o", str(s1)]) == 0
        assert main(["plan", "run"] + self.ARGS + ["-o", str(full)]) == 0
        capsys.readouterr()
        assert main(["plan", "merge", str(s0), str(s1),
                     "-o", str(merged)]) == 0
        out = capsys.readouterr().out
        assert "merged 2 report(s)" in out
        assert merged.read_text() == full.read_text()  # bit-identical

    def test_shard_run_prints_partial_summary(self, tmp_path, capsys):
        out_file = tmp_path / "s1.json"
        assert main(["plan", "run"] + self.ARGS
                    + ["--shard", "1/2", "-o", str(out_file)]) == 0
        out = capsys.readouterr().out
        assert "shard 1/2" in out and "of 12 distinct points" in out

    def test_shard_run_without_any_result_sink_refused(self, capsys):
        # --no-cache and no -o would simulate the shard and throw it away.
        assert main(["plan", "run"] + self.ARGS + ["--shard", "1/2"]) == 1
        assert "discards its results" in capsys.readouterr().err

    def test_shard_run_with_cache_needs_no_output_file(self, tmp_path, capsys):
        assert main(["plan", "run", "--workloads", "dlrm", "--scale", "8",
                     "--designs", "rasa-dmdb-wls", "--shard", "0/2",
                     "--cache-dir", str(tmp_path)]) == 0
        assert "shard 0/2" in capsys.readouterr().out

    def test_run_honors_cache(self, tmp_path, capsys):
        argv = ["plan", "run", "--workloads", "dlrm", "--scale", "8",
                "--designs", "rasa-dmdb-wls", "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "12 simulated, 0 cached" in cold
        assert main(argv) == 0
        assert "0 simulated, 12 cached" in capsys.readouterr().out

    def test_run_loaded_plan_file(self, tmp_path, capsys):
        plan_file = tmp_path / "plan.json"
        assert main(["plan", "show", "--workloads", "dlrm", "--scale", "8",
                     "--designs", "rasa-dmdb-wls", "-o", str(plan_file)]) == 0
        capsys.readouterr()
        assert main(["plan", "run", "--plan", str(plan_file),
                     "--no-cache"]) == 0
        assert "suite sweep" in capsys.readouterr().out

    def test_baseline_less_plan_prints_raw_cycles(self, tmp_path, capsys):
        # A hand-built plan may omit 'baseline'; cells and title must then
        # report raw cycles, not claim normalization.
        from repro.runtime import SweepPlan

        plan = SweepPlan(designs=("rasa-dmdb-wls",), suites=("dlrm",), scale=8)
        plan_file = tmp_path / "plan.json"
        plan_file.write_text(plan.to_json())
        assert main(["plan", "run", "--plan", str(plan_file),
                     "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "end-to-end cycles, fidelity=fast" in out
        assert "normalized to baseline" not in out
        assert "(" not in out.splitlines()[2]  # raw cycle cells, no ratio
        json.loads(plan.to_json())  # and the file we ran was valid JSON

    def test_missing_plan_file_exits_1(self, capsys):
        assert main(["plan", "run", "--plan", "/nonexistent/plan.json"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_malformed_plan_file_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["plan", "run", "--plan", str(bad)]) == 1
        assert "malformed plan JSON" in capsys.readouterr().err

    def test_merge_missing_shard_exits_1(self, tmp_path, capsys):
        s0 = tmp_path / "s0.json"
        assert main(["plan", "run"] + self.ARGS
                    + ["--shard", "0/2", "-o", str(s0)]) == 0
        capsys.readouterr()
        assert main(["plan", "merge", str(s0)]) == 1
        assert "missing" in capsys.readouterr().err

    def test_merge_malformed_report_exits_1(self, tmp_path, capsys):
        s0, s1 = tmp_path / "s0.json", tmp_path / "s1.json"
        for index, path in enumerate((s0, s1)):
            assert main(["plan", "run"] + self.ARGS
                        + ["--shard", f"{index}/2", "-o", str(path)]) == 0
        doc = json.loads(s0.read_text())
        doc["report"]["results"] = []
        s0.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["plan", "merge", str(s0), str(s1)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: malformed report JSON")
        assert "Traceback" not in err

    def test_merge_null_cycles_report_exits_1(self, tmp_path, capsys):
        """A mistyped result field is refused at decode, not in the merge."""
        s0, s1 = tmp_path / "s0.json", tmp_path / "s1.json"
        for index, path in enumerate((s0, s1)):
            assert main(["plan", "run"] + self.ARGS
                        + ["--shard", f"{index}/2", "-o", str(path)]) == 0
        doc = json.loads(s0.read_text())
        results = doc["report"]["results"]
        results[sorted(results)[0]]["cycles"] = None
        s0.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["plan", "merge", str(s0), str(s1)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: malformed report JSON")
        assert len(err.splitlines()) == 1

    def test_merge_mismatched_plans_exits_1(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["plan", "run"] + self.ARGS + ["-o", str(a)]) == 0
        assert main(["plan", "run", "--workloads", "training", "--scale", "8",
                     "--no-cache", "-o", str(b)]) == 0
        capsys.readouterr()
        assert main(["plan", "merge", str(a), str(b)]) == 1
        assert "different plans" in capsys.readouterr().err


class TestAsmRoundtrip:
    def test_asm_disasm(self, tmp_path, capsys):
        source = tmp_path / "k.rasa"
        source.write_text(
            "rasa_tl treg0, ptr[0x1000]\n"
            "rasa_tl treg4, ptr[0x2000]\n"
            "rasa_tl treg6, ptr[0x3000]\n"
            "rasa_mm treg0, treg6, treg4\n"
            "rasa_ts ptr[0x1000], treg0\n"
        )
        trace = tmp_path / "k.jsonl"
        assert main(["asm", str(source), str(trace)]) == 0
        assert trace.exists()
        capsys.readouterr()
        assert main(["disasm", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "rasa_mm treg0, treg6, treg4" in out

    def test_missing_file(self, capsys):
        assert main(["disasm", "/nonexistent/trace.jsonl"]) == 1
        assert "error" in capsys.readouterr().err

    def test_bad_assembly(self, tmp_path, capsys):
        source = tmp_path / "bad.rasa"
        source.write_text("frobnicate treg0\n")
        assert main(["asm", str(source), str(tmp_path / "out.jsonl")]) == 1
        assert "unknown mnemonic" in capsys.readouterr().err


def test_module_entry_point():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "repro", "designs"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert "baseline" in proc.stdout
