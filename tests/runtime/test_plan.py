"""SweepPlan semantics: validation, expansion, JSON round-trip, sharding."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.cpu.config import CoreConfig
from repro.engine.designs import DESIGNS
from repro.errors import ConfigError, ExperimentError
from repro.runtime import PLAN_FORMAT, Session, SweepJob, SweepPlan, SweepReport
from repro.runtime.registry import FIDELITIES
from repro.workloads.codegen import CodegenOptions
from repro.workloads.gemm import GemmShape
from repro.workloads.suites import SUITES, WorkloadSuite, get_suite
from repro.workloads.tiling import BlockingConfig, MMOrder

SMALL = GemmShape(64, 64, 64, name="small")
TALL = GemmShape(128, 32, 64, name="tall")


def grid_plan(**overrides) -> SweepPlan:
    kwargs = dict(
        designs=("baseline", "rasa-dmdb-wls"),
        workloads=(("small", SMALL), ("tall", TALL)),
    )
    kwargs.update(overrides)
    return SweepPlan(**kwargs)


def suite_plan(**overrides) -> SweepPlan:
    kwargs = dict(designs=("baseline", "rasa-wlbp"), suites=("dlrm",), scale=8)
    kwargs.update(overrides)
    return SweepPlan(**kwargs)


class TestValidation:
    def test_no_work_rejected(self):
        with pytest.raises(ExperimentError, match="declares no work"):
            SweepPlan(designs=("baseline",))

    def test_workloads_without_designs_rejected(self):
        with pytest.raises(ExperimentError, match="at least one design"):
            SweepPlan(workloads=(("small", SMALL),))

    def test_unknown_design_rejected(self):
        with pytest.raises(ConfigError, match="unknown design"):
            grid_plan(designs=("baseline", "bogus"))

    @pytest.mark.parametrize("fidelity", [None, ["fast"]], ids=["none", "unhashable"])
    def test_non_name_fidelity_rejected(self, fidelity):
        with pytest.raises(ExperimentError, match="unknown fidelity"):
            grid_plan(fidelity=fidelity)

    def test_unhashable_design_rejected(self):
        """A list key raised a bare ``TypeError: unhashable type: 'list'``."""
        with pytest.raises(ConfigError, match="unknown design"):
            grid_plan(designs=(["baseline"],))

    @pytest.mark.parametrize("entry", [("x2",), ("x3", SMALL, TALL), "ab", SMALL])
    def test_workload_entries_must_be_name_shape_pairs(self, entry):
        """``("x2",)`` raised a bare ``ValueError`` from tuple unpacking."""
        with pytest.raises(ExperimentError, match=r"\(name, GemmShape\) pairs"):
            grid_plan(workloads=(entry,))

    def test_duplicate_designs_rejected(self):
        with pytest.raises(ExperimentError, match="duplicates: baseline"):
            grid_plan(designs=("baseline", "baseline"))

    def test_duplicate_workload_names_rejected(self):
        with pytest.raises(ExperimentError, match="duplicates: small"):
            grid_plan(workloads=(("small", SMALL), ("small", TALL)))

    def test_unknown_suite_rejected(self):
        with pytest.raises(ExperimentError, match="unknown workload suite"):
            suite_plan(suites=("bogus",))

    def test_duplicate_suite_names_rejected(self):
        with pytest.raises(ExperimentError, match="duplicates: dlrm"):
            suite_plan(suites=("dlrm", "dlrm"))

    @pytest.mark.parametrize("entry", [SUITES["dlrm"], get_suite("dlrm")])
    def test_suites_are_registered_names_only(self, entry):
        with pytest.raises(ExperimentError, match="unknown workload suite"):
            suite_plan(suites=(entry,))

    def test_batch_and_batches_mutually_exclusive(self):
        with pytest.raises(ExperimentError, match="mutually exclusive"):
            suite_plan(batch=64, batches=(1, 2))

    def test_batch_without_suites_rejected(self):
        with pytest.raises(ExperimentError, match="apply to suite workloads"):
            grid_plan(batch=64)

    @pytest.mark.parametrize("batches,match", [
        ((), "at least one batch"),
        ((0,), "positive integers"),
        ((16, 16), "duplicates: 16"),
    ])
    def test_bad_batch_axes_rejected(self, batches, match):
        with pytest.raises(ExperimentError, match=match):
            suite_plan(batches=batches)

    @pytest.mark.parametrize("scale", [0, -1, 1.5, "4"])
    def test_bad_scale_rejected(self, scale):
        with pytest.raises(ExperimentError, match="scale"):
            suite_plan(scale=scale)

    @pytest.mark.parametrize("knob", ["scale_batch", "scale_spatial"])
    @pytest.mark.parametrize("value", [0, -1, 1.5, "4"])
    def test_bad_role_knobs_rejected(self, knob, value):
        with pytest.raises(ExperimentError, match=knob):
            suite_plan(**{knob: value})

    @pytest.mark.parametrize("knob", ["scale_batch", "scale_spatial"])
    def test_role_knobs_without_suites_rejected(self, knob):
        with pytest.raises(ExperimentError, match="suite workloads only"):
            grid_plan(**{knob: 4})

    def test_workloads_mapping_normalizes_to_items(self):
        assert grid_plan(workloads={"small": SMALL, "tall": TALL}) == grid_plan()

    @pytest.mark.parametrize("core", [None, {}, CodegenOptions()])
    def test_core_must_be_a_core_config(self, core):
        """``core=None`` ran on the default core under other keys, and its
        own ``to_json()`` was refused by ``from_json``."""
        with pytest.raises(ExperimentError, match="core must be a CoreConfig"):
            grid_plan(core=core)

    @pytest.mark.parametrize("codegen", [None, {}, CoreConfig()])
    def test_codegen_must_be_codegen_options(self, codegen):
        """``codegen=None`` constructed, then ``Session.run`` died with an
        ``AttributeError`` on ``None.blocking``."""
        with pytest.raises(ExperimentError, match="codegen must be a CodegenOptions"):
            grid_plan(codegen=codegen)

    @pytest.mark.parametrize("core", [None, {}, CodegenOptions()])
    def test_job_core_must_be_a_core_config(self, core):
        """``SweepJob(core=None)`` ran on the default core under a key of its
        own, so a shared store held one point twice."""
        with pytest.raises(ExperimentError, match="core must be a CoreConfig"):
            SweepJob("baseline", SMALL, core=core)

    @pytest.mark.parametrize("codegen", [None, {}, CoreConfig()])
    def test_job_codegen_must_be_codegen_options(self, codegen):
        """``SweepJob(codegen=None)`` constructed, then its ``key`` died with
        an ``AttributeError`` on ``None.blocking``."""
        with pytest.raises(ExperimentError, match="codegen must be a CodegenOptions"):
            SweepJob("baseline", SMALL, codegen=codegen)


class TestRoleAwareLowering:
    """scale_batch/scale_spatial thread from the plan into suite lowering."""

    def test_scale_spatial_shrinks_conv_suite_rows_only(self):
        plain = suite_plan(suites=("resnet50",), scale=1)
        shrunk = suite_plan(suites=("resnet50",), scale=1, scale_spatial=16)
        plain_suite = plain.built_suites()[0][0]
        shrunk_suite = shrunk.built_suites()[0][0]
        for (label, a), (_, b) in zip(plain_suite.gemms, shrunk_suite.gemms):
            assert b.n == a.n and b.k == a.k
            assert b.m < a.m

    def test_scale_batch_reduces_distinct_key_count_not_identity(self):
        """Knobs change *which* shapes lower, tracked by the cache keys."""
        a = suite_plan(scale_batch=8)
        b = suite_plan()
        assert a.distinct_keys() != b.distinct_keys()

    def test_lowering_config_roundtrips_through_json(self):
        plan = suite_plan(suites=("resnet50",), scale_batch=8, scale_spatial=4)
        decoded = SweepPlan.from_json(plan.to_json())
        assert decoded == plan
        assert decoded.lowering_config().scale_batch == 8
        assert decoded.lowering_config().scale_spatial == 4
        assert decoded.distinct_keys() == plan.distinct_keys()

    def test_knobbed_batch_axis_curves_execute(self):
        plan = suite_plan(
            suites=("resnet50-train",), scale=16, batches=(1, 4),
            scale_batch=8, scale_spatial=8,
        )
        report = Session(workers=1).run(plan)
        curves = report.batch_curves()["resnet50-train"]
        for curve in curves.values():
            assert curve.batches == (1, 4)
            assert all(t.gemm_count == 159 for t in curve.totals)

    def test_sharded_knobbed_plan_merges_bit_identically(self):
        plan = suite_plan(
            suites=("resnet50-train",), scale=16, scale_batch=8, scale_spatial=8
        )
        full = Session(workers=1).run(plan)
        merged = Session(workers=1).run(plan.shard(0, 2)).merge(
            Session(workers=1).run(plan.shard(1, 2))
        )
        assert merged == full
        assert merged.to_json() == full.to_json()


class TestExpansion:
    def test_grid_job_order_is_workload_major(self):
        jobs = list(grid_plan().iter_jobs())
        assert [(j.workload, j.design_key) for j in jobs] == [
            ("small", "baseline"), ("small", "rasa-dmdb-wls"),
            ("tall", "baseline"), ("tall", "rasa-dmdb-wls"),
        ]

    def test_suite_jobs_expand_distinct_entries_only(self):
        plan = SweepPlan(designs=("baseline",), suites=("bert-base",), scale=16)
        jobs = list(plan.iter_jobs())
        assert len(jobs) == 3  # 72 GEMMs, 3 distinct dims
        assert [j.shape.dims for j in jobs] == [
            e.shape.dims for e in get_suite("bert-base", scale=16).distinct()
        ]

    def test_batch_axis_labels_jobs_per_batch(self):
        plan = suite_plan(batches=(1, 64))
        labels = {j.workload for j in plan.iter_jobs()}
        assert any(label.endswith("@b1") for label in labels)
        assert any(label.endswith("@b64") for label in labels)

    def test_distinct_keys_dedup_sub_tile_batches(self):
        collapsed = suite_plan(batches=(1, 2, 4))   # all below one tile block
        spread = suite_plan(batches=(1, 512))
        assert len(collapsed.distinct_keys()) < len(spread.distinct_keys())

    def test_lazy_expansion_runs_nothing(self, monkeypatch):
        # A fidelity must be registered before a plan names it ...
        with pytest.raises(
            ExperimentError,
            match="unknown fidelity 'registered-later'; registered: analytic, fast",
        ):
            grid_plan(fidelity="registered-later")
        # ... and construction + key expansion still build no backend.
        built = []
        monkeypatch.setitem(
            FIDELITIES, "registered-later", lambda *args: built.append(args)
        )
        plan = grid_plan(fidelity="registered-later")
        assert len(plan.distinct_keys()) == 4
        assert built == []

    def test_scale_applies_to_named_workloads(self):
        # The plan serializes the unscaled declaration; expansion shrinks
        # workload shapes with the usual GemmShape.scaled floors.
        jobs = list(grid_plan(workloads={"big": GemmShape(512, 512, 512)},
                              scale=4).iter_jobs())
        assert {j.shape.dims for j in jobs} == {(128, 128, 128)}
        unscaled = list(grid_plan(
            workloads={"big": GemmShape(512, 512, 512)}
        ).iter_jobs())
        assert {j.shape.dims for j in unscaled} == {(512, 512, 512)}

    def test_job_keys_hash_once_and_memoize(self):
        plan = grid_plan()
        assert plan.expanded_jobs() is plan.expanded_jobs()
        assert plan.job_keys() is plan.job_keys()
        assert plan.distinct_keys() is plan.distinct_keys()
        assert plan.job_count() == len(plan.job_keys())
        assert list(plan.iter_jobs()) == list(plan.expanded_jobs())

    def test_built_suites_memoize(self):
        plan = suite_plan(batches=(1, 64))
        assert plan.built_suites() is plan.built_suites()

    def test_distinct_runs_once_per_built_suite(self, monkeypatch):
        # Expansion and every view read the plan's entries, not distinct().
        calls = []
        real = WorkloadSuite.distinct
        monkeypatch.setattr(
            WorkloadSuite, "distinct", lambda suite: calls.append(suite) or real(suite)
        )
        session = Session(workers=1)
        flat = suite_plan(suites=("dlrm", "bert-base"))
        report = session.run(flat)
        report.suite_totals()
        report.suite_layer_cycles()
        curves = suite_plan(batches=(1, 64, 512))
        session.run(curves).batch_curves()
        built = [suite for suite, _ in flat.built_suites() + curves.built_suites()]
        assert len(built) == 5
        assert sorted(map(id, calls)) == sorted(map(id, built))


#: Batches on both sides of the 16-row tile: sub-tile, one tile, one past.
KEY_BATCHES = (1, 8, 16, 17, 64, 512)
ODD_CORE = dataclasses.replace(CoreConfig(), rob_size=224, fetch_width=2)
ODD_CODEGEN = CodegenOptions(
    blocking=BlockingConfig(bm=3, bn=1, mm_order=MMOrder.ALTERNATE),
    scalar_overhead_per_kstep=0,
)


class TestKeyIdentity:
    """``job_keys()`` hashes once per distinct (design, padded dims) point,
    yet equals ``cache_key`` of every job, job for job."""

    @staticmethod
    def assert_keys_are_job_keys(plan):
        jobs = plan.expanded_jobs()
        keys = plan.job_keys()
        assert len(keys) == len(jobs)
        for index, job in enumerate(jobs):
            assert keys[index] == job.key, (index, job)

    @pytest.mark.parametrize("scale", [1, 8])
    @pytest.mark.parametrize("knobbed", [False, True], ids=["defaults", "knobbed"])
    def test_every_suite_along_a_batch_axis(self, scale, knobbed):
        settings = dict(
            scale_batch=4, scale_spatial=2, core=ODD_CORE, codegen=ODD_CODEGEN
        ) if knobbed else {}
        plan = SweepPlan(designs=tuple(DESIGNS), suites=tuple(SUITES),
                         batches=KEY_BATCHES, scale=scale, **settings)
        self.assert_keys_are_job_keys(plan)

    @pytest.mark.parametrize("scale", [1, 8])
    def test_grid_with_renamed_duplicates_and_unaligned_shapes(self, scale):
        workloads = {
            "a": GemmShape(64, 64, 64, name="a"),
            "a-again": GemmShape(64, 64, 64, name="a-again"),
            "anonymous": GemmShape(64, 64, 64),
            "odd": GemmShape(100, 70, 40, name="odd"),
            "odd-padded": GemmShape(112, 80, 64),  # the dims "odd" pads to
            "sub-tile": GemmShape(1, 3, 5, name="tiny"),
            "one-tile": GemmShape(16, 16, 32),
        }
        plan = SweepPlan(designs=tuple(DESIGNS), workloads=workloads, scale=scale,
                         core=ODD_CORE, codegen=ODD_CODEGEN)
        self.assert_keys_are_job_keys(plan)
        assert len(plan.distinct_keys()) < len(plan.job_keys())

    @pytest.mark.parametrize("name", list(SUITES))
    def test_scaled_suites_scale_row_for_row(self, name):
        for batch in KEY_BATCHES:
            suite = SUITES[name].build(batch=batch)
            for factor in (3, 8):
                scaled = suite.scaled(factor)
                assert list(scaled.gemms) == [
                    (label, shape.scaled(factor)) for label, shape in suite.gemms
                ]
                # Rows with one shape share one scaled shape.
                assert len({id(shape) for _, shape in scaled.gemms}) == len(
                    {shape for _, shape in suite.gemms}
                )



class TestJsonRoundTrip:
    @pytest.mark.parametrize("plan_factory", [
        grid_plan,
        suite_plan,
        lambda: suite_plan(batches=(1, 16, 256)),
        lambda: suite_plan(batch=64),
        lambda: suite_plan(suites=("resnet50", "dlrm"), scale_batch=8,
                           scale_spatial=4),
        lambda: grid_plan(core=CoreConfig(rob_size=16, load_ports=1)),
        lambda: grid_plan(
            codegen=CodegenOptions(
                blocking=BlockingConfig(bm=1, bn=2, mm_order=MMOrder.ALTERNATE),
                scalar_overhead_per_kstep=5,
            ),
            fidelity="ooo",
        ),
        lambda: grid_plan().shard(1, 3),
        lambda: suite_plan(batches=(1, 64)).shard(0, 2),
    ])
    def test_round_trip_equality(self, plan_factory):
        plan = plan_factory()
        decoded = SweepPlan.from_json(plan.to_json())
        assert decoded == plan
        assert decoded.distinct_keys() == plan.distinct_keys()
        assert decoded.to_json() == plan.to_json()

    def test_enums_encode_by_value_and_suites_by_name(self):
        plan = suite_plan(codegen=CodegenOptions(
            blocking=BlockingConfig(mm_order=MMOrder.ALTERNATE)
        )).shard(0, 2)
        body = json.loads(plan.to_json())
        assert body["format"] == PLAN_FORMAT == 2
        assert body["plan"]["codegen"]["blocking"]["mm_order"] == "alternate"
        assert body["plan"]["suites"] == ["dlrm"]
        assert body["plan"]["shard_spec"] == [0, 2]

    def test_canonical_json_is_compact_and_sorted(self):
        text = grid_plan().to_json()
        assert ": " not in text and ", " not in text
        keys = list(json.loads(text)["plan"])
        assert keys == sorted(keys)

    def test_round_trip_preserves_distinct_keys(self):
        plan = suite_plan(batches=(1, 64))
        assert SweepPlan.from_json(plan.to_json()).distinct_keys() == \
            plan.distinct_keys()

    def test_malformed_json_rejected(self):
        with pytest.raises(ExperimentError, match="malformed plan JSON"):
            SweepPlan.from_json("{not json")
        with pytest.raises(ExperimentError, match="not a format"):
            SweepPlan.from_json('{"format": 99, "plan": {}}')

    def test_format_1_document_rejected(self):
        raw = json.loads(suite_plan().to_json())
        raw["format"] = 1
        with pytest.raises(ExperimentError, match="not a format-2 plan document"):
            SweepPlan.from_json(json.dumps(raw))

    @pytest.mark.parametrize("path,field", [
        ((), "jobs"),
        ((), "shard"),
        (("core",), "l2_latency"),
        (("codegen", "blocking"), "bk"),
    ])
    def test_unknown_fields_rejected(self, path, field):
        raw = json.loads(suite_plan().to_json())
        section = raw["plan"]
        for key in path:
            section = section[key]
        section[field] = []
        with pytest.raises(ExperimentError,
                           match=f"malformed plan JSON: unknown .*{field}"):
            SweepPlan.from_json(json.dumps(raw))

    def test_misplaced_top_level_field_rejected(self):
        # Beside "plan", not inside it: refused, not loaded as a fast plan.
        raw = json.loads(grid_plan().to_json())
        raw["fidelity"] = "ooo"
        with pytest.raises(ExperimentError,
                           match="malformed plan document: unknown field.*fidelity"):
            SweepPlan.from_json(json.dumps(raw))

    @pytest.mark.parametrize("field,value", [
        ("designs", "baseline"),
        ("workloads", [["small", [64, 64, 64]]]),
        ("shard_spec", [0, 1, 2]),
        ("codegen", {"blocking": {"mm_order": "sideways"}}),
        ("core", []),
    ])
    def test_mistyped_fields_rejected(self, field, value):
        raw = json.loads(grid_plan().to_json())
        raw["plan"][field] = value
        with pytest.raises(ExperimentError, match="malformed plan JSON"):
            SweepPlan.from_json(json.dumps(raw))


class TestSharding:
    def test_partition_is_disjoint_and_exhaustive(self):
        plan = suite_plan(batches=(1, 64, 512))
        full = set(plan.distinct_keys())
        shards = [set(plan.shard(i, 3).shard_keys()) for i in range(3)]
        assert set().union(*shards) == full
        assert sum(len(s) for s in shards) == len(full)  # pairwise disjoint

    def test_partition_is_deterministic(self):
        a = suite_plan(batches=(1, 64)).shard(0, 2).shard_keys()
        b = suite_plan(batches=(1, 64)).shard(0, 2).shard_keys()
        assert a == b

    def test_partition_is_balanced_by_construction(self):
        plan = suite_plan()
        sizes = [len(plan.shard(i, 4).shard_keys()) for i in range(4)]
        assert max(sizes) - min(sizes) <= 1

    def test_single_shard_owns_everything(self):
        plan = grid_plan()
        assert set(plan.shard(0, 1).shard_keys()) == set(plan.distinct_keys())

    def test_shard_of_shard_rejected(self):
        with pytest.raises(ExperimentError, match="already shard 0/2"):
            grid_plan().shard(0, 2).shard(0, 2)

    @pytest.mark.parametrize("index,count", [(2, 2), (-1, 2), (0, 0)])
    def test_out_of_range_shard_rejected(self, index, count):
        with pytest.raises(ExperimentError, match="shard index"):
            grid_plan().shard(index, count)

    def test_unsharded_strips_the_annotation(self):
        plan = grid_plan()
        assert plan.shard(1, 2).unsharded() == plan


class TestReportViews:
    @pytest.fixture(scope="class")
    def session(self):
        return Session(workers=1)

    def test_partial_report_refuses_views(self, session):
        report = session.run(grid_plan().shard(0, 2))
        with pytest.raises(ExperimentError, match="merge all 2 shard"):
            report.grid()

    def test_suite_totals_on_batch_plan_redirects(self, session):
        report = session.run(suite_plan(batches=(1, 64)))
        with pytest.raises(ExperimentError, match="batch_curves"):
            report.suite_totals()

    def test_batch_curves_on_plain_plan_redirects(self, session):
        report = session.run(suite_plan())
        with pytest.raises(ExperimentError, match="suite_totals"):
            report.batch_curves()

    def test_grid_aligns_with_iter_jobs(self, session):
        plan = grid_plan()
        report = session.run(plan)
        grid = report.grid()
        for job, key in zip(plan.iter_jobs(), report.job_keys()):
            assert grid[job.workload][job.design_key] == report.results[key]

    def test_report_json_round_trip(self, session):
        report = session.run(suite_plan())
        loaded = SweepReport.from_json(report.to_json())
        assert loaded == report
        assert loaded.suite_totals() == report.suite_totals()

    def test_shard_report_json_round_trip(self, session):
        report = session.run(suite_plan().shard(1, 2))
        assert SweepReport.from_json(report.to_json()) == report


class TestMalformedReports:
    """Report JSON comes from files and the network: refuse bad result sets."""

    @pytest.fixture(scope="class")
    def document(self):
        report = Session(workers=1).run(suite_plan().shard(0, 2))
        return json.loads(report.to_json())

    def _load(self, document, edit):
        raw = json.loads(json.dumps(document))
        edit(raw["report"]["results"], raw["report"])
        return SweepReport.from_json(json.dumps(raw))

    def test_results_list_rejected(self, document):
        def edit(results, body):
            body["results"] = list(results.values())

        with pytest.raises(ExperimentError, match="malformed report JSON"):
            self._load(document, edit)

    def test_missing_key_rejected(self, document):
        def edit(results, body):
            del results[sorted(results)[0]]

        with pytest.raises(ExperimentError, match="miss 1 and add 0"):
            self._load(document, edit)

    def test_extra_key_rejected(self, document):
        def edit(results, body):
            results["0" * 64] = next(iter(results.values()))

        with pytest.raises(ExperimentError, match="miss 0 and add 1"):
            self._load(document, edit)

    @pytest.mark.parametrize("where", ["report document", "report"])
    def test_unknown_field_rejected(self, document, where):
        # Beside "report", or beside "plan" and "results": refused, not dropped.
        raw = json.loads(json.dumps(document))
        (raw if where == "report document" else raw["report"])["note"] = "x"
        with pytest.raises(ExperimentError, match=f"malformed {where}: unknown field.*note"):
            SweepReport.from_json(json.dumps(raw))

    def test_empty_shard_report_rejected(self):
        text = SweepReport(plan=suite_plan().shard(0, 2), results={}).to_json()
        with pytest.raises(ExperimentError, match="malformed report JSON"):
            SweepReport.from_json(text)

    def test_non_object_result_rejected(self, document):
        def edit(results, body):
            results[sorted(results)[0]] = [1, 2, 3]

        with pytest.raises(ExperimentError, match="malformed report JSON"):
            self._load(document, edit)

    @pytest.mark.parametrize(
        "field,value",
        [("cycles", None), ("cycles", "12"), ("cycles", True), ("design", 5)],
        ids=["null-cycles", "string-cycles", "bool-cycles", "numeric-design"],
    )
    def test_mistyped_result_field_rejected(self, document, field, value):
        """Result fields are declared ``int``/``str``: other JSON types fail."""
        def edit(results, body):
            results[sorted(results)[0]][field] = value

        with pytest.raises(ExperimentError, match="malformed report JSON"):
            self._load(document, edit)


class TestMerging:
    @pytest.fixture(scope="class")
    def session(self):
        return Session(workers=1)

    def test_merge_requires_same_plan(self, session):
        a = session.run(grid_plan().shard(0, 2))
        b = session.run(suite_plan().shard(1, 2))
        with pytest.raises(ExperimentError, match="different plans"):
            a.merge(b)

    def test_merge_requires_every_shard(self, session):
        plan = suite_plan()
        a = session.run(plan.shard(0, 3))
        b = session.run(plan.shard(1, 3))
        with pytest.raises(ExperimentError, match="missing"):
            a.merge(b)

    def test_merge_rejects_disagreeing_results(self, session):
        import dataclasses as dc

        plan = grid_plan()
        full = session.run(plan)
        key = next(iter(full.results))
        tampered = SweepReport(
            plan=plan,
            results={
                k: (dc.replace(r, cycles=r.cycles + 1) if k == key else r)
                for k, r in full.results.items()
            },
        )
        with pytest.raises(ExperimentError, match="disagree"):
            full.merge(tampered)
