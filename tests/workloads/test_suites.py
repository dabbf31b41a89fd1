"""WorkloadSuite tests: multiset semantics, registry, batch/scale overrides.

``data/suite_golden.json`` pins the exact (label, m, n, k) multiset and
the distinct-point cache keys of every pre-IR suite, captured on main
*before* the op-level refactor: the op lowering pipeline must reproduce
each suite bit for bit, or warm result caches (and the paper numbers)
would silently shift.
"""

from __future__ import annotations

import collections
import json
from pathlib import Path

import pytest

from repro.cpu.config import CoreConfig
from repro.errors import WorkloadError
from repro.runtime.cache import cache_key
from repro.workloads.codegen import CodegenOptions
from repro.workloads.gemm import GemmShape
from repro.workloads.ops import LoweringConfig
from repro.workloads.suites import SUITES, WorkloadSuite, get_suite, suite_names

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "suite_golden.json").read_text()
)


class TestWorkloadSuite:
    def test_multiset_orders_and_counts(self):
        suite = WorkloadSuite(
            "toy",
            gemms=(
                ("a", GemmShape(64, 64, 64, name="a")),
                ("b", GemmShape(128, 64, 64, name="b")),
                ("c", GemmShape(64, 64, 64, name="c")),  # duplicate dims of "a"
            ),
        )
        assert len(suite) == 3
        distinct = suite.distinct()
        assert [(e.shape.dims, e.count) for e in distinct] == [
            ((64, 64, 64), 2),
            ((128, 64, 64), 1),
        ]
        assert distinct[0].layers == ("a", "c")
        assert distinct[0].shape.name == "a"  # first-occurrence representative
        assert suite.dedup_factor == pytest.approx(1.5)

    def test_empty_suite_rejected(self):
        with pytest.raises(WorkloadError, match="no GEMMs"):
            WorkloadSuite("empty", gemms=())

    def test_empty_ops_rejected(self):
        with pytest.raises(WorkloadError, match="no ops"):
            WorkloadSuite.from_ops("empty", [])

    def test_scaled_shrinks_every_shape(self):
        suite = get_suite("dlrm").scaled(4)
        for _, shape in suite.gemms:
            assert shape.m <= 512
        assert get_suite("dlrm", scale=4).as_dict() == suite.as_dict()

    def test_total_macs_counts_duplicates(self):
        suite = WorkloadSuite(
            "toy",
            gemms=(
                ("a", GemmShape(64, 64, 64, name="a")),
                ("b", GemmShape(64, 64, 64, name="b")),
            ),
        )
        assert suite.total_macs == 2 * 64 ** 3


class TestScaleMergeRegression:
    """``scaled`` may merge distinct labels onto one floored shape; the
    dedup view must re-aggregate counts exactly (regression: the factor
    was only revalidated lazily)."""

    #: 96^3 and 64^3 both floor to (32, 32, 32) at factor 4 (the 2-tile
    #: m/n floors and the 1-tile k floor); 512^3 stays distinct.
    SUITE = WorkloadSuite(
        "mergy",
        gemms=(
            ("a", GemmShape(96, 96, 96, name="a")),
            ("b", GemmShape(64, 64, 64, name="b")),
            ("c", GemmShape(512, 512, 512, name="c")),
            ("d", GemmShape(96, 96, 96, name="d")),
        ),
    )

    def test_distinct_counts_match_unscaled_oracle_aggregation(self):
        """Scaled distinct() == independently scaling each label's shape.

        The oracle never uses WorkloadSuite: it scales every (label,
        shape) pair through ``GemmShape.scaled`` alone and aggregates
        with a Counter, so a wrong suite-side merge cannot cancel out.
        """
        factor = 4
        scaled = self.SUITE.scaled(factor)
        oracle = collections.Counter(
            shape.scaled(factor).dims for _, shape in self.SUITE.gemms
        )
        got = {e.shape.dims: e.count for e in scaled.distinct()}
        assert got == dict(oracle)
        # Labels "a", "b", "d" merged onto one floored point.
        assert got[(32, 32, 32)] == 3
        assert len(scaled.distinct()) == 2

    def test_merge_preserves_total_weight_and_labels(self):
        scaled = self.SUITE.scaled(4)
        distinct = scaled.distinct()
        assert sum(e.count for e in distinct) == len(self.SUITE)
        merged = next(e for e in distinct if e.count == 3)
        assert merged.layers == ("a", "b", "d")
        assert scaled.dedup_factor == pytest.approx(len(self.SUITE) / 2)

    def test_registered_suite_scale_merge_against_oracle(self):
        """The same invariant on a real catalog (dlrm at heavy scale)."""
        factor = 16
        scaled = get_suite("dlrm", scale=factor)
        oracle = collections.Counter(
            shape.scaled(factor).dims for _, shape in get_suite("dlrm").gemms
        )
        assert {e.shape.dims: e.count for e in scaled.distinct()} == dict(oracle)


class TestGoldenSuites:
    """Every pre-IR suite reproduces its captured multiset bit for bit."""

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_multiset_is_byte_identical_to_main(self, name):
        suite = get_suite(name)
        got = [[label, shape.m, shape.n, shape.k] for label, shape in suite.gemms]
        want = [[label, m, n, k] for label, m, n, k, _ in GOLDEN[name]["gemms"]]
        assert got == want

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_distinct_cache_keys_unchanged(self, name):
        """The dedup keys — label-free, tile-padded SHA-256 — are frozen.

        This is what keeps warm result caches valid across the IR
        refactor: the keys were captured with the pre-IR factories.
        """
        core, codegen = CoreConfig(), CodegenOptions()
        suite = get_suite(name)
        got = [
            {
                "dims": list(entry.shape.dims),
                "count": entry.count,
                "key": cache_key("baseline", entry.shape, core, codegen, "fast"),
            }
            for entry in suite.distinct()
        ]
        assert got == GOLDEN[name]["distinct"]


class TestRegistry:
    def test_registry_names(self):
        assert suite_names() == [
            "table1", "resnet50", "bert-base", "bert-full", "dlrm",
            "training", "resnet50-train",
        ]

    def test_unknown_suite(self):
        with pytest.raises(WorkloadError, match="unknown workload suite"):
            get_suite("alexnet")

    def test_bert_base_collapses_72_to_3(self):
        suite = get_suite("bert-base")
        assert len(suite) == 72
        distinct = suite.distinct()
        assert len(distinct) == 3
        # 12 layers x 4 identically-shaped projections each.
        assert distinct[0].count == 48
        assert suite.dedup_factor == pytest.approx(24.0)

    def test_resnet50_full_catalog(self):
        suite = get_suite("resnet50")
        assert len(suite) == 53
        assert len(suite.distinct()) < len(suite)  # bottleneck blocks repeat

    def test_table1_matches_layer_catalog(self):
        from repro.workloads.layers import table1_gemms

        assert get_suite("table1").as_dict() == table1_gemms()

    def test_training_covers_three_passes_per_fc(self):
        suite = get_suite("training")
        assert len(suite) == 18  # six Table I FC layers x fwd/dgrad/wgrad
        labels = [label for label, _ in suite.gemms]
        assert "DLRM-1-forward" in labels and "BERT-3-wgrad" in labels

    def test_batch_override(self):
        small = get_suite("dlrm", batch=64)
        assert all(shape.m == 64 for _, shape in small.gemms)
        tokens = get_suite("bert-base", batch=128)
        assert all(shape.m == 128 for _, shape in tokens.gemms)

    def test_batch_override_table1_rebatches_convs_and_fcs(self):
        suite = get_suite("table1", batch=8)
        gemms = suite.as_dict()
        assert gemms["DLRM-1"].m == 8
        assert gemms["ResNet50-1"].m == 8 * 56 * 56

    def test_bad_batch_rejected(self):
        with pytest.raises(Exception):
            get_suite("dlrm", batch=0)

    def test_specs_have_descriptions(self):
        for name, spec in SUITES.items():
            assert spec.name == name
            assert spec.description

    def test_op_composition_per_suite(self):
        """The ``repro models`` listing data: op kinds per registered suite."""
        comp = {name: SUITES[name].op_composition() for name in SUITES}
        assert comp["table1"] == {"conv-fwd": 3, "fc-fwd": 6}
        assert comp["resnet50"] == {"conv-fwd": 53}
        assert comp["bert-base"] == {"fc-fwd": 72}
        assert comp["bert-full"] == {"fc-fwd": 72, "batched-matmul": 24}
        assert comp["dlrm"] == {"fc-fwd": 9}
        assert comp["training"] == {"fc-fwd": 6, "fc-dgrad": 6, "fc-wgrad": 6}
        assert comp["resnet50-train"] == {
            "conv-fwd": 53, "conv-dgrad": 53, "conv-wgrad": 53,
        }


class TestBertFullSuite:
    def test_attention_rides_on_top_of_bert_base(self):
        base = get_suite("bert-base")
        full = get_suite("bert-full")
        # 72 projections/FFNs + 12 layers x 2 matmuls x (12 heads x 2 seqs).
        assert len(full) == 72 + 576
        assert set(base.as_dict()) <= set(full.as_dict())

    def test_head_batched_attention_collapses_to_two_points(self):
        full = get_suite("bert-full")
        distinct = full.distinct()
        assert len(distinct) == 5  # 3 projection/FFN + score + context
        by_dims = {e.shape.dims: e for e in distinct}
        score = by_dims[(128, 128, 64)]
        context = by_dims[(128, 64, 128)]
        assert score.count == 288 and context.count == 288
        # 24 attention op labels (12 layers x 2), each repeated per head/seq.
        assert len(set(score.layers)) == 12
        assert len(set(context.layers)) == 12

    def test_network_order_interleaves_attention(self):
        labels = [label for label, _ in get_suite("bert-full").gemms]
        v = labels.index("enc0.v")
        assert labels[v + 1] == "enc0.attn_score"
        assert labels.index("enc0.attn_ctx") < labels.index("enc0.attn_out")

    def test_rebatching_scales_sequences(self):
        full = get_suite("bert-full", batch=512)
        score = next(
            e for e in full.distinct() if e.shape.dims == (128, 128, 64)
        )
        assert score.count == 12 * 4 * 12  # heads x sequences x layers


class TestResnet50TrainSuite:
    def test_three_passes_per_conv(self):
        suite = get_suite("resnet50-train")
        assert len(suite) == 3 * 53
        labels = [label for label, _ in suite.gemms]
        assert "conv1-fwd" in labels
        assert "conv3_2b-dgrad" in labels
        assert "conv5_3c-wgrad" in labels

    def test_fwd_shapes_match_inference_catalog(self):
        train = get_suite("resnet50-train").as_dict()
        for label, shape in get_suite("resnet50").gemms:
            assert train[f"{label}-fwd"].dims == shape.dims

    def test_wgrad_streams_filter_taps(self):
        gemms = get_suite("resnet50-train").as_dict()
        # conv2_1b: 3x3 over 64 channels, 64 filters, 56x56 at batch 32.
        assert gemms["conv2_1b-wgrad"].dims == (64 * 9, 64, 32 * 56 * 56)
        assert gemms["conv2_1b-dgrad"].dims == (32 * 56 * 56, 64, 64 * 9)


class TestLoweringKnobs:
    def test_scale_spatial_keeps_channels(self):
        plain = get_suite("resnet50").as_dict()
        shrunk = get_suite(
            "resnet50", lowering=LoweringConfig(scale_spatial=16)
        ).as_dict()
        for label, shape in shrunk.items():
            assert shape.n == plain[label].n           # filters untouched
            assert shape.k == plain[label].k           # C*R*S untouched
            assert shape.m < plain[label].m            # spatial product shrank

    def test_scale_batch_composes_with_generic_scale(self):
        suite = get_suite(
            "dlrm", scale=2, lowering=LoweringConfig(scale_batch=8)
        )
        # batch 512 -> 64 at lowering, then generic /2 with the tile floors.
        assert all(shape.m == 32 for _, shape in suite.gemms)

    def test_bert_full_scale_spatial_shrinks_attention_only(self):
        full = get_suite("bert-full", lowering=LoweringConfig(scale_spatial=8))
        dims = {e.shape.dims for e in full.distinct()}
        assert (16, 16, 64) in dims      # score seq axes shrank
        assert (16, 64, 16) in dims      # context seq axes shrank
        assert (256, 768, 768) in dims   # projections untouched
