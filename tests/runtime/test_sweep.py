"""Sweep-execution semantics: dedup, memoization, suite totals, batch curves.

The ``SweepRunner.run_*`` shim family is gone; every sweep is a
:class:`repro.runtime.SweepPlan` run by a :class:`repro.runtime.Session`.
These tests pin the execution semantics the shims used to cover — each
distinct point simulates exactly once, suite totals match brute-force
per-layer oracles that bypass the dedup layer, batch curves match
standalone per-batch runs — plus the ``normalized_runtimes`` /
``geometric_mean`` edge cases the grid consumers rely on.
"""

from __future__ import annotations

import pytest

import repro.runtime.plan as plan_module
from repro.cpu.config import CoreConfig
from repro.cpu.result import SimResult
from repro.engine.designs import DESIGNS
from repro.errors import ExperimentError
from repro.experiments.runner import geometric_mean, normalized_runtimes
from repro.runtime import (
    ResultCache,
    Session,
    SweepJob,
    SweepPlan,
    cached_program,
    run_job,
)
from repro.runtime.registry import FIDELITIES, resolve_backend
from repro.workloads.codegen import generate_gemm_program
from repro.workloads.gemm import GemmShape
from repro.workloads.suites import get_suite

SHAPES = {
    "small": GemmShape(m=64, n=64, k=64, name="small"),
    "tall": GemmShape(m=128, n=32, k=64, name="tall"),
}
DESIGN_KEYS = ("baseline", "rasa-wlbp", "rasa-dmdb-wls")


def _renamed(shape: GemmShape, count: int):
    """``count`` named workloads that all declare ``shape``'s dims."""
    return {
        f"layer{i}": GemmShape(shape.m, shape.n, shape.k, name=f"layer{i}")
        for i in range(count)
    }


def _grid(design_keys=DESIGN_KEYS, shapes=None, workers=1, fidelity="fast",
          cache=None):
    plan = SweepPlan(
        designs=tuple(design_keys),
        workloads=tuple((shapes or SHAPES).items()),
        fidelity=fidelity,
    )
    return Session(cache=cache, workers=workers).run(plan).grid()


@pytest.fixture
def counting_fidelity():
    """Register a backend that records every simulation it executes.

    Runs with ``workers=1`` keep execution in-process, so the shared list
    observes exactly how many simulations a sweep performed.
    """
    calls = []

    class CountingBackend:
        fidelity = "counting-test"

        def __init__(self):
            self._program = None

        def prepare(self, program):
            self._program = program
            return self

        def run(self):
            calls.append(self._program.name)
            return SimResult(
                design="counting",
                program=self._program.name,
                cycles=100 + len(self._program),
                instructions=len(self._program),
                mm_count=1,
                bypass_count=0,
                weight_loads=1,
                engine_busy_cycles=10,
                clock_mhz=2000,
            )

        def simulate(self, program):
            return self.prepare(program).run()

    FIDELITIES["counting-test"] = lambda engine, core: CountingBackend()
    try:
        yield calls
    finally:
        del FIDELITIES["counting-test"]


class TestGridPlans:
    def test_serial_results(self):
        grid = _grid()
        assert set(grid) == set(SHAPES)
        results = [r for per_design in grid.values() for r in per_design.values()]
        assert len(results) == 6
        assert all(isinstance(r, SimResult) for r in results)

    def test_two_names_on_one_shape_share_one_simulation(self, tmp_path):
        cache = ResultCache(tmp_path)
        grid = _grid(["baseline"], _renamed(SHAPES["small"], 2), cache=cache)
        assert grid["layer0"] == grid["layer1"]
        assert len(cache) == 1  # one key, simulated once

    def test_cache_hit_on_second_run(self, tmp_path):
        first = ResultCache(tmp_path)
        cold = _grid(cache=first)
        assert (first.hits, first.misses) == (0, 6)

        warm_cache = ResultCache(tmp_path)
        warm = _grid(cache=warm_cache)
        assert (warm_cache.hits, warm_cache.misses) == (6, 0)
        assert warm == cold

    def test_fidelity_flows_through(self):
        small = {"small": SHAPES["small"]}
        engine = _grid(["rasa-wlbp"], small, fidelity="engine")["small"]
        fast = _grid(["rasa-wlbp"], small)["small"]
        assert engine["rasa-wlbp"].mm_count == fast["rasa-wlbp"].mm_count
        assert engine["rasa-wlbp"].cycles < fast["rasa-wlbp"].cycles

    def test_job_key_distinguishes_core_config(self):
        a = SweepJob(design_key="baseline", shape=SHAPES["small"])
        b = SweepJob(
            design_key="baseline",
            shape=SHAPES["small"],
            core=CoreConfig(rob_size=224),
        )
        assert a.key != b.key

    def test_grid_matches_per_point_runs(self):
        grid = _grid()
        for workload, per_design in grid.items():
            for key, result in per_design.items():
                job = SweepJob(design_key=key, shape=SHAPES[workload])
                assert result == run_job(job)


class TestDedup:
    """Each distinct (design, dims, config, fidelity) point simulates once."""

    def test_duplicate_jobs_simulate_once_uncached(self, counting_fidelity):
        grid = _grid(["baseline"], _renamed(SHAPES["small"], 3),
                     fidelity="counting-test")
        assert len(counting_fidelity) == 1
        assert grid["layer0"] == grid["layer1"] == grid["layer2"]

    def test_identically_dimensioned_names_simulate_once(self, counting_fidelity):
        grid = _grid(["baseline"], _renamed(SHAPES["small"], 5),
                     fidelity="counting-test")
        assert len(counting_fidelity) == 1
        assert len({id(per["baseline"]) for per in grid.values()}) == 1

    def test_distinct_dims_still_simulate_separately(self, counting_fidelity):
        _grid(["baseline"], fidelity="counting-test")
        assert len(counting_fidelity) == 2

    def test_repeated_keys_count_one_cache_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        _grid(["baseline"], _renamed(SHAPES["small"], 4), cache=cache)
        assert (cache.hits, cache.misses) == (0, 1)

    def test_program_memo_is_name_independent(self):
        from repro.workloads.codegen import CodegenOptions

        codegen = CodegenOptions()
        a = cached_program(GemmShape(64, 64, 64, name="enc0.q"), codegen)
        b = cached_program(GemmShape(64, 64, 64, name="enc7.v"), codegen)
        assert a is b


class TestSuiteTotals:
    #: 72 GEMMs on 3 distinct points: 48 projections, 12 FFN-ups, 12 downs.
    SUITE = "bert-base"
    SCALE = 16

    @classmethod
    def _totals(cls, suites, design_keys=DESIGN_KEYS, fidelity="fast", scale=None):
        plan = SweepPlan(
            designs=tuple(design_keys),
            suites=tuple(suites),
            scale=cls.SCALE if scale is None else scale,
            fidelity=fidelity,
        )
        return Session(workers=1).run(plan).suite_totals()

    def test_simulates_distinct_points_only(self, counting_fidelity):
        totals = self._totals([self.SUITE], fidelity="counting-test")[self.SUITE]
        assert len(counting_fidelity) == 3 * len(DESIGN_KEYS)
        for totals_one in totals.values():
            assert totals_one.gemm_count == 72
            assert totals_one.simulations == 3
            assert totals_one.dedup_factor == pytest.approx(24.0)

    def test_aggregation_matches_brute_force_per_layer(self):
        """Oracle independence: per-layer runs bypass the dedup layer.

        Every layer simulates directly through ``resolve_backend`` — not
        a session — so a cache-key conflation or a wrong dedup expansion
        cannot leak into both sides of the comparison.
        """
        totals = self._totals(["dlrm"], scale=8)["dlrm"]
        for key in DESIGN_KEYS:
            per_layer = [
                resolve_backend(key).simulate(generate_gemm_program(shape))
                for _, shape in get_suite("dlrm", scale=8).gemms
            ]
            agg = totals[key]
            assert agg.cycles == sum(r.cycles for r in per_layer)
            assert agg.instructions == sum(r.instructions for r in per_layer)
            assert agg.mm_count == sum(r.mm_count for r in per_layer)
            assert agg.bypass_count == sum(r.bypass_count for r in per_layer)
            assert agg.weight_loads == sum(r.weight_loads for r in per_layer)

    def test_normalized_and_speedup(self):
        totals = self._totals([self.SUITE], ["baseline", "rasa-dmdb-wls"])[
            self.SUITE
        ]
        base = totals["baseline"]
        best = totals["rasa-dmdb-wls"]
        assert base.normalized_to(base) == pytest.approx(1.0)
        assert best.normalized_to(base) < 0.25
        assert best.speedup_over(base) > 4.0

    def test_per_shape_counts_cover_the_multiset(self):
        totals = self._totals([self.SUITE], ["baseline"])[self.SUITE]
        per_shape = totals["baseline"].per_shape
        suite = get_suite(self.SUITE, scale=self.SCALE)
        assert sum(count for _, count, _ in per_shape) == len(suite)
        assert [count for _, count, _ in per_shape] == [48, 12, 12]

    def test_multi_suite_plans_dedup_across_suites(self, counting_fidelity):
        """``training``'s forward passes are ``table1``'s six FC layers."""
        suites = ["table1", "training"]
        totals = self._totals(suites, ["baseline"], fidelity="counting-test")
        padded = [
            {e.shape.tile_padded().dims for e in get_suite(n, scale=self.SCALE).distinct()}
            for n in suites
        ]
        # Shared points simulate once for the whole plan.
        assert len(counting_fidelity) == len(padded[0] | padded[1])
        assert len(counting_fidelity) < len(padded[0]) + len(padded[1])
        assert set(totals) == set(suites)
        assert totals["training"]["baseline"].gemm_count == 18

    def test_duplicate_suite_names_rejected(self):
        with pytest.raises(ExperimentError, match="duplicates: bert-base"):
            self._totals([self.SUITE, self.SUITE], ["baseline"])

    def test_suite_uses_result_cache(self, tmp_path):
        plan = SweepPlan(designs=DESIGN_KEYS, suites=(self.SUITE,), scale=self.SCALE)
        cold = ResultCache(tmp_path)
        first = Session(cache=cold, workers=1).run(plan).suite_totals()
        assert (cold.hits, cold.misses) == (0, 3 * len(DESIGN_KEYS))
        warm = ResultCache(tmp_path)
        second = Session(cache=warm, workers=1).run(plan).suite_totals()
        assert (warm.hits, warm.misses) == (3 * len(DESIGN_KEYS), 0)
        assert first == second


class TestKeyHashing:
    """A run hashes each distinct (design, padded dims) point exactly once.

    Keys are SHA-256 over JSON.  :meth:`SweepPlan.job_keys` gets its hasher
    from ``key_hasher`` through the plan module, so that is where the
    counter hooks in: every hash of a run is one call of the hasher it
    returns.  The session reads the plan's memoized keys for dedup, the
    cache and the report views, so jobs sharing a point share its hash.
    """

    @pytest.fixture
    def hashes(self, monkeypatch):
        calls = []
        real = plan_module.key_hasher

        def counting(*args, **kwargs):
            hasher = real(*args, **kwargs)

            def counted(*point):
                calls.append(point)
                return hasher(*point)

            return counted

        monkeypatch.setattr(plan_module, "key_hasher", counting)
        return calls

    def test_one_cache_key_call_per_job(self, hashes):
        shapes = {**SHAPES, **_renamed(SHAPES["small"], 3)}  # duplicates
        _grid(shapes=shapes)
        points = len(SHAPES) * len(DESIGN_KEYS)  # renamed copies add none
        assert len(hashes) == points < len(shapes) * len(DESIGN_KEYS)
        assert len(set(hashes)) == len(hashes)

    def test_one_cache_key_call_per_job_with_cache(self, tmp_path, hashes):
        _grid(cache=ResultCache(tmp_path))
        assert len(hashes) == len(SHAPES) * len(DESIGN_KEYS)

    def test_sub_tile_batches_hash_one_point(self, hashes, counting_fidelity):
        batches = (1, 2, 4)  # all pad onto one tile row block
        plan = SweepPlan(designs=DESIGN_KEYS, suites=(CURVE_SUITE,),
                         batches=batches, scale=CURVE_SCALE,
                         fidelity="counting-test")
        Session(workers=1).run(plan)
        points = len(_padded_points(batches)) * len(DESIGN_KEYS)
        assert len(hashes) == points == len(plan.distinct_keys())
        assert len(plan.job_keys()) == len(batches) * points


class TestSweepRunnerIsGone:
    """The deprecated shim family is deleted, not just hidden."""

    def test_runtime_no_longer_exports_sweeprunner(self):
        import repro.runtime as runtime

        assert not hasattr(runtime, "SweepRunner")
        assert "SweepRunner" not in runtime.__all__

    def test_top_level_package_no_longer_exports_sweeprunner(self):
        import repro

        assert not hasattr(repro, "SweepRunner")
        assert "SweepRunner" not in repro.__all__

    def test_shim_module_is_deleted(self):
        with pytest.raises(ImportError):
            import repro.runtime.sweep  # noqa: F401


#: The DLRM MLP stacks at scale 8: 9 GEMMs on 6 distinct points per batch.
#: Batches up to 256 floor onto one 32-row tile block; 512 and 1024 don't.
CURVE_SUITE = "dlrm"
CURVE_SCALE = 8


def _curves(design_keys, suite, batches, fidelity="fast", scale=CURVE_SCALE,
            workers=1):
    plan = SweepPlan(
        designs=tuple(design_keys),
        suites=(suite,),
        batches=tuple(batches),
        scale=scale,
        fidelity=fidelity,
    )
    return Session(workers=workers).run(plan).batch_curves()[suite]


def _padded_points(batches):
    """Distinct tile-padded dims of the curve suite over ``batches``."""
    return {
        e.shape.tile_padded().dims
        for batch in batches
        for e in get_suite(CURVE_SUITE, batch=batch, scale=CURVE_SCALE).distinct()
    }


class TestSuiteBatchCurves:
    """The Fig. 7 batch axis at suite granularity, dedup across batches."""

    def test_curve_layout(self):
        curves = _curves(DESIGN_KEYS, CURVE_SUITE, batches=(16, 512))
        assert set(curves) == set(DESIGN_KEYS)
        for design, curve in curves.items():
            assert curve.suite == CURVE_SUITE
            assert curve.design_key == design
            assert curve.batches == (16, 512)
            assert all(t.gemm_count == 9 for t in curve.totals)
            assert all(t.simulations == 6 for t in curve.totals)

    def test_sub_tile_batches_simulate_once(self, counting_fidelity):
        """Batches 1..16 pad to one tile row block: identical streams."""
        batches = (1, 2, 4, 8, 16)
        _curves(["baseline"], CURVE_SUITE, batches=batches,
                fidelity="counting-test")
        # 6 distinct (padded) shapes, once each — not 5 batches x 6 shapes.
        assert len(counting_fidelity) == len(_padded_points(batches)) == 6

    def test_sub_tile_batches_identical_normalized_runtime(self):
        """The Fig. 7 plateau at suite granularity: one lowered stream."""
        curves = _curves(
            ["baseline", "rasa-dmdb-wls"], CURVE_SUITE, batches=(1, 2, 4, 8, 16)
        )
        normalized = curves["rasa-dmdb-wls"].normalized_to(curves["baseline"])
        values = set(normalized.values())
        assert len(values) == 1
        assert 0.0 < values.pop() < 1.0

    def test_matches_per_batch_suite_oracle(self, counting_fidelity):
        """Curve points == standalone per-batch runs, with fewer simulations.

        The oracle runs each batch as its own single-batch (``batch=``)
        plan in a fresh session, so the cross-batch dedup cannot leak
        into both sides; totals must agree on every weighted counter.
        """
        batches = (1, 16, 512, 1024)
        curves = _curves(
            DESIGN_KEYS, CURVE_SUITE, batches=batches, fidelity="counting-test"
        )
        curve_simulations = len(counting_fidelity)
        oracle_simulations = 0
        for batch in batches:
            before = len(counting_fidelity)
            oracle_plan = SweepPlan(
                designs=DESIGN_KEYS,
                suites=(CURVE_SUITE,),
                batch=batch,
                scale=CURVE_SCALE,
                fidelity="counting-test",
            )
            oracle = Session(workers=1).run(oracle_plan).suite_totals()[CURVE_SUITE]
            oracle_simulations += len(counting_fidelity) - before
            for design in DESIGN_KEYS:
                point = curves[design].totals_by_batch()[batch]
                assert point.cycles == oracle[design].cycles
                assert point.instructions == oracle[design].instructions
                assert point.mm_count == oracle[design].mm_count
                assert point.bypass_count == oracle[design].bypass_count
                assert point.weight_loads == oracle[design].weight_loads
                assert point.gemm_count == oracle[design].gemm_count
        # Strictly fewer simulations than batches x distinct shapes: the
        # sub-tile batches (1, 16) collapsed onto one padded point set.
        assert oracle_simulations == len(batches) * 6 * len(DESIGN_KEYS)
        assert curve_simulations == len(_padded_points(batches)) * len(DESIGN_KEYS)
        assert curve_simulations == 3 * 6 * len(DESIGN_KEYS)

    def test_accepts_registered_suite_names(self, counting_fidelity):
        curves = _curves(["baseline"], "bert-base", batches=(64,),
                         fidelity="counting-test", scale=16)
        assert curves["baseline"].suite == "bert-base"
        assert curves["baseline"].totals[0].gemm_count == 72

    def test_unknown_suite_name_rejected(self):
        with pytest.raises(ExperimentError, match="unknown workload suite"):
            _curves(["baseline"], "bogus", batches=(1,))

    def test_duplicate_batches_rejected(self):
        with pytest.raises(ExperimentError, match="duplicates: 16"):
            _curves(["baseline"], CURVE_SUITE, batches=(16, 64, 16))

    def test_empty_batches_rejected(self):
        with pytest.raises(ExperimentError, match="at least one batch"):
            _curves(["baseline"], CURVE_SUITE, batches=())

    @pytest.mark.parametrize("batch", [0, -4, 1.5, "16"])
    def test_non_positive_batches_rejected(self, batch):
        with pytest.raises(ExperimentError, match="positive integers"):
            _curves(["baseline"], CURVE_SUITE, batches=(batch,))

    def test_normalize_rejects_mismatched_batch_axes(self):
        a = _curves(["baseline"], CURVE_SUITE, batches=(16,))
        b = _curves(["baseline"], CURVE_SUITE, batches=(512,))
        with pytest.raises(ExperimentError, match="do not match"):
            a["baseline"].normalized_to(b["baseline"])


class TestZeroCycleGuards:
    """Degenerate zero-cycle/zero-energy aggregates raise, never return 0.0."""

    @staticmethod
    def _totals(cycles, suite="toy-model", design="baseline"):
        from repro.runtime.plan import SuiteTotals

        return SuiteTotals(
            suite=suite, design_key=design, gemm_count=1, simulations=1,
            cycles=cycles, instructions=0, mm_count=0, bypass_count=0,
            weight_loads=0, per_shape=(),
        )

    def test_normalized_to_zero_cycle_baseline_raises(self):
        with pytest.raises(ExperimentError, match="'baseline'.*zero cycles"):
            self._totals(100).normalized_to(self._totals(0))

    def test_speedup_of_zero_cycle_suite_raises(self):
        with pytest.raises(ExperimentError, match="'rasa-wlbp'.*zero cycles"):
            self._totals(0, design="rasa-wlbp").speedup_over(self._totals(100))

    def test_healthy_totals_unaffected(self):
        assert self._totals(50).normalized_to(self._totals(100)) == 0.5
        assert self._totals(50).speedup_over(self._totals(100)) == 2.0


class TestGridEdgeCases:
    def test_normalized_runtimes_empty_grid(self):
        assert normalized_runtimes({}) == {}

    def test_normalized_runtimes_missing_baseline(self):
        grid = _grid(["rasa-wlbp"])
        with pytest.raises(ExperimentError, match="no baseline"):
            normalized_runtimes(grid)

    def test_normalized_runtimes_custom_baseline(self):
        grid = _grid(["rasa-wlbp"])
        table = normalized_runtimes(grid, baseline_key="rasa-wlbp")
        for per_design in table.values():
            assert per_design["rasa-wlbp"] == pytest.approx(1.0)

    def test_geometric_mean_empty(self):
        assert geometric_mean([]) == 0.0

    def test_geometric_mean_values(self):
        assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)

    def test_full_design_registry_grid(self):
        """Every registered design runs through the session unchanged."""
        grid = _grid(DESIGNS, {"small": SHAPES["small"]})
        normalized = normalized_runtimes(grid)["small"]
        assert normalized["baseline"] == pytest.approx(1.0)
        assert normalized["rasa-dmdb-wls"] < 0.25
