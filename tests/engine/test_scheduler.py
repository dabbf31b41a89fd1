"""Tests for the sub-stage scheduler: the heart of RASA-Control."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.config import ControlPolicy, EngineConfig
from repro.engine.designs import DESIGNS
from repro.engine.scheduler import EngineScheduler, check_schedule_legality
from repro.errors import ScheduleError
from repro.systolic.pe import DB_PE, DM_PE, DMDB_PE


def run_stream(config, keys, ready=0):
    """Schedule a stream of mm's with the given weight keys; return times."""
    scheduler = EngineScheduler(config)
    times = [scheduler.schedule_mm(ready, ready, key) for key in keys]
    check_schedule_legality(times, config)
    return scheduler, times


def steady_ii(times):
    return times[-1].ff_start - times[-2].ff_start


class TestSteadyStateIIs:
    """The initiation intervals every Fig. 5 ratio rests on."""

    def test_base_is_serial(self):
        _, times = run_stream(EngineConfig(control=ControlPolicy.BASE), range(8))
        assert steady_ii(times) == 95
        # BASE never overlaps: each WL starts exactly at the previous DR end.
        for prev, cur in zip(times, times[1:]):
            assert cur.wl_start == prev.dr_end

    def test_pipe_overlaps_drain(self):
        _, times = run_stream(EngineConfig(control=ControlPolicy.PIPE), range(8))
        assert steady_ii(times) == 79  # WL(32) + FF(16) + FS(31)
        for prev, cur in zip(times, times[1:]):
            assert cur.wl_start == prev.fs_end  # overlapped with DR only

    def test_wlbp_reuse_reaches_tm(self):
        _, times = run_stream(EngineConfig(control=ControlPolicy.WLBP), [0] * 8)
        assert steady_ii(times) == 16
        assert all(t.bypassed for t in times[1:])
        assert not times[0].bypassed

    def test_wlbp_no_reuse_degrades_to_pipe(self):
        _, times = run_stream(EngineConfig(control=ControlPolicy.WLBP), range(8))
        assert steady_ii(times) == 79
        assert not any(t.bypassed for t in times)

    def test_wls_reaches_tm_without_reuse(self):
        config = EngineConfig(pe=DB_PE, control=ControlPolicy.WLS)
        _, times = run_stream(config, range(8))
        assert steady_ii(times) == 16
        assert not any(t.bypassed for t in times)

    def test_dm_pipe(self):
        config = EngineConfig(pe=DM_PE, control=ControlPolicy.PIPE)
        _, times = run_stream(config, range(8))
        assert steady_ii(times) == 47  # WL(16) + FF(16) + FS(15)

    def test_dmdb_wls_reaches_tm(self):
        config = EngineConfig(pe=DMDB_PE, control=ControlPolicy.WLS)
        _, times = run_stream(config, range(8))
        assert steady_ii(times) == 16

    def test_alternating_reuse_pattern(self):
        # Algorithm 1's steady state: reuse every other mm -> (79+16)/2.
        keys = [0, 0, 1, 1, 2, 2, 3, 3]
        scheduler, times = run_stream(EngineConfig(control=ControlPolicy.WLBP), keys)
        assert scheduler.bypass_count == 4
        span = times[-1].ff_start - times[1].ff_start
        assert span == 3 * 79 + 3 * 16


class TestWlbpAblation:
    def test_restricted_ff_overlap(self):
        # E9: without the FF/FS overlap, a bypassed FF waits for the DR start.
        config = EngineConfig(control=ControlPolicy.WLBP, wlbp_ff_overlaps_fs=False)
        _, times = run_stream(config, [0] * 8)
        assert steady_ii(times) == 47  # FF(16) + FS(31)


class TestDependencies:
    def test_ready_time_delays_wl(self):
        scheduler = EngineScheduler(EngineConfig(control=ControlPolicy.PIPE))
        t = scheduler.schedule_mm(ready_b=100, ready_ac=0, weight_key=0)
        assert t.wl_start == 100

    def test_ready_ac_delays_ff_not_wl(self):
        scheduler = EngineScheduler(EngineConfig(control=ControlPolicy.PIPE))
        t = scheduler.schedule_mm(ready_b=0, ready_ac=200, weight_key=0)
        assert t.wl_start == 0
        assert t.ff_start == 200

    def test_stages_contiguous_from_ff(self):
        for key in DESIGNS:
            config = DESIGNS[key].config
            _, times = run_stream(config, [i // 2 for i in range(6)])
            d = config.stages
            for t in times:
                assert t.ff_end - t.ff_start == d.ff
                assert t.fs_end - t.ff_end == d.fs
                assert t.dr_end - t.fs_end == d.dr
                assert t.complete - t.dr_end == d.extra


class TestResidency:
    def test_different_key_no_bypass(self):
        # A write to B bumps its version, so the key alone ends residency.
        scheduler = EngineScheduler(EngineConfig(control=ControlPolicy.WLBP))
        scheduler.schedule_mm(0, 0, ("b", 1))
        t = scheduler.schedule_mm(0, 0, ("b", 2))
        assert not t.bypassed

    def test_counters(self):
        scheduler, _ = run_stream(
            EngineConfig(control=ControlPolicy.WLBP), [0, 0, 1, 1]
        )
        assert scheduler.mm_count == 4
        assert scheduler.bypass_count == 2
        assert scheduler.weight_load_count == 2

    def test_reset(self):
        scheduler, _ = run_stream(EngineConfig(control=ControlPolicy.WLBP), [0, 0])
        scheduler.reset()
        assert scheduler.mm_count == 0
        assert scheduler.resident_weights is None


class TestLegalityChecker:
    def test_detects_mac_overlap(self):
        config = EngineConfig(control=ControlPolicy.WLBP)
        _, times = run_stream(config, [0, 0])
        # Forge an illegal second FF start (II < TM).
        import dataclasses

        bad = dataclasses.replace(
            times[1],
            ff_start=times[0].ff_start + 8,
            ff_end=times[0].ff_start + 24,
            fs_end=times[0].ff_start + 24 + 31,
            dr_end=times[0].ff_start + 24 + 31 + 16,
            complete=times[0].ff_start + 24 + 31 + 16,
            wl_start=times[0].ff_start + 8,
            wl_end=times[0].ff_start + 8,
        )
        with pytest.raises(ScheduleError, match="MAC-window overlap"):
            check_schedule_legality([times[0], bad], config)

    def test_detects_weight_disturbance(self):
        # A WL that starts during the previous MAC window on a single-buffered
        # design must be flagged.
        config = EngineConfig(control=ControlPolicy.PIPE)
        scheduler = EngineScheduler(config)
        t0 = scheduler.schedule_mm(0, 0, 0)
        import dataclasses

        wl_start = t0.ff_start + 5  # way too early
        bad = dataclasses.replace(
            t0,
            index=1,
            wl_start=wl_start,
            wl_end=wl_start + 32,
            ff_start=t0.ff_start + 80,
            ff_end=t0.ff_start + 96,
            fs_end=t0.ff_start + 127,
            dr_end=t0.ff_start + 143,
            complete=t0.ff_start + 143,
        )
        with pytest.raises(ScheduleError, match="disturbance"):
            check_schedule_legality([t0, bad], config)

    def test_all_policies_produce_legal_schedules(self):
        patterns = {
            "all_same": [0] * 12,
            "all_diff": list(range(12)),
            "algorithm1": [i // 2 for i in range(12)],
            "irregular": [0, 1, 1, 0, 2, 2, 2, 3, 0, 0, 4, 4],
        }
        for key in DESIGNS:
            for keys in patterns.values():
                run_stream(DESIGNS[key].config, keys)  # raises on violation


@settings(max_examples=40, deadline=None)
@given(
    design=st.sampled_from(sorted(DESIGNS)),
    keys=st.lists(st.integers(0, 3), min_size=1, max_size=20),
    readies=st.lists(st.integers(0, 50), min_size=20, max_size=20),
)
def test_scheduler_always_legal(design, keys, readies):
    """Property: any key stream with any ready times yields a legal schedule
    and monotonically non-decreasing stage times."""
    config = DESIGNS[design].config
    scheduler = EngineScheduler(config)
    times = []
    for i, key in enumerate(keys):
        times.append(scheduler.schedule_mm(readies[i], readies[i], key))
    check_schedule_legality(times, config)
    for prev, cur in zip(times, times[1:]):
        assert cur.ff_start >= prev.ff_start + config.tile_m
        assert cur.dr_start >= prev.dr_end
