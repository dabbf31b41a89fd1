"""Tests for engine configuration and derived geometry."""

from __future__ import annotations

import dataclasses

import pytest

from repro.engine.config import ControlPolicy, EngineConfig
from repro.errors import ConfigError
from repro.systolic.pe import BASELINE_PE, DB_PE, DM_PE, DMDB_PE


class TestTileGeometry:
    def test_fixed_by_isa(self):
        config = EngineConfig()
        assert (config.tile_m, config.tile_n, config.tile_k) == (16, 16, 32)


class TestArrayGeometry:
    def test_baseline_32x16(self):
        config = EngineConfig(pe=BASELINE_PE)
        assert (config.phys_rows, config.phys_cols) == (32, 16)
        assert config.num_pes == 512
        assert config.num_multipliers == 512

    def test_dm_halves_rows_same_multipliers(self):
        # Sec. V: "We use a 32x16 array of PEs (16x16 if DM is applied)" with
        # "the same number of multipliers in all systolic arrays".
        config = EngineConfig(pe=DM_PE)
        assert (config.phys_rows, config.phys_cols) == (16, 16)
        assert config.num_pes == 256
        assert config.num_multipliers == 512

    def test_wl_rate(self):
        assert EngineConfig(pe=BASELINE_PE).wl_rows_per_cycle == 1
        assert EngineConfig(pe=DB_PE).wl_rows_per_cycle == 2
        assert EngineConfig(pe=DMDB_PE).wl_rows_per_cycle == 2


class TestLatencies:
    def test_serial_latencies(self):
        assert EngineConfig(pe=BASELINE_PE).serial_mm_latency == 95
        assert EngineConfig(pe=DB_PE).serial_mm_latency == 79
        assert EngineConfig(pe=DM_PE).serial_mm_latency == 64
        assert EngineConfig(pe=DMDB_PE).serial_mm_latency == 56

    def test_min_initiation_interval_is_tm(self):
        # "If we perfectly pipeline all rasa_mm, we complete a rasa_mm every
        # 16 cycles" (Sec. V).
        assert EngineConfig().min_initiation_interval == 16

    def test_stages_built_once_and_kept_out_of_the_fields(self):
        # The scheduler reads ``stages`` once per mm; it must not be rebuilt.
        config = EngineConfig(pe=DMDB_PE)
        assert config.stages is config.stages
        fresh = EngineConfig(pe=DMDB_PE)
        assert fresh == config and hash(fresh) == hash(config)
        assert dataclasses.asdict(fresh) == dataclasses.asdict(config)
        assert "stages" not in dataclasses.asdict(config)


class TestValidation:
    def test_wls_requires_db(self):
        with pytest.raises(ConfigError, match="double-buffered"):
            EngineConfig(pe=BASELINE_PE, control=ControlPolicy.WLS)
        with pytest.raises(ConfigError):
            EngineConfig(pe=DM_PE, control=ControlPolicy.WLS)
        EngineConfig(pe=DB_PE, control=ControlPolicy.WLS)  # fine
        EngineConfig(pe=DMDB_PE, control=ControlPolicy.WLS)  # fine

    def test_bad_clock(self):
        with pytest.raises(ConfigError):
            EngineConfig(clock_mhz=0)

    def test_bypass_property(self):
        assert not ControlPolicy.BASE.bypasses_on_reuse
        assert not ControlPolicy.PIPE.bypasses_on_reuse
        assert ControlPolicy.WLBP.bypasses_on_reuse
        assert ControlPolicy.WLS.bypasses_on_reuse

    def test_describe(self):
        text = EngineConfig(pe=DMDB_PE, control=ControlPolicy.WLS).describe()
        assert "16x16" in text and "wls" in text and "500" in text
