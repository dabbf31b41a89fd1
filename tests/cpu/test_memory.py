"""Tests for the memory-system models."""

from __future__ import annotations

import pytest

from repro.cpu.config import CoreConfig
from repro.cpu.fast import FastCoreModel
from repro.cpu.memory import (
    CacheHierarchy,
    CacheLevelConfig,
    HierarchyConfig,
    IdealMemory,
)
from repro.engine.designs import DESIGNS
from repro.errors import ConfigError
from repro.workloads.codegen import generate_gemm_program
from repro.workloads.gemm import GemmShape


class TestIdealMemory:
    def test_constant_latency(self):
        mem = IdealMemory(l1_latency=4, transfer_cycles=16)
        assert mem.tile_load_latency(0x0, 64) == 20
        assert mem.tile_load_latency(0xDEAD000, 4096) == 20

    def test_matches_core_config_default(self):
        # The default FastCoreModel memory reproduces CoreConfig's constant.
        core = CoreConfig()
        mem = IdealMemory(core.l1_latency, core.tile_transfer_cycles)
        assert mem.tile_load_latency(0, 64) == core.tile_load_latency


class TestCacheLevel:
    def test_geometry(self):
        level = CacheLevelConfig("L1", size_kib=32, ways=8, hit_latency=4)
        assert level.num_sets == 64

    def test_too_small_rejected(self):
        with pytest.raises(ConfigError):
            CacheLevelConfig("bad", size_kib=1, ways=32, hit_latency=1, line_bytes=64)


class TestCacheHierarchy:
    def test_cold_misses_then_hits(self):
        mem = CacheHierarchy()
        cold = mem.tile_load_latency(0x10000, 64)
        warm = mem.tile_load_latency(0x10000, 64)
        assert cold > warm
        assert warm == mem.config.l1.hit_latency + mem.config.transfer_cycles
        assert mem.dram_fills == 16  # all 16 rows missed everywhere once

    def test_l2_catches_l1_evictions(self):
        # Touch more than L1 (32 KiB) but less than L2: second pass must be
        # L2 hits, not DRAM.
        mem = CacheHierarchy()
        footprint = 128 * 1024
        for addr in range(0, footprint, 1024):
            mem.tile_load_latency(addr, 64)
        mem.l1_hits = mem.l2_hits = mem.dram_fills = 0
        for addr in range(0, footprint, 1024):
            mem.tile_load_latency(addr, 64)
        rates = mem.hit_rates()
        assert rates["dram"] == 0.0
        assert rates["l2"] > 0.5

    def test_strided_rows_touch_distinct_lines(self):
        mem = CacheHierarchy()
        mem.tile_load_latency(0x0, 4096)  # 16 rows, 4 KiB apart
        assert mem.accesses == 16
        assert mem.dram_fills == 16

    def test_mlp_batches_misses(self):
        fast = CacheHierarchy(HierarchyConfig(mlp=16))
        slow = CacheHierarchy(HierarchyConfig(mlp=1))
        assert slow.tile_load_latency(0x0, 64) > fast.tile_load_latency(0x0, 64)

    def test_reset(self):
        mem = CacheHierarchy()
        mem.tile_load_latency(0x0, 64)
        mem.reset()
        assert mem.accesses == 0
        assert mem.tile_load_latency(0x0, 64) > (
            mem.config.l1.hit_latency + mem.config.transfer_cycles
        )


class TestEndToEndWithCaches:
    def test_ideal_default_unchanged(self):
        # Supplying IdealMemory explicitly must match the default exactly.
        program = generate_gemm_program(GemmShape(m=64, n=64, k=64, name="mem"))
        core = CoreConfig()
        default = FastCoreModel(core=core).run(program)
        explicit = FastCoreModel(
            core=core,
            memory=IdealMemory(core.l1_latency, core.tile_transfer_cycles),
        ).run(program)
        assert default.cycles == explicit.cycles

    def test_slow_memory_hurts_more_with_rasa(self):
        """The ablation's point: RASA consumes operands faster, so a slow
        memory erodes its relative gain."""
        program = generate_gemm_program(GemmShape(m=128, n=64, k=128, name="mem2"))

        def normalized(memory_factory):
            base = FastCoreModel(
                engine=DESIGNS["baseline"].config, memory=memory_factory()
            ).run(program)
            best = FastCoreModel(
                engine=DESIGNS["rasa-dmdb-wls"].config, memory=memory_factory()
            ).run(program)
            return best.cycles / base.cycles

        ideal = normalized(lambda: IdealMemory())
        # A pathologically slow uncached memory.
        slow = normalized(
            lambda: CacheHierarchy(
                HierarchyConfig(
                    l1=CacheLevelConfig("L1", size_kib=2, ways=2, hit_latency=4),
                    l2=CacheLevelConfig("L2", size_kib=8, ways=2, hit_latency=14),
                    dram_latency=400,
                    mlp=1,
                )
            )
        )
        assert slow > ideal

    def test_realistic_hierarchy_close_to_ideal(self):
        """With Skylake-ish caches the workloads' tiles mostly hit: the
        paper's no-stall assumption is sane for these layer sizes."""
        program = generate_gemm_program(GemmShape(m=128, n=64, k=128, name="mem3"))
        config = DESIGNS["rasa-dmdb-wls"].config
        ideal = FastCoreModel(engine=config).run(program)
        cached = FastCoreModel(engine=config, memory=CacheHierarchy()).run(program)
        assert cached.cycles <= ideal.cycles * 1.25
