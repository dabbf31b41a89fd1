"""Result-cache tests: keys, hit/miss, invalidation, the append-only log."""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os
import signal
import warnings

import pytest

from repro.cpu.config import CoreConfig
from repro.cpu.result import SimResult
from repro.runtime.cache import CODE_VERSION, ResultCache, cache_key
from repro.workloads.codegen import CodegenOptions
from repro.workloads.gemm import GemmShape
from repro.workloads.tiling import BlockingConfig, MMOrder

SHAPE = GemmShape(m=64, n=64, k=64, name="cache-test")
CORE = CoreConfig()
CODEGEN = CodegenOptions()

RESULT = SimResult(
    design="test design",
    program="cache-test",
    cycles=1234,
    instructions=100,
    mm_count=32,
    bypass_count=16,
    weight_loads=16,
    engine_busy_cycles=300,
    clock_mhz=2000,
)

LOG = "simresults.jsonl"

#: Keys off the default config, captured before key rendering was memoized:
#: a changed rendering of any core, codegen or shape field fails here.
PINNED_KEYS = [
    (lambda: ("rasa-dmdb-wls", GemmShape(100, 70, 40, name="odd"),
              dataclasses.replace(CoreConfig(), rob_size=224, fetch_width=2,
                                  scheduler_size=2),
              CodegenOptions(), "fast"),
     "08bd4e034175d0607cd04661ee3c4c9a13a4f9de21238590aea444bf1a00d49b"),
    (lambda: ("rasa-wlbp", GemmShape(64, 64, 64), CoreConfig(),
              CodegenOptions(
                  blocking=BlockingConfig(bm=3, bn=1, mm_order=MMOrder.ALTERNATE),
                  scalar_overhead_per_kstep=0, scalar_overhead_per_block=3),
              "analytic"),
     "c0a38b74532e6bcc27b34e1b64da4632fe8d177a2f98fc53b30b966bdad9b19f"),
    (lambda: ("baseline", GemmShape(16, 16, 32), CoreConfig(), CodegenOptions(),
              "ooo"),
     "af79e8638588f8092204c6d44c47059c53fde7eb96ca0b566d8abc9dc4b4627e"),
]


def _line(key, fields):
    return (json.dumps([key, fields]) + "\n").encode()


def _put_keys(directory, prefix, count, start):
    """Child process: put ``count`` distinct keys, flushing after each."""
    cache = ResultCache(directory)
    start.wait(60)
    for index in range(count):
        cache.put(f"{prefix}-{index:03d}", RESULT)
        cache.flush()


def _put_then_die(directory, count):
    """Child process: put ``count`` results, then SIGKILL itself unflushed."""
    cache = ResultCache(directory)
    for index in range(count):
        cache.put(f"killed-{index}", RESULT)
    os.kill(os.getpid(), signal.SIGKILL)


SPAWN = multiprocessing.get_context("spawn")


class TestCacheKey:
    def test_deterministic(self):
        assert cache_key("baseline", SHAPE, CORE, CODEGEN) == cache_key(
            "baseline", SHAPE, CORE, CODEGEN
        )

    def test_sensitive_to_every_component(self):
        base = cache_key("baseline", SHAPE, CORE, CODEGEN)
        assert cache_key("rasa-pipe", SHAPE, CORE, CODEGEN) != base
        assert cache_key("baseline", dataclasses.replace(SHAPE, m=128), CORE, CODEGEN) != base
        assert (
            cache_key("baseline", SHAPE, dataclasses.replace(CORE, rob_size=224), CODEGEN)
            != base
        )
        assert cache_key("baseline", SHAPE, CORE, CODEGEN, fidelity="ooo") != base

    def test_label_independent(self):
        """Display names never change what simulates, so never change keys."""
        q = GemmShape(m=256, n=768, k=768, name="enc0.q")
        v = GemmShape(m=256, n=768, k=768, name="enc11.v")
        anonymous = GemmShape(m=256, n=768, k=768)
        assert (
            cache_key("baseline", q, CORE, CODEGEN)
            == cache_key("baseline", v, CORE, CODEGEN)
            == cache_key("baseline", anonymous, CORE, CODEGEN)
        )

    def test_label_independence_does_not_leak_to_dims(self):
        a = GemmShape(m=64, n=64, k=64, name="same-label")
        b = GemmShape(m=64, n=64, k=32, name="same-label")
        assert cache_key("baseline", a, CORE, CODEGEN) != cache_key(
            "baseline", b, CORE, CODEGEN
        )

    def test_padded_dims_share_a_key(self):
        """Sub-tile shapes lower to identical streams, so share one key.

        Codegen pads every GEMM up to whole rasa_mm tiles (16 x 16 x 32)
        before lowering — batches 1..16 of an FC layer are one point.
        """
        keys = {
            cache_key("baseline", GemmShape(m=m, n=64, k=64), CORE, CODEGEN)
            for m in (1, 2, 7, 15, 16)
        }
        assert len(keys) == 1
        beyond = cache_key("baseline", GemmShape(m=17, n=64, k=64), CORE, CODEGEN)
        assert beyond not in keys

    def test_padding_applies_to_every_dimension(self):
        base = cache_key("baseline", GemmShape(m=16, n=16, k=32), CORE, CODEGEN)
        assert cache_key("baseline", GemmShape(m=9, n=3, k=20), CORE, CODEGEN) == base
        assert cache_key("baseline", GemmShape(m=9, n=17, k=20), CORE, CODEGEN) != base

    def test_sensitive_to_nested_enum(self):
        alternate = CodegenOptions(
            blocking=BlockingConfig(mm_order=MMOrder.ALTERNATE)
        )
        assert cache_key("baseline", SHAPE, CORE, alternate) != cache_key(
            "baseline", SHAPE, CORE, CODEGEN
        )

    def test_version_bump_invalidates(self):
        assert cache_key(
            "baseline", SHAPE, CORE, CODEGEN, version=CODE_VERSION + 1
        ) != cache_key("baseline", SHAPE, CORE, CODEGEN)

    @pytest.mark.parametrize("make_args,key", PINNED_KEYS,
                             ids=["odd-shape-core", "wlbp-codegen", "ooo-tile"])
    def test_keys_off_the_default_config_are_pinned(self, make_args, key):
        assert cache_key(*make_args()) == key
        # Equal values built afresh, after the first call rendered them.
        assert cache_key(*make_args()) == key

    def test_rejects_unhashable_junk(self):
        with pytest.raises(TypeError, match="canonicalize"):
            cache_key("baseline", object(), CORE, CODEGEN)


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache_key("baseline", SHAPE, CORE, CODEGEN)
        assert cache.get(key) is None
        cache.put(key, RESULT)
        assert cache.get(key) == RESULT
        assert (cache.hits, cache.misses) == (1, 1)

    def test_roundtrip_through_disk(self, tmp_path):
        key = cache_key("baseline", SHAPE, CORE, CODEGEN)
        first = ResultCache(tmp_path)
        first.put(key, RESULT)
        first.flush()
        second = ResultCache(tmp_path)
        assert len(second) == 1
        assert second.get(key) == RESULT

    def test_flush_without_changes_writes_nothing(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.flush()
        assert not cache.path.exists()

    def test_corrupt_file_treated_as_empty(self, tmp_path):
        (tmp_path / LOG).write_bytes(b"{this is not json\n")
        with pytest.warns(RuntimeWarning):
            cache = ResultCache(tmp_path)
        assert len(cache) == 0

    def test_alien_format_treated_as_empty(self, tmp_path):
        (tmp_path / LOG).write_bytes(b'{"format": 99}\n')
        with pytest.warns(RuntimeWarning):
            assert len(ResultCache(tmp_path)) == 0

    def test_stale_field_set_dropped(self, tmp_path):
        key = cache_key("baseline", SHAPE, CORE, CODEGEN)
        (tmp_path / LOG).write_bytes(_line(key, {"cycles": 1, "unknown_field": 2}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # stale is not damage: silent
            cache = ResultCache(tmp_path)
        assert cache.get(key) is None
        assert key not in cache

    def test_version_bumped_key_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(cache_key("baseline", SHAPE, CORE, CODEGEN), RESULT)
        bumped = cache_key("baseline", SHAPE, CORE, CODEGEN, version=CODE_VERSION + 1)
        assert cache.get(bumped) is None

    def test_interleaved_writers_keep_both_entries(self, tmp_path):
        """Two caches over one store: each one's put survives the other's."""
        key_a = cache_key("baseline", SHAPE, CORE, CODEGEN)
        key_b = cache_key("rasa-pipe", SHAPE, CORE, CODEGEN)
        first = ResultCache(tmp_path)
        second = ResultCache(tmp_path)  # loaded before first's put
        first.put(key_a, RESULT)
        first.flush()
        second.put(key_b, RESULT)
        second.flush()
        merged = ResultCache(tmp_path)
        assert merged.get(key_a) == RESULT
        assert merged.get(key_b) == RESULT

    def test_env_var_controls_default_location(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "custom"))
        cache = ResultCache()
        assert cache.directory == tmp_path / "custom"


class TestAppendOnlyLog:
    """One line per result, written before ``put`` returns; never rewritten."""

    def test_put_is_on_disk_before_it_returns(self, tmp_path):
        key = cache_key("baseline", SHAPE, CORE, CODEGEN)
        cache = ResultCache(tmp_path)
        cache.put(key, RESULT)  # no flush
        assert cache.path == tmp_path / LOG
        assert cache.path.read_bytes() == (
            json.dumps([key, dataclasses.asdict(RESULT)], separators=(",", ":"))
            + "\n"
        ).encode()
        assert ResultCache(tmp_path).get(key) == RESULT
        cache.flush()

    def test_put_after_flush_appends(self, tmp_path):
        """A session runs many plans on one cache: flush is not the end."""
        cache = ResultCache(tmp_path)
        cache.put("a", RESULT)
        cache.flush()
        cache.put("b", RESULT)
        cache.flush()
        assert len(cache.path.read_bytes().splitlines()) == 2
        assert len(ResultCache(tmp_path)) == 2

    def test_last_line_of_a_key_wins(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("a", RESULT)
        cache.put("a", dataclasses.replace(RESULT, cycles=99))
        cache.flush()
        assert ResultCache(tmp_path).get("a").cycles == 99

    def test_old_json_store_is_not_read(self, tmp_path):
        key = cache_key("baseline", SHAPE, CORE, CODEGEN)
        blob = {"format": 1, "results": {key: dataclasses.asdict(RESULT)}}
        (tmp_path / "simresults.json").write_text(json.dumps(blob))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cache = ResultCache(tmp_path)
        assert len(cache) == 0

    def test_concurrent_processes_keep_every_entry(self, tmp_path):
        """8 processes x 40 keys into one store, flushing after every put."""
        start = SPAWN.Barrier(8)  # every writer loads, then all put at once
        writers = [
            SPAWN.Process(target=_put_keys, args=(tmp_path, f"p{index}", 40, start))
            for index in range(8)
        ]
        for writer in writers:
            writer.start()
        for writer in writers:
            writer.join(60)
            assert writer.exitcode == 0
        assert len(ResultCache(tmp_path)) == 320

    def test_killed_writer_keeps_its_finished_puts(self, tmp_path):
        victim = SPAWN.Process(target=_put_then_die, args=(tmp_path, 5))
        victim.start()
        victim.join(60)
        assert victim.exitcode == -signal.SIGKILL
        cache = ResultCache(tmp_path)
        assert len(cache) == 5
        assert cache.get("killed-4") == RESULT


class TestDamagedStores:
    """Damaged lines are skipped — a load never crashes.

    Sweep-service workers share one on-disk store; a reader may catch a
    writer mid-line, and a hand-edited file must degrade to
    re-simulating the lines it broke.
    """

    def test_torn_last_line_is_skipped_silently(self, tmp_path):
        """A last line without its newline is a write in progress."""
        cache = ResultCache(tmp_path)
        cache.put("a", RESULT)
        cache.put("b", RESULT)
        cache.flush()
        with open(cache.path, "ab") as log:
            log.write(_line("c", dataclasses.asdict(RESULT))[:-20])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loaded = ResultCache(tmp_path)
        assert len(loaded) == 2 and "a" in loaded and "b" in loaded

    def test_malformed_lines_warn_once_with_their_count(self, tmp_path, recwarn):
        fields = dataclasses.asdict(RESULT)
        (tmp_path / LOG).write_bytes(_line("before", fields))
        writer = ResultCache(tmp_path)  # loaded before the damage
        with open(tmp_path / LOG, "ab") as log:
            for damaged in (
                b"garbage",
                b"",
                b'["truncated", {"cycles"',
                json.dumps({"key": "x", "result": fields}).encode(),
                json.dumps(["k"]).encode(),
                json.dumps(["k", fields, 3]).encode(),
                json.dumps([5, fields]).encode(),
                json.dumps(["k", [1, 2]]).encode(),
                # SimResult's field names, values not of the declared types
                json.dumps(["k", {**fields, "cycles": None}]).encode(),
                json.dumps(["k", {**fields, "cycles": "123"}]).encode(),
                json.dumps(["k", {**fields, "cycles": True}]).encode(),
                json.dumps(["k", {**fields, "design": 5}]).encode(),
            ):
                log.write(damaged + b"\n")
        writer.put("after", RESULT)
        writer.flush()
        loaded = ResultCache(tmp_path)
        (warning,) = [w for w in recwarn if w.category is RuntimeWarning]
        assert "skipped 12 damaged line(s)" in str(warning.message)
        assert len(loaded) == 2 and "before" in loaded and "after" in loaded

    def test_missing_file_stays_silent(self, tmp_path):
        """A cold start is normal, not damage — no warning allowed."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cache = ResultCache(tmp_path / "never-flushed")
        assert len(cache) == 0
