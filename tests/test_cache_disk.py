"""Tests for the persistent on-disk compile-cache tier."""

import json
import threading

import pytest

from repro.core import cache as cache_module
from repro.core import (
    CompileCache,
    CompilerOptions,
    DiskCacheTier,
    compile_program,
)
from repro.core.cache import (
    CacheEntry,
    collective_to_doc,
    default_cache_dir,
    default_compile_cache,
    reset_default_compile_cache,
)
from repro.core.collectives import AllReduce, Custom
from repro.core.pipeline import DefaultSchedulerPolicy, Pass, default_pipeline
from tests.conftest import build_ring_allreduce


def _compile_cached(cache):
    """Compile the 4-rank ring through ``cache``; returns the algo."""
    program = build_ring_allreduce(4)
    return compile_program(program, CompilerOptions(cache=cache))


class TestDiskRoundTrip:
    def test_survives_across_cache_instances(self, tmp_path):
        first = CompileCache(disk=DiskCacheTier(tmp_path))
        cold = _compile_cached(first)
        assert first.misses == 1 and first.hits == 0
        assert first.disk.entry_count() == 1

        # A brand-new cache over the same directory models a fresh
        # process: the memory tier is empty, the disk tier serves.
        second = CompileCache(disk=DiskCacheTier(tmp_path))
        warm = _compile_cached(second)
        assert second.hits == 1 and second.misses == 0
        assert second.last_hit_tier == "disk"
        assert warm.ir.to_xml() == cold.ir.to_xml()

    def test_hit_promotes_into_memory(self, tmp_path):
        cache = CompileCache(disk=DiskCacheTier(tmp_path))
        _compile_cached(cache)
        fresh = CompileCache(disk=DiskCacheTier(tmp_path))
        _compile_cached(fresh)  # disk hit, promoted
        _compile_cached(fresh)  # now a memory hit
        assert fresh.last_hit_tier == "memory"
        assert fresh.disk.hits == 1

    def test_default_cache_reset_models_fresh_process(self):
        reset_default_compile_cache()
        try:
            cache = default_compile_cache()
            assert cache.disk is not None, (
                "conftest points REPRO_CACHE_DIR at a tmpdir, so the "
                "default cache must carry a disk tier"
            )
            _compile_cached(cache)
            reset_default_compile_cache()
            again = default_compile_cache()
            _compile_cached(again)
            assert again.last_hit_tier == "disk"
        finally:
            reset_default_compile_cache()

    def test_compiler_change_misses(self, tmp_path, monkeypatch):
        # Entries written by other compiler code (edited passes, another
        # IR format) must never be served.
        _compile_cached(CompileCache(disk=DiskCacheTier(tmp_path)))
        monkeypatch.setattr(cache_module, "compiler_digest",
                            lambda: "an edited compiler")
        fresh = CompileCache(disk=DiskCacheTier(tmp_path))
        assert not _compile_cached(fresh).cache_hit
        assert fresh.disk.hits == 0 and fresh.disk.misses == 1
        assert fresh.disk.entry_count() == 2

    def test_compiler_digest_tracks_ir_format(self, monkeypatch):
        before = cache_module.compiler_digest()
        monkeypatch.setattr(cache_module, "IR_FORMAT_VERSION",
                            cache_module.IR_FORMAT_VERSION + 1)
        cache_module.compiler_digest.cache_clear()
        try:
            assert cache_module.compiler_digest() != before
        finally:
            monkeypatch.undo()
            cache_module.compiler_digest.cache_clear()
        assert cache_module.compiler_digest() == before


class TestCorruptEntries:
    def _entry_path(self, tmp_path):
        cache = CompileCache(disk=DiskCacheTier(tmp_path))
        _compile_cached(cache)
        (path,) = list(tmp_path.glob("*.json"))
        return path

    def test_garbage_file_is_a_miss_not_a_crash(self, tmp_path):
        path = self._entry_path(tmp_path)
        path.write_text("not json {{{")
        cache = CompileCache(disk=DiskCacheTier(tmp_path))
        _compile_cached(cache)
        assert cache.misses == 1
        assert cache.disk.misses == 1
        # The damaged entry was dropped and re-stored by the compile.
        assert json.loads(path.read_text())["ir_json"]

    def test_truncated_file_is_a_miss(self, tmp_path):
        path = self._entry_path(tmp_path)
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        cache = CompileCache(disk=DiskCacheTier(tmp_path))
        _compile_cached(cache)
        assert cache.disk.misses == 1

    def test_valid_json_damaged_ir_is_a_miss(self, tmp_path):
        path = self._entry_path(tmp_path)
        doc = json.loads(path.read_text())
        doc["ir_json"] = "{\"definitely\": \"not an IR\"}"
        path.write_text(json.dumps(doc))
        cache = CompileCache(disk=DiskCacheTier(tmp_path))
        _compile_cached(cache)
        assert cache.disk.misses == 1

    def test_key_mismatch_is_a_miss(self, tmp_path):
        path = self._entry_path(tmp_path)
        doc = json.loads(path.read_text())
        doc["key"] = "someone-else's-key"
        path.write_text(json.dumps(doc))
        tier = DiskCacheTier(tmp_path)
        cache = CompileCache(disk=tier)
        _compile_cached(cache)
        assert tier.misses == 1


class TestEviction:
    def _entry(self, tag):
        ir_json = json.dumps({"tag": tag, "pad": "x" * 2000})
        return CacheEntry(ir_json, AllReduce(4, chunk_factor=4,
                                             in_place=True))

    def test_oldest_entries_evicted_to_fit_budget(self, tmp_path):
        tier = DiskCacheTier(tmp_path, max_bytes=5000)
        for index in range(4):
            tier.store(f"key-{index}", self._entry(index))
        assert tier.total_bytes() <= 5000
        assert tier.evictions >= 1
        # The most recent store always survives.
        assert tier.path_for("key-3").exists()

    def test_budget_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError):
            DiskCacheTier(tmp_path, max_bytes=0)


class TestConcurrentWriters:
    def test_racing_stores_never_tear(self, tmp_path):
        tier = DiskCacheTier(tmp_path)
        # Lookups validate the IR payload, so the raced entry must be a
        # real one.
        algo = compile_program(build_ring_allreduce(4),
                               CompilerOptions())
        entry = CacheEntry(
            algo.ir.to_json(),
            AllReduce(4, chunk_factor=4, in_place=True),
        )
        errors = []

        def hammer():
            try:
                for _ in range(25):
                    tier.store("shared-key", entry)
                    looked = tier.lookup("shared-key")
                    assert looked is not None
                    assert looked.ir_json == entry.ir_json
            except Exception as error:  # pragma: no cover
                errors.append(error)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        # No .part temp files left behind.
        assert not list(tmp_path.glob("*.part"))


class TestPartFileSweep:
    def _entry(self, tag):
        ir_json = json.dumps({"tag": tag, "pad": "x" * 2000})
        return CacheEntry(ir_json, AllReduce(4, chunk_factor=4,
                                             in_place=True))

    def _backdate(self, path, seconds):
        import os
        import time
        stamp = time.time() - seconds
        os.utime(path, (stamp, stamp))

    def test_stale_orphans_swept_on_eviction(self, tmp_path):
        tier = DiskCacheTier(tmp_path)
        orphan = tmp_path / ".write-dead00.part"
        orphan.write_text("z" * 500)
        self._backdate(orphan, 3600)  # far past the grace period
        tier.store("key-live", self._entry("live"))
        assert not orphan.exists()
        assert tier.orphans_removed == 1
        assert tier.stats()["orphans_removed"] == 1
        # The real entry is untouched.
        assert tier.path_for("key-live").exists()

    def test_fresh_part_files_survive_and_count(self, tmp_path):
        tier = DiskCacheTier(tmp_path, max_bytes=5000)
        inflight = tmp_path / ".write-busy00.part"
        inflight.write_text("z" * 4000)  # mtime == now: a live writer
        tier.store("key-a", self._entry("a"))
        tier.store("key-b", self._entry("b"))
        # The live temp file was never reaped, but its bytes pressed
        # the budget: an entry had to go to make room.
        assert inflight.exists()
        assert tier.orphans_removed == 0
        assert tier.evictions >= 1
        assert tier.path_for("key-b").exists()
        assert tier.total_bytes() >= 4000

    def test_clear_removes_part_files(self, tmp_path):
        tier = DiskCacheTier(tmp_path)
        (tmp_path / ".write-dead00.part").write_text("z")
        tier.store("key", self._entry("x"))
        tier.clear()
        assert tier.total_bytes() == 0
        assert not list(tmp_path.glob(".write-*.part"))

    def test_negative_grace_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            DiskCacheTier(tmp_path, part_grace_seconds=-1.0)


class TestCompileCacheThreadSafety:
    def test_threaded_hammer_keeps_counters_exact(self):
        algo = compile_program(build_ring_allreduce(4), CompilerOptions())
        collective = AllReduce(4, chunk_factor=4, in_place=True)
        cache = CompileCache(maxsize=64)
        threads, iters, keyspace = 8, 50, 8
        errors = []

        def hammer(seed):
            try:
                for i in range(iters):
                    key = f"key-{(seed + i) % keyspace}"
                    if cache.lookup(key) is None:
                        cache.store(key, algo.ir, collective)
            except Exception as error:  # pragma: no cover
                errors.append(error)

        workers = [threading.Thread(target=hammer, args=(n,))
                   for n in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        assert not errors
        # Every lookup was either a hit or a miss — nothing lost to a
        # counter race.
        assert cache.hits + cache.misses == threads * iters
        assert len(cache) == keyspace

    def test_last_hit_tier_is_thread_local(self):
        algo = compile_program(build_ring_allreduce(4), CompilerOptions())
        collective = AllReduce(4, chunk_factor=4, in_place=True)
        cache = CompileCache()
        cache.store("present", algo.ir, collective)
        cache.lookup("present")
        assert cache.last_hit_tier == "memory"
        seen = {}

        def other_thread():
            cache.lookup("absent")
            seen["tier"] = cache.last_hit_tier

        worker = threading.Thread(target=other_thread)
        worker.start()
        worker.join()
        # The other thread's miss never clobbered this thread's view.
        assert seen["tier"] is None
        assert cache.last_hit_tier == "memory"

    def test_default_cache_creation_is_race_free(self):
        reset_default_compile_cache()
        try:
            barrier = threading.Barrier(8)
            instances = []

            def grab():
                barrier.wait()
                instances.append(default_compile_cache())

            workers = [threading.Thread(target=grab) for _ in range(8)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join()
            assert len(instances) == 8
            assert all(c is instances[0] for c in instances)
        finally:
            reset_default_compile_cache()


class TestCustomCollectives:
    def _custom(self):
        return Custom(
            num_ranks=2, chunk_factor=1,
            postcondition_fn=lambda rank: {0: {0}},
        )

    def test_custom_collective_stays_memory_only(self, tmp_path):
        assert collective_to_doc(self._custom()) is None
        tier = DiskCacheTier(tmp_path)
        entry = CacheEntry("{}", self._custom())
        assert tier.store("custom-key", entry) is False
        assert tier.entry_count() == 0

    def test_plain_collective_is_storable(self):
        doc = collective_to_doc(AllReduce(8, chunk_factor=8,
                                          in_place=True))
        assert doc["kind"] == "AllReduce"


class _CountingPass(Pass):
    """A pass defined outside repro.core: the compiler digest misses it."""

    name = "count"

    def run(self, state):
        pass


class _CustomPolicy(DefaultSchedulerPolicy):
    policy_key = "custom"


class TestCustomCompilerCode:
    """Compiles through code outside repro.core never touch the disk."""

    @pytest.mark.parametrize("options", [
        {"pipeline": default_pipeline().insert_after("fuse",
                                                     _CountingPass())},
        {"scheduler": _CustomPolicy()},
    ], ids=["custom-pass", "custom-policy"])
    def test_stays_memory_only(self, tmp_path, options):
        def compile_with(cache):
            return compile_program(build_ring_allreduce(4), CompilerOptions(
                cache=cache, **options))

        cache = CompileCache(disk=DiskCacheTier(tmp_path))
        compile_with(cache)
        assert compile_with(cache).cache_hit
        assert cache.last_hit_tier == "memory"
        assert cache.disk.entry_count() == 0
        fresh = CompileCache(disk=DiskCacheTier(tmp_path))
        assert not compile_with(fresh).cache_hit

    def test_core_pipeline_is_persisted(self, tmp_path):
        cache = CompileCache(disk=DiskCacheTier(tmp_path))
        compile_program(build_ring_allreduce(4), CompilerOptions(
            cache=cache, pipeline=default_pipeline().remove("fuse")))
        assert cache.disk.entry_count() == 1


class TestDefaultDirectory:
    def test_env_var_wins(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cachedir"))
        assert default_cache_dir() == tmp_path / "cachedir"
