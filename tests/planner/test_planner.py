"""Planner and cache-tier tests: LRU behaviour, disk persistence,
corruption handling, and the CompiledPermutation contract."""

import gc
import weakref

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.planner import (
    CompiledPermutation,
    DiskPlanCache,
    LRUPlanCache,
    Planner,
)
from repro.permutations.named import bit_reversal, random_permutation
from repro.resilience import FaultPlan

_N, _WIDTH = 1024, 32


def _expected(p, a):
    out = np.empty_like(a)
    out[p] = a
    return out


class TestLRUPlanCache:
    def test_capacity_validated(self):
        with pytest.raises(ValidationError):
            LRUPlanCache(0)

    def test_hit_miss_counting(self):
        cache = LRUPlanCache(2)
        assert cache.get("a") is None
        cache.put("a", object())
        assert cache.get("a") is not None
        assert cache.stats()["memory_hits"] == 1
        assert cache.stats()["memory_misses"] == 1

    def test_eviction_is_least_recently_used(self):
        cache = LRUPlanCache(2)
        cache.put("a", "A")
        cache.put("b", "B")
        assert cache.get("a") == "A"   # refresh a; b is now oldest
        cache.put("c", "C")
        assert "b" not in cache
        assert "a" in cache and "c" in cache
        assert cache.stats()["memory_evictions"] == 1


class TestPlanner:
    def test_cold_then_memory_hit(self, tmp_path):
        planner = Planner(cache_dir=tmp_path)
        p = bit_reversal(_N)
        cold = planner.compile(p, width=_WIDTH)
        warm = planner.compile(p, width=_WIDTH)
        assert warm is cold
        stats = planner.stats()
        assert stats["cold_plans"] == 1
        assert stats["memory_hits"] == 1
        assert stats["disk_stores"] == 1

    def test_sealed_hit_across_planners(self, tmp_path):
        p = bit_reversal(_N)
        Planner(cache_dir=tmp_path).compile(p, width=_WIDTH)
        fresh = Planner(cache_dir=tmp_path)
        compiled = fresh.compile(p, width=_WIDTH)
        stats = fresh.stats()
        assert stats["sealed_hits"] == 1
        assert stats["cold_plans"] == 0
        a = np.arange(_N, dtype=np.float32)
        assert np.array_equal(compiled.apply(a), _expected(p, a))
        # The sealed sidecar answered; the full plan never rehydrated.
        assert not compiled.is_loaded

    def test_dropped_planner_freed_without_cyclic_gc(self, tmp_path):
        # A lazy handle sits in its planner's memory tier; its loader
        # must not reference the planner strongly, or dropping the
        # planner leaves its sealed maps to the cyclic collector.
        p = bit_reversal(_N)
        Planner(cache_dir=tmp_path).compile(p, width=_WIDTH)
        gc.collect()
        gc.disable()
        try:
            fresh = Planner(cache_dir=tmp_path)
            compiled = fresh.compile(p, width=_WIDTH)
            planner_ref = weakref.ref(fresh)
            sealed_ref = weakref.ref(compiled.sealed)
            del fresh, compiled
            assert planner_ref() is None
            assert sealed_ref() is None
        finally:
            gc.enable()

    def test_lazy_handle_rehydrates_after_planner_dropped(self, tmp_path):
        p = bit_reversal(_N)
        Planner(cache_dir=tmp_path).compile(p, width=_WIDTH)
        compiled = Planner(cache_dir=tmp_path).compile(p, width=_WIDTH)
        gc.collect()
        assert not compiled.is_loaded
        assert np.array_equal(np.asarray(compiled.p), p)
        program = compiled.program
        assert compiled.is_loaded and program is not None
        a = np.arange(_N, dtype=np.float32)
        assert np.array_equal(compiled.engine.apply(a), _expected(p, a))

    def test_disk_hit_when_sidecar_absent(self, tmp_path):
        p = bit_reversal(_N)
        first = Planner(cache_dir=tmp_path)
        fp = first.compile(p, width=_WIDTH).fingerprint
        first.disk.sealed_path_for(fp).unlink()
        fresh = Planner(cache_dir=tmp_path)
        compiled = fresh.compile(p, width=_WIDTH)
        stats = fresh.stats()
        assert stats["disk_hits"] == 1
        assert stats["cold_plans"] == 0
        a = np.arange(_N, dtype=np.float32)
        assert np.array_equal(compiled.apply(a), _expected(p, a))
        # The disk hit re-sealed and backfilled the sidecar.
        assert fresh.disk.sealed_path_for(fp).exists()

    def test_memory_only_planner(self):
        planner = Planner()
        p = bit_reversal(_N)
        planner.compile(p, width=_WIDTH)
        assert planner.compile(p, width=_WIDTH) is not None
        assert "disk_hits" not in planner.stats()

    def test_corrupt_entry_replanned_and_overwritten(self, tmp_path):
        p = bit_reversal(_N)
        first = Planner(cache_dir=tmp_path)
        cold = first.compile(p, width=_WIDTH)
        path = first.disk.path_for(cold.fingerprint)
        FaultPlan(seed=0).corrupt_plan_file(path, "bit-flip")
        # Drop the sealed sidecar too, so the corrupt plan itself is
        # what the fresh planner must survive.
        first.disk.sealed_path_for(cold.fingerprint).unlink()
        tampered = Planner(cache_dir=tmp_path)
        compiled = tampered.compile(p, width=_WIDTH)
        stats = tampered.stats()
        assert stats["disk_corrupt"] == 1
        assert stats["cold_plans"] == 1
        a = np.arange(_N, dtype=np.float32)
        assert np.array_equal(compiled.apply(a), _expected(p, a))
        # The fresh re-plan overwrote the tampered entry in place (and
        # re-sealed it, so the next planner takes the sealed tier).
        healed = Planner(cache_dir=tmp_path)
        healed.compile(p, width=_WIDTH)
        assert healed.stats()["sealed_hits"] == 1

    def test_corrupt_sidecar_healed_from_plan(self, tmp_path):
        p = bit_reversal(_N)
        first = Planner(cache_dir=tmp_path)
        fp = first.compile(p, width=_WIDTH).fingerprint
        sidecar = first.disk.sealed_path_for(fp)
        FaultPlan(seed=0).corrupt_plan_file(sidecar, "bit-flip")
        fresh = Planner(cache_dir=tmp_path)
        compiled = fresh.compile(p, width=_WIDTH)
        stats = fresh.stats()
        assert stats["sealed_corrupt"] == 1
        assert stats["disk_hits"] == 1
        assert stats["cold_plans"] == 0
        a = np.arange(_N, dtype=np.float32)
        assert np.array_equal(compiled.apply(a), _expected(p, a))
        # The intact plan re-sealed; the sidecar is whole again.
        assert sidecar.exists()
        assert Planner(cache_dir=tmp_path).disk.load_sealed(fp) \
            is not None

    def test_lru_eviction_bounds_memory(self):
        planner = Planner(cache_size=2)
        for seed in range(3):
            planner.compile(random_permutation(64, seed=seed), width=4)
        stats = planner.stats()
        assert stats["memory_entries"] == 2
        assert stats["memory_evictions"] == 1

    def test_engine_hops_get_distinct_fingerprints(self, tmp_path):
        planner = Planner(cache_dir=tmp_path)
        p = bit_reversal(_N)
        sched = planner.compile(p, engine="scheduled", width=_WIDTH)
        padded = planner.compile(p, engine="padded", width=_WIDTH)
        assert sched.fingerprint != padded.fingerprint

    def test_telemetry_counters_emitted(self, tmp_path):
        p = bit_reversal(_N)
        planner = Planner(cache_dir=tmp_path)
        planner.compile(p, width=_WIDTH)
        planner.compile(p, width=_WIDTH)
        counters = planner.metrics.counter_values()
        assert counters["planner_cold_plans_total"] == 1
        assert counters['planner_cache_hits_total{tier="memory"}'] == 1
        assert counters['planner_cache_stores_total{tier="disk"}'] == 1

    def test_warm_from_disk(self, tmp_path):
        p = bit_reversal(_N)
        first = Planner(cache_dir=tmp_path)
        fp = first.compile(p, width=_WIDTH).fingerprint
        fresh = Planner(cache_dir=tmp_path)
        assert fresh.warm_from_disk(fp)
        # Warmed entry serves from memory without touching the array.
        assert fresh.memory.get(fp) is not None
        assert not fresh.warm_from_disk("0" * 64)


class TestCompiledPermutation:
    def test_handle_contract(self, tmp_path):
        p = bit_reversal(_N)
        compiled = Planner(cache_dir=tmp_path).compile(p, width=_WIDTH)
        assert isinstance(compiled, CompiledPermutation)
        assert compiled.n == _N
        assert compiled.engine_name == "scheduled"
        assert np.array_equal(compiled.p, p)
        a = np.arange(_N, dtype=np.float32)
        assert np.array_equal(compiled.apply(a), _expected(p, a))
        batch = np.stack([a, a + 1])
        out = compiled.apply_batch(batch)
        assert np.array_equal(out[0], _expected(p, a))
        assert compiled.simulate().time >= 0
        assert compiled.fingerprint[:4] in compiled.describe()

    def test_lower_returns_optimized_program(self, tmp_path):
        p = bit_reversal(_N)
        compiled = Planner(cache_dir=tmp_path).compile(p, width=_WIDTH)
        program = compiled.lower()
        assert program.meta is not None
        assert program.meta["predicted_rounds"] == program.num_rounds


class TestDiskPlanCache:
    def test_miss_on_absent(self, tmp_path):
        cache = DiskPlanCache(tmp_path)
        assert cache.load("0" * 64) is None
        assert cache.stats()["disk_misses"] == 1

    def test_foreign_files_ignored(self, tmp_path):
        (tmp_path / "notes.txt").write_text("not a plan")
        cache = DiskPlanCache(tmp_path)
        assert cache.load("0" * 64) is None
        assert (tmp_path / "notes.txt").exists()

    def test_store_is_atomic_no_temp_residue(self, tmp_path):
        planner = Planner(cache_dir=tmp_path)
        planner.compile(bit_reversal(_N), engine="scheduled",
                        width=_WIDTH)
        files = sorted(f.name for f in tmp_path.iterdir())
        # One v3 plan entry plus its sealed sidecar.
        assert len(files) == 2
        assert all(f.endswith(".npz") for f in files)
        assert not any(f.startswith(".") for f in files)  # no temp

    def test_concurrent_stores_never_leave_torn_files(self, tmp_path):
        import threading

        cache = DiskPlanCache(tmp_path)
        p = bit_reversal(_N)
        planner = Planner()
        compiled = planner.compile(p, engine="scheduled",
                                   width=_WIDTH)
        fp = compiled.fingerprint
        signature = planner.pipeline.signature()

        def writer():
            for _ in range(5):
                cache.store(fp, compiled.engine, signature)

        threads = [threading.Thread(target=writer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # Every interleaving leaves one complete, loadable entry.
        assert cache.load(fp) is not None
        assert cache.stats()["disk_corrupt"] == 0
        leftovers = [f for f in tmp_path.iterdir()
                     if f.name.startswith(".")]
        assert leftovers == []


class TestLRUInvalidate:
    def test_invalidate_drops_entry_and_counts(self, tmp_path):
        planner = Planner(cache_dir=tmp_path)
        p = bit_reversal(_N)
        compiled = planner.compile(p, engine="scheduled",
                                   width=_WIDTH)
        assert planner.memory.invalidate(compiled.fingerprint)
        assert not planner.memory.invalidate(compiled.fingerprint)
        assert planner.stats()["memory_invalidations"] == 1
        # The next compile resolves from disk (sealed sidecar first),
        # not a stale handle.
        again = planner.compile(p, engine="scheduled", width=_WIDTH)
        assert again.fingerprint == compiled.fingerprint
        assert planner.stats()["sealed_hits"] == 1

    def test_get_if_present_never_counts_miss(self):
        cache = LRUPlanCache(4)
        before = cache.stats()["memory_misses"]
        assert cache.get_if_present("0" * 64) is None
        assert cache.stats()["memory_misses"] == before


class TestSemanticRejection:
    """An unproven optimization degrades to the raw program — slower,
    never wrong, never cached."""

    @staticmethod
    def _broken_pipeline():
        import dataclasses

        from repro.ir.ops import CasualWrite
        from repro.passes import PassPipeline, default_pipeline

        class Swapper:
            name = "swap-two"

            def run(self, program):
                q = np.arange(program.n, dtype=np.int64)
                q[0], q[1] = q[1], q[0]
                return dataclasses.replace(
                    program,
                    ops=(*program.ops,
                         CasualWrite(label="swap", p=q)),
                    meta=None,
                )

        return PassPipeline(
            (*default_pipeline().passes, Swapper()), name="broken"
        )

    def test_fallback_serves_raw_program_correctly(self):
        p = random_permutation(_N, seed=9)
        planner = Planner(pipeline=self._broken_pipeline())
        compiled = planner.compile(p, engine="scheduled", width=_WIDTH)
        a = np.random.default_rng(1).random(_N).astype(np.float32)
        np.testing.assert_array_equal(compiled.apply(a),
                                      _expected(p, a))
        # The refutation is attached, counted, and blamed.
        cert = compiled.semantic_certificate
        assert cert is not None and cert.ok   # the *fallback* proof
        assert planner.stats()["semantic_rejections"] == 1
        counters = planner.metrics.counter_values()
        assert counters[
            'planner_semantic_rejections_total{blame="swap-two"}'] == 1

    def test_unproven_handle_not_cached(self):
        p = random_permutation(_N, seed=9)
        planner = Planner(pipeline=self._broken_pipeline())
        first = planner.compile(p, engine="scheduled", width=_WIDTH)
        assert first.fingerprint not in planner.memory
        # Every compile re-resolves (and re-rejects) — no poisoning.
        planner.compile(p, engine="scheduled", width=_WIDTH)
        assert planner.stats()["semantic_rejections"] == 2

    def test_healthy_pipeline_is_cached_and_certified(self, tmp_path):
        p = random_permutation(_N, seed=9)
        planner = Planner(cache_dir=tmp_path)
        compiled = planner.compile(p, engine="scheduled",
                                   width=_WIDTH)
        assert compiled.fingerprint in planner.memory
        cert = compiled.semantic_certificate
        assert cert is not None and cert.ok
        assert cert.matches_requested is True
        assert planner.stats()["semantic_rejections"] == 0
        assert "semantics certified" in compiled.describe()

    def test_warm_from_disk_refuses_unproven(self, tmp_path):
        p = random_permutation(_N, seed=9)
        seed_planner = Planner(cache_dir=tmp_path)
        fp = seed_planner.fingerprint(p, engine="scheduled",
                                      width=_WIDTH)
        seed_planner.compile(p, engine="scheduled", width=_WIDTH)

        broken = Planner(cache_dir=tmp_path,
                         pipeline=self._broken_pipeline())
        # Same disk entry, but the broken pipeline cannot prove its
        # optimization — warming must refuse to pin it in memory.
        assert not broken.warm_from_disk(fp)
        assert fp not in broken.memory
