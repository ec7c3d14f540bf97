"""PermutationService tests: registration, warming, serving, stats."""

import threading

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.service import PermutationService, _default_engine
from repro.permutations.named import (
    bit_reversal,
    random_permutation,
)

_N, _WIDTH = 1024, 32


def _expected(p, a):
    out = np.empty_like(a)
    out[p] = a
    return out


class TestDefaultEngine:
    def test_width_aligned_square_is_scheduled(self):
        assert _default_engine(1024, 32) == "scheduled"
        assert _default_engine(64, 4) == "scheduled"

    def test_everything_else_is_padded(self):
        assert _default_engine(1000, 32) == "padded"    # not square
        assert _default_engine(36, 32) == "padded"      # 6 % 32 != 0
        assert _default_engine(0, 32) == "padded"


class TestRegistration:
    def test_register_returns_fingerprint(self, tmp_path):
        svc = PermutationService(width=_WIDTH, cache_dir=tmp_path)
        fp = svc.register("bitrev", bit_reversal(_N))
        assert len(fp) == 64
        assert svc.names() == ["bitrev"]

    def test_fingerprint_matches_planner(self, tmp_path):
        svc = PermutationService(width=_WIDTH, cache_dir=tmp_path)
        p = bit_reversal(_N)
        fp = svc.register("bitrev", p)
        assert fp == svc.planner.fingerprint(
            p, engine="scheduled", width=_WIDTH
        )

    def test_invalid_permutation_rejected(self):
        svc = PermutationService()
        with pytest.raises(ValidationError):
            svc.register("bad", np.array([0, 0, 1]))

    def test_empty_name_rejected(self):
        with pytest.raises(ValidationError):
            PermutationService().register("", bit_reversal(64))

    def test_unknown_name_lists_registered(self):
        svc = PermutationService()
        svc.register("a", bit_reversal(64), engine="padded")
        with pytest.raises(ValidationError, match="registered: a"):
            svc.apply("nope", np.arange(64.0))

    def test_engine_auto_choice(self, tmp_path):
        svc = PermutationService(width=_WIDTH, cache_dir=tmp_path)
        svc.register("square", bit_reversal(_N))
        svc.register("odd", random_permutation(1000, seed=0))
        assert svc._registry["square"].engine == "scheduled"
        assert svc._registry["odd"].engine == "padded"

    def test_same_registration_is_idempotent(self):
        svc = PermutationService(width=_WIDTH)
        p = bit_reversal(_N)
        fp = svc.register("perm", p)
        assert svc.register("perm", p) == fp      # no error, no count
        assert svc.stats()["reregistrations"] == 0

    def test_different_permutation_requires_overwrite(self):
        svc = PermutationService(width=_WIDTH)
        svc.register("perm", bit_reversal(_N))
        other = random_permutation(_N, seed=1)
        with pytest.raises(ValidationError, match="overwrite=True"):
            svc.register("perm", other)
        svc.register("perm", other, overwrite=True)
        assert svc.stats()["reregistrations"] == 1
        a = np.arange(_N, dtype=np.float32)
        assert np.array_equal(svc.apply("perm", a),
                              _expected(other, a))

    def test_engine_change_requires_overwrite(self):
        svc = PermutationService(width=_WIDTH)
        p = bit_reversal(_N)
        svc.register("perm", p, engine="scheduled")
        with pytest.raises(ValidationError, match="overwrite=True"):
            svc.register("perm", p, engine="padded")
        svc.register("perm", p, engine="padded", overwrite=True)
        assert svc._registry["perm"].engine == "padded"

    def test_unregister(self):
        svc = PermutationService(width=_WIDTH)
        svc.register("perm", bit_reversal(_N))
        assert svc.unregister("perm")
        assert not svc.unregister("perm")
        assert svc.names() == []


class TestServing:
    def test_apply_and_batch_correct(self, tmp_path):
        svc = PermutationService(width=_WIDTH, cache_dir=tmp_path)
        p = bit_reversal(_N)
        svc.register("bitrev", p)
        a = np.arange(_N, dtype=np.float32)
        assert np.array_equal(svc.apply("bitrev", a), _expected(p, a))
        batch = np.stack([a, a + 1, a + 2])
        out = svc.apply_batch("bitrev", batch)
        assert np.array_equal(out[1], _expected(p, a + 1))

    def test_warm_then_serve_never_replans(self, tmp_path):
        svc = PermutationService(width=_WIDTH, cache_dir=tmp_path)
        svc.register("bitrev", bit_reversal(_N))
        svc.register("rand", random_permutation(_N, seed=1))
        assert svc.warm() == 2
        plans_after_warm = svc.planner.stats()["cold_plans"]
        a = np.arange(_N, dtype=np.float32)
        for _ in range(5):
            svc.apply("bitrev", a)
            svc.apply("rand", a)
        assert svc.planner.stats()["cold_plans"] == plans_after_warm

    def test_warm_subset(self, tmp_path):
        svc = PermutationService(width=_WIDTH, cache_dir=tmp_path)
        svc.register("a", bit_reversal(_N))
        svc.register("b", random_permutation(_N, seed=2))
        assert svc.warm(["a"]) == 1
        assert svc.planner.stats()["cold_plans"] == 1

    def test_stats_and_describe(self, tmp_path):
        svc = PermutationService(width=_WIDTH, cache_dir=tmp_path)
        p = bit_reversal(_N)
        svc.register("bitrev", p)
        a = np.arange(_N, dtype=np.float32)
        svc.apply("bitrev", a)
        svc.apply_batch("bitrev", np.stack([a, a]))
        stats = svc.stats()
        assert stats["registered"] == 1
        assert stats["requests"] == 3
        assert stats["elements_served"] == 3 * _N
        assert stats["cold_plans"] == 1
        text = svc.describe()
        assert "bitrev" in text and "scheduled" in text

    def test_concurrent_applies_count_exactly(self, tmp_path):
        svc = PermutationService(width=_WIDTH, cache_dir=tmp_path)
        p = bit_reversal(_N)
        svc.register("bitrev", p)
        svc.warm()
        a = np.arange(_N, dtype=np.float32)
        errors = []

        def hammer():
            try:
                for _ in range(50):
                    out = svc.apply("bitrev", a)
                    assert np.array_equal(out, _expected(p, a))
            except Exception as exc:   # pragma: no cover - failure
                errors.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        # Locked counters: no lost increments under contention.
        assert svc.stats()["requests"] == 8 * 50
        assert svc.stats()["elements_served"] == 8 * 50 * _N

    def test_concurrent_registration_races_are_safe(self):
        svc = PermutationService(width=_WIDTH)
        p = bit_reversal(_N)
        outcomes = []

        def racer():
            outcomes.append(svc.register("perm", p))

        threads = [threading.Thread(target=racer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(set(outcomes)) == 1          # all the same fp
        assert svc.stats()["reregistrations"] == 0

    def test_shared_disk_cache_across_services(self, tmp_path):
        p = bit_reversal(_N)
        first = PermutationService(width=_WIDTH, cache_dir=tmp_path)
        first.register("bitrev", p)
        first.warm()
        second = PermutationService(width=_WIDTH, cache_dir=tmp_path)
        second.register("bitrev", p)
        second.warm()
        assert second.stats()["sealed_hits"] == 1
        assert second.stats()["cold_plans"] == 0
