"""PermutationServer unit tests: admission control, shedding,
deadlines, retries, the degradation ladder, coalescing, breakers, and
introspection — all deterministic (fake clock, stubbed workers or
stubbed service where concurrency would race)."""

import numpy as np
import pytest

from repro.errors import (
    CircuitOpenError,
    ColoringError,
    DeadlineExceededError,
    QuotaExceededError,
    ServiceOverloadError,
    ServingError,
    SharedMemoryCapacityError,
    ValidationError,
)
from repro.permutations.named import bit_reversal, random_permutation
from repro.service import PermutationServer, TenantQuota
from repro.service.breaker import OPEN
from repro.service.server import HIGH, LOW, NORMAL, ServeResult

_N, _WIDTH = 1024, 32


def _expected(p, a):
    out = np.empty_like(a)
    out[p] = a
    return out


def _stall_workers(server):
    """Replace the worker loop with a no-op so queued requests stay
    queued and admission logic can be observed synchronously."""
    server._worker = lambda: None
    return server


@pytest.fixture
def server(fake_clock):
    srv = PermutationServer(
        width=_WIDTH, workers=1, backoff_base=0.0,
        clock=fake_clock, sleep=fake_clock.sleep,
    )
    srv.register("bitrev", bit_reversal(_N))
    yield srv
    srv.close()


class TestServeResult:
    def test_resolve_and_metadata(self):
        res = ServeResult("x", "default", NORMAL)
        assert not res.done()
        res._resolve(np.arange(3))
        assert res.done()
        assert np.array_equal(res.result(), np.arange(3))
        assert res.exception() is None

    def test_fail_raises(self):
        res = ServeResult("x", "default", NORMAL)
        res._fail(ServingError("boom"))
        with pytest.raises(ServingError, match="boom"):
            res.result()
        assert isinstance(res.exception(), ServingError)

    def test_result_timeout(self):
        res = ServeResult("x", "default", NORMAL)
        with pytest.raises(DeadlineExceededError):
            res.result(timeout=0.01)


class TestSubmitValidation:
    def test_unknown_name(self, server):
        with pytest.raises(ValidationError, match="registered"):
            server.submit("nope", np.arange(_N))

    def test_payload_shape(self, server):
        with pytest.raises(ValidationError, match="shape"):
            server.submit("bitrev", np.arange(_N - 1))
        with pytest.raises(ValidationError, match="shape"):
            server.submit("bitrev", np.arange(_N), batch=True)

    def test_bad_priority(self, server):
        with pytest.raises(ValidationError, match="priority"):
            server.submit("bitrev", np.arange(_N), priority=7)

    def test_bad_construction(self):
        with pytest.raises(ValidationError):
            PermutationServer(workers=0)
        with pytest.raises(ValidationError):
            PermutationServer(queue_capacity=0)


class TestServing:
    def test_single_and_batch(self, server):
        p = bit_reversal(_N)
        a = np.arange(_N, dtype=np.float32)
        out = server.submit("bitrev", a).result(timeout=30.0)
        assert np.array_equal(out, _expected(p, a))
        batch = np.stack([a, a + 1])
        res = server.submit("bitrev", batch, batch=True)
        out = res.result(timeout=30.0)
        assert np.array_equal(out[1], _expected(p, a + 1))

    def test_apply_conveniences(self, server):
        p = bit_reversal(_N)
        a = np.arange(_N, dtype=np.float32)
        assert np.array_equal(
            server.apply("bitrev", a), _expected(p, a)
        )
        batch = np.stack([a, a])
        assert server.apply_batch("bitrev", batch).shape == batch.shape

    def test_result_metadata(self, server):
        res = server.submit("bitrev", np.arange(_N))
        res.result(timeout=30.0)
        assert res.engine == "scheduled"
        assert res.attempts == 1
        assert res.wait_s >= 0.0

    def test_self_check_accepts_correct_output(self, fake_clock):
        srv = PermutationServer(
            width=_WIDTH, workers=1, self_check=True,
            clock=fake_clock, sleep=fake_clock.sleep,
        )
        srv.register("r", random_permutation(_N, seed=3))
        try:
            out = srv.submit("r", np.arange(_N)).result(timeout=30.0)
            assert out.shape == (_N,)
        finally:
            srv.close()


class TestAdmission:
    def test_queue_full_rejects_with_hint(self, fake_clock):
        srv = _stall_workers(PermutationServer(
            width=_WIDTH, workers=1, queue_capacity=2,
            clock=fake_clock, sleep=fake_clock.sleep,
        ))
        srv.register("bitrev", bit_reversal(_N))
        a = np.arange(_N)
        srv.submit("bitrev", a)
        srv.submit("bitrev", a)
        with pytest.raises(ServiceOverloadError) as info:
            srv.submit("bitrev", a)
        assert info.value.retry_after > 0
        assert srv.stats()["server.rejected.queue_full"] == 1

    def test_high_priority_sheds_low(self, fake_clock):
        srv = _stall_workers(PermutationServer(
            width=_WIDTH, workers=1, queue_capacity=2,
            clock=fake_clock, sleep=fake_clock.sleep,
        ))
        srv.register("bitrev", bit_reversal(_N))
        a = np.arange(_N)
        victim = srv.submit("bitrev", a, priority=LOW)
        srv.submit("bitrev", a, priority=NORMAL)
        kept = srv.submit("bitrev", a, priority=HIGH)
        with pytest.raises(ServiceOverloadError, match="shed"):
            victim.result(timeout=0.0)
        assert not kept.done()
        stats = srv.stats()
        assert stats["server.shed"] == 1
        assert stats["server.queue_depth"] == 2

    def test_equal_priority_never_sheds(self, fake_clock):
        srv = _stall_workers(PermutationServer(
            width=_WIDTH, workers=1, queue_capacity=1,
            clock=fake_clock, sleep=fake_clock.sleep,
        ))
        srv.register("bitrev", bit_reversal(_N))
        a = np.arange(_N)
        first = srv.submit("bitrev", a, priority=NORMAL)
        with pytest.raises(ServiceOverloadError):
            srv.submit("bitrev", a, priority=NORMAL)
        assert not first.done()

    def test_submit_after_close_rejected(self, server):
        server.close()
        with pytest.raises(ServingError, match="closed"):
            server.submit("bitrev", np.arange(_N))

    def test_close_without_drain_fails_queued(self, fake_clock):
        srv = _stall_workers(PermutationServer(
            width=_WIDTH, workers=1,
            clock=fake_clock, sleep=fake_clock.sleep,
        ))
        srv.register("bitrev", bit_reversal(_N))
        res = srv.submit("bitrev", np.arange(_N))
        srv.close(drain=False)
        with pytest.raises(ServingError, match="closed"):
            res.result(timeout=0.0)


class TestQuotas:
    def test_rate_limit(self, fake_clock):
        srv = PermutationServer(
            width=_WIDTH, workers=1,
            quotas={"t": TenantQuota(rps=1.0, burst=1)},
            clock=fake_clock, sleep=fake_clock.sleep,
        )
        srv.register("bitrev", bit_reversal(_N), tenant="t")
        a = np.arange(_N)
        srv.submit("bitrev", a, tenant="t").result(timeout=30.0)
        with pytest.raises(QuotaExceededError) as info:
            srv.submit("bitrev", a, tenant="t")
        assert info.value.retry_after == pytest.approx(1.0)
        fake_clock.advance(1.0)
        srv.submit("bitrev", a, tenant="t").result(timeout=30.0)
        assert srv.stats()["server.rejected.rate"] == 1
        srv.close()

    def test_inflight_bulkhead(self, fake_clock):
        srv = _stall_workers(PermutationServer(
            width=_WIDTH, workers=1,
            quotas={"t": TenantQuota(max_inflight=1)},
            clock=fake_clock, sleep=fake_clock.sleep,
        ))
        srv.register("bitrev", bit_reversal(_N), tenant="t")
        a = np.arange(_N)
        srv.submit("bitrev", a, tenant="t")
        with pytest.raises(QuotaExceededError, match="bulkhead"):
            srv.submit("bitrev", a, tenant="t")

    def test_plan_bulkhead(self):
        srv = PermutationServer(
            width=_WIDTH, workers=1,
            quotas={"t": TenantQuota(max_plans=1)},
        )
        srv.register("a", bit_reversal(_N), tenant="t")
        srv.register("a", bit_reversal(_N), tenant="t")  # same slot
        with pytest.raises(QuotaExceededError, match="plan"):
            srv.register(
                "b", random_permutation(_N, seed=1), tenant="t"
            )
        srv.close()

    def test_tenants_are_namespaced(self, fake_clock):
        srv = PermutationServer(
            width=_WIDTH, workers=1,
            clock=fake_clock, sleep=fake_clock.sleep,
        )
        p_a = bit_reversal(_N)
        p_b = random_permutation(_N, seed=2)
        srv.register("perm", p_a, tenant="alice")
        srv.register("perm", p_b, tenant="bob")   # no collision
        a = np.arange(_N)
        out_a = srv.submit("perm", a, tenant="alice").result(30.0)
        out_b = srv.submit("perm", a, tenant="bob").result(30.0)
        assert np.array_equal(out_a, _expected(p_a, a))
        assert np.array_equal(out_b, _expected(p_b, a))
        with pytest.raises(ValidationError):
            srv.submit("perm", a, tenant="carol")
        srv.close()


class TestDeadlines:
    def test_expired_in_queue_fails_fast(self, fake_clock):
        srv = PermutationServer(
            width=_WIDTH, workers=1,
            clock=fake_clock, sleep=fake_clock.sleep,
        )
        srv.register("bitrev", bit_reversal(_N))
        res = srv.submit("bitrev", np.arange(_N), deadline_s=0.0)
        with pytest.raises(DeadlineExceededError):
            res.result(timeout=30.0)
        assert srv.stats()["server.deadline_exceeded"] >= 1
        srv.close()

    def test_retry_budget_capped_by_deadline(self, fake_clock):
        srv = PermutationServer(
            width=_WIDTH, workers=1, max_attempts=10,
            backoff_base=0.6, breaker_threshold=100,
            clock=fake_clock, sleep=fake_clock.sleep,
        )
        srv.register("bitrev", bit_reversal(_N))

        def always_transient(name, a, engine=None):
            raise ColoringError("injected")

        srv.service.apply = always_transient
        res = srv.submit("bitrev", np.arange(_N), deadline_s=1.0)
        with pytest.raises(DeadlineExceededError, match="retrying"):
            res.result(timeout=30.0)
        # backoff 0.6 then the 0.4 remainder: the clock never passes
        # the deadline by more than the capped sleep.
        assert fake_clock.t == pytest.approx(1.0)
        srv.close()


class TestResilience:
    def test_transient_fault_retried(self, fake_clock):
        srv = PermutationServer(
            width=_WIDTH, workers=1, backoff_base=0.01,
            clock=fake_clock, sleep=fake_clock.sleep,
        )
        srv.register("bitrev", bit_reversal(_N))
        real_apply = srv.service.apply
        calls = {"n": 0}

        def flaky(name, a, engine=None):
            calls["n"] += 1
            if calls["n"] == 1:
                raise ColoringError("injected")
            return real_apply(name, a, engine=engine)

        srv.service.apply = flaky
        res = srv.submit("bitrev", np.arange(_N))
        res.result(timeout=30.0)
        assert res.attempts == 2
        assert res.engine == "scheduled"
        stats = srv.stats()
        assert stats["server.retries"] == 1
        assert stats["server.faults_absorbed"] == 1
        srv.close()

    def test_persistent_fault_degrades_down_ladder(self, fake_clock):
        srv = PermutationServer(
            width=_WIDTH, workers=1,
            clock=fake_clock, sleep=fake_clock.sleep,
        )
        p = bit_reversal(_N)
        srv.register("bitrev", p)
        real_apply = srv.service.apply

        def walled(name, a, engine=None):
            if engine == "scheduled":
                raise SharedMemoryCapacityError("injected wall")
            return real_apply(name, a, engine=engine)

        srv.service.apply = walled
        res = srv.submit("bitrev", np.arange(_N))
        out = res.result(timeout=30.0)
        assert np.array_equal(out, _expected(p, np.arange(_N)))
        assert res.engine == "padded"
        assert srv.stats()["server.degraded"] == 1
        srv.close()

    def test_all_engines_failing_opens_breakers(self, fake_clock):
        srv = PermutationServer(
            width=_WIDTH, workers=1, breaker_threshold=1,
            max_attempts=1, breaker_reset_s=60.0,
            clock=fake_clock, sleep=fake_clock.sleep,
        )
        srv.register("bitrev", bit_reversal(_N))

        def doomed(name, a, engine=None):
            raise SharedMemoryCapacityError("injected")

        srv.service.apply = doomed
        with pytest.raises(ServingError, match="all engines failed"):
            srv.submit("bitrev", np.arange(_N)).result(timeout=30.0)
        for breaker in srv._engine_breakers.values():
            assert breaker.state == OPEN
        # Every rung open: the next request fails fast.
        with pytest.raises(CircuitOpenError):
            srv.submit("bitrev", np.arange(_N)).result(timeout=30.0)
        stats = srv.stats()
        assert stats["server.breaker.all_open"] == 1
        assert stats["server.breaker.engine_skipped"] >= 3
        assert srv.health()["status"] == "degraded"
        srv.close()


def _run_queue(srv):
    """Serve everything queued on the calling thread, group by group —
    one worker, deterministic coalescing."""
    while True:
        with srv._cond:
            if srv._size == 0:
                return
            group = srv._take_group()
        srv._dispatch(group)


def _resolved(stats):
    return sum(stats.get(f"server.{k}", 0) for k in (
        "served", "failed", "shed", "deadline_exceeded",
    ))


class TestRequestAccounting:
    """At quiescence every accepted request resolved exactly once:
    ``accepted == served + failed + shed + deadline_exceeded``."""

    def _server(self, fake_clock, **kwargs):
        kwargs.setdefault("backoff_base", 0.0)
        srv = _stall_workers(PermutationServer(
            width=_WIDTH, workers=1,
            clock=fake_clock, sleep=fake_clock.sleep, **kwargs,
        ))
        srv.register("bitrev", bit_reversal(_N))
        return srv

    def test_coalesced_failing_group(self, fake_clock):
        srv = self._server(fake_clock, max_attempts=1)

        def doomed(name, a, engine=None):
            raise SharedMemoryCapacityError("injected")

        srv.service.apply = srv.service.apply_batch = doomed
        futures = [srv.submit("bitrev", np.arange(_N) + i)
                   for i in range(5)]
        _run_queue(srv)
        for fut in futures:
            with pytest.raises(ServingError):
                fut.result(timeout=0.0)
        stats = srv.stats()
        assert stats["server.accepted"] == 5
        assert stats["server.failed"] == 5
        assert _resolved(stats) == stats["server.accepted"]
        assert stats["server.inflight"] == 0
        # Nothing was delivered, so no rider counts as coalesced.
        assert "server.coalesced" not in stats
        srv.close()

    def test_riders_counted_once_at_delivery(self, fake_clock):
        srv = self._server(fake_clock)
        real = srv.service.apply_batch
        calls = {"n": 0}

        def flaky(name, batch, engine=None):
            calls["n"] += 1
            if calls["n"] == 1:
                raise ColoringError("injected")
            return real(name, batch, engine=engine)

        srv.service.apply_batch = flaky
        futures = [srv.submit("bitrev", np.arange(_N) + i)
                   for i in range(4)]
        _run_queue(srv)
        assert all(fut.result(timeout=0.0) is not None
                   for fut in futures)
        stats = srv.stats()
        assert stats["server.retries"] == 1
        assert stats["server.coalesced"] == 3
        assert stats["server.served"] == 4
        assert _resolved(stats) == stats["server.accepted"] == 4
        srv.close()

    def test_deadline_expiring_during_retries(self, fake_clock):
        srv = self._server(
            fake_clock, max_attempts=10, backoff_base=0.6,
            breaker_threshold=100,
        )

        def always_transient(name, a, engine=None):
            raise ColoringError("injected")

        srv.service.apply = srv.service.apply_batch = always_transient
        futures = [srv.submit("bitrev", np.arange(_N) + i,
                              deadline_s=1.0)
                   for i in range(3)]
        _run_queue(srv)
        for fut in futures:
            with pytest.raises(DeadlineExceededError, match="retrying"):
                fut.result(timeout=0.0)
        stats = srv.stats()
        assert stats["server.deadline_exceeded"] == 3
        assert "server.failed" not in stats
        assert _resolved(stats) == stats["server.accepted"] == 3
        srv.close()

    def test_dropped_on_close_count_as_failed(self, fake_clock):
        srv = self._server(fake_clock)
        for i in range(3):
            srv.submit("bitrev", np.arange(_N) + i)
        srv.close(drain=False)
        stats = srv.stats()
        assert stats["server.failed"] == 3
        assert _resolved(stats) == stats["server.accepted"] == 3


class TestCoalescing:
    def test_same_registration_requests_coalesce(self, fake_clock):
        srv = _stall_workers(PermutationServer(
            width=_WIDTH, workers=1, max_coalesce=8,
            clock=fake_clock, sleep=fake_clock.sleep,
        ))
        srv.register("a", bit_reversal(_N))
        srv.register("b", random_permutation(_N, seed=4))
        x = np.arange(_N)
        for _ in range(3):
            srv.submit("a", x)
        srv.submit("b", x)
        srv.submit("a", np.arange(_N, dtype=np.float32))  # dtype differs
        with srv._cond:
            group = srv._take_group()
        assert len(group) == 3
        assert all(req.key == "default/a" for req in group)
        assert srv._size == 2
        srv.close(drain=False)

    def test_coalesced_results_are_per_request(self, fake_clock):
        srv = PermutationServer(
            width=_WIDTH, workers=1,
            clock=fake_clock, sleep=fake_clock.sleep,
        )
        p = bit_reversal(_N)
        srv.register("bitrev", p)
        payloads = [np.arange(_N) + i for i in range(6)]
        futures = [srv.submit("bitrev", a) for a in payloads]
        for a, fut in zip(payloads, futures):
            assert np.array_equal(
                fut.result(timeout=30.0), _expected(p, a)
            )
        srv.close()

    def test_coalescing_disabled(self, fake_clock):
        srv = _stall_workers(PermutationServer(
            width=_WIDTH, workers=1, coalesce=False,
            clock=fake_clock, sleep=fake_clock.sleep,
        ))
        srv.register("a", bit_reversal(_N))
        srv.submit("a", np.arange(_N))
        srv.submit("a", np.arange(_N))
        with srv._cond:
            group = srv._take_group()
        assert len(group) == 1
        srv.close(drain=False)


class TestIntrospection:
    def test_stats_merges_service_and_server(self, server):
        server.submit("bitrev", np.arange(_N)).result(timeout=30.0)
        stats = server.stats()
        assert stats["server.accepted"] == 1
        assert stats["server.served"] == 1
        assert stats["requests"] == 1           # service layer
        assert "memory_hits" in stats           # planner layer

    def test_health_shape(self, server):
        health = server.health()
        assert health["status"] == "ok"
        assert health["queue"]["capacity"] == 64
        assert health["queue"]["accepting"]

    def test_health_reports_disk_breaker(self, tmp_path, fake_clock):
        srv = PermutationServer(
            width=_WIDTH, cache_dir=tmp_path, workers=1,
            clock=fake_clock, sleep=fake_clock.sleep,
        )
        assert srv.disk_breaker is not None
        assert srv.health()["breakers"]["disk"]["state"] == "closed"
        srv.close()

    def test_context_manager(self):
        with PermutationServer(width=_WIDTH, workers=1) as srv:
            srv.register("bitrev", bit_reversal(_N))
            srv.apply("bitrev", np.arange(_N))
        with pytest.raises(ServingError):
            srv.submit("bitrev", np.arange(_N))
