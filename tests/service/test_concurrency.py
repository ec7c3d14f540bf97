"""Concurrent serving tests: thread-pool clients hammering the server
across three permutation families while faults are injected — zero
wrong answers, and the failure machinery (breaker transitions,
queue-full rejections) observable through ``stats()`` / ``health()``."""

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.errors import (
    ReproError,
    ServiceOverloadError,
    SharedMemoryCapacityError,
)
from repro.permutations.named import (
    bit_reversal,
    random_permutation,
    transpose_permutation,
)
from repro.resilience import FaultPlan
from repro.service import PermutationServer
from repro.service.breaker import CLOSED, HALF_OPEN, OPEN

_N, _WIDTH = 1024, 32

FAMILIES = {
    "bit-reversal": bit_reversal(_N),
    "transpose": transpose_permutation(_N),
    "random": random_permutation(_N, seed=5),
}


def _expected(p, a):
    out = np.empty_like(a)
    out[p] = a
    return out


class TestHammer:
    def test_mixed_families_under_faults_zero_wrong_answers(
        self, tmp_path
    ):
        server = PermutationServer(
            width=_WIDTH, cache_dir=tmp_path, workers=4,
            queue_capacity=128, backoff_base=0.0005,
            breaker_reset_s=0.05,
        )
        fingerprints = {
            name: server.register(name, p)
            for name, p in FAMILIES.items()
        }
        server.warm()
        names = sorted(FAMILIES)
        wrong = []
        failed = []
        lock = threading.Lock()
        stop = threading.Event()
        # Clients start only once the chaos thread has corrupted and
        # invalidated one entry, so the faults always meet traffic
        # however the threads are scheduled.
        bitten = threading.Event()

        def chaos():
            faults = FaultPlan(seed=3)
            modes = ("bit-flip", "truncate", "delete-key",
                     "stale-version")
            cycle = 0
            while not stop.is_set():
                name = names[cycle % len(names)]
                planner = server.service.planner
                try:
                    path = planner.disk.path_for(fingerprints[name])
                    if path.exists():
                        faults.corrupt_plan_file(
                            path, modes[cycle % len(modes)]
                        )
                    sidecar = planner.disk.sealed_path_for(
                        fingerprints[name]
                    )
                    if sidecar.exists():
                        faults.corrupt_plan_file(sidecar, "bit-flip")
                except Exception:
                    pass
                planner.memory.invalidate(fingerprints[name])
                bitten.set()
                try:
                    with FaultPlan(seed=3 + cycle,
                                   transient_coloring_failures=1):
                        stop.wait(0.002)
                except Exception:
                    pass
                cycle += 1

        def client(seed):
            assert bitten.wait(timeout=60.0), "chaos thread never ran"
            rng = np.random.default_rng(seed)
            for i in range(40):
                name = names[int(rng.integers(len(names)))]
                p = FAMILIES[name]
                a = np.arange(_N, dtype=np.int64) + int(
                    rng.integers(10_000)
                )
                batch = i % 10 == 9
                payload = np.stack([a, a + 1]) if batch else a
                try:
                    out = server.submit(
                        name, payload, batch=batch, deadline_s=30.0
                    ).result(timeout=60.0)
                except ReproError as exc:
                    with lock:
                        failed.append(type(exc).__name__)
                    continue
                expected = np.empty_like(payload)
                if batch:
                    expected[:, p] = payload
                else:
                    expected[p] = payload
                if not np.array_equal(out, expected):
                    with lock:
                        wrong.append(name)

        driver = threading.Thread(target=chaos, daemon=True)
        driver.start()
        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(client, range(8)))
        stop.set()
        driver.join(timeout=5.0)
        stats = server.stats()
        server.close()

        assert wrong == []                       # zero wrong answers
        total = 8 * 40
        assert len(failed) <= total * 0.01, failed
        # The chaos actually bit: corrupt entries were detected and
        # healed, and/or injected planning faults were absorbed.
        assert (
            stats.get("disk_corrupt", 0)
            + stats.get("sealed_corrupt", 0)
            + stats.get("server.faults_absorbed", 0)
        ) >= 1
        assert stats["server.served"] >= total - len(failed)

    def test_concurrent_compiles_collapse_to_one_plan(self, tmp_path):
        server = PermutationServer(
            width=_WIDTH, cache_dir=tmp_path, workers=4,
        )
        p = random_permutation(_N, seed=9)
        server.register("r", p)
        # No warm(): the first wave races on the cold compile.
        futures = [
            server.submit("r", np.arange(_N) + i) for i in range(16)
        ]
        for i, fut in enumerate(futures):
            assert np.array_equal(
                fut.result(timeout=60.0),
                _expected(p, np.arange(_N) + i),
            )
        # Single-flight: one cold plan for all concurrent compiles.
        assert server.service.planner.stats()["cold_plans"] == 1
        server.close()


class TestObservableFailures:
    def test_breaker_walks_closed_open_half_open_closed(self):
        server = PermutationServer(
            width=_WIDTH, workers=1, breaker_threshold=1,
            breaker_reset_s=0.0, max_attempts=1,
        )
        p = bit_reversal(_N)
        server.register("bitrev", p)
        real_apply = server.service.apply
        fail_once = {"armed": True}

        def flaky(name, a, engine=None):
            if engine == "scheduled" and fail_once["armed"]:
                fail_once["armed"] = False
                raise SharedMemoryCapacityError("injected")
            return real_apply(name, a, engine=engine)

        server.service.apply = flaky
        a = np.arange(_N)
        # First request: scheduled fails, breaker opens, padded serves.
        res = server.submit("bitrev", a)
        assert np.array_equal(res.result(timeout=30.0),
                              _expected(p, a))
        assert res.engine == "padded"
        breaker = server._engine_breakers["scheduled"]
        # Second request: reset elapsed -> half-open probe succeeds,
        # breaker closes, scheduled serves again.
        res = server.submit("bitrev", a)
        assert res.result(timeout=30.0) is not None
        assert res.engine == "scheduled"
        walk = [(old, new) for _t, old, new in breaker.transitions()]
        assert walk == [
            (CLOSED, OPEN), (OPEN, HALF_OPEN), (HALF_OPEN, CLOSED),
        ]
        assert breaker.snapshot()["state"] == CLOSED
        assert server.health()["status"] == "ok"
        server.close()

    def test_queue_full_rejections_observable(self):
        release = threading.Event()
        server = PermutationServer(
            width=_WIDTH, workers=1, queue_capacity=2, coalesce=False,
        )
        p = bit_reversal(_N)
        server.register("bitrev", p)
        real_apply = server.service.apply

        def blocking(name, a, engine=None):
            release.wait(30.0)
            return real_apply(name, a, engine=engine)

        server.service.apply = blocking
        a = np.arange(_N)
        accepted = [server.submit("bitrev", a)]   # occupies the worker
        # Wait for the worker to pick it up (and block in apply), so
        # queue depth is stable while we overflow it.
        deadline = time.time() + 10.0
        while (server.stats()["server.queue_depth"] > 0
               and time.time() < deadline):
            time.sleep(0.001)
        # Fill the queue behind the stuck worker, then overflow it.
        rejections = 0
        while True:
            try:
                accepted.append(server.submit("bitrev", a))
            except ServiceOverloadError as exc:
                assert exc.retry_after > 0
                rejections += 1
                break
        health = server.health()
        assert health["queue"]["depth"] == health["queue"]["capacity"]
        assert health["status"] == "degraded"
        assert server.stats()["server.rejected.queue_full"] == 1
        release.set()
        for fut in accepted:
            assert np.array_equal(fut.result(timeout=60.0),
                                  _expected(p, a))
        assert rejections == 1
        server.close()

    def test_health_degraded_while_disk_breaker_open(self, tmp_path):
        server = PermutationServer(
            width=_WIDTH, cache_dir=tmp_path, workers=1,
            breaker_threshold=1, breaker_reset_s=60.0,
        )
        fp = server.register("bitrev", bit_reversal(_N))
        server.warm()
        faults = FaultPlan(seed=1)
        faults.corrupt_plan_file(
            server.service.planner.disk.path_for(fp), "truncate"
        )
        faults.corrupt_plan_file(
            server.service.planner.disk.sealed_path_for(fp), "truncate"
        )
        server.service.planner.memory.invalidate(fp)
        a = np.arange(_N)
        out = server.submit("bitrev", a).result(timeout=30.0)
        assert np.array_equal(out, _expected(bit_reversal(_N), a))
        assert server.disk_breaker.state == OPEN
        assert server.health()["status"] == "degraded"
        # Open disk tier is bypassed, requests keep flowing.
        server.service.planner.memory.invalidate(fp)
        out = server.submit("bitrev", a).result(timeout=30.0)
        assert np.array_equal(out, _expected(bit_reversal(_N), a))
        server.close()
