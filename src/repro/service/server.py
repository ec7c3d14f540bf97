"""The fault-tolerant concurrent serving core.

:class:`PermutationServer` turns the synchronous
:class:`~repro.service.PermutationService` into a server: callers
*submit* requests and worker threads serve them, with every production
concern the bare facade lacks:

* **bounded queue + admission control** — a fixed-capacity priority
  queue; when it is full an incoming request either displaces a
  strictly lower-priority queued one (which is *shed* — its caller
  gets :class:`~repro.errors.ServiceOverloadError` with a retry-after
  hint) or is rejected the same way.  The server never buffers
  unbounded work.
* **deadlines** — each request may carry a deadline, enforced at
  admission, at dequeue, and between retry attempts, so expired work
  never occupies a worker.
* **budget-aware retries + degradation** — each dequeued group walks
  the resilience layer's one ladder,
  :func:`~repro.resilience.run_ladder` (the loop
  :class:`~repro.resilience.ResilientPermutation` plans with):
  transient planning faults (flaky colouring) are retried with the
  deterministic :func:`~repro.resilience.backoff_delay`, each sleep
  capped by the remaining deadline budget; when an engine keeps
  failing the request degrades along the familiar ladder
  ``registered engine -> padded -> d-designated`` instead of failing
  the caller.  The walk's :class:`~repro.resilience.FailureReport`
  rides on the :class:`ServeResult`, and the ``server.*`` retry and
  fault counters are read from it.
* **per-tenant namespaces and quotas** — registrations live under
  ``tenant/name`` keys; each tenant is metered by a
  :class:`~repro.service.quotas.TenantQuota` (requests/sec token
  bucket, in-flight bulkhead, resident-plan bulkhead).
* **request coalescing** — concurrent single-payload requests for the
  same registration are drained from the queue together and served by
  one batched ``apply_batch`` pass over the shared plan.
* **circuit breakers** — one per engine and one around the disk-cache
  tier (:class:`_GuardedDiskCache`).  Consecutive failures trip a
  breaker open; while open the backend is skipped (fail-fast /
  plan-from-cold) until a half-open probe succeeds.  Breaker state is
  visible in :meth:`PermutationServer.health` and telemetry gauges.

Everything is observable: ``server.*`` event counters in the planner's
registry, read by :meth:`PermutationServer.stats` and scraped by
:meth:`PermutationServer.metrics_text`, and breaker/queue/tenant
snapshots via :meth:`PermutationServer.health`.  Every admitted
request resolves exactly once, so at quiescence ``accepted == served +
failed + shed + deadline_exceeded``.  See ``docs/serving.md``.

The server serves in-memory payloads only.  An on-disk payload
streams out of core through
:meth:`~repro.service.PermutationService.apply_stream`, which runs
its stripes on threads of its own.

::

    from repro.service import PermutationServer

    with PermutationServer(width=32, cache_dir="plans/",
                           workers=4) as server:
        server.register("shuffle", p)
        result = server.submit("shuffle", a, deadline_s=0.5)
        out = result.result()        # or .result(timeout=...)
"""

from __future__ import annotations

import itertools
import math
import threading
import time
from collections import deque
from collections.abc import Callable
from typing import Any

import numpy as np

from repro import telemetry
from repro.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    QuotaExceededError,
    ReproError,
    ServiceOverloadError,
    ServingError,
    ValidationError,
)
from repro.resilience.engine import (
    DEFAULT_CHAIN,
    TRANSIENT_ERRORS,
    run_ladder,
)
from repro.resilience.reporting import FailureReport
from repro.service import PermutationService
from repro.service.breaker import CLOSED, CircuitBreaker
from repro.service.quotas import (
    UNLIMITED_QUOTA,
    TenantQuota,
    TenantState,
)

__all__ = [
    "HIGH",
    "LOW",
    "NORMAL",
    "PermutationServer",
    "ServeResult",
]

#: Request priorities: lower value is more important.
HIGH, NORMAL, LOW = 0, 1, 2
_PRIORITIES = (HIGH, NORMAL, LOW)

#: Fallback retry-after hint when the server has no latency sample yet.
_DEFAULT_LATENCY_S = 0.005

#: Every ``server.<event>`` counter, bound at construction as a
#: ``server_events_total{event=...}`` child.
_EVENTS = (
    "accepted", "served", "failed", "shed", "deadline_exceeded",
    "coalesced", "retries", "faults_absorbed", "degraded",
    "ladder_exhausted", "self_check_failed", "breaker.engine_skipped",
    "breaker.all_open", "rejected.rate", "rejected.bulkhead",
    "rejected.queue_full", "rejected.plan_quota",
)

#: The instantaneous ``stats()`` fields, set as gauges at scrape time.
_STATE_GAUGES = {
    "server.queue_depth": ("server_queue_depth", {}),
    "server.queue_capacity": ("server_queue_capacity", {}),
    "server.inflight": ("server_inflight", {}),
    "server.latency_ema_s": ("server_latency_ema_seconds", {}),
    "registered": ("service_registrations", {}),
    "memory_capacity": (
        "planner_cache_capacity_entries", {"tier": "memory"}
    ),
    **{
        f"{tier}_{field}": (f"planner_cache_{field}", {"tier": tier})
        for tier in ("memory", "disk")
        for field in ("bytes", "entries", "max_bytes")
    },
}


class ServeResult:
    """A future for one submitted request.

    ``result()`` blocks until the request is served, then returns the
    permuted payload or raises the failure.  After completion the
    handle also carries how the request was served: ``engine`` (which
    ladder rung answered), ``attempts``, ``coalesced`` (whether it
    shared a batched apply), ``wait_s`` / ``service_s`` timings, and
    ``report``, the :class:`~repro.resilience.FailureReport` of the
    ladder walk (``None`` when it expired or was shed before the walk).
    """

    def __init__(self, name: str, tenant: str, priority: int) -> None:
        self.name = name
        self.tenant = tenant
        self.priority = priority
        self.engine: str | None = None
        self.attempts = 0
        self.coalesced = False
        self.wait_s = 0.0
        self.service_s = 0.0
        self.report: FailureReport | None = None
        self._event = threading.Event()
        self._value: np.ndarray | None = None
        self._error: BaseException | None = None

    def done(self) -> bool:
        return self._event.is_set()

    def result(self, timeout: float | None = None) -> np.ndarray:
        if not self._event.wait(timeout):
            raise DeadlineExceededError(
                f"request {self.name!r} not finished within "
                f"{timeout} s"
            )
        if self._error is not None:
            raise self._error
        assert self._value is not None
        return self._value

    def exception(
        self, timeout: float | None = None
    ) -> BaseException | None:
        self._event.wait(timeout)
        return self._error

    def _resolve(self, value: np.ndarray) -> None:
        self._value = value
        self._event.set()

    def _fail(self, error: BaseException) -> None:
        self._error = error
        self._event.set()


class _Request:
    """One queue entry (internal).

    ``rid`` is the process-unique request id (always assigned);
    ``ctx`` / ``qspan`` carry the request's
    :class:`~repro.telemetry.RequestContext` and detached queue-wait
    span, and stay ``None`` when no tracer is active — the disabled
    fast path allocates neither.
    """

    __slots__ = ("key", "payload", "batch", "priority", "deadline",
                 "enqueued", "tenant", "result", "rid", "ctx", "qspan")

    def __init__(self, key: str, payload: np.ndarray, batch: bool,
                 priority: int, deadline: float | None,
                 enqueued: float, tenant: str, result: "ServeResult",
                 rid: int = 0, ctx: Any = None,
                 qspan: Any = None) -> None:
        self.key = key
        self.payload = payload
        self.batch = batch
        self.priority = priority
        self.deadline = deadline
        self.enqueued = enqueued
        self.tenant = tenant
        self.result = result
        self.rid = rid
        self.ctx = ctx
        self.qspan = qspan


class _GuardedDiskCache:
    """A :class:`~repro.planner.DiskPlanCache` behind a breaker.

    Transparent to the planner (everything not intercepted is
    delegated), but when the disk tier keeps serving corrupt entries
    or failing writes the breaker opens and the tier is bypassed —
    loads report a miss, stores are skipped — until a half-open probe
    succeeds.  A sick cache directory then costs re-planning, never
    repeated heal-on-every-load work.
    """

    def __init__(self, inner: Any, breaker: CircuitBreaker) -> None:
        self._inner = inner
        self.breaker = breaker
        metrics = inner.metrics
        self._bypassed = metrics.counter("server_disk_bypassed_total")
        self._store_failed = metrics.counter(
            "server_disk_store_failed_total"
        )
        # The inner cache's own children (same name and labels).
        self._corrupt = {
            tier: metrics.counter("planner_cache_corrupt_total", tier=tier)
            for tier in ("disk", "sealed")
        }

    def load(self, fingerprint: str) -> Any:
        if not self.breaker.allow():
            self._bypassed.inc()
            return None
        corrupt_before = self._corrupt["disk"].value
        plan = self._inner.load(fingerprint)
        if self._corrupt["disk"].value > corrupt_before:
            self.breaker.record_failure()
        elif plan is not None:
            self.breaker.record_success()
        return plan

    def store(
        self,
        fingerprint: str,
        plan: Any,
        pipeline_signature: str,
        semantic_certificate: Any | None = None,
    ) -> str | None:
        """The inner store's payload checksum, or ``None`` when the
        breaker bypassed the write or it failed (nothing written)."""
        if not self.breaker.allow():
            self._bypassed.inc()
            return None
        try:
            checksum = self._inner.store(
                fingerprint, plan, pipeline_signature,
                semantic_certificate=semantic_certificate,
            )
        except OSError:
            # A failed persist must not fail the request being served;
            # the plan lives on in the memory tier.
            self.breaker.record_failure()
            self._store_failed.inc()
            return None
        self.breaker.record_success()
        return str(checksum)

    def load_sealed(self, fingerprint: str) -> Any:
        if not self.breaker.allow():
            self._bypassed.inc()
            return None
        corrupt_before = self._corrupt["sealed"].value
        sealed = self._inner.load_sealed(fingerprint)
        if self._corrupt["sealed"].value > corrupt_before:
            self.breaker.record_failure()
        elif sealed is not None:
            self.breaker.record_success()
        return sealed

    def store_sealed(self, fingerprint: str, sealed: Any) -> None:
        if not self.breaker.allow():
            self._bypassed.inc()
            return
        try:
            self._inner.store_sealed(fingerprint, sealed)
        except OSError:
            # Same contract as ``store``: a failed sidecar persist
            # never fails the request; the sealed form stays resident.
            self.breaker.record_failure()
            self._store_failed.inc()
            return
        self.breaker.record_success()

    def __getattr__(self, attr: str) -> Any:
        return getattr(self._inner, attr)


class PermutationServer:
    """Concurrent, fault-tolerant front door over a service.

    Parameters
    ----------
    service:
        The :class:`~repro.service.PermutationService` to serve from
        (one is built from ``width`` / ``cache_dir`` when omitted).
    workers:
        Worker threads draining the queue.
    queue_capacity:
        Bound on queued requests; beyond it admission control sheds or
        rejects.
    default_deadline_s:
        Deadline applied to requests that do not carry their own
        (``None``: no deadline).
    max_attempts / backoff_base:
        Per-engine retry budget for transient faults and the base of
        the deterministic backoff schedule.
    breaker_threshold / breaker_reset_s / half_open_probes:
        Circuit-breaker tuning, shared by the per-engine and disk
        breakers.
    coalesce / max_coalesce:
        Batch concurrent same-registration requests into one
        ``apply_batch`` (up to ``max_coalesce`` payloads per pass).
    quotas:
        ``{tenant: TenantQuota}``; tenants not listed get
        ``default_quota`` (unlimited unless specified).
    self_check:
        Verify every served output against the definitional scatter
        before delivering it (one extra O(n) pass per request).
    slo:
        The :class:`~repro.telemetry.SLO` objectives the built-in
        :class:`~repro.telemetry.SLOMonitor` enforces (defaults are
        permissive: 99 % availability, 250 ms p99).
    recorder / postmortem_dir:
        The :class:`~repro.telemetry.FlightRecorder` capturing recent
        request events (one is created when omitted, dumping bundles
        to ``postmortem_dir`` if given).  The server dumps on SLO
        breach, shed bursts, and unexpected (non-repro) errors.
    metrics_port:
        When not ``None``, :meth:`start` additionally serves
        ``GET /metrics`` (Prometheus text) and ``GET /health`` on
        ``127.0.0.1:<metrics_port>`` (``0`` picks an ephemeral port,
        see ``server.http.port``).
    clock / sleep:
        Injectable monotonic clock and sleeper for deterministic
        tests.
    """

    def __init__(
        self,
        service: PermutationService | None = None,
        *,
        width: int = 32,
        cache_dir: Any = None,
        workers: int = 2,
        queue_capacity: int = 64,
        default_deadline_s: float | None = None,
        max_attempts: int = 3,
        backoff_base: float = 0.01,
        breaker_threshold: int = 3,
        breaker_reset_s: float = 0.25,
        half_open_probes: int = 1,
        coalesce: bool = True,
        max_coalesce: int = 16,
        quotas: dict[str, TenantQuota] | None = None,
        default_quota: TenantQuota = UNLIMITED_QUOTA,
        self_check: bool = False,
        slo: Any = None,
        recorder: Any = None,
        postmortem_dir: Any = None,
        metrics_port: int | None = None,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if workers < 1:
            raise ValidationError(f"workers must be >= 1, got {workers}")
        if queue_capacity < 1:
            raise ValidationError(
                f"queue_capacity must be >= 1, got {queue_capacity}"
            )
        if max_attempts < 1:
            raise ValidationError(
                f"max_attempts must be >= 1, got {max_attempts}"
            )
        if max_coalesce < 1:
            raise ValidationError(
                f"max_coalesce must be >= 1, got {max_coalesce}"
            )
        self.service = service or PermutationService(
            width=width, cache_dir=cache_dir
        )
        self.workers = int(workers)
        self.queue_capacity = int(queue_capacity)
        self.default_deadline_s = default_deadline_s
        self.max_attempts = int(max_attempts)
        self.backoff_base = float(backoff_base)
        self.coalesce = bool(coalesce)
        self.max_coalesce = int(max_coalesce)
        self.self_check = bool(self_check)
        self._breaker_threshold = int(breaker_threshold)
        self._breaker_reset_s = float(breaker_reset_s)
        self._half_open_probes = int(half_open_probes)
        self._clock = clock
        self._sleep = sleep
        self._quotas = dict(quotas or {})
        self._default_quota = default_quota
        self._tenants: dict[str, TenantState] = {}
        self._buckets: dict[int, deque[_Request]] = {
            prio: deque() for prio in _PRIORITIES
        }
        self._size = 0
        self._cond = threading.Condition()
        self._stats_lock = threading.Lock()
        self._events = {
            event: self.metrics.counter(
                "server_events_total", event=event
            )
            for event in _EVENTS
        }
        self._latency_ema = _DEFAULT_LATENCY_S
        self._stopping = False
        self._started = False
        self._threads: list[threading.Thread] = []
        self._engine_breakers: dict[str, CircuitBreaker] = {}
        self.disk_breaker: CircuitBreaker | None = None
        #: Rolling SLO compliance and the failure flight recorder.
        self.slo_monitor = telemetry.SLOMonitor(
            slo or telemetry.SLO(), clock=clock
        )
        self.recorder = recorder or telemetry.FlightRecorder(
            dump_dir=postmortem_dir, clock=clock
        )
        self.recorder.add_provider("health", self.health)
        self.recorder.add_provider("slo", self.slo_monitor.status)
        self.recorder.add_provider(
            "active_requests", self._active_requests
        )
        self._metrics_port = metrics_port
        self.http = None
        self._rid = itertools.count(1)
        # Shed timestamps for burst detection: a full window inside
        # one second triggers a flight-recorder dump.
        self._recent_sheds: deque[float] = deque(maxlen=8)
        # In-flight requests by rid (admitted, not yet resolved) —
        # snapshotted into post-mortem bundles.
        self._inflight_reqs: dict[int, dict] = {}
        planner = self.service.planner
        if planner.disk is not None and not isinstance(
            planner.disk, _GuardedDiskCache
        ):
            self.disk_breaker = CircuitBreaker(
                "disk",
                failure_threshold=self._breaker_threshold,
                reset_timeout=self._breaker_reset_s,
                half_open_probes=self._half_open_probes,
                clock=clock,
            )
            planner.disk = _GuardedDiskCache(
                planner.disk, self.disk_breaker
            )

    @property
    def metrics(self) -> telemetry.MetricsRegistry:
        """The stack's one registry (the planner's, via the service)."""
        return self.service.metrics

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "PermutationServer":
        """Spawn the worker threads (idempotent)."""
        with self._cond:
            if self._started:
                return self
            if self._stopping:
                raise ServingError("server is closed")
            self._started = True
            for i in range(self.workers):
                t = threading.Thread(
                    target=self._worker,
                    name=f"permserve-worker-{i}",
                    daemon=True,
                )
                self._threads.append(t)
                t.start()
        if self._metrics_port is not None and self.http is None:
            self.http = telemetry.MetricsHTTPServer(
                self.metrics_text,
                health_fn=self.health,
                port=self._metrics_port,
            ).start()
        return self

    def close(self, drain: bool = True) -> None:
        """Stop accepting requests and shut the workers down.

        With ``drain=True`` (default) queued requests are served
        first; otherwise they fail with
        :class:`~repro.errors.ServingError`.
        """
        dropped: list[_Request] = []
        with self._cond:
            self._stopping = True
            if not drain:
                for bucket in self._buckets.values():
                    while bucket:
                        req = bucket.popleft()
                        self._size -= 1
                        self._tenant(req.tenant).inflight -= 1
                        req.result._fail(
                            ServingError("server closed before the "
                                         "request was served")
                        )
                        dropped.append(req)
            self._count("failed", len(dropped))
            self._cond.notify_all()
        for req in dropped:
            # Outside the queue lock: finishing a request can trigger
            # a flight-recorder dump whose providers re-take it.
            if req.qspan is not None:
                telemetry.end_span(req.qspan, outcome="dropped")
            self._finish_request(req, "dropped", ok=False)
        for t in self._threads:
            t.join(timeout=30.0)
        self._threads.clear()
        if self.http is not None:
            self.http.close()
            self.http = None

    def __enter__(self) -> "PermutationServer":
        return self.start()

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Registration (tenant namespaces)
    # ------------------------------------------------------------------

    @staticmethod
    def _key(tenant: str, name: str) -> str:
        return f"{tenant}/{name}"

    def _tenant(self, tenant: str) -> TenantState:
        state = self._tenants.get(tenant)
        if state is None:
            quota = self._quotas.get(tenant, self._default_quota)
            state = TenantState(quota, clock=self._clock)
            self._tenants[tenant] = state
        return state

    def register(
        self,
        name: str,
        p: np.ndarray,
        engine: str | None = None,
        tenant: str = "default",
        overwrite: bool = False,
    ) -> str:
        """Register ``p`` in the tenant's namespace; returns the plan
        fingerprint.  Enforces the tenant's resident-plan bulkhead."""
        key = self._key(tenant, name)
        with self._cond:
            state = self._tenant(tenant)
            if not state.plan_slot_available(key):
                self._count("rejected.plan_quota")
                raise QuotaExceededError(
                    f"tenant {tenant!r} is at its resident-plan "
                    f"quota ({state.quota.max_plans}); unregister a "
                    "permutation first"
                )
        fp = self.service.register(
            key, p, engine=engine, overwrite=overwrite
        )
        with self._cond:
            self._tenant(tenant).plans.add(key)
        return fp

    def warm(self, tenant: str | None = None) -> int:
        """Compile every registration (of one tenant, or all)."""
        names = self.service.names()
        if tenant is not None:
            prefix = f"{tenant}/"
            names = [n for n in names if n.startswith(prefix)]
        return self.service.warm(names)

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------

    def _count(self, name: str, n: int = 1) -> None:
        # Under the stats lock: stats() reads every event at one instant.
        with self._stats_lock:
            self._events[name].inc(n)

    def _active_requests(self) -> list[dict]:
        """Flight-recorder snapshot of every in-flight request."""
        now = self._clock()
        with self._stats_lock:
            rows = [dict(info) for info in self._inflight_reqs.values()]
        for row in rows:
            row["age_s"] = now - row.pop("enqueued")
        return sorted(rows, key=lambda r: r["rid"])

    def _track(self, request: _Request) -> None:
        info = {
            "rid": request.rid,
            "key": request.key,
            "tenant": request.tenant,
            "priority": request.priority,
            "enqueued": request.enqueued,
        }
        span_id = getattr(request.ctx.span, "span_id", None) \
            if request.ctx is not None else None
        if span_id is not None:
            info["span_id"] = span_id
        with self._stats_lock:
            self._inflight_reqs[request.rid] = info

    def _finish_request(
        self,
        request: _Request,
        outcome: str,
        ok: bool,
        engine: str | None = None,
    ) -> None:
        """Observability epilogue for one resolved request.

        Records the end-to-end latency histogram (labeled by family,
        tenant, engine and outcome), feeds the SLO monitor (dumping a
        post-mortem on the breach transition), logs a flight-recorder
        event, ends the request's root span, and drops it from the
        in-flight table.  Must be called exactly once per admitted
        request, after its future resolves.
        """
        e2e = self._clock() - request.enqueued
        family = request.key.rsplit("/", 1)[-1]
        self.metrics.histogram(
            "server_e2e_seconds",
            family=family,
            tenant=request.tenant,
            engine=engine or "none",
            outcome=outcome,
        ).observe(e2e)
        self.recorder.record(
            "finish", rid=request.rid, outcome=outcome,
            engine=engine, e2e_s=round(e2e, 6),
        )
        if request.ctx is not None:
            telemetry.end_span(
                request.ctx.span, outcome=outcome,
                engine=engine, e2e_s=e2e,
            )
        with self._stats_lock:
            self._inflight_reqs.pop(request.rid, None)
        if self.slo_monitor.record(ok, e2e):
            self.recorder.dump(
                "slo_breach", rid=request.rid, outcome=outcome
            )

    def metrics_text(self) -> str:
        """The Prometheus exposition for ``/metrics``.  State values
        (the instantaneous ``stats()`` fields, SLO compliance) are set
        as gauges here, at scrape time."""
        stats = self.stats()
        gauge = self.metrics.gauge
        for key, (name, labels) in _STATE_GAUGES.items():
            if key in stats:
                value = stats[key]
                gauge(name, **labels).set(
                    math.inf if value is None else value
                )
        if "disk_directory" in stats:
            gauge("planner_cache_directory_info",
                  directory=stats["disk_directory"]).set(1)
        status = self.slo_monitor.status()
        gauge("slo_availability").set(status["availability"])
        gauge("slo_latency_p99_seconds").set(status["p99_s"])
        gauge("slo_burn_rate").set(min(status["burn_rate"], 1e9))
        gauge("slo_breached").set(1.0 if status["breached"] else 0.0)
        gauge("recorder_events_total").set(self.recorder.recorded)
        gauge("recorder_dumps_total").set(self.recorder.dumps)
        return self.metrics.prometheus_text()

    def _retry_after(self) -> float:
        ema = self._latency_ema or _DEFAULT_LATENCY_S
        return ema * (1 + self._size / max(1, self.workers))

    def _shed_for(self, priority: int) -> _Request | None:
        """The queued request to displace for an incoming ``priority``
        request: the newest entry of the lowest-priority non-empty
        bucket, and only if strictly less important."""
        for prio in reversed(_PRIORITIES):
            if prio <= priority:
                return None
            if self._buckets[prio]:
                return self._buckets[prio].pop()
        return None

    def submit(
        self,
        name: str,
        a: np.ndarray,
        *,
        tenant: str = "default",
        priority: int = NORMAL,
        deadline_s: float | None = None,
        batch: bool = False,
    ) -> ServeResult:
        """Enqueue one request; returns a :class:`ServeResult` future.

        Raises synchronously when the request cannot be admitted:
        :class:`~repro.errors.QuotaExceededError` (tenant over rate or
        bulkhead), :class:`~repro.errors.ServiceOverloadError` (queue
        full, nothing shed-able) — both carry ``retry_after`` — or
        :class:`~repro.errors.ValidationError` (unknown name, payload
        shape mismatch).
        """
        if priority not in _PRIORITIES:
            raise ValidationError(
                f"priority must be one of {_PRIORITIES}, got {priority}"
            )
        key = self._key(tenant, name)
        reg = self.service._registration(key)
        payload = np.asarray(a)
        n = int(reg.p.shape[0])
        if batch:
            if payload.ndim != 2 or payload.shape[1] != n:
                raise ValidationError(
                    f"batch payload must have shape (k, {n}), got "
                    f"{payload.shape}"
                )
        elif payload.shape != (n,):
            raise ValidationError(
                f"payload must have shape ({n},), got {payload.shape}"
            )
        self.start()
        now = self._clock()
        limit = deadline_s if deadline_s is not None \
            else self.default_deadline_s
        deadline = now + limit if limit is not None else None
        result = ServeResult(name=name, tenant=tenant, priority=priority)
        rid = next(self._rid)
        ctx = qspan = None
        if telemetry.get_tracer() is not None:
            # Only an active tracer pays for a context + root span;
            # the disabled fast path allocates neither.
            ctx = telemetry.RequestContext(
                rid, tenant=tenant, name=name, priority=priority,
                deadline=deadline,
            )
            ctx.span = telemetry.begin_span(
                "serve.request", request_id=rid, tenant=tenant,
                registration=name, priority=priority,
            )
            qspan = telemetry.begin_span(
                "serve.queue_wait", parent=ctx.span, request_id=rid
            )
        request = _Request(
            key=key, payload=payload, batch=batch, priority=priority,
            deadline=deadline, enqueued=now, tenant=tenant,
            result=result, rid=rid, ctx=ctx, qspan=qspan,
        )
        victim: _Request | None = None
        shed_burst = False
        try:
            with self._cond:
                if self._stopping:
                    raise ServingError("server is closed")
                state = self._tenant(tenant)
                wait = state.try_acquire()
                if wait > 0:
                    self._count("rejected.rate")
                    raise QuotaExceededError(
                        f"tenant {tenant!r} exceeded "
                        f"{state.quota.rps} requests/sec",
                        retry_after=wait,
                    )
                if not state.inflight_available():
                    self._count("rejected.bulkhead")
                    raise QuotaExceededError(
                        f"tenant {tenant!r} is at its in-flight "
                        f"bulkhead ({state.quota.max_inflight})",
                        retry_after=self._retry_after(),
                    )
                if self._size >= self.queue_capacity:
                    victim = self._shed_for(priority)
                    if victim is None:
                        self._count("rejected.queue_full")
                        raise ServiceOverloadError(
                            f"request queue is full "
                            f"({self.queue_capacity} deep)",
                            retry_after=self._retry_after(),
                        )
                    self._size -= 1
                    self._tenant(victim.tenant).inflight -= 1
                    self._count("shed")
                    self._recent_sheds.append(self._clock())
                    shed_burst = (
                        len(self._recent_sheds)
                        == self._recent_sheds.maxlen
                        and (self._recent_sheds[-1]
                             - self._recent_sheds[0]) <= 1.0
                    )
                    victim.result._fail(ServiceOverloadError(
                        "shed from the queue by a higher-priority "
                        "request",
                        retry_after=self._retry_after(),
                    ))
                self._buckets[priority].append(request)
                self._size += 1
                state.inflight += 1
                self._count("accepted")
                self._cond.notify()
        except (QuotaExceededError, ServiceOverloadError,
                ServingError) as exc:
            self.recorder.record(
                "reject", rid=rid, key=key, tenant=tenant,
                reason=type(exc).__name__,
            )
            if ctx is not None:
                telemetry.end_span(qspan, outcome="rejected")
                telemetry.end_span(
                    ctx.span, outcome="rejected",
                    reason=type(exc).__name__,
                )
            raise
        self._track(request)
        self.recorder.record(
            "admit", rid=rid, key=key, tenant=tenant,
            priority=priority,
        )
        if victim is not None:
            if victim.qspan is not None:
                telemetry.end_span(victim.qspan, outcome="shed")
            self.recorder.record(
                "shed", rid=victim.rid, by=rid, key=victim.key
            )
            self._finish_request(victim, "shed", ok=False)
            if shed_burst:
                self.recorder.dump(
                    "shed_burst",
                    window_s=round(self._recent_sheds[-1]
                                   - self._recent_sheds[0], 3),
                    sheds=len(self._recent_sheds),
                )
        return result

    def apply(self, name: str, a: np.ndarray, **kwargs) -> np.ndarray:
        """Synchronous convenience: ``submit(...).result()``."""
        return self.submit(name, a, **kwargs).result()

    def apply_batch(
        self, name: str, batch: np.ndarray, **kwargs
    ) -> np.ndarray:
        """Synchronous convenience for a stacked ``(k, n)`` payload."""
        return self.submit(name, batch, batch=True, **kwargs).result()

    # ------------------------------------------------------------------
    # Workers
    # ------------------------------------------------------------------

    def _worker(self) -> None:
        while True:
            with self._cond:
                while self._size == 0 and not self._stopping:
                    self._cond.wait()
                if self._size == 0 and self._stopping:
                    return
                group = self._take_group()
            try:
                self._dispatch(group)
            finally:
                with self._cond:
                    for req in group:
                        self._tenant(req.tenant).inflight -= 1

    def _take_group(self) -> list[_Request]:
        """Pop the most important request and (when coalescing) every
        compatible same-registration single request behind it.  Caller
        holds the lock."""
        first: _Request | None = None
        for prio in _PRIORITIES:
            if self._buckets[prio]:
                first = self._buckets[prio].popleft()
                break
        assert first is not None
        self._size -= 1
        group = [first]
        if not self.coalesce or first.batch:
            return group
        shape, dtype = first.payload.shape, first.payload.dtype
        for prio in _PRIORITIES:
            bucket = self._buckets[prio]
            keep: deque[_Request] = deque()
            while bucket and len(group) < self.max_coalesce:
                req = bucket.popleft()
                if (
                    not req.batch
                    and req.key == first.key
                    and req.payload.shape == shape
                    and req.payload.dtype == dtype
                ):
                    group.append(req)
                    self._size -= 1
                else:
                    keep.append(req)
            keep.extend(bucket)
            bucket.clear()
            bucket.extend(keep)
            if len(group) >= self.max_coalesce:
                break
        return group

    def _dispatch(self, group: list[_Request]) -> None:
        """Serve one dequeued group end to end."""
        now = self._clock()
        live: list[_Request] = []
        for req in group:
            wait = now - req.enqueued
            if req.qspan is not None:
                telemetry.end_span(req.qspan, wait_s=wait)
            self.metrics.histogram(
                "server_queue_wait_seconds",
                priority=str(req.priority),
            ).observe(wait)
            if req.deadline is not None and now >= req.deadline:
                self._count("deadline_exceeded")
                error = DeadlineExceededError(
                    f"deadline expired after "
                    f"{wait:.3f} s in the queue"
                )
                req.result._fail(error)
                self._finish_request(
                    req, "deadline_exceeded", ok=False
                )
            else:
                req.result.wait_s = wait
                live.append(req)
        if not live:
            return
        # Adopt the group leader's request context on this worker
        # thread: spans opened while serving nest under its root, so
        # the whole serve renders as one connected tree.  Riders keep
        # their own root spans and are linked by attribute.
        leader = live[0]
        t0 = self._clock()
        try:
            if leader.ctx is not None:
                with telemetry.request_scope(leader.ctx):
                    self._serve(live)
            else:
                self._serve(live)
        except Exception as exc:
            # Catch everything: an escaped exception would kill the
            # worker thread and leave every queued future unresolved.
            # Each request resolves once, expired or failed.
            self._count(
                "deadline_exceeded"
                if isinstance(exc, DeadlineExceededError) else "failed",
                len(live),
            )
            engine = leader.result.engine
            for req in live:
                req.result._fail(exc)
                self._finish_request(
                    req, type(exc).__name__, ok=False, engine=engine
                )
            if not isinstance(exc, ReproError):
                # Anything outside the library's failure taxonomy is
                # a bug, not an operational condition: freeze the ring.
                self.recorder.dump(
                    "unexpected_error", rid=leader.rid,
                    error=f"{type(exc).__name__}: {exc}",
                )
            return
        elapsed = self._clock() - t0
        with self._stats_lock:
            self._latency_ema = (
                0.9 * self._latency_ema + 0.1 * elapsed
            )
        engine = leader.result.engine
        for req in live:
            req.result.service_s = elapsed
            self._finish_request(req, "ok", ok=True, engine=engine)
        self._count("served", len(live))

    # ------------------------------------------------------------------
    # Execution: breakers, retries, degradation ladder
    # ------------------------------------------------------------------

    def _engine_breaker(self, engine: str) -> CircuitBreaker:
        breaker = self._engine_breakers.get(engine)
        if breaker is None:
            with self._stats_lock:
                breaker = self._engine_breakers.get(engine)
                if breaker is None:
                    breaker = CircuitBreaker(
                        f"engine.{engine}",
                        failure_threshold=self._breaker_threshold,
                        reset_timeout=self._breaker_reset_s,
                        half_open_probes=self._half_open_probes,
                        clock=self._clock,
                    )
                    self._engine_breakers[engine] = breaker
        return breaker

    def _serve(self, group: list[_Request]) -> None:
        """Serve ``group`` (same registration), resolving every future.

        Walks the engine ladder with :func:`~repro.resilience.run_ladder`
        under the per-engine breakers: transient faults retry with
        deadline-capped backoff, persistent faults hop to the next
        engine.  The group degrades and succeeds — or fails — together.
        """
        key = group[0].key
        registered = self.service._registration(key).engine
        ladder = [registered] + [
            e for e in DEFAULT_CHAIN if e != registered
        ]
        deadline = min(
            (r.deadline for r in group if r.deadline is not None),
            default=None,
        )
        report = FailureReport(chain=tuple(ladder))
        for req in group:
            req.result.report = report

        def attempt(engine: str, n: int) -> Any:
            tried = len(report.records)
            if tried == 0:
                t_first = self._clock()
                for req in group:
                    self.metrics.histogram(
                        "server_first_attempt_seconds",
                        priority=str(req.priority),
                    ).observe(t_first - req.enqueued)
            with telemetry.span(
                "serve.attempt",
                engine=engine,
                attempt=tried + 1,
                riders=[r.rid for r in group[1:]],
            ):
                return self._apply_group(key, group, engine)

        try:
            won = run_ladder(
                ladder, attempt, report,
                stage="apply",
                max_attempts=self.max_attempts,
                backoff_base=self.backoff_base,
                sleep=self._sleep,
                gate=self._engine_breaker,
                deadline=deadline,
                clock=self._clock,
            )
        finally:
            self._tally(group[0].rid, report)
        if won is not None:
            engine, out = won
            if engine != registered:
                self._count("degraded", len(group))
            self._deliver(group, out, engine, report.attempts_total)
            return
        if len(report.skipped) == len(ladder):
            self._count("breaker.all_open")
            raise CircuitOpenError(
                "every engine breaker is open; retry after "
                f"{self._breaker_reset_s} s"
            )
        self._count("ladder_exhausted")
        raise ServingError(
            f"all engines failed for {key!r} "
            f"(ladder {' -> '.join(ladder)}, "
            f"{len(report.records)} attempts)"
        )

    def _tally(self, rid: int, report: FailureReport) -> None:
        """Count one ladder walk's events and log them to the flight
        recorder, all read from its report."""
        retries = sum(rec.retried for rec in report.records)
        for event, n in (
            ("faults_absorbed", len(report.records)),
            ("retries", retries),
            ("breaker.engine_skipped", len(report.skipped)),
        ):
            if n:
                self._count(event, n)
        for engine in report.skipped:
            self.recorder.record("breaker_skip", rid=rid, engine=engine)
        for i, rec in enumerate(report.records, 1):
            self.recorder.record(
                "fault", rid=rid, engine=rec.engine, attempt=i,
                transient=isinstance(rec.error, TRANSIENT_ERRORS),
            )

    def _apply_group(
        self, key: str, group: list[_Request], engine: str
    ) -> np.ndarray | list[np.ndarray]:
        """One apply pass for the whole group on one engine."""
        if len(group) == 1 and not group[0].batch:
            return self.service.apply(
                key, group[0].payload, engine=engine
            )
        if len(group) == 1:
            return self.service.apply_batch(
                key, group[0].payload, engine=engine
            )
        stacked = np.stack([req.payload for req in group])
        return self.service.apply_batch(key, stacked, engine=engine)

    def _deliver(
        self,
        group: list[_Request],
        out: np.ndarray,
        engine: str,
        attempts: int,
    ) -> None:
        if self.self_check:
            p = self.service._registration(group[0].key).p
            payloads = (
                out if len(group) > 1 else [np.asarray(out)]
            )
            for req, row in zip(group, payloads):
                expected = np.empty_like(np.asarray(req.payload))
                if req.batch:
                    expected[:, p] = req.payload
                else:
                    expected[p] = req.payload
                if not np.array_equal(row, expected):
                    self._count("self_check_failed")
                    raise ServingError(
                        f"engine {engine!r} produced a wrong answer "
                        "(caught by the server self-check)"
                    )
        coalesced = len(group) > 1
        if coalesced:
            self._count("coalesced", len(group) - 1)
        for i, req in enumerate(group):
            req.result.engine = engine
            req.result.attempts = attempts
            req.result.coalesced = coalesced
            req.result._resolve(out[i] if coalesced else out)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def stats(self) -> dict:
        """Server counters merged with the underlying service stats.

        The server-side fields are captured as **one consistent
        snapshot**: the queue state and every ``server.*`` counter are
        read under a single combined lock section, so within one
        ``stats()`` dict invariants like ``accepted == served + failed
        + shed + deadline_exceeded + in-flight`` hold exactly.

        Two field classes — read them accordingly:

        * **monotonic counters** (``server.accepted``,
          ``server.served``, ``server.shed``, ``server.retries``,
          ``service.requests``-style fields, ...): only ever increase;
          rates are meaningful as deltas between two snapshots.
        * **instantaneous gauges** (``server.queue_depth``,
          ``server.latency_ema_s``): the value at snapshot time;
          deltas are meaningless.

        The ``service.*``/planner fields are sampled *after* the
        server fields (outside the server lock, since the service has
        its own): a concurrently served request can make the service
        counts slightly newer than the server counts, which preserves
        the observable invariant ``service requests >= server.served``
        (the service increments before the server marks a request
        served) — the reverse ordering could transiently violate it.
        """
        with self._cond:
            with self._stats_lock:
                counters = {
                    event: child.value
                    for event, child in self._events.items()
                }
                ema = self._latency_ema
                inflight = len(self._inflight_reqs)
            depth = self._size
        # An event appears once it has happened at least once.
        merged: dict = {
            f"server.{k}": v for k, v in counters.items() if v
        }
        merged["server.latency_ema_s"] = ema
        merged["server.queue_depth"] = depth
        merged["server.queue_capacity"] = self.queue_capacity
        merged["server.inflight"] = inflight
        merged.update(self.service.stats())
        return merged

    def health(self) -> dict:
        """A point-in-time health snapshot.

        ``status`` is ``"ok"`` when every breaker is closed, the queue
        has headroom, and the SLO is met, else ``"degraded"``.  The
        ``slo`` block carries the rolling-window availability, p99
        latency and error-budget burn rate
        (:meth:`~repro.telemetry.SLOMonitor.status`), and
        ``recorder`` summarises flight-recorder activity.
        """
        with self._stats_lock:
            breakers = {
                name: b.snapshot()
                for name, b in sorted(self._engine_breakers.items())
            }
        if self.disk_breaker is not None:
            breakers["disk"] = self.disk_breaker.snapshot()
        with self._cond:
            queue = {
                "depth": self._size,
                "capacity": self.queue_capacity,
                "workers": self.workers,
                "accepting": not self._stopping,
            }
            tenants = {
                name: state.snapshot()
                for name, state in sorted(self._tenants.items())
            }
        slo_status = self.slo_monitor.status()
        degraded = (
            any(b["state"] != CLOSED for b in breakers.values())
            or queue["depth"] >= queue["capacity"]
            or not queue["accepting"]
            or slo_status["breached"]
        )
        return {
            "status": "degraded" if degraded else "ok",
            "queue": queue,
            "breakers": breakers,
            "tenants": tenants,
            "slo": slo_status,
            "recorder": {
                "events": self.recorder.recorded,
                "dumps": self.recorder.dumps,
            },
        }
