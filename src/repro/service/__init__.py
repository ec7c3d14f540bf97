"""The serving layer: a registry-of-permutations front door plus a
fault-tolerant concurrent serving core.

:class:`PermutationService` is the user-facing face of the
compile-once/apply-many stack: you *register* named permutations,
optionally *warm* the cache up front, then *serve* single or batched
applies; every request after the first for a given name is pure apply
time.  Every counter — request and cache hit/miss/eviction alike —
lives in the planner's :class:`~repro.telemetry.MetricsRegistry`
(:attr:`PermutationService.metrics`), read back by
:meth:`PermutationService.stats`.  The service is thread-safe: its
registrations are lock-guarded, so many callers can share one
instance.

:class:`PermutationServer` (:mod:`repro.service.server`) wraps a
service in a real server core for heavy mixed traffic: a bounded
request queue with admission control and priority load shedding,
per-request deadlines, budget-aware retries that degrade through the
engine ladder, per-tenant quotas, request coalescing, and circuit
breakers around the disk-cache tier and each engine.  See
``docs/serving.md``.

::

    from repro.service import PermutationService

    svc = PermutationService(width=32, cache_dir="plans/")
    svc.register("shuffle", p)
    svc.warm()                       # plan everything up front
    out = svc.apply("shuffle", a)    # cache hit: no planning
"""

from __future__ import annotations

import math
import threading
import time
from pathlib import Path
from typing import Any

import numpy as np

from repro import telemetry
from repro.errors import ValidationError
from repro.planner import (
    CompiledPermutation,
    Planner,
    permutation_digest,
)
from repro.telemetry import MetricsRegistry
from repro.util.validation import check_permutation

__all__ = [
    "CircuitBreaker",
    "PermutationServer",
    "PermutationService",
    "ServeResult",
    "TenantQuota",
]


def _default_engine(n: int, width: int) -> str:
    """Scheduled when n is a width-aligned square, padded otherwise."""
    m = math.isqrt(n) if n > 0 else 0
    if n > 0 and m * m == n and width > 0 and m % width == 0:
        return "scheduled"
    return "padded"


class _Registration:
    """One registered permutation: array, digest, engine choice."""

    def __init__(
        self, name: str, p: np.ndarray, engine: str, digest: str
    ) -> None:
        self.name = name
        self.p = p
        self.engine = engine
        self.digest = digest


class PermutationService:
    """Register permutations once, serve applies many times.

    Parameters
    ----------
    width:
        Warp width every registration is planned for.
    cache_size / cache_dir / backend:
        Forwarded to the owned :class:`~repro.planner.Planner` (unless
        an explicit ``planner`` is supplied, which takes precedence).

    Counters and the executor metrics (``exec_apply_seconds`` and the
    measured-vs-model ``exec_seconds_per_round`` gauge, per engine)
    are recorded in the planner's registry, :attr:`metrics`.
    """

    def __init__(
        self,
        width: int = 32,
        cache_size: int = 64,
        cache_dir: str | Path | None = None,
        backend: str = "auto",
        planner: Planner | None = None,
        cache_max_bytes: int | None = None,
        disk_max_bytes: int | None = None,
    ) -> None:
        self.width = width
        self.planner = planner or Planner(
            cache_size=cache_size, cache_dir=cache_dir,
            backend=backend, cache_max_bytes=cache_max_bytes,
            disk_max_bytes=disk_max_bytes,
        )
        self._registry: dict[str, _Registration] = {}
        self._lock = threading.Lock()
        metrics = self.planner.metrics
        self._requests = metrics.counter("service_requests_total")
        self._elements = metrics.counter(
            "service_elements_served_total"
        )
        self._reregistrations = metrics.counter(
            "service_reregistrations_total"
        )

    @property
    def metrics(self) -> MetricsRegistry:
        """The planner's registry, which this service records into."""
        return self.planner.metrics

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------

    def register(
        self,
        name: str,
        p: np.ndarray,
        engine: str | None = None,
        overwrite: bool = False,
    ) -> str:
        """Register permutation ``p`` under ``name``.

        The permutation is validated and digested exactly once; the
        digest is reused by every later compile (including engine
        hops).  ``engine`` defaults to ``scheduled`` when ``n`` is a
        width-aligned perfect square and ``padded`` otherwise.
        Returns the plan fingerprint the registration will be cached
        under.

        Re-registering the *same* permutation (digest and engine both
        unchanged) is an idempotent no-op, so concurrent clients can
        race on registration safely.  Replacing a name with a
        *different* permutation or engine silently would repoint every
        live caller — that requires ``overwrite=True`` and is counted
        in ``stats()["reregistrations"]``; without it the call raises
        :class:`~repro.errors.ValidationError`.
        """
        if not name:
            raise ValidationError("registration name must be non-empty")
        arr = check_permutation(p)
        chosen = engine or _default_engine(int(arr.shape[0]),
                                           self.width)
        digest = permutation_digest(arr)
        reregistered = False
        with self._lock:
            existing = self._registry.get(name)
            if existing is not None and (
                existing.digest != digest or existing.engine != chosen
            ):
                if not overwrite:
                    raise ValidationError(
                        f"{name!r} is already registered with a "
                        "different permutation or engine "
                        f"(engine {existing.engine!r}, digest "
                        f"{existing.digest[:12]}...); pass "
                        "overwrite=True to replace it"
                    )
                reregistered = True
            self._registry[name] = _Registration(
                name=name, p=arr, engine=chosen, digest=digest
            )
        if reregistered:
            self._reregistrations.inc()
        return self.planner.fingerprint(
            arr, engine=chosen, width=self.width, digest=digest
        )

    def unregister(self, name: str) -> bool:
        """Drop a registration; returns whether it existed."""
        with self._lock:
            return self._registry.pop(name, None) is not None

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._registry)

    def _registration(self, name: str) -> _Registration:
        with self._lock:
            reg = self._registry.get(name)
            known = ", ".join(sorted(self._registry)) or "<none>"
        if reg is None:
            raise ValidationError(
                f"no permutation registered as {name!r}; "
                f"registered: {known}"
            )
        return reg

    # ------------------------------------------------------------------
    # Compilation / serving
    # ------------------------------------------------------------------

    def compiled(
        self, name: str, engine: str | None = None
    ) -> CompiledPermutation:
        """The compiled handle for ``name`` (planning at most once).

        ``engine`` overrides the registered engine choice — the hook
        the serving core's degradation ladder uses to hop engines
        while reusing the registration's digest.
        """
        reg = self._registration(name)
        return self.planner.compile(
            reg.p,
            engine=engine or reg.engine,
            width=self.width,
            digest=reg.digest,
        )

    def warm(self, names: list[str] | None = None) -> int:
        """Compile the named registrations (all, by default) so later
        applies are guaranteed cache hits.  Returns how many were
        warmed."""
        targets = names if names is not None else self.names()
        with telemetry.span("service.warm", count=len(targets)):
            for name in targets:
                self.compiled(name)
        return len(targets)

    def _observe_apply(
        self, compiled: CompiledPermutation, elapsed: float, mode: str
    ) -> None:
        """Record executor metrics for one finished apply pass.

        ``exec_apply_seconds`` is the wall-time distribution;
        ``exec_seconds_per_round`` divides it by the annotate-cost
        pass's ``predicted_rounds``, so a drifting measured-vs-model
        ratio (per engine) flags an executor regression the cost model
        did not predict.  Sealed handles are observed under
        ``mode="sealed"`` (the single-gather fast path) and read their
        predicted rounds from the sealed meta — observation never
        forces a lazy handle to rehydrate its full program.
        """
        if compiled.sealed is not None and mode in ("single", "batch"):
            mode = "sealed"
        engine = compiled.engine_name or "unknown"
        self.metrics.histogram(
            "exec_apply_seconds", engine=engine, mode=mode
        ).observe(elapsed)
        rounds = compiled.predicted_rounds()
        if rounds is not None:
            self.metrics.gauge(
                "exec_seconds_per_round", engine=engine, mode=mode
            ).set(elapsed / rounds)

    def apply(
        self, name: str, a: np.ndarray, engine: str | None = None
    ) -> np.ndarray:
        """Serve one payload through the named permutation."""
        compiled = self.compiled(name, engine=engine)
        t0 = time.perf_counter()
        out = compiled.apply(a)
        self._observe_apply(compiled, time.perf_counter() - t0,
                            "single")
        self._served(1, int(compiled.n))
        return out

    def apply_batch(
        self, name: str, batch: np.ndarray, engine: str | None = None
    ) -> np.ndarray:
        """Serve ``k`` stacked payloads through the named permutation."""
        compiled = self.compiled(name, engine=engine)
        t0 = time.perf_counter()
        out = compiled.apply_batch(batch)
        self._observe_apply(compiled, time.perf_counter() - t0,
                            "batch")
        k = int(np.asarray(batch).shape[0])
        self._served(k, k * int(compiled.n))
        return out

    def apply_stream(
        self,
        name: str,
        path_in: str | Path,
        path_out: str | Path,
        d: int = 8,
        engine: str | None = None,
        max_resident_bytes: int | None = None,
        tmp_dir: str | Path | None = None,
    ) -> Any:
        """Serve an on-disk payload out-of-core.

        Streams the ``.npy`` payload at ``path_in`` through the named
        permutation's proven ``d``-stripe sharding under the
        resident-bytes budget, writing the result to ``path_out``.
        Returns the :class:`~repro.exec.StreamingStats`.
        """
        compiled = self.compiled(name, engine=engine)
        with telemetry.span(
            "service.apply_stream", plan=name, d=d
        ) as sp:
            t0 = time.perf_counter()
            stats = compiled.apply_stream(
                path_in,
                path_out,
                d=d,
                max_resident_bytes=max_resident_bytes,
                tmp_dir=tmp_dir,
            )
            elapsed = time.perf_counter() - t0
            sp.set(
                tiles=stats.tiles_loaded,
                peak_resident=stats.peak_resident_total_bytes,
            )
        self._observe_apply(compiled, elapsed, "stream")
        self._served(1, int(compiled.n))
        return stats

    def _served(self, requests: int, elements: int) -> None:
        self._requests.inc(requests)
        self._elements.inc(elements)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def stats(self) -> dict:
        """Service counters merged with the planner's cache stats."""
        with self._lock:
            registered = len(self._registry)
        merged = {
            "registered": registered,
            "requests": self._requests.value,
            "elements_served": self._elements.value,
            "reregistrations": self._reregistrations.value,
        }
        merged.update(self.planner.stats())
        return merged

    def describe(self) -> str:
        lines = [
            f"PermutationService: {len(self._registry)} registered, "
            f"width {self.width}"
        ]
        for name in self.names():
            with self._lock:
                reg = self._registry[name]
            lines.append(
                f"  {name:<16} n={reg.p.shape[0]:<8} "
                f"engine={reg.engine:<10} digest={reg.digest[:12]}..."
            )
        for key, value in sorted(self.planner.stats().items()):
            lines.append(f"  {key:<18} {value}")
        return "\n".join(lines)


# Imported after PermutationService so repro.service.server can import
# the class from the (partially initialised) package.
from repro.service.breaker import CircuitBreaker  # noqa: E402
from repro.service.quotas import TenantQuota  # noqa: E402
from repro.service.server import (  # noqa: E402
    PermutationServer,
    ServeResult,
)
