"""Graceful degradation: a permutation that never answers wrong.

:class:`ResilientPermutation` wraps the engine registry
(:func:`repro.core.selector.build_engine`) with a declared fallback
chain — by default

    scheduled  ->  padded  ->  d-designated (conventional)

and the guarantee that *some* engine produces ``b[p[i]] = a[i]`` or a
:class:`~repro.errors.FallbackExhaustedError` is raised; a wrong answer
is never returned silently.  The chain is ordered by model speed: the
paper's optimal scheduled algorithm first, its any-``n`` padded variant
second, and the conventional scatter — three casual-round cost, but
planning-free and unconditionally correct — as the last resort.

Failure handling distinguishes two classes:

* **transient** planning faults (:class:`~repro.errors.ColoringError`,
  :class:`~repro.errors.SchedulingError`) — e.g. a flaky colouring
  worker — are retried on the *same* engine up to ``max_attempts``
  times with deterministic exponential backoff;
* **persistent** faults (:class:`~repro.errors.SizeError`: the size is
  simply infeasible; :class:`~repro.errors.SharedMemoryCapacityError`:
  the machine cannot fit the tile) skip straight to the next engine —
  retrying cannot help.

Every absorbed failure lands in a structured
:class:`~repro.resilience.reporting.FailureReport`.  The loop itself
is :func:`run_ladder`, the library's one retry/degrade ladder: the
serving core (:class:`~repro.service.PermutationServer`) walks it too,
for applies, under its per-engine circuit breakers.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Sequence
from typing import Any, TypeVar

import numpy as np

from repro import telemetry
from repro.core.io import load_plan
from repro.core.selector import build_engine
from repro.errors import (
    ColoringError,
    DeadlineExceededError,
    FallbackExhaustedError,
    PlanIntegrityError,
    ReproError,
    ResilienceError,
    SchedulingError,
)
from repro.machine.memory import TraceRecorder
from repro.resilience.reporting import FailureReport
from repro.util.validation import check_permutation

#: Default engine order: fastest on the model first, unconditionally
#: plannable last.
DEFAULT_CHAIN = ("scheduled", "padded", "d-designated")

#: Errors worth retrying on the same engine.
TRANSIENT_ERRORS = (ColoringError, SchedulingError)

T = TypeVar("T")


def backoff_delay(attempt: int, base: float = 0.05) -> float:
    """Deterministic exponential backoff: ``base * 2**(attempt-1)``.

    No jitter on purpose — reproducibility is worth more than herd
    avoidance in an offline planner, and tests pin the exact schedule.
    """
    return base * (2 ** (attempt - 1))


def run_ladder(
    chain: Sequence[str],
    attempt: Callable[[str, int], T],
    report: FailureReport,
    *,
    stage: str,
    max_attempts: int,
    backoff_base: float,
    sleep: Callable[[float], None],
    gate: Callable[[str], Any] | None = None,
    deadline: float | None = None,
    clock: Callable[[], float] = time.monotonic,
) -> tuple[str, T] | None:
    """Walk ``chain`` until ``attempt(engine, n)`` succeeds; the one
    retry/degrade loop of the library.

    A transient error (:data:`TRANSIENT_ERRORS`) retries the same
    engine after :func:`backoff_delay`, capped by the time left before
    ``deadline`` (reaching it raises
    :class:`~repro.errors.DeadlineExceededError`); any other
    :class:`~repro.errors.ReproError` drops to the next engine.  Every
    absorbed failure is recorded in ``report`` under ``stage``.
    ``gate(engine)`` may return the engine's circuit breaker: a
    refusing breaker skips the engine (``report.skipped``), every
    outcome is recorded on it, and retries continue only while it is
    closed.  Returns ``(engine, value)`` of the first success, or
    ``None`` when every engine failed or was skipped.
    """
    for engine in chain:
        breaker = gate(engine) if gate is not None else None
        if breaker is not None and not breaker.allow():
            report.skipped.append(engine)
            continue
        for n in range(1, max_attempts + 1):
            if deadline is not None and clock() >= deadline:
                raise DeadlineExceededError(
                    "deadline expired while retrying "
                    f"(engine {engine!r}, attempt {n})"
                )
            try:
                value = attempt(engine, n)
            except TRANSIENT_ERRORS as exc:
                if breaker is not None:
                    breaker.record_failure()
                retried = n < max_attempts and (
                    breaker is None or breaker.closed
                )
                report.record(stage, engine, n, exc, retried)
                if not retried:
                    break
                delay = backoff_delay(n, backoff_base)
                if deadline is not None:
                    delay = min(delay, max(0.0, deadline - clock()))
                if delay > 0:
                    sleep(delay)
            except ReproError as exc:
                # Persistent (infeasible size, capacity wall): retrying
                # cannot help — drop down the chain.
                if breaker is not None:
                    breaker.record_failure()
                report.record(stage, engine, n, exc, retried=False)
                break
            else:
                if breaker is not None:
                    breaker.record_success()
                report.engine_used = engine
                return engine, value
    return None


class ResilientPermutation:
    """Plan ``p`` through a fallback chain of engines.

    Parameters
    ----------
    p:
        The permutation to realise (``b[p[i]] = a[i]``).
    width:
        Machine width ``w`` for the scheduled engines.
    backend:
        Colouring backend forwarded to planning.
    chain:
        Engine names to try, in order (default :data:`DEFAULT_CHAIN`).
    max_attempts:
        Per-engine attempt budget for transient faults.
    backoff_base:
        Base of the deterministic backoff schedule (seconds).
    sleep:
        Injectable sleeper (defaults to :func:`time.sleep`); tests pass
        a recorder to pin the schedule without waiting.
    self_check:
        When ``True`` (the default — paranoia is this class's job),
        every :meth:`apply` output is verified against a direct O(n)
        scatter before being returned.
    planner:
        Optional :class:`~repro.planner.Planner`.  When given, every
        engine attempt resolves through the plan cache, and the whole
        chain reuses one permutation digest computed up front — a
        fallback hop costs a fingerprint lookup, not a re-hash of the
        array (and, on a warm cache, not a re-plan either).
    """

    def __init__(
        self,
        p: np.ndarray,
        width: int = 32,
        backend: str = "auto",
        chain: tuple[str, ...] = DEFAULT_CHAIN,
        max_attempts: int = 3,
        backoff_base: float = 0.05,
        sleep=None,
        self_check: bool = True,
        planner=None,
        _loaded: Any = None,
    ) -> None:
        if max_attempts < 1:
            raise ResilienceError(
                f"max_attempts must be >= 1, got {max_attempts}"
            )
        if not chain:
            raise ResilienceError("fallback chain must not be empty")
        self.p = check_permutation(p)
        self.width = width
        self.self_check = self_check
        self._sleep = sleep if sleep is not None else time.sleep
        self._planner = planner
        self._digest: str | None = None
        if planner is not None:
            from repro.planner import permutation_digest

            self._digest = permutation_digest(self.p)
        self.report = FailureReport(chain=tuple(chain))
        # A private tracer and registry record every attempt/backoff
        # span and chain event, so the FailureReport embeds them even
        # when no process-wide tracer is active (spans are mirrored to
        # it, prefixed ``resilience.``, when one is).
        self._tracer = telemetry.Tracer()
        self.metrics = telemetry.MetricsRegistry()
        self.engine = None
        self.choice: str | None = None
        if isinstance(_loaded, BaseException):
            self.report.record("load", "plan-file", 1, _loaded,
                               retried=False)
            self._count("plan_file_rejected")
        elif _loaded is not None:
            # from_plan_file's happy path: the loaded plan is the
            # settled engine, nothing to plan.
            self.engine = _loaded
            self.choice = self.report.engine_used = chain[0]
            return
        self._plan_chain(backend, chain, max_attempts, backoff_base)

    @classmethod
    def from_plan_file(
        cls, path, p: np.ndarray | None = None, **kwargs
    ) -> "ResilientPermutation":
        """Load a saved plan, degrading to re-planning when it is bad.

        With only ``path``, a corrupt/stale plan file raises the
        precise :class:`~repro.errors.PlanIntegrityError`.  When the
        original permutation ``p`` is also given, the failure is
        absorbed instead: it is recorded in the report (stage
        ``"load"``) and the permutation is re-planned from scratch
        through the normal fallback chain.
        """
        try:
            plan = load_plan(path)
        except PlanIntegrityError as exc:
            if p is None:
                raise
            return cls(p, _loaded=exc, **kwargs)
        choice = getattr(type(plan), "engine_name", "") or "scheduled"
        return cls(
            plan.p, width=getattr(plan, "width", 32), chain=(choice,),
            self_check=kwargs.get("self_check", True), _loaded=plan,
        )

    # ------------------------------------------------------------------
    # Planning with retry + fallback
    # ------------------------------------------------------------------

    def _count(self, name: str, n: int = 1) -> None:
        """Count chain events as ``resilience_<name>_total``."""
        if n:
            self.metrics.counter(f"resilience_{name}_total").inc(n)

    def _plan_chain(self, backend, chain, max_attempts, backoff_base):
        try:
            won = run_ladder(
                chain,
                lambda name, attempt: self._attempt(name, backend,
                                                    attempt),
                self.report,
                stage="plan",
                max_attempts=max_attempts,
                backoff_base=backoff_base,
                sleep=self._backoff,
            )
            planned = [r for r in self.report.records
                       if r.stage == "plan"]
            retried = sum(r.retried for r in planned)
            self._count("faults_absorbed", len(planned))
            self._count("retries", retried)
            self._count("fallbacks", len(planned) - retried)
            if won is None:
                self._count("chain_exhausted")
                raise FallbackExhaustedError(
                    f"all engines failed for n = {len(self.p)} "
                    f"(chain {' -> '.join(chain)}); see report:\n"
                    + self.report.summary(),
                    report=self.report,
                )
            self.choice, self.engine = won
        finally:
            # Embed the telemetry of the whole planning run (spans for
            # every attempt and backoff, plus counters) in the report.
            self.report.spans = list(self._tracer.spans)
            self.report.counters = {
                series: value
                for series, value in self.metrics.counter_values().items()
                if value
            }

    def _backoff(self, delay: float) -> None:
        with self._tracer.span("backoff", seconds=delay), \
                telemetry.span("resilience.backoff", seconds=delay):
            self._sleep(delay)

    def _attempt(self, name, backend, attempt):
        """One planning attempt, spanned with its outcome."""
        with self._tracer.span(f"plan.{name}", attempt=attempt) as sp, \
                telemetry.span(f"resilience.plan.{name}",
                               attempt=attempt) as gsp:
            outcome = None
            try:
                if self._planner is not None:
                    # Cache-aware hop: the digest computed at
                    # construction is reused for every engine.
                    engine = self._planner.compile(
                        self.p, engine=name, width=self.width,
                        digest=self._digest, backend=backend,
                    )
                else:
                    engine = build_engine(
                        name, self.p, width=self.width, backend=backend
                    )
                outcome = "ok"
                return engine
            except TRANSIENT_ERRORS:
                outcome = "transient-fault"
                raise
            except ReproError:
                outcome = "persistent-fault"
                raise
            finally:
                sp.set(outcome=outcome)
                gsp.set(outcome=outcome)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    @property
    def degraded(self) -> bool:
        return self.report.degraded

    def apply(
        self, a: np.ndarray, recorder: TraceRecorder | None = None
    ) -> np.ndarray:
        """Permute ``a``; optionally (default) verify the output.

        The self-check compares against the definitionally correct
        scatter ``expected[p] = a`` — one extra O(n) pass, the price of
        the never-wrong guarantee.
        """
        out = self.engine.apply(a, recorder)
        if self.self_check:
            a = np.asarray(a)
            expected = np.empty_like(a)
            expected[self.p] = a
            if not np.array_equal(out, expected):
                raise ResilienceError(
                    f"engine {self.choice!r} produced an incorrect "
                    "permutation (caught by the resilience self-check)"
                )
        return out

    def apply_batch(self, batch: np.ndarray) -> np.ndarray:
        """Permute ``k`` stacked arrays with the settled engine; each
        row is self-checked like a single :meth:`apply` output."""
        out = self.engine.apply_batch(batch)
        if self.self_check:
            mats = np.asarray(batch)
            expected = np.empty_like(mats)
            expected[:, self.p] = mats
            if not np.array_equal(out, expected):
                raise ResilienceError(
                    f"engine {self.choice!r} produced an incorrect "
                    "batch permutation (caught by the resilience "
                    "self-check)"
                )
        return out

    def lower(self):
        """The settled engine's kernel program."""
        return self.engine.lower()

    def simulate(self, machine=None, dtype=np.float32):
        """Model cost of whichever engine the chain settled on."""
        return self.engine.simulate(machine, dtype=dtype)
