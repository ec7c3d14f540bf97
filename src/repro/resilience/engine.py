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
:class:`~repro.resilience.reporting.FailureReport`.
"""

from __future__ import annotations

import time

import numpy as np

from repro import telemetry
from repro.core.io import load_plan
from repro.core.selector import build_engine
from repro.errors import (
    ColoringError,
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


def backoff_delay(attempt: int, base: float = 0.05) -> float:
    """Deterministic exponential backoff: ``base * 2**(attempt-1)``.

    No jitter on purpose — reproducibility is worth more than herd
    avoidance in an offline planner, and tests pin the exact schedule.
    """
    return base * (2 ** (attempt - 1))


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
        _preload_failure: BaseException | None = None,
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
        if _preload_failure is not None:
            self.report.record("load", "plan-file", 1, _preload_failure,
                               retried=False)
            self._count("plan_file_rejected")
        self.engine = None
        self.choice: str | None = None
        self._plan_chain(backend, chain, max_attempts, backoff_base)

    @classmethod
    def _from_engine(cls, p, width, engine, choice,
                     self_check=True) -> "ResilientPermutation":
        inst = cls.__new__(cls)
        inst.p = check_permutation(p)
        inst.width = width
        inst.self_check = self_check
        inst._sleep = time.sleep
        inst._planner = None
        inst._digest = None
        inst.report = FailureReport(chain=(choice,), engine_used=choice)
        inst.engine = engine
        inst.choice = choice
        return inst

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
            return cls(p, _preload_failure=exc, **kwargs)
        choice = getattr(type(plan), "engine_name", "") or "scheduled"
        return cls._from_engine(
            plan.p, getattr(plan, "width", 32), plan, choice,
            self_check=kwargs.get("self_check", True),
        )

    # ------------------------------------------------------------------
    # Planning with retry + fallback
    # ------------------------------------------------------------------

    def _count(self, name: str) -> None:
        """Count one chain event as ``resilience_<name>_total``."""
        self.metrics.counter(f"resilience_{name}_total").inc()

    def _plan_chain(self, backend, chain, max_attempts, backoff_base):
        try:
            for name in chain:
                if self._plan_engine(name, backend, max_attempts,
                                     backoff_base):
                    return
            self._count("chain_exhausted")
            raise FallbackExhaustedError(
                f"all engines failed for n = {len(self.p)} "
                f"(chain {' -> '.join(chain)}); see report:\n"
                + self.report.summary(),
                report=self.report,
            )
        finally:
            # Embed the telemetry of the whole planning run (spans for
            # every attempt and backoff, plus counters) in the report.
            self.report.spans = list(self._tracer.spans)
            self.report.counters = {
                series: value
                for series, value in self.metrics.counter_values().items()
                if value
            }

    def _plan_engine(self, name, backend, max_attempts,
                     backoff_base) -> bool:
        for attempt in range(1, max_attempts + 1):
            with self._tracer.span(f"plan.{name}", attempt=attempt) as sp, \
                    telemetry.span(f"resilience.plan.{name}",
                                   attempt=attempt) as gsp:
                outcome = self._attempt(name, backend, attempt,
                                        max_attempts)
                sp.set(outcome=outcome)
                gsp.set(outcome=outcome)
            if outcome == "ok":
                return True
            if outcome == "persistent-fault":
                self._count("fallbacks")
                return False
            # Transient: back off (its own span) and try again.
            if attempt < max_attempts:
                self._count("retries")
                delay = backoff_delay(attempt, backoff_base)
                with self._tracer.span("backoff", seconds=delay), \
                        telemetry.span("resilience.backoff",
                                       seconds=delay):
                    self._sleep(delay)
        self._count("fallbacks")
        return False

    def _attempt(self, name, backend, attempt, max_attempts) -> str:
        """One planning attempt; returns the outcome label."""
        try:
            if self._planner is not None:
                # Cache-aware hop: the digest computed at construction
                # is reused for every engine in the chain.
                self.engine = self._planner.compile(
                    self.p, engine=name, width=self.width,
                    digest=self._digest, backend=backend,
                )
            else:
                self.engine = build_engine(
                    name, self.p, width=self.width, backend=backend
                )
        except TRANSIENT_ERRORS as exc:
            retried = attempt < max_attempts
            self.report.record("plan", name, attempt, exc, retried)
            self._count("faults_absorbed")
            return "transient-fault"
        except ReproError as exc:
            # Persistent: infeasible size, capacity wall, ... — no
            # amount of retrying will change the answer.
            self.report.record("plan", name, attempt, exc,
                               retried=False)
            self._count("faults_absorbed")
            return "persistent-fault"
        self.choice = name
        self.report.engine_used = name
        return "ok"

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
