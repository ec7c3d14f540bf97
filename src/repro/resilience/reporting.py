"""Structured failure reporting for the resilience layer.

Every failure the fallback chain absorbs — a corrupt plan file, a
transient colouring error, a capacity wall — is recorded as a
:class:`FailureRecord` and collected into a :class:`FailureReport`, so
"the permutation succeeded" never hides *how* it succeeded.  The report
renders to a compact human-readable block used by
``python -m repro resilience-demo`` and the smoke report.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class FailureRecord:
    """One absorbed failure.

    Attributes
    ----------
    stage:
        Where in the lifecycle it struck: ``"load"`` (plan file),
        ``"plan"`` (offline planning) or ``"apply"`` (execution).
    engine:
        Engine name being attempted (``"scheduled"``, ``"padded"``,
        ``"d-designated"``, ...) or ``"plan-file"`` for load failures.
    attempt:
        1-based attempt number within that engine.
    error:
        The exception, preserved with its full chain.
    retried:
        ``True`` when the same engine was tried again (transient
        fault), ``False`` when the chain moved on to the next engine.
    """

    stage: str
    engine: str
    attempt: int
    error: BaseException
    retried: bool

    def describe(self) -> str:
        action = "retried" if self.retried else "fell back"
        chain = _chain_of(self.error)
        return (f"{self.stage}/{self.engine} attempt {self.attempt}: "
                f"{chain} -> {action}")


def _chain_of(error: BaseException) -> str:
    """Render an exception and its ``__cause__`` chain on one line."""
    parts = []
    seen: set[int] = set()
    current: BaseException | None = error
    while current is not None and id(current) not in seen:
        seen.add(id(current))
        parts.append(f"{type(current).__name__}: {current}")
        current = current.__cause__
    return " <- ".join(parts)


@dataclass
class FailureReport:
    """Everything that went wrong (and was absorbed) in one run.

    Beyond the failure records, the report embeds the telemetry of the
    planning run: ``spans`` is the finished
    :class:`~repro.telemetry.tracer.Span` tree of every engine attempt
    and backoff (wall-clock, with ``outcome`` attributes) and
    ``counters`` the matching totals, read from the run's own
    registry (``resilience_retries_total``,
    ``resilience_fallbacks_total``, ...) — so a degraded run shows not just
    *what* failed but *where the time went* while absorbing it.
    """

    records: list[FailureRecord] = field(default_factory=list)
    engine_used: str | None = None
    chain: tuple[str, ...] = ()
    spans: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)
    #: Engines skipped without an attempt (their breaker was open).
    skipped: list[str] = field(default_factory=list)

    def record(
        self,
        stage: str,
        engine: str,
        attempt: int,
        error: BaseException,
        retried: bool,
    ) -> None:
        self.records.append(
            FailureRecord(stage=stage, engine=engine, attempt=attempt,
                          error=error, retried=retried)
        )

    @property
    def degraded(self) -> bool:
        """True when the result did not come from the chain's first
        engine at first attempt."""
        return bool(self.records)

    @property
    def attempts_total(self) -> int:
        """Failed attempts plus the final (successful or not) one."""
        return len(self.records) + (1 if self.engine_used else 0)

    def engines_failed(self) -> list[str]:
        """Engines abandoned for a later link of the chain, in order."""
        out: list[str] = []
        for rec in self.records:
            if not rec.retried and rec.engine not in out:
                out.append(rec.engine)
        return out

    def summary(self) -> str:
        """Multi-line human-readable account of the run."""
        lines = [
            f"fallback chain: {' -> '.join(self.chain) or '(empty)'}",
            f"engine used:    {self.engine_used or 'NONE (exhausted)'}",
            f"degraded:       {self.degraded} "
            f"({len(self.records)} absorbed failure(s))",
        ]
        for rec in self.records:
            lines.append(f"  - {rec.describe()}")
        if self.spans:
            lines.append("spans:")
            for span in sorted(self.spans,
                               key=lambda s: (s.start_ns, s.span_id)):
                attrs = span.attributes
                detail = " ".join(
                    f"{key}={attrs[key]}"
                    for key in ("attempt", "outcome", "seconds")
                    if key in attrs
                )
                lines.append(
                    f"  - {span.name:<20} {span.duration_ms:8.3f} ms"
                    f"{('  ' + detail) if detail else ''}"
                )
        if self.counters:
            lines.append("counters:")
            for name in sorted(self.counters):
                lines.append(f"  - {name} = {self.counters[name]:g}")
        return "\n".join(lines)
