"""Resilience layer: fault injection, verified plans, degradation.

The paper's offline algorithm plans *once* and is then trusted
forever — so this reproduction carries the machinery that trust
requires in production:

* :class:`FaultPlan` (:mod:`repro.resilience.faults`) — seedable,
  deterministic fault injection: corrupt saved plan files, force
  transient colouring failures, simulate shared-memory capacity walls;
* checksummed plan files (:mod:`repro.core.io`) — every ``.npz`` plan
  carries a SHA-256 checksum and version stamps, verified on load;
* :class:`ResilientPermutation` (:mod:`repro.resilience.engine`) — a
  fallback chain ``scheduled -> padded -> conventional`` with bounded
  deterministic retry, guaranteed to never return a wrong answer;
* :class:`FailureReport` (:mod:`repro.resilience.reporting`) — a
  structured account of every failure the chain absorbed.

See ``docs/robustness.md`` for the full story, and
``python -m repro resilience-demo`` for a live tour.
"""

from repro.resilience.engine import (
    DEFAULT_CHAIN,
    TRANSIENT_ERRORS,
    ResilientPermutation,
    backoff_delay,
    run_ladder,
)
from repro.resilience.faults import (
    FILE_FAULT_MODES,
    FaultPlan,
    InjectedFileFault,
    active_fault_plan,
)
from repro.resilience.reporting import FailureRecord, FailureReport

__all__ = [
    "DEFAULT_CHAIN",
    "FILE_FAULT_MODES",
    "FailureRecord",
    "FailureReport",
    "FaultPlan",
    "InjectedFileFault",
    "ResilientPermutation",
    "TRANSIENT_ERRORS",
    "active_fault_plan",
    "backoff_delay",
    "run_ladder",
]
