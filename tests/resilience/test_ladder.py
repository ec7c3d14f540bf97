"""One retry/degrade ladder: planning (ResilientPermutation) and serving
(PermutationServer) walk the same fault script the same way."""

import numpy as np
import pytest

import repro.resilience.engine as resilience_engine
from repro.errors import (
    ColoringError,
    FallbackExhaustedError,
    ServingError,
    SharedMemoryCapacityError,
)
from repro.permutations.named import bit_reversal
from repro.resilience import DEFAULT_CHAIN, ResilientPermutation
from repro.service import PermutationServer

_N, _WIDTH, _BASE, _ATTEMPTS = 1024, 32, 0.25, 2


class _Script:
    """Per-engine queue of errors to raise, one per call; an engine
    whose queue is empty succeeds."""

    def __init__(self, faults):
        self.faults = {engine: list(errs) for engine, errs in faults.items()}
        self.calls = []

    def hit(self, engine):
        self.calls.append(engine)
        if self.faults.get(engine):
            raise self.faults[engine].pop(0)("scripted")


_CASES = {
    "transient-then-success": (
        {"scheduled": [ColoringError]},
        "scheduled",
        ["scheduled", "scheduled"],
        [_BASE],
        [("scheduled", 1, ColoringError, True)],
    ),
    "persistent-wall-on-scheduled": (
        {"scheduled": [SharedMemoryCapacityError]},
        "padded",
        ["scheduled", "padded"],
        [],
        [("scheduled", 1, SharedMemoryCapacityError, False)],
    ),
    "every-engine-failing": (
        {e: [ColoringError] * _ATTEMPTS for e in DEFAULT_CHAIN},
        None,
        [e for e in DEFAULT_CHAIN for _ in range(_ATTEMPTS)],
        [_BASE] * len(DEFAULT_CHAIN),
        [(e, n, ColoringError, n < _ATTEMPTS)
         for e in DEFAULT_CHAIN for n in range(1, _ATTEMPTS + 1)],
    ),
}


def _plan(p, faults, monkeypatch):
    script, slept = _Script(faults), []
    real = resilience_engine.build_engine

    def scripted(name, p, **kwargs):
        script.hit(name)
        return real(name, p, **kwargs)

    monkeypatch.setattr(resilience_engine, "build_engine", scripted)
    try:
        report = ResilientPermutation(
            p, width=_WIDTH, max_attempts=_ATTEMPTS,
            backoff_base=_BASE, sleep=slept.append,
        ).report
    except FallbackExhaustedError as exc:
        report = exc.report
    return script.calls, slept, report


def _serve(p, faults):
    script, slept = _Script(faults), []
    srv = PermutationServer(
        width=_WIDTH, workers=1, max_attempts=_ATTEMPTS,
        backoff_base=_BASE, sleep=slept.append,
    )
    try:
        srv.register("bitrev", p)
        real = srv.service.apply

        def scripted(name, a, engine=None):
            script.hit(engine)
            return real(name, a, engine=engine)

        srv.service.apply = scripted
        res = srv.submit("bitrev", np.arange(_N, dtype=np.float64))
        try:
            res.result(timeout=30.0)
        except ServingError as exc:
            assert "all engines failed" in str(exc)
    finally:
        srv.close()
    return script.calls, slept, res.report


@pytest.mark.parametrize("case", list(_CASES))
def test_same_fault_script_same_ladder_walk(case, monkeypatch):
    faults, engine, order, sleeps, records = _CASES[case]
    p = bit_reversal(_N)
    for walk, stage in ((_plan(p, faults, monkeypatch), "plan"),
                        (_serve(p, faults), "apply")):
        calls, slept, report = walk
        assert calls == order
        assert slept == sleeps
        assert report.engine_used == engine
        assert report.attempts_total == len(order)
        assert [(r.engine, r.attempt, type(r.error), r.retried)
                for r in report.records] == records
        assert {r.stage for r in report.records} <= {stage}
