"""Automatic engine selection.

The paper's bottom line is a *decision rule*: the conventional
algorithm wins when the permutation's distribution is small (or ``n``
is latency-dominated), the scheduled algorithm wins otherwise — and
because the permutation is known offline, the decision can be made by
arithmetic before moving a byte.  This module packages that rule:

* :func:`predict_times` — closed-form time of every engine for a given
  permutation, machine and dtype (no planning, no simulation: just
  ``D_w`` and Table I formulas);
* :func:`recommend` — the engine with the smallest predicted time;
* :class:`AutoPermutation` — plans the recommended engine and exposes
  the usual ``apply``/``simulate`` interface.

The prediction is exact (the formulas are the simulator, pinned by
tests), so ``AutoPermutation`` is never slower than either fixed
choice on the model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import telemetry
from repro.core import theory
from repro.core.distribution import distribution
from repro.errors import SizeError
from repro.ir.program import KernelProgram
from repro.ir.registry import engine_names, get_engine
from repro.machine.hmm import HMM
from repro.machine.memory import TraceRecorder, element_cells_of
from repro.machine.params import MachineParams
from repro.machine.trace import ProgramTrace
from repro.permutations.ops import invert
from repro.util.validation import check_permutation, isqrt_exact


@dataclass(frozen=True)
class EnginePrediction:
    """Predicted model times (time units) for each engine, plus the
    inputs the decision was made from."""

    d_designated: int
    s_designated: int
    scheduled: int | None       #: None when n is not a valid square size
    distribution_value: int
    inverse_distribution_value: int
    best: str

    def as_rows(self) -> list[list[object]]:
        rows: list[list[object]] = [
            ["d-designated", self.d_designated],
            ["s-designated", self.s_designated],
        ]
        if self.scheduled is not None:
            rows.append(["scheduled", self.scheduled])
        return rows


def _scheduled_feasible(n: int, width: int) -> bool:
    try:
        isqrt = isqrt_exact(n, "n")
    except SizeError:
        return False
    return isqrt % width == 0 and n > 0


#: The engines :func:`predict_times` prices and :func:`recommend`
#: chooses between — the HMM engines with closed-form Table I times.
#: The full engine registry (:func:`repro.ir.engine_names`) is larger:
#: it also holds the CPU and single-DMM engines, which have no
#: comparable HMM closed form and so never win the auto selection.
ENGINES = ("scheduled", "padded", "d-designated", "s-designated")


def build_engine(
    name: str,
    p: np.ndarray,
    width: int = 32,
    backend: str = "auto",
):
    """Construct the named engine for permutation ``p``.

    Delegates to the engine registry (:func:`repro.ir.get_engine`), so
    every registered engine — not just the four auto-selectable ones —
    can be built by name.  ``"scheduled"`` and ``"padded"`` run the
    (potentially failing, potentially expensive) offline planning; the
    conventional engines are plain wrappers and cannot fail beyond
    input validation.
    """
    telemetry.count(
        "engines_built_total",
        engine=name if name in engine_names() else "unknown",
    )
    cls = get_engine(name)
    return cls.plan(p, width=width, backend=backend)


def predict_times(
    p: np.ndarray,
    params: MachineParams | None = None,
    dtype=np.float32,
) -> EnginePrediction:
    """Closed-form engine times for permutation ``p`` (O(n), no plan).

    Uses the element-width-aware formulas; the casual rounds use the
    mixed distribution ``D(p, w, w/k)``.
    """
    p = check_permutation(p)
    params = params or MachineParams()
    n = int(p.shape[0])
    w, latency, d = params.width, params.latency, params.num_dmms
    if n % w != 0:
        raise SizeError(f"n = {n} must be a multiple of the width {w}")
    with telemetry.span("selector.predict", n=n) as _sp:
        return _predict_times_inner(p, params, dtype, n, w, latency, d, _sp)


def _predict_times_inner(p, params, dtype, n, w, latency, d, _sp):
    k = element_cells_of(dtype)
    group = w // k if k <= w and w % k == 0 else 1
    dw = distribution(p, w, group)
    dw_inv = distribution(invert(p), w, group)
    conv_d = theory.conventional_time(n, w, latency, dw, k)
    conv_s = theory.conventional_time(n, w, latency, dw_inv, k)
    sched: int | None = None
    if _scheduled_feasible(n, w):
        shared_needed = 2 * isqrt_exact(n) * np.dtype(dtype).itemsize
        cap = params.shared_capacity
        if cap is None or shared_needed <= cap:
            sched = theory.scheduled_time(n, w, latency, d, k)
    candidates: list[tuple[int, str]] = [
        (conv_d, "d-designated"), (conv_s, "s-designated")
    ]
    if sched is not None:
        candidates.append((sched, "scheduled"))
    best = min(candidates)[1]
    _sp.set(best=best, distribution=dw)
    return EnginePrediction(
        d_designated=conv_d,
        s_designated=conv_s,
        scheduled=sched,
        distribution_value=dw,
        inverse_distribution_value=dw_inv,
        best=best,
    )


def predict_sharded(
    p: np.ndarray,
    params: MachineParams | None = None,
    dtype=np.float32,
    ds: tuple[int, ...] = (1, 2, 4, 8),
) -> dict[int, dict[str, int]]:
    """Closed-form ``d``-stripe out-of-core model times (O(n) per d).

    For each shard count in ``ds`` that divides ``n``, prices the
    three-phase row-stripe factorization *for this permutation*: the
    local phases are per-DMM round-priced on stripes of ``n/d``, and
    the inter-DMM exchange is charged for the elements that actually
    cross a stripe boundary (``i // s != p[i] // s``) — the MCM-style
    transfer term, exact rather than worst-case.  Returns
    ``{d: {"local": ..., "exchange": ..., "total": ...}}`` without
    planning anything.
    """
    p = check_permutation(p)
    params = params or MachineParams()
    n = int(p.shape[0])
    w, latency = params.width, params.latency
    k = element_cells_of(dtype)
    src = np.arange(n)
    out: dict[int, dict[str, int]] = {}
    with telemetry.span("selector.predict_sharded", n=n) as sp:
        for d in ds:
            if d < 1 or n % d != 0:
                continue
            s = n // d
            crossing = int(np.count_nonzero(src // s != p // s))
            out[d] = theory.sharded_time_breakdown(
                n, w, latency, d,
                exchange_elements=crossing, element_cells=k,
            )
        sp.set(ds=sorted(out))
    return out


def recommend(
    p: np.ndarray,
    params: MachineParams | None = None,
    dtype=np.float32,
) -> str:
    """The engine name with the smallest predicted time."""
    return predict_times(p, params, dtype).best


def predict_all(
    p: np.ndarray,
    params: MachineParams | None = None,
    dtype=np.float32,
) -> dict[str, int | None]:
    """Closed-form predicted time for *every* registered engine.

    Unlike :func:`predict_times` (which prices only the auto-selectable
    HMM engines), this walks the whole registry; engines with no
    comparable closed form — the CPU and single-DMM families — report
    ``None``.
    """
    params = params or MachineParams()
    return {
        name: get_engine(name).predict(p, params, dtype=dtype)
        for name in engine_names()
    }


def rank_programs(
    engines: list, pipeline=None
) -> list[tuple[int, KernelProgram]]:
    """Rank planned engines by their *optimized* programs' predicted
    stage counts (cheapest first).

    Each engine is lowered through the pass pipeline, so cancelled or
    fused ops lower an engine's rank — the selector compares what the
    executors would actually run, not the raw lowering.  Returns
    ``(predicted_stages, optimized_program)`` pairs sorted ascending.
    """
    ranked: list[tuple[int, KernelProgram]] = []
    for engine in engines:
        program = engine.lower_optimized(pipeline)
        meta = program.meta or {}
        stages = int(meta.get("predicted_stages", program.num_rounds))  # type: ignore[call-overload]
        ranked.append((stages, program))
    ranked.sort(key=lambda pair: pair[0])
    return ranked


class AutoPermutation:  # staticcheck: ignore[REP104]
    """Plan whichever engine the model predicts fastest.

    Mirrors the fixed engines' interface (``apply`` / ``apply_batch`` /
    ``simulate`` / ``lower``) by delegating to the chosen engine; it is
    a selector, not an engine, so it is deliberately not registered.

    With a :class:`~repro.planner.Planner` attached, the chosen engine
    is resolved through the plan cache (memory → disk → cold plan)
    instead of being re-planned, and ``self.engine`` is the planner's
    :class:`~repro.planner.CompiledPermutation` handle.
    """

    def __init__(
        self,
        p: np.ndarray,
        params: MachineParams | None = None,
        dtype=np.float32,
        backend: str = "auto",
        planner=None,
    ) -> None:
        self.params = params or MachineParams()
        self.prediction = predict_times(p, self.params, dtype)
        self.choice = self.prediction.best
        if planner is not None:
            self.engine = planner.compile(
                p, engine=self.choice, width=self.params.width,
                backend=backend,
            )
        else:
            self.engine = build_engine(
                self.choice, p, width=self.params.width, backend=backend
            )

    @property
    def p(self) -> np.ndarray:
        return self.engine.p

    def apply(
        self, a: np.ndarray, recorder: TraceRecorder | None = None
    ) -> np.ndarray:
        return self.engine.apply(a, recorder)

    def apply_batch(self, batch: np.ndarray) -> np.ndarray:
        return self.engine.apply_batch(batch)

    def lower(self) -> KernelProgram:
        return self.engine.lower()

    def simulate(
        self,
        machine: HMM | MachineParams | None = None,
        dtype=np.float32,
    ) -> ProgramTrace:
        return self.engine.simulate(
            machine if machine is not None else self.params, dtype=dtype
        )
