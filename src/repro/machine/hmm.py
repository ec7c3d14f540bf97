"""The Hierarchical Memory Machine simulator.

:class:`HMM` executes *kernels* — sequences of
:class:`~repro.machine.requests.AccessRound` — under the paper's cost
model:

* global rounds are charged UMM-style: the stage totals of **all**
  warps (across every DMM) add up, and the round completes in
  ``stages + l - 1`` time units;
* shared rounds are charged DMM-style **per DMM**: blocks are assigned
  round-robin to the ``d`` DMMs, DMMs run independently, and the round
  costs the maximum per-DMM stage total plus ``shared_latency - 1``;
* consecutive rounds are barrier-separated (the paper's definition of a
  round), so kernel time is the sum of round times;
* kernels whose declared shared-memory footprint exceeds the per-block
  capacity are rejected — reproducing the GTX-680's 48 KB limit that
  truncates Table II(b).

An optional :class:`~repro.machine.cache.L2Cache` can be attached, in
which case global stage counts are filtered through the cache model
(an extension over the paper; see DESIGN.md A2).
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import TYPE_CHECKING

from repro import telemetry
from repro.errors import SharedMemoryCapacityError
from repro.machine.cache import L2Cache, cached_global_stages
from repro.machine.cost_model import (
    classify_round,
    global_round_stages,
    round_time,
    shared_round_stages,
)
from repro.machine.params import MachineParams
from repro.machine.requests import AccessRound, Kernel
from repro.machine.trace import (
    KernelTrace,
    ProgramTrace,
    RoundCost,
    make_round_cost,
)

if TYPE_CHECKING:
    from repro.shard import ShardedProgram


class HMM:
    """Hierarchical Memory Machine: ``d`` DMMs + one UMM.

    Parameters
    ----------
    params:
        Machine parameters; defaults to the GTX-680-like configuration.
    l2_cache:
        Optional global-memory cache model.  When present, each global
        round's stages are computed with hit/miss-weighted costs and the
        cache state persists across rounds and kernels (reset with
        :meth:`reset_cache`).
    detect_races:
        When true, every *write* round is screened for intra-round
        write-write collisions before being charged, raising
        :class:`~repro.errors.MemoryRaceError` — the dynamic
        counterpart of the static certifier's scatter-injectivity
        proof.  Rounds are barrier-separated on the HMM, so cross-round
        hazards cannot occur here and only the intra-round check runs.
    """

    def __init__(
        self,
        params: MachineParams | None = None,
        l2_cache: L2Cache | None = None,
        detect_races: bool = False,
    ) -> None:
        self.params = params or MachineParams()
        self.l2_cache = l2_cache
        self.detect_races = detect_races

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run_round(self, rnd: AccessRound) -> RoundCost:
        """Charge a single access round and return its cost."""
        if self.detect_races and rnd.kind == "write":
            from repro.errors import MemoryRaceError
            from repro.staticcheck.races import find_intra_round_races

            findings = find_intra_round_races([rnd])
            if findings:
                raise MemoryRaceError(
                    f"race in {rnd.space} round on {rnd.array!r}: "
                    + "; ".join(f.describe() for f in findings[:3]),
                    findings=findings,
                )
        width = self.params.width
        classification = classify_round(rnd, width)
        if rnd.space == "global":
            if self.l2_cache is not None:
                stages = cached_global_stages(
                    rnd.addresses, width, self.l2_cache, rnd.array,
                    rnd.element_cells,
                )
            else:
                stages = global_round_stages(
                    rnd.addresses, width, rnd.element_cells
                )
            time = round_time(stages, self.params.latency)
        else:
            block_size = rnd.block_size or width
            stages = shared_round_stages(
                rnd.addresses, width, block_size, self.params.num_dmms
            )
            time = round_time(stages, self.params.shared_latency)
        return make_round_cost(rnd, classification, stages, time)

    def check_capacity(self, kernel: Kernel) -> None:
        """Reject kernels exceeding the per-block shared capacity."""
        cap = self.params.shared_capacity
        if cap is not None and kernel.shared_bytes_per_block > cap:
            raise SharedMemoryCapacityError(
                f"kernel {kernel.name!r} needs "
                f"{kernel.shared_bytes_per_block} B of shared memory per "
                f"block but the machine provides {cap} B "
                "(the paper hits the same wall for sqrt(n)=4096 doubles)"
            )

    def run_kernel(self, kernel: Kernel) -> KernelTrace:
        """Execute one kernel; rounds are barrier-separated."""
        with telemetry.span("hmm.kernel", kernel=kernel.name) as sp:
            self.check_capacity(kernel)
            trace = KernelTrace(name=kernel.name)
            for rnd in kernel.rounds:
                trace.rounds.append(self.run_round(rnd))
            sp.set(model_time=trace.time, model_rounds=trace.num_rounds)
            telemetry.count("hmm_rounds_total", trace.num_rounds)
            telemetry.count("hmm_time_units_total", trace.time)
        return trace

    def run_program(
        self, kernels: Iterable[Kernel], name: str = "program"
    ) -> ProgramTrace:
        """Execute a sequence of kernels (accepts a lazy generator).

        Kernels are consumed one at a time so address arrays of large
        programs never need to coexist in memory.
        """
        trace = ProgramTrace(name=name)
        for kernel in kernels:
            trace.kernels.append(self.run_kernel(kernel))
        return trace

    # ------------------------------------------------------------------
    # Multi-DMM sharding
    # ------------------------------------------------------------------

    def transfer_time(
        self,
        elements: int,
        element_cells: int = 1,
        d: int | None = None,
    ) -> int:
        """Inter-DMM transfer charge for ``elements`` crossing elements.

        The MCM-style term (arXiv 1402.0264): data leaving one DMM's
        memory for another's makes a coalesced round trip through the
        UMM.  Free when ``d == 1`` (nothing can cross).  ``d`` defaults
        to the machine's DMM count.
        """
        from repro.core.theory import inter_dmm_transfer_time

        if d is None:
            d = self.params.num_dmms
        return inter_dmm_transfer_time(
            elements,
            self.params.width,
            self.params.latency,
            d,
            element_cells,
        )

    def run_sharded(
        self, sharded: ShardedProgram, element_cells: int = 1
    ) -> dict[str, int]:
        """Price a :class:`~repro.shard.ShardedProgram` on this machine.

        Per-DMM round pricing: the ``d`` stripes are assigned
        round-robin to the machine's ``num_dmms`` DMMs, each stripe's
        two local phases cost one casual pass each, and DMMs run in
        parallel — so the local term is the *busiest* DMM's stripe
        count times the per-stripe pass cost.  The exchange volume then
        pays the :meth:`transfer_time` charge for the elements that
        actually cross stripes.  Returns a breakdown dict with keys
        ``d``, ``stripe``, ``stripes_per_dmm``, ``local``,
        ``exchange`` and ``total``.
        """
        w = self.params.width
        latency = self.params.latency
        with telemetry.span(
            "hmm.sharded", d=sharded.d, n=sharded.n
        ) as sp:
            per_stripe = 0
            if sharded.stripe:
                per_stripe = 4 * (
                    -(-(element_cells * sharded.stripe) // w) + latency - 1
                )
            stripes_per_dmm = -(-sharded.d // self.params.num_dmms)
            local = per_stripe * stripes_per_dmm
            exchange = self.transfer_time(
                sharded.exchange_elements, element_cells, d=sharded.d
            )
            total = local + exchange
            sp.set(model_time=total, exchange=exchange)
            telemetry.count("hmm_time_units_total", total)
        return {
            "d": sharded.d,
            "stripe": sharded.stripe,
            "stripes_per_dmm": stripes_per_dmm,
            "local": local,
            "exchange": exchange,
            "total": total,
        }

    def reset_cache(self) -> None:
        """Clear the L2 model's state (between benchmark repetitions)."""
        if self.l2_cache is not None:
            self.l2_cache.reset()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        cache = ", l2" if self.l2_cache is not None else ""
        return (
            f"HMM(w={self.params.width}, l={self.params.latency}, "
            f"d={self.params.num_dmms}{cache})"
        )
