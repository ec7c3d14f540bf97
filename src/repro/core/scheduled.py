"""The scheduled offline permutation — the paper's main contribution.

:class:`ScheduledPermutation` packages the full pipeline:

* **plan** (offline, done once per permutation): the global three-step
  decomposition (Section VII) plus a conflict-free row-wise schedule
  for each of the three passes (Section VI).  The schedules are plain
  arrays — ``s``/``t`` pairs in 16-bit integers, exactly what the
  paper's CUDA implementation stores in global memory.
* **apply** (online): five kernels — row-wise, transpose, row-wise,
  transpose, row-wise — every round coalesced or conflict-free.
* **simulate**: replay on an :class:`~repro.machine.hmm.HMM`, giving
  the 32-round trace whose time is ``16(n/w + l - 1)`` plus the
  (d-fold parallel) shared terms — independent of the permutation.

Example
-------
>>> import numpy as np
>>> from repro import ScheduledPermutation
>>> from repro.permutations import bit_reversal
>>> p = bit_reversal(256)
>>> plan = ScheduledPermutation.plan(p, width=4)
>>> a = np.arange(256.0)
>>> b = plan.apply(a)
>>> expected = np.empty_like(a); expected[p] = a
>>> bool((b == expected).all())
True
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro import telemetry
from repro.core import affine
from repro.core.colwise import ColumnwiseSchedule
from repro.core.rowwise import RowwiseSchedule
from repro.core.scheduler import ThreeStepDecomposition, decompose
from repro.core.transpose import TiledTranspose
from repro.errors import SizeError, ValidationError
from repro.ir.engine import EngineBase
from repro.ir.ops import RowwiseScatter, Transpose
from repro.ir.program import KernelProgram
from repro.ir.registry import register_engine
from repro.machine.hmm import HMM
from repro.machine.memory import TraceRecorder, element_cells_of
from repro.machine.params import MachineParams
from repro.machine.trace import ProgramTrace
from repro.util.validation import check_permutation, check_square, isqrt_exact

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.staticcheck.certifier import Certificate


@register_engine("scheduled")
@dataclass
class ScheduledPermutation(EngineBase):
    """A fully planned optimal offline permutation."""

    p: np.ndarray
    width: int
    decomposition: ThreeStepDecomposition
    step1: RowwiseSchedule
    step2: ColumnwiseSchedule
    step3: RowwiseSchedule
    #: Static conflict-freedom proof, attached by :meth:`certify` or by
    #: :func:`repro.core.io.load_plan` when the file embeds one.
    certificate: "Certificate | None" = field(
        default=None, compare=False, repr=False
    )
    #: The affine form ``x -> A x xor c`` of ``p`` when the plan was
    #: made in closed form (:mod:`repro.core.affine`), else ``None``.
    #: A plan carrying it is saved as that formula, not as arrays.
    affine: "affine.AffineForm | None" = field(
        default=None, init=False, compare=False, repr=False
    )

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------

    @classmethod
    def plan(
        cls, p: np.ndarray, width: int = 32, backend: str = "auto"
    ) -> "ScheduledPermutation":
        """Plan the scheduled permutation for ``p``.

        ``len(p)`` must be a perfect square whose root is a multiple of
        ``width``.  ``backend`` picks the König colouring implementation
        for both the global and the per-row colourings.  Under
        ``"auto"``, an affine ``p`` (``x -> A x xor c`` over GF(2), such
        as bit reversal and transpose) is planned with every colouring
        in closed form instead (:mod:`repro.core.affine`) from
        ``n = 2^14`` up.
        """
        p = check_permutation(p)
        n = int(p.shape[0])
        check_square(n, width, "len(p)")
        with telemetry.span("scheduled.plan", n=n, width=width,
                            backend=backend):
            form = (
                affine.detect(p)
                if backend == "auto" and n >= affine.CLOSED_FORM_MIN_N
                else None
            )
            if form is not None:
                plan = cls._closed_form(p, form, width, faults=True)
                telemetry.count("plans_affine_closed_total")
            else:
                decomposition = decompose(p, backend=backend)
                with telemetry.span("scheduled.plan.step1"):
                    step1 = RowwiseSchedule.plan(decomposition.gamma1,
                                                 width, backend)
                with telemetry.span("scheduled.plan.step2"):
                    step2 = ColumnwiseSchedule.plan(decomposition.delta,
                                                    width, backend)
                with telemetry.span("scheduled.plan.step3"):
                    step3 = RowwiseSchedule.plan(decomposition.gamma3,
                                                 width, backend)
                plan = cls(p=p, width=width, decomposition=decomposition,
                           step1=step1, step2=step2, step3=step3)
            telemetry.count("plans_scheduled_total")
        return plan

    @classmethod
    def from_affine(
        cls, form: "affine.AffineForm", width: int
    ) -> "ScheduledPermutation":
        """Regenerate the closed-form plan of the affine permutation
        ``form`` — exactly the plan :meth:`plan` makes for it (the
        loader of formula plan files calls this)."""
        check_square(form.n, width, "len(p)")
        return cls._closed_form(form.permutation(), form, width,
                                faults=False)

    @classmethod
    def _closed_form(
        cls, p: np.ndarray, form: "affine.AffineForm", width: int,
        faults: bool,
    ) -> "ScheduledPermutation":
        decomposition, step1, step2, step3 = affine.plan_parts(
            form, width, p, faults
        )
        plan = cls(p=p, width=width, decomposition=decomposition,
                   step1=step1, step2=step2, step3=step3)
        plan.affine = form
        return plan

    @property
    def n(self) -> int:
        return int(self.p.shape[0])

    @property
    def m(self) -> int:
        return self.decomposition.m

    def schedule_bytes(self) -> int:
        """Total bytes of precomputed schedule data (the offline output).

        Three row-wise passes, each with an ``s`` and a ``t`` array of
        ``n`` entries.
        """
        arrays = (
            self.step1.s, self.step1.t,
            self.step2.rowwise.s, self.step2.rowwise.t,
            self.step3.s, self.step3.t,
        )
        return int(sum(a.nbytes for a in arrays))

    def shared_bytes(self, dtype) -> int:
        """Worst per-block shared-memory footprint across the 5 kernels."""
        return max(
            self.step1.shared_bytes(dtype),
            self.step2.shared_bytes(dtype),
            self.step3.shared_bytes(dtype),
        )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def apply(
        self, a: np.ndarray, recorder: TraceRecorder | None = None
    ) -> np.ndarray:
        """Permute ``a`` (length ``n``): returns ``b`` with
        ``b[p[i]] == a[i]``.

        Runs the five kernels in sequence; with a recorder attached,
        every one of the 32 access rounds is charged/collected.
        """
        a = np.asarray(a)
        if a.shape != (self.n,):
            raise SizeError(f"a must have shape ({self.n},), got {a.shape}")
        mat = a.reshape(self.m, self.m)
        with telemetry.span("scheduled.apply", n=self.n):
            with telemetry.span("scheduled.step1"):
                mat = self.step1.apply(mat, recorder)  # row-wise
            with telemetry.span("scheduled.step2"):
                # transpose, row-wise, transpose
                mat = self.step2.apply(mat, recorder)
            with telemetry.span("scheduled.step3"):
                mat = self.step3.apply(mat, recorder)  # row-wise
        return mat.reshape(-1)

    def apply_batch(self, batch: np.ndarray) -> np.ndarray:
        """Permute every row of ``batch`` (shape ``(k, n)``) with one
        plan — the throughput mode for workloads like batched FFTs.

        Follows the exact per-element data movement of :meth:`apply`
        (the same schedules drive every pass), vectorised over the
        leading axis; on the HMM each of the ``k`` payloads costs one
        :meth:`simulate` time.
        """
        from repro.exec.batch import BatchExecutor

        return BatchExecutor().run(self.lower_optimized(), batch)

    def simulate(
        self,
        machine: HMM | MachineParams | None = None,
        dtype=np.float32,
    ) -> ProgramTrace:
        """Charge the five kernels on an HMM and return the 32-round trace."""
        from repro.exec.simulator import SimulatorExecutor

        with telemetry.span("scheduled.simulate", n=self.n) as sp:
            trace = SimulatorExecutor().simulate(
                self.lower_optimized(), machine, dtype=dtype
            )
            sp.set(model_time=trace.time, model_rounds=trace.num_rounds)
        return trace

    # ------------------------------------------------------------------
    # IR lowering
    # ------------------------------------------------------------------

    def lower(self) -> KernelProgram:
        """Lower to the canonical five-kernel program of Theorem 2.

        The op labels are the kernel names the static certifier pins
        (``step1.rowwise`` ... ``step3.rowwise``); the schedule arrays
        are the plan's own (no copies), so a lowered program certifies
        and executes bitwise identically to the engine.
        """
        w = self.width
        ops = (
            RowwiseScatter(
                label="step1.rowwise", gamma=self.step1.gamma,
                width=w, s=self.step1.s, t=self.step1.t,
            ),
            Transpose(label="step2.transpose-in", m=self.m, width=w),
            RowwiseScatter(
                label="step2.rowwise", gamma=self.step2.rowwise.gamma,
                width=w, s=self.step2.rowwise.s, t=self.step2.rowwise.t,
            ),
            Transpose(label="step2.transpose-out", m=self.m, width=w),
            RowwiseScatter(
                label="step3.rowwise", gamma=self.step3.gamma,
                width=w, s=self.step3.s, t=self.step3.t,
            ),
        )
        return KernelProgram(engine="scheduled", n=self.n, width=w, ops=ops)

    @classmethod
    def from_program(
        cls, program: KernelProgram, p: np.ndarray
    ) -> "ScheduledPermutation":
        """Rebuild the planned engine from its lowered program.

        The decomposition's colour array is recovered from ``gamma1``
        (an element's colour *is* its intermediate column), so the
        five-kernel program is a complete serialisation.
        """
        ops = program.ops
        if len(ops) != 5 or not (
            isinstance(ops[0], RowwiseScatter)
            and isinstance(ops[1], Transpose)
            and isinstance(ops[2], RowwiseScatter)
            and isinstance(ops[3], Transpose)
            and isinstance(ops[4], RowwiseScatter)
        ):
            raise ValidationError(
                "not a scheduled five-kernel program: "
                f"{[op.kind for op in ops]}"
            )
        width = program.width
        gamma1 = np.ascontiguousarray(ops[0].gamma, dtype=np.int64)
        delta = np.ascontiguousarray(ops[2].gamma, dtype=np.int64)
        gamma3 = np.ascontiguousarray(ops[4].gamma, dtype=np.int64)
        step1 = RowwiseSchedule(
            gamma=gamma1, s=ops[0].s, t=ops[0].t, width=width
        )
        step3 = RowwiseSchedule(
            gamma=gamma3, s=ops[4].s, t=ops[4].t, width=width
        )
        m = int(gamma1.shape[0])
        step2 = ColumnwiseSchedule(
            rowwise=RowwiseSchedule(
                gamma=delta, s=ops[2].s, t=ops[2].t, width=width
            ),
            transpose=TiledTranspose(m, width),
        )
        decomposition = ThreeStepDecomposition(
            gamma1=gamma1,
            delta=delta,
            gamma3=gamma3,
            colors=gamma1.reshape(-1),
        )
        return cls(
            p=np.asarray(p),
            width=width,
            decomposition=decomposition,
            step1=step1,
            step2=step2,
            step3=step3,
        )

    @classmethod
    def predict(
        cls,
        p: np.ndarray,
        params: MachineParams | None = None,
        dtype=np.float32,
    ) -> int | None:
        """Closed-form time ``16(n/w + l - 1) + shared terms``
        (Table I), or ``None`` when ``n`` is not a feasible square or
        the tiles would overflow shared memory."""
        from repro.core import theory

        params = params or MachineParams()
        n = int(np.asarray(p).shape[0])
        w = params.width
        try:
            m = isqrt_exact(n, "n")
        except SizeError:
            return None
        if n == 0 or m % w != 0:
            return None
        if params.shared_capacity is not None:
            shared_needed = 2 * m * np.dtype(dtype).itemsize
            if shared_needed > params.shared_capacity:
                return None
        k = element_cells_of(dtype)
        return theory.scheduled_time(n, w, params.latency,
                                     params.num_dmms, k)

    def inverse(self, backend: str = "auto") -> "ScheduledPermutation":
        """Plan the inverse permutation from this plan's decomposition.

        If this plan realises ``p`` as ``rowwise(g1) ∘ colwise(delta) ∘
        rowwise(g3)``, then ``p⁻¹`` is ``rowwise(g3⁻¹) ∘
        colwise(delta⁻¹) ∘ rowwise(g1⁻¹)`` — the per-row/per-column
        inverses applied in reverse order.  The expensive global König
        colouring is *reused*; only the three cheap bank colourings are
        recomputed for the inverted families.
        """
        m = self.m
        d = self.decomposition

        def invert_rows(arr: np.ndarray) -> np.ndarray:
            out = np.empty_like(arr)
            rows = np.arange(arr.shape[0])[:, None]
            out[rows, arr] = np.broadcast_to(
                np.arange(m, dtype=arr.dtype), arr.shape
            )
            return out

        gamma1_inv = invert_rows(np.asarray(d.gamma3, dtype=np.int64))
        delta_inv = invert_rows(np.asarray(d.delta, dtype=np.int64))
        gamma3_inv = invert_rows(np.asarray(d.gamma1, dtype=np.int64))

        from repro.permutations.ops import invert as invert_perm

        p_inv = invert_perm(self.p)
        # Colour (= intermediate column) of each inverse-route element:
        # the element starting at position q = p[i] travels i's route
        # backwards through the same column.
        colors_inv = np.empty(self.n, dtype=np.int64)
        colors_inv[self.p] = d.colors
        decomposition = ThreeStepDecomposition(
            gamma1=gamma1_inv,
            delta=delta_inv,
            gamma3=gamma3_inv,
            colors=colors_inv,
        )
        decomposition.route(p_inv)
        width = self.width
        return ScheduledPermutation(
            p=p_inv,
            width=width,
            decomposition=decomposition,
            step1=RowwiseSchedule.plan(gamma1_inv, width, backend),
            step2=ColumnwiseSchedule.plan(delta_inv, width, backend),
            step3=RowwiseSchedule.plan(gamma3_inv, width, backend),
        )

    def certify(self) -> "Certificate":
        """Statically prove every access round conflict-free/coalesced.

        Runs :func:`repro.staticcheck.certify_plan` over the plan
        arrays (no simulation), caches the result on
        :attr:`certificate` and returns it.  The certificate may be
        negative — check ``certificate.ok`` — so this never raises on a
        conflicted plan; :func:`repro.core.io.save_plan` enforces
        positivity when persisting.
        """
        from repro.staticcheck.certifier import certify_plan

        self.certificate = certify_plan(self)
        return self.certificate

    def verify(self) -> None:
        """Run every internal consistency check (tests and
        :func:`repro.core.io.load_plan` call this): the decomposition
        must route ``p`` exactly, its colouring must be a proper König
        colouring (each colour class a perfect matching), and every
        row-wise schedule must be conflict-free *and* encode its
        ``gamma``."""
        self.decomposition.route(self.p)
        self.decomposition.verify_coloring(self.p)
        self.step1.verify()
        self.step2.rowwise.verify()
        self.step3.verify()


def scheduled_permute(
    a: np.ndarray, p: np.ndarray, width: int = 32, backend: str = "auto"
) -> np.ndarray:
    """One-shot convenience: plan and apply in one call.

    For repeated permutations with the same ``p`` (the algorithm's
    intended use — "offline" means ``p`` is known in advance), plan once
    with :meth:`ScheduledPermutation.plan` and reuse it.
    """
    return ScheduledPermutation.plan(p, width=width, backend=backend).apply(a)
