"""Conflict-free row-wise permutation (paper Section VI).

Given per-row permutations ``gamma`` (the element in column ``i`` of
row ``j`` must move to column ``gamma[j, i]``), a naive in-shared-memory
permutation would suffer bank conflicts.  The paper removes them with a
König edge colouring:

1. For each row, build the **bank multigraph**: one edge
   ``(i mod w) -> (gamma[i] mod w)`` per element.  It is regular of
   degree ``m / w``, hence ``m/w``-edge-colourable (Theorem 6).
2. Let ``c(i)`` be the colour of element ``i`` and define
   ``alpha(i) = c(i) * w + (i mod w)``.  ``alpha`` is a permutation:
   within one colour the ``w`` edges leave distinct source banks.
3. The schedule arrays are ``s = alpha`` and
   ``t = gamma ∘ alpha⁻¹`` — stored, like the paper's implementation,
   as 16-bit integers in the global memory ("2-dimensional arrays of
   short int, since at most 16 bits are necessary").

The four-step kernel then performs (per row ``j``, thread ``i``):

* Step 1: ``x[s[j][i]] <- a[j][i]``    — write bank ``s[j][i] mod w =
  i mod w``: conflict-free;
* Step 2: ``t' <- t[j][i]``            — coalesced read;
* Step 3: ``y[t'] <- x[i]``            — read bank ``i mod w``
  conflict-free; write bank = the destination bank of thread ``i``'s
  colour-class matching edge: conflict-free;
* Step 4: ``b[j][i] <- y[i]``          — coalesced write.

Total: 3 coalesced global reads (``a``, ``s``, ``t``), 1 coalesced
global write (``b``), 2 conflict-free shared reads and 2 conflict-free
shared writes — exactly Table I's row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import telemetry
from repro.coloring import RegularBipartiteMultigraph, edge_coloring
from repro.coloring.verify import verify_edge_coloring
from repro.errors import SchedulingError, SizeError
from repro.machine.hmm import HMM
from repro.machine.memory import (
    NullRecorder,
    TraceRecorder,
    TracedGlobalArray,
    TracedSharedArray,
)
from repro.machine.params import MachineParams
from repro.machine.requests import coalesced_addresses
from repro.machine.trace import ProgramTrace
from repro.util.arrays import smallest_index_dtype


def _check_row_permutations(gamma: np.ndarray) -> np.ndarray:
    """Validate that every row of ``gamma`` is a permutation of its columns."""
    gamma = np.asarray(gamma)
    if gamma.ndim != 2:
        raise SizeError(f"gamma must be 2-D, got shape {gamma.shape}")
    if not np.issubdtype(gamma.dtype, np.integer):
        raise SizeError(f"gamma must be integral, got dtype {gamma.dtype}")
    rows, m = gamma.shape
    if m == 0:
        return gamma.astype(np.int64, copy=False)
    sorted_rows = np.sort(gamma, axis=1)
    if not np.array_equal(
        sorted_rows, np.broadcast_to(np.arange(m, dtype=sorted_rows.dtype), (rows, m))
    ):
        raise SchedulingError("every row of gamma must be a permutation of 0..m-1")
    return gamma.astype(np.int64, copy=False)


@dataclass
class RowwiseSchedule:
    """A planned conflict-free row-wise permutation.

    Attributes
    ----------
    gamma:
        ``(rows, m)`` destination columns (``gamma[j, i]`` = where the
        element at ``(j, i)`` goes).
    s, t:
        The schedule arrays of Section VI, in the smallest sufficient
        unsigned dtype (``uint16`` for every size the paper uses).
    width:
        Machine width ``w``; ``m`` must be a multiple of it.
    """

    gamma: np.ndarray
    s: np.ndarray
    t: np.ndarray
    width: int

    @property
    def rows(self) -> int:
        return int(self.gamma.shape[0])

    @property
    def m(self) -> int:
        return int(self.gamma.shape[1])

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------

    @classmethod
    def plan(
        cls, gamma: np.ndarray, width: int, backend: str = "auto"
    ) -> "RowwiseSchedule":
        """Build the ``s``/``t`` schedule from the row permutations.

        All rows are coloured in a single call: the per-row bank
        multigraphs are disjoint, so stacking them (row ``j``'s banks at
        node offset ``j*w``) yields one regular multigraph that any
        backend colours at once.
        """
        return cls.plan_with(
            gamma, width, backend,
            lambda graph: edge_coloring(graph, backend=backend),
        )

    @classmethod
    def plan_with(
        cls, gamma: np.ndarray, width: int, backend: str, color
    ) -> "RowwiseSchedule":
        """The schedule from the bank colouring ``color(graph)`` returns
        for the stacked bank multigraph of ``gamma``.

        Every colouring is verified as a proper ``m/w``-colouring
        before it is used, whichever way ``color`` computed it;
        ``backend`` only labels the span.
        """
        gamma = _check_row_permutations(gamma)
        rows, m = gamma.shape
        if width < 1:
            raise SizeError(f"width must be >= 1, got {width}")
        if m % width != 0:
            raise SizeError(
                f"row length m = {m} must be a multiple of the width {width}"
            )
        cols = np.arange(m, dtype=np.int64)
        row_offset = (np.arange(rows, dtype=np.int64) * width)[:, None]
        left = (row_offset + (cols % width)[None, :]).reshape(-1)
        right = (row_offset + gamma % width).reshape(-1)
        graph = RegularBipartiteMultigraph.from_edges(
            left, right, rows * width, rows * width
        )
        with telemetry.span("rowwise.plan.coloring", rows=rows, m=m,
                            backend=backend):
            colors = color(graph)
            verify_edge_coloring(graph, colors,
                                 expect_colors=max(m // width, 1))
            telemetry.count("coloring_rows_colored_total", rows)

        c = colors.reshape(rows, m)
        alpha = c * width + (cols % width)[None, :]
        # alpha is a permutation per row; invert it vectorised.
        alpha_inv = np.empty_like(alpha)
        row_idx = np.arange(rows)[:, None]
        alpha_inv[row_idx, alpha] = cols[None, :]
        t = np.take_along_axis(gamma, alpha_inv, axis=1)

        dtype = smallest_index_dtype(max(m - 1, 0))
        return cls(
            gamma=gamma,
            s=alpha.astype(dtype),
            t=t.astype(dtype),
            width=width,
        )

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------

    def verify_conflict_free(self) -> None:
        """Assert the schedule's shared accesses are conflict-free.

        Checks, for every warp of ``w`` consecutive threads in every
        row: the write banks of step 1 (``s mod w``) and of step 3
        (``t mod w``) are all distinct.  Raises
        :class:`~repro.errors.SchedulingError` on violation.
        """
        for name, arr in (("s", self.s), ("t", self.t)):
            banks = (arr.astype(np.int64) % self.width).reshape(
                self.rows, self.m // self.width, self.width
            )
            ordered = np.sort(banks, axis=2)
            if np.any(ordered[:, :, 1:] == ordered[:, :, :-1]):
                raise SchedulingError(
                    f"schedule array {name} has a bank conflict"
                )

    def verify(self) -> None:
        """Full schedule validation: conflict-freedom *and* semantics.

        Beyond the bank checks, the ``s``/``t`` pair must actually
        encode ``gamma``: both must be row-wise permutations and satisfy
        ``t[s[u]] == gamma[u]`` (since ``t = gamma ∘ s⁻¹``).  Catches
        corrupted or hand-edited schedules that happen to stay
        conflict-free.
        """
        self.verify_conflict_free()
        m = self.m
        for name, arr in (("s", self.s), ("t", self.t)):
            ordered = np.sort(arr.astype(np.int64), axis=1)
            if not np.array_equal(
                ordered,
                np.broadcast_to(np.arange(m), (self.rows, m)),
            ):
                raise SchedulingError(
                    f"schedule array {name} is not a row-wise permutation"
                )
        recovered = np.take_along_axis(
            self.t.astype(np.int64), self.s.astype(np.int64), axis=1
        )
        if not np.array_equal(recovered, self.gamma):
            raise SchedulingError(
                "schedule arrays s/t do not encode gamma (t[s[u]] != gamma[u])"
            )

    def shared_bytes(self, dtype) -> int:
        """Shared memory per block: the two row buffers ``x`` and ``y``.

        This is the quantity that hits the GTX-680's 48 KB wall for
        ``sqrt(n) = 4096`` doubles (2 * 4096 * 8 B = 64 KB).
        """
        return 2 * self.m * np.dtype(dtype).itemsize

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def apply(
        self, mat: np.ndarray, recorder: TraceRecorder | None = None
    ) -> np.ndarray:
        """Apply the row-wise permutation to ``mat`` (shape ``(rows, m)``).

        Executes the faithful four-step kernel through traced arrays, so
        the result is produced by the very ``s``/``t`` schedule that the
        simulator charges.
        """
        mat = np.asarray(mat)
        if mat.shape != (self.rows, self.m):
            raise SizeError(
                f"matrix must have shape ({self.rows}, {self.m}), got {mat.shape}"
            )
        rec = recorder if recorder is not None else NullRecorder()
        n = mat.size
        ga = TracedGlobalArray(mat, "a", rec)
        gs = TracedGlobalArray(self.s, "s", rec)
        gt = TracedGlobalArray(self.t, "t", rec)
        gb = TracedGlobalArray(np.empty_like(mat), "b", rec)
        x = TracedSharedArray(
            self.rows, self.m, mat.dtype, "x", rec, block_threads=self.m
        )
        y = TracedSharedArray(
            self.rows, self.m, mat.dtype, "y", rec, block_threads=self.m
        )
        idx = coalesced_addresses(n)
        tile = np.broadcast_to(
            np.arange(self.m, dtype=np.int64), (self.rows, self.m)
        )

        rec.begin_kernel("rowwise", self.shared_bytes(mat.dtype))
        values = ga.gather(idx)                       # read a   (coalesced)
        s_val = gs.gather(idx)                        # read s   (coalesced)
        x.scatter(
            s_val.reshape(self.rows, self.m),
            values.reshape(self.rows, self.m),
        )                                             # step 1   (conflict-free)
        t_val = gt.gather(idx)                        # step 2   (coalesced)
        staged = x.gather(tile)                       # step 3a  (conflict-free)
        y.scatter(t_val.reshape(self.rows, self.m), staged)  # 3b (conflict-free)
        result = y.gather(tile)                       # step 4a  (conflict-free)
        gb.scatter(idx, result.reshape(-1))           # step 4b  (coalesced)
        rec.end_kernel()
        return gb.data.reshape(self.rows, self.m)

    def apply_batch(self, mats: np.ndarray) -> np.ndarray:
        """Apply the same row permutations to a stack of matrices.

        ``mats`` has shape ``(batch, rows, m)``; the data movement per
        matrix is identical to :meth:`apply` (same ``s``/``t``
        schedule), vectorised over the leading axis.
        """
        mats = np.asarray(mats)
        if mats.ndim != 3 or mats.shape[1:] != (self.rows, self.m):
            raise SizeError(
                f"batch must have shape (k, {self.rows}, {self.m}), got "
                f"{mats.shape}"
            )
        row_idx = np.arange(self.rows)[:, None]
        s = self.s.astype(np.int64)
        t = self.t.astype(np.int64)
        x = np.empty_like(mats)
        x[:, row_idx, s] = mats              # step 1
        y = np.empty_like(mats)
        y[:, row_idx, t] = x                 # step 3
        return y                             # step 4 layout

    def simulate(
        self,
        machine: HMM | MachineParams | None = None,
        dtype=np.float32,
    ) -> ProgramTrace:
        """Charge the row-wise kernel on an HMM and return the trace."""
        if machine is None:
            machine = HMM()
        elif isinstance(machine, MachineParams):
            machine = HMM(machine)
        rec = TraceRecorder(hmm=machine, name="rowwise")
        self.apply(np.zeros((self.rows, self.m), dtype=dtype), recorder=rec)
        assert rec.trace is not None
        return rec.trace
