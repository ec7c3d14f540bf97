"""Symbolic access-map extraction from kernel programs.

Every address a *regular* (scheduled) kernel touches is a pure function
of the plan arrays — the ``s``/``t`` schedules and the transpose's
precomputed address streams.  This module derives those address streams
*without executing anything*: no payload array is allocated, no traced
gather/scatter runs.  :func:`program_rounds` walks a lowered
:class:`~repro.ir.program.KernelProgram` op by op, so the certifier
works from the same IR the executors run; the differential test suite
pins the result against the address streams the real executors emit
through :mod:`repro.machine.memory`.

The round order mirrors the executors exactly:

* row-wise kernel (:meth:`repro.core.rowwise.RowwiseSchedule.apply`):
  read ``a``, read ``s``, write ``x[s]``, read ``t``, read ``x[tile]``,
  write ``y[t]``, read ``y[tile]``, write ``b`` — 8 rounds;
* transpose kernel (:meth:`repro.core.transpose.TiledTranspose.apply`):
  read ``a``, write ``tile`` (diagonal slots), read ``tile``, write
  ``b`` — 4 rounds;
* gather-scatter kernel
  (:meth:`repro.core.dmm_permutation.DMMScheduledPermutation.apply`):
  read ``s``, read ``t``, read ``a[s]``, write ``b[t]`` — 4 shared
  rounds;
* the paper's five-kernel program: row-wise, transpose, row-wise,
  transpose, row-wise = 8 + 4 + 8 + 4 + 8 = 32 rounds.

Irregular ops (casual reads/writes, unscheduled scatters) have no
conflict-freedom claim to certify, so :func:`program_rounds` refuses
them with :class:`~repro.errors.StaticCheckError` rather than guessing.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import StaticCheckError
from repro.ir.ops import (
    GatherScatter,
    KernelOp,
    Pad,
    RowwiseScatter,
    Slice,
    Transpose,
)
from repro.machine.requests import AccessRound

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.rowwise import RowwiseSchedule
    from repro.core.scheduled import ScheduledPermutation
    from repro.core.transpose import TiledTranspose
    from repro.ir.program import KernelProgram

#: (space, kind, array, addresses, block_size)
_Access = tuple[str, str, str, np.ndarray, "int | None"]


@dataclass(frozen=True)
class StaticRound:
    """One access round derived symbolically from plan arrays.

    ``addresses`` holds one address per thread (block-local for shared
    rounds, exactly the convention of
    :class:`repro.machine.requests.AccessRound`); ``index`` is the
    round's position in the full 32-round program.
    """

    kernel: str
    index: int
    space: str
    kind: str
    array: str
    addresses: np.ndarray
    block_size: int | None = None

    @property
    def num_threads(self) -> int:
        return int(self.addresses.shape[0])

    def label(self) -> str:
        """Identifier like ``"step1.rowwise[2] shared write x"``."""
        return f"{self.kernel}[{self.index}] {self.space} {self.kind} " \
               f"{self.array}"

    def to_access_round(self) -> AccessRound:
        """The equivalent dynamic :class:`AccessRound` (tests, races)."""
        return AccessRound(
            self.space, self.kind, self.addresses, self.array,  # type: ignore[arg-type]
            block_size=self.block_size,
        )


def _coalesced(n: int) -> np.ndarray:
    return np.arange(n, dtype=np.int64)


def _rowwise_accesses(schedule: "RowwiseSchedule") -> Iterator[_Access]:
    """The 8 address streams of one row-wise kernel, in executor order."""
    rows, m = int(schedule.rows), int(schedule.m)
    n = rows * m
    idx = _coalesced(n)
    s_flat = np.asarray(schedule.s, dtype=np.int64).reshape(-1)
    t_flat = np.asarray(schedule.t, dtype=np.int64).reshape(-1)
    tile = np.broadcast_to(
        np.arange(m, dtype=np.int64), (rows, m)
    ).reshape(-1)
    yield ("global", "read", "a", idx, None)
    yield ("global", "read", "s", idx, None)
    yield ("shared", "write", "x", s_flat, m)
    yield ("global", "read", "t", idx, None)
    yield ("shared", "read", "x", tile, m)
    yield ("shared", "write", "y", t_flat, m)
    yield ("shared", "read", "y", tile, m)
    yield ("global", "write", "b", idx, None)


def _transpose_accesses(transpose: "TiledTranspose") -> Iterator[_Access]:
    """The 4 address streams of one tiled-transpose kernel."""
    block_threads = int(transpose.block_threads)
    yield ("global", "read", "a",
           np.asarray(transpose.read_addr, dtype=np.int64), None)
    yield ("shared", "write", "tile",
           np.asarray(transpose.shared_write_addr, dtype=np.int64)
           .reshape(-1), block_threads)
    yield ("shared", "read", "tile",
           np.asarray(transpose.shared_read_addr, dtype=np.int64)
           .reshape(-1), block_threads)
    yield ("global", "write", "b",
           np.asarray(transpose.write_addr, dtype=np.int64), None)


def _materialise(
    kernel: str, accesses: Iterator[_Access], start: int
) -> list[StaticRound]:
    rounds = []
    for offset, (space, kind, array, addresses, block_size) in enumerate(
        accesses
    ):
        rounds.append(
            StaticRound(
                kernel=kernel,
                index=start + offset,
                space=space,
                kind=kind,
                array=array,
                addresses=addresses,
                block_size=block_size,
            )
        )
    return rounds


def rowwise_rounds(
    schedule: "RowwiseSchedule", kernel: str = "rowwise", start: int = 0
) -> list[StaticRound]:
    """Static rounds of a single row-wise schedule."""
    return _materialise(kernel, _rowwise_accesses(schedule), start)


def transpose_rounds(
    transpose: "TiledTranspose", kernel: str = "transpose", start: int = 0
) -> list[StaticRound]:
    """Static rounds of a single tiled transpose."""
    return _materialise(kernel, _transpose_accesses(transpose), start)


def _gather_scatter_accesses(op: GatherScatter) -> Iterator[_Access]:
    """The 4 shared address streams of the single-DMM kernel."""
    n = int(op.s.shape[0])
    idx = _coalesced(n)
    yield ("shared", "read", "s", idx, n)
    yield ("shared", "read", "t", idx, n)
    yield ("shared", "read", "a",
           np.asarray(op.s, dtype=np.int64), n)
    yield ("shared", "write", "b",
           np.asarray(op.t, dtype=np.int64), n)


def _op_accesses(op) -> Iterator[_Access]:
    """The address streams of one regular IR op, in executor order."""
    if isinstance(op, RowwiseScatter) and op.regular:
        from repro.core.rowwise import RowwiseSchedule

        schedule = RowwiseSchedule(
            gamma=op.gamma, s=op.s, t=op.t, width=op.width
        )
        return _rowwise_accesses(schedule)
    if isinstance(op, Transpose) and op.tiled:
        from repro.core.transpose import TiledTranspose

        return _transpose_accesses(
            TiledTranspose(op.m, op.width, diagonal=op.diagonal)
        )
    if isinstance(op, GatherScatter):
        return _gather_scatter_accesses(op)
    raise StaticCheckError(
        f"op {op.label!r} (kind {op.kind!r}) is not statically "
        "certifiable: only scheduled row-wise, tiled transpose and "
        "gather-scatter kernels have conflict-freedom claims to prove"
    )


def op_rounds(op: KernelOp, start: int = 0) -> list[StaticRound]:
    """The access rounds of one regular IR op, labelled with the op's
    label and numbered from ``start`` (``[]`` for ``pad``/``slice``;
    irregular ops raise :class:`StaticCheckError`)."""
    if isinstance(op, (Pad, Slice)):
        return []
    return _materialise(op.label, _op_accesses(op), start)


def program_rounds(program: "KernelProgram") -> tuple[StaticRound, ...]:
    """Derive the access rounds of a lowered kernel program.

    Walks ``program.ops`` in order; each regular op contributes its
    address streams under its own label (e.g. ``step1.rowwise``), with
    round indices running consecutively across the whole program.
    ``pad``/``slice`` ops are zero-cost resizing and contribute no
    rounds; irregular ops raise :class:`StaticCheckError`.
    """
    rounds: list[StaticRound] = []
    for op in program.ops:
        rounds.extend(op_rounds(op, start=len(rounds)))
    return tuple(rounds)


#: Rounds of the paper's five-kernel scheduled program.
PAPER_ROUNDS = 32


def require_paper_rounds(count: int) -> None:
    """Refuse a scheduled plan whose kernels do not add up to the
    paper's :data:`PAPER_ROUNDS` rounds."""
    if count != PAPER_ROUNDS:
        raise StaticCheckError(
            f"expected {PAPER_ROUNDS} static rounds, derived {count} — "
            "the plan's kernel structure does not match the paper's "
            "program"
        )


def plan_rounds(plan: "ScheduledPermutation") -> tuple[StaticRound, ...]:
    """Derive all 32 rounds of a planned scheduled permutation.

    Lowers the plan to its kernel program and enumerates rounds from
    the IR; kernels appear in execution order (``step1.rowwise``,
    ``step2.transpose-in``, ``step2.rowwise``, ``step2.transpose-out``,
    ``step3.rowwise``) and round indices run 0..31 across the program.
    """
    rounds = program_rounds(plan.lower())
    require_paper_rounds(len(rounds))
    return rounds
