"""Static conflict-freedom certification of scheduled plans.

The paper's central claim is that every one of the scheduled
permutation's 32 rounds is *regular*: shared rounds hit ``w`` distinct
banks per warp (conflict-free on the DMM), global rounds touch a single
address group per warp (fully coalesced on the UMM).  The simulator
demonstrates this dynamically; this module *proves* it statically.

:func:`certify_plan` derives the 32 address streams symbolically
(:mod:`repro.staticcheck.access`) and analyses each round per warp:
the multiset of banks ``addr mod w`` for shared rounds, the set of
address groups ``addr div w`` for global rounds.  The result is a
:class:`Certificate` — per-round verdicts plus, on failure, a
:class:`Counterexample` naming the kernel, round, block, warp, bank and
colliding lanes.

The analysis is deliberately implemented independently of
:mod:`repro.machine.cost_model` (addresses derived from plan arrays
rather than captured from execution), so the differential tests
compare two independent derivations of the same quantities; the
counting primitives are pinned separately against scatter-add and
sort references (``tests/staticcheck/test_certifier_counts.py``).

A tiled transpose's rounds depend only on ``(m, width, diagonal)``, so
their verdicts are memoized per shape (:func:`_tiled_transpose_verdicts`)
— the small verdict records, never the address streams.

Certificates serialise to JSON and are embedded into plan files by
:func:`repro.core.io.save_plan`; a certificate binds itself to its plan
via the plan's payload checksum (``plan_sha``), so a certificate can
never vouch for a file it was not issued for.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.errors import CertificateError, StaticCheckError
from repro.ir.ops import KernelOp, Transpose
from repro.staticcheck.access import (
    StaticRound,
    op_rounds,
    require_paper_rounds,
    transpose_rounds,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.scheduled import ScheduledPermutation
    from repro.ir.program import KernelProgram

#: Schema version of serialised certificates.
CERTIFICATE_VERSION = 1


def _warp_matrix(addresses: np.ndarray, width: int) -> np.ndarray:
    """View a flat address stream as ``(num_warps, width)``.

    Every plan round has a thread count divisible by the width (``n``
    is a multiple of ``w`` and block sizes are multiples of ``w``), so
    unlike the simulator's padding path this is a strict reshape.
    """
    addresses = np.asarray(addresses, dtype=np.int64)
    if width < 1:
        raise StaticCheckError(f"width must be >= 1, got {width}")
    if addresses.ndim != 1 or addresses.shape[0] % width != 0:
        raise StaticCheckError(
            f"address stream of {addresses.shape} threads does not "
            f"divide into warps of {width}"
        )
    return addresses.reshape(-1, width)


def shared_bank_multiplicities(
    addresses: np.ndarray, width: int
) -> np.ndarray:
    """Per-warp maximum bank multiplicity of a shared (DMM) round.

    Warp ``g``'s requests occupy ``k`` pipeline stages where ``k`` is
    the largest number of its lanes whose addresses share one bank
    (``addr mod w``).  ``1`` everywhere means conflict-free.
    """
    warps = _warp_matrix(addresses, width)
    if warps.size == 0:
        return np.zeros(0, dtype=np.int64)
    num_warps = warps.shape[0]
    # One histogram over (warp, bank) cells: cell g*w + b counts warp
    # g's lanes in bank b.
    cells = warps % width
    cells += np.arange(0, num_warps * width, width, dtype=np.int64)[:, None]
    counts = np.bincount(cells.reshape(-1), minlength=num_warps * width)
    return counts.reshape(num_warps, width).max(axis=1).astype(np.int64)


def global_group_counts(addresses: np.ndarray, width: int) -> np.ndarray:
    """Per-warp distinct address-group count of a global (UMM) round.

    Warp ``g``'s requests occupy one stage per distinct group
    ``addr div w`` among its lanes.  ``1`` everywhere means fully
    coalesced.
    """
    warps = _warp_matrix(addresses, width)
    if warps.size == 0:
        return np.zeros(0, dtype=np.int64)
    groups = warps // width
    distinct = np.ones(warps.shape[0], dtype=np.int64)
    # A warp whose lowest and highest group agree touches one group;
    # only the others need sorting to count their distinct groups.
    spread = np.nonzero(groups.min(axis=1) != groups.max(axis=1))[0]
    if spread.size:
        rows = np.sort(groups[spread], axis=1)
        distinct[spread] += np.count_nonzero(np.diff(rows, axis=1), axis=1)
    return distinct


@dataclass(frozen=True)
class RoundVerdict:
    """The certified cost profile of one static round.

    ``stages`` is the round's total pipeline-stage count on a single
    memory (sum over warps); ``max_per_warp`` is the worst warp's bank
    multiplicity (shared) or distinct-group count (global).  The round
    is regular — conflict-free or coalesced — iff ``ok``.
    """

    kernel: str
    index: int
    space: str
    kind: str
    array: str
    num_warps: int
    stages: int
    max_per_warp: int

    @property
    def ok(self) -> bool:
        return self.max_per_warp <= 1

    @property
    def classification(self) -> str:
        """The paper's Section III terminology for this round."""
        if not self.ok:
            return "casual"
        return "coalesced" if self.space == "global" else "conflict-free"


@dataclass(frozen=True)
class Counterexample:
    """A pinpointed violation of conflict-freedom / coalescing.

    For shared rounds, ``lanes`` are the warp lanes whose addresses
    collide in ``bank``; for global rounds, ``groups`` are the distinct
    address groups the warp touches (coalescing demands exactly one).
    ``block`` is the thread block owning the warp (shared rounds only).
    """

    kernel: str
    round_index: int
    space: str
    kind: str
    array: str
    warp: int
    lanes: tuple[int, ...]
    addresses: tuple[int, ...]
    block: int | None = None
    bank: int | None = None
    groups: tuple[int, ...] = ()

    def describe(self) -> str:
        where = f"{self.kernel} round {self.round_index} " \
                f"({self.space} {self.kind} {self.array})"
        if self.space == "shared":
            block = "" if self.block is None else f"block {self.block}, "
            lanes = ", ".join(str(lane) for lane in self.lanes)
            addrs = ", ".join(str(a) for a in self.addresses)
            return (
                f"{where}: {block}warp {self.warp}, lanes {lanes} all "
                f"hit bank {self.bank} (addresses {addrs})"
            )
        groups = ", ".join(str(g) for g in self.groups)
        return (
            f"{where}: warp {self.warp} touches {len(self.groups)} "
            f"address groups ({groups}) — coalescing requires one"
        )


def _shared_counterexample(
    rnd: StaticRound, width: int, per_warp: np.ndarray
) -> Counterexample:
    warp = int(np.argmax(per_warp > 1))
    warps = _warp_matrix(rnd.addresses, width)
    row = warps[warp]
    banks = row % width
    counts = np.bincount(banks, minlength=width)
    bank = int(np.argmax(counts))
    lanes = np.nonzero(banks == bank)[0]
    block = None
    if rnd.block_size is not None:
        block = warp // (rnd.block_size // width)
    return Counterexample(
        kernel=rnd.kernel,
        round_index=rnd.index,
        space=rnd.space,
        kind=rnd.kind,
        array=rnd.array,
        warp=warp,
        block=block,
        bank=bank,
        lanes=tuple(int(lane) for lane in lanes),
        addresses=tuple(int(row[lane]) for lane in lanes),
    )


def _global_counterexample(
    rnd: StaticRound, width: int, per_warp: np.ndarray
) -> Counterexample:
    warp = int(np.argmax(per_warp > 1))
    row = _warp_matrix(rnd.addresses, width)[warp]
    groups = np.unique(row // width)
    return Counterexample(
        kernel=rnd.kernel,
        round_index=rnd.index,
        space=rnd.space,
        kind=rnd.kind,
        array=rnd.array,
        warp=warp,
        lanes=tuple(range(row.shape[0])),
        addresses=tuple(int(a) for a in row),
        groups=tuple(int(g) for g in groups),
    )


def analyze_round(
    rnd: StaticRound, width: int
) -> tuple[RoundVerdict, Counterexample | None]:
    """Certify one static round; returns its verdict and, when the
    round is irregular, the first offending warp as a counterexample."""
    if rnd.space == "shared":
        per_warp = shared_bank_multiplicities(rnd.addresses, width)
    else:
        per_warp = global_group_counts(rnd.addresses, width)
    verdict = RoundVerdict(
        kernel=rnd.kernel,
        index=rnd.index,
        space=rnd.space,
        kind=rnd.kind,
        array=rnd.array,
        num_warps=int(per_warp.shape[0]),
        stages=int(per_warp.sum()),
        max_per_warp=int(per_warp.max()) if per_warp.size else 0,
    )
    if verdict.ok:
        return verdict, None
    if rnd.space == "shared":
        return verdict, _shared_counterexample(rnd, width, per_warp)
    return verdict, _global_counterexample(rnd, width, per_warp)


@dataclass(frozen=True)
class Certificate:
    """A static proof (or refutation) of a plan's regularity.

    ``ok`` iff every shared round is conflict-free *and* every global
    round is coalesced; otherwise ``counterexample`` pinpoints the
    first violation.  ``plan_sha`` binds the certificate to the payload
    checksum of the plan file it was issued for (``None`` for
    certificates not yet bound to a file).
    """

    n: int
    m: int
    width: int
    rounds: tuple[RoundVerdict, ...]
    counterexample: Counterexample | None = None
    plan_sha: str | None = None
    version: int = CERTIFICATE_VERSION

    @property
    def ok(self) -> bool:
        return self.counterexample is None and all(
            r.ok for r in self.rounds
        )

    @property
    def conflict_free(self) -> bool:
        """Every shared (DMM) round is bank-conflict-free."""
        return all(r.ok for r in self.rounds if r.space == "shared")

    @property
    def coalesced(self) -> bool:
        """Every global (UMM) round is single-group per warp."""
        return all(r.ok for r in self.rounds if r.space == "global")

    @property
    def num_rounds(self) -> int:
        return len(self.rounds)

    def bound_to(self, plan_sha: str) -> "Certificate":
        """A copy bound to a specific plan-file payload checksum."""
        return replace(self, plan_sha=plan_sha)

    def summary(self) -> str:
        """One- or two-line human-readable verdict."""
        shared = sum(1 for r in self.rounds if r.space == "shared")
        global_ = self.num_rounds - shared
        if self.ok:
            return (
                f"{self.num_rounds} rounds certified: {shared} shared "
                f"conflict-free, {global_} global coalesced "
                f"(n = {self.n}, w = {self.width})"
            )
        assert self.counterexample is not None
        return "NOT conflict-free: " + self.counterexample.describe()

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        counter = None
        if self.counterexample is not None:
            c = self.counterexample
            counter = {
                "kernel": c.kernel,
                "round_index": c.round_index,
                "space": c.space,
                "kind": c.kind,
                "array": c.array,
                "warp": c.warp,
                "block": c.block,
                "bank": c.bank,
                "lanes": list(c.lanes),
                "addresses": list(c.addresses),
                "groups": list(c.groups),
            }
        return {
            "version": self.version,
            "n": self.n,
            "m": self.m,
            "width": self.width,
            "plan_sha": self.plan_sha,
            "rounds": [
                {
                    "kernel": r.kernel,
                    "index": r.index,
                    "space": r.space,
                    "kind": r.kind,
                    "array": r.array,
                    "num_warps": r.num_warps,
                    "stages": r.stages,
                    "max_per_warp": r.max_per_warp,
                }
                for r in self.rounds
            ],
            "counterexample": counter,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), separators=(",", ":"))

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "Certificate":
        if not isinstance(payload, dict):
            raise CertificateError(
                f"certificate payload must be an object, got "
                f"{type(payload).__name__}"
            )
        try:
            version = int(payload["version"])
            if version != CERTIFICATE_VERSION:
                raise CertificateError(
                    f"unsupported certificate version {version}; this "
                    f"build reads version {CERTIFICATE_VERSION}"
                )
            rounds = tuple(
                RoundVerdict(
                    kernel=str(r["kernel"]),
                    index=int(r["index"]),
                    space=str(r["space"]),
                    kind=str(r["kind"]),
                    array=str(r["array"]),
                    num_warps=int(r["num_warps"]),
                    stages=int(r["stages"]),
                    max_per_warp=int(r["max_per_warp"]),
                )
                for r in payload["rounds"]
            )
            raw = payload.get("counterexample")
            counter = None
            if raw is not None:
                counter = Counterexample(
                    kernel=str(raw["kernel"]),
                    round_index=int(raw["round_index"]),
                    space=str(raw["space"]),
                    kind=str(raw["kind"]),
                    array=str(raw["array"]),
                    warp=int(raw["warp"]),
                    block=(
                        None if raw.get("block") is None
                        else int(raw["block"])
                    ),
                    bank=(
                        None if raw.get("bank") is None
                        else int(raw["bank"])
                    ),
                    lanes=tuple(int(v) for v in raw["lanes"]),
                    addresses=tuple(int(v) for v in raw["addresses"]),
                    groups=tuple(int(v) for v in raw.get("groups", ())),
                )
            sha = payload.get("plan_sha")
            return cls(
                n=int(payload["n"]),
                m=int(payload["m"]),
                width=int(payload["width"]),
                plan_sha=None if sha is None else str(sha),
                rounds=rounds,
                counterexample=counter,
                version=version,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise CertificateError(
                f"malformed certificate payload: {exc!r}"
            ) from exc

    @classmethod
    def from_json(cls, text: str) -> "Certificate":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CertificateError(
                f"certificate is not valid JSON: {exc}"
            ) from exc
        return cls.from_dict(payload)


#: One analysed round: its verdict and, when irregular, the first
#: offending warp.
_Analysed = tuple[RoundVerdict, "Counterexample | None"]


def _certificate(
    results: list[_Analysed], width: int, n: int, m: int
) -> Certificate:
    """Assemble analysed rounds into a certificate, keeping the
    *first* counterexample — in round order, the executor would hit it
    first."""
    counter = next((bad for _v, bad in results if bad is not None), None)
    return Certificate(
        n=n, m=m, width=width,
        rounds=tuple(verdict for verdict, _bad in results),
        counterexample=counter,
    )


def certify_rounds(
    rounds: tuple[StaticRound, ...] | list[StaticRound],
    width: int,
    n: int,
    m: int,
) -> Certificate:
    """Certify an explicit static round sequence (used by tests and by
    :func:`certify_plan`).  Keeps the *first* counterexample found —
    in round order, the executor would hit it first."""
    return _certificate(
        [analyze_round(rnd, width) for rnd in rounds], width, n, m
    )


@functools.lru_cache(maxsize=64)
def _tiled_transpose_verdicts(
    m: int, op_width: int, diagonal: bool, width: int
) -> tuple[_Analysed, ...]:
    """The analysed rounds of a tiled transpose, labelled kernel
    ``""`` from round 0.

    They depend on the shape alone, so each shape is analysed once per
    process; only these few small records are kept, while the address
    streams (``4 n`` int64) are dropped as soon as they are analysed.
    """
    from repro.core.transpose import TiledTranspose

    rounds = transpose_rounds(
        TiledTranspose(m, op_width, diagonal=diagonal), kernel=""
    )
    return tuple(analyze_round(rnd, width) for rnd in rounds)


def _op_results(op: KernelOp, width: int, start: int) -> list[_Analysed]:
    """The analysed rounds of one op, numbered from ``start``."""
    if isinstance(op, Transpose) and op.tiled:
        memo = _tiled_transpose_verdicts(
            int(op.m), int(op.width), bool(op.diagonal), width
        )
        return [
            (
                replace(verdict, kernel=op.label, index=start + offset),
                None if bad is None else replace(
                    bad, kernel=op.label, round_index=start + offset
                ),
            )
            for offset, (verdict, bad) in enumerate(memo)
        ]
    return [analyze_round(rnd, width) for rnd in op_rounds(op, start=start)]


def _program_results(
    program: "KernelProgram", width: int
) -> list[_Analysed]:
    """The analysed rounds of every op of ``program``, in order."""
    results: list[_Analysed] = []
    for op in program.ops:
        results.extend(_op_results(op, width, start=len(results)))
    return results


def certify_program(program: "KernelProgram") -> Certificate:
    """Statically certify any regular lowered kernel program.

    Works for every program whose ops carry full schedules (scheduled
    row-wise, tiled transpose, gather-scatter); raises
    :class:`~repro.errors.StaticCheckError` on programs containing
    irregular (casual) ops, which have no conflict-freedom claim to
    prove.  ``m`` in the resulting certificate is the row-wise tile
    side when the program has one, else 0.
    """
    from repro.ir.ops import RowwiseScatter

    m = next(
        (op.m for op in program.ops
         if isinstance(op, RowwiseScatter) and op.regular),
        0,
    )
    width = int(program.width) or max(
        (getattr(op, "width", 0) for op in program.ops), default=0
    )
    if width < 1:
        raise StaticCheckError(
            f"program {program.engine!r} has no machine width; cannot "
            "partition address streams into warps"
        )
    return _certificate(
        _program_results(program, width), width, int(program.n), int(m)
    )


def certify_plan(plan: "ScheduledPermutation") -> Certificate:
    """Statically certify a scheduled plan's 32 rounds.

    Returns a :class:`Certificate`; inspect ``certificate.ok`` (or the
    ``conflict_free`` / ``coalesced`` split) and, on failure,
    ``certificate.counterexample``.  Never raises on an irregular plan
    — refusal is the caller's policy (``save_plan`` refuses, the CLI
    reports).
    """
    width = int(plan.width)
    results = _program_results(plan.lower(), width)
    require_paper_rounds(len(results))
    return _certificate(results, width, int(plan.n), int(plan.m))
