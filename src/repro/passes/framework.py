"""The pass framework: typed rewrites over :class:`KernelProgram`.

A **pass** is a semantics-preserving program rewrite: it receives a
validated :class:`~repro.ir.program.KernelProgram` and returns either
the *same object* (nothing to do) or a new, equivalent program —
equivalence meaning the :class:`~repro.exec.reference.ReferenceExecutor`
output is bitwise identical for every input array.  Passes may only
*remove* cost (drop ops, merge ops); they never add rounds, so an
optimized program's ``num_rounds`` is always ``<=`` the original's.

A :class:`PassPipeline` runs its passes to a fixpoint (a fusion can
expose a transpose pair, whose cancellation can expose another fusion,
…), each application under a ``passes.<name>`` telemetry span, and
records a :class:`PassChange` per applied rewrite so ``explain()`` can
show exactly what happened.  When optimization cancels *everything*
(e.g. a permutation composed with its inverse), the empty program is
replaced by the canonical identity guard — a single zero-round
``slice`` op — because an empty op list is not a valid program.

The pipeline's :meth:`~PassPipeline.signature` names the pipeline, its
version and its pass list; the planner folds it into plan fingerprints
so a pipeline change invalidates cached plans, and ``save_plan``
records it as provenance metadata in plan files.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Protocol, runtime_checkable

import numpy as np

from repro import telemetry
from repro.ir.ops import Slice
from repro.ir.program import KernelProgram

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.staticcheck.semantics import SemanticChecker

#: Version of the pass-pipeline *semantics*; bump whenever a pass
#: changes behaviour so content-addressed plan caches are invalidated.
PIPELINE_VERSION = "1"


@runtime_checkable
class Pass(Protocol):
    """Structural type of one optimization pass."""

    @property
    def name(self) -> str: ...

    def run(self, program: KernelProgram) -> KernelProgram: ...


@dataclass(frozen=True)
class PassChange:
    """One applied rewrite, for ``explain()`` diffs."""

    name: str
    ops_before: int
    ops_after: int
    rounds_before: int
    rounds_after: int

    def format(self) -> str:
        return (
            f"{self.name}: {self.ops_before} -> {self.ops_after} op(s), "
            f"{self.rounds_before} -> {self.rounds_after} round(s)"
        )


def identity_guard(program: KernelProgram) -> KernelProgram:
    """The canonical fully-optimized program: one zero-round identity
    ``slice`` (``Slice(n)`` on a length-``n`` input copies it)."""
    return replace(
        program, ops=(Slice(label="identity", n=program.n),), meta=None
    )


def is_identity_guard(program: KernelProgram) -> bool:
    ops = program.ops
    return (
        len(ops) == 1
        and isinstance(ops[0], Slice)
        and ops[0].n == program.n
    )


class PassPipeline:
    """An ordered list of passes, run to a fixpoint.

    Parameters
    ----------
    passes:
        The passes, in application order.  A cost-annotation pass (one
        that only writes ``program.meta``) is conventionally last.
    name:
        Pipeline name, part of :meth:`signature`.
    version:
        Semantic version folded into :meth:`signature` (defaults to
        :data:`PIPELINE_VERSION`).
    """

    def __init__(
        self,
        passes: tuple[Pass, ...] | list[Pass],
        name: str = "default",
        version: str = PIPELINE_VERSION,
    ) -> None:
        self.passes: tuple[Pass, ...] = tuple(passes)
        if not self.passes:
            from repro.errors import ValidationError

            raise ValidationError(
                "a PassPipeline needs at least one pass (its signature "
                "keys plan caches, and an empty pass list is almost "
                "certainly a construction bug)"
            )
        self.name = name
        self.version = version

    def signature(self) -> str:
        """Stable identity of this pipeline: name, version, pass list.

        Folded into plan fingerprints and stored as plan-file
        provenance, so two plans optimized by different pipelines never
        share a cache entry.
        """
        names = ",".join(p.name for p in self.passes)
        return f"{self.name}@v{self.version}({names})"

    def describe(self) -> str:
        """One line per pass: name and first docstring line."""
        lines = [f"pipeline {self.signature()}"]
        for p in self.passes:
            doc = (type(p).__doc__ or "").strip().splitlines()
            summary = doc[0] if doc else ""
            lines.append(f"  {p.name:<20} {summary}")
        return "\n".join(lines)

    def run(
        self,
        program: KernelProgram,
        validate: bool = False,
        checker: "SemanticChecker | None" = None,
    ) -> KernelProgram:
        """Optimize ``program``; the result is semantically identical
        and never costs more rounds.

        With ``validate=True`` every applied rewrite is translation-
        validated: the pipeline denotes the input program once
        (:func:`repro.staticcheck.semantics.denote_program`), re-denotes
        after each applied pass, and raises
        :class:`~repro.errors.SemanticValidationError` — blaming the
        exact pass on the attached certificate — the moment a rewrite
        changes the denoted index map.  No executor runs and no payload
        moves in either mode.

        A caller that wants the proof itself passes its own ``checker``
        (a :class:`~repro.staticcheck.semantics.SemanticChecker` built
        over ``program``; it implies ``validate``) and afterwards reads
        the raw and optimized denotations off it.
        """
        optimized, _changes = self.explain(
            program, validate=validate, checker=checker
        )
        return optimized

    def explain(
        self,
        program: KernelProgram,
        validate: bool = False,
        checker: "SemanticChecker | None" = None,
    ) -> tuple[KernelProgram, list[PassChange]]:
        """Like :meth:`run`, but also return the per-pass diff."""
        program.validate()
        if validate and checker is None:
            # Deferred import: repro.staticcheck.semantics depends on
            # the IR only, but the staticcheck package as a whole pulls
            # in layers that import this module.
            from repro.staticcheck.semantics import SemanticChecker

            checker = SemanticChecker(program)
        changes: list[PassChange] = []
        with telemetry.span(
            "passes.pipeline", engine=program.engine,
            pipeline=self.signature(),
        ) as sp:
            current = program
            # Each applied structural pass strictly shrinks the op list
            # (or only touches meta), so len(ops) + 2 sweeps bound the
            # fixpoint loop.
            for _sweep in range(len(program.ops) + 2):
                before_sweep = current
                for p in self.passes:
                    current = self._apply_one(
                        p, current, changes, checker
                    )
                if current is before_sweep:
                    break
            sp.set(
                ops_before=len(program.ops),
                ops_after=len(current.ops),
                rounds_before=program.num_rounds,
                rounds_after=current.num_rounds,
            )
        telemetry.count("passes_programs_optimized_total")
        return current, changes

    def _apply_one(
        self,
        p: Pass,
        current: KernelProgram,
        changes: list[PassChange],
        checker: "SemanticChecker | None" = None,
    ) -> KernelProgram:
        with telemetry.span("passes." + p.name):
            after = p.run(current)
        if after is current:
            return current
        if not after.ops:
            # Everything cancelled; substitute the canonical identity
            # guard — unless the input already was it (fixpoint).
            if is_identity_guard(current):
                return current
            after = identity_guard(after)
        after.validate()
        if checker is not None:
            checker.check(p.name, after)
        changes.append(
            PassChange(
                name=p.name,
                ops_before=len(current.ops),
                ops_after=len(after.ops),
                rounds_before=current.num_rounds,
                rounds_after=after.num_rounds,
            )
        )
        telemetry.count("passes_applied_total", **{"pass": p.name})
        return after


class ValidatedPass:
    """Gate a pass behind the semantic validator.

    Wraps an inner pass and refuses any rewrite whose denoted index
    map differs from the input's: the unproven rewrite is simply not
    applied (the input program is returned unchanged) and a
    ``passes_semantic_refused_total{pass=<name>}`` counter records the
    refusal.  This is how ``aggressive_pipeline`` makes
    ``drop-identities`` provably safe without giving up on it — a bad
    drop degrades to a no-op instead of a wrong answer.

    The wrapper's name (``validated(<inner>)``) is part of the
    pipeline signature, so gating a pass invalidates content-addressed
    plan caches exactly like changing the pass itself would.
    """

    def __init__(self, inner: Pass) -> None:
        self.inner = inner

    @property
    def name(self) -> str:
        return f"validated({self.inner.name})"

    def run(self, program: KernelProgram) -> KernelProgram:
        after = self.inner.run(program)
        if after is program:
            return program
        from repro.staticcheck.semantics import denote_program

        before_den = denote_program(program)
        if not before_den.ok:
            # Nothing provable to preserve; keep the input untouched.
            telemetry.count(
                "passes_semantic_refused_total", **{"pass": self.inner.name}
            )
            return program
        if after.ops:
            after_den = denote_program(after)
            preserved = after_den.ok and np.array_equal(
                before_den.index_map, after_den.index_map
            )
        else:
            # The framework will substitute the identity guard, which
            # denotes the identity map.
            preserved = bool(
                np.array_equal(
                    before_den.index_map,
                    np.arange(program.n, dtype=np.int64),
                )
            )
        if not preserved:
            telemetry.count(
                "passes_semantic_refused_total", **{"pass": self.inner.name}
            )
            return program
        return after
