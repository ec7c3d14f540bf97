"""Project-specific AST lint rules (``python -m repro check``).

Generic linters cannot know this codebase's layering rules; these eight
checks encode them:

``REP101`` **bank/group arithmetic outside the machine layer** — the
    expressions ``x % width`` and ``x // width`` *are* the memory
    model (bank of an address, address group of an address).  Scattering
    them through application code invites silent divergence from
    :meth:`repro.machine.dmm.DMM.bank` /
    :meth:`repro.machine.umm.UMM.address_group`.  Allowed in the
    machine, core-planner, colouring and staticcheck layers (where the
    model is implemented) and in the figure renderers; divisibility
    *checks* (``x % width != 0`` and friends) are exempt everywhere.

``REP102`` **unguarded telemetry** — library code must emit telemetry
    through the module-level ``telemetry.span()/count()/gauge()``
    helpers (spans are no-ops when no tracer is active; counts land in
    the always-on process registry), never by instantiating
    :class:`repro.telemetry.Tracer` itself or importing the tracer
    internals.  Entry points that legitimately *own* a tracer (the CLI,
    the report runner, the resilience engine) are allowlisted.  Also
    flags a ``span(...)`` call used as a bare statement: the span is
    created but never entered, so it records nothing — always a bug.

``REP103`` **hard-coded narrow integer dtypes** — fixed ``int8/16/32``
    (and unsigned) dtypes in ``astype``/``np.array``/``np.asarray``/
    ``np.empty``/``np.zeros``/``np.full`` silently overflow when sizes
    grow; :func:`repro.util.arrays.smallest_index_dtype` is the blessed
    idiom (and its home module is exempt).

``REP104`` **unregistered engine class** — a class in the engine layers
    (``repro.core``, ``repro.cpu``) that defines ``lower()`` is a
    permutation engine, and every engine must be registered with
    :func:`repro.ir.registry.register_engine` so the selector, the CLI
    ``--engine`` options and plan format v3 can find it.  An engine
    left off the registry silently disappears from ``engine_names()``
    and cannot be reloaded from a saved plan.  Deliberate façades
    (e.g. :class:`repro.core.selector.AutoPermutation`, which wraps a
    registered engine rather than being one) suppress the rule inline.

``REP105`` **raw lower() result executed without the pass pipeline** —
    executors must see *optimized* programs.  An executor call whose
    program argument is a direct ``....lower()`` call (e.g.
    ``ReferenceExecutor().run(engine.lower(), a)``) bypasses the
    default :class:`~repro.passes.framework.PassPipeline`; route
    through ``engine.lower_optimized()`` (or an explicit
    ``pipeline.run(engine.lower())`` — pipeline receivers are the
    blessed consumers of raw lowerings and are exempt).  The rule is
    syntactic: it flags the inline-call pattern, not programs passed
    through variables.

``REP106`` **lock acquisition against the declared hierarchy** — in the
    concurrency layers (``repro.service``, ``repro.planner``) a class's
    lock hierarchy *is* its ``__init__`` declaration order: a method
    may only acquire a later-declared lock while holding an
    earlier-declared one (the server's ``stats()`` nesting ``_cond``
    then ``_stats_lock`` is the canonical shape).  Detected via an AST
    call-graph walk per class: direct ``with self.<lock>`` nesting
    *and* calls — transitively — to methods that acquire, so
    ``submit()`` holding ``_cond`` and calling ``_count()`` (which
    takes ``_stats_lock``) is analysed exactly like inline nesting.
    Re-acquiring a held non-reentrant ``Lock`` (a guaranteed
    self-deadlock) is flagged too; ``RLock``/``Condition`` re-entry is
    legal and exempt.

``REP107`` **unguarded write to lock-shared state** — in the same
    layers, an attribute written under ``with self.<lock>`` anywhere in
    a class is *shared state*; a plain write to it elsewhere without
    the lock is a lost-update bug (``x += 1`` under concurrency drops
    increments).  Constructor writes are initialization and exempt, as
    are writes in methods whose every same-class call site holds a
    lock (the ``# Caller holds the lock`` helper pattern, proved by
    the call-graph walk rather than taken on comment trust).

``REP108`` **warm-path replay of a full KernelProgram where a sealed
    handle may exist** — in the serving layers (``repro.planner``,
    ``repro.service``) a warm apply should route through the sealed
    tier's single proven gather; an executor ``.run(...)`` call whose
    program argument is a ``....program`` attribute replays the whole
    kernel schedule on every request, silently forfeiting the sealed
    fast path.  Functions that consult a ``sealed`` handle (the
    dispatch pattern in ``CompiledPermutation.apply``) are exempt —
    they already route; so are pipeline receivers, mirroring REP105.
    Sites that are genuinely cold-only suppress inline.

Suppression: a source line containing ``staticcheck: ignore`` silences
all rules on that line; ``staticcheck: ignore[REP105]`` silences one.
"""

from __future__ import annotations

import ast
import re
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from pathlib import Path

from repro.errors import StaticCheckError

#: Rule catalogue: name -> one-line description (docs and ``--rule``).
LINT_RULES: dict[str, str] = {
    "REP101": "bank/group index arithmetic outside the machine layer",
    "REP102": "telemetry not using the guarded span()/count() helpers",
    "REP103": "hard-coded narrow integer dtype (overflow pitfall)",
    "REP104": "engine class not registered with @register_engine",
    "REP105": "raw lower() result executed without the pass pipeline",
    "REP106": "lock acquisition against the declared lock hierarchy",
    "REP107": "write to lock-shared state outside its lock block",
    "REP108": "warm-path program replay where a sealed handle may exist",
}

#: Module prefixes the REP106/REP107 concurrency rules cover: the
#: serving core and the planner's cache tiers, where locks guard state
#: shared across server workers.
_CONCURRENCY_LAYERS = ("repro.service", "repro.planner")

#: ``threading`` constructors whose ``self.<attr> = ...`` assignment in
#: ``__init__`` declares a lock; declaration order is the hierarchy.
_LOCK_FACTORIES = frozenset({"Lock", "RLock", "Condition"})

#: Module prefixes REP104 treats as engine layers: a class defining
#: ``lower()`` here must carry the ``@register_engine`` decorator.
_ENGINE_LAYERS = ("repro.core", "repro.cpu")

#: Module prefixes where the memory model is *implemented* and REP101
#: does not apply.  ``analysis.figures`` renders the Figure 4 closed
#: form, and ``repro.passes`` computes the costing annotation
#: (predicted stages = rounds x ceil(n / width)); both are deliberately
#: exempt.
_BANK_ARITH_ALLOWED = (
    "repro.machine",
    "repro.core",
    "repro.coloring",
    "repro.staticcheck",
    "repro.analysis.figures",
    "repro.passes",
)

#: Modules allowed to instantiate a Tracer: the telemetry package
#: itself plus the entry points that own one by design.
_TRACER_ALLOWED = (
    "repro.telemetry",
    "repro.cli",
    "repro.report",
    "repro.resilience.engine",
)

#: Width-like identifiers whose `% x` / `// x` is bank/group math.
_WIDTH_NAMES = frozenset({"w", "width"})

#: Narrow integer dtype spellings REP103 refuses.
_NARROW_DTYPES = frozenset(
    {"int8", "int16", "int32", "uint8", "uint16", "uint32"}
)

#: Constructors whose ``dtype=`` keyword REP103 inspects (``np.ones``
#: is deliberately absent: the colouring backends use ``int8`` ones
#: vectors as sparse-matrix payloads, where overflow is impossible).
_DTYPE_CALLS = frozenset(
    {"array", "asarray", "empty", "zeros", "full", "arange"}
)

_IGNORE_RE = re.compile(r"staticcheck:\s*ignore(?:\[([A-Z0-9, ]+)\])?")

_DEFAULT_ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class LintFinding:
    """One rule violation at a precise source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} " \
               f"{self.message}"


def module_name_of(path: Path) -> str:
    """Dotted module name of a source file (``repro.machine.dmm``).

    Resolved from the last path component named ``repro``; files
    outside a ``repro`` tree keep their stem as a best-effort name.
    """
    parts = path.resolve().with_suffix("").parts
    if "repro" in parts:
        idx = len(parts) - 1 - parts[::-1].index("repro")
        dotted = ".".join(parts[idx:])
    else:
        dotted = path.stem
    if dotted.endswith(".__init__"):
        dotted = dotted[: -len(".__init__")]
    return dotted


def _allowed(module: str, prefixes: Sequence[str]) -> bool:
    return any(
        module == prefix or module.startswith(prefix + ".")
        for prefix in prefixes
    )


def _is_width_name(node: ast.expr) -> bool:
    if isinstance(node, ast.Name):
        return node.id in _WIDTH_NAMES
    if isinstance(node, ast.Attribute):
        return node.attr in _WIDTH_NAMES
    return False


def _narrow_dtype_spelling(node: ast.expr) -> str | None:
    """The narrow-dtype name an expression spells, if any."""
    if isinstance(node, ast.Attribute) and node.attr in _NARROW_DTYPES:
        return node.attr
    if isinstance(node, ast.Name) and node.id in _NARROW_DTYPES:
        return node.id
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        if node.value in _NARROW_DTYPES:
            return node.value
    return None


class _Visitor(ast.NodeVisitor):
    """Single-pass visitor running all three rules over one module."""

    def __init__(self, module: str, path: str) -> None:
        self.module = module
        self.path = path
        self.findings: list[LintFinding] = []
        self._compare_depth = 0
        # Enclosing function stack (innermost last) with a memoized
        # does-it-mention-``sealed`` flag per function, for REP108.
        self._function_stack: list[ast.AST] = []
        self._mentions_sealed: dict[ast.AST, bool] = {}

    def _report(self, rule: str, node: ast.AST, message: str) -> None:
        self.findings.append(
            LintFinding(
                rule=rule,
                path=self.path,
                line=int(getattr(node, "lineno", 1)),
                col=int(getattr(node, "col_offset", 0)),
                message=message,
            )
        )

    # -- REP101 --------------------------------------------------------

    def visit_Compare(self, node: ast.Compare) -> None:
        # `x % width != 0` is a divisibility check, not bank math.
        self._compare_depth += 1
        try:
            self.generic_visit(node)
        finally:
            self._compare_depth -= 1

    def visit_BinOp(self, node: ast.BinOp) -> None:
        if (
            isinstance(node.op, (ast.Mod, ast.FloorDiv))
            and _is_width_name(node.right)
            and self._compare_depth == 0
            and not _allowed(self.module, _BANK_ARITH_ALLOWED)
        ):
            op = "%" if isinstance(node.op, ast.Mod) else "//"
            self._report(
                "REP101", node,
                f"bank/group arithmetic `... {op} width` belongs in "
                "the machine layer; use DMM.bank() / "
                "UMM.address_group() or move the computation",
            )
        self.generic_visit(node)

    # -- REP102 --------------------------------------------------------

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if (
            node.module is not None
            and node.module.startswith("repro.telemetry.")
            and not _allowed(self.module, ("repro.telemetry",))
        ):
            self._report(
                "REP102", node,
                f"import of telemetry internals ({node.module}); use "
                "the guarded repro.telemetry.span()/count()/gauge() "
                "helpers",
            )
        self.generic_visit(node)

    def _is_tracer_call(self, node: ast.Call) -> bool:
        func = node.func
        if isinstance(func, ast.Name):
            return func.id == "Tracer"
        if isinstance(func, ast.Attribute):
            return func.attr == "Tracer"
        return False

    def visit_Call(self, node: ast.Call) -> None:
        if self._is_tracer_call(node) and not _allowed(
            self.module, _TRACER_ALLOWED
        ):
            self._report(
                "REP102", node,
                "library code must not own a Tracer; emit through the "
                "guarded telemetry.span()/count()/gauge() helpers so "
                "the caller controls collection",
            )
        self._check_rep103(node)
        self._check_rep105(node)
        self._check_rep108(node)
        self.generic_visit(node)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._function_stack.append(node)
        try:
            self.generic_visit(node)
        finally:
            self._function_stack.pop()

    def visit_AsyncFunctionDef(
        self, node: ast.AsyncFunctionDef
    ) -> None:
        self._function_stack.append(node)
        try:
            self.generic_visit(node)
        finally:
            self._function_stack.pop()

    def visit_Expr(self, node: ast.Expr) -> None:
        value = node.value
        if isinstance(value, ast.Call):
            func = value.func
            name = (
                func.attr if isinstance(func, ast.Attribute)
                else func.id if isinstance(func, ast.Name) else None
            )
            if name == "span":
                self._report(
                    "REP102", node,
                    "span created but never entered — it records "
                    "nothing; use `with telemetry.span(...):`",
                )
        self.generic_visit(node)

    # -- REP104 --------------------------------------------------------

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if (
            _allowed(self.module, _ENGINE_LAYERS)
            and any(
                isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                and item.name == "lower"
                for item in node.body
            )
            and not any(
                self._is_register_engine(dec) for dec in node.decorator_list
            )
        ):
            self._report(
                "REP104", node,
                f"engine class {node.name} defines lower() but is not "
                "registered; decorate it with @register_engine(...) so "
                "the selector, the CLI and plan files can find it",
            )
        self.generic_visit(node)

    @staticmethod
    def _is_register_engine(node: ast.expr) -> bool:
        func = node.func if isinstance(node, ast.Call) else node
        if isinstance(func, ast.Name):
            return func.id == "register_engine"
        if isinstance(func, ast.Attribute):
            return func.attr == "register_engine"
        return False

    # -- REP103 --------------------------------------------------------

    def _check_rep103(self, node: ast.Call) -> None:
        if _allowed(self.module, ("repro.util.arrays",)):
            return
        func = node.func
        spelling: str | None = None
        if isinstance(func, ast.Attribute) and func.attr == "astype":
            if node.args:
                spelling = _narrow_dtype_spelling(node.args[0])
        elif isinstance(func, ast.Attribute) and func.attr in _DTYPE_CALLS:
            for keyword in node.keywords:
                if keyword.arg == "dtype":
                    spelling = _narrow_dtype_spelling(keyword.value)
        if spelling is not None:
            self._report(
                "REP103", node,
                f"hard-coded narrow dtype np.{spelling}; derive it "
                "with repro.util.arrays.smallest_index_dtype to avoid "
                "silent overflow when sizes grow",
            )

    # -- REP105 --------------------------------------------------------

    #: Executor entry points whose program argument REP105 inspects.
    _EXECUTOR_METHODS = frozenset({"run", "simulate"})

    def _check_rep105(self, node: ast.Call) -> None:
        func = node.func
        if not (
            isinstance(func, ast.Attribute)
            and func.attr in self._EXECUTOR_METHODS
        ):
            return
        if self._is_pipeline_receiver(func.value):
            # `pipeline.run(engine.lower())` IS the optimization step.
            return
        for arg in node.args:
            if (
                isinstance(arg, ast.Call)
                and isinstance(arg.func, ast.Attribute)
                and arg.func.attr == "lower"
            ):
                self._report(
                    "REP105", node,
                    "raw lower() result passed straight to an "
                    "executor, bypassing the default PassPipeline; "
                    "use engine.lower_optimized() (or run the "
                    "program through a pipeline first)",
                )
                return

    # -- REP108 --------------------------------------------------------

    #: Module prefixes REP108 covers: the layers that serve warm
    #: requests and therefore should prefer the sealed tier.
    _SEALED_LAYERS = ("repro.planner", "repro.service")

    def _enclosing_mentions_sealed(self) -> bool:
        """Whether any enclosing function's body mentions ``sealed``
        (an attribute, name or call containing the word) — the
        dispatch pattern that checks for a sealed handle before
        replaying the program."""
        for fn in reversed(self._function_stack):
            flag = self._mentions_sealed.get(fn)
            if flag is None:
                flag = any(
                    (
                        isinstance(sub, ast.Attribute)
                        and "sealed" in sub.attr.lower()
                    )
                    or (
                        isinstance(sub, ast.Name)
                        and "sealed" in sub.id.lower()
                    )
                    for sub in ast.walk(fn)
                )
                self._mentions_sealed[fn] = flag
            if flag:
                return True
        return False

    def _check_rep108(self, node: ast.Call) -> None:
        if not _allowed(self.module, self._SEALED_LAYERS):
            return
        func = node.func
        if not (
            isinstance(func, ast.Attribute) and func.attr == "run"
        ):
            return
        if self._is_pipeline_receiver(func.value):
            return
        replayed = next(
            (
                arg
                for arg in node.args
                if isinstance(arg, ast.Attribute)
                and arg.attr == "program"
            ),
            None,
        )
        if replayed is None:
            return
        if self._enclosing_mentions_sealed():
            # The function dispatches on a sealed handle already; the
            # program replay is its (correct) unsealed fallback.
            return
        self._report(
            "REP108", node,
            "warm-path executor replay of a full `.program` where a "
            "sealed handle may exist; dispatch through the sealed "
            "tier first (CompiledPermutation.apply does), or "
            "suppress if this site is cold-only",
        )

    @staticmethod
    def _is_pipeline_receiver(node: ast.expr) -> bool:
        """True when the call receiver is pipeline-like by name
        (``pipeline.run(...)``, ``self.pipeline.run(...)``,
        ``default_pipeline().run(...)``)."""
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                name = func.id
            elif isinstance(func, ast.Attribute):
                name = func.attr
            else:
                return False
        else:
            return False
        return "pipeline" in name.lower()


# ---------------------------------------------------------------------
# REP106 / REP107: per-class concurrency analysis
# ---------------------------------------------------------------------


def _self_attr(node: ast.expr) -> str | None:
    """``attr`` when ``node`` is ``self.<attr>``, else ``None``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _lock_declarations(cls: ast.ClassDef) -> dict[str, tuple[int, str]]:
    """``{attr: (rank, kind)}`` for the locks ``__init__`` declares.

    Rank is declaration order — the class's lock hierarchy.  ``kind``
    is the ``threading`` factory name (``Lock`` is non-reentrant,
    ``RLock``/``Condition`` re-enter legally).
    """
    init = next(
        (
            item
            for item in cls.body
            if isinstance(item, ast.FunctionDef)
            and item.name == "__init__"
        ),
        None,
    )
    if init is None:
        return {}
    locks: dict[str, tuple[int, str]] = {}
    for node in ast.walk(init):
        if not isinstance(node, ast.Assign):
            continue
        value = node.value
        if not isinstance(value, ast.Call):
            continue
        func = value.func
        factory = (
            func.attr if isinstance(func, ast.Attribute)
            else func.id if isinstance(func, ast.Name) else None
        )
        if factory not in _LOCK_FACTORIES:
            continue
        for target in node.targets:
            attr = _self_attr(target)
            if attr is not None and attr not in locks:
                locks[attr] = (len(locks), factory)
    return locks


@dataclass
class _MethodFacts:
    """What one method does with locks, state and peer methods.

    Every entry carries the tuple of declared locks lexically held at
    that point (outermost first).
    """

    acquisitions: list[tuple[str, tuple[str, ...], ast.AST]]
    calls: list[tuple[str, tuple[str, ...], ast.AST]]
    writes: list[tuple[str, tuple[str, ...], ast.AST]]


def _collect_method_facts(
    fn: ast.FunctionDef | ast.AsyncFunctionDef,
    locks: dict[str, tuple[int, str]],
) -> _MethodFacts:
    facts = _MethodFacts(acquisitions=[], calls=[], writes=[])

    def write_target(target: ast.expr) -> str | None:
        attr = _self_attr(target)
        if attr is not None:
            return attr
        if isinstance(target, ast.Subscript):
            # `self.d[k] = v` mutates self.d just like `self.x = v`.
            return _self_attr(target.value)
        return None

    def visit(node: ast.AST, held: tuple[str, ...]) -> None:
        if (
            isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            )
            and node is not fn
        ):
            # Nested scopes run at another time, under another stack;
            # the lexically-held set does not apply to them.
            return
        if isinstance(node, (ast.With, ast.AsyncWith)):
            inner = held
            for item in node.items:
                visit(item.context_expr, inner)
                attr = _self_attr(item.context_expr)
                if attr in locks:
                    facts.acquisitions.append((attr, inner, node))
                    inner = inner + (attr,)
            for stmt in node.body:
                visit(stmt, inner)
            return
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute):
                attr = _self_attr(func)
                if attr is not None:
                    facts.calls.append((attr, held, node))
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                attr = write_target(target)
                if attr is not None:
                    facts.writes.append((attr, held, node))
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            attr = write_target(node.target)
            if attr is not None:
                facts.writes.append((attr, held, node))
        for child in ast.iter_child_nodes(node):
            visit(child, held)

    visit(fn, ())
    return facts


def _transitive_locks(
    methods: dict[str, _MethodFacts],
) -> dict[str, set[str]]:
    """Fixpoint of "locks method m may acquire", through self-calls."""
    acquired = {
        name: {lock for lock, _held, _node in facts.acquisitions}
        for name, facts in methods.items()
    }
    changed = True
    while changed:
        changed = False
        for name, facts in methods.items():
            for callee, _held, _node in facts.calls:
                extra = acquired.get(callee, set()) - acquired[name]
                if extra:
                    acquired[name] |= extra
                    changed = True
    return acquired


def _guarded_methods(methods: dict[str, _MethodFacts]) -> set[str]:
    """Methods whose *every* same-class call site holds a lock.

    Greatest fixpoint: start from every method that has at least one
    internal call site, then drop any with an unguarded call site in a
    non-guarded method.  Methods callable from outside the class
    (no internal call sites) are never guarded.
    """
    callsites: dict[str, list[tuple[str, tuple[str, ...]]]] = {}
    for caller, facts in methods.items():
        for callee, held, _node in facts.calls:
            if callee in methods:
                callsites.setdefault(callee, []).append((caller, held))
    guarded = {name for name in methods if callsites.get(name)}
    changed = True
    while changed:
        changed = False
        for name in list(guarded):
            for caller, held in callsites[name]:
                if not held and caller not in guarded:
                    guarded.discard(name)
                    changed = True
                    break
    return guarded


class _ConcurrencyChecker:
    """Runs REP106/REP107 over one lock-declaring class."""

    def __init__(
        self,
        cls: ast.ClassDef,
        locks: dict[str, tuple[int, str]],
        path: str,
    ) -> None:
        self.cls = cls
        self.locks = locks
        self.path = path
        self.findings: list[LintFinding] = []
        self.methods = {
            item.name: _collect_method_facts(item, locks)
            for item in cls.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        self.transitive = _transitive_locks(self.methods)
        self.guarded = _guarded_methods(self.methods)

    def _report(self, rule: str, node: ast.AST, message: str) -> None:
        self.findings.append(
            LintFinding(
                rule=rule,
                path=self.path,
                line=int(getattr(node, "lineno", 1)),
                col=int(getattr(node, "col_offset", 0)),
                message=f"[{self.cls.name}] {message}",
            )
        )

    def _hierarchy(self) -> str:
        ordered = sorted(self.locks, key=lambda a: self.locks[a][0])
        return " -> ".join(f"self.{attr}" for attr in ordered)

    # -- REP106 --------------------------------------------------------

    def _check_order(
        self,
        acquires: str,
        held: tuple[str, ...],
        node: ast.AST,
        via: str | None,
    ) -> None:
        rank, kind = self.locks[acquires]
        route = f" (via self.{via}())" if via else ""
        for outer in held:
            outer_rank, _outer_kind = self.locks[outer]
            if acquires == outer:
                if kind == "Lock":
                    self._report(
                        "REP106", node,
                        f"re-acquires non-reentrant self.{acquires} "
                        f"while holding it{route} — guaranteed "
                        "self-deadlock",
                    )
                continue
            if rank < outer_rank:
                self._report(
                    "REP106", node,
                    f"acquires self.{acquires} while holding "
                    f"self.{outer}{route}, against the declared lock "
                    f"hierarchy {self._hierarchy()} (declaration "
                    "order in __init__)",
                )

    def check_rep106(self) -> None:
        for facts in self.methods.values():
            for lock, held, node in facts.acquisitions:
                if held:
                    self._check_order(lock, held, node, via=None)
            for callee, held, node in facts.calls:
                if not held:
                    continue
                for lock in sorted(self.transitive.get(callee, ())):
                    self._check_order(lock, held, node, via=callee)

    # -- REP107 --------------------------------------------------------

    def check_rep107(self) -> None:
        # Shared state: attributes with at least one lock-guarded
        # write — lexically, via a fully call-site-guarded method, or
        # in a method that is *sometimes* entered under a lock (one
        # locked call site makes every write in it lock-shared).
        sometimes_locked = {
            callee
            for facts in self.methods.values()
            for callee, held, _node in facts.calls
            if held and callee in self.methods
        }
        guarding: dict[str, set[str]] = {}
        for name, facts in self.methods.items():
            if name == "__init__":
                continue
            for attr, held, _node in facts.writes:
                if attr in self.locks:
                    continue
                if held:
                    guarding.setdefault(attr, set()).add(held[-1])
                elif name in self.guarded or name in sometimes_locked:
                    guarding.setdefault(attr, set())
        for name, facts in self.methods.items():
            if name == "__init__" or name in self.guarded:
                continue
            for attr, held, node in facts.writes:
                if attr not in guarding or held:
                    continue
                locks = sorted(guarding[attr]) or ["<lock>"]
                self._report(
                    "REP107", node,
                    f"write to shared attribute self.{attr} outside a "
                    f"`with self.{locks[0]}` block; other writes are "
                    "lock-guarded, so this one races them",
                )


def _concurrency_findings(
    tree: ast.Module, module: str, path: str
) -> list[LintFinding]:
    """REP106/REP107 over every lock-declaring class in a module."""
    if not _allowed(module, _CONCURRENCY_LAYERS):
        return []
    findings: list[LintFinding] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        locks = _lock_declarations(node)
        if not locks:
            continue
        checker = _ConcurrencyChecker(node, locks, path)
        checker.check_rep106()
        checker.check_rep107()
        findings.extend(checker.findings)
    return findings


def _suppressed(source_lines: list[str], finding: LintFinding) -> bool:
    if not 1 <= finding.line <= len(source_lines):
        return False
    match = _IGNORE_RE.search(source_lines[finding.line - 1])
    if match is None:
        return False
    rules = match.group(1)
    if rules is None:
        return True
    return finding.rule in {r.strip() for r in rules.split(",")}


def lint_source(
    source: str, path: str, module: str | None = None,
    rules: Sequence[str] | None = None,
) -> list[LintFinding]:
    """Lint one module's source text (unit-testable entry point)."""
    if module is None:
        module = module_name_of(Path(path))
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        raise StaticCheckError(
            f"{path}: cannot lint, file does not parse: {exc}"
        ) from exc
    visitor = _Visitor(module=module, path=path)
    visitor.visit(tree)
    collected = visitor.findings + _concurrency_findings(
        tree, module, path
    )
    lines = source.splitlines()
    selected = set(rules) if rules is not None else None
    findings = [
        finding
        for finding in collected
        if (selected is None or finding.rule in selected)
        and not _suppressed(lines, finding)
    ]
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def iter_source_files(
    paths: Sequence[str | Path] | None = None,
) -> Iterator[Path]:
    """The Python files a lint run covers (defaults to the installed
    ``repro`` package tree)."""
    roots = (
        [Path(p) for p in paths] if paths else [_DEFAULT_ROOT]
    )
    for root in roots:
        if root.is_file():
            yield root
        elif root.is_dir():
            yield from sorted(root.rglob("*.py"))
        else:
            raise StaticCheckError(f"lint path does not exist: {root}")


def run_lint(
    paths: Sequence[str | Path] | None = None,
    rules: Sequence[str] | None = None,
) -> list[LintFinding]:
    """Run the rule catalogue over ``paths`` (default: the ``repro``
    package) and return all surviving findings, sorted."""
    if rules is not None:
        unknown = set(rules) - set(LINT_RULES)
        if unknown:
            raise StaticCheckError(
                f"unknown lint rule(s) {sorted(unknown)}; available: "
                f"{sorted(LINT_RULES)}"
            )
    findings: list[LintFinding] = []
    for path in iter_source_files(paths):
        findings.extend(
            lint_source(
                path.read_text(encoding="utf-8"), str(path), rules=rules
            )
        )
    return findings
