"""The SOS system: parse, classify, optimize, execute (paper Section 6).

Processing of mixed programs follows the paper:

* ``type`` statements are processed internally;
* ``create`` / ``delete`` for *model* types are catalog management only
  (the object carries no value — its data lives in representation
  objects); representation and hybrid objects are initialized;
* updates and queries whose result type is a *model* type are transformed
  through optimization rules into equivalent representation-level
  statements, which are then executed;
* hybrid/representation statements are executed directly.

A statement is translated iff the system has an optimizer and the
statement is model-level.  Without an optimizer (``optimizer=None``) the
same pipeline gives the plain Section 2.4 semantics: every created object
starts as its type's ``empty`` value where one exists, and model-level
updates and queries are evaluated directly against those values.

The translated statements are recorded on the :class:`SystemResult` (the
paper's ``=>``-prefixed generated statements), so a session transcript can
be compared against Section 6 line by line.

Observability (see :mod:`repro.observe` and ``docs/OBSERVABILITY.md``):
every :class:`SystemResult` carries per-phase wall-clock ``timings``
(parse / typecheck / optimize / execute); with tracing enabled
(:meth:`SOSSystem.set_tracing` or ``repro.api.connect(trace=True)``) it
also carries an :class:`~repro.observe.ExecutionMetrics` (per-operator
tuple counts, storage access counters, the simulated-I/O delta) and a
:class:`~repro.observe.RuleTrace` of the optimizer's decisions.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro import observe
from repro.catalog import (
    Database,
    add_catalog_level,
    register_catalog_carriers,
)
from repro.core.algebra import SecondOrderAlgebra, Stream
from repro.core.sos import SignatureBuilder
from repro.core.terms import (
    Apply,
    Call,
    Fun,
    ListTerm,
    ObjRef,
    Term,
    TupleTerm,
    Var,
    format_term,
)
from repro.core.types import Type
from repro.errors import (
    CatalogError,
    OptimizationError,
    ResourceLimitError,
    SOSError,
    TypeCheckError,
    UpdateError,
    wrap_statement_error,
)
from repro.lang.parser import (
    AnalyzeStmt,
    CreateStmt,
    DeleteStmt,
    Parser,
    QueryStmt,
    Statement,
    TypeStmt,
    UpdateStmt,
    split_statements,
)
from repro.lang.printer import format_concrete
from repro.models.base import add_base_level, register_base_carriers
from repro.models.relational import add_relational_level, register_relational_carriers
from repro.observe import ExecutionMetrics, RuleTrace, Tracer
from repro.optimizer import Optimizer, standard_optimizer
from repro.rep.model import add_representation_level, register_rep_carriers
from repro.storage.io import GLOBAL_PAGES
from repro.system.transactions import (
    program_transaction,
    referenced_objects,
    statement_transaction,
)


@dataclass(slots=True)
class SystemResult:
    """The outcome of one statement processed by the system.

    This is the single result shape of the public API: ``run`` returns a
    list of them, ``run_one`` and ``query`` return one.  ``timings`` maps
    pipeline phases (``parse`` / ``typecheck`` / ``optimize`` /
    ``execute`` / ``total``) to wall-clock seconds and is filled on every
    statement; ``metrics`` and ``rule_trace`` are populated only when
    metric collection is on (tracing enabled, or ``explain(analyze=True)``).
    """

    kind: str
    level: str = "hybrid"  # 'model' | 'rep' | 'hybrid'
    name: Optional[str] = None
    type: Optional[Type] = None
    value: object = None
    term: Optional[Term] = None
    translated_term: Optional[Term] = None
    translated_target: Optional[str] = None
    translated_source: Optional[str] = None
    fired: list[str] = field(default_factory=list)
    timings: dict[str, float] = field(default_factory=dict)
    metrics: Optional[ExecutionMetrics] = None
    rule_trace: Optional[RuleTrace] = None

    @property
    def translated(self) -> bool:
        return self.translated_term is not None

    def generated_statement(self, concrete: bool = True) -> Optional[str]:
        """The representation-level statement the optimizer generated
        (the ``=>``-prefixed lines of the paper's Section 6 listing).

        With ``concrete=True`` (the default) the expression is rendered in
        the concrete syntax; otherwise in abstract (prefix) syntax.
        """
        if self.translated_term is None:
            return None
        if concrete and self.translated_source is not None:
            text = self.translated_source
        else:
            text = format_term(self.translated_term)
        if self.kind == "update" and self.translated_target is not None:
            return f"update {self.translated_target} := {text}"
        return f"query {text}"


# ---------------------------------------------------------------------------
# Builders (the canonical constructors; `repro.api.connect` wraps these)
# ---------------------------------------------------------------------------


def build_relational_database() -> Database:
    """The full relational stack: base + model + representation + catalog."""
    builder = SignatureBuilder()
    add_base_level(builder)
    add_relational_level(builder)
    add_representation_level(builder)
    add_catalog_level(builder)
    sos = builder.build()
    algebra = SecondOrderAlgebra(sos)
    register_base_carriers(algebra)
    register_relational_carriers(algebra)
    register_rep_carriers(algebra)
    register_catalog_carriers(algebra)
    return Database(sos, algebra)


def build_model_interpreter() -> "SOSSystem":
    """A system with no optimizer over the full relational stack.

    Executes *model-level* statements directly against in-memory relations
    (Section 2.4 semantics, no optimizing translation) — relations here are
    real values, not virtual objects backed by representations.  Use this
    for model-only programs, including views over relations.
    """
    return SOSSystem(build_relational_database())


def build_relational_system(
    optimizer: Optional[Optimizer] = None, tracer: Optional[Tracer] = None
) -> "SOSSystem":
    """A ready-to-use system over the full relational stack, with the
    standard rules and the ``rep`` catalog created (paper: "a catalog rep
    has been created together with the database")."""
    database = build_relational_database()
    SOSSystem(database).run_one("create rep : catalog(ident, ident)")
    return SOSSystem(
        database,
        optimizer if optimizer is not None else standard_optimizer(),
        tracer=tracer,
    )


class SOSSystem:
    """Mixed-program processing, with optimizing translation when the
    system has an optimizer."""

    def __init__(
        self,
        database: Database,
        optimizer: Optional[Optimizer] = None,
        tracer: Optional[Tracer] = None,
    ):
        self.database = database
        self.optimizer = optimizer
        self.tracer = tracer if tracer is not None else Tracer()
        self._collect = False
        self._feedback = False
        #: The attached :class:`~repro.durability.DurabilityManager`, if the
        #: system runs in durable mode (``connect(data_dir=...)``).  While
        #: attached and active, every mutating statement is written ahead to
        #: the log and acknowledged only once its commit record is durable.
        self.durability = None

    # ------------------------------------------------------------ observability

    def set_tracing(self, enabled: bool = True) -> None:
        """Toggle per-statement metric collection.

        While on, every executed statement carries ``metrics`` (operator
        tuple counts, storage counters, I/O delta) and ``rule_trace`` on
        its :class:`SystemResult`, and structured events flow through
        ``self.tracer``.  Off (the default), the only per-statement cost
        is a handful of clock reads for the phase timings.
        """
        self._collect = bool(enabled)

    @property
    def tracing(self) -> bool:
        return self._collect

    def set_feedback(self, enabled: bool = True) -> None:
        """Toggle cardinality feedback: while on (and metric collection is
        also on), measured filter selectivities of executed query plans are
        folded back into the statistics catalog
        (:func:`repro.stats.feedback.fold_observed`), so the next estimate
        of the same predicate uses observed rather than assumed fractions.
        """
        self._feedback = bool(enabled)

    @contextmanager
    def _phase(self, timings: dict[str, float], name: str) -> Iterator[None]:
        """Time a pipeline phase into ``timings`` and span it on the tracer."""
        with self.tracer.span("phase." + name):
            start = time.perf_counter()
            try:
                yield
            finally:
                timings[name] = (
                    timings.get(name, 0.0) + time.perf_counter() - start
                )

    # ------------------------------------------------------------------- API

    def make_parser(self) -> Parser:
        """A parser that sees the database's current aliases and objects."""
        return Parser(
            self.database.sos,
            aliases=self.database.aliases,
            is_object=self.database.has_object,
        )

    def run(self, source: str, atomic: bool = False) -> list[SystemResult]:
        """Process a program statement by statement.

        Each statement executes atomically (an error rolls the database
        back to the statement boundary).  With ``atomic=True`` the whole
        program is one transaction: any statement failure undoes every
        preceding statement of the program as well.

        Errors escape as :class:`~repro.errors.StatementError` — still
        instances of their original class — carrying the statement index,
        source text and pipeline phase.

        In durable mode an atomic program is also atomic *on disk*: the
        commit records of its statements are written together after the
        program transaction commits, so a crash (or failure) mid-program
        makes recovery discard the whole program.
        """
        if atomic:
            dur = self.durability
            if dur is not None and dur.active:
                with dur.deferred():
                    with program_transaction(self.database):
                        return self._run_statements(source)
            with program_transaction(self.database):
                return self._run_statements(source)
        return self._run_statements(source)

    def _run_statements(self, source: str) -> list[SystemResult]:
        results = []
        for index, chunk in enumerate(split_statements(source)):
            results.append(self._process(chunk, index))
        return results

    def run_one(self, source: str) -> SystemResult:
        return self._process(source, None)

    def _process(self, chunk: str, index: Optional[int]) -> SystemResult:
        try:
            timings: dict[str, float] = {}
            with self.tracer.span("statement", index=index):
                with self._phase(timings, "parse"):
                    statement = self.make_parser().parse_statement(chunk)
                dur = self.durability
                log_seq = None
                if dur is not None and not isinstance(statement, QueryStmt):
                    if not dur.active:
                        raise CatalogError(
                            "durable session is closed; reopen with "
                            "connect(data_dir=...) to mutate it"
                        )
                    # Write-ahead: the statement text reaches the log before
                    # any in-memory mutation; the commit record is appended
                    # (and made durable per the group-commit policy) only
                    # after the statement transaction has committed.
                    with self._phase(timings, "wal"):
                        log_seq = dur.log_statement(chunk)
                result = self.execute(statement, timings=timings)
                if log_seq is not None:
                    with self._phase(timings, "wal"):
                        dur.commit(log_seq)
                    timings["total"] = sum(
                        v for k, v in timings.items() if k != "total"
                    )
                return result
        except SOSError as exc:
            raise wrap_statement_error(exc, index=index, source=chunk)
        except RecursionError as exc:
            err = ResourceLimitError(
                "evaluation exceeded the Python recursion limit"
            )
            raise wrap_statement_error(err, index=index, source=chunk) from exc

    def query(self, source: str) -> SystemResult:
        """Run one query statement.

        Returns the full :class:`SystemResult` (the same shape ``run`` and
        ``run_one`` produce); the answer is its ``value`` attribute.
        """
        return self.run_one("query " + source)

    def explain(self, source: str, *, analyze: bool = False) -> dict:
        """The optimizer's answer to "what would you do with this query?".

        Parses, typechecks and optimizes a query *without executing it* and
        returns the chosen plan (concrete syntax), the rules that fired
        with the full rule trace, the estimated cost, the statement's
        level, and ``translated`` — False for representation-level
        (already-translated) and hybrid queries, and for every query of a
        system without an optimizer, which get the identity plan instead
        of an error.

        With ``analyze=True`` the query is also *executed* with metric
        collection armed, adding real row counts, per-operator tuple
        counts, storage access counters, per-phase timings, and the
        per-operator estimated-vs-actual ``cardinality`` report with
        q-errors (the classic EXPLAIN ANALYZE).

        Both forms report ``cost_counters`` — the ``cost.*`` observe
        counters bumped while estimating (statistics hits/misses, silent
        sampling fallbacks), so the basis of the estimate is visible.
        """
        from repro.stats.feedback import cardinality_report

        words = source.split()
        if not words or words[0] not in (
            "type", "create", "update", "delete", "query", "analyze",
        ):
            source = "query " + source
        statement = self.make_parser().parse_statement(source)
        if not isinstance(statement, QueryStmt):
            raise UpdateError("explain only accepts query statements")
        if analyze:
            result = self.execute(statement, collect=True)
            plan_term = (
                result.translated_term
                if result.translated_term is not None
                else result.term
            )
            assert result.metrics is not None and result.rule_trace is not None
            cost, cost_counters = self._estimate_observed(plan_term)
            cardinality = cardinality_report(
                plan_term, self.database, result.metrics
            )
            return {
                "level": result.level,
                "translated": result.translated,
                "plan": (
                    result.translated_source
                    if result.translated_source is not None
                    else self._concrete(result.term)
                ),
                "fired": result.fired,
                "estimated_cost": cost,
                "cost_counters": cost_counters,
                "result_type": result.type,
                "analyzed": True,
                "rows": (
                    len(result.value) if isinstance(result.value, list) else None
                ),
                "value": result.value,
                "metrics": result.metrics.as_dict(),
                "cardinality": cardinality,
                "max_q_error": max(
                    (r["q_error"] for r in cardinality.values()), default=1.0
                ),
                "rule_trace": result.rule_trace.as_dict(),
                "timings": dict(result.timings),
            }
        tc = self.database.typechecker
        term = tc.check(statement.expr)
        level = self._term_level(term)
        trace = RuleTrace()
        fired: list[str] = []
        plan = term
        if level == "model" and self.optimizer is not None:
            opt = self.optimizer.optimize(term, self.database, trace)
            plan = opt.term
            fired = opt.fired
        cost, cost_counters = self._estimate_observed(plan)
        return {
            "level": level,
            "translated": bool(fired),
            "plan": self._concrete(plan),
            "fired": fired,
            "estimated_cost": cost,
            "cost_counters": cost_counters,
            "result_type": plan.type,
            "analyzed": False,
            "rule_trace": trace.as_dict(),
        }

    def _estimate_observed(self, plan: Term) -> tuple[float, dict[str, int]]:
        """Estimate a plan's cost with collection armed, returning the cost
        and the ``cost.*`` counters the estimate bumped (stats hits/misses,
        sample fallbacks)."""
        from repro.optimizer.cost import estimate

        sink = ExecutionMetrics()
        with observe.collecting(sink):
            cost = estimate(plan, self.database, sample=True)
        counters = {
            k: v for k, v in sink.counters.items() if k.startswith("cost.")
        }
        return cost, counters

    # ------------------------------------------------------------- execution

    def execute(
        self,
        statement: Statement,
        *,
        timings: Optional[dict[str, float]] = None,
        collect: Optional[bool] = None,
    ) -> SystemResult:
        """Process one parsed statement atomically: on any error the
        database (catalog and object values) is rolled back to its
        pre-statement state.

        ``collect`` overrides the session tracing flag for this statement
        (used by ``explain(analyze=True)``).
        """
        if timings is None:
            timings = {}
        if collect is None:
            collect = self._collect
        with statement_transaction(self.database):
            if collect:
                metrics = ExecutionMetrics()
                trace = RuleTrace()
                before = GLOBAL_PAGES.stats.snapshot()
                with observe.collecting(metrics):
                    result = self._execute(statement, timings, trace)
                io = GLOBAL_PAGES.stats.delta(before)
                metrics.io = {
                    "reads": io.reads,
                    "writes": io.writes,
                    "pages_allocated": io.pages_allocated,
                }
                result.metrics = metrics
                result.rule_trace = trace
                if self._feedback and result.kind == "query":
                    from repro.stats.feedback import fold_observed

                    plan = (
                        result.translated_term
                        if result.translated_term is not None
                        else result.term
                    )
                    if plan is not None:
                        fold_observed(plan, self.database, metrics)
            else:
                result = self._execute(statement, timings, None)
        timings["total"] = sum(
            v for k, v in timings.items() if k != "total"
        )
        result.timings = timings
        if collect:
            self.tracer.emit(
                "statement.metrics",
                kind="counter",
                value=timings["total"],
                metrics=result.metrics,
                timings=timings,
            )
        return result

    def _execute(
        self,
        statement: Statement,
        timings: dict[str, float],
        trace: Optional[RuleTrace],
    ) -> SystemResult:
        if isinstance(statement, TypeStmt):
            with self._phase(timings, "execute"):
                t = self.database.define_type(statement.name, statement.type)
            return SystemResult("type", name=statement.name, type=t)
        if isinstance(statement, CreateStmt):
            with self._phase(timings, "execute"):
                obj = self.database.create(statement.name, statement.type)
                if self.optimizer is None or obj.level != "model":
                    self._auto_initialize(statement.name, statement.type)
            return SystemResult(
                "create", level=obj.level, name=statement.name, type=obj.type
            )
        if isinstance(statement, DeleteStmt):
            with self._phase(timings, "execute"):
                self.database.drop(statement.name)
            return SystemResult("delete", name=statement.name)
        if isinstance(statement, UpdateStmt):
            return self._execute_update(statement, timings, trace)
        if isinstance(statement, QueryStmt):
            return self._execute_query(statement, timings, trace)
        if isinstance(statement, AnalyzeStmt):
            from repro.stats.analyze import analyze_objects

            with self._phase(timings, "execute"):
                summary = analyze_objects(self.database, statement.names or None)
            return SystemResult("analyze", value=summary)
        raise TypeError(f"not a statement: {statement!r}")

    def _auto_initialize(self, name: str, declared: Type) -> None:
        """Give a freshly created object its ``empty`` value if the type has
        one (relations, representation structures, catalogs); other objects
        stay undefined until the first update."""
        try:
            term = self.database.typechecker.check_value_term(
                Var("empty"), declared
            )
        except TypeCheckError:
            return
        self.database.set_value(name, self.database.evaluator.eval(term))

    def _term_level(self, term: Term) -> str:
        """'model' if the term uses any model-level operator or object.

        Lambda-bound names shadow objects, so the walk tracks scope — a
        parameter that happens to be called like a relation is not a
        reference to it.
        """
        levels: set[str] = set()
        self._collect_levels(term, frozenset(), levels)
        if "model" in levels:
            return "model"
        if "rep" in levels:
            return "rep"
        return "hybrid"

    def _collect_levels(self, term: Term, bound: frozenset, levels: set) -> None:
        if isinstance(term, Apply):
            if term.resolved is not None and term.resolved.spec is not None:
                levels.add(term.resolved.spec.level)
            for a in term.args:
                self._collect_levels(a, bound, levels)
            return
        if isinstance(term, (Var, ObjRef)):
            if term.name not in bound:
                obj = self.database.objects.get(term.name)
                if obj is not None:
                    levels.add(obj.level)
            return
        if isinstance(term, Fun):
            inner = bound | {name for name, _ in term.params}
            self._collect_levels(term.body, inner, levels)
            return
        if isinstance(term, (ListTerm, TupleTerm)):
            for item in term.items:
                self._collect_levels(item, bound, levels)
            return
        if isinstance(term, Call):
            self._collect_levels(term.fn, bound, levels)
            for a in term.args:
                self._collect_levels(a, bound, levels)

    def _emit_fired(self, fired: list[str]) -> None:
        for name in fired:
            self.tracer.emit("rule.fired", rule=name)

    def _execute_update(
        self,
        statement: UpdateStmt,
        timings: dict[str, float],
        trace: Optional[RuleTrace],
    ) -> SystemResult:
        obj = self.database.objects.get(statement.name)
        if obj is None:
            raise CatalogError(f"no such object: {statement.name}")
        tc = self.database.typechecker
        with self._phase(timings, "typecheck"):
            term = tc.check_value_term(statement.expr, obj.type)
            level = self._term_level(term)
        if self.optimizer is None or (obj.level != "model" and level != "model"):
            # Direct execution: representation/hybrid level, or no optimizer.
            with self._phase(timings, "execute"):
                self._check_update_root(term, statement.name)
                self.database.protect(
                    statement.name, *referenced_objects(term, self.database)
                )
                value = self.database.evaluator.eval(term, allow_update=True)
                if isinstance(value, Stream):
                    value = value.materialize()
                self.database.set_value(statement.name, value)
            return SystemResult(
                "update", level=obj.level, name=statement.name,
                type=obj.type, term=term,
            )
        # Model-level update: translate through the optimizer (which never
        # modifies its input, so the reported statement term stays intact).
        with self._phase(timings, "optimize"):
            opt = self.optimizer.optimize(term, self.database, trace)
            translated = opt.term
            if self._term_level(translated) == "model":
                raise OptimizationError(
                    f"no rule translates the model update on {statement.name}: "
                    f"{format_term(term)}"
                )
        self._emit_fired(opt.fired)
        with self._phase(timings, "execute"):
            target = self._update_target(translated)
            self.database.protect(
                statement.name, target,
                *referenced_objects(translated, self.database),
            )
            value = self.database.evaluator.eval(translated, allow_update=True)
            if isinstance(value, Stream):
                value = value.materialize()
            self.database.set_value(target, value)
        return SystemResult(
            "update",
            level="model",
            name=statement.name,
            type=obj.type,
            term=term,
            translated_term=translated,
            translated_target=target,
            translated_source=self._concrete(translated),
            fired=opt.fired,
        )

    def _check_update_root(self, term: Term, target: str) -> None:
        """An update function's first argument must be the updated object
        (its result is assigned to that argument — condition (ii) of the
        paper's update-function definition)."""
        if (
            not isinstance(term, Apply)
            or term.resolved is None
            or not term.resolved.is_update
            or not term.args
        ):
            return
        first = term.args[0]
        if not isinstance(first, (Var, ObjRef)) or first.name != target:
            raise UpdateError(
                f"update function {term.op} must take the updated object "
                f"{target} as its first argument"
            )

    def _update_target(self, translated: Term) -> str:
        """The representation object a translated update assigns to —
        the first argument of the root update function."""
        if (
            isinstance(translated, Apply)
            and translated.resolved is not None
            and translated.resolved.is_update
            and translated.args
            and isinstance(translated.args[0], (Var, ObjRef))
        ):
            return translated.args[0].name
        raise UpdateError(
            "translated update is not an update function on a representation "
            f"object: {format_term(translated)}"
        )

    def _execute_query(
        self,
        statement: QueryStmt,
        timings: dict[str, float],
        trace: Optional[RuleTrace],
    ) -> SystemResult:
        tc = self.database.typechecker
        with self._phase(timings, "typecheck"):
            term = tc.check(statement.expr)
            level = self._term_level(term)
        translated_term = None
        fired: list[str] = []
        exec_term = term
        if level == "model" and self.optimizer is not None:
            with self._phase(timings, "optimize"):
                opt = self.optimizer.optimize(term, self.database, trace)
                if self._term_level(opt.term) == "model":
                    raise OptimizationError(
                        f"no rule translates the model query: {format_term(term)}"
                    )
            exec_term = opt.term
            translated_term = opt.term
            fired = opt.fired
            self._emit_fired(fired)
        with self._phase(timings, "execute"):
            value = self.database.evaluator.eval(exec_term)
            if isinstance(value, Stream):
                value = value.materialize()
        return SystemResult(
            "query",
            level=level,
            type=exec_term.type,
            value=value,
            term=term,
            translated_term=translated_term,
            translated_source=(
                self._concrete(translated_term) if translated_term is not None else None
            ),
            fired=fired,
        )

    def _concrete(self, term: Term) -> str:
        return format_concrete(term, self.database.sos)
