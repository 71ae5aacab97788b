"""The public entry point: ``repro.api.connect``.

Everything user-facing goes through one call, addressed by DSN::

    from repro.api import connect

    db = connect()                       # in-memory, full relational stack
    db.run("create cities : rel(city)")
    result = db.query("cities select[pop > 100000]")
    print(result.value, result.timings)

    db = connect("file:./mydb")          # durable: WAL + checkpoints
    db.run('update cities := insert(cities, ...)')   # survives a crash
    db.close()

    db = connect("repro://localhost:7464")   # a multi-session server
    with connect("repro://localhost") as db: # default port, auto-close
        db.run_one("update cities := ...")   # same surface, same errors

The DSN forms:

``None`` (default)
    a fresh in-memory database with the rule-based optimizer.
``"file:PATH"``
    a durable database directory — recovered on open, write-ahead logged
    afterwards (``data_dir=PATH`` is sugar for this form).
``"repro://HOST[:PORT][?options]"``
    a session on a running multi-session server
    (``python -m repro serve``) — optimistic concurrency with
    first-committer-wins; a lost race raises
    :class:`~repro.errors.ConflictError`, and retrying the transaction
    succeeds.  Query options opt into client-side fault tolerance:
    ``?retries=3&deadline_ms=5000&backoff_ms=50`` enables transparent
    reconnect + retry with exactly-once commits (every auto-committed
    mutation and every commit carries an idempotency token the server
    journals); ``connect_timeout_ms``
    and ``backoff_cap_ms`` tune the dial timeout and the backoff cap.
    See ``docs/API.md`` and ``docs/ROBUSTNESS.md``.
``"relational"`` / ``"model"``
    legacy model names, still accepted positionally (``model="model"``
    gives a system with no optimizer: Section 2.4 semantics, no optimizing
    translation).

Whatever the DSN, ``connect`` hands back a :class:`Session` —
:class:`LocalSession` in-process, ``NetworkSession`` over a socket — with
one surface: ``run`` / ``run_one`` / ``query`` speak
:class:`~repro.system.sos_system.SystemResult`, ``explain`` / ``lint`` /
``checkpoint`` / ``dump`` round it out, ``close`` is idempotent, and every
session is a context manager.  Network sessions raise the same exception
classes with the same fields as local ones (see ``docs/API.md``).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.errors import CatalogError, LintError
from repro.observe import Event, Tracer
from repro.optimizer import Optimizer
from repro.system.dump import dump_program, restore_program
from repro.system.sos_system import (
    SOSSystem,
    SystemResult,
    build_relational_database,
    build_relational_system,
)

__all__ = ["connect", "Session", "LocalSession"]

_MODELS = ("relational", "model")


def connect(
    dsn: Optional[str] = None,
    *,
    model: Optional[str] = None,
    optimizer: Optional[Optimizer] = None,
    trace: object = None,
    data_dir: Optional[str] = None,
    group_commit: int = 1,
    checkpoint_interval: Optional[int] = None,
    lint: Optional[str] = None,
    precheck: Optional[str] = None,
) -> "Session":
    """Open a session on the database the DSN names (see the module
    docstring for the DSN forms).

    ``model``
        ``"relational"`` (default) — the full stack with the rule-based
        optimizer translating model-level statements to representation
        plans; ``"model"`` — the same system with no optimizer, executing
        model-level statements directly, no translation.  (A bare model
        name is also accepted as the ``dsn``, the historical calling
        convention.)
    ``optimizer``
        a custom :class:`~repro.optimizer.Optimizer` (local relational
        sessions only; the standard rule set otherwise).
    ``trace``
        ``True`` enables metric collection (every result carries
        ``metrics`` and ``rule_trace``); a callable additionally
        subscribes to the session's event bus; a
        :class:`~repro.observe.Tracer` is used as the bus itself.
        ``None``/``False`` leaves observability off (the default).
        On a ``repro://`` session the same forms apply, and a session
        with subscribers also receives the *server's* phase spans,
        replayed into its bus under the session's trace ID (one
        cross-process timeline; see ``docs/OBSERVABILITY.md``).
    ``data_dir``
        sugar for a ``file:`` DSN: a directory for durable state
        (relational model only).  Opening recovers whatever the directory
        holds (checkpoint + committed write-ahead log); afterwards every
        mutating statement is logged ahead of execution and acknowledged
        only once its commit record is on disk.  See ``docs/DURABILITY.md``.
    ``group_commit``
        with a durable DSN: fsync the log every Nth commit instead of
        every commit (records are still flushed per statement, so a
        process crash loses nothing acknowledged; only a machine failure
        can).
    ``checkpoint_interval``
        with a durable DSN: committed statements between automatic
        checkpoints (default
        :data:`repro.durability.DEFAULT_CHECKPOINT_INTERVAL`; 0 disables
        automatic checkpoints — call :meth:`Session.checkpoint`).
    ``lint``
        ``"strict"`` runs the static analyzer (:mod:`repro.lint`) over the
        session's signature and rules right after building and raises
        :class:`~repro.errors.LintError` on error-severity diagnostics;
        ``"warn"`` prints them as :mod:`warnings` instead.  ``None`` (the
        default) skips the analysis; :meth:`Session.lint` runs it on
        demand.  See ``docs/STATIC_ANALYSIS.md``.
    ``precheck``
        statically analyze every program handed to :meth:`Session.run` /
        :meth:`Session.run_one` (the :func:`repro.lint.lint_program`
        pass) *before* it executes: ``"strict"`` raises
        :class:`~repro.errors.LintError` on error-severity findings —
        on a network session the program is rejected before any MVCC
        transaction begins or WAL frame is written; ``"warn"`` surfaces
        findings as :mod:`warnings` and runs the program anyway.
        ``None`` (the default) skips the pass; :meth:`Session.check`
        runs it on demand.  Works on every transport.
    """
    if precheck not in (None, "strict", "warn"):
        raise CatalogError(
            f"precheck must be None, 'strict' or 'warn', not {precheck!r}"
        )
    if dsn is not None and dsn.startswith("repro://"):
        for name, value in (
            ("model", model), ("optimizer", optimizer),
            ("data_dir", data_dir), ("lint", lint),
        ):
            if value is not None:
                raise CatalogError(
                    f"{name}= does not apply to a network session; "
                    "configure the server instead"
                )
        from repro.server.client import NetworkSession

        session = NetworkSession.open(dsn)
        session._precheck = precheck
        if isinstance(trace, Tracer):
            # Adopt the caller's bus, exactly like a local session: its
            # subscribers see client statement spans with the server's
            # phase spans stitched in.
            session._tracer = trace
        elif callable(trace):
            session.subscribe(trace)
        if trace:
            session.set_tracing(True)
        return session

    if dsn is not None:
        if dsn.startswith("file:"):
            path = dsn[len("file:"):]
            if not path:
                raise CatalogError("file: DSN needs a path, e.g. file:./mydb")
            if data_dir is not None and data_dir != path:
                raise CatalogError(
                    f"conflicting locations: dsn {dsn!r} vs data_dir={data_dir!r}"
                )
            data_dir = path
        elif dsn in _MODELS:
            if model is not None and model != dsn:
                raise CatalogError(
                    f"conflicting models: dsn {dsn!r} vs model={model!r}"
                )
            model = dsn
        else:
            raise CatalogError(
                f"unknown data model: {dsn!r}"
                " (expected file:PATH, repro://host:port,"
                " 'relational' or 'model')"
            )
    if model is None:
        model = "relational"
    if model not in _MODELS:
        raise CatalogError(f"unknown data model: {model!r}")
    if lint not in (None, "strict", "warn"):
        raise CatalogError(
            f"lint must be None, 'strict' or 'warn', not {lint!r}"
        )
    tracer = trace if isinstance(trace, Tracer) else None
    if model == "model":
        if optimizer is not None:
            raise CatalogError("the model-level system takes no optimizer")
        if data_dir is not None:
            raise CatalogError(
                "durable mode needs the relational system; "
                "the model-level system has no data_dir support"
            )
        system = SOSSystem(build_relational_database(), tracer=tracer)
    else:
        system = build_relational_system(optimizer, tracer=tracer)
    session = LocalSession(system)
    session._precheck = precheck
    if callable(trace) and not isinstance(trace, Tracer):
        session.tracer.subscribe(trace)
    if trace:
        session.set_tracing(True)
    if data_dir is not None:
        from repro.durability import DEFAULT_CHECKPOINT_INTERVAL, DurabilityManager

        manager = DurabilityManager(
            data_dir,
            group_commit=group_commit,
            checkpoint_interval=(
                DEFAULT_CHECKPOINT_INTERVAL
                if checkpoint_interval is None
                else checkpoint_interval
            ),
            tracer=session.tracer,
        )
        manager.attach(session.system)
    if lint is not None:
        report = session.lint()
        if lint == "strict" and not report.ok:
            raise LintError(
                "static analysis found "
                f"{len(report.errors)} error(s):\n{report.render_text()}",
                report,
            )
        if lint == "warn" and len(report):
            import warnings

            for diagnostic in report.sorted():
                warnings.warn(diagnostic.render(), stacklevel=2)
    return session


def enforce_precheck(mode: Optional[str], report, source: str) -> None:
    """Apply a session's ``precheck`` policy to a program's
    :class:`~repro.lint.LintReport` (shared by both transports).

    ``"strict"`` raises :class:`~repro.errors.LintError` when the report
    has error-severity findings; ``"warn"`` emits one :mod:`warnings`
    entry per error/warning finding (info stays silent) and lets the
    program run.
    """
    if mode is None or not len(report):
        return
    if mode == "strict" and not report.ok:
        raise LintError(
            f"precheck rejected the program ({len(report.errors)} "
            f"error(s)):\n{report.render_text()}",
            report,
        )
    if mode == "warn":
        import warnings

        for diagnostic in report.sorted():
            if diagnostic.severity != "info":
                warnings.warn(diagnostic.render(), stacklevel=3)


class Session:
    """The connection protocol every ``connect`` variant returns.

    ``run`` / ``run_one`` / ``query`` all return
    :class:`~repro.system.sos_system.SystemResult` (``run`` a list of
    them) whatever sits behind the session — the in-process system (with
    or without an optimizer) or a socket to a multi-session server.
    ``explain`` / ``lint`` / ``checkpoint`` / ``dump`` round out the shared
    surface; ``close`` is idempotent, and a closed session still answers
    queries while mutations raise :class:`~repro.errors.CatalogError`.
    Sessions are context managers (``with connect(...) as db:``).
    """

    __slots__ = ()

    # -- shared conveniences -------------------------------------------------

    def query(self, source: str) -> SystemResult:
        """Run one query expression; the answer is ``result.value``."""
        return self.run_one("query " + source)

    def analyze(self, *names: str) -> SystemResult:
        """Gather statistics for ``names`` (all scannable objects when
        empty); shorthand for running an ``analyze`` statement."""
        statement = "analyze " + ", ".join(names) if names else "analyze"
        return self.run_one(statement)

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- the protocol each variant implements --------------------------------

    def run(self, source: str, atomic: bool = False) -> list[SystemResult]:
        raise NotImplementedError

    def run_one(self, source: str) -> SystemResult:
        raise NotImplementedError

    def explain(self, source: str, *, analyze: bool = False) -> dict:
        raise NotImplementedError

    def lint(self):
        raise NotImplementedError

    def check(self, source: str, *, atomic: bool = False):
        raise NotImplementedError

    def checkpoint(self) -> int:
        raise NotImplementedError

    def dump(self) -> str:
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError

    @property
    def closed(self) -> bool:
        raise NotImplementedError


class LocalSession(Session):
    """A session over an in-process database (the historical ``Session``).

    The underlying machinery stays reachable via ``session.system``,
    ``session.database`` and ``session.tracer``; ``restore`` / ``stats`` /
    ``subscribe`` / ``set_feedback`` are local-only extras.
    """

    __slots__ = ("_system", "_closed", "_precheck")

    def __init__(self, system: SOSSystem):
        self._system = system
        self._closed = False
        self._precheck: Optional[str] = None

    # ----------------------------------------------------------- properties

    @property
    def system(self) -> SOSSystem:
        """The underlying :class:`SOSSystem` (``optimizer`` is ``None`` for a
        model-level session)."""
        return self._system

    @property
    def database(self):
        return self._system.database

    @property
    def tracer(self) -> Tracer:
        """The session's event bus; subscribe callables to receive
        :class:`~repro.observe.Event` objects."""
        return self._system.tracer

    @property
    def durability(self):
        """The attached :class:`~repro.durability.DurabilityManager`, or
        ``None`` for an in-memory session."""
        return self._system.durability

    @property
    def durable(self) -> bool:
        return self.durability is not None

    # ------------------------------------------------------------ durability

    def checkpoint(self) -> int:
        """Snapshot the database and truncate the write-ahead log; returns
        the new checkpoint epoch (durable sessions only)."""
        manager = self.durability
        if manager is None:
            raise CatalogError("session has no data_dir; nothing to checkpoint")
        return manager.checkpoint()

    def flush(self) -> None:
        """Fsync any commit records the group-commit policy left pending
        (no-op for in-memory sessions)."""
        manager = self.durability
        if manager is not None:
            manager.flush()

    def close(self) -> None:
        """Close the session (idempotent).  Durable state is flushed and
        its log closed.  A closed session still answers queries, but
        mutating statements raise :class:`~repro.errors.CatalogError` — a
        mutation after close would silently break the durability contract
        (and, in-memory, could never be observed again anyway).
        """
        if self._closed:
            return
        self._closed = True
        manager = self.durability
        if manager is not None:
            manager.close()

    @property
    def closed(self) -> bool:
        return self._closed

    def _check_mutable(self, source: str) -> None:
        """The closed-session contract for in-memory sessions; durable
        sessions enforce the same thing in the system front end."""
        if not self._closed or self.durable:
            return
        first = source.lstrip().split(None, 1)
        if first and first[0] != "query":
            raise CatalogError(
                "session is closed; reopen with connect() to mutate it"
            )

    # -------------------------------------------------------- observability

    def set_tracing(self, enabled: bool = True) -> None:
        """Toggle per-statement metric collection for this session."""
        self._system.set_tracing(enabled)

    @property
    def tracing(self) -> bool:
        return self._system.tracing

    def subscribe(self, fn: Callable[[Event], None]) -> Callable[[Event], None]:
        """Shorthand for ``session.tracer.subscribe(fn)``."""
        return self.tracer.subscribe(fn)

    def set_feedback(self, enabled: bool = True) -> None:
        """Toggle cardinality feedback (requires tracing to also be on —
        see :meth:`SOSSystem.set_feedback`)."""
        self._system.set_feedback(enabled)

    # ------------------------------------------------------------------ lint

    def lint(self) -> "LintReport":
        """Run the static analyzer over this session's signature — and,
        when the session has an optimizer, its rules against it.
        Returns the :class:`~repro.lint.LintReport`; raises nothing."""
        from repro.lint import lint_database

        return lint_database(
            self.database, self._system.optimizer, source=repr(self)
        )

    def check(self, source: str, *, atomic: bool = False):
        """Statically analyze a whole program against this session's
        signature and catalog without executing it — the
        :func:`repro.lint.lint_program` pass (``PRG...`` codes).
        Returns the :class:`~repro.lint.LintReport`; raises nothing."""
        from repro.lint import lint_program

        return lint_program(self.database, source, atomic=atomic)

    # ------------------------------------------------------------ statistics

    def stats(self, name: str) -> dict:
        """The statistics entries related to ``name`` (its own, or its
        registered representations'), as plain dictionaries."""
        from repro.stats.analyze import related_stats

        return {
            entry.name: entry.as_dict()
            for entry in related_stats(self.database, name)
        }

    # ------------------------------------------------------------ execution

    def run(self, source: str, atomic: bool = False) -> list[SystemResult]:
        """Process a program; one :class:`SystemResult` per statement."""
        if self._precheck is not None:
            enforce_precheck(
                self._precheck, self.check(source, atomic=atomic), source
            )
        if self._closed and not self.durable:
            from repro.lang.parser import split_statements

            for chunk in split_statements(source):
                self._check_mutable(chunk)
        return self._system.run(source, atomic=atomic)

    def run_one(self, source: str) -> SystemResult:
        """Process exactly one statement."""
        if self._precheck is not None:
            enforce_precheck(self._precheck, self.check(source), source)
        self._check_mutable(source)
        return self._system.run_one(source)

    def explain(self, source: str, *, analyze: bool = False) -> dict:
        """The plan report for a query; see :meth:`SOSSystem.explain`."""
        return self._system.explain(source, analyze=analyze)

    # ---------------------------------------------------------- persistence

    def dump(self) -> str:
        """The database as a re-runnable program text."""
        return dump_program(self.database)

    def restore(self, text: str) -> None:
        """Replay a dumped program into this session."""
        restore_program(self._system, text)

    def __repr__(self) -> str:
        kind = "model" if self._system.optimizer is None else "relational"
        return f"<Session model={kind} objects={len(self.database.objects)}>"
