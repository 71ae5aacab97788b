"""Multi-version concurrency over one shared database.

One :class:`MVCCEngine` owns a single (optionally durable)
:class:`~repro.system.sos_system.SOSSystem` and multiplexes any number of
:class:`EngineSession` handles over it — the in-process core the socket
server (:mod:`repro.server.net`) exposes to the network.  The design
follows the PR-1 transaction machinery and the PR-3 statistics catalog:

**One transaction mechanism.**  An :class:`MVCCTransaction` is a
:class:`~repro.system.transactions.Transaction`: it begins with a
:class:`~repro.system.transactions.Savepoint` of the catalog dictionaries
(``aliases``, ``objects``, the statistics entries) — pointer copies.
Readers then see the committed :class:`DatabaseObject` instances of their
snapshot no matter what later writers do.

**Writes are copy-on-write.**  Each statement runs as a savepoint of the
transaction, exactly as a statement of ``run(source, atomic=True)`` does.
Before an update statement evaluates,
:meth:`~repro.system.transactions.Transaction.protect` gives every object
it will touch a *private* clone (``clone_value``: O(1) for a B-tree, which
shares its nodes with the committed value and copies a node only when the
writer first changes it; a structural copy for the LSD-tree and TID
relation) in the workspace.  In-place update functions therefore change
only the clone; the committed value other sessions read is never touched.
The write set falls out for free: any name whose workspace entry is no
longer the snapshot's instance.

**First committer wins.**  The engine keeps a version number per committed
name.  At commit, any write-set name whose committed version is newer than
the transaction's snapshot raises :class:`~repro.errors.ConflictError`;
the loser's workspace is discarded and the client simply retries.

**Durability is transaction-granular.**  Statement texts are buffered in
the transaction and reach the write-ahead log only at commit — begin/stmt
records, then commit records — so an aborted or conflicted transaction
leaves *zero* bytes in the log and a client dying mid-transaction leaves
no WAL residue.  The in-memory publish happens before the log write: a
crash between the two loses an unacknowledged transaction (allowed), and
an auto-checkpoint triggered by the commit records dumps a state that
already includes them (required).  Group commit *across* sessions is the
server's job: the engine appends commit records under the manager's
group-commit policy and only fsyncs eagerly when ``sync=True``.

Statement execution itself is serialized (``threading.RLock``): the engine
installs the transaction's parked workspace into the shared database's
catalog dictionaries *by content* (the parser and typechecker hold live
references to the dict instances), runs the statement through the unchanged
Section 6 pipeline, parks the workspace again and restores the committed
state.  Concurrency is between transactions, never within a statement —
the semantics every paper example was verified under.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from typing import Callable, Optional

from repro import observe
from repro.core.algebra import ResourceLimits
from repro.errors import CatalogError, ConflictError, SOSError, StatementError, wrap_statement_error
from repro.lang.parser import split_statements
from repro.observe import Event, Tracer
from repro.system.sos_system import SystemResult, build_relational_system
from repro.system.transactions import Savepoint, Transaction
from repro.testing.faults import fault_point


class MVCCTransaction(Transaction):
    """A :class:`~repro.system.transactions.Transaction` over a snapshot of
    the committed store, plus what MVCC adds: the commit version it started
    from, the statements it buffers for the WAL, and its *workspace* — the
    catalog state its statements have reached, parked as a
    :class:`~repro.system.transactions.Savepoint` while other transactions
    run.  The write set is ``snapshot.changes(workspace)``.  Discarding it
    restores nothing: the committed store never held its writes.
    """

    def __init__(self, database, start_version: int):
        super().__init__(database)
        self.start_version = start_version
        self.statements: list[str] = []
        self.workspace = self.snapshot


class CommitJournal:
    """A bounded journal of commit outcomes, keyed by idempotency token.

    The network client stamps every transaction (and every auto-committed
    statement) with a token; the engine records the commit's outcome here
    — ``committed`` or ``conflict`` — and the socket server attaches the
    encoded response frame of the committing request.  A *retried* request
    carrying a token the journal already knows therefore returns the
    original outcome instead of double-applying or spuriously conflicting:
    exactly-once commits across ack-lost disconnects.

    The ``committed`` outcomes are additionally persisted in the WAL
    commit records, so the journal survives a server restart (response
    frames do not — a post-recovery retry gets a synthesized journal-hit
    frame, still exactly-once).  The journal is bounded: the oldest
    entries are evicted past ``limit``, which is why tokens are ephemeral
    (a retry window, not an audit log).

    A token's *first* attempt claims it with a ``pending`` entry
    (:meth:`begin_attempt`), so a retry racing the still-executing
    original — a dropped connection retries faster than a slow statement
    commits — blocks on the pending event instead of executing a second
    time.  An attempt that fails before any commit outcome exists
    (statement error, closed session) must :meth:`abandon` its claim so a
    later retry can execute for real.
    """

    __slots__ = ("_lock", "_entries", "limit", "hits")

    def __init__(self, limit: int = 1024):
        self._lock = threading.Lock()
        self._entries: OrderedDict[str, dict] = OrderedDict()
        self.limit = limit
        self.hits = 0

    def record(
        self,
        token: Optional[str],
        outcome: str,
        *,
        names: tuple[str, ...] = (),
    ) -> None:
        """Record the outcome of the commit identified by ``token``
        (no-op without a token).  Resolves a pending claim, waking any
        retries blocked on it."""
        if token is None:
            return
        with self._lock:
            previous = self._entries.get(token)
            event = previous.get("event") if previous is not None else None
            self._entries[token] = {
                "outcome": outcome,
                "names": tuple(names),
                "response": None,
            }
            self._entries.move_to_end(token)
            while len(self._entries) > self.limit:
                self._entries.popitem(last=False)
        if event is not None:
            event.set()

    def begin_attempt(self, token: Optional[str]) -> tuple[str, Optional[dict]]:
        """Claim ``token`` for execution, atomically.

        Returns one of:

        - ``("new", None)`` — unknown token, now claimed ``pending``;
          the caller executes and must end with :meth:`record` (via the
          commit path) or :meth:`abandon`;
        - ``("pending", event)`` — another attempt is mid-flight; wait on
          the :class:`threading.Event` and call again;
        - ``("done", entry)`` — the outcome is already recorded (counted
          as a journal hit); replay it.
        """
        if token is None:
            return "new", None
        with self._lock:
            entry = self._entries.get(token)
            if entry is None:
                self._entries[token] = {
                    "outcome": "pending",
                    "names": (),
                    "response": None,
                    "event": threading.Event(),
                }
                while len(self._entries) > self.limit:
                    self._entries.popitem(last=False)
                return "new", None
            if entry["outcome"] == "pending":
                return "pending", entry["event"]
            self.hits += 1
            found = {k: v for k, v in entry.items() if k != "event"}
        if observe.COUNTING:
            observe.count("mvcc.journal_hits")
        return "done", found

    def abandon(self, token: Optional[str]) -> None:
        """Release a pending claim whose attempt failed before reaching a
        commit outcome (no-op once an outcome is recorded)."""
        if token is None:
            return
        event = None
        with self._lock:
            entry = self._entries.get(token)
            if entry is not None and entry["outcome"] == "pending":
                del self._entries[token]
                event = entry.get("event")
        if event is not None:
            event.set()

    def attach_response(self, token: Optional[str], response) -> None:
        """Remember the encoded response frame the committing request
        produced, so a retry can return it verbatim."""
        if token is None:
            return
        with self._lock:
            entry = self._entries.get(token)
            if entry is not None:
                entry["response"] = response

    def get(self, token: Optional[str]) -> Optional[dict]:
        """The recorded entry for ``token`` (bumps the hit counter), or
        ``None`` — the retried-request check.  Pending claims read as
        misses; use :meth:`begin_attempt` to coordinate with them."""
        if token is None:
            return None
        with self._lock:
            entry = self._entries.get(token)
            if entry is None or entry["outcome"] == "pending":
                return None
            self.hits += 1
            found = {k: v for k, v in entry.items() if k != "event"}
        if observe.COUNTING:
            observe.count("mvcc.journal_hits")
        return found

    def outcome(self, token: Optional[str]) -> Optional[str]:
        """The recorded outcome for ``token`` without counting a hit
        (the ``txn_status`` probe).  A pending attempt reads as unknown —
        by the time the client can ask, its connection's attempt has
        already died, and the rolled-back claim will be abandoned."""
        if token is None:
            return None
        with self._lock:
            entry = self._entries.get(token)
            if entry is None or entry["outcome"] == "pending":
                return None
            return entry["outcome"]

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


class MVCCEngine:
    """The shared database plus the version bookkeeping of the store.

    ``data_dir`` makes the store durable (recovery on open, WAL at commit);
    ``group_commit`` is handed to the
    :class:`~repro.durability.DurabilityManager` so commit records batch
    their fsyncs — the socket server turns that into cross-client group
    commit by committing with ``sync=False`` and flushing once per batch.
    """

    def __init__(
        self,
        *,
        data_dir: Optional[str] = None,
        group_commit: int = 1,
        checkpoint_interval: Optional[int] = None,
        optimizer=None,
        tracer: Optional[Tracer] = None,
        statement_timeout_ms: Optional[float] = None,
        journal_limit: int = 1024,
    ):
        self.system = build_relational_system(optimizer, tracer=tracer)
        self.database = self.system.database
        self.tracer = self.system.tracer
        self.durability = None
        if data_dir is not None:
            from repro.durability import (
                DEFAULT_CHECKPOINT_INTERVAL,
                DurabilityManager,
            )

            self.durability = DurabilityManager(
                data_dir,
                group_commit=group_commit,
                checkpoint_interval=(
                    DEFAULT_CHECKPOINT_INTERVAL
                    if checkpoint_interval is None
                    else checkpoint_interval
                ),
                tracer=self.tracer,
            )
            self.durability.attach(self.system)
        self.statement_timeout_ms = statement_timeout_ms
        self.journal = CommitJournal(journal_limit)
        if self.durability is not None:
            # Recovery read the WAL; re-arm the journal with the tokens of
            # every committed transaction so retried commits that straddle
            # a server restart still observe their original outcome.
            for token in self.durability.recovered_tokens:
                self.journal.record(token, "committed")
        self.commit_version = 0
        self.versions: dict[str, int] = {}
        self.alias_versions: dict[str, int] = {}
        self.metrics: dict[str, int] = {
            "mvcc.snapshots": 0,
            "mvcc.commits": 0,
            "mvcc.conflicts": 0,
            "mvcc.rollbacks": 0,
            "mvcc.privatizations": 0,
        }
        self.open_transactions = 0
        self._lock = threading.RLock()
        self._sessions = 0
        self.closed = False

    # ------------------------------------------------------------- sessions

    def session(self) -> "EngineSession":
        """A new session handle over this engine (auto-commit by default)."""
        with self._lock:
            self._sessions += 1
            return EngineSession(self, self._sessions)

    @property
    def durable(self) -> bool:
        return self.durability is not None

    # ---------------------------------------------------------- transactions

    def begin(self) -> MVCCTransaction:
        with self._lock:
            txn = MVCCTransaction(self.database, self.commit_version)
            self._bump("mvcc.snapshots")
            self.open_transactions += 1
            if observe.COUNTING:
                observe.gauge("mvcc.open_transactions", self.open_transactions)
            return txn

    def _bump(self, name: str, amount: int = 1) -> None:
        # lint: disable=ENG001 -- audited: every caller already holds
        # self._lock (begin/commit/rollback critical sections).
        self.metrics[name] = self.metrics.get(name, 0) + amount
        if observe.COUNTING:
            observe.count(name, amount)
        self.tracer.emit(name, kind="counter", value=self.metrics[name])

    def _transaction_closed(self, txn: MVCCTransaction) -> None:
        """``txn`` left the ``active`` state (commit, conflict, or
        rollback) — maintain the open-transaction gauge and count the
        snapshot objects it privatized."""
        # lint: disable=ENG001 -- audited: only called from commit/rollback
        # paths that hold self._lock.
        self.open_transactions -= 1
        if observe.COUNTING:
            observe.gauge("mvcc.open_transactions", self.open_transactions)
        if txn.privatizations:
            self._bump("mvcc.privatizations", txn.privatizations)

    @contextmanager
    def _recording(self, recorder: Optional[Callable[[Event], None]]):
        """Subscribe ``recorder`` to the engine tracer for the duration of
        a lock-held scope.  The lock serializes execution, so the recorder
        sees exactly one request's events."""
        if recorder is None:
            yield
            return
        self.tracer.subscribe(recorder)
        try:
            yield
        finally:
            self.tracer.unsubscribe(recorder)

    # ------------------------------------------------------------- execution

    def run_in(
        self,
        txn: MVCCTransaction,
        source: str,
        *,
        collect: bool = False,
        recorder: Optional[Callable[[Event], None]] = None,
    ) -> SystemResult:
        """Execute one statement inside ``txn``'s workspace.

        The statement-level atomicity machinery applies unchanged — a
        failure rolls the workspace back to the statement boundary and the
        transaction stays usable.  ``recorder`` (an
        :class:`~repro.observe.SpanRecorder`) captures this statement's
        phase spans for cross-wire trace stitching.
        """
        with self._lock:
            self._require_open()
            if not txn.active:
                raise CatalogError(f"transaction is {txn.state}")
            chunk = source.strip()
            with self._workspace(txn), self._recording(recorder):
                result = self._run_plain(chunk, collect=collect)
            if result.kind != "query":
                txn.statements.append(chunk)
            return result

    def explain_in(
        self, txn: MVCCTransaction, source: str, *, analyze: bool = False
    ) -> dict:
        with self._lock:
            self._require_open()
            with self._workspace(txn):
                saved = self.system.durability
                self.system.durability = None
                try:
                    return self.system.explain(source, analyze=analyze)
                finally:
                    self.system.durability = saved

    def _run_plain(self, chunk: str, *, collect: bool) -> SystemResult:
        """One statement through the ordinary pipeline, with per-statement
        WAL logging disabled (the engine logs at transaction commit) and —
        when ``statement_timeout_ms`` is armed — a per-statement
        evaluation deadline that cancels runaway statements with
        :class:`~repro.errors.StatementTimeoutError`."""
        system = self.system
        saved_dur = system.durability
        saved_collect = system.tracing
        evaluator = self.database.evaluator
        saved_limits = evaluator.limits
        system.durability = None
        if collect != saved_collect:
            system.set_tracing(collect)
        if self.statement_timeout_ms is not None:
            base = saved_limits if saved_limits is not None else ResourceLimits()
            evaluator.limits = ResourceLimits(
                base.max_steps,
                base.max_depth,
                deadline=time.monotonic() + self.statement_timeout_ms / 1000.0,
            )
        try:
            return system.run_one(chunk)
        finally:
            system.durability = saved_dur
            evaluator.limits = saved_limits
            if collect != saved_collect:
                system.set_tracing(saved_collect)

    # ------------------------------------------------------------- workspace

    @contextmanager
    def _workspace(self, txn: MVCCTransaction):
        """Install ``txn``'s workspace into the shared database as the
        active transaction, then park it again and restore the committed
        state.  The caller holds the lock."""
        db = self.database
        committed = Savepoint(db)
        txn.workspace.restore(db)
        db.transaction = txn
        try:
            yield
        finally:
            db.transaction = None
            txn.workspace = Savepoint(db)
            committed.restore(db)

    # ---------------------------------------------------------------- commit

    def commit(
        self,
        txn: MVCCTransaction,
        *,
        sync: bool = True,
        recorder: Optional[Callable[[Event], None]] = None,
        token: Optional[str] = None,
    ) -> None:
        """First-committer-wins check, publish, write-ahead log.

        With ``sync=False`` the commit records are appended (and flushed to
        the OS) but not fsynced — the caller must
        :meth:`sync_wal` before acknowledging the client; the socket server
        batches that fsync across sessions.

        ``token`` is the transaction's idempotency token: the outcome
        (committed or conflicted) is recorded in the commit-outcome
        :class:`CommitJournal` under it, and committed outcomes ride the
        last WAL commit record so the journal survives recovery.
        """
        with self._lock:
            self._require_open()
            if not txn.active:
                raise CatalogError(f"cannot commit a {txn.state} transaction")
            start = time.perf_counter()
            obj_writes, obj_drops, alias_writes, alias_drops = (
                txn.snapshot.changes(txn.workspace)
            )
            conflicts = sorted(
                {
                    name
                    for name in (*obj_writes, *obj_drops)
                    if self.versions.get(name, 0) > txn.start_version
                }
                | {
                    name
                    for name in (*alias_writes, *alias_drops)
                    if self.alias_versions.get(name, 0) > txn.start_version
                }
            )
            if conflicts:
                txn.state = "aborted"
                self._transaction_closed(txn)
                self._bump("mvcc.conflicts")
                self.journal.record(token, "conflict", names=tuple(conflicts))
                raise ConflictError(
                    "transaction lost the first-committer-wins race on "
                    + ", ".join(conflicts)
                    + "; retry on a fresh transaction",
                    names=tuple(conflicts),
                )
            with self._recording(recorder):
                fault_point("mvcc.commit")
                if obj_writes or obj_drops or alias_writes or alias_drops:
                    self._publish(
                        txn, obj_writes, obj_drops, alias_writes, alias_drops
                    )
                fault_point("mvcc.publish")
                dur = self.durability
                if dur is not None and txn.statements:
                    seqs = [dur.log_statement(text) for text in txn.statements]
                    for seq in seqs:
                        dur.commit(seq, token=token if seq == seqs[-1] else None)
                    if sync:
                        # lint: disable=ENG002 -- audited: a synchronous
                        # commit must fsync inside the critical section so
                        # the durable order matches the commit order.
                        dur.flush()
                txn.commit()
                self._transaction_closed(txn)
                self._bump("mvcc.commits")
                self.journal.record(token, "committed")
            if observe.COUNTING:
                observe.sample(
                    "mvcc.commit_seconds", time.perf_counter() - start
                )

    def _publish(
        self, txn, obj_writes, obj_drops, alias_writes, alias_drops
    ) -> None:
        db = self.database
        # Audited ENG001 sites: _publish is called from exactly one place,
        # inside commit()'s `with self._lock` critical section.
        self.commit_version += 1  # lint: disable=ENG001 -- lock held by commit()
        version = self.commit_version
        for name, obj in obj_writes.items():
            db.objects[name] = obj
            self.versions[name] = version  # lint: disable=ENG001 -- lock held by commit()
        for name in obj_drops:
            db.objects.pop(name, None)
            self.versions[name] = version  # lint: disable=ENG001 -- lock held by commit()
        for name, t in alias_writes.items():
            db.aliases[name] = t
            self.alias_versions[name] = version  # lint: disable=ENG001 -- lock held by commit()
        for name in alias_drops:
            db.aliases.pop(name, None)
            self.alias_versions[name] = version  # lint: disable=ENG001 -- lock held by commit()
        # Statistics entries are immutable copy-on-write values; publish the
        # changed ones without conflict checks (metadata: last writer wins).
        before, after = txn.snapshot.stats, txn.workspace.stats
        for name, entry in after.items():
            if before.get(name) is not entry:
                db.stats.entries[name] = entry
        for name in before.keys() - after.keys():
            db.stats.entries.pop(name, None)

    def rollback(self, txn: MVCCTransaction) -> None:
        """Discard the workspace; the committed store was never touched."""
        with self._lock:
            if txn.active:
                txn.state = "rolled-back"
                self._transaction_closed(txn)
                self._bump("mvcc.rollbacks")

    def sync_wal(self) -> None:
        """Fsync any commit records still pending under group commit."""
        with self._lock:
            if self.durability is not None:
                # lint: disable=ENG002 -- audited: group-commit drain is
                # the one fsync that must serialize with commits; the
                # batcher amortizes it across sessions.
                self.durability.flush()

    # ------------------------------------------------------------ store-wide

    def checkpoint(self) -> int:
        with self._lock:
            self._require_open()
            if self.durability is None:
                raise CatalogError(
                    "engine has no data_dir; nothing to checkpoint"
                )
            return self.durability.checkpoint()

    def lint(self):
        from repro.lint import lint_database

        with self._lock:
            return lint_database(
                self.database, self.system.optimizer, source=repr(self)
            )

    def check(self, source: str, atomic: bool = False):
        """Statically analyze a program against the committed catalog
        (:func:`repro.lint.lint_program`) — no transaction is opened, no
        WAL frame is written; the lock only pins a consistent catalog."""
        from repro.lint import lint_program

        with self._lock:
            self._require_open()
            return lint_program(self.database, source, atomic=atomic)

    def dump(self) -> str:
        from repro.system.dump import dump_program

        with self._lock:
            return dump_program(self.database)

    def close(self) -> None:
        """Flush and close the WAL; the engine refuses further statements."""
        with self._lock:
            if self.closed:
                return
            self.closed = True
            if self.durability is not None:
                self.durability.close()

    def _require_open(self) -> None:
        if self.closed:
            raise CatalogError("engine is closed")

    def __repr__(self) -> str:
        where = (
            self.durability.data_dir if self.durability is not None else "mem"
        )
        return (
            f"<MVCCEngine {where} v{self.commit_version} "
            f"sessions={self._sessions}>"
        )


class EngineSession:
    """One client's view of the engine: auto-commit statements, explicit
    ``begin``/``commit``/``rollback``, and the closed-session contract
    (queries keep working, mutations raise) shared with durable local
    sessions."""

    __slots__ = ("engine", "session_id", "counters", "tracing", "_txn", "_closed")

    def __init__(self, engine: MVCCEngine, session_id: int):
        self.engine = engine
        self.session_id = session_id
        self.counters: dict[str, int] = {
            "statements": 0,
            "queries": 0,
            "conflicts": 0,
            "commits": 0,
        }
        self.tracing = False
        self._txn: Optional[MVCCTransaction] = None
        self._closed = False

    # ---------------------------------------------------------- transactions

    @property
    def in_transaction(self) -> bool:
        return self._txn is not None

    def begin(self) -> None:
        self._require_mutable("begin a transaction on")
        if self._txn is not None:
            raise CatalogError("a transaction is already open on this session")
        self._txn = self.engine.begin()

    def commit(self, *, sync: bool = True, recorder=None, token=None) -> None:
        if self._txn is None:
            raise CatalogError("no transaction is open on this session")
        txn, self._txn = self._txn, None
        try:
            self.engine.commit(txn, sync=sync, recorder=recorder, token=token)
        except ConflictError:
            self.counters["conflicts"] += 1
            raise
        self.counters["commits"] += 1

    def rollback(self) -> None:
        if self._txn is None:
            raise CatalogError("no transaction is open on this session")
        txn, self._txn = self._txn, None
        self.engine.rollback(txn)

    def abort_open_transaction(self) -> None:
        """Roll back a dangling transaction (client disconnect path)."""
        if self._txn is not None:
            txn, self._txn = self._txn, None
            self.engine.rollback(txn)

    # ------------------------------------------------------------- execution

    def run_one(
        self, source: str, *, sync: bool = True, recorder=None, token=None
    ) -> SystemResult:
        statement_is_query = source.lstrip().startswith("query")
        if not statement_is_query:
            self._require_mutable("mutate")
        elif self._closed:
            # Closed sessions still answer queries against the committed
            # state — the durable local-session contract.
            return self._read_only_query(source, recorder=recorder)
        self.counters["statements"] += 1
        if statement_is_query:
            self.counters["queries"] += 1
        if self._txn is not None:
            try:
                return self.engine.run_in(
                    self._txn, source, collect=self.tracing, recorder=recorder
                )
            except ConflictError:
                self.counters["conflicts"] += 1
                raise
        txn = self.engine.begin()
        try:
            result = self.engine.run_in(
                txn, source, collect=self.tracing, recorder=recorder
            )
        except BaseException:
            self.engine.rollback(txn)
            raise
        try:
            self.engine.commit(txn, sync=sync, recorder=recorder, token=token)
        except ConflictError:
            self.counters["conflicts"] += 1
            raise
        self.counters["commits"] += 1
        return result

    def _read_only_query(self, source: str, *, recorder=None) -> SystemResult:
        txn = self.engine.begin()
        try:
            return self.engine.run_in(
                txn, source, collect=self.tracing, recorder=recorder
            )
        finally:
            self.engine.rollback(txn)

    def run(
        self,
        source: str,
        atomic: bool = False,
        *,
        sync: bool = True,
        recorder=None,
        token=None,
    ) -> list[SystemResult]:
        chunks = split_statements(source)
        if atomic:
            if self._txn is not None:
                raise CatalogError(
                    "atomic programs cannot nest inside an open transaction"
                )
            self._require_mutable("run an atomic program on")
            self.begin()
            try:
                results = [
                    self._run_indexed(chunk, index, recorder=recorder)
                    for index, chunk in enumerate(chunks)
                ]
            except BaseException:
                self.rollback()
                raise
            self.commit(sync=sync, token=token)
            return results
        return [
            self._run_indexed(chunk, index, sync=sync, recorder=recorder)
            for index, chunk in enumerate(chunks)
        ]

    def _run_indexed(
        self, chunk: str, index: int, *, sync: bool = True, recorder=None
    ) -> SystemResult:
        """Run one program chunk, stamping the program-level statement
        index onto any error (``run_one`` wraps with ``index=None``)."""
        try:
            return self.run_one(chunk, sync=sync, recorder=recorder)
        except StatementError as exc:
            if exc.index is None:
                exc.index = index
            if exc.source is None:
                exc.source = chunk
            raise
        except SOSError as exc:
            raise wrap_statement_error(exc, index=index, source=chunk) from exc

    def query(self, source: str, *, sync: bool = True) -> SystemResult:
        return self.run_one("query " + source, sync=sync)

    def explain(self, source: str, *, analyze: bool = False) -> dict:
        if self._txn is not None:
            return self.engine.explain_in(self._txn, source, analyze=analyze)
        txn = self.engine.begin()
        try:
            return self.engine.explain_in(txn, source, analyze=analyze)
        finally:
            self.engine.rollback(txn)

    # -------------------------------------------------------------- lifecycle

    def close(self) -> None:
        """Idempotent: roll back any open transaction and flush the WAL.
        The session stays usable for queries; mutations raise."""
        if self._closed:
            return
        self.abort_open_transaction()
        self.engine.sync_wal()
        self._closed = True

    @property
    def closed(self) -> bool:
        return self._closed

    def _require_mutable(self, what: str) -> None:
        if self._closed:
            raise CatalogError(
                f"session is closed; cannot {what} it (queries still work)"
            )
        self.engine._require_open()

    def __repr__(self) -> str:
        state = "closed" if self._closed else (
            "in-txn" if self._txn is not None else "idle"
        )
        return f"<EngineSession {self.session_id} {state}>"
