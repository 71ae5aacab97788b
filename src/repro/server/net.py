"""The asyncio socket server: many client sessions, one durable database.

Protocol: json-lines — one request object per line, one response per line,
strictly request/response per connection (clients are blocking).  Request
``{"op": ..., ...}``; response ``{"ok": true, "result": ...}`` or
``{"ok": false, "error": <error frame>}`` (see :mod:`repro.server.wire`).

Statements execute on worker threads (``asyncio.to_thread``) so the event
loop keeps reading other clients while the engine's lock serializes actual
execution — that overlap, plus cross-client group commit, is where the
multi-client throughput comes from.

**Cross-client group commit.**  The engine commits with ``sync=False``:
commit records are appended and flushed (a *process* crash loses nothing)
but not yet fsynced.  Before acknowledging, a handler awaits
:meth:`GroupCommitBatcher.sync`, which yields to the event loop once so
other handlers' commits can pile in, then issues a single fsync for the
whole batch.  Every acknowledged statement is durable; concurrent clients
share fsyncs instead of paying one each.

A client that disconnects mid-transaction gets its open transaction rolled
back — buffered statements are discarded before they ever reach the
write-ahead log, so the disconnect leaves no WAL residue.

The ``server.ack`` fault site fires just before a successful statement
response is written; an injected fault there drops the connection instead
of answering — the committed-but-unacknowledged window the crash matrix
probes.
"""

from __future__ import annotations

import asyncio
import json
import signal
import threading
import time
from typing import Optional

from repro import observe
from repro.errors import (
    ConflictError,
    ProtocolError,
    RequestTooLargeError,
    ServerBusyError,
    StatementTimeoutError,
)
from repro.lang.parser import split_statements
from repro.observe import SpanRecorder
from repro.server.mvcc import EngineSession, MVCCEngine
from repro.server.wire import (
    encode_error,
    encode_lint_report,
    encode_result,
    encode_value,
)
from repro.testing.faults import InjectedFault, fault_point

#: The default server port ("SOS" on a phone keypad, close enough: 7464).
DEFAULT_PORT = 7464

#: The longest request line the server reads, in bytes (asyncio's default
#: is 64 KiB, which a two-thousand-statement atomic program exceeds).  A
#: connection buffers at most twice this before the transport is paused.
REQUEST_LINE_LIMIT = 4 * 1024 * 1024

#: Sentinel for "no journal entry; execute for real" — ``None`` is a valid
#: replayed response (a committed ``commit`` returns ``None``).
_MISS = object()


async def _read_request_line(reader: asyncio.StreamReader) -> bytes:
    """The next request line (``b""`` at end of stream).

    A line over :data:`REQUEST_LINE_LIMIT` is read to its end and thrown
    away before :class:`RequestTooLargeError` is raised, so the caller can
    answer it and the next request on the connection starts on a line
    boundary.
    """
    discarded = 0
    while True:
        try:
            line = await reader.readuntil(b"\n")
        except asyncio.IncompleteReadError as exc:
            line = exc.partial  # end of stream: whatever came before it
        except asyncio.LimitOverrunError as exc:
            # no newline within the limit; the bytes scanned are buffered
            discarded += len(await reader.readexactly(exc.consumed))
            continue
        if not discarded:
            return line
        raise RequestTooLargeError(
            f"request line of {discarded + len(line)} bytes exceeds the "
            f"server's limit of {REQUEST_LINE_LIMIT} bytes "
            "(REQUEST_LINE_LIMIT); split the program into smaller requests"
        )


class GroupCommitBatcher:
    """Coalesces WAL fsyncs across concurrently-committing handlers.

    The first committer of a batch creates the shared future, yields once
    (``sleep(0)``) so every handler that committed in the meantime can
    attach to the same batch, then fsyncs once and wakes them all.
    """

    def __init__(self, engine_ref):
        self._engine_ref = engine_ref
        self._waiter: Optional[asyncio.Future] = None
        self._pending = 0
        self.batches = 0
        self.synced = 0

    async def sync(self) -> None:
        self.synced += 1
        if self._waiter is not None:
            self._pending += 1
            await self._waiter
            return
        self._waiter = asyncio.get_running_loop().create_future()
        waiter = self._waiter
        self._pending = 1
        await asyncio.sleep(0)  # let concurrent commits join this batch
        self._waiter = None
        size = self._pending
        self.batches += 1
        observe.count("group_commit.batches")
        observe.count("group_commit.synced", size)
        observe.sample("group_commit.batch_size", size)
        try:
            await asyncio.to_thread(self._engine_ref().sync_wal)
        except BaseException as exc:
            waiter.set_exception(exc)
            # A batch-mate re-raises it too; mark retrieved either way.
            try:
                await waiter
            except BaseException:
                raise
        else:
            waiter.set_result(None)


#: Counter/histogram families pre-declared at server start so every
#: exposition page lists them (at zero) before traffic arrives.
CORE_METRIC_FAMILIES = {
    "counters": (
        "server.connections",
        "server.statements",
        "server.queries",
        "server.slow_queries",
        "mvcc.snapshots",
        "mvcc.commits",
        "mvcc.conflicts",
        "mvcc.rollbacks",
        "mvcc.privatizations",
        "wal.appends",
        "wal.bytes",
        "wal.fsyncs",
        "group_commit.batches",
        "group_commit.synced",
        "server.rejected_connections",
        "server.statement_timeouts",
        "mvcc.journal_hits",
    ),
    "gauges": (
        "server.active_sessions",
        "mvcc.open_transactions",
        "server.draining",
        "server.drain_seconds",
    ),
    "histograms": (
        "server.statement_seconds",
        "mvcc.commit_seconds",
        "wal.fsync_seconds",
        "group_commit.batch_size",
    ),
}


class SOSServer:
    """One listening socket over one :class:`MVCCEngine`.

    ``slow_query_ms`` arms the slow-query log: any statement at or over
    the threshold is recorded (text, duration, per-phase timings, fired
    rules) in a bounded in-memory ring and — when ``slow_query_log`` is a
    path — appended to that file as one JSON object per line.  Starting a
    server enables the :mod:`repro.observe` process registry.
    """

    def __init__(
        self,
        *,
        data_dir: Optional[str] = None,
        group_commit: int = 8,
        checkpoint_interval: Optional[int] = None,
        allow_reset: bool = False,
        slow_query_ms: Optional[float] = None,
        slow_query_log: Optional[str] = None,
        max_connections: Optional[int] = None,
        statement_timeout_ms: Optional[float] = None,
    ):
        self._config = {
            "data_dir": data_dir,
            "group_commit": group_commit,
            "checkpoint_interval": checkpoint_interval,
            "statement_timeout_ms": statement_timeout_ms,
        }
        self.engine = MVCCEngine(**self._config)
        self.allow_reset = allow_reset
        self.max_connections = max_connections
        self.batcher = GroupCommitBatcher(lambda: self.engine)
        self.connections = 0
        self.active_sessions = 0
        self.rejected_connections = 0
        self.draining = False
        self.started_at = time.time()
        if slow_query_ms is None and slow_query_log is not None:
            slow_query_ms = 0.0  # a log path alone means "log everything"
        self.slow_query_ms = slow_query_ms
        self.slow_queries: list[dict] = []
        self._slow_log_file = (
            open(slow_query_log, "a") if slow_query_log is not None else None
        )
        self._server: Optional[asyncio.AbstractServer] = None
        self._metrics_server: Optional[asyncio.AbstractServer] = None
        self._handlers: set[asyncio.Task] = set()
        self._live_sessions: set[EngineSession] = set()
        self._inflight = 0
        self._idle = asyncio.Event()  # set exactly while _inflight == 0
        self._idle.set()
        observe.enable_registry()
        observe.REGISTRY.declare(**CORE_METRIC_FAMILIES)

    # ---------------------------------------------------------------- serving

    async def start(self, host: str = "127.0.0.1", port: int = DEFAULT_PORT):
        self._server = await asyncio.start_server(
            self._handle, host, port, limit=REQUEST_LINE_LIMIT
        )
        return self._server.sockets[0].getsockname()[:2]

    async def start_metrics(self, host: str = "127.0.0.1", port: int = 0):
        """Serve the Prometheus exposition endpoint on the same loop;
        returns the bound ``(host, port)``."""
        self._metrics_server = await asyncio.start_server(
            self._handle_metrics, host, port
        )
        return self._metrics_server.sockets[0].getsockname()[:2]

    async def serve_forever(self) -> None:
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def drain(self, timeout: float = 10.0) -> float:
        """Graceful shutdown, phase one: stop admitting work, finish what
        is already running, make it durable.

        New connections — and new requests on existing connections — are
        refused with a retryable :class:`~repro.errors.ServerBusyError`
        while the flag is up; requests already dispatched run to
        completion (their commits are acknowledged durably), and
        transactions left idle on connected sessions are rolled back
        (their buffered statements never reach the WAL).  Returns the
        drain duration in seconds; ``timeout`` bounds the wait for
        in-flight requests.
        """
        start = time.perf_counter()
        self.draining = True
        observe.gauge("server.draining", 1)
        try:
            await asyncio.wait_for(self._idle.wait(), timeout)
        except asyncio.TimeoutError:
            pass  # stragglers keep running; their sessions are aborted below
        for session in tuple(self._live_sessions):
            session.abort_open_transaction()
        await asyncio.to_thread(self.engine.sync_wal)
        elapsed = time.perf_counter() - start
        observe.gauge("server.drain_seconds", elapsed)
        return elapsed

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._metrics_server is not None:
            self._metrics_server.close()
            await self._metrics_server.wait_closed()
        for task in tuple(self._handlers):
            task.cancel()
        if self._handlers:
            await asyncio.gather(*self._handlers, return_exceptions=True)
        # lint: disable=ENG003 -- audited: stop() runs after every handler
        # task has finished; there are no connections left to stall.
        self.engine.close()
        if self._slow_log_file is not None:
            self._slow_log_file.close()
            self._slow_log_file = None

    # ------------------------------------------------------------ per-client

    def _admission_refusal(self) -> Optional[ServerBusyError]:
        """The load-shedding check a new connection must pass."""
        if self.draining:
            return ServerBusyError(
                "server is draining for shutdown; retry against the "
                "restarted server"
            )
        if (
            self.max_connections is not None
            and self.active_sessions >= self.max_connections
        ):
            return ServerBusyError(
                f"server is at its connection limit "
                f"({self.max_connections}); retry later"
            )
        return None

    async def _refuse(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        refusal: ServerBusyError,
    ) -> None:
        """Answer the connection's first request with a retryable busy
        error, then close — no engine session is ever created."""
        self.rejected_connections += 1
        observe.count("server.rejected_connections")
        frame = json.dumps(
            {"ok": False, "error": encode_error(refusal)}
        ).encode() + b"\n"
        try:
            line = await reader.readline()
            if line:
                writer.write(frame)
                await writer.drain()
        except (ConnectionError, OSError, ValueError, asyncio.CancelledError):
            pass  # ValueError: a first line over REQUEST_LINE_LIMIT
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError, RuntimeError):
                pass

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        refusal = self._admission_refusal()
        if refusal is not None:
            await self._refuse(reader, writer, refusal)
            return
        self.connections += 1
        self.active_sessions += 1
        observe.count("server.connections")
        observe.gauge("server.active_sessions", self.active_sessions)
        task = asyncio.current_task()
        if task is not None:
            self._handlers.add(task)
        # lint: disable=ENG003 -- audited: session() is lock-protected
        # bookkeeping (allocates an id), not statement execution.
        session = self.engine.session()
        self._live_sessions.add(session)
        try:
            while True:
                try:
                    line = await _read_request_line(reader)
                except asyncio.CancelledError:
                    break  # server shutting down; finish cleanly
                except RequestTooLargeError as exc:
                    # Answered like any failed request; the line is gone
                    # and the connection stays usable.
                    response = {"ok": False, "error": encode_error(exc)}
                    writer.write(json.dumps(response).encode() + b"\n")
                    await writer.drain()
                    continue
                if not line:
                    break  # client went away
                try:
                    if self.draining:
                        raise ServerBusyError(
                            "server is draining for shutdown; the request "
                            "was not executed"
                        )
                    request = json.loads(line)
                    self._inflight += 1
                    self._idle.clear()
                    try:
                        response = await self._dispatch(session, request)
                    finally:
                        self._inflight -= 1
                        if self._inflight == 0:
                            self._idle.set()
                except InjectedFault:
                    # server.ack (or a fault plan armed over the wire)
                    # fired: drop the connection without answering, like a
                    # crash between commit and acknowledgement.
                    break
                except Exception as exc:  # noqa: BLE001 — encode, don't die
                    if isinstance(exc, StatementTimeoutError):
                        observe.count("server.statement_timeouts")
                    response = {"ok": False, "error": encode_error(exc)}
                writer.write(json.dumps(response).encode() + b"\n")
                await writer.drain()
        finally:
            if task is not None:
                self._handlers.discard(task)
            self._live_sessions.discard(session)
            self.active_sessions -= 1
            observe.gauge("server.active_sessions", self.active_sessions)
            # Disconnect (or drop) mid-transaction: roll the open
            # transaction back; its statements never reached the WAL.
            session.abort_open_transaction()
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError, RuntimeError):
                pass

    async def _dispatch(self, session: EngineSession, request: dict) -> dict:
        op = request.get("op")
        handler = getattr(self, "_op_" + str(op), None)
        if handler is None:
            raise ProtocolError(f"unknown op: {op!r}")
        result = await handler(session, request)
        return {"ok": True, "result": result}

    async def _sync_before_ack(self, session: EngineSession) -> None:
        """Group-commit barrier: make everything this session committed
        durable before the acknowledgement goes out."""
        if self.engine.durable and not session.in_transaction:
            await self.batcher.sync()

    # -------------------------------------------------------- accounting

    def _account_statement(
        self, session: EngineSession, source: str, result, elapsed: float
    ) -> None:
        """Per-statement registry counters plus the slow-query log."""
        observe.count("server.statements")
        if result.kind == "query":
            observe.count("server.queries")
        observe.sample("server.statement_seconds", elapsed)
        if (
            self.slow_query_ms is not None
            and elapsed * 1000.0 >= self.slow_query_ms
        ):
            self._log_slow(session, source, result, elapsed)

    def _account_program(
        self, session: EngineSession, source: str, results, elapsed: float
    ) -> None:
        """Account a multi-statement program: registry totals use the
        whole-request duration split evenly; the slow-query log attributes
        each chunk its own measured execution timings."""
        if not results:
            return
        chunks = split_statements(source)
        share = elapsed / len(results)
        for index, result in enumerate(results):
            text = chunks[index] if index < len(chunks) else source
            self._account_statement(session, text, result, share)

    def _log_slow(
        self, session: EngineSession, source: str, result, elapsed: float
    ) -> None:
        entry = {
            "ts": time.time(),
            "session": session.session_id,
            "ms": round(elapsed * 1000.0, 3),
            "kind": result.kind,
            "statement": source,
            "timings": {
                phase: round(seconds * 1000.0, 3)
                for phase, seconds in (result.timings or {}).items()
            },
            "fired": list(result.fired or []),
        }
        self.slow_queries.append(entry)
        if len(self.slow_queries) > 256:
            del self.slow_queries[: len(self.slow_queries) - 256]
        observe.count("server.slow_queries")
        if self._slow_log_file is not None:
            self._slow_log_file.write(
                json.dumps(entry, separators=(",", ":")) + "\n"
            )
            self._slow_log_file.flush()

    def telemetry_snapshot(self) -> dict:
        """The registry snapshot plus server-level identification — the
        ``metrics`` op payload and the exposition page source."""
        snap = observe.REGISTRY.snapshot()
        snap["gauges"]["server.uptime_seconds"] = time.time() - self.started_at
        snap["server"] = {
            "server": "repro",
            "durable": self.engine.durable,
            "uptime_seconds": snap["gauges"]["server.uptime_seconds"],
            "connections": self.connections,
            "rejected_connections": self.rejected_connections,
            "draining": self.draining,
            "active_sessions": self.active_sessions,
            "sessions": self.engine._sessions,
            "engine": dict(self.engine.metrics),
            "group_commit": {
                "batches": self.batcher.batches,
                "synced": self.batcher.synced,
            },
            "slow_queries": list(self.slow_queries[-16:]),
        }
        return snap

    # ------------------------------------------------------------------- ops

    async def _claim_token(self, session, token: Optional[str], synthesized):
        """The exactly-once check: claim ``token`` for execution, or
        replay its recorded outcome.

        Returns :data:`_MISS` when this request holds a fresh claim and
        must execute (ending in a commit outcome or
        ``journal.abandon``).  Otherwise the outcome already exists (or
        an earlier attempt is still executing, in which case this waits
        for it): a recorded conflict re-raises the original
        :class:`~repro.errors.ConflictError`; a recorded commit returns
        the original response frame, or ``synthesized`` when the frame
        did not survive a server restart — made durable before re-acking.
        """
        while True:
            status, entry = self.engine.journal.begin_attempt(token)
            if status == "new":
                return _MISS
            if status == "pending":
                # The original attempt is still executing (a retry can
                # outrun a slow statement); wait for its outcome rather
                # than executing a second time.
                await asyncio.to_thread(entry.wait, 30.0)
                continue
            if entry["outcome"] == "conflict":
                names = tuple(entry["names"])
                raise ConflictError(
                    "transaction lost the first-committer-wins race on "
                    + ", ".join(names)
                    + "; retry on a fresh transaction (replayed outcome)",
                    names=names,
                )
            await self._sync_before_ack(session)
            response = entry["response"]
            return synthesized if response is None else response

    @staticmethod
    def _journal_hit_frame() -> dict:
        """A result frame for a replayed commit whose original response
        did not survive the server restart — enough for the client to
        treat the retried statement as the success it already was."""
        return {
            "kind": "update",
            "level": 1,
            "name": None,
            "type": None,
            "value": "<already committed; outcome replayed from the commit journal>",
            "term": None,
            "translated_term": None,
            "translated_target": None,
            "translated_source": None,
            "fired": [],
            "timings": {},
            "metrics": None,
            "rule_trace": None,
            "journal_hit": True,
        }

    async def _op_run_one(self, session, request):
        token = request.get("token")
        replay = await self._claim_token(
            session, token, self._journal_hit_frame()
        )
        if replay is not _MISS:
            return replay
        recorder = SpanRecorder() if request.get("trace") else None
        start = time.perf_counter()
        try:
            result = await asyncio.to_thread(
                session.run_one,
                request["source"],
                sync=False,
                recorder=recorder,
                token=token,
            )
        except BaseException:
            # No commit outcome to journal (statement error, closed
            # session, injected crash): release the claim so a retry can
            # execute for real.  A recorded conflict is not pending and
            # survives this.
            self.engine.journal.abandon(token)
            raise
        if result.kind != "query":
            await self._sync_before_ack(session)
        else:
            self.engine.journal.abandon(token)  # queries have no outcome
        elapsed = time.perf_counter() - start
        self._account_statement(session, request["source"], result, elapsed)
        frame = encode_result(result)
        if recorder is not None:
            frame["server_spans"] = recorder.events
            frame["server_elapsed"] = recorder.elapsed()
        # Remember the committed answer *before* the acknowledgement can
        # be lost, so a retried request returns it verbatim.
        self.engine.journal.attach_response(token, frame)
        fault_point("server.ack")
        return frame

    async def _op_run(self, session, request):
        atomic = bool(request.get("atomic", False))
        token = request.get("token") if atomic else None
        replay = await self._claim_token(
            session, token, [self._journal_hit_frame()]
        )
        if replay is not _MISS:
            return replay
        recorder = SpanRecorder() if request.get("trace") else None
        start = time.perf_counter()
        try:
            results = await asyncio.to_thread(
                session.run,
                request["source"],
                atomic,
                sync=False,
                recorder=recorder,
                token=token,
            )
        except BaseException:
            self.engine.journal.abandon(token)
            raise
        if any(r.kind != "query" for r in results):
            await self._sync_before_ack(session)
        else:
            self.engine.journal.abandon(token)
        elapsed = time.perf_counter() - start
        self._account_program(session, request["source"], results, elapsed)
        frames = [encode_result(r) for r in results]
        if recorder is None:
            self.engine.journal.attach_response(token, frames)
            fault_point("server.ack")
            return frames
        response = {
            "results": frames,
            "server_spans": recorder.events,
            "server_elapsed": recorder.elapsed(),
        }
        self.engine.journal.attach_response(token, response)
        fault_point("server.ack")
        return response

    async def _op_begin(self, session, request):
        session.begin()
        return None

    async def _op_commit(self, session, request):
        token = request.get("token")
        replay = await self._claim_token(session, token, None)
        if replay is not _MISS:
            return replay
        recorder = SpanRecorder() if request.get("trace") else None
        try:
            await asyncio.to_thread(
                session.commit, sync=False, recorder=recorder, token=token
            )
        except BaseException:
            self.engine.journal.abandon(token)
            raise
        if self.engine.durable:
            await self.batcher.sync()
        if recorder is None:
            fault_point("server.ack")
            return None
        response = {
            "server_spans": recorder.events,
            "server_elapsed": recorder.elapsed(),
        }
        self.engine.journal.attach_response(token, response)
        fault_point("server.ack")
        return response

    async def _op_txn_status(self, session, request):
        """Resolve a commit whose acknowledgement was lost: the state of
        the idempotency token — ``committed``, ``conflict``, or
        ``unknown`` (never committed; safe to replay and retry)."""
        outcome = self.engine.journal.outcome(request.get("token"))
        return {"state": outcome if outcome is not None else "unknown"}

    async def _op_rollback(self, session, request):
        session.rollback()
        return None

    async def _op_explain(self, session, request):
        info = await asyncio.to_thread(
            session.explain,
            request["source"],
            analyze=bool(request.get("analyze", False)),
        )
        return encode_value(info)

    async def _op_lint(self, session, request):
        report = await asyncio.to_thread(self.engine.lint)
        return encode_lint_report(report)

    async def _op_check(self, session, request):
        # Program precheck: pure analysis against the committed catalog —
        # it never opens an MVCC transaction or touches the WAL.
        report = await asyncio.to_thread(
            self.engine.check,
            request["source"],
            bool(request.get("atomic", False)),
        )
        return encode_lint_report(report)

    async def _op_checkpoint(self, session, request):
        return await asyncio.to_thread(self.engine.checkpoint)

    async def _op_dump(self, session, request):
        return await asyncio.to_thread(self.engine.dump)

    async def _op_close(self, session, request):
        # The connection stays open: a closed session still answers
        # queries, but mutations raise — the durable-session contract.
        await asyncio.to_thread(session.close)
        return None

    async def _op_set_tracing(self, session, request):
        session.tracing = bool(request.get("enabled", True))
        return None

    async def _op_ping(self, session, request):
        return {
            "server": "repro",
            "durable": self.engine.durable,
            "session": session.session_id,
            "metrics": dict(self.engine.metrics),
            "counters": dict(session.counters),
            "closed": session.closed,
            "in_transaction": session.in_transaction,
        }

    async def _op_metrics(self, session, request):
        return self.telemetry_snapshot()

    # `status` is the conventional wire name; `metrics` the explicit one.
    _op_status = _op_metrics

    # ------------------------------------------------- metrics exposition

    async def _handle_metrics(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """A minimal HTTP/1.1 GET handler for the exposition endpoint —
        enough for ``curl`` and a Prometheus scraper, on the same loop."""
        try:
            request_line = await reader.readline()
            while True:  # drain headers; the page ignores them
                line = await reader.readline()
                if not line or line in (b"\r\n", b"\n"):
                    break
            parts = request_line.decode("latin-1", "replace").split()
            path = parts[1].split("?", 1)[0] if len(parts) > 1 else "/"
            if path in ("/", "/metrics"):
                status = "200 OK"
                ctype = "text/plain; version=0.0.4; charset=utf-8"
                body = observe.render_prometheus(
                    self.telemetry_snapshot()
                ).encode("utf-8")
            else:
                status, ctype, body = "404 Not Found", "text/plain", b"not found\n"
            writer.write(
                (
                    f"HTTP/1.1 {status}\r\n"
                    f"Content-Type: {ctype}\r\n"
                    f"Content-Length: {len(body)}\r\n"
                    "Connection: close\r\n\r\n"
                ).encode("latin-1")
                + body
            )
            await writer.drain()
        except (ConnectionError, OSError, asyncio.CancelledError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError, RuntimeError):
                pass

    async def _op_reset(self, session, request):
        """Test-only (``allow_reset``): swap in a fresh engine so a shared
        test server gives each test an empty database."""
        if not self.allow_reset:
            raise ProtocolError("server does not allow reset")
        old = self.engine
        self.engine = MVCCEngine(**self._config)
        old.close()
        session.engine = self.engine
        session._txn = None
        session._closed = False
        return None


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


async def serve(
    host: str = "127.0.0.1",
    port: int = DEFAULT_PORT,
    *,
    data_dir: Optional[str] = None,
    group_commit: int = 8,
    checkpoint_interval: Optional[int] = None,
    metrics_port: Optional[int] = None,
    slow_query_ms: Optional[float] = None,
    slow_query_log: Optional[str] = None,
    max_connections: Optional[int] = None,
    statement_timeout_ms: Optional[float] = None,
    ready: Optional[threading.Event] = None,
) -> None:
    """Run a server until cancelled (the ``python -m repro serve`` body).

    SIGTERM triggers a graceful drain: stop admitting work, finish
    in-flight commits durably, roll back idle transactions, flush the WAL,
    and return cleanly (exit code 0) — new connections meanwhile get a
    retryable busy error.
    """
    server = SOSServer(
        data_dir=data_dir,
        group_commit=group_commit,
        checkpoint_interval=checkpoint_interval,
        slow_query_ms=slow_query_ms,
        slow_query_log=slow_query_log,
        max_connections=max_connections,
        statement_timeout_ms=statement_timeout_ms,
    )
    bound = await server.start(host, port)
    print(f"repro server listening on {bound[0]}:{bound[1]}", flush=True)
    if metrics_port is not None:
        mhost, mport = await server.start_metrics(host, metrics_port)
        print(f"metrics exposition on http://{mhost}:{mport}/metrics", flush=True)
    terminated = asyncio.Event()
    loop = asyncio.get_running_loop()
    try:
        loop.add_signal_handler(signal.SIGTERM, terminated.set)
    except (NotImplementedError, RuntimeError):
        pass  # platform without loop signal handlers; Ctrl-C still works
    if ready is not None:
        ready.set()
    try:
        forever = asyncio.ensure_future(server.serve_forever())
        stop_wait = asyncio.ensure_future(terminated.wait())
        await asyncio.wait(
            {forever, stop_wait}, return_when=asyncio.FIRST_COMPLETED
        )
        if terminated.is_set():
            elapsed = await server.drain()
            print(
                f"repro server drained in {elapsed:.3f}s; shutting down",
                flush=True,
            )
        for task in (forever, stop_wait):
            task.cancel()
        await asyncio.gather(forever, stop_wait, return_exceptions=True)
    finally:
        try:
            loop.remove_signal_handler(signal.SIGTERM)
        except (NotImplementedError, RuntimeError, ValueError):
            pass
        await server.stop()


class ServerHandle:
    """A server running on a background thread — the in-process harness the
    tests and benchmarks use.  ``stop()`` is idempotent."""

    def __init__(self, server: SOSServer, host: str, port: int, loop, thread):
        self.server = server
        self.host = host
        self.port = port
        self.metrics_host: Optional[str] = None
        self.metrics_port: Optional[int] = None
        self._loop = loop
        self._thread = thread
        self._stopped = False

    @property
    def address(self) -> str:
        return f"repro://{self.host}:{self.port}"

    @property
    def metrics_url(self) -> Optional[str]:
        if self.metrics_port is None:
            return None
        return f"http://{self.metrics_host}:{self.metrics_port}/metrics"

    def drain(self, timeout: float = 10.0) -> float:
        """Run the server's graceful drain from the caller's thread;
        returns the drain duration in seconds."""
        return asyncio.run_coroutine_threadsafe(
            self.server.drain(timeout=timeout), self._loop
        ).result(timeout=timeout + 5)

    def stop(self) -> None:
        if self._stopped:
            return
        self._stopped = True
        asyncio.run_coroutine_threadsafe(
            self.server.stop(), self._loop
        ).result(timeout=10)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10)
        self._loop.close()

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()


def start_server(
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    data_dir: Optional[str] = None,
    group_commit: int = 8,
    checkpoint_interval: Optional[int] = None,
    allow_reset: bool = False,
    metrics_port: Optional[int] = None,
    slow_query_ms: Optional[float] = None,
    slow_query_log: Optional[str] = None,
    max_connections: Optional[int] = None,
    statement_timeout_ms: Optional[float] = None,
) -> ServerHandle:
    """Start a server on a background thread; ``port=0`` picks a free port.
    Returns a :class:`ServerHandle` whose ``address`` is a ready-to-use
    ``repro://`` DSN (and, with ``metrics_port``, whose ``metrics_url``
    is the live exposition endpoint)."""
    loop = asyncio.new_event_loop()
    server = SOSServer(
        data_dir=data_dir,
        group_commit=group_commit,
        checkpoint_interval=checkpoint_interval,
        allow_reset=allow_reset,
        slow_query_ms=slow_query_ms,
        slow_query_log=slow_query_log,
        max_connections=max_connections,
        statement_timeout_ms=statement_timeout_ms,
    )
    started: dict = {}
    ready = threading.Event()

    def runner() -> None:
        asyncio.set_event_loop(loop)

        async def boot():
            try:
                started["address"] = await server.start(host, port)
                if metrics_port is not None:
                    started["metrics"] = await server.start_metrics(
                        host, metrics_port
                    )
            except BaseException as exc:  # noqa: BLE001
                started["error"] = exc
            ready.set()

        loop.run_until_complete(boot())
        if "error" not in started:
            loop.run_forever()

    thread = threading.Thread(target=runner, name="repro-server", daemon=True)
    thread.start()
    if not ready.wait(timeout=10):
        raise ProtocolError("server did not start within 10s")
    if "error" in started:
        thread.join(timeout=5)
        loop.close()
        raise started["error"]
    bound_host, bound_port = started["address"]
    handle = ServerHandle(server, bound_host, bound_port, loop, thread)
    if "metrics" in started:
        handle.metrics_host, handle.metrics_port = started["metrics"]
    return handle
