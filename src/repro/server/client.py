"""The network client: a blocking json-lines socket and a
:class:`NetworkSession` that speaks the :class:`~repro.api.Session`
protocol.

``connect("repro://host:port")`` returns a :class:`NetworkSession`; the
code below it is deliberately thin — every statement is one request line,
every answer one response line, and the :mod:`repro.server.wire` codecs
rebuild real library objects and real exception classes, so client code
cannot tell a network session from a local one by its surface.

Transport failures (server gone, malformed frame, connection refused)
raise :class:`~repro.errors.ProtocolError` — the one error class local
sessions never raise.

**Fault tolerance** is opted into through DSN query parameters::

    repro://host:port?retries=3&deadline_ms=5000&backoff_ms=50

With ``retries`` > 0 the session transparently reconnects (capped
exponential backoff with jitter) and retries retryable failures:
transport errors, :class:`~repro.errors.ServerBusyError` (load shedding /
drain), and — for auto-committed statements — lost first-committer-wins
races.  Every mutation then carries an idempotency token, so a retry
whose original request *did* commit is answered from the server's
commit-outcome journal instead of applying twice: exactly-once commits.
With the default ``retries=0`` the wire behavior is exactly the
pre-retry protocol — any failure surfaces immediately.
"""

from __future__ import annotations

import json
import math
import random
import socket
import time
import uuid
from dataclasses import dataclass, replace
from typing import Callable, Optional

from repro import telemetry
from repro.api import Session
from repro.errors import (
    CatalogError,
    ConflictError,
    ProtocolError,
    ServerBusyError,
    SOSError,
    StatementError,
    wrap_statement_error,
)
from repro.lang.parser import split_statements
from repro.observe import Event, Tracer
from repro.server.net import DEFAULT_PORT
from repro.server.wire import (
    decode_error,
    decode_lint_report,
    decode_result,
    decode_value,
)
from repro.system.sos_system import SystemResult


@dataclass(frozen=True)
class RetryPolicy:
    """How a :class:`NetworkSession` behaves when the network misbehaves.

    ``retries``
        extra attempts after the first try (0 disables all retry and
        reconnect machinery — the default, and the pre-retry behavior);
    ``deadline_ms``
        overall per-call budget covering every attempt and backoff sleep
        (also the socket read timeout, so a hung server cannot park a
        call forever);
    ``backoff_ms`` / ``backoff_cap_ms``
        first reconnect backoff and its exponential cap — the actual
        sleep is jittered to half–full of the computed value;
    ``connect_timeout``
        seconds allowed for the TCP connect (DSN: ``connect_timeout_ms``).
    """

    retries: int = 0
    deadline_ms: Optional[float] = None
    backoff_ms: float = 50.0
    backoff_cap_ms: float = 2000.0
    connect_timeout: float = 10.0


def _parse_hostport(rest: str, dsn: str) -> tuple[str, int]:
    if not rest:
        raise CatalogError("repro:// DSN needs a host, e.g. repro://localhost")
    host, sep, port_text = rest.rpartition(":")
    if not sep:
        return rest, DEFAULT_PORT
    try:
        return host, int(port_text)
    except ValueError:
        raise CatalogError(f"bad port in DSN {dsn!r}: {port_text!r}") from None


#: DSN option → whether its millisecond value must be positive (a zero
#: socket timeout would make the socket non-blocking); ``retries`` is a
#: count.
_DSN_OPTIONS = {
    "retries": False,
    "deadline_ms": True,
    "backoff_ms": False,
    "backoff_cap_ms": False,
    "connect_timeout_ms": True,
}


def parse_dsn(dsn: str) -> tuple[str, int]:
    """``repro://HOST[:PORT][?options]`` → ``(host, port)``."""
    host, port, _ = parse_dsn_options(dsn)
    return host, port


def parse_dsn_options(dsn: str) -> tuple[str, int, RetryPolicy]:
    """``repro://HOST[:PORT]?retries=3&deadline_ms=5000&backoff_ms=50``
    → ``(host, port, policy)``.

    Recognized options: ``retries``, ``deadline_ms``, ``backoff_ms``,
    ``backoff_cap_ms``, ``connect_timeout_ms``.  An unknown option, a
    malformed value, a non-finite or non-positive ``deadline_ms`` /
    ``connect_timeout_ms`` or a non-finite or negative ``backoff_ms`` /
    ``backoff_cap_ms`` raises :class:`~repro.errors.CatalogError`.
    """
    if not dsn.startswith("repro://"):
        raise CatalogError(f"not a repro:// DSN: {dsn!r}")
    rest = dsn[len("repro://"):]
    rest, _, query = rest.partition("?")
    host, port = _parse_hostport(rest.rstrip("/"), dsn)
    policy = RetryPolicy()
    for part in query.split("&") if query else ():
        if not part:
            continue
        key, _, text = part.partition("=")
        if key not in _DSN_OPTIONS:
            raise CatalogError(
                f"unknown DSN option {key!r} in {dsn!r} (known: "
                f"{', '.join(_DSN_OPTIONS)})"
            )
        try:
            value = int(text) if key == "retries" else float(text)
        except ValueError:
            raise CatalogError(
                f"bad value for DSN option {key!r} in {dsn!r}: {text!r}"
            ) from None
        if key == "retries":
            policy = replace(policy, retries=max(0, value))
            continue
        positive = _DSN_OPTIONS[key]
        if not math.isfinite(value) or value < 0 or (positive and value == 0):
            raise CatalogError(
                f"DSN option {key!r} in {dsn!r} must be a finite "
                f"{'positive' if positive else 'non-negative'} number of "
                f"milliseconds, not {text!r}"
            )
        if key == "connect_timeout_ms":
            policy = replace(policy, connect_timeout=value / 1000.0)
        else:
            policy = replace(policy, **{key: value})
    return host, port, policy


class SocketClient:
    """One blocking connection: ``request(op, **args)`` → decoded result."""

    def __init__(
        self,
        host: str,
        port: int,
        timeout: Optional[float] = None,
        connect_timeout: float = 10.0,
    ):
        try:
            self._sock = socket.create_connection(
                (host, port), timeout=connect_timeout
            )
        except OSError as exc:
            raise ProtocolError(
                f"cannot reach repro://{host}:{port}: {exc}"
            ) from exc
        self._sock.settimeout(timeout)
        self._file = self._sock.makefile("rwb")
        self.address = (host, port)

    def set_timeout(self, timeout: Optional[float]) -> None:
        """Adjust the socket timeout for the next request (the session's
        per-call deadline machinery)."""
        try:
            self._sock.settimeout(timeout)
        except OSError:
            pass  # socket already dead; the next request reports it

    def request(self, op: str, **args):
        frame = {"op": op, **args}
        try:
            self._file.write(json.dumps(frame).encode() + b"\n")
            self._file.flush()
            line = self._file.readline()
        except ValueError as exc:  # writing to a locally dropped socket
            raise ProtocolError(
                f"connection to repro://{self.address[0]}:{self.address[1]} "
                "was dropped; reconnect with connect()"
            ) from exc
        except OSError as exc:
            raise ProtocolError(
                f"server at repro://{self.address[0]}:{self.address[1]} "
                f"went away mid-request: {exc}"
            ) from exc
        if not line:
            raise ProtocolError(
                "server closed the connection without answering "
                f"(op {op!r})"
            )
        try:
            response = json.loads(line)
        except ValueError as exc:
            raise ProtocolError(f"malformed response frame: {exc}") from exc
        if response.get("ok"):
            return response.get("result")
        raise decode_error(response.get("error", {}))

    def close(self) -> None:
        try:
            self._file.close()
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass


def _new_token() -> str:
    return uuid.uuid4().hex


class NetworkSession(Session):
    """A :class:`~repro.api.Session` over a socket to a running server.

    Statements auto-commit unless a transaction is open
    (:meth:`begin` / :meth:`commit` / :meth:`rollback`); a commit that
    loses the first-committer-wins race raises
    :class:`~repro.errors.ConflictError` exactly as an in-process engine
    session would.  ``close()`` is idempotent and keeps the connection
    usable for queries — the closed-session contract — while
    :meth:`disconnect` drops the socket itself.

    With a :class:`RetryPolicy` (``?retries=...`` on the DSN) the session
    reconnects and retries by itself — see the module docstring for the
    exactly-once machinery.  An open transaction's statements are
    buffered client-side: after a reconnect they are replayed onto a
    fresh server transaction (the dropped connection's workspace was
    discarded wholesale, so nothing applies twice), or the transaction is
    aborted with a clear error if the replay cannot be reproduced.
    """

    __slots__ = (
        "_client",
        "_dsn",
        "_closed",
        "_tracing",
        "_tracer",
        "_trace_id",
        "_policy",
        "_host",
        "_port",
        "_timeout",
        "_in_txn",
        "_txn_statements",
        "_precheck",
    )

    def __init__(
        self,
        client: SocketClient,
        dsn: str,
        policy: Optional[RetryPolicy] = None,
    ):
        self._client = client
        self._dsn = dsn
        self._closed = False
        self._tracing = False
        self._tracer = Tracer()
        self._trace_id = uuid.uuid4().hex[:16]
        self._policy = policy if policy is not None else RetryPolicy()
        self._host, self._port = client.address
        self._timeout = (
            None
            if self._policy.deadline_ms is None
            else self._policy.deadline_ms / 1000.0
        )
        self._in_txn = False
        self._txn_statements: list[str] = []
        self._precheck: Optional[str] = None

    @classmethod
    def open(cls, dsn: str) -> "NetworkSession":
        host, port, policy = parse_dsn_options(dsn)
        timeout = (
            None if policy.deadline_ms is None else policy.deadline_ms / 1000.0
        )
        client = SocketClient(
            host,
            port,
            timeout=timeout,
            connect_timeout=policy.connect_timeout,
        )
        return cls(client, f"repro://{host}:{port}", policy=policy)

    @property
    def retry_policy(self) -> RetryPolicy:
        return self._policy

    # --------------------------------------------------------------- tracing

    @property
    def tracer(self) -> Tracer:
        """This session's event bus.  While anyone is subscribed, every
        statement request carries the session's trace ID and the server
        ships its phase spans back for replay — one timeline across the
        wire (see ``docs/OBSERVABILITY.md``)."""
        return self._tracer

    def subscribe(self, fn: Callable[[Event], None]) -> Callable[[Event], None]:
        """Shorthand for ``session.tracer.subscribe(fn)`` (the local
        session has the same method)."""
        return self._tracer.subscribe(fn)

    @property
    def trace_id(self) -> str:
        return self._trace_id

    def _replay_spans(self, frame, t0: float, elapsed: float) -> None:
        """Deliver server-side span events into the local tracer.

        The two processes share no clock; the server reports event times
        relative to its own request handling (``t``) plus the total time
        it held the request (``server_elapsed``).  Centering that window
        inside the client-observed round trip splits the network cost
        evenly, which keeps every server span strictly inside the client
        statement span — the property the Chrome-trace nesting needs.
        """
        if not isinstance(frame, dict):
            return
        spans = frame.pop("server_spans", None)
        server_elapsed = frame.pop("server_elapsed", None)
        if not spans or not self._tracer.enabled:
            return
        if server_elapsed is None:
            server_elapsed = max((s.get("t", 0.0) for s in spans), default=0.0)
        base = t0 + max((elapsed - server_elapsed) / 2.0, 0.0)
        depth0 = self._tracer._depth
        for span in spans:
            data = dict(span.get("data") or {})
            data.setdefault("trace_id", self._trace_id)
            data.setdefault("remote", True)
            self._tracer.deliver(
                Event(
                    span.get("name", "?"),
                    span.get("kind", "counter"),
                    span.get("value", 0.0),
                    data,
                    depth0 + span.get("depth", 0),
                    ts=base + span.get("t", 0.0),
                )
            )

    def _traced_request(self, op: str, **args):
        """One request wrapped in a client-side span, with the server's
        spans replayed inside it.  Falls back to a plain request when
        nobody subscribed."""
        if not self._tracer.enabled:
            return self._client.request(op, **args)
        label = args.get("source", "")
        t0 = time.perf_counter()
        with self._tracer.span(
            "statement",
            trace_id=self._trace_id,
            op=op,
            source=label[:120],
        ):
            frame = self._client.request(op, trace=self._trace_id, **args)
            self._replay_spans(frame, t0, time.perf_counter() - t0)
        return frame

    # ------------------------------------------------------ retry machinery

    def _deadline(self) -> Optional[float]:
        if self._policy.deadline_ms is None:
            return None
        return time.monotonic() + self._policy.deadline_ms / 1000.0

    @staticmethod
    def _out_of_time(deadline: Optional[float]) -> bool:
        return deadline is not None and time.monotonic() >= deadline

    def _arm_timeout(self, deadline: Optional[float]) -> None:
        if deadline is not None:
            self._client.set_timeout(
                max(0.05, deadline - time.monotonic())
            )

    @staticmethod
    def _count_retry(kind: str) -> None:
        if telemetry.ENABLED:
            telemetry.incr(f"client.retries.{kind}")

    def _backoff(self, attempt: int, deadline: Optional[float]) -> None:
        """Capped exponential backoff with half-to-full jitter."""
        policy = self._policy
        delay_ms = min(
            policy.backoff_cap_ms, policy.backoff_ms * (2 ** (attempt - 1))
        )
        delay = delay_ms / 1000.0 * (0.5 + random.random() / 2.0)
        if deadline is not None:
            delay = min(delay, max(0.0, deadline - time.monotonic()))
        if delay > 0:
            time.sleep(delay)

    def _reconnect(self, *, replay: bool = True) -> None:
        """Drop the dead socket, dial again, and restore session state —
        closed flag, tracing flag, and (when ``replay``) the open
        transaction's buffered statements."""
        self._client.close()
        self._client = SocketClient(
            self._host,
            self._port,
            timeout=self._timeout,
            connect_timeout=self._policy.connect_timeout,
        )
        if telemetry.ENABLED:
            telemetry.incr("client.reconnects")
        if self._closed:
            self._client.request("close")
        if self._tracing:
            self._client.request("set_tracing", enabled=True)
        if replay and self._in_txn:
            self._replay_transaction()

    def _replay_transaction(self) -> None:
        """Rebuild the open transaction on a fresh connection.  The old
        connection's server-side workspace was rolled back wholesale when
        it dropped, so re-running the buffered statements applies each
        exactly once.  A statement that no longer reproduces aborts the
        transaction with a non-retryable error."""
        self._client.request("begin")
        for source in self._txn_statements:
            try:
                self._client.request("run_one", source=source)
            except (ProtocolError, ServerBusyError):
                raise  # transport trouble again; the retry loop handles it
            except SOSError as exc:
                self._end_txn()
                raise CatalogError(
                    "open transaction aborted: replaying its buffered "
                    f"statements after reconnect failed ({exc})"
                ) from exc

    def _end_txn(self) -> None:
        self._in_txn = False
        self._txn_statements = []

    def _retryable(self, send: Callable[[], object], *, replay: bool = True):
        """Run ``send`` with transport/busy retries and reconnects.  Used
        for requests that are idempotent by nature (queries, reads,
        in-transaction statements — replayed workspaces never double
        apply)."""
        deadline = self._deadline()
        attempt = 0
        pending_reconnect = False
        while True:
            try:
                if pending_reconnect:
                    self._reconnect(replay=replay)
                    pending_reconnect = False
                self._arm_timeout(deadline)
                return send()
            except (ServerBusyError, ProtocolError) as exc:
                attempt += 1
                if attempt > self._policy.retries or self._out_of_time(
                    deadline
                ):
                    raise
                self._count_retry(
                    "busy" if isinstance(exc, ServerBusyError) else "transport"
                )
                self._backoff(attempt, deadline)
                pending_reconnect = True

    def _retry_mutation(self, send: Callable[[str], object]):
        """Run an auto-committing mutation with an idempotency token.

        Transport/busy retries resend the *same* token — if the original
        attempt committed, the server's journal answers instead of
        re-applying.  A lost first-committer-wins race retries with a
        *fresh* token (the old token's recorded outcome is the conflict
        itself)."""
        deadline = self._deadline()
        token = _new_token()
        attempt = 0
        pending_reconnect = False
        while True:
            try:
                if pending_reconnect:
                    self._reconnect(replay=False)
                    pending_reconnect = False
                self._arm_timeout(deadline)
                return send(token)
            except ConflictError:
                attempt += 1
                if attempt > self._policy.retries or self._out_of_time(
                    deadline
                ):
                    raise
                self._count_retry("conflict")
                token = _new_token()
                self._backoff(attempt, deadline)
            except (ServerBusyError, ProtocolError) as exc:
                attempt += 1
                if attempt > self._policy.retries or self._out_of_time(
                    deadline
                ):
                    raise
                self._count_retry(
                    "busy" if isinstance(exc, ServerBusyError) else "transport"
                )
                self._backoff(attempt, deadline)
                pending_reconnect = True

    # ------------------------------------------------------------ execution

    def run(self, source: str, atomic: bool = False) -> list[SystemResult]:
        if self._precheck is not None:
            from repro.api import enforce_precheck

            # Server-side static analysis first: a rejected program never
            # opens an MVCC transaction or writes a WAL frame.
            enforce_precheck(
                self._precheck, self.check(source, atomic=atomic), source
            )
        if self._policy.retries == 0:
            return self._decode_run(
                self._traced_request("run", source=source, atomic=atomic)
            )
        if self._in_txn:
            results = self._decode_run(
                self._retryable(
                    lambda: self._traced_request(
                        "run", source=source, atomic=atomic
                    )
                )
            )
            self._buffer_txn_chunks(source, results)
            return results
        if atomic:
            # One request, one token: the whole program commits (and is
            # journaled) as a unit.
            return self._decode_run(
                self._retry_mutation(
                    lambda token: self._traced_request(
                        "run", source=source, atomic=True, token=token
                    )
                )
            )
        # Auto-commit program: split client-side so each chunk carries its
        # own idempotency token — a mid-program failure then retries only
        # the chunk in flight, never an already-committed one.  The whole
        # program was already prechecked above; don't re-check per chunk.
        results = []
        precheck, self._precheck = self._precheck, None
        try:
            for index, chunk in enumerate(split_statements(source)):
                try:
                    results.append(self.run_one(chunk))
                except StatementError as exc:
                    if exc.index is None:
                        exc.index = index
                    if exc.source is None:
                        exc.source = chunk
                    raise
                except SOSError as exc:
                    raise wrap_statement_error(
                        exc, index=index, source=chunk
                    ) from exc
        finally:
            self._precheck = precheck
        return results

    @staticmethod
    def _decode_run(frames) -> list[SystemResult]:
        if isinstance(frames, dict):  # trace-wrapped response
            frames = frames["results"]
        return [decode_result(f) for f in frames]

    def _buffer_txn_chunks(self, source: str, results) -> None:
        """Remember the mutating chunks of a successful in-transaction
        program for post-reconnect replay."""
        chunks = split_statements(source)
        for chunk, result in zip(chunks, results):
            if result.kind != "query":
                self._txn_statements.append(chunk)

    def run_one(self, source: str) -> SystemResult:
        if self._precheck is not None:
            from repro.api import enforce_precheck

            enforce_precheck(self._precheck, self.check(source), source)
        if self._policy.retries == 0:
            return decode_result(
                self._traced_request("run_one", source=source)
            )
        if self._in_txn:
            result = decode_result(
                self._retryable(
                    lambda: self._traced_request("run_one", source=source)
                )
            )
            if result.kind != "query":
                self._txn_statements.append(source)
            return result
        if source.lstrip().startswith("query"):
            return decode_result(
                self._retryable(
                    lambda: self._traced_request("run_one", source=source),
                    replay=False,
                )
            )
        return decode_result(
            self._retry_mutation(
                lambda token: self._traced_request(
                    "run_one", source=source, token=token
                )
            )
        )

    def explain(self, source: str, *, analyze: bool = False) -> dict:
        return decode_value(
            self._read_request("explain", source=source, analyze=analyze)
        )

    def lint(self):
        return decode_lint_report(self._read_request("lint"))

    def check(self, source: str, *, atomic: bool = False):
        """Server-side static program analysis
        (:func:`repro.lint.lint_program` against the committed catalog);
        returns the :class:`~repro.lint.LintReport` without opening a
        transaction or writing a WAL frame."""
        return decode_lint_report(
            self._read_request("check", source=source, atomic=atomic)
        )

    def _read_request(self, op: str, **args):
        if self._policy.retries == 0:
            return self._client.request(op, **args)
        return self._retryable(lambda: self._client.request(op, **args))

    # --------------------------------------------------------- transactions

    def begin(self) -> None:
        """Open an explicit transaction (snapshot isolation; commit wins
        or raises :class:`~repro.errors.ConflictError`)."""
        if self._policy.retries == 0:
            self._client.request("begin")
        else:
            self._retryable(
                lambda: self._client.request("begin"), replay=False
            )
        self._in_txn = True
        self._txn_statements = []

    def commit(self) -> None:
        if self._policy.retries == 0 or not self._in_txn:
            try:
                self._traced_request("commit")
            finally:
                self._end_txn()
            return
        deadline = self._deadline()
        token = _new_token()
        attempt = 0
        resolve = False
        while True:
            try:
                if resolve:
                    # The commit request itself failed mid-flight; find
                    # out whether it landed before doing anything else.
                    self._reconnect(replay=False)
                    self._arm_timeout(deadline)
                    state = self._client.request("txn_status", token=token)[
                        "state"
                    ]
                    if state == "committed":
                        self._end_txn()
                        return
                    if state == "conflict":
                        self._end_txn()
                        raise ConflictError(
                            "transaction lost the first-committer-wins race "
                            "(resolved from the commit journal); retry on a "
                            "fresh transaction"
                        )
                    # unknown: it never committed — rebuild the
                    # transaction and commit again under the same token.
                    self._replay_transaction()
                    resolve = False
                self._arm_timeout(deadline)
                self._traced_request("commit", token=token)
                self._end_txn()
                return
            except ConflictError:
                self._end_txn()
                raise
            except (ServerBusyError, ProtocolError) as exc:
                attempt += 1
                if attempt > self._policy.retries or self._out_of_time(
                    deadline
                ):
                    self._end_txn()
                    raise
                self._count_retry(
                    "busy" if isinstance(exc, ServerBusyError) else "transport"
                )
                self._backoff(attempt, deadline)
                resolve = True

    def rollback(self) -> None:
        if self._policy.retries == 0 or not self._in_txn:
            try:
                self._client.request("rollback")
            finally:
                self._end_txn()
            return
        try:
            self._client.request("rollback")
        except (ProtocolError, ServerBusyError):
            # The server rolls an open transaction back the moment its
            # connection drops (and a draining server rolls back idle
            # transactions), so a lost rollback has still rolled back —
            # reconnect opportunistically and report success.
            try:
                self._reconnect(replay=False)
            except (ProtocolError, ServerBusyError):
                pass
        finally:
            self._end_txn()

    # ------------------------------------------------------------ store-wide

    def checkpoint(self) -> int:
        return self._read_request("checkpoint")

    def dump(self) -> str:
        return self._read_request("dump")

    def set_tracing(self, enabled: bool = True) -> None:
        """Toggle metric collection for this session's statements."""
        self._client.request("set_tracing", enabled=bool(enabled))
        self._tracing = bool(enabled)

    @property
    def tracing(self) -> bool:
        return self._tracing

    def ping(self) -> dict:
        """Server/session status: engine metrics (``mvcc.*``), this
        session's statement counters, and flags."""
        return self._read_request("ping")

    def server_metrics(self) -> dict:
        """The server's process-wide telemetry registry snapshot:
        ``counters`` / ``gauges`` / ``histograms`` plus a ``server``
        section (uptime, sessions, recent slow queries).  The same data
        the ``--metrics-port`` exposition endpoint and ``python -m repro
        top`` render."""
        return self._read_request("metrics")

    # ------------------------------------------------------------- lifecycle

    def close(self) -> None:
        """Idempotent.  Rolls back an open transaction server-side and
        marks the session closed: queries keep working, mutations raise
        :class:`~repro.errors.CatalogError` (the durable local contract).
        """
        if self._closed:
            return
        try:
            self._client.request("close")
        except ProtocolError:
            pass  # server already gone: nothing left to close
        self._closed = True
        self._end_txn()

    def disconnect(self) -> None:
        """Drop the socket (an open transaction is rolled back server-side)."""
        self._client.close()

    @property
    def closed(self) -> bool:
        return self._closed

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return f"<NetworkSession {self._dsn} ({state})>"
