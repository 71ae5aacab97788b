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

Every request goes through one attempt loop.  After a transport error
or a :class:`~repro.errors.ServerBusyError` (load shedding / drain) it
backs off (capped exponential, with jitter), reconnects and tries again;
an auto-committed mutation that lost a first-committer-wins race is
retried on a fresh idempotency token.  ``retries`` counts the attempts
after the first, so the default ``retries=0`` makes one attempt and
surfaces its error unchanged.  With ``retries`` > 0 every auto-committed
mutation and every commit carries an idempotency token, so a retry whose
original request *did* commit is answered from the server's
commit-outcome journal instead of applying twice: exactly-once commits.
Without retries nothing carries a token, and the wire is the plain
request/response protocol.
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

from repro.api import Session
from repro.errors import (
    CatalogError,
    ConflictError,
    ProtocolError,
    ServerBusyError,
    SOSError,
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
        attempts after the first one.  The default 0 makes the attempt
        loop a single pass: no reconnect, no idempotency token, the first
        error surfaces as raised;
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

    @property
    def timeout(self) -> Optional[float]:
        """The whole per-call deadline in seconds, or ``None``."""
        return None if self.deadline_ms is None else self.deadline_ms / 1000.0

    def dial(self, host: str, port: int) -> "SocketClient":
        """A connection with this policy's read and connect timeouts."""
        return SocketClient(
            host, port, timeout=self.timeout, connect_timeout=self.connect_timeout
        )


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
        """Send one frame and decode its answer.  A transport failure (the
        peer gone, a timeout, a malformed frame) leaves the stream
        unusable, so the connection is released before the
        :class:`~repro.errors.ProtocolError` goes up; a later request
        reports it as dropped."""
        data = json.dumps({"op": op, **args}).encode() + b"\n"
        try:
            self._file.write(data)
            self._file.flush()
            line = self._file.readline()
        except ValueError as exc:  # writing to a locally dropped socket
            raise ProtocolError(
                f"connection to repro://{self.address[0]}:{self.address[1]} "
                "was dropped; reconnect with connect()"
            ) from exc
        except OSError as exc:
            self.close()
            raise ProtocolError(
                f"server at repro://{self.address[0]}:{self.address[1]} "
                f"went away mid-request: {exc}"
            ) from exc
        if not line:
            self.close()
            raise ProtocolError(
                "server closed the connection without answering "
                f"(op {op!r})"
            )
        try:
            response = json.loads(line)
        except ValueError as exc:
            self.close()
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


class NetworkSession(Session):
    """A :class:`~repro.api.Session` over a socket to a running server.

    Statements auto-commit unless a transaction is open
    (:meth:`begin` / :meth:`commit` / :meth:`rollback`); a commit that
    loses the first-committer-wins race raises
    :class:`~repro.errors.ConflictError` exactly as an in-process engine
    session would.  ``close()`` is idempotent and keeps the connection
    usable for queries — the closed-session contract — while
    :meth:`disconnect` drops the socket itself; leaving a ``with`` block
    does both.

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
        self._in_txn = False
        self._txn_statements: list[str] = []
        self._precheck: Optional[str] = None

    @classmethod
    def open(cls, dsn: str) -> "NetworkSession":
        host, port, policy = parse_dsn_options(dsn)
        return cls(policy.dial(host, port), f"repro://{host}:{port}", policy=policy)

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

    def _traced_request(self, op: str, token: Optional[str] = None, **args):
        """One request wrapped in a client-side span, with the server's
        spans replayed inside it.  Falls back to a plain request when
        nobody subscribed.  ``token`` rides the frame only when set."""
        if token is not None:
            args["token"] = token
        if not self._tracer.enabled:
            return self._client.request(op, **args)
        t0 = time.perf_counter()
        with self._tracer.span(
            "statement",
            trace_id=self._trace_id,
            op=op,
            source=args.get("source", "")[:120],
        ):
            frame = self._client.request(op, trace=self._trace_id, **args)
            self._replay_spans(frame, t0, time.perf_counter() - t0)
        return frame

    # ------------------------------------------------------ the attempt loop

    def _token(self) -> Optional[str]:
        """A fresh idempotency token, or ``None`` when no retry will ever
        ask the server's journal for this request's outcome."""
        return uuid.uuid4().hex if self._policy.retries else None

    def _exhausted(self, attempt: int, deadline: Optional[float]) -> bool:
        return attempt > self._policy.retries or (
            deadline is not None and time.monotonic() >= deadline
        )

    def _arm_timeout(self, deadline: Optional[float]) -> None:
        if deadline is not None:
            self._client.set_timeout(
                max(0.05, deadline - time.monotonic())
            )

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

    def _attempts(
        self,
        send: Callable[[Optional[str]], object],
        *,
        replay: bool = True,
        settled: Optional[Callable[[], bool]] = None,
        mutation: bool = False,
    ):
        """The one attempt loop every request goes through.

        ``send(token)`` makes one attempt.  ``mutation`` marks an
        auto-committed mutation: it carries an idempotency token (while
        the policy retries at all), and a lost first-committer-wins race
        is retried on a fresh one, since the old token's recorded outcome
        is the conflict itself.  A transport failure or
        :class:`~repro.errors.ServerBusyError` backs off and reconnects,
        replaying the open transaction when ``replay``; the next attempt
        resends the *same* token, so a request that did commit is
        answered from the server's journal instead of applying twice.
        ``settled``, when given, is asked after the reconnect whether the
        lost request took effect anyway; if so there is nothing to resend.
        With ``retries=0`` the loop makes one attempt and the first error
        surfaces as raised.
        """
        timeout = self._policy.timeout
        deadline = None if timeout is None else time.monotonic() + timeout
        token = self._token() if mutation else None
        attempt = 0
        failed = False
        while True:
            try:
                if failed:
                    self._reconnect(replay=replay)
                    failed = False
                    self._arm_timeout(deadline)
                    if settled is not None and settled():
                        return None
                self._arm_timeout(deadline)
                return send(token)
            except ConflictError:
                attempt += 1
                if not mutation or self._exhausted(attempt, deadline):
                    raise
                token = self._token()
                self._backoff(attempt, deadline)
            except (ServerBusyError, ProtocolError):
                attempt += 1
                if self._exhausted(attempt, deadline):
                    raise
                self._backoff(attempt, deadline)
                failed = True

    def _reconnect(self, *, replay: bool = True) -> None:
        """Drop the dead socket, dial again, and restore session state —
        closed flag, tracing flag, and (when ``replay``) the open
        transaction's buffered statements."""
        self._client.close()
        self._client = self._policy.dial(*self._client.address)
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
                # Drop the connection so the server rolls the half-replayed
                # transaction back; the next request reconnects.
                self._client.close()
                raise CatalogError(
                    "open transaction aborted: replaying its buffered "
                    f"statements after reconnect failed ({exc})"
                ) from exc

    def _end_txn(self) -> None:
        self._in_txn = False
        self._txn_statements = []

    def _commit_landed(self, token: str) -> bool:
        """After a commit was lost mid-flight: ask the journal whether it
        landed.  A recorded conflict raises; an unknown token never
        committed, so the transaction is rebuilt for a resend under the
        same token."""
        state = self._client.request("txn_status", token=token)["state"]
        if state == "committed":
            return True
        if state == "conflict":
            raise ConflictError(
                "transaction lost the first-committer-wins race "
                "(resolved from the commit journal); retry on a "
                "fresh transaction"
            )
        self._replay_transaction()
        return False

    # ------------------------------------------------------------ execution

    def _enforce_precheck(self, source: str, atomic: bool = False) -> None:
        # Server-side static analysis first: a rejected program never
        # opens an MVCC transaction or writes a WAL frame.
        if self._precheck is not None:
            from repro.api import enforce_precheck

            enforce_precheck(
                self._precheck, self.check(source, atomic=atomic), source
            )

    def run(self, source: str, atomic: bool = False) -> list[SystemResult]:
        self._enforce_precheck(source, atomic)
        if self._in_txn or atomic or not self._policy.retries:
            # One request: an atomic program commits (and is journaled)
            # under one token; without retries nothing carries a token.
            frames = self._attempts(
                lambda token: self._traced_request(
                    "run", source=source, atomic=atomic, token=token
                ),
                mutation=atomic and not self._in_txn,
            )
            if isinstance(frames, dict):  # trace-wrapped response
                frames = frames["results"]
            results = [decode_result(f) for f in frames]
            if self._in_txn:  # remember the mutating chunks for a replay
                chunks = split_statements(source)
                self._txn_statements += [
                    chunk
                    for chunk, result in zip(chunks, results)
                    if result.kind != "query"
                ]
            return results
        # Auto-commit program under retries: split client-side so each
        # chunk carries its own idempotency token — a mid-program failure
        # then retries only the chunk in flight, never an already-committed
        # one.  The whole program was prechecked above, not each chunk.
        results = []
        for index, chunk in enumerate(split_statements(source)):
            try:
                results.append(self._statement(chunk))
            except SOSError as exc:
                raise wrap_statement_error(exc, index=index, source=chunk)
        return results

    def run_one(self, source: str) -> SystemResult:
        self._enforce_precheck(source)
        return self._statement(source)

    def _statement(self, source: str) -> SystemResult:
        # Queries and in-transaction statements are idempotent on a fresh
        # connection (a replayed workspace never double-applies); only an
        # auto-committed mutation needs a token.
        result = decode_result(
            self._attempts(
                lambda token: self._traced_request(
                    "run_one", source=source, token=token
                ),
                mutation=not self._in_txn
                and not source.lstrip().startswith("query"),
            )
        )
        if self._in_txn and result.kind != "query":
            self._txn_statements.append(source)
        return result

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
        return self._attempts(lambda _: self._client.request(op, **args))

    # --------------------------------------------------------- transactions

    def begin(self) -> None:
        """Open an explicit transaction (snapshot isolation; commit wins
        or raises :class:`~repro.errors.ConflictError`)."""
        self._attempts(lambda _: self._client.request("begin"), replay=False)
        self._in_txn = True
        self._txn_statements = []

    def commit(self) -> None:
        # A lost commit is resolved through the journal under its token
        # before anything is resent; with no token there is nothing to
        # resolve, and a resend meets the server's own answer.
        token = self._token() if self._in_txn else None
        try:
            self._attempts(
                lambda _: self._traced_request("commit", token=token),
                replay=False,
                settled=None
                if token is None
                else lambda: self._commit_landed(token),
            )
        finally:
            self._end_txn()

    def rollback(self) -> None:
        # The server rolls an open transaction back the moment its
        # connection drops (and a draining server rolls back idle
        # transactions), so a lost rollback has still rolled back: once
        # reconnected, there is nothing to resend.
        try:
            self._attempts(
                lambda _: self._client.request("rollback"),
                replay=False,
                settled=lambda: True,
            )
        finally:
            self._end_txn()

    # ------------------------------------------------------------ store-wide

    def checkpoint(self) -> int:
        return self._read_request("checkpoint")

    def dump(self) -> str:
        return self._read_request("dump")

    def set_tracing(self, enabled: bool = True) -> None:
        """Toggle metric collection for this session's statements."""
        self._attempts(
            lambda _: self._client.request("set_tracing", enabled=bool(enabled))
        )
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

    def __exit__(self, exc_type, exc, tb) -> None:
        # Leaving the block ends the connection too; an explicit close()
        # keeps it for queries.
        self.close()
        self.disconnect()

    @property
    def closed(self) -> bool:
        return self._closed

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return f"<NetworkSession {self._dsn} ({state})>"
