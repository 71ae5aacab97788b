"""A deterministic chaos proxy for the json-lines client/server protocol.

:class:`ChaosProxy` sits between a :class:`~repro.server.client.SocketClient`
and a running :class:`~repro.server.net.SOSServer`, relaying one request
line and one response line at a time — and injecting a network fault at an
exact, reproducible point.  Because the protocol is strictly
request/response, the proxy can count *requests* globally (across
reconnects) and fire on the Nth one, the same determinism contract as
:mod:`repro.testing.faults` gives crash tests.

Injection sites (:data:`CHAOS_SITES`):

``drop.request``
    close both directions *before* forwarding the request — the server
    never sees it (a connect-then-die client, or a partitioned link);
``drop.after_send``
    forward the request, then close without reading the response — the
    server executes (and commits) but the acknowledgement path is gone
    mid-flight;
``drop.response``
    forward the request, read the server's full response, then close
    without relaying it — the canonical *ack lost after durable commit*
    window exactly-once machinery exists for;
``partial.response``
    relay only the first half of the response bytes, then close — a torn
    frame the client must treat as a transport failure, not an answer;
``delay.response``
    hold the response for ``delay_s`` seconds before relaying — the
    per-call deadline / slow-network case (the connection survives).

The proxy is thread-based (the client side of the protocol is blocking
sockets) and binds ``127.0.0.1:0``; :attr:`ChaosProxy.address` is a
ready-to-use ``repro://`` DSN — append retry options to taste.
"""

from __future__ import annotations

import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Optional

CHAOS_SITES = (
    "drop.request",
    "drop.after_send",
    "drop.response",
    "partial.response",
    "delay.response",
)


@dataclass
class ChaosPlan:
    """Fire ``site`` on the ``at``-th request the proxy relays (1-based,
    counted globally across every connection, including reconnects).

    ``hits`` counts how many times the plan fired (a drop site can fire
    at most once per arm; re-arm with :meth:`ChaosProxy.set_plan`);
    ``requests_seen`` counts every request the proxy inspected while this
    plan was armed — assert on both to prove the fault happened where the
    test thinks it did.
    """

    site: str
    at: int = 1
    delay_s: float = 0.2
    hits: int = 0
    requests_seen: int = 0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.site not in CHAOS_SITES:
            raise ValueError(
                f"unknown chaos site {self.site!r} (known: {CHAOS_SITES})"
            )

    @property
    def triggered(self) -> bool:
        return self.hits > 0

    def _action_for_next(self) -> Optional[str]:
        """The site to inject on this request, or ``None`` (and do the
        bookkeeping atomically — connections run on separate threads)."""
        with self._lock:
            self.requests_seen += 1
            if self.requests_seen == self.at:
                self.hits += 1
                return self.site
        return None


class ChaosProxy:
    """An in-process TCP proxy over one upstream repro server."""

    def __init__(
        self, upstream_host: str, upstream_port: int, plan: Optional[ChaosPlan] = None
    ):
        self.upstream = (upstream_host, upstream_port)
        self.plan = plan
        self.host: Optional[str] = None
        self.port: Optional[int] = None
        self.connections = 0
        self._listener: Optional[socket.socket] = None
        self._threads: list[threading.Thread] = []
        self._sockets: set[socket.socket] = set()
        self._lock = threading.Lock()
        self._stopping = False

    @classmethod
    def for_dsn(cls, dsn: str, plan: Optional[ChaosPlan] = None) -> "ChaosProxy":
        from repro.server.client import parse_dsn

        host, port = parse_dsn(dsn)
        return cls(host, port, plan)

    # -------------------------------------------------------------- lifecycle

    def start(self) -> "ChaosProxy":
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.host, self.port = self._listener.getsockname()[:2]
        accept = threading.Thread(
            target=self._accept_loop, name="chaos-proxy", daemon=True
        )
        accept.start()
        self._threads.append(accept)
        return self

    def stop(self) -> None:
        """Stop accepting, cut every relayed connection and wait for every
        proxy thread.  Shutting the sockets down wakes a thread blocked in
        ``accept`` or ``readline`` at once, so the joins need no timeout."""
        with self._lock:
            self._stopping = True
            sockets = list(self._sockets)
            threads = list(self._threads)
        if self._listener is not None:
            sockets.append(self._listener)
        for sock in sockets:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # never connected, or the peer already closed it
        if self._listener is not None:
            self._listener.close()
        for thread in threads:
            thread.join()

    def __enter__(self) -> "ChaosProxy":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    @property
    def address(self) -> str:
        """The proxy's ``repro://`` DSN (no retry options; append your own)."""
        return f"repro://{self.host}:{self.port}"

    def dsn(self, options: str = "") -> str:
        """The proxy DSN with query options, e.g. ``proxy.dsn("retries=3")``."""
        return self.address + (f"?{options}" if options else "")

    def set_plan(self, plan: Optional[ChaosPlan]) -> None:
        """Re-arm with a fresh plan (``None`` = pure passthrough)."""
        self.plan = plan

    # ----------------------------------------------------------------- relay

    def _accept_loop(self) -> None:
        assert self._listener is not None
        while not self._stopping:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return  # listener closed
            self.connections += 1
            worker = threading.Thread(
                target=self._serve_conn, args=(conn,), daemon=True
            )
            with self._lock:
                if self._stopping:
                    conn.close()
                    return
                self._sockets.add(conn)
                self._threads.append(worker)
                worker.start()

    def _track(self, sock: socket.socket) -> bool:
        """Register a relayed socket for :meth:`stop`; ``False`` once the
        proxy is stopping (the caller closes it instead)."""
        with self._lock:
            if self._stopping:
                return False
            self._sockets.add(sock)
            return True

    def _serve_conn(self, client_sock: socket.socket) -> None:
        try:
            upstream_sock = socket.create_connection(self.upstream, timeout=10)
        except OSError:
            upstream_sock = None
        if upstream_sock is None or not self._track(upstream_sock):
            self._close(client_sock, upstream_sock)
            return
        client = client_sock.makefile("rwb")
        upstream = upstream_sock.makefile("rwb")
        try:
            while True:
                line = client.readline()
                if not line:
                    return  # client went away
                plan = self.plan
                action = (
                    plan._action_for_next() if plan is not None else None
                )
                if action == "drop.request":
                    return
                upstream.write(line)
                upstream.flush()
                if action == "drop.after_send":
                    return
                response = upstream.readline()
                if not response:
                    return  # upstream went away
                if action == "drop.response":
                    return
                if action == "partial.response":
                    client.write(response[: max(1, len(response) // 2)])
                    client.flush()
                    return
                if action == "delay.response" and plan is not None:
                    time.sleep(plan.delay_s)
                client.write(response)
                client.flush()
        except (OSError, ValueError):
            pass  # either side dropped mid-relay; close both below
        finally:
            for f in (client, upstream):
                try:
                    f.close()
                except OSError:
                    pass
            self._close(client_sock, upstream_sock)

    def _close(self, *sockets: Optional[socket.socket]) -> None:
        for sock in sockets:
            if sock is None:
                continue
            with self._lock:
                self._sockets.discard(sock)
            try:
                sock.close()
            except OSError:
                pass
