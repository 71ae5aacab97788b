"""Network fault tolerance: the chaos-proxy fault matrix, exactly-once
commits through the idempotency journal, graceful drain, admission
control, statement timeouts, and the client retry machinery.

The matrix drives every chaos injection site against every operation kind
(auto-commit statement, explicit commit, explicit rollback) through a
:class:`~repro.testing.netchaos.ChaosProxy`, asserting the acceptance
contract: the client transparently recovers (or surfaces a typed
retryable error), committed state equals exactly the acked commits, and
aborted transactions leave zero WAL residue — including after a full
recovery of the data directory.
"""

from __future__ import annotations

import asyncio
import json
import os
import socket
import sys
import threading
import time

import pytest

from repro.api import connect
from repro.errors import (
    CatalogError,
    ConflictError,
    ProtocolError,
    ServerBusyError,
    StatementTimeoutError,
    is_retryable,
)
from repro.server import start_server
from repro.server.net import SOSServer
from repro.server.client import (
    NetworkSession,
    RetryPolicy,
    parse_dsn,
    parse_dsn_options,
)
from repro.testing import CHAOS_SITES, ChaosPlan, ChaosProxy, inject

SCHEMA = """
type city = tuple(<(cname, string), (pop, int)>)
create cities : rel(city)
create cities_rep : btree(city, pop, int)
update rep := insert(rep, cities, cities_rep)
"""

INSERT = 'update cities := insert(cities, mktuple[<(cname, "{name}"), (pop, {pop})>])'

RETRY_OPTS = "retries=5&backoff_ms=40&backoff_cap_ms=200"


def count(session):
    return session.query("cities_rep feed count").value


@pytest.fixture(autouse=True)
def _disconnect_sessions(monkeypatch):
    """Disconnect every session a test opened once the test is over —
    after any crash it simulates — so no socket outlives its test."""
    opened = []
    real_connect = connect

    def tracked(*args, **kwargs):
        session = real_connect(*args, **kwargs)
        opened.append(session)
        return session

    monkeypatch.setattr(sys.modules[__name__], "connect", tracked)
    yield
    for session in opened:
        getattr(session, "disconnect", session.close)()


def wal_bytes(data_dir):
    return sum(
        os.path.getsize(os.path.join(data_dir, name))
        for name in os.listdir(data_dir)
        if name.startswith("wal")
    )


# ---------------------------------------------------------------------------
# The chaos matrix
# ---------------------------------------------------------------------------


#: ``(operation, request ordinal the fault should hit)`` — through the
#: proxy a statement is request 1; in a transaction the target operation
#: is request 3 (begin, statement, then commit/rollback).
MATRIX_OPERATIONS = (("statement", 1), ("commit", 3), ("rollback", 3))


@pytest.mark.parametrize("site", CHAOS_SITES)
@pytest.mark.parametrize("operation,at", MATRIX_OPERATIONS)
def test_fault_matrix(tmp_path, site, operation, at):
    with start_server(data_dir=str(tmp_path)) as handle:
        setup = connect(handle.address)  # schema goes around the proxy
        setup.run(SCHEMA)
        baseline_wal = wal_bytes(str(tmp_path))
        plan = ChaosPlan(site, at=at)
        with ChaosProxy.for_dsn(handle.address, plan) as proxy:
            db = connect(proxy.dsn(RETRY_OPTS))
            if operation == "statement":
                db.run_one(INSERT.format(name="aa", pop=1))
                expected = 1
            elif operation == "commit":
                db.begin()
                db.run_one(INSERT.format(name="aa", pop=1))
                db.commit()
                expected = 1
            else:  # rollback
                db.begin()
                db.run_one(INSERT.format(name="aa", pop=1))
                db.rollback()
                expected = 0
            assert plan.triggered, f"{site} never fired for {operation}"
            # Committed state equals exactly the acked commits — never a
            # double apply, never a lost acked commit.
            assert count(db) == expected
            assert count(setup) == expected
        if expected == 0:
            # An aborted transaction leaves zero WAL residue.
            assert wal_bytes(str(tmp_path)) == baseline_wal
    # ... and recovery of the data directory agrees.
    local = connect(f"file:{tmp_path}")
    try:
        assert count(local) == expected
    finally:
        local.close()


def test_proxy_passthrough_without_plan(tmp_path):
    with start_server(data_dir=str(tmp_path)) as handle:
        with ChaosProxy.for_dsn(handle.address) as proxy:
            db = connect(proxy.address)
            db.run(SCHEMA)
            db.run_one(INSERT.format(name="aa", pop=1))
            assert count(db) == 1
            assert proxy.connections == 1


def test_chaos_plan_rejects_unknown_site():
    with pytest.raises(ValueError):
        ChaosPlan("drop.everything")


def test_stop_cuts_open_relays_at_once():
    """``stop`` must not wait for relays blocked in ``readline``: half the
    connections are idle (blocked reading the client), half sent a request
    the upstream never answers (blocked reading the upstream)."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    clients = []
    try:
        # Accepts through the listen backlog and never answers.
        with socket.create_server(("127.0.0.1", 0)) as upstream:
            proxy = ChaosProxy(*upstream.getsockname()[:2]).start()
            for i in range(16):
                sock = socket.create_connection((proxy.host, proxy.port), timeout=5)
                if i % 2:
                    sock.sendall(b'{"op": "ping"}\n')
                clients.append(sock)
            deadline = time.monotonic() + 5
            while proxy.connections < len(clients) and time.monotonic() < deadline:
                time.sleep(0.01)
            assert proxy.connections == len(clients)
            started = time.monotonic()
            stopper = threading.Thread(target=proxy.stop)
            stopper.start()
            stopper.join(timeout=5)
            assert not stopper.is_alive()
            assert time.monotonic() - started < 1.0
            assert not any(t.is_alive() for t in proxy._threads)
            assert proxy._sockets == set()
    finally:
        sys.setswitchinterval(interval)
        for sock in clients:
            sock.close()


# ---------------------------------------------------------------------------
# Exactly-once commits: the idempotency journal
# ---------------------------------------------------------------------------


class TestExactlyOnce:
    def test_retried_statement_after_dropped_ack_hits_journal(self, tmp_path):
        """The satellite case: the commit is fsynced (the client is parked
        on the group-commit future) and the acknowledgement is dropped —
        the retried request must observe a journal hit, not re-apply."""
        with start_server(data_dir=str(tmp_path)) as handle:
            setup = connect(handle.address)
            setup.run(SCHEMA)
            db = connect(handle.address + "?retries=3&backoff_ms=20")
            hits_before = handle.server.engine.journal.hits
            with inject("server.ack"):
                result = db.run_one(INSERT.format(name="aa", pop=1))
            assert result is not None
            assert handle.server.engine.journal.hits == hits_before + 1
            assert count(setup) == 1  # applied exactly once

    def test_retried_explicit_commit_resolves_via_token(self, tmp_path):
        with start_server(data_dir=str(tmp_path)) as handle:
            setup = connect(handle.address)
            setup.run(SCHEMA)
            db = connect(handle.address + "?retries=3&backoff_ms=20")
            db.begin()
            db.run_one(INSERT.format(name="aa", pop=1))
            with inject("server.ack"):
                db.commit()
            assert count(setup) == 1
            # The session stays usable after the recovery dance.
            db.run_one(INSERT.format(name="bb", pop=2))
            assert count(db) == 2

    def test_journal_survives_restart(self, tmp_path):
        """Committed tokens ride the WAL commit records: a retry that
        straddles a server restart still replays instead of re-applying."""
        with start_server(data_dir=str(tmp_path)) as handle:
            db = connect(handle.address)
            db.run(SCHEMA)
            token = "tok-restart-probe"
            db._client.request(
                "run_one", source=INSERT.format(name="aa", pop=1), token=token
            )
        with start_server(data_dir=str(tmp_path)) as handle:
            db = connect(handle.address)
            frame = db._client.request(
                "run_one", source=INSERT.format(name="aa", pop=1), token=token
            )
            assert frame.get("journal_hit") is True
            assert count(db) == 1

    def test_conflict_outcome_is_replayed(self, tmp_path):
        """A token whose transaction lost the race replays the conflict."""
        with start_server(data_dir=str(tmp_path)) as handle:
            db = connect(handle.address)
            db.run(SCHEMA)
            first = connect(handle.address)
            second = connect(handle.address)
            first.begin()
            second.begin()
            first.run_one(INSERT.format(name="aa", pop=1))
            second.run_one(INSERT.format(name="bb", pop=2))
            first.commit()
            token = "tok-conflict-probe"
            with pytest.raises(ConflictError):
                second._client.request("commit", token=token)
            with pytest.raises(ConflictError) as info:
                second._client.request("commit", token=token)
            assert "replayed" in str(info.value)
            status = db._client.request("txn_status", token=token)
            assert status["state"] == "conflict"

    def test_armed_retries_cost_nothing_without_faults(
        self, tmp_path, monkeypatch
    ):
        """No fault, no retry: a ``?retries=3`` session never retries,
        reconnects or replays a token.  Every retry backs off first, so
        counting the session's backoffs counts its retries."""
        with start_server(data_dir=str(tmp_path)) as handle:
            db = connect(handle.address + "?retries=3&backoff_ms=10")
            calls = {"_backoff": 0, "_reconnect": 0}
            for name in calls:
                method = getattr(NetworkSession, name)

                def counted(self, *args, _name=name, _method=method, **kw):
                    if self is db:
                        calls[_name] += 1
                    return _method(self, *args, **kw)

                monkeypatch.setattr(NetworkSession, name, counted)
            db.run(SCHEMA)
            before = db.server_metrics()["counters"]["mvcc.journal_hits"]
            for n in range(20):
                db.run_one(INSERT.format(name=f"c{n}", pop=n))
            after = db.server_metrics()["counters"]["mvcc.journal_hits"]
            assert calls == {"_backoff": 0, "_reconnect": 0}
            assert after - before == 0
            assert count(db) == 20
            db.disconnect()

    def test_txn_status_unknown_for_fresh_token(self, tmp_path):
        with start_server(data_dir=str(tmp_path)) as handle:
            db = connect(handle.address)
            status = db._client.request("txn_status", token="never-seen")
            assert status["state"] == "unknown"


# ---------------------------------------------------------------------------
# Graceful drain and admission control
# ---------------------------------------------------------------------------


class TestDrainAndAdmission:
    def test_drain_finishes_acked_work_and_rejects_new(self, tmp_path):
        with start_server(data_dir=str(tmp_path)) as handle:
            db = connect(handle.address)
            db.run(SCHEMA)
            db.run_one(INSERT.format(name="aa", pop=1))
            idler = connect(handle.address)
            idler.begin()
            idler.run_one(INSERT.format(name="bb", pop=2))
            residue_before = wal_bytes(str(tmp_path))
            elapsed = handle.drain()
            assert elapsed >= 0.0
            # The idle transaction was rolled back, with zero WAL residue.
            assert handle.server.engine.open_transactions == 0
            assert wal_bytes(str(tmp_path)) == residue_before
            # New connections are refused with a *retryable* error.
            late = connect(handle.address)
            with pytest.raises(ServerBusyError) as info:
                late.ping()
            assert is_retryable(info.value)
            # New requests on existing connections are refused too.
            with pytest.raises(ServerBusyError):
                db.run_one(INSERT.format(name="cc", pop=3))
        # Every acked commit survived the drain and is recovered.
        local = connect(f"file:{tmp_path}")
        try:
            assert count(local) == 1
        finally:
            local.close()

    def test_drain_waits_for_the_inflight_request_without_polling(self, monkeypatch):
        """drain() wakes when the last in-flight request finishes, not on a
        timer: with asyncio.sleep made to fail it still returns, and the
        held request is acknowledged."""

        async def scenario():
            server = SOSServer()
            host, port = await server.start("127.0.0.1", 0)
            entered, release = asyncio.Event(), asyncio.Event()

            async def held(session, request):
                entered.set()
                await release.wait()
                return {"ok": True, "result": "held"}

            server._dispatch = held
            reader, writer = await asyncio.open_connection(host, port)
            try:
                writer.write(b'{"op": "ping"}\n')
                await writer.drain()
                await entered.wait()
                real_sleep = asyncio.sleep

                async def no_polling(delay, result=None):
                    raise AssertionError("drain polled with asyncio.sleep")

                monkeypatch.setattr(asyncio, "sleep", no_polling)
                drain = asyncio.ensure_future(server.drain(timeout=5.0))
                for _ in range(3):  # let drain start waiting
                    tick = asyncio.get_running_loop().create_future()
                    asyncio.get_running_loop().call_soon(tick.set_result, None)
                    await tick
                assert server.draining and not drain.done()
                release.set()
                elapsed = await asyncio.wait_for(drain, 5.0)
                monkeypatch.setattr(asyncio, "sleep", real_sleep)
                response = json.loads(await asyncio.wait_for(reader.readline(), 5.0))
                return elapsed, response, server._inflight
            finally:
                writer.close()
                await server.stop()

        elapsed, response, inflight = asyncio.run(scenario())
        assert 0.0 <= elapsed < 5.0
        assert response == {"ok": True, "result": "held"}
        assert inflight == 0

    def test_max_connections_sheds_load(self):
        with start_server(max_connections=1) as handle:
            keeper = connect(handle.address)
            assert keeper.ping()["server"] == "repro"
            refused = connect(handle.address)
            with pytest.raises(ServerBusyError) as info:
                refused.ping()
            assert is_retryable(info.value)
            assert handle.server.rejected_connections >= 1
            # Freeing the slot lets a retrying client in.
            keeper.disconnect()
            patient = connect(handle.address + "?retries=8&backoff_ms=40")
            assert patient.ping()["server"] == "repro"

    def test_rejected_connection_counts_in_telemetry(self):
        with start_server(max_connections=1) as handle:
            keeper = connect(handle.address)
            keeper.ping()
            with pytest.raises(ServerBusyError):
                connect(handle.address).ping()
            snap = handle.server.telemetry_snapshot()
            assert snap["counters"]["server.rejected_connections"] >= 1
            assert snap["server"]["rejected_connections"] >= 1


# ---------------------------------------------------------------------------
# Statement timeouts
# ---------------------------------------------------------------------------


class TestStatementTimeout:
    def test_runaway_statement_is_cancelled(self):
        with start_server(statement_timeout_ms=0.001) as handle:
            db = connect(handle.address)
            with pytest.raises(StatementTimeoutError):
                db.run_one("query 1 + 2 * 3")
            snap = handle.server.telemetry_snapshot()
            assert snap["counters"]["server.statement_timeouts"] >= 1

    def test_timeout_error_is_not_retryable(self):
        with start_server(statement_timeout_ms=0.001) as handle:
            db = connect(handle.address + "?retries=5&backoff_ms=10")
            started = time.monotonic()
            with pytest.raises(StatementTimeoutError) as info:
                db.run_one("query 1 + 2 * 3")
            assert not is_retryable(info.value)
            # No retry loop: the error surfaced on the first attempt.
            assert time.monotonic() - started < 2.0

    def test_generous_timeout_does_not_interfere(self, tmp_path):
        with start_server(
            data_dir=str(tmp_path), statement_timeout_ms=60_000
        ) as handle:
            db = connect(handle.address)
            db.run(SCHEMA)
            db.run_one(INSERT.format(name="aa", pop=1))
            assert count(db) == 1


# ---------------------------------------------------------------------------
# Client retry machinery (unit level)
# ---------------------------------------------------------------------------


class _FakeClient:
    address = ("fake", 0)

    def set_timeout(self, timeout):
        pass

    def close(self):
        pass


class _NoReconnect(NetworkSession):
    """A session whose reconnect is a no-op — isolates the retry loops."""

    __slots__ = ("reconnects",)

    def __init__(self, policy):
        super().__init__(_FakeClient(), "repro://fake:0", policy=policy)
        self.reconnects = 0

    def _reconnect(self, *, replay=True):
        self.reconnects += 1


class TestRetryPolicy:
    def test_dsn_options_parse(self):
        host, port, policy = parse_dsn_options(
            "repro://h:7001?retries=3&deadline_ms=5000&backoff_ms=25"
            "&backoff_cap_ms=500&connect_timeout_ms=1500"
        )
        assert (host, port) == ("h", 7001)
        assert policy.retries == 3
        assert policy.deadline_ms == 5000
        assert policy.backoff_ms == 25
        assert policy.backoff_cap_ms == 500
        assert policy.connect_timeout == 1.5

    def test_dsn_defaults_are_no_retry(self):
        _, _, policy = parse_dsn_options("repro://h")
        assert policy == RetryPolicy()
        assert policy.retries == 0

    def test_parse_dsn_ignores_options(self):
        assert parse_dsn("repro://h:7001?retries=3") == ("h", 7001)

    def test_unknown_option_rejected(self):
        with pytest.raises(CatalogError):
            parse_dsn_options("repro://h?bogus=1")

    def test_bad_value_rejected(self):
        # Malformed, non-finite, or out of range: a zero or negative
        # timeout would reach socket.settimeout after the connect.
        for option in (
            "retries=many",
            "deadline_ms=-5",
            "deadline_ms=0",
            "deadline_ms=nan",
            "deadline_ms=inf",
            "connect_timeout_ms=-1",
            "connect_timeout_ms=0",
            "backoff_ms=-3",
            "backoff_ms=nan",
            "backoff_cap_ms=-1",
            "backoff_cap_ms=inf",
        ):
            key = option.partition("=")[0]
            with pytest.raises(CatalogError, match=key):
                parse_dsn_options(f"repro://h?{option}")

    def test_zero_backoff_accepted(self):
        _, _, policy = parse_dsn_options("repro://h?backoff_ms=0&backoff_cap_ms=0")
        assert (policy.backoff_ms, policy.backoff_cap_ms) == (0.0, 0.0)

    def test_transport_retry_reuses_token(self):
        session = _NoReconnect(RetryPolicy(retries=3, backoff_ms=1))
        tokens = []

        def send(token):
            tokens.append(token)
            if len(tokens) == 1:
                raise ProtocolError("gone")
            return "ok"

        assert session._retry_mutation(send) == "ok"
        assert len(tokens) == 2
        assert tokens[0] == tokens[1]  # the journal dedupes by this token
        assert session.reconnects == 1

    def test_conflict_retry_uses_fresh_token(self):
        session = _NoReconnect(RetryPolicy(retries=3, backoff_ms=1))
        tokens = []

        def send(token):
            tokens.append(token)
            if len(tokens) == 1:
                raise ConflictError("race", names=("x",))
            return "ok"

        assert session._retry_mutation(send) == "ok"
        assert tokens[0] != tokens[1]  # the old token records the conflict

    def test_retries_exhausted_raises_last_error(self):
        session = _NoReconnect(RetryPolicy(retries=2, backoff_ms=1))
        calls = []

        def send(token):
            calls.append(token)
            raise ProtocolError("still gone")

        with pytest.raises(ProtocolError):
            session._retry_mutation(send)
        assert len(calls) == 3  # first try + two retries

    def test_deadline_stops_retrying_early(self):
        session = _NoReconnect(
            RetryPolicy(retries=50, deadline_ms=60, backoff_ms=40)
        )
        started = time.monotonic()
        with pytest.raises(ProtocolError):
            session._retry_mutation(lambda token: (_ for _ in ()).throw(
                ProtocolError("gone")
            ))
        assert time.monotonic() - started < 2.0

    def test_zero_retries_fails_fast(self):
        session = _NoReconnect(RetryPolicy(retries=0))
        with pytest.raises(ProtocolError):
            session._retryable(
                lambda: (_ for _ in ()).throw(ProtocolError("gone"))
            )
        assert session.reconnects == 0


class TestReconnectBehavior:
    def test_query_retries_through_server_restartish_drop(self, tmp_path):
        """A query whose connection dies mid-flight is retried on a fresh
        connection without tokens (queries are idempotent)."""
        with start_server(data_dir=str(tmp_path)) as handle:
            setup = connect(handle.address)
            setup.run(SCHEMA)
            plan = ChaosPlan("drop.response", at=1)
            with ChaosProxy.for_dsn(handle.address, plan) as proxy:
                db = connect(proxy.dsn(RETRY_OPTS))
                assert count(db) == 0
                assert plan.triggered

    def test_transaction_replay_after_drop(self, tmp_path):
        """Mid-transaction disconnect: the buffered statements replay on
        a fresh server transaction, and the commit applies once."""
        with start_server(data_dir=str(tmp_path)) as handle:
            setup = connect(handle.address)
            setup.run(SCHEMA)
            plan = ChaosPlan("drop.response", at=4)  # begin, s1, s2, <s3>
            with ChaosProxy.for_dsn(handle.address, plan) as proxy:
                db = connect(proxy.dsn(RETRY_OPTS))
                db.begin()
                db.run_one(INSERT.format(name="aa", pop=1))
                db.run_one(INSERT.format(name="bb", pop=2))
                db.run_one(INSERT.format(name="cc", pop=3))
                db.commit()
                assert plan.triggered
                assert count(db) == 3
        local = connect(f"file:{tmp_path}")
        try:
            assert count(local) == 3
        finally:
            local.close()

    def test_no_retry_preserves_legacy_failure(self, tmp_path):
        """Without ``retries`` the old contract holds: a dropped ack is a
        ProtocolError, surfaced immediately."""
        with start_server(data_dir=str(tmp_path)) as handle:
            db = connect(handle.address)
            db.run(SCHEMA)
            with inject("server.ack"):
                with pytest.raises(ProtocolError):
                    db.run_one(INSERT.format(name="aa", pop=1))
