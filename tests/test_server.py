"""The socket server: conflicts over the wire, disconnect handling, error
taxonomy parity, crash-at-ack durability, and cross-client group commit.

Servers run in-process on a background thread (``start_server``), so the
fault-injection registry in :mod:`repro.testing.faults` reaches the
server-side fault points directly.
"""

from __future__ import annotations

import asyncio
import os
import subprocess
import sys
import threading
import time

import pytest

from repro.api import connect
from repro.errors import (
    CatalogError,
    ConflictError,
    ParseError,
    ProtocolError,
    RequestTooLargeError,
    StatementError,
    is_retryable,
)
from repro.server import start_server
from repro.server.net import GroupCommitBatcher
from repro.testing import inject

SCHEMA = """
type city = tuple(<(cname, string), (pop, int)>)
create cities : rel(city)
create cities_rep : btree(city, pop, int)
update rep := insert(rep, cities, cities_rep)
"""

INSERT = 'update cities := insert(cities, mktuple[<(cname, "{name}"), (pop, {pop})>])'


def count(session):
    return session.query("cities_rep feed count").value


def wal_bytes(data_dir):
    return sum(
        os.path.getsize(os.path.join(data_dir, name))
        for name in os.listdir(data_dir)
        if name.startswith("wal")
    )


def wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return False


@pytest.fixture
def server():
    with start_server() as handle:
        yield handle


@pytest.fixture
def durable_server(tmp_path):
    with start_server(data_dir=str(tmp_path)) as handle:
        yield handle, str(tmp_path)


class TestConflictsOverTheWire:
    def test_first_committer_wins(self, server):
        first = connect(server.address)
        second = connect(server.address)
        first.run(SCHEMA)
        first.begin()
        second.begin()
        first.run_one(INSERT.format(name="aa", pop=1))
        second.run_one(INSERT.format(name="bb", pop=2))
        first.commit()
        with pytest.raises(ConflictError) as info:
            second.commit()
        assert info.value.retryable
        assert "cities" in info.value.names
        # retry on a fresh snapshot succeeds
        second.begin()
        second.run_one(INSERT.format(name="bb", pop=2))
        second.commit()
        assert count(first) == 2
        assert first.ping()["metrics"]["mvcc.conflicts"] == 1
        first.disconnect()
        second.disconnect()

    def test_snapshot_isolation_between_clients(self, server):
        writer = connect(server.address)
        reader = connect(server.address)
        writer.run(SCHEMA)
        writer.begin()
        writer.run_one(INSERT.format(name="aa", pop=1))
        assert count(writer) == 1
        assert count(reader) == 0
        writer.commit()
        assert count(reader) == 1
        writer.disconnect()
        reader.disconnect()


class TestDisconnect:
    def test_disconnect_mid_transaction_rolls_back(self, durable_server):
        handle, data_dir = durable_server
        setup = connect(handle.address)
        setup.run(SCHEMA)
        baseline = wal_bytes(data_dir)

        doomed = connect(handle.address)
        doomed.begin()
        doomed.run_one(INSERT.format(name="aa", pop=1))
        doomed.disconnect()  # vanish mid-transaction

        engine = handle.server.engine
        assert wait_for(lambda: engine.metrics["mvcc.rollbacks"] >= 1)
        assert count(setup) == 0
        assert wal_bytes(data_dir) == baseline  # zero WAL residue
        setup.disconnect()

    def test_operations_after_disconnect_raise_protocol_error(self, server):
        db = connect(server.address)
        db.disconnect()
        with pytest.raises(ProtocolError):
            db.run_one("query 1 + 1")

    def test_server_stop_surfaces_as_protocol_error(self):
        handle = start_server()
        db = connect(handle.address)
        assert db.run_one("query 1 + 1").value == 2
        handle.stop()
        with pytest.raises(ProtocolError):
            db.query("1 + 1")

    def test_transport_failure_releases_the_socket(self):
        handle = start_server()
        db = connect(handle.address)
        assert db.run_one("query 1 + 1").value == 2
        sock = db._client._sock
        handle.stop()
        with pytest.raises(ProtocolError):
            db.query("1 + 1")
        assert sock.fileno() == -1  # released, not left for the collector
        with pytest.raises(ProtocolError, match="was dropped"):
            db.query("1 + 1")

    def test_stop_right_after_connect_drops_the_connection(self):
        # The connection is accepted but not yet served when stop() runs:
        # it must be closed, not left open with the client blocked on it.
        handle = start_server()
        db = connect(handle.address + "?deadline_ms=5000")
        handle.stop()
        with pytest.raises(ProtocolError, match="closed the connection"):
            db.query("1 + 1")

    def test_with_block_closes_the_socket(self, server):
        db = connect(server.address)
        with db:
            assert db.run_one("query 1 + 1").value == 2
        assert db.closed
        assert db._client._sock.fileno() == -1

    def test_with_block_leaks_nothing_under_dev_mode(self):
        script = (
            "from repro.api import connect\n"
            "from repro.server import start_server\n"
            "with start_server() as handle:\n"
            "    with connect(handle.address) as db:\n"
            "        assert db.run_one('query 1 + 1').value == 2\n"
        )
        src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error::ResourceWarning",
             "-c", script],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert "ResourceWarning" not in proc.stderr, proc.stderr


class TestErrorTaxonomy:
    def test_parse_error_keeps_position(self, server):
        db = connect(server.address)
        with pytest.raises(ParseError) as info:
            db.run_one("query 1 +")
        assert isinstance(info.value, StatementError)
        assert info.value.phase == "parse"
        # the original ParseError (with its position) is rebuilt as the cause
        assert isinstance(info.value.__cause__, ParseError)
        assert info.value.__cause__.line == 1
        assert info.value.__cause__.column == 10
        db.disconnect()

    def test_statement_error_keeps_index_and_source(self, server):
        db = connect(server.address)
        with pytest.raises(CatalogError) as info:
            db.run("type t = tuple(<(a, int)>)\nupdate ghost := 1")
        assert info.value.index == 1
        assert "ghost" in info.value.source
        db.disconnect()

    def test_closed_session_contract_over_wire(self, server):
        db = connect(server.address)
        db.run(SCHEMA)
        db.run_one(INSERT.format(name="aa", pop=1))
        db.close()
        db.close()  # idempotent — the connection survives
        assert db.closed
        assert count(db) == 1
        with pytest.raises(CatalogError, match="closed"):
            db.run_one(INSERT.format(name="bb", pop=2))
        db.disconnect()


class TestCrashAtAck:
    def test_commit_survives_dropped_ack(self, durable_server):
        handle, data_dir = durable_server
        db = connect(handle.address)
        db.run(SCHEMA)
        with inject("server.ack") as plan:
            with pytest.raises(ProtocolError):
                db.run_one(INSERT.format(name="aa", pop=1))
            assert plan.triggered
        # the connection died but the statement was synced before the ack:
        # a fresh client sees it, and so does recovery from disk.
        fresh = connect(handle.address)
        assert count(fresh) == 1
        fresh.disconnect()
        handle.stop()
        with connect(data_dir=data_dir) as recovered:
            assert count(recovered) == 1


class TestGroupCommit:
    def test_concurrent_clients_all_durable(self, durable_server):
        handle, data_dir = durable_server
        setup = connect(handle.address)
        setup.run(SCHEMA)

        errors = []

        def client(n):
            # all eight write the same relation, so losers of the
            # first-committer-wins race retry — the documented pattern
            try:
                db = connect(handle.address)
                while True:
                    try:
                        db.run_one(INSERT.format(name=f"c{n}", pop=n + 1))
                        break
                    except ConflictError:
                        continue
                db.disconnect()
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=client, args=(n,)) for n in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert count(setup) == 8
        setup.disconnect()
        handle.stop()
        with connect(data_dir=data_dir) as recovered:
            assert count(recovered) == 8

    def test_disjoint_clients_never_conflict(self, durable_server):
        handle, _ = durable_server
        n_clients, n_stmts = 8, 6
        setup = connect(handle.address)
        setup.run(
            "type item = tuple(<(k, int)>)\n"
            + "".join(
                f"create r{c} : rel(item)\n"
                f"create r{c}_rep : btree(item, k, int)\n"
                f"update rep := insert(rep, r{c}, r{c}_rep)\n"
                for c in range(n_clients)
            )
        )
        errors = []

        def client(c):
            try:
                db = connect(handle.address)
                for k in range(n_stmts):
                    db.run_one(f"update r{c} := insert(r{c}, mktuple[<(k, {k})>])")
                db.disconnect()
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=client, args=(c,)) for c in range(n_clients)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        assert setup.ping()["metrics"]["mvcc.conflicts"] == 0
        counts = [
            setup.query(f"r{c}_rep feed count").value for c in range(n_clients)
        ]
        assert counts == [n_stmts] * n_clients
        setup.disconnect()

    def test_lone_client_never_shares_a_batch(self, durable_server):
        handle, _ = durable_server
        db = connect(handle.address)
        db.run(SCHEMA)
        for n in range(12):
            db.run_one(INSERT.format(name=f"c{n}", pop=n))
        # One sync for the schema program, one per insert: mean batch 1.0.
        group = db.server_metrics()["server"]["group_commit"]
        assert (group["batches"], group["synced"]) == (13, 13)
        db.disconnect()

    def test_ping_reports_session_counters(self, server):
        db = connect(server.address)
        db.run(SCHEMA)
        db.query("cities_rep feed count")
        info = db.ping()
        assert info["server"] == "repro"
        assert info["durable"] is False
        assert info["counters"]["queries"] >= 1
        assert info["counters"]["statements"] >= 4
        assert info["in_transaction"] is False
        db.disconnect()


class TestGroupCommitBatcher:
    def test_concurrent_commits_share_one_fsync(self):
        """Every commit that arrives while the first one yields joins its
        batch, so k concurrent commits cost one ``sync_wal``."""

        class FakeEngine:
            syncs = 0

            def sync_wal(self):
                self.syncs += 1

        engine = FakeEngine()
        batcher = GroupCommitBatcher(lambda: engine)

        async def commit(k):
            await asyncio.gather(*(batcher.sync() for _ in range(k)))

        asyncio.run(commit(8))
        assert (batcher.batches, batcher.synced, engine.syncs) == (1, 8, 1)


class TestRequestLineLimit:
    def test_program_over_asyncio_default_limit_runs(self, server):
        """A 2 000-insert atomic program is one ~170 KiB request line —
        over asyncio's 64 KiB default, which used to kill the connection."""
        db = connect(server.address)
        db.run(SCHEMA)
        program = "\n".join(
            INSERT.format(name=f"c{i}", pop=i) for i in range(2000)
        )
        assert len(program) > 64 * 1024
        db.run(program, atomic=True)
        assert count(db) == 2000
        db.disconnect()

    def test_over_long_request_is_answered_and_connection_survives(
        self, monkeypatch
    ):
        from repro.server import net

        monkeypatch.setattr(net, "REQUEST_LINE_LIMIT", 2048)
        with start_server() as handle:
            db = connect(handle.address)
            db.run(SCHEMA)
            db.run_one(INSERT.format(name="before", pop=1))
            # several reader buffers long, so the tail arrives after the
            # limit was already hit
            program = "\n".join(
                INSERT.format(name=f"c{i}", pop=i) for i in range(400)
            )
            with pytest.raises(RequestTooLargeError) as info:
                db.run(program, atomic=True)
            assert "2048" in str(info.value)
            assert "REQUEST_LINE_LIMIT" in str(info.value)
            assert not is_retryable(info.value)
            # nothing ran, and the same connection keeps answering in step
            assert count(db) == 1
            db.run_one(INSERT.format(name="after", pop=2))
            assert count(db) == 2
            db.disconnect()
