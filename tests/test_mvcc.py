"""MVCC engine semantics: snapshot isolation, first-committer-wins,
rollback hygiene, and durable-commit interaction with the WAL.

These tests drive :class:`repro.server.MVCCEngine` directly, below the
socket layer — the socket-level counterparts live in ``test_server.py``.
"""

from __future__ import annotations

import os

import pytest

from repro.api import connect
from repro.errors import CatalogError, ConflictError
from repro.server import MVCCEngine

SCHEMA = """
type city = tuple(<(cname, string), (pop, int)>)
create cities : rel(city)
create cities_rep : btree(city, pop, int)
update rep := insert(rep, cities, cities_rep)
"""

INSERT = 'update cities := insert(cities, mktuple[<(cname, "{name}"), (pop, {pop})>])'


def count(session):
    return session.query("cities_rep feed count").value


class TestSnapshotIsolation:
    def test_uncommitted_writes_invisible_to_others(self):
        engine = MVCCEngine()
        writer, reader = engine.session(), engine.session()
        writer.run(SCHEMA)
        writer.begin()
        writer.run_one(INSERT.format(name="aa", pop=1))
        assert count(writer) == 1  # own writes visible
        assert count(reader) == 0  # not yet committed
        writer.commit()
        assert count(reader) == 1

    def test_open_transaction_reads_its_snapshot(self):
        engine = MVCCEngine()
        writer, reader = engine.session(), engine.session()
        writer.run(SCHEMA)
        reader.begin()
        assert count(reader) == 0
        writer.run_one(INSERT.format(name="aa", pop=1))
        # reader began before the insert committed: still sees the snapshot
        assert count(reader) == 0
        reader.commit()
        assert count(reader) == 1

    def test_transaction_local_type_alias(self):
        engine = MVCCEngine()
        session = engine.session()
        session.begin()
        session.run_one("type t = tuple(<(a, int)>)")
        session.run_one("create r : rel(t)")
        session.commit()
        assert "create r : rel(t)" in engine.dump()


class TestFirstCommitterWins:
    def _conflicting_pair(self, engine):
        first, second = engine.session(), engine.session()
        first.run(SCHEMA)
        first.begin()
        second.begin()
        first.run_one(INSERT.format(name="aa", pop=1))
        second.run_one(INSERT.format(name="bb", pop=2))
        return first, second

    def test_loser_raises_conflict_error_with_names(self):
        engine = MVCCEngine()
        first, second = self._conflicting_pair(engine)
        first.commit()
        with pytest.raises(ConflictError) as info:
            second.commit()
        assert info.value.retryable
        assert "cities" in info.value.names
        assert engine.metrics["mvcc.conflicts"] == 1
        assert second.counters["conflicts"] == 1

    def test_loser_transaction_is_aborted(self):
        engine = MVCCEngine()
        first, second = self._conflicting_pair(engine)
        first.commit()
        with pytest.raises(ConflictError):
            second.commit()
        assert not second.in_transaction
        # the losing write never became visible
        assert count(first) == 1

    def test_retry_after_conflict_succeeds(self):
        engine = MVCCEngine()
        first, second = self._conflicting_pair(engine)
        first.commit()
        with pytest.raises(ConflictError):
            second.commit()
        second.begin()
        second.run_one(INSERT.format(name="bb", pop=2))
        second.commit()
        assert count(first) == 2

    def test_disjoint_writes_both_commit(self):
        engine = MVCCEngine()
        first, second = engine.session(), engine.session()
        first.run(SCHEMA)
        first.begin()
        second.begin()
        first.run_one("type ta = tuple(<(a, int)>)")
        second.run_one("type tb = tuple(<(b, int)>)")
        first.commit()
        second.commit()  # touched different names: no conflict
        dump = engine.dump()
        assert "ta" in dump and "tb" in dump


class TestSessionContract:
    def test_auto_commit_outside_transaction(self):
        engine = MVCCEngine()
        session = engine.session()
        session.run(SCHEMA)
        session.run_one(INSERT.format(name="aa", pop=1))
        assert engine.metrics["mvcc.commits"] >= 5  # one per statement

    def test_rollback_discards_writes(self):
        engine = MVCCEngine()
        session = engine.session()
        session.run(SCHEMA)
        session.begin()
        session.run_one(INSERT.format(name="aa", pop=1))
        session.rollback()
        assert count(session) == 0
        assert engine.metrics["mvcc.rollbacks"] == 1

    def test_atomic_run_commits_as_one(self):
        engine = MVCCEngine()
        session = engine.session()
        before = engine.metrics["mvcc.commits"]
        session.run(SCHEMA + INSERT.format(name="aa", pop=1), atomic=True)
        assert engine.metrics["mvcc.commits"] == before + 1
        assert count(session) == 1

    def test_atomic_cannot_nest(self):
        engine = MVCCEngine()
        session = engine.session()
        session.begin()
        with pytest.raises(CatalogError, match="nest"):
            session.run("query 1 + 1", atomic=True)

    def test_closed_session_queries_ok_mutations_raise(self):
        engine = MVCCEngine()
        session = engine.session()
        session.run(SCHEMA)
        session.run_one(INSERT.format(name="aa", pop=1))
        session.close()
        session.close()  # idempotent
        assert session.closed
        assert count(session) == 1
        with pytest.raises(CatalogError, match="closed"):
            session.run_one(INSERT.format(name="bb", pop=2))
        with pytest.raises(CatalogError):
            session.begin()


class TestPrivatizations:
    """``mvcc.privatizations`` counts the committed objects a transaction
    copied before writing them, once per object per transaction."""

    def test_single_row_model_insert_privatizes_model_and_rep(self):
        engine = MVCCEngine()
        session = engine.session()
        session.run(SCHEMA)
        before = engine.metrics["mvcc.privatizations"]
        session.run_one(INSERT.format(name="aa", pop=1))
        assert engine.metrics["mvcc.privatizations"] == before + 2

    def test_repeated_writes_in_one_transaction_count_once(self):
        engine = MVCCEngine()
        session = engine.session()
        session.run(SCHEMA)
        before = engine.metrics["mvcc.privatizations"]
        session.begin()
        for i in range(3):
            session.run_one(INSERT.format(name=f"c{i}", pop=i))
        session.commit()
        assert engine.metrics["mvcc.privatizations"] == before + 2
        assert count(session) == 3


class TestDurableMVCC:
    def _wal_bytes(self, data_dir):
        total = 0
        for name in os.listdir(data_dir):
            if name.startswith("wal"):
                total += os.path.getsize(os.path.join(data_dir, name))
        return total

    def test_rollback_leaves_no_wal_residue(self, tmp_path):
        engine = MVCCEngine(data_dir=str(tmp_path))
        session = engine.session()
        session.run(SCHEMA)
        baseline = self._wal_bytes(tmp_path)
        session.begin()
        session.run_one(INSERT.format(name="aa", pop=1))
        session.rollback()
        assert self._wal_bytes(tmp_path) == baseline
        engine.close()

    def test_conflict_loser_leaves_no_wal_residue(self, tmp_path):
        engine = MVCCEngine(data_dir=str(tmp_path))
        first, second = engine.session(), engine.session()
        first.run(SCHEMA)
        first.begin()
        second.begin()
        first.run_one(INSERT.format(name="aa", pop=1))
        second.run_one(INSERT.format(name="bb", pop=2))
        first.commit()
        after_win = self._wal_bytes(tmp_path)
        with pytest.raises(ConflictError):
            second.commit()
        assert self._wal_bytes(tmp_path) == after_win
        engine.close()

    def test_committed_transaction_survives_reopen(self, tmp_path):
        engine = MVCCEngine(data_dir=str(tmp_path))
        session = engine.session()
        session.begin()
        session.run(SCHEMA.strip() + "\n" + INSERT.format(name="aa", pop=1))
        session.commit()
        expected = engine.dump()
        engine.close()
        with connect(data_dir=str(tmp_path)) as recovered:
            assert recovered.dump() == expected
            assert count(recovered) == 1
