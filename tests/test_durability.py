"""The durability layer outside the crash matrix: WAL codec and torn-tail
repair, group commit, checkpoint epoch rolls, atomic programs on disk,
session lifecycle — plus fault observability and statistics recovery.

The crash matrix itself (every WAL fault site × hit index) lives in
``tests/test_crash_matrix.py``; this file covers the mechanisms it relies
on and the API surface around them.
"""

import os

import pytest

from repro import observe
from repro.api import connect
from repro.durability import (
    DurabilityManager,
    RecoveryError,
    WalRecord,
    WriteAheadLog,
)
from repro.durability.manager import decode_checkpoint, encode_checkpoint
from repro.durability.wal import BEGIN, COMMIT, STMT, committed_statements, scan
from repro.errors import CatalogError, SOSError
from repro.storage.io import GLOBAL_PAGES
from repro.testing import clear_faults, inject

SETUP = [
    "type item = tuple(<(k, int), (name, string)>)",
    "create items : rel(item)",
    "create items_rep : btree(item, k, int)",
    "update rep := insert(rep, items, items_rep)",
    'update items := insert(items, mktuple[<(k, 1), (name, "one")>])',
    'update items := insert(items, mktuple[<(k, 2), (name, "two")>])',
]


@pytest.fixture(autouse=True)
def _clean_faults():
    yield
    clear_faults()


def open_db(tmp_path, **kwargs):
    kwargs.setdefault("checkpoint_interval", 0)
    return connect(data_dir=str(tmp_path / "db"), **kwargs)


def logged_workload(tmp_path, **kwargs):
    """The schema plus 30 single-row inserts, each its own commit."""
    db = open_db(tmp_path, **kwargs)
    for text in SETUP[:4]:
        db.run_one(text)
    for i in range(30):
        db.run_one(
            f'update items := insert(items, mktuple[<(k, {i}), (name, "r{i}")>])'
        )
    db.close()


def prepared(tmp_path, **kwargs):
    db = open_db(tmp_path, **kwargs)
    for text in SETUP:
        db.run_one(text)
    return db


# --------------------------------------------------------------------------
# WAL codec, scan, torn-tail repair
# --------------------------------------------------------------------------


class TestWalFile:
    def test_record_roundtrip(self):
        for record in (
            WalRecord(BEGIN, 1),
            WalRecord(STMT, 1, 'update x := insert(x, "päyload")'),
            WalRecord(COMMIT, 1),
        ):
            assert WalRecord.decode(record.encode()) == record

    def test_scan_reads_back_appends(self, tmp_path):
        path = str(tmp_path / "wal.log")
        wal = WriteAheadLog(path)
        wal.append(WalRecord(BEGIN, 1))
        wal.append(WalRecord(STMT, 1, "update a := 1"))
        wal.append(WalRecord(COMMIT, 1))
        wal.close()
        records, good = scan(path)
        assert [r.type for r in records] == [BEGIN, STMT, COMMIT]
        assert good == os.path.getsize(path)

    def test_scan_missing_file_is_empty(self, tmp_path):
        assert scan(str(tmp_path / "nope.log")) == ([], 0)

    @pytest.mark.parametrize(
        "garbage",
        [b"\x07", b"\xff" * 6, b"\xff\xff\xff\x7f" + b"\x00" * 40],
        ids=["short-header", "short-payload", "absurd-length"],
    )
    def test_torn_tail_detected_and_truncated(self, tmp_path, garbage):
        path = str(tmp_path / "wal.log")
        wal = WriteAheadLog(path)
        wal.append(WalRecord(BEGIN, 1))
        wal.append(WalRecord(STMT, 1, "update a := 1"))
        wal.close()
        clean_size = os.path.getsize(path)
        with open(path, "ab") as f:
            f.write(garbage)
        records, good = scan(path)
        assert len(records) == 2 and good == clean_size
        # reopening truncates the tail back to the record boundary
        WriteAheadLog(path).close()
        assert os.path.getsize(path) == clean_size

    def test_corrupt_crc_ends_scan(self, tmp_path):
        path = str(tmp_path / "wal.log")
        wal = WriteAheadLog(path)
        wal.append(WalRecord(BEGIN, 1))
        wal.append(WalRecord(COMMIT, 1))
        wal.close()
        with open(path, "rb") as f:
            data = bytearray(f.read())
        data[-1] ^= 0xFF  # flip a payload byte of the last record
        with open(path, "wb") as f:
            f.write(bytes(data))
        records, good = scan(path)
        assert [r.type for r in records] == [BEGIN]
        assert good < len(data)

    def test_committed_statements_filters_uncommitted(self):
        records = [
            WalRecord(BEGIN, 1),
            WalRecord(STMT, 1, "one"),
            WalRecord(COMMIT, 1),
            WalRecord(BEGIN, 2),
            WalRecord(STMT, 2, "two"),  # no commit: crashed mid-execution
        ]
        assert [r.text for r in committed_statements(records)] == ["one"]


class TestCheckpointCodec:
    def test_roundtrip(self):
        body = "-- database dump\ncreate a : int\nupdate a := 1\n"
        assert decode_checkpoint(encode_checkpoint(3, body)) == body

    def test_tampered_body_rejected(self):
        text = encode_checkpoint(1, "create a : int\n")
        header, _, body = text.partition("\n")
        tampered = header + "\n" + body.replace("int", "str")
        with pytest.raises(RecoveryError):
            decode_checkpoint(tampered)

    def test_missing_header_rejected(self):
        with pytest.raises(RecoveryError):
            decode_checkpoint("create a : int\n")


# --------------------------------------------------------------------------
# Manager behavior: group commit, epoch rolls, atomic programs
# --------------------------------------------------------------------------


class TestDurableSession:
    def test_roundtrip_and_replay_count(self, tmp_path):
        db = prepared(tmp_path)
        before = db.dump()
        db.close()
        with open_db(tmp_path) as recovered:
            assert recovered.durability.replayed_statements == len(SETUP)
            assert recovered.dump() == before
            assert recovered.query("items select[k >= 2]").value is not None

    def test_group_commit_batches_fsyncs(self, tmp_path):
        db = open_db(tmp_path, group_commit=3)
        opened = GLOBAL_PAGES.stats.fsyncs

        def synced():
            return GLOBAL_PAGES.stats.fsyncs - opened

        db.run_one(SETUP[0])
        db.run_one(SETUP[1])
        assert synced() == 0  # two commits pending, below the batch size
        db.run_one(SETUP[2])
        assert synced() == 1  # third commit syncs the batch
        db.run_one(SETUP[3])
        assert synced() == 1
        db.flush()
        assert synced() == 2  # explicit flush covers the pending commit
        db.flush()
        assert synced() == 2  # nothing pending: flush is a no-op
        db.close()

    @pytest.mark.parametrize("group_commit, fsyncs", [(1, 35), (8, 5)])
    def test_log_traffic_is_exact(self, tmp_path, group_commit, fsyncs):
        # 4 schema statements and 30 inserts, three records each; one
        # fsync per commit or per batch of eight, plus the close.
        before = GLOBAL_PAGES.stats.snapshot()
        logged_workload(tmp_path, group_commit=group_commit)
        io = GLOBAL_PAGES.stats.delta(before)
        assert (io.log_writes, io.log_bytes, io.fsyncs) == (102, 4769, fsyncs)

    def test_reopen_replays_without_logging(self, tmp_path):
        logged_workload(tmp_path)
        before = GLOBAL_PAGES.stats.snapshot()
        with open_db(tmp_path) as reopened:
            assert reopened.durability.replayed_statements == 34
        assert GLOBAL_PAGES.stats.delta(before).log_writes == 0
        with open_db(tmp_path) as reopened:
            reopened.checkpoint()
        with open_db(tmp_path) as reopened:
            assert reopened.durability.replayed_statements == 0

    def test_checkpoint_rolls_epoch_and_prunes_files(self, tmp_path):
        db = prepared(tmp_path)
        assert db.checkpoint() == 1
        data_dir = tmp_path / "db"
        assert sorted(os.listdir(data_dir)) == ["checkpoint-1.sos", "wal-1.log"]
        db.run_one('update items := insert(items, mktuple[<(k, 3), (name, "x")>])')
        assert db.checkpoint() == 2
        assert sorted(os.listdir(data_dir)) == ["checkpoint-2.sos", "wal-2.log"]
        before = db.dump()
        db.close()
        with open_db(tmp_path) as recovered:
            assert recovered.durability.epoch == 2
            assert recovered.durability.replayed_statements == 0
            assert recovered.dump() == before

    def test_automatic_checkpoint_by_interval(self, tmp_path):
        with connect(data_dir=str(tmp_path / "db"), checkpoint_interval=4) as db:
            for text in SETUP:
                db.run_one(text)
            assert db.durability.epoch >= 1  # 6 committed statements, interval 4

    def test_atomic_program_failure_is_invisible_after_reboot(self, tmp_path):
        db = prepared(tmp_path)
        before = db.dump()
        program = (
            'update items := insert(items, mktuple[<(k, 7), (name, "p")>])\n'
            "update items := insert(items, no_such_object)"
        )
        with pytest.raises(SOSError):
            db.run(program, atomic=True)
        with open_db(tmp_path) as recovered:  # crash without close
            assert recovered.dump() == before
        db.close()  # the crashed handle, released after the crash point

    def test_atomic_program_success_is_durable(self, tmp_path):
        db = prepared(tmp_path)
        db.run(
            'update items := insert(items, mktuple[<(k, 7), (name, "p")>])\n'
            'update items := insert(items, mktuple[<(k, 8), (name, "q")>])',
            atomic=True,
        )
        after = db.dump()
        with open_db(tmp_path) as recovered:  # crash without close
            assert recovered.dump() == after
        db.close()  # the crashed handle, released after the crash point

    def test_closed_session_answers_queries_but_refuses_mutations(self, tmp_path):
        db = prepared(tmp_path)
        db.close()
        assert db.query("items select[k >= 1]").value is not None
        with pytest.raises(CatalogError, match="closed"):
            db.run_one('update items := insert(items, mktuple[<(k, 9), (name, "z")>])')

    def test_session_is_a_context_manager(self, tmp_path):
        with open_db(tmp_path) as db:
            db.run_one(SETUP[0])
            manager = db.durability
        assert not manager.active

    def test_model_interpreter_rejects_data_dir(self, tmp_path):
        with pytest.raises(CatalogError):
            connect(model="model", data_dir=str(tmp_path / "db"))

    def test_double_attach_rejected(self, tmp_path):
        with open_db(tmp_path) as db, pytest.raises(RuntimeError):
            DurabilityManager(str(tmp_path / "other")).attach(db.system)

    def test_checkpoint_without_data_dir_rejected(self):
        with pytest.raises(CatalogError):
            connect().checkpoint()

    def test_queries_are_not_logged(self, tmp_path):
        db = prepared(tmp_path)
        before = GLOBAL_PAGES.stats.snapshot()
        db.query("items select[k >= 1]")
        assert GLOBAL_PAGES.stats.delta(before).log_writes == 0
        db.close()


# --------------------------------------------------------------------------
# Satellite: injected faults are visible in observe metrics
# --------------------------------------------------------------------------


class TestFaultObservability:
    def test_triggered_fault_bumps_counters(self, tmp_path):
        db = prepared(tmp_path)
        with observe.collecting() as metrics:
            with inject("wal.append", at=1):
                with pytest.raises(SOSError):
                    db.run_one(
                        'update items := insert(items, mktuple[<(k, 5), (name, "f")>])'
                    )
        assert metrics.counters["fault.injected"] == 1
        assert metrics.counters["fault.wal.append"] == 1
        db.close()

    def test_armed_but_untriggered_fault_is_silent(self, tmp_path):
        db = prepared(tmp_path)
        with observe.collecting() as metrics:
            with inject("wal.append", at=99):
                db.run_one(
                    'update items := insert(items, mktuple[<(k, 5), (name, "f")>])'
                )
        assert "fault.injected" not in metrics.counters
        db.close()

    def test_wal_counters_account_appends_and_fsyncs(self, tmp_path):
        db = prepared(tmp_path)
        with observe.collecting() as metrics:
            db.run_one('update items := insert(items, mktuple[<(k, 6), (name, "g")>])')
        assert metrics.counters["wal.appends"] == 3  # begin, stmt, commit
        assert metrics.counters["wal.fsyncs"] == 1
        assert metrics.counters["wal.bytes"] > 0
        db.close()


# --------------------------------------------------------------------------
# Satellite: statistics across checkpoint/recovery
# --------------------------------------------------------------------------


class TestStatsRecovery:
    def test_stats_survive_wal_replay(self, tmp_path):
        db = prepared(tmp_path)
        db.analyze("items")
        assert db.stats("items")
        db.close()
        with open_db(tmp_path) as recovered:
            assert set(recovered.stats("items")) == set(db.stats("items"))

    def test_stats_survive_checkpoint(self, tmp_path):
        db = prepared(tmp_path)
        db.analyze("items")
        db.checkpoint()
        db.close()
        with open_db(tmp_path) as recovered:
            assert recovered.durability.replayed_statements == 0
            assert recovered.stats("items")
            report = recovered.explain("items select[k >= 2]")
        assert report["cost_counters"].get("cost.stats_hit", 0) > 0

    def test_no_phantom_stats_after_recovery(self, tmp_path):
        db = prepared(tmp_path)  # never analyzed
        db.checkpoint()
        db.close()
        with open_db(tmp_path) as recovered:
            assert recovered.stats("items") == {}
            report = recovered.explain("items select[k >= 2]")
        assert report["cost_counters"].get("cost.stats_hit", 0) == 0


class TestSecondaryIndexRecovery:
    def test_index_survives_checkpoint_after_heap_write(self, tmp_path):
        """``build_index``, then a heap insert, then a checkpoint: the
        checkpoint dump must rebuild the index over the heap."""
        from repro.server import MVCCEngine

        data_dir = str(tmp_path / "db")
        engine = MVCCEngine(data_dir=data_dir)
        engine.session().run(
            """
type item = tuple(<(sku, string), (price, int)>)
create heap : tidrel(item)
create idx : sindex(item, price, int)
update heap := insert(heap, mktuple[<(sku, "a"), (price, 1)>])
update idx := build_index(heap, price)
update heap := insert(heap, mktuple[<(sku, "b"), (price, 2)>])
"""
        )
        engine.checkpoint()
        engine.close()
        reopened = MVCCEngine(data_dir=data_dir)
        try:
            r = reopened.session().run_one("query idx sindex_exact[1]")
            assert [t.attr("sku") for t in r.value] == ["a"]
        finally:
            reopened.close()
