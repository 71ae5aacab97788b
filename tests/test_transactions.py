"""Transactional statement execution: rollback, savepoints, atomic programs."""

import pytest

from repro.core.types import TypeApp
from repro.errors import CatalogError, OptimizationError, StatementError
from repro.storage.io import PageManager
from repro.storage.tidrel import SecondaryIndex, TidRelation
from repro.system import SOSSystem, build_relational_system
from repro.system.transactions import (
    Transaction,
    clone_value,
    statement_transaction,
)
from repro.testing import database_fingerprint

CITY = 'mktuple[<(cname, "{name}"), (center, pt({x}, {y})), (pop, {pop})>]'


def city(name, x, y, pop):
    return CITY.format(name=name, x=x, y=y, pop=pop)


@pytest.fixture()
def session():
    system = build_relational_system()
    system.run(
        """
type city = tuple(<(cname, string), (center, point), (pop, int)>)
create cities : rel(city)
create cities_rep : btree(city, pop, int)
update rep := insert(rep, cities, cities_rep)
"""
    )
    for i, pop in enumerate([100, 5000, 20000]):
        system.run_one(f"update cities := insert(cities, {city('c%d' % i, i, i, pop)})")
    return system


class TestCloneRestore:
    def test_immutables_are_shared(self):
        assert clone_value(42) == 42
        assert clone_value("s") == "s"
        assert clone_value(None) is None

    def test_btree_clone_is_independent(self):
        from repro.storage.btree import BTree

        bt = BTree(key=lambda t: t, pages=PageManager())
        for k in range(50):
            bt.insert(k)
        twin = bt.clone()
        bt.insert(99)
        assert len(bt) == 51
        assert len(twin) == 50
        assert list(twin.scan()) == list(range(50))
        twin.check_invariants()


class TestTransaction:
    def test_commit_keeps_changes(self, session):
        db = session.database
        txn = Transaction(db)
        db.transaction = txn
        try:
            SOSSystem(db).run_one("create n : int")
        finally:
            db.transaction = None
        txn.commit()
        assert db.has_object("n")
        assert not txn.active

    def test_rollback_restores_catalog_and_values(self, session):
        db = session.database
        before = database_fingerprint(db)
        txn = Transaction(db)
        db.transaction = txn
        try:
            SOSSystem(db).run_one("type width = int")
            SOSSystem(db).run_one("create n : int")
            session.run_one(
                f"update cities := insert(cities, {city('x', 9, 9, 123)})"
            )
        finally:
            db.transaction = None
        txn.rollback()
        assert database_fingerprint(db) == before
        assert "width" not in db.aliases
        assert not db.has_object("n")

    def test_savepoint_partial_rollback(self, session):
        db = session.database
        txn = Transaction(db)
        db.transaction = txn
        try:
            SOSSystem(db).run_one("create a : int")
            sp = txn.savepoint()
            SOSSystem(db).run_one("create b : int")
            txn.rollback(sp)
        finally:
            db.transaction = None
        assert txn.active  # savepoint rollback keeps the transaction alive
        assert db.has_object("a")
        assert not db.has_object("b")
        txn.commit()
        assert db.has_object("a")

    def test_finished_transaction_refuses_reuse(self, session):
        txn = Transaction(session.database)
        txn.commit()
        with pytest.raises(RuntimeError):
            txn.protect("cities_rep")
        with pytest.raises(RuntimeError):
            txn.rollback()

    def test_foreign_savepoint_rejected(self, session):
        txn = Transaction(session.database)
        other = Transaction(session.database)
        sp = other.savepoint()
        with pytest.raises(RuntimeError):
            txn.rollback(sp)

    def test_rollback_preserves_value_identity_and_aliases(self):
        """Protection gives the statement private copies, so a rollback
        brings back the pre-statement objects, whose values were never
        written, and a secondary index still answers over its heap."""
        pages = PageManager()
        heap = TidRelation(pages=pages)
        heap.stream_insert([(i, f"t{i}") for i in range(10)])
        index = SecondaryIndex(heap, key=lambda t: t[0], pages=pages)
        index.build()

        system = build_relational_system()
        db = system.database
        obj = db.create("heap_obj", TypeApp("int"))  # type is irrelevant here
        obj.value = heap
        iobj = db.create("index_obj", TypeApp("int"))
        iobj.value = index

        txn = Transaction(db)
        txn.protect("heap_obj", "index_obj")
        private_heap = db.objects["heap_obj"].value
        private_index = db.objects["index_obj"].value
        assert private_heap is not heap and private_index is not index
        tid = private_heap.insert((99, "t99"))
        private_index.insert(tid, (99, "t99"))
        txn.rollback()

        assert db.objects["heap_obj"] is obj and obj.value is heap
        assert db.objects["index_obj"] is iobj and iobj.value is index
        assert len(heap) == 10  # never written
        assert [t[0] for t in heap.scan()] == list(range(10))
        assert index.relation is heap  # aliasing intact
        assert list(index.fetch_range(3, 3)) == [(3, "t3")]
        assert list(index.tids_in_range(99, 99)) == []


class TestStatementAtomicity:
    def test_failed_statement_has_no_effect(self, session):
        db = session.database
        before = database_fingerprint(db)
        with pytest.raises(CatalogError):
            session.run_one("update nosuch := insert(nosuch, 1)")
        assert database_fingerprint(db) == before

    def test_session_continues_after_error(self, session):
        with pytest.raises(StatementError):
            session.run_one("query undefined_object_name")
        r = session.run_one("query cities_rep feed count")
        assert r.value == 3

    def test_program_error_keeps_earlier_statements(self, session):
        db = session.database
        with pytest.raises(StatementError):
            session.run(
                "create tmp2 : rel(city)\nupdate tmp2 := insert(tmp2, 1)"
            )
        # non-atomic program: statement 1 committed, statement 2 rolled back
        assert db.has_object("tmp2")

    def test_untranslatable_update_rolls_back(self, session):
        db = session.database
        session.run_one("create loners : rel(city)")
        before = database_fingerprint(db)
        with pytest.raises(OptimizationError):
            session.run_one(f"update loners := insert(loners, {city('x', 1, 1, 1)})")
        assert database_fingerprint(db) == before


    def test_statement_leaves_no_reference_cycles(self, session):
        """The frames of a statement hold its savepoints.  A reference
        cycle through them would keep every object the statement replaced
        alive until the cycle collector runs."""
        import gc

        insert = f"update cities := insert(cities, {city('x', 9, 9, 123)})"
        session.run_one(insert)  # warm the caches
        gc.collect()
        gc.disable()
        try:
            session.run_one(insert)
            session.run_one("query cities_rep feed count")
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestAtomicPrograms:
    def test_atomic_program_commits_all_or_nothing(self, session):
        db = session.database
        before = database_fingerprint(db)
        with pytest.raises(StatementError):
            session.run(
                f"""
update cities := insert(cities, {city('x', 9, 9, 777)})
create extra : int
query undefined_object_name
""",
                atomic=True,
            )
        assert database_fingerprint(db) == before
        assert not db.has_object("extra")

    def test_atomic_program_success(self, session):
        results = session.run(
            f"""
update cities := insert(cities, {city('x', 9, 9, 777)})
update cities := insert(cities, {city('y', 8, 8, 888)})
""",
            atomic=True,
        )
        assert len(results) == 2
        assert session.query("cities_rep feed count").value == 5

    def test_nested_program_transaction_rejected(self, session):
        from repro.system.transactions import program_transaction

        with program_transaction(session.database):
            with pytest.raises(RuntimeError):
                with program_transaction(session.database):
                    pass


class TestStatementErrors:
    def test_wrapped_error_keeps_original_class(self, session):
        with pytest.raises(CatalogError) as info:
            session.run_one("delete nosuch")
        assert isinstance(info.value, StatementError)
        assert info.value.phase == "execute"
        assert info.value.index is None
        assert "nosuch" in info.value.source

    def test_program_error_carries_index_and_source(self, session):
        with pytest.raises(StatementError) as info:
            session.run("query 1 + 1\nquery undefined_object_name\nquery 2")
        err = info.value
        assert err.index == 1
        assert err.snippet() == "query undefined_object_name"
        assert "statement 2" in str(err)

    def test_parse_phase(self, session):
        with pytest.raises(StatementError) as info:
            session.run_one("query ((1 + ")
        assert info.value.phase == "parse"

    def test_typecheck_phase(self, session):
        with pytest.raises(StatementError) as info:
            session.run_one('query 1 + "s"')
        assert info.value.phase == "typecheck"

    def test_optimize_phase(self, session):
        session.run_one("create loners : rel(city)")
        with pytest.raises(StatementError) as info:
            session.run_one(f"update loners := insert(loners, {city('x', 1, 1, 1)})")
        assert info.value.phase == "optimize"

    def test_interpreter_wraps_errors_too(self):
        from repro.system import build_model_interpreter

        interp = build_model_interpreter()
        with pytest.raises(StatementError) as info:
            interp.run("type t = tuple(<(a, int)>)\ncreate r : rel(t)\ndelete gone")
        assert info.value.index == 2
        assert isinstance(info.value, CatalogError)


class TestStatementTransactionHelper:
    def test_commit_on_success(self, session):
        db = session.database
        with statement_transaction(db):
            db.create("fresh", TypeApp("int"))
        assert db.transaction is None
        assert db.has_object("fresh")

    def test_rollback_on_error(self, session):
        db = session.database
        with pytest.raises(ValueError):
            with statement_transaction(db):
                db.create("fresh", TypeApp("int"))
                raise ValueError("boom")
        assert db.transaction is None
        assert not db.has_object("fresh")

    def test_statement_releases_its_savepoint(self, session):
        """A statement inside a transaction drops its savepoint (and any
        later one) when it ends, so a long transaction keeps none."""
        from repro.system.transactions import program_transaction

        db = session.database
        with program_transaction(db) as txn:
            with statement_transaction(db):
                inner = txn.savepoint()
                db.create("fresh", TypeApp("int"))
            with pytest.raises(RuntimeError):
                txn.rollback(inner)
        assert db.has_object("fresh")
