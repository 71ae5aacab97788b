"""Deterministic fault injection and the crash-consistency property.

The core property, asserted for **every** registered fault site: take a
mixed Section-6 session, inject a fault at the Nth hit of the site during
one more statement, and the database state (catalog, aliases, every object
value) is exactly the pre-statement state; clearing the fault and re-running
the same statement succeeds and changes the state.  The same probes run
inside an open MVCC transaction, where the fault must also leave the
committed store untouched and the transaction able to commit.
"""

import pytest

from repro.errors import SOSError
from repro.server import MVCCEngine
from repro.system import SOSSystem, build_relational_system
from repro.system.transactions import statement_transaction
from repro.testing import (
    FAULT_SITES,
    MVCC_FAULT_SITES,
    WAL_FAULT_SITES,
    FaultPlan,
    InjectedFault,
    arm,
    clear_faults,
    database_fingerprint,
    fault_point,
    inject,
)


def city(name, x, y, pop):
    return f'mktuple[<(cname, "{name}"), (center, pt({x}, {y})), (pop, {pop})>]'


def state(name, i):
    return (
        f'mktuple[<(sname, "{name}"), '
        f"(region, region_box({i * 20}, 0, {i * 20 + 20}, 100))>]"
    )


SCHEMA = """
type city = tuple(<(cname, string), (center, point), (pop, int)>)
type state = tuple(<(sname, string), (region, pgon)>)
create cities : rel(city)
create states : rel(state)
create cities_rep : btree(city, pop, int)
create states_rep : lsdtree(state, fun (s: state) bbox(s region))
update rep := insert(rep, cities, cities_rep)
update rep := insert(rep, states, states_rep)
create scratch_srel : srel(city)
create scratch_tid : tidrel(city)
create aux : rel(city)
create aux_rep : btree(city, pop, int)
"""


def _populate(run_one) -> None:
    for i, pop in enumerate([100, 5000, 20000, 7, 7]):
        run_one(f"update cities := insert(cities, {city('c%d' % i, i, i, pop)})")
    for i in range(3):
        run_one(f"update states := insert(states, {state('s%d' % i, i)})")
    run_one("update scratch_tid := stream_insert(scratch_tid, cities_rep feed)")


@pytest.fixture()
def session():
    """A mixed Section-6 session: model relations over a B-tree and an
    LSD-tree, scratch representation structures, a model-level relation
    executed directly, and the ``rep`` catalog."""
    system = build_relational_system()
    system.run(SCHEMA)
    _populate(system.run_one)
    # a model-level relation executed directly by a system with no optimizer
    direct = SOSSystem(system.database)
    direct.run_one("create mrel : rel(city)")
    for i, pop in enumerate([7, 7, 400]):
        direct.run_one(f"update mrel := insert(mrel, {city('m%d' % i, i, i, pop)})")
    return system


# --------------------------------------------------------------------------
# Probes: for each fault site, one more statement (or protected operation)
# of the session that hits the site — at the Nth hit, so several probes
# fault *mid-mutation* and leave genuine partial state for the rollback.
# --------------------------------------------------------------------------


def _stmt(runner: str, text: str):
    def probe(system):
        target = system if runner == "system" else SOSSystem(system.database)
        target.run_one(text)

    # An engine session can run the statements of the optimizing system.
    probe.statement = text if runner == "system" else None
    return probe


def _tid_delete(system):
    db = system.database
    with statement_transaction(db):
        db.protect("scratch_tid")
        heap = db.objects["scratch_tid"].value
        for tid, _ in list(heap.scan_with_tids())[:2]:
            heap.delete(tid)


def _tid_replace(system):
    db = system.database
    with statement_transaction(db):
        db.protect("scratch_tid")
        heap = db.objects["scratch_tid"].value
        (tid_a, val_a), (tid_b, val_b) = list(heap.scan_with_tids())[:2]
        heap.replace(tid_a, val_b)
        heap.replace(tid_b, val_a)


INSERT_X = f"update cities := insert(cities, {city('x', 9, 9, 4242)})"

PROBES = {
    "btree.insert": (1, _stmt("system", INSERT_X)),
    "btree.delete": (2, _stmt("system", "update cities := delete(cities, pop <= 10000)")),
    "btree.modify": (
        2,
        _stmt("system", 'update cities := modify(cities, pop = 7, cname, "m")'),
    ),
    "btree.re_insert": (
        2,
        _stmt("system", "update cities := modify(cities, pop = 7, pop, pop * 3)"),
    ),
    "lsdtree.insert": (1, _stmt("system", f"update states := insert(states, {state('sx', 4)})")),
    "lsdtree.delete": (
        2,
        _stmt("system", "update states_rep := delete(states_rep, states_rep feed)"),
    ),
    "tidrel.insert": (
        3,
        _stmt("system", "update scratch_tid := stream_insert(scratch_tid, cities_rep feed)"),
    ),
    "tidrel.delete": (2, _tid_delete),
    "tidrel.replace": (2, _tid_replace),
    "srel.append": (
        3,
        _stmt("system", "update scratch_srel := stream_insert(scratch_srel, cities_rep feed)"),
    ),
    "catalog.insert": (1, _stmt("system", "update rep := insert(rep, aux, aux_rep)")),
    "catalog.remove": (1, _stmt("system", "update rep := cat_remove(rep, cities, cities_rep)")),
    "rel.insert": (1, _stmt("direct", f"update mrel := insert(mrel, {city('y', 8, 8, 99)})")),
    "rel.delete": (1, _stmt("direct", "update mrel := delete(mrel, pop <= 10000)")),
    "rel.modify": (1, _stmt("direct", 'update mrel := modify(mrel, pop = 7, cname, "q")')),
    "evaluator.apply": (2, _stmt("system", INSERT_X)),
    "database.set_value": (1, _stmt("system", INSERT_X)),
    "optimizer.rule": (1, _stmt("system", INSERT_X)),
}


def test_every_registered_site_has_a_probe():
    # The durability-layer and multi-session sites need a durable session
    # or a server to fire; their crash matrices live in
    # tests/test_crash_matrix.py (and tests/test_server.py for the ack).
    assert set(PROBES) == (
        set(FAULT_SITES) - set(WAL_FAULT_SITES) - set(MVCC_FAULT_SITES)
    )


@pytest.mark.parametrize(
    "site",
    sorted(set(FAULT_SITES) - set(WAL_FAULT_SITES) - set(MVCC_FAULT_SITES)),
)
def test_crash_consistency_at_every_site(session, site):
    at, probe = PROBES[site]
    before = database_fingerprint(session.database)
    with inject(site, at=at) as plan:
        with pytest.raises(InjectedFault):
            probe(session)
        assert plan.triggered
    # the statement had zero partial effect ...
    assert database_fingerprint(session.database) == before
    # ... and once the fault is cleared, the same statement goes through
    # and actually changes the state.
    probe(session)
    assert database_fingerprint(session.database) != before


# --------------------------------------------------------------------------
# The same probes inside an open MVCC transaction
# --------------------------------------------------------------------------

ENGINE_PROBES = {
    site: (at, probe.statement)
    for site, (at, probe) in PROBES.items()
    if getattr(probe, "statement", None) is not None
}


@pytest.fixture()
def engine_session():
    engine = MVCCEngine()
    session = engine.session()
    session.run(SCHEMA)
    _populate(session.run_one)
    return engine, session


def _workspace_fingerprint(engine, session):
    """The state the session's open transaction has reached (its parked
    workspace, installed for the look)."""
    with engine._lock, engine._workspace(session._txn):
        return database_fingerprint(engine.database)


@pytest.mark.parametrize("site", sorted(ENGINE_PROBES))
def test_crash_consistency_inside_an_mvcc_transaction(engine_session, site):
    engine, session = engine_session
    at, statement = ENGINE_PROBES[site]
    committed = database_fingerprint(engine.database)
    session.begin()
    # an earlier write, so the statement's savepoint is not the snapshot
    session.run_one(f"update cities := insert(cities, {city('w', 5, 5, 4000)})")
    before = _workspace_fingerprint(engine, session)
    with inject(site, at=at) as plan:
        with pytest.raises(InjectedFault):
            session.run_one(statement)
        assert plan.triggered
    assert _workspace_fingerprint(engine, session) == before
    assert database_fingerprint(engine.database) == committed
    # the transaction is still usable, its writes stay private until it
    # commits, and the commit publishes exactly its workspace
    session.run_one(statement)
    after = _workspace_fingerprint(engine, session)
    assert after != before
    assert database_fingerprint(engine.database) == committed
    session.commit()
    assert database_fingerprint(engine.database) == after


# --------------------------------------------------------------------------
# Harness mechanics
# --------------------------------------------------------------------------


class TestFaultHarness:
    def teardown_method(self):
        clear_faults()

    def test_disarmed_fault_point_is_a_no_op(self):
        fault_point("btree.insert")  # nothing armed: must not raise

    def test_plan_counts_hits_and_fires_on_nth(self):
        plan = FaultPlan("btree.insert", at=3)
        arm(plan)
        fault_point("btree.insert")
        fault_point("btree.insert")
        with pytest.raises(InjectedFault):
            fault_point("btree.insert")
        assert plan.hits == 3
        assert plan.triggered

    def test_fires_only_once(self):
        arm(FaultPlan("btree.insert", at=1))
        with pytest.raises(InjectedFault):
            fault_point("btree.insert")
        fault_point("btree.insert")  # already triggered: passes through

    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError):
            arm(FaultPlan("nonexistent.site"))
        with pytest.raises(ValueError):
            with inject("nonexistent.site"):
                pass

    def test_other_sites_unaffected(self):
        arm(FaultPlan("btree.insert", at=1))
        fault_point("btree.delete")
        fault_point("srel.append")

    def test_inject_clears_on_exit(self):
        with pytest.raises(InjectedFault):
            with inject("btree.insert"):
                fault_point("btree.insert")
        fault_point("btree.insert")

    def test_injected_fault_is_an_soserror(self):
        assert issubclass(InjectedFault, SOSError)
