"""Statistics-driven cost estimation and plan choice.

The acceptance scenario for the statistics catalog: an equi-join whose
index nested-loop plan the textbook constants misprice.  With 200 outer
rows against a 4000-row B-tree on a *unique* key, each probe returns one
row and the index plan is far cheaper than the hash join — but the
textbook constants assume a fixed 1 % match fraction per probe (40 rows
here), so the cost-based optimizer picks the hash join until ``analyze``
tells it better.
"""

from __future__ import annotations

import pytest

from repro import observe
from repro.api import connect
from repro.models.relational import make_tuple
from repro.optimizer.standard_rules import cost_based_optimizer
from repro.stats.analyze import analyze_objects
from repro.storage.io import GLOBAL_PAGES

JOIN = "query orders customers join[cust = cid]"


def _join_session(n_orders=200, n_customers=4000, distinct_keys=None):
    """Orders (srel) joining customers (btree on cid).  ``distinct_keys``
    caps the number of distinct cid values (defaults to unique keys)."""
    session = connect(optimizer=cost_based_optimizer())
    session.run(
        """
type order = tuple(<(oid, int), (cust, int)>)
type customer = tuple(<(cid, int), (cname, string)>)
create orders : rel(order)
create customers : rel(customer)
create orders_rep : srel(order)
create customers_rep : btree(customer, cid, int)
update rep := insert(rep, orders, orders_rep)
update rep := insert(rep, customers, customers_rep)
"""
    )
    db = session.database
    order_t = db.aliases["order"]
    cust_t = db.aliases["customer"]
    orders = db.objects["orders_rep"].value
    custs = db.objects["customers_rep"].value
    keys = distinct_keys or n_customers
    for i in range(n_orders):
        orders.append(make_tuple(order_t, oid=i, cust=(i * 13) % keys))
    for i in range(n_customers):
        custs.insert(make_tuple(cust_t, cid=i % keys, cname=f"c{i}"))
    return session


class TestPlanChoice:
    def test_analyze_flips_hash_join_to_index_join(self):
        session = _join_session()
        textbook = session.run_one(JOIN)
        assert textbook.fired == ["equi_join_hash"]
        analyze_objects(session.database, ["orders", "customers"])
        before = GLOBAL_PAGES.stats.snapshot()
        informed = session.run_one(JOIN)
        assert informed.fired == ["equi_join_index"]
        # 4 pages of orders; the other 824 are the 200 B-tree probes.
        assert GLOBAL_PAGES.stats.delta(before).reads == 828
        # Same answer either way.
        assert len(informed.value) == len(textbook.value) == 200

    def test_low_distinct_key_keeps_hash_join(self):
        # 5 distinct cid values: every index probe would return 800 rows,
        # so the hash join stays cheaper even with perfect statistics.
        session = _join_session(distinct_keys=5)
        analyze_objects(session.database, ["orders", "customers"])
        result = session.run_one(JOIN)
        assert result.fired == ["equi_join_hash"]

    def test_stale_stats_withdraw_the_index_candidate(self):
        session = _join_session()
        analyze_objects(session.database, ["orders", "customers"])
        # The inner relation doubled since analyze: the entry is stale and
        # the StatsCondition on the index rule refuses to fire it.
        session.database.stats.note_rowcount("customers_rep", 8000)
        assert session.database.stats.get("customers_rep").stale
        result = session.run_one(JOIN)
        assert result.fired == ["equi_join_hash"]


class TestEstimates:
    def test_histogram_range_estimate_beats_constant(self, loaded_system):
        from repro.optimizer.cost import estimate

        db = loaded_system.database
        parser = loaded_system.make_parser()

        def plan_cost(text):
            stmt = parser.parse_statement(f"query {text}")
            return estimate(db.typechecker.check(stmt.expr), db)

        wide = "cities_rep feed filter[pop >= 0] count"
        narrow = "cities_rep feed filter[pop >= 9990] count"
        # Textbook constants price both filters identically...
        assert plan_cost(wide) == plan_cost(narrow)
        analyze_objects(db, ["cities"])
        # ...the histogram tells the selective one produces fewer rows.
        assert plan_cost(narrow) < plan_cost(wide)

    def test_stats_rowcount_replaces_default_size(self, loaded_system):
        from repro.optimizer.cost import estimate_with_cardinalities

        db = loaded_system.database
        parser = loaded_system.make_parser()
        stmt = parser.parse_statement("query cities_rep feed count")
        term = db.typechecker.check(stmt.expr)
        analyze_objects(db, ["cities"])
        _, cards = estimate_with_cardinalities(term, db)
        assert cards["feed"] == 40.0

    def test_observed_selectivity_wins_over_histogram(self, loaded_system):
        from repro.core.terms import format_term
        from repro.optimizer.cost import estimate_with_cardinalities

        db = loaded_system.database
        analyze_objects(db, ["cities"])
        parser = loaded_system.make_parser()
        stmt = parser.parse_statement(
            "query cities_rep feed filter[pop >= 5000] count"
        )
        term = db.typechecker.check(stmt.expr)
        pred = _first_filter_pred(term)
        db.stats.record_observed("cities_rep", format_term(pred), 0.25)
        _, cards = estimate_with_cardinalities(term, db)
        assert cards["filter"] == pytest.approx(10.0)


class TestCounters:
    def test_stats_hit_and_miss_counters(self, loaded_system):
        from repro.optimizer.cost import estimate

        db = loaded_system.database
        parser = loaded_system.make_parser()
        stmt = parser.parse_statement("query cities_rep feed count")
        term = db.typechecker.check(stmt.expr)
        with observe.collecting() as cold:
            estimate(term, db)
        assert cold.counters.get("cost.stats_miss", 0) > 0
        assert "cost.stats_hit" not in cold.counters
        analyze_objects(db, ["cities"])
        with observe.collecting() as warm:
            estimate(term, db)
        assert warm.counters.get("cost.stats_hit", 0) > 0

    def test_sample_fallback_counter(self, loaded_system):
        from repro.core.terms import Var
        from repro.optimizer.cost import FILTER_SELECTIVITY, sampled_selectivity

        db = loaded_system.database
        with observe.collecting() as sink:
            # Not a structure-naming source term: the silent constant
            # fallback, now accounted.
            sel = sampled_selectivity(Var("pred"), Var("ghost"), db)
        assert sel == FILTER_SELECTIVITY
        assert sink.counters["cost.sample_fallback"] == 1

    def test_explain_reports_estimate_basis(self, loaded_system):
        analyze_objects(loaded_system.database, ["cities"])
        info = loaded_system.explain("cities select[pop >= 5000]")
        assert any(k.startswith("cost.") for k in info["cost_counters"])


def _first_filter_pred(term):
    from repro.core.terms import Apply

    stack = [term]
    while stack:
        node = stack.pop()
        if isinstance(node, Apply):
            if node.op == "filter":
                return node.args[1]
            stack.extend(node.args)
    raise AssertionError("no filter in plan")
