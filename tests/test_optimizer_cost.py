"""The cost model and cost-based rule choice (Gral-style refinement)."""

import pytest

from repro.optimizer.cost import estimate
from repro.optimizer.standard_rules import (
    cost_based_optimizer,
    misordered_optimizer,
)


@pytest.fixture()
def db(loaded_system):
    return loaded_system.database


def _plan(loaded_system, text):
    statement = loaded_system.make_parser().parse_statement(text)
    return loaded_system.database.typechecker.check(statement.expr)


class TestCostModel:
    def test_range_cheaper_than_scan(self, loaded_system, db):
        scan = _plan(loaded_system, "query cities_rep feed filter[pop >= 9000]")
        ranged = _plan(loaded_system, "query cities_rep range[9000, top]")
        assert estimate(ranged, db) < estimate(scan, db)

    def test_index_join_cheaper_than_scan_join(self, loaded_system, db):
        scan = _plan(
            loaded_system,
            "query cities_rep feed "
            "fun (c: city) states_rep feed filter[fun (s: state) c center inside s region] "
            "search_join",
        )
        index = _plan(
            loaded_system,
            "query cities_rep feed "
            "fun (c: city) states_rep (c center) point_search "
            "filter[fun (s: state) c center inside s region] "
            "search_join",
        )
        assert estimate(index, db) < estimate(scan, db)

    def test_model_plans_are_penalized(self, loaded_system, db):
        model = _plan(loaded_system, "query cities select[pop >= 9000]")
        rep = _plan(loaded_system, "query cities_rep feed filter[pop >= 9000]")
        assert estimate(model, db) > 1e9
        assert estimate(rep, db) < 1e9

    def test_uses_actual_structure_sizes(self, loaded_system, db):
        feed = _plan(loaded_system, "query cities_rep feed")
        assert estimate(feed, db) == pytest.approx(40.0)  # 40 loaded cities


class TestSampledSelectivity:
    def test_sampling_reflects_the_data(self, loaded_system, db):
        """Predicates of very different selectivity get equal costs with the
        textbook constant, different costs with data-aware sampling."""
        everything = _plan(loaded_system, "query cities_rep feed filter[pop >= 0]")
        nothing = _plan(
            loaded_system, "query cities_rep feed filter[pop >= 99999999]"
        )
        assert estimate(everything, db) == estimate(nothing, db)
        # cardinalities drive downstream cost; compare on a consuming plan
        down_all = _plan(
            loaded_system, "query cities_rep feed filter[pop >= 0] collect"
        )
        down_none = _plan(
            loaded_system,
            "query cities_rep feed filter[pop >= 99999999] collect",
        )
        assert estimate(down_all, db, sample=True) > estimate(
            down_none, db, sample=True
        )

    def test_sampling_never_crashes_on_odd_plans(self, loaded_system, db):
        plan = _plan(loaded_system, "query cities_rep feed count")
        assert estimate(plan, db, sample=True) > 0


class TestCostBasedChoice:
    def test_order_insensitive_plan_quality(self, loaded_system):
        """With worst-first rule order, first-match produces a scan plan;
        cost-based choice still finds the index plan."""
        loaded_system.optimizer = misordered_optimizer()
        r = loaded_system.run_one("query cities select[pop >= 9000]")
        assert r.fired == ["select_scan"]

        loaded_system.optimizer = cost_based_optimizer(shuffled=True)
        r = loaded_system.run_one("query cities select[pop >= 9000]")
        assert r.fired == ["select_ge_btree_range"]

    def test_cost_based_spatial_join(self, loaded_system):
        loaded_system.optimizer = cost_based_optimizer(shuffled=True)
        r = loaded_system.run_one("query cities states join[center inside region]")
        assert r.fired == ["join_inside_lsdtree"]
        assert len(r.value) == 40

    def test_cost_based_results_match_first_match(self, loaded_system):
        from repro.optimizer.standard_rules import standard_optimizer

        loaded_system.optimizer = standard_optimizer()
        a = loaded_system.run_one("query cities select[pop >= 5000]").value
        loaded_system.optimizer = cost_based_optimizer()
        b = loaded_system.run_one("query cities select[pop >= 5000]").value
        assert sorted(t.attr("cname") for t in a) == sorted(
            t.attr("cname") for t in b
        )
