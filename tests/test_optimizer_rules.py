"""The standard rule set and the rule engine (experiment E9, Section 5)."""

import pytest

from repro.core.terms import Apply, format_term, walk_terms
from repro.errors import OptimizationError


def ops_of(term):
    return [n.op for n in walk_terms(term) if isinstance(n, Apply)]


@pytest.fixture()
def sysq(loaded_system):
    """Shortcut: run one query through the loaded system."""

    def run(text):
        return loaded_system.run_one("query " + text)

    return run


class TestSelectionRules:
    def test_ge_becomes_pure_range(self, loaded_system):
        r = loaded_system.run_one("query cities select[pop >= 5000]")
        assert r.fired == ["select_ge_btree_range"]
        assert ops_of(r.translated_term)[0] == "range"
        assert "filter" not in ops_of(r.translated_term)

    def test_gt_becomes_range_plus_refinement(self, loaded_system):
        r = loaded_system.run_one("query cities select[pop > 5000]")
        assert r.fired == ["select_gt_btree_range"]
        assert ops_of(r.translated_term)[0] == "filter"
        assert "range" in ops_of(r.translated_term)

    def test_eq_becomes_exact(self, loaded_system):
        r = loaded_system.run_one("query cities select[pop = 5000]")
        assert "exact" in ops_of(r.translated_term)

    def test_non_key_attribute_falls_back_to_scan(self, loaded_system):
        r = loaded_system.run_one('query cities select[cname = "c1"]')
        assert r.fired == ["select_scan"]
        assert "feed" in ops_of(r.translated_term)

    def test_strict_conjunction_falls_back_to_scan(self, loaded_system):
        r = loaded_system.run_one("query cities select[pop > 100 and pop < 300]")
        assert r.fired == ["select_scan"]

    def test_between_becomes_single_range(self, loaded_system):
        r = loaded_system.run_one("query cities select[pop >= 100 and pop <= 3000]")
        assert r.fired == ["select_between_btree_range"]
        names = ops_of(r.translated_term)
        assert names == ["range"]
        scan = loaded_system.run_one(
            "query cities_rep feed filter[pop >= 100 and pop <= 3000]"
        )
        assert sorted(t.attr("cname") for t in r.value) == sorted(
            t.attr("cname") for t in scan.value
        )

    def test_between_on_non_key_falls_back(self, loaded_system):
        r = loaded_system.run_one(
            'query cities select[cname >= "c1" and cname <= "c2"]'
        )
        assert r.fired == ["select_scan"]

    def test_translated_result_matches_scan_result(self, loaded_system):
        indexed = loaded_system.run_one("query cities select[pop >= 5000]")
        # compare against a direct representation-level scan
        scan = loaded_system.run_one(
            "query cities_rep feed filter[pop >= 5000]"
        )
        a = sorted(t.attr("cname") for t in indexed.value)
        b = sorted(t.attr("cname") for t in scan.value)
        assert a == b and len(a) > 0


class TestSpatialJoinRule:
    def test_paper_rule_fires(self, loaded_system):
        r = loaded_system.run_one("query cities states join[center inside region]")
        assert r.fired == ["join_inside_lsdtree"]
        names = ops_of(r.translated_term)
        assert names[0] == "search_join"
        assert "point_search" in names
        assert "filter" in names

    def test_plan_shape_matches_paper(self, loaded_system):
        r = loaded_system.run_one("query cities states join[center inside region]")
        plan = format_term(r.translated_term)
        # search_join(feed(cities_rep), fun (t1 ...) filter(point_search(
        #     states_rep, center(t1)), fun (t2 ...) inside(center(t1),
        #     region(t2))))
        assert plan.startswith("search_join(feed(cities_rep), fun (t1:")
        assert "point_search(states_rep, center(t1))" in plan
        assert "inside(center(t1), region(t2))" in plan

    def test_result_equals_scan_join(self, loaded_system):
        r = loaded_system.run_one("query cities states join[center inside region]")
        scan = loaded_system.run_one(
            "query cities_rep feed "
            "fun (c: city) states_rep feed filter[fun (s: state) c center inside s region] "
            "search_join"
        )
        a = sorted((t.attr("cname"), t.attr("sname")) for t in r.value)
        b = sorted((t.attr("cname"), t.attr("sname")) for t in scan.value)
        assert a == b and len(a) == 40

    def test_generic_join_falls_back_to_scan_join(self, loaded_system):
        r = loaded_system.run_one("query cities states join[fun (c: city, s: state) c pop > 0]")
        assert r.fired == ["join_scan"]
        assert ops_of(r.translated_term)[0] == "search_join"


class TestConditions:
    def test_unregistered_relation_fails_translation(self, loaded_system):
        loaded_system.run("create orphans : rel(city)")
        with pytest.raises(OptimizationError):
            loaded_system.run_one("query orphans select[pop > 1]")

    def test_catalog_supplies_the_representation(self, loaded_system):
        r = loaded_system.run_one("query cities select[pop >= 1]")
        assert "cities_rep" in format_term(r.translated_term)

    def test_second_representation_is_usable(self, loaded_system):
        # register a second representation (an srel) for cities; the select
        # on a non-key attribute can use either; the catalog enumeration
        # must find one that typechecks.
        loaded_system.run(
            """
create cities_srel : srel(city)
update cities_srel := cities_rep feed collect
update rep := insert(rep, cities, cities_srel)
"""
        )
        r = loaded_system.run_one('query cities select[cname = "c3"]')
        assert r.fired == ["select_scan"]
        assert len(r.value) == 1


class TestEngine:
    def test_statistics(self, loaded_system):
        r = loaded_system.run_one("query cities select[pop >= 5000]")
        assert r.fired == ["select_ge_btree_range"]

    def test_no_model_residue_after_translation(self, loaded_system):
        r = loaded_system.run_one("query cities states join[center inside region]")
        assert loaded_system._term_level(r.translated_term) != "model"

    def test_rep_queries_pass_through_untranslated(self, loaded_system):
        r = loaded_system.run_one("query cities_rep feed count")
        assert not r.translated
        assert r.level == "rep"


@pytest.mark.parametrize("factory", ["standard_optimizer", "cost_based_optimizer"])
def test_every_standard_rule_formats(factory):
    from repro.optimizer import standard_rules

    rules = [r for step in getattr(standard_rules, factory)().steps for r in step.rules]
    for rule in rules:
        assert str(rule).startswith(f"{rule.name}: ")
    by_name = {rule.name: str(rule) for rule in rules}
    # Rule type variables render as ``?name``.
    assert "fun (t1: ?tuple1)" in by_name["select_eq_btree_range"]
