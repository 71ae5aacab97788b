"""Nested model queries: soundness of the rule conditions and the
pushed-down-selection join rules.

Regression suite for a real bug: a catalog condition whose variable was
bound to a *subterm* (not an object name) used to degrade into a wildcard
lookup, silently dropping the subterm from the plan.
"""

import pytest

from repro.core.algebra import view
from repro.errors import OptimizationError


def expected_pairs(loaded_system, threshold):
    obj = loaded_system.database.objects["cities_rep"]
    city = obj.type.args[0]
    return sum(1 for t in obj.value.scan() if view(city, t).attr("pop") >= threshold)


class TestSelectUnderJoin:
    def test_outer_select_is_not_dropped(self, loaded_system):
        r = loaded_system.run_one(
            "query (cities select[pop >= 5000]) states join[center inside region]"
        )
        assert r.fired == ["join_inside_lsdtree_outer_select"]
        assert len(r.value) == expected_pairs(loaded_system, 5000)
        assert all(t.attr("pop") >= 5000 for t in r.value)

    def test_inner_select(self, loaded_system):
        r = loaded_system.run_one(
            'query cities (states select[sname = "s0"]) join[center inside region]'
        )
        assert r.fired == ["join_inside_lsdtree_inner_select"]
        assert all(t.attr("sname") == "s0" for t in r.value)
        # cross-check against filtering the full join
        full = loaded_system.run_one(
            "query cities states join[center inside region]"
        )
        expected = sum(1 for t in full.value if t.attr("sname") == "s0")
        assert len(r.value) == expected

    def test_generic_join_with_selects_on_both_sides(self, loaded_system):
        r = loaded_system.run_one(
            "query (cities select[pop >= 5000]) "
            '(states select[sname != "s0"]) '
            "join[fun (c: city, s: state) c pop > 0]"
        )
        assert r.fired == ["join_scan_both_select"]
        assert len(r.value) == expected_pairs(loaded_system, 5000) * 4

    def test_results_match_post_filtered_full_join(self, loaded_system):
        nested = loaded_system.run_one(
            "query (cities select[pop >= 5000]) states join[center inside region]"
        )
        full = loaded_system.run_one(
            "query cities states join[center inside region]"
        )
        a = sorted(
            (t.attr("cname"), t.attr("sname")) for t in nested.value
        )
        b = sorted(
            (t.attr("cname"), t.attr("sname"))
            for t in full.value
            if t.attr("pop") >= 5000
        )
        assert a == b


class TestSelectFusion:
    def test_stacked_selects_fuse_and_translate(self, loaded_system):
        r = loaded_system.run_one(
            "query (cities select[pop >= 100]) select[pop <= 5000]"
        )
        assert "select_fusion" in r.fired
        expected = loaded_system.run_one(
            "query cities_rep feed filter[pop >= 100 and pop <= 5000]"
        )
        assert sorted(t.attr("cname") for t in r.value) == sorted(
            t.attr("cname") for t in expected.value
        )

    def test_triple_stack(self, loaded_system):
        r = loaded_system.run_one(
            "query ((cities select[pop >= 100]) select[pop <= 9000]) "
            'select[cname != "c0"]'
        )
        assert r.fired.count("select_fusion") == 2
        for t in r.value:
            assert 100 <= t.attr("pop") <= 9000 and t.attr("cname") != "c0"

    def test_fused_select_under_join(self, loaded_system):
        r = loaded_system.run_one(
            "query ((cities select[pop >= 100]) select[pop <= 9000]) "
            "states join[center inside region]"
        )
        assert "select_fusion" in r.fired
        full = loaded_system.run_one("query cities states join[center inside region]")
        expected = sorted(
            (t.attr("cname"), t.attr("sname"))
            for t in full.value
            if 100 <= t.attr("pop") <= 9000
        )
        got = sorted((t.attr("cname"), t.attr("sname")) for t in r.value)
        assert got == expected


class TestUncoveredNestingFailsCleanly:
    def test_join_result_as_operand_raises(self, loaded_system):
        # a join nested under a select is not covered — it must error, never
        # produce a wrong plan.
        with pytest.raises(OptimizationError):
            loaded_system.run_one(
                "query (cities states join[center inside region]) "
                "select[pop >= 100]"
            )
