"""The textual rule language (Section 5) — the paper's rule, verbatim shape."""

import pytest

from repro.errors import ParseError
from repro.optimizer.engine import Optimizer, OptimizerStep
from repro.optimizer.ruleparser import parse_rule
from repro.optimizer.conditions import CatalogCondition, TypeCondition

PAPER_RULE = """
forall rel1: rel(tuple1) in REL. forall rel2: rel(tuple2) in REL.
forall point: (tuple1 -> point). forall region: (tuple2 -> pgon).
rel1 rel2 join[fun (t1: tuple1, t2: tuple2) (t1 point) inside (t2 region)]
=> rep1 feed
   fun (t1: tuple1) lsd2 (t1 point) point_search
       filter[fun (t2: tuple2) (t1 point) inside (t2 region)]
   search_join
if rep(rel1, rep1) and rep1 : relrep(tuple1)
   and rep(rel2, lsd2) and lsd2 : lsdtree(tuple2, f)
"""


class TestParsing:
    def test_paper_rule_parses(self, system):
        rule = parse_rule(PAPER_RULE, system.database.sos, name="paper_5")
        assert set(rule.variables) == {"rel1", "rel2", "point", "region"}
        assert rule.variables["point"].is_operator_var
        assert rule.variables["rel1"].kind.name == "REL"
        assert len(rule.conditions) == 4
        assert isinstance(rule.conditions[0], CatalogCondition)
        assert isinstance(rule.conditions[1], TypeCondition)
        assert rule.conditions[1].subtype_ok  # relrep test allows subtypes
        assert rule.lhs.op == "join"
        assert rule.rhs.op == "search_join"

    def test_missing_arrow_rejected(self, system):
        with pytest.raises(ParseError):
            parse_rule("forall x in REL. x => ", system.database.sos)
        with pytest.raises(ParseError):
            parse_rule("forall x in REL.\nx select[a > 1]", system.database.sos)

    def test_bad_condition_rejected(self, system):
        with pytest.raises(ParseError):
            parse_rule(
                "forall x in REL.\nx => x if nonsense + 1", system.database.sos
            )

    @pytest.mark.parametrize(
        "text, column",
        [
            ("forall rel1: rel(,) in REL.\nrel1 => rel1", 18),
            ("forall a: (tuple1 -> 7).\nforall x in REL.\nx => x", 22),
            ("forall rel1: rel(tuple1) in REL.\nrel1 => rel1 if rel1 : rel(+)", 12),
        ],
    )
    def test_type_pattern_needs_names(self, system, text, column):
        """Type patterns, in quantifiers, functionalities and conditions
        alike, are read by the specification parser's pattern reader, which
        rejects a token that is not a name with its position."""
        with pytest.raises(ParseError, match="expected pattern") as info:
            parse_rule(text, system.database.sos)
        assert (info.value.line, info.value.column) == (1, column)

    def test_unbound_rhs_variable_rejected(self, system):
        """A declared variable the RHS uses but nothing binds is a parse
        error, not a latent KeyError when the rule fires."""
        with pytest.raises(ParseError, match="rel2"):
            parse_rule(
                "forall rel1: rel(tuple1) in REL. "
                "forall rel2: rel(tuple2) in REL.\n"
                "rel1 => rel2",
                system.database.sos,
            )

    def test_condition_bound_rhs_variable_accepted(self, system):
        rule = parse_rule(
            "forall rel1: rel(tuple1) in REL.\n"
            "rel1 => rep1 feed\n"
            "if rep(rel1, rep1) and rep1 : relrep(tuple1)",
            system.database.sos,
        )
        assert rule.rhs.op == "feed"


class TestExecution:
    """The textual paper rule behaves exactly like the programmatic one."""

    def test_textual_rule_produces_the_paper_plan(self, loaded_system):
        rule = parse_rule(PAPER_RULE, loaded_system.database.sos, name="paper_5")
        loaded_system.optimizer = Optimizer(
            [OptimizerStep("spatial", [rule], "exhaustive")]
        )
        r = loaded_system.run_one("query cities states join[center inside region]")
        assert r.fired == ["paper_5"]
        from repro.core.terms import format_term

        plan = format_term(r.translated_term)
        assert plan.startswith("search_join(feed(cities_rep)")
        assert "point_search(states_rep, center(t1))" in plan
        assert len(r.value) == 40

    def test_textual_and_programmatic_rules_agree(self, loaded_system):
        from repro.optimizer.standard_rules import spatial_join_rule

        textual = parse_rule(PAPER_RULE, loaded_system.database.sos, name="t")
        programmatic = spatial_join_rule()
        loaded_system.optimizer = Optimizer(
            [OptimizerStep("s", [textual], "exhaustive")]
        )
        r1 = loaded_system.run_one("query cities states join[center inside region]")
        loaded_system.optimizer = Optimizer(
            [OptimizerStep("s", [programmatic], "exhaustive")]
        )
        r2 = loaded_system.run_one("query cities states join[center inside region]")
        a = sorted((t.attr("cname"), t.attr("sname")) for t in r1.value)
        b = sorted((t.attr("cname"), t.attr("sname")) for t in r2.value)
        assert a == b
