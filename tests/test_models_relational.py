"""The relational model end to end (experiment E1 + Section 2.2 algebra)."""

import pytest

from repro.core.algebra import Evaluator
from repro.core.typecheck import TypeChecker
from repro.core.terms import Apply, ListTerm, Literal, TupleTerm, Var
from repro.core.types import TypeApp, format_type, rel_type, tuple_type
from repro.errors import TypeFormationError
from repro.models.relational import make_relation, make_tuple, relational_model

INT = TypeApp("int")
STRING = TypeApp("string")

CITY = tuple_type([("name", STRING), ("pop", INT), ("country", STRING)])
CITY_REL = rel_type(CITY)


@pytest.fixture()
def env():
    sos, algebra = relational_model()
    cities = make_relation(
        CITY_REL,
        [
            {"name": "Berlin", "pop": 3_500_000, "country": "Germany"},
            {"name": "Paris", "pop": 2_100_000, "country": "France"},
            {"name": "Hagen", "pop": 210_000, "country": "Germany"},
            {"name": "Lyon", "pop": 520_000, "country": "France"},
        ],
    )
    countries_rel = rel_type(tuple_type([("cc", STRING), ("continent", STRING)]))
    countries = make_relation(
        countries_rel,
        [
            {"cc": "Germany", "continent": "Europe"},
            {"cc": "France", "continent": "Europe"},
        ],
    )
    objects = {"cities": CITY_REL, "countries": countries_rel}
    values = {"cities": cities, "countries": countries}
    tc = TypeChecker(sos, object_types=objects.get)
    ev = Evaluator(algebra, resolver=values.get)
    return sos, tc, ev, values


class TestTypeSystem:
    """E1: the type system of Section 2.1."""

    def test_paper_types_well_formed(self, env):
        sos, *_ = env
        sos.type_system.check_type(CITY)
        sos.type_system.check_type(CITY_REL)

    def test_kinds_match_paper(self, env):
        sos, *_ = env
        names = {k.name for k in sos.type_system.kinds}
        assert {"IDENT", "DATA", "TUPLE", "REL"} <= names

    def test_data_constants(self, env):
        sos, *_ = env
        constants = {
            t.constructor for t in sos.type_system.constant_types_of_kind("DATA")
        }
        assert {"int", "real", "string", "bool"} <= constants

    def test_ill_formed_rel(self, env):
        sos, *_ = env
        with pytest.raises(TypeFormationError):
            sos.type_system.check_type(TypeApp("rel", (INT,)))


class TestQueries:
    def test_select(self, env):
        _, tc, ev, _ = env
        q = tc.check(
            Apply("select", (Var("cities"), Apply(">", (Var("pop"), Literal(1_000_000)))))
        )
        assert sorted(t.attr("name") for t in ev.eval(q)) == ["Berlin", "Paris"]

    def test_select_preserves_operand(self, env):
        _, tc, ev, values = env
        q = tc.check(
            Apply("select", (Var("cities"), Apply(">", (Var("pop"), Literal(10**9)))))
        )
        assert len(ev.eval(q)) == 0
        assert len(values["cities"]) == 4  # selection does not mutate

    def test_join(self, env):
        _, tc, ev, _ = env
        pred = Apply("=", (Var("country"), Var("cc")))
        q = tc.check(Apply("join", (Var("cities"), Var("countries"), pred)))
        rows = ev.eval(q)
        assert len(rows) == 4
        assert all(t.attr("continent") == "Europe" for t in rows)

    def test_union(self, env):
        _, tc, ev, _ = env
        q = tc.check(Apply("union", (ListTerm((Var("cities"), Var("cities"))),)))
        assert len(ev.eval(q)) == 8

    def test_nested_select(self, env):
        _, tc, ev, _ = env
        inner = Apply(
            "select", (Var("cities"), Apply("=", (Var("country"), Literal("France"))))
        )
        outer = tc.check(
            Apply("select", (inner, Apply(">", (Var("pop"), Literal(1_000_000)))))
        )
        assert [t.attr("name") for t in ev.eval(outer)] == ["Paris"]

    def test_mktuple(self, env):
        _, tc, ev, _ = env
        term = tc.check(
            Apply(
                "mktuple",
                (
                    ListTerm(
                        (
                            TupleTerm((Var("name"), Literal("Rome"))),
                            TupleTerm((Var("pop"), Literal(2_800_000))),
                        )
                    ),
                ),
            )
        )
        value = ev.eval(term)
        assert value.attr("name") == "Rome"
        assert format_type(term.type) == "tuple(<(name, string), (pop, int)>)"


class TestUpdates:
    def test_insert(self, env):
        _, tc, ev, values = env
        new = make_tuple(CITY, name="Rome", pop=2_800_000, country="Italy")
        term = tc.check(Apply("insert", (Var("cities"), _tuple_literal(tc, new))))
        out = ev.eval(term, allow_update=True)
        assert len(out) == 5

    def test_delete_by_predicate(self, env):
        _, tc, ev, values = env
        term = tc.check(
            Apply(
                "delete",
                (Var("cities"), Apply("<", (Var("pop"), Literal(1_000_000)))),
            )
        )
        out = ev.eval(term, allow_update=True)
        assert sorted(t.attr("name") for t in out) == ["Berlin", "Paris"]

    def test_modify(self, env):
        _, tc, ev, values = env
        term = tc.check(
            Apply(
                "modify",
                (
                    Var("cities"),
                    Apply("=", (Var("country"), Literal("Germany"))),
                    Var("pop"),
                    Apply("*", (Var("pop"), Literal(2))),
                ),
            )
        )
        out = ev.eval(term, allow_update=True)
        by_name = {t.attr("name"): t.attr("pop") for t in out}
        assert by_name["Berlin"] == 7_000_000
        assert by_name["Paris"] == 2_100_000

    def test_rel_insert(self, env):
        _, tc, ev, values = env
        term = tc.check(Apply("rel_insert", (Var("cities"), Var("cities"))))
        out = ev.eval(term, allow_update=True)
        assert len(out) == 8


def _tuple_literal(tc, tup):
    """Wrap an existing tuple value as a literal term of its type."""
    from repro.core.terms import Literal as Lit

    return Lit(tup, tup.schema)
