"""The complex object model (experiment E3, paper Section 2.1)."""

import pytest

from repro.core.algebra import Evaluator, TupleValue, carrier
from repro.core.typecheck import TypeChecker
from repro.core.terms import Apply, Fun, ListTerm, Literal, Var
from repro.core.types import TypeApp, tuple_type
from repro.errors import NoMatchingOperator
from repro.models.complex_objects import (
    BOTTOM,
    TOP,
    ObjectSet,
    co_subtype,
    complex_object_model,
)

INT = TypeApp("int")
STRING = TypeApp("string")

# The paper's persons type:
# tuple(<(name, string), (children, set(string)),
#        (address, tuple(<(city, string), (street, string)>))>)
ADDRESS = tuple_type([("city", STRING), ("street", STRING)])
PERSON = tuple_type(
    [("name", STRING), ("children", TypeApp("set", (STRING,))), ("address", ADDRESS)]
)


@pytest.fixture()
def env():
    sos, algebra = complex_object_model()
    sos.type_system.check_type(PERSON)
    children = ObjectSet(TypeApp("set", (STRING,)), ["kim", "lee"])
    person = TupleValue(PERSON, ("ann", children, TupleValue(ADDRESS, ("Hagen", "Main"))))
    tc = TypeChecker(sos, object_types={"p": PERSON}.get)
    # objects handed to an evaluator are carriers
    ev = Evaluator(algebra, resolver={"p": carrier(person)}.get)
    return sos, algebra, tc, ev, person


class TestTypeSystem:
    def test_persons_type_well_formed(self, env):
        sos, *_ = env
        sos.type_system.check_type(PERSON)
        assert sos.type_system.kind_of(PERSON).name == "OBJ"

    def test_everything_lives_in_obj(self, env):
        sos, *_ = env
        for t in (INT, TypeApp("set", (INT,)), BOTTOM, TOP, PERSON):
            assert sos.type_system.has_kind(t, "OBJ")

    def test_deep_nesting(self, env):
        sos, *_ = env
        deep = TypeApp("set", (TypeApp("set", (PERSON,)),))
        sos.type_system.check_type(deep)


class TestCoSubtype:
    def test_bottom_below_everything(self):
        assert co_subtype(BOTTOM, INT)
        assert co_subtype(BOTTOM, PERSON)
        assert co_subtype(BOTTOM, TOP)

    def test_top_above_everything(self):
        assert co_subtype(INT, TOP)
        assert co_subtype(PERSON, TOP)

    def test_reflexive(self):
        assert co_subtype(PERSON, PERSON)

    def test_width_subtyping(self):
        wide = tuple_type([("name", STRING), ("age", INT)])
        narrow = tuple_type([("name", STRING)])
        assert co_subtype(wide, narrow)
        assert not co_subtype(narrow, wide)

    def test_depth_subtyping(self):
        specific = tuple_type([("x", BOTTOM)])
        general = tuple_type([("x", INT)])
        assert co_subtype(specific, general)

    def test_set_covariance(self):
        assert co_subtype(TypeApp("set", (BOTTOM,)), TypeApp("set", (INT,)))
        assert not co_subtype(TypeApp("set", (INT,)), TypeApp("set", (STRING,)))

    def test_atomic_unrelated(self):
        assert not co_subtype(INT, STRING)


class TestSetAlgebra:
    def test_mkset_and_card(self, env):
        _, _, tc, ev, _ = env
        term = tc.check(
            Apply("card", (Apply("mkset", (ListTerm((Literal(1), Literal(2), Literal(2))),)),))
        )
        assert ev.eval(term) == 2  # sets deduplicate

    def test_mkset_mixed_types_rejected(self, env):
        _, _, tc, ev, _ = env
        with pytest.raises(NoMatchingOperator):
            tc.check(Apply("mkset", (ListTerm((Literal(1), Literal("a"))),)))

    def test_member(self, env):
        _, _, tc, ev, _ = env
        term = tc.check(
            Apply(
                "member",
                (Literal("kim"), Apply("children", (Var("p"),))),
            )
        )
        assert ev.eval(term) is True

    def test_filter_set(self, env):
        _, _, tc, ev, _ = env
        term = tc.check(
            Apply(
                "filter_set",
                (
                    Apply("mkset", (ListTerm((Literal(1), Literal(5), Literal(9))),)),
                    Fun((("x", INT),), Apply(">", (Var("x"), Literal(3)))),
                ),
            )
        )
        assert sorted(ev.eval(term)) == [5, 9]

    def test_set_union(self, env):
        _, _, tc, ev, _ = env
        a = Apply("mkset", (ListTerm((Literal(1), Literal(2))),))
        b = Apply("mkset", (ListTerm((Literal(2), Literal(3))),))
        term = tc.check(Apply("set_union", (a, b)))
        assert sorted(ev.eval(term)) == [1, 2, 3]

    def test_nested_attr_access(self, env):
        _, _, tc, ev, _ = env
        term = tc.check(Apply("city", (Apply("address", (Var("p"),)),)))
        assert ev.eval(term) == "Hagen"

    def test_carriers(self, env):
        _, algebra, *_ = env
        s = ObjectSet(TypeApp("set", (INT,)), [1, 2])
        assert algebra.check_value(s, TypeApp("set", (INT,)))
        assert not algebra.check_value(s, TypeApp("set", (STRING,)))
