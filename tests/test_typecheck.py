"""Typechecking polymorphic operators (paper Section 2.2) — experiment E4."""

import pytest

from repro.core.terms import Apply, Call, Fun, ListTerm, Literal, Var, walk_terms
from repro.core.typecheck import TypeChecker
from repro.core.types import (
    FunType,
    TypeApp,
    format_type,
    rel_type,
    tuple_type,
)
from repro.errors import NoMatchingOperator, TypeCheckError
from repro.models.relational import relational_model

INT = TypeApp("int")
REAL = TypeApp("real")
STRING = TypeApp("string")
BOOL = TypeApp("bool")

PERSON = tuple_type([("name", STRING), ("age", INT)])
PERSONS = rel_type(PERSON)
CITY = tuple_type([("cname", STRING), ("pop", INT)])
CITIES = rel_type(CITY)


@pytest.fixture()
def tc():
    sos, _ = relational_model()
    objects = {"persons": PERSONS, "cities": CITIES}
    return TypeChecker(sos, object_types=objects.get)


def age_pred(value=30):
    return Fun(
        (("p", PERSON),), Apply(">", (Apply("age", (Var("p"),)), Literal(value)))
    )


class TestLiterals:
    def test_int(self, tc):
        assert tc.type_of(Literal(1)) == INT

    def test_real(self, tc):
        assert tc.type_of(Literal(1.5)) == REAL

    def test_string(self, tc):
        assert tc.type_of(Literal("x")) == STRING

    def test_bool_is_not_int(self, tc):
        assert tc.type_of(Literal(True)) == BOOL


class TestComparisons:
    """forall data in DATA. data x data -> bool"""

    def test_same_data_type_ok(self, tc):
        assert tc.type_of(Apply("=", (Literal(1), Literal(2)))) == BOOL
        assert tc.type_of(Apply("<", (Literal("a"), Literal("b")))) == BOOL

    def test_mixed_data_types_rejected(self, tc):
        with pytest.raises(NoMatchingOperator):
            tc.check(Apply("=", (Literal(1), Literal("x"))))

    def test_relations_are_not_data(self, tc):
        with pytest.raises(NoMatchingOperator):
            tc.check(Apply("<", (Var("persons"), Var("persons"))))


class TestSelect:
    """forall rel: rel(tuple) in REL. rel x (tuple -> bool) -> rel"""

    def test_paper_example(self, tc):
        term = tc.check(Apply("select", (Var("persons"), age_pred())))
        assert term.type == PERSONS

    def test_result_schema_equals_operand_schema(self, tc):
        term = tc.check(Apply("select", (Var("cities"), Fun((("c", CITY),), Apply(">", (Apply("pop", (Var("c"),)), Literal(0)))))))
        assert term.type == CITIES

    def test_predicate_over_wrong_tuple_rejected(self, tc):
        wrong = Fun((("c", CITY),), Apply(">", (Apply("pop", (Var("c"),)), Literal(0))))
        with pytest.raises(NoMatchingOperator):
            tc.check(Apply("select", (Var("persons"), wrong)))

    def test_predicate_must_yield_bool(self, tc):
        bad = Fun((("p", PERSON),), Apply("age", (Var("p"),)))
        with pytest.raises(NoMatchingOperator):
            tc.check(Apply("select", (Var("persons"), bad)))

    def test_untyped_parameter_inferred_from_context(self, tc):
        pred = Fun((("p", None),), Apply(">", (Apply("age", (Var("p"),)), Literal(1))))
        term = tc.check(Apply("select", (Var("persons"), pred)))
        assert term.args[1].params[0][1] == PERSON


class TestImplicitLambda:
    """The shorthand of Section 2.3: persons select[age > 30]."""

    def test_shorthand_elaborates(self, tc):
        term = tc.check(
            Apply("select", (Var("persons"), Apply(">", (Var("age"), Literal(30)))))
        )
        fun = term.args[1]
        assert isinstance(fun, Fun)
        assert fun.params[0][1] == PERSON
        # body rewritten: age -> age(p)
        body = fun.body
        assert body.op == ">"
        assert isinstance(body.args[0], Apply) and body.args[0].op == "age"

    def test_unknown_attribute_in_shorthand_fails(self, tc):
        with pytest.raises(NoMatchingOperator):
            tc.check(
                Apply("select", (Var("persons"), Apply(">", (Var("salary"), Literal(1)))))
            )


class TestAttributeAccess:
    """forall tuple: tuple(list), (a, d) in list. tuple -> d   a"""

    def test_attr_resolution(self, tc):
        term = tc.check(
            Fun((("p", PERSON),), Apply("age", (Var("p"),)))
        )
        assert term.type == FunType((PERSON,), INT)

    def test_missing_attr(self, tc):
        with pytest.raises(NoMatchingOperator):
            tc.check(Fun((("p", PERSON),), Apply("salary", (Var("p"),))))


class TestUnion:
    """forall rel in REL. rel+ -> rel — same schema required."""

    def test_same_schema(self, tc):
        term = tc.check(Apply("union", (ListTerm((Var("persons"), Var("persons"))),)))
        assert term.type == PERSONS

    def test_schema_mismatch_rejected(self, tc):
        with pytest.raises(NoMatchingOperator):
            tc.check(Apply("union", (ListTerm((Var("persons"), Var("cities"))),)))

    def test_single_operand(self, tc):
        assert tc.check(Apply("union", (ListTerm((Var("cities"),)),))).type == CITIES


class TestJoin:
    """The join type operator computes the concatenated schema."""

    def test_result_type(self, tc):
        pred = Fun(
            (("p", PERSON), ("c", CITY)),
            Apply("=", (Apply("name", (Var("p"),)), Apply("cname", (Var("c"),)))),
        )
        term = tc.check(Apply("join", (Var("persons"), Var("cities"), pred)))
        assert format_type(term.type) == (
            "rel(tuple(<(name, string), (age, int), (cname, string), (pop, int)>))"
        )

    def test_duplicate_attributes_rejected(self, tc):
        pred = Fun((("a", PERSON), ("b", PERSON)), Literal(True))
        with pytest.raises(NoMatchingOperator):
            tc.check(Apply("join", (Var("persons"), Var("persons"), pred)))


class TestArithmetic:
    def test_int_int_is_int(self, tc):
        assert tc.type_of(Apply("+", (Literal(1), Literal(2)))) == INT

    def test_int_real_promotes(self, tc):
        assert tc.type_of(Apply("*", (Literal(1), Literal(1.1)))) == REAL

    def test_div_is_integer_only(self, tc):
        assert tc.type_of(Apply("div", (Literal(7), Literal(2)))) == INT
        with pytest.raises(NoMatchingOperator):
            tc.check(Apply("div", (Literal(7.0), Literal(2))))


class TestConstants:
    def test_empty_resolves_from_expected_type(self, tc):
        term = tc.check_value_term(Var("empty"), PERSONS)
        assert term.type == PERSONS
        assert term.resolved.spec.name == "empty"

    def test_empty_unresolvable_without_expectation(self, tc):
        with pytest.raises(TypeCheckError):
            tc.check(Var("empty"))


class TestUpdateOps:
    def test_modify_dependent_attr_check(self, tc):
        good = Apply(
            "modify",
            (
                Var("persons"),
                age_pred(0),
                Var("age"),
                Fun((("p", PERSON),), Apply("+", (Apply("age", (Var("p"),)), Literal(1)))),
            ),
        )
        assert tc.check(good).type == PERSONS

    def test_modify_wrong_value_type_rejected(self, tc):
        bad = Apply(
            "modify",
            (
                Var("persons"),
                age_pred(0),
                Var("age"),
                Fun((("p", PERSON),), Apply("name", (Var("p"),))),  # string, not int
            ),
        )
        with pytest.raises(NoMatchingOperator):
            tc.check(bad)

    def test_modify_unknown_attribute_rejected(self, tc):
        bad = Apply(
            "modify",
            (Var("persons"), age_pred(0), Var("salary"), age_pred(0)),
        )
        with pytest.raises(NoMatchingOperator):
            tc.check(bad)


class TestViews:
    def test_nullary_view_dereferences(self, tc):
        objects = {"persons": PERSONS, "view": FunType((), PERSONS)}
        tc2 = TypeChecker(tc.sos, object_types=objects.get)
        term = tc2.check(Apply("select", (Var("view"), age_pred())))
        assert isinstance(term.args[0], Call)
        assert term.type == PERSONS

    def test_parameterized_view_call(self, tc):
        objects = {"cities_in": FunType((STRING,), PERSONS)}
        tc2 = TypeChecker(tc.sos, object_types=objects.get)
        term = tc2.check(Call(Var("cities_in"), (Literal("Germany"),)))
        assert term.type == PERSONS

    def test_call_arity_checked(self, tc):
        objects = {"cities_in": FunType((STRING,), PERSONS)}
        tc2 = TypeChecker(tc.sos, object_types=objects.get)
        with pytest.raises(TypeCheckError):
            tc2.check(Call(Var("cities_in"), ()))

    def test_call_argument_type_checked(self, tc):
        objects = {"cities_in": FunType((STRING,), PERSONS)}
        tc2 = TypeChecker(tc.sos, object_types=objects.get)
        with pytest.raises(TypeCheckError):
            tc2.check(Call(Var("cities_in"), (Literal(1),)))


class TestErrors:
    def test_unknown_operator(self, tc):
        with pytest.raises(NoMatchingOperator):
            tc.check(Apply("frobnicate", (Literal(1),)))

    def test_unknown_identifier(self, tc):
        with pytest.raises(TypeCheckError):
            tc.check(Var("nonexistent"))

    def test_failed_overload_leaves_no_partial_elaboration(self, tc):
        # 'insert' is overloaded across levels in the full system; here the
        # relational one must reject then a retry on the same term object
        # must behave identically.
        term = Apply("insert", (Var("persons"), Literal(1)))
        with pytest.raises(NoMatchingOperator):
            tc.check(term)
        with pytest.raises(NoMatchingOperator):
            tc.check(term)


class TestTermsAreValues:
    """The checker returns new nodes and never writes to the ones it gets."""

    def test_input_is_left_as_it_was(self, tc):
        term = Apply("select", (Var("persons"), Apply(">", (Var("age"), Literal(30)))))
        checked = tc.check(term)
        assert checked.type == PERSONS
        assert all(node.type is None for node in walk_terms(term))
        assert term == Apply(
            "select", (Var("persons"), Apply(">", (Var("age"), Literal(30))))
        )

    def test_failed_overload_candidate_leaves_nothing_behind(self, tc):
        # ``int x int -> int`` is tried first and fails on the real operand.
        one, other = Literal(1), Literal(1.1)
        checked = tc.check(Apply("*", (one, other)))
        assert checked.type == REAL
        assert one.type is None and other.type is None

    def test_checked_term_is_returned_as_it_is(self, tc):
        checked = tc.check(Apply("select", (Var("persons"), age_pred())))
        assert tc.check(checked) is checked

    def test_open_term_is_kept_where_its_variables_keep_their_types(self, tc):
        body = tc.check(Apply("+", (Var("x"), Literal(1))), {"x": INT})
        assert tc.check(body, {"x": INT}) is body
        assert tc.check(Fun((("x", INT),), body)).body is body

    def test_open_term_is_checked_again_where_a_variable_changed_type(self, tc):
        body = tc.check(Apply("+", (Var("x"), Literal(1))), {"x": INT})
        again = tc.check(body, {"x": REAL})
        assert again.type == REAL and again.args[0].type == REAL
        assert again.args[1] is body.args[1]  # the closed literal is shared
        assert body.type == INT and body.args[0].type == INT

    def test_open_term_outside_its_lambda_is_rejected(self, tc):
        body = tc.check(Apply("+", (Var("x"), Literal(1))), {"x": INT})
        with pytest.raises(TypeCheckError):
            tc.check(body)
