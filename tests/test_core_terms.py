"""Unit tests for value terms: formatting, alpha-equality, substitution."""

from repro.core.terms import (
    Apply,
    Call,
    Fun,
    ListTerm,
    Literal,
    TupleTerm,
    Var,
    clone_term,
    format_term,
    free_variables,
    same_term,
    substitute_term,
    term_fingerprint,
    walk_terms,
)
from repro.core.types import TypeApp, tuple_type

INT = TypeApp("int")
PERSON = tuple_type([("name", TypeApp("string")), ("age", INT)])

# The paper's running example: select (persons, fun (p: person) >(age(p), 30))
SELECT = Apply(
    "select",
    (
        Var("persons"),
        Fun((("p", PERSON),), Apply(">", (Apply("age", (Var("p"),)), Literal(30)))),
    ),
)


class TestFormatting:
    def test_abstract_syntax(self):
        assert (
            format_term(Apply("top", (Apply("push", (Var("empty"), Literal(7))),)))
            == "top(push(empty, 7))"
        )

    def test_fun_notation(self):
        t = Fun((("p", PERSON),), Apply("age", (Var("p"),)))
        assert format_term(t).startswith("fun (p: tuple(")

    def test_string_literal(self):
        assert format_term(Literal("France")) == '"France"'

    def test_bool_literal(self):
        assert format_term(Literal(True)) == "true"

    def test_list_and_tuple_terms(self):
        assert format_term(ListTerm((Literal(1), Literal(2)))) == "<1, 2>"
        assert format_term(TupleTerm((Literal(1), Literal(2)))) == "(1, 2)"

    def test_call(self):
        assert format_term(Call(Var("cities_in"), (Literal("Germany"),))) == (
            'cities_in("Germany")'
        )


class TestSameTerm:
    def test_structural_equality(self):
        other = Apply(
            "select",
            (
                Var("persons"),
                Fun(
                    (("p", PERSON),),
                    Apply(">", (Apply("age", (Var("p"),)), Literal(30))),
                ),
            ),
        )
        assert same_term(SELECT, other)

    def test_alpha_equality(self):
        renamed = Apply(
            "select",
            (
                Var("persons"),
                Fun(
                    (("q", PERSON),),
                    Apply(">", (Apply("age", (Var("q"),)), Literal(30))),
                ),
            ),
        )
        assert same_term(SELECT, renamed)

    def test_different_literal(self):
        other = Apply("f", (Literal(30),))
        assert not same_term(other, Apply("f", (Literal(31),)))

    def test_literal_type_sensitivity(self):
        # 1 (int) and 1.0 (real) are different literals
        assert not same_term(Literal(1), Literal(1.0))

    def test_free_variable_names_matter(self):
        assert not same_term(Var("a"), Var("b"))

    def test_fingerprint_agrees_with_same_term(self):
        renamed = Apply(
            "select",
            (
                Var("persons"),
                Fun(
                    (("q", PERSON),),
                    Apply(">", (Apply("age", (Var("q"),)), Literal(30))),
                ),
            ),
        )
        assert term_fingerprint(SELECT) == term_fingerprint(renamed)


class TestFreeVariables:
    def test_lambda_binds(self):
        assert free_variables(SELECT) == {"persons"}

    def test_nested_shadowing(self):
        t = Fun((("x", INT),), Apply("+", (Var("x"), Var("y"))))
        assert free_variables(t) == {"y"}


class TestSubstitution:
    def test_substitutes_free_only(self):
        t = Fun((("x", INT),), Apply("+", (Var("x"), Var("y"))))
        out = substitute_term(t, {"x": Literal(1), "y": Literal(2)})
        assert same_term(
            out, Fun((("x", INT),), Apply("+", (Var("x"), Literal(2))))
        )


class TestClone:
    def test_clone_is_equal_but_distinct(self):
        copy = clone_term(SELECT)
        assert same_term(copy, SELECT)
        assert copy is not SELECT
        assert copy.args[1] is not SELECT.args[1]

    def test_clone_drops_annotations(self):
        t = Var("x")
        t.type = INT
        assert clone_term(t).type is None

    def test_clone_shares_closed_annotated_subterms(self):
        closed = Apply("+", (Literal(1, type=INT), Literal(2, type=INT)), type=INT)
        x = Var("x", type=INT)
        t = Apply("*", (x, closed))
        assert clone_term(t).args[1] is closed
        # ``x`` may be a lambda parameter unless the scope says otherwise.
        assert clone_term(t).args[0] is not x
        assert clone_term(t, scope=()).args[0] is x
        body = Apply("*", (Var("y", type=INT), closed), type=INT)
        copy = clone_term(Fun((("y", INT),), body), scope=())
        assert copy.body is not body and copy.body.args[1] is closed


class TestWalk:
    def test_walk_visits_all(self):
        nodes = list(walk_terms(SELECT))
        assert any(isinstance(n, Literal) and n.value == 30 for n in nodes)
        assert any(isinstance(n, Fun) for n in nodes)
        # select, persons, fun, >, age(p), p, 30
        assert len(nodes) == 7
