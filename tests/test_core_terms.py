"""Unit tests for value terms: formatting, alpha-equality, substitution,
immutability."""

import dataclasses

import pytest

from repro.core.terms import (
    Apply,
    Call,
    Fun,
    ListTerm,
    Literal,
    ObjRef,
    TupleTerm,
    Var,
    format_term,
    free_names,
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


class TestValues:
    @pytest.mark.parametrize("field", ["type", "args", "op"])
    def test_terms_are_frozen(self, field):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(SELECT, field, None)

    def test_constructors_take_every_field_by_name(self):
        t = Apply(op="f", args=(Var("x"),), type=INT, resolved=None)
        assert (t.op, t.args, t.type, t.resolved) == ("f", (Var("x"),), INT, None)
        assert Var("x").type is None
        moved = dataclasses.replace(t, op="g")
        assert moved == Apply("g", (Var("x"),)) and moved.type == INT

    def test_annotations_are_not_part_of_equality(self):
        typed = Apply("+", (Var("x", INT), Literal(1, INT)), type=INT)
        plain = Apply("+", (Var("x"), Literal(1)))
        assert typed == plain and hash(typed) == hash(plain)

    def test_free_names_are_the_nodes_themselves(self):
        x, persons = Var("x", INT), ObjRef("persons")
        t = Apply("*", (x, Fun((("y", INT),), Apply("+", (Var("y"), persons)))))
        assert [id(n) for n in free_names(t)] == [id(x), id(persons)]


class TestWalk:
    def test_walk_visits_all(self):
        nodes = list(walk_terms(SELECT))
        assert any(isinstance(n, Literal) and n.value == 30 for n in nodes)
        assert any(isinstance(n, Fun) for n in nodes)
        # select, persons, fun, >, age(p), p, 30
        assert len(nodes) == 7
