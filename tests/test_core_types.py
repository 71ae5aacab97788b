"""Unit tests for type terms (paper Section 3, Def. of types as terms)."""

import pytest

from repro.core.terms import Fun, Var
from repro.core.types import (
    ArgList,
    FunType,
    Lit,
    ProductType,
    Sym,
    TermArg,
    TypeApp,
    attr_index,
    attr_type,
    attrs_of,
    concat_tuple_types,
    format_type,
    rel_type,
    tuple_type,
    walk_type,
)

INT = TypeApp("int")
STRING = TypeApp("string")


class TestConstruction:
    def test_constant_type(self):
        assert INT.constructor == "int"
        assert INT.args == ()

    def test_tuple_type_builder(self):
        t = tuple_type([("name", STRING), ("age", INT)])
        assert t.constructor == "tuple"
        assert isinstance(t.args[0], ArgList)
        assert len(t.args[0]) == 2

    def test_rel_type_builder(self):
        t = rel_type(tuple_type([("a", INT)]))
        assert t.constructor == "rel"
        assert isinstance(t.args[0], TypeApp)

    def test_equality_is_structural(self):
        a = tuple_type([("name", STRING), ("age", INT)])
        b = tuple_type([("name", STRING), ("age", INT)])
        assert a == b
        assert hash(a) == hash(b)

    def test_inequality_on_attribute_order(self):
        a = tuple_type([("name", STRING), ("age", INT)])
        b = tuple_type([("age", INT), ("name", STRING)])
        assert a != b


class TestFormatting:
    def test_paper_notation(self):
        t = rel_type(tuple_type([("name", STRING), ("age", INT)]))
        assert format_type(t) == "rel(tuple(<(name, string), (age, int)>))"

    def test_function_type(self):
        t = FunType((STRING,), rel_type(tuple_type([("a", INT)])))
        assert format_type(t) == "(string -> rel(tuple(<(a, int)>)))"

    def test_nullary_function_type(self):
        t = FunType((), INT)
        assert format_type(t) == "(-> int)"

    def test_product_type(self):
        assert format_type(ProductType((INT, STRING))) == "(int x string)"

    def test_value_args(self):
        t = TypeApp("string", (Lit(4),))
        assert format_type(t) == "string(4)"

    def test_btree_type(self):
        city = tuple_type([("pop", INT)])
        t = TypeApp("btree", (city, Sym("pop"), INT))
        assert format_type(t) == "btree(tuple(<(pop, int)>), pop, int)"


class TestAttrs:
    def test_attrs_of(self):
        t = tuple_type([("name", STRING), ("age", INT)])
        assert attrs_of(t) == (("name", STRING), ("age", INT))

    def test_attr_type(self):
        t = tuple_type([("name", STRING), ("age", INT)])
        assert attr_type(t, "age") == INT
        assert attr_type(t, "nope") is None

    def test_attrs_of_non_tuple_raises(self):
        with pytest.raises(TypeError):
            attrs_of(INT)

    def test_attr_type_non_tuple_is_none(self):
        assert attr_type(INT, "x") is None

    def test_lookup_by_name_builds_the_table_and_listing_does_not(self):
        t = tuple_type([("name", STRING), ("age", INT)])
        assert attrs_of(t) == (("name", STRING), ("age", INT))
        assert t._attrs is None  # a row's schema stays bare when listed
        assert attr_index(t, "age") == (1, INT)
        table = t._attrs
        assert attr_index(t, "name") == (0, STRING) and t._attrs is table
        assert attrs_of(t) is table[0]
        assert attr_index(t, "nope") is None and attr_index(INT, "x") is None


class TestConcat:
    def test_join_type_operator_semantics(self):
        a = tuple_type([("name", STRING)])
        b = tuple_type([("age", INT)])
        assert attrs_of(concat_tuple_types(a, b)) == (
            ("name", STRING),
            ("age", INT),
        )

    def test_duplicate_attribute_rejected(self):
        a = tuple_type([("name", STRING)])
        with pytest.raises(ValueError):
            concat_tuple_types(a, a)


class TestTermArg:
    def test_equal_key_functions_make_equal_types(self):
        f1 = TermArg(Fun((("s", INT),), Var("s")))
        f2 = TermArg(Fun((("s", INT),), Var("s")))
        assert f1 == f2
        assert hash(f1) == hash(f2)
        assert TypeApp("lsdtree", (INT, f1)) == TypeApp("lsdtree", (INT, f2))

    def test_alpha_renamed_key_functions_equal(self):
        f1 = TermArg(Fun((("s", INT),), Var("s")))
        f2 = TermArg(Fun((("t", INT),), Var("t")))
        assert f1 == f2

    def test_different_bodies_differ(self):
        f1 = TermArg(Fun((("s", INT),), Var("s")))
        f2 = TermArg(Fun((("s", INT),), Var("other")))
        assert f1 != f2


class TestWalk:
    def test_walk_visits_nested(self):
        t = rel_type(tuple_type([("name", STRING), ("age", INT)]))
        seen = list(walk_type(t))
        assert t in seen
        assert STRING in seen
        assert INT in seen
        assert any(isinstance(x, Sym) and x.name == "age" for x in seen)
