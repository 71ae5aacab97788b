"""Extended sorts are type patterns: formatting and variable collection
(Def. 3.2)."""

from repro.core.kinds import Kind
from repro.core.patterns import format_pattern, pattern_variables
from repro.core.sorts import ListSort, UnionSort
from repro.core.types import FunType, PBind, ProductType, PVar, TypeApp

DATA = Kind("DATA")
INT = TypeApp("int")


class TestFormatting:
    def test_kind(self):
        assert format_pattern(PVar("", DATA)) == "DATA"

    def test_type(self):
        assert format_pattern(INT) == "int"

    def test_var_and_bind(self):
        assert format_pattern(PVar("rel")) == "rel"
        assert format_pattern(PBind("t", PVar("", DATA))) == "t: DATA"

    def test_product(self):
        s = ProductType((INT, PVar("", DATA)))
        assert format_pattern(s) == "(int x DATA)"

    def test_union(self):
        s = UnionSort((PVar("", DATA), PVar("rel")))
        assert format_pattern(s) == "(DATA | rel)"

    def test_list(self):
        assert format_pattern(ListSort(PVar("rel"))) == "rel+"

    def test_function(self):
        s = FunType((PVar("tuple"),), TypeApp("bool"))
        assert format_pattern(s) == "(tuple -> bool)"

    def test_nullary_function(self):
        assert format_pattern(FunType((), INT)) == "(-> int)"

    def test_app(self):
        assert format_pattern(TypeApp("stream", (PVar("tuple"),))) == "stream(tuple)"

    def test_nested(self):
        # The tuple constructor's argument sort: (ident x DATA)+
        s = ListSort(ProductType((TypeApp("ident"), PVar("", DATA))))
        assert format_pattern(s) == "(ident x DATA)+"


class TestSortVariables:
    def test_collects_across_shapes(self):
        s = FunType(
            (PVar("a"), ProductType((PVar("b"), PVar("", DATA)))),
            TypeApp("stream", (PVar("c"),)),
        )
        assert pattern_variables(s) == {"a", "b", "c"}

    def test_bind_contributes_its_name(self):
        s = PBind("bound", ListSort(PVar("inner")))
        assert pattern_variables(s) == {"bound", "inner"}

    def test_union(self):
        s = UnionSort((PVar("x"), PVar("y")))
        assert pattern_variables(s) == {"x", "y"}

    def test_concrete_sorts_have_none(self):
        assert pattern_variables(PVar("", DATA)) == set()
        assert pattern_variables(INT) == set()
