"""Unit tests for the top-level signature (TypeSystem) — E1 groundwork."""

import pytest

from repro.core.constructors import ConstructorSpec, TypeConstructor
from repro.core.kinds import Kind
from repro.core.signature import TypeSystem
from repro.core.sorts import ListSort, UnionSort
from repro.core.types import (
    ArgList,
    ArgTuple,
    Lit,
    PBind,
    ProductType,
    PVar,
    Sym,
    TypeApp,
    tuple_type,
)
from repro.errors import KindError, SpecificationError, TypeFormationError

INT = TypeApp("int")
STRING = TypeApp("string")
IDENT = TypeApp("ident")


@pytest.fixture()
def ts():
    """The relational type system of paper Section 2.1."""
    ts = TypeSystem()
    ident = ts.add_kind("IDENT")
    data = ts.add_kind("DATA")
    tup = ts.add_kind("TUPLE")
    rel = ts.add_kind("REL")
    ts.add_constructor(TypeConstructor("ident", (), ident))
    for name in ("int", "real", "string", "bool"):
        ts.add_constructor(TypeConstructor(name, (), data))
    ts.add_constructor(
        TypeConstructor(
            "tuple",
            (ListSort(ProductType((IDENT, PVar("", data)))),),
            tup,
        )
    )
    ts.add_constructor(TypeConstructor("rel", (PVar("", tup),), rel))
    return ts


class TestKinds:
    def test_add_and_lookup(self, ts):
        assert ts.kind("DATA") == Kind("DATA")
        assert ts.has_kind_named("REL")

    def test_unknown_kind_raises(self, ts):
        with pytest.raises(KindError):
            ts.kind("NOPE")

    def test_add_kind_idempotent(self, ts):
        assert ts.add_kind("DATA") is ts.kind("DATA")


class TestConstructors:
    def test_duplicate_same_arity_rejected(self, ts):
        with pytest.raises(SpecificationError):
            ts.add_constructor(TypeConstructor("int", (), ts.kind("DATA")))

    def test_overload_by_arity_allowed(self, ts):
        ts.add_constructor(
            TypeConstructor("rel", (PVar("", ts.kind("TUPLE")),) * 2, ts.kind("REL"))
        )
        assert len(ts.overloads("rel")) == 2

    def test_overload_result_kind_must_agree(self, ts):
        with pytest.raises(SpecificationError):
            ts.add_constructor(
                TypeConstructor(
                    "rel", (PVar("", ts.kind("DATA")),) * 3, ts.kind("DATA")
                )
            )

    def test_unknown_result_kind(self, ts):
        with pytest.raises(KindError):
            ts.add_constructor(TypeConstructor("x", (), Kind("NOPE")))

    def test_constant_type(self, ts):
        assert ts.constant_type("int") == INT
        with pytest.raises(TypeFormationError):
            ts.constant_type("tuple")

    def test_constant_types_of_kind(self, ts):
        names = {t.constructor for t in ts.constant_types_of_kind("DATA")}
        assert names == {"int", "real", "string", "bool"}


class TestKindAssignment:
    def test_kind_of(self, ts):
        assert ts.kind_of(INT) == Kind("DATA")
        city = tuple_type([("name", STRING)])
        assert ts.kind_of(city) == Kind("TUPLE")
        assert ts.kind_of(TypeApp("rel", (city,))) == Kind("REL")

    def test_extra_kind_membership(self, ts):
        ts.add_kind("ORD")
        ts.add_kind_member("int", "ORD")
        assert ts.has_kind(INT, "ORD")
        assert ts.has_kind(INT, "DATA")
        assert not ts.has_kind(STRING, "ORD")
        assert INT in ts.constant_types_of_kind("ORD")

    def test_union_kind_membership(self, ts):
        union = UnionSort((PVar("", ts.kind("DATA")), PVar("", ts.kind("REL"))))
        assert ts.has_kind(INT, union)
        assert not ts.has_kind(tuple_type([("a", INT)]), union)


class TestWellFormedness:
    def test_paper_example_type(self, ts):
        t = tuple_type([("name", STRING), ("age", INT)])
        ts.check_type(t)
        ts.check_type(TypeApp("rel", (t,)))

    def test_rel_of_non_tuple_rejected(self, ts):
        with pytest.raises(TypeFormationError):
            ts.check_type(TypeApp("rel", (INT,)))

    def test_wrong_arity_rejected(self, ts):
        with pytest.raises(TypeFormationError):
            ts.check_type(TypeApp("rel", ()))

    def test_unknown_constructor_rejected(self, ts):
        with pytest.raises(TypeFormationError):
            ts.check_type(TypeApp("setof", (INT,)))

    def test_tuple_needs_ident_first_components(self, ts):
        bad = TypeApp("tuple", (ArgList((ArgTuple((INT, INT)),)),))
        with pytest.raises(TypeFormationError):
            ts.check_type(bad)

    def test_tuple_attr_types_must_be_data(self, ts):
        nested = tuple_type([("inner", INT)])
        bad = tuple_type([("x", nested)])  # TUPLE not in DATA
        with pytest.raises(TypeFormationError):
            ts.check_type(bad)

    def test_empty_attribute_list_rejected(self, ts):
        bad = TypeApp("tuple", (ArgList(()),))
        with pytest.raises(TypeFormationError):
            ts.check_type(bad)

    def test_string_length_constructor(self, ts):
        # Section 3: int -> DATA string(4)
        ts.add_constructor(
            TypeConstructor("vstring", (INT,), ts.kind("DATA"))
        )
        ts.check_type(TypeApp("vstring", (Lit(4),)))
        with pytest.raises(TypeFormationError):
            ts.check_type(TypeApp("vstring", (Sym("four"),)))


class TestConstructorSpecs:
    def test_dependent_constraint(self, ts):
        def check(type_system, args):
            tup, sym = args
            from repro.core.types import attr_type

            if attr_type(tup, sym.name) is None:
                return f"no attribute {sym.name}"
            return None

        ts.add_kind("IDX")
        ts.add_constructor(
            TypeConstructor(
                "idx",
                (PBind("tuple", PVar("", ts.kind("TUPLE"))), IDENT),
                ts.kind("IDX"),
                spec=ConstructorSpec("attr must exist", check),
            )
        )
        city = tuple_type([("name", STRING)])
        ts.check_type(TypeApp("idx", (city, Sym("name"))))
        with pytest.raises(TypeFormationError):
            ts.check_type(TypeApp("idx", (city, Sym("nope"))))

    def test_union_sort_argument(self, ts):
        # nested relational attr sort: (ident x (DATA | REL))+
        data_or_rel = UnionSort(
            (PVar("", ts.kind("DATA")), PVar("", ts.kind("REL")))
        )
        ts.add_kind("NREL")
        ts.add_constructor(
            TypeConstructor(
                "nrel",
                (ListSort(ProductType((IDENT, data_or_rel))),),
                ts.kind("NREL"),
            )
        )
        inner = TypeApp("rel", (tuple_type([("a", INT)]),))
        t = TypeApp(
            "nrel",
            (ArgList((ArgTuple((Sym("title"), STRING)), ArgTuple((Sym("sub"), inner)))),),
        )
        ts.check_type(t)
