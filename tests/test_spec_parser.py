"""The textual specification language: specifications are data (Section 2).

The key test loads the paper's relational specification (Sections 2.1/2.2)
from text, attaches the algebra by name, and runs the running-example query
through the generic machinery.
"""

import pytest

from repro.core.algebra import Evaluator, SecondOrderAlgebra
from repro.core.operators import TypeOperator
from repro.core.sorts import ListSort, UnionSort
from repro.core.typecheck import TypeChecker
from repro.core.terms import Apply, Literal, Var
from repro.core.types import (
    FunType,
    PBind,
    ProductType,
    PVar,
    TypeApp,
    rel_type,
    tuple_type,
)
from repro.errors import ParseError, SpecificationError
from repro.models.relational import (
    _join_impl,
    _join_type,
    _select_impl,
    _union_impl,
    make_relation,
    register_relational_carriers,
)
from repro.models.common import _COMPARISONS, _comparable
from repro.spec import parse_spec

RELATIONAL_SPEC = """
kinds IDENT, DATA, TUPLE, REL

type constructors
    -> IDENT                        ident
    -> DATA                         int, real, string, bool
    (ident x DATA)+ -> TUPLE        tuple
    TUPLE -> REL                    rel

operators
    forall data in DATA.
        data x data -> bool         =, !=, <, <=, >=, >     syntax ( _ # _ )
    forall rel: rel(tuple) in REL.
        rel x (tuple -> bool) -> rel   select               syntax _ #[ _ ]
        rel+ -> rel                    union                syntax _ #
        rel x tuple ~> rel             insert
    forall rel1: rel(tuple1) in REL. forall rel2: rel(tuple2) in REL.
        rel1 x rel2 x (tuple1 x tuple2 -> bool) -> rel: REL   join   syntax _ _ #[ _ ]
"""

INT = TypeApp("int")
STRING = TypeApp("string")
PERSON = tuple_type([("name", STRING), ("age", INT)])
PERSONS = rel_type(PERSON)


@pytest.fixture()
def spec_sos():
    impls = {"select": _select_impl, "union": _union_impl, "join": _join_impl}
    for name, fn in _COMPARISONS.items():
        impls[name] = _comparable(fn, name)
    sos = parse_spec(
        RELATIONAL_SPEC, impls=impls, type_operators={"join": _join_type}
    )
    from repro.core.operators import AttributeFamily

    sos.add_family(AttributeFamily())
    return sos


class TestStructure:
    def test_kinds(self, spec_sos):
        names = {k.name for k in spec_sos.type_system.kinds}
        assert names == {"IDENT", "DATA", "TUPLE", "REL"}

    def test_constant_constructors(self, spec_sos):
        data = {t.constructor for t in spec_sos.type_system.constant_types_of_kind("DATA")}
        assert data == {"int", "real", "string", "bool"}

    def test_tuple_constructor_shape(self, spec_sos):
        ctor = spec_sos.type_system.constructor("tuple")
        (arg,) = ctor.arg_sorts
        assert isinstance(arg, ListSort)
        assert isinstance(arg.element, ProductType)

    def test_types_well_formed(self, spec_sos):
        spec_sos.type_system.check_type(PERSONS)

    def test_operator_count(self, spec_sos):
        assert len(spec_sos.operators("=")) == 1
        assert len(spec_sos.operators("select")) == 1
        select = spec_sos.operators("select")[0]
        assert select.syntax.text == "_ #[ _ ]"
        assert not select.is_update

    def test_update_marker(self, spec_sos):
        assert spec_sos.operators("insert")[0].is_update

    def test_join_has_type_operator(self, spec_sos):
        join = spec_sos.operators("join")[0]
        assert isinstance(join.result, TypeOperator)
        assert join.result.result_kind.name == "REL"

    def test_union_list_sort(self, spec_sos):
        union = spec_sos.operators("union")[0]
        assert isinstance(union.arg_sorts[0], ListSort)
        assert isinstance(union.arg_sorts[0].element, PVar)

    def test_trailing_comments_ignored(self):
        sos = parse_spec(
            "kinds DATA                -- the data kinds\n"
            "type constructors\n"
            "    -> DATA  int, bool    -- constants\n"
        )
        assert sos.type_system.has_constructor("int")
        assert sos.type_system.has_constructor("bool")


class TestSemantics:
    """The loaded spec typechecks and evaluates the running example."""

    def test_query_through_spec(self, spec_sos):
        algebra = SecondOrderAlgebra(spec_sos)
        register_relational_carriers(algebra)
        persons = make_relation(
            PERSONS, [{"name": "ann", "age": 20}, {"name": "bob", "age": 40}]
        )
        tc = TypeChecker(spec_sos, object_types={"persons": PERSONS}.get)
        ev = Evaluator(algebra, resolver={"persons": persons}.get)
        q = tc.check(
            Apply("select", (Var("persons"), Apply(">", (Var("age"), Literal(30)))))
        )
        assert [t.attr("name") for t in ev.eval(q)] == ["bob"]

    def test_join_type_computed(self, spec_sos):
        tc = TypeChecker(
            spec_sos,
            object_types={
                "persons": PERSONS,
                "cities": rel_type(tuple_type([("cname", STRING)])),
            }.get,
        )
        q = tc.check(
            Apply(
                "join",
                (
                    Var("persons"),
                    Var("cities"),
                    Apply("=", (Var("name"), Var("cname"))),
                ),
            )
        )
        from repro.core.types import format_type

        assert "cname" in format_type(q.type)


class TestRepSpec:
    """Section 4's representation specification, textual form."""

    REP_SPEC = """
kinds IDENT, DATA, ORD, TUPLE, STREAM, BTREE, RELREP, SREL

type constructors
    -> IDENT                       ident
    -> DATA                        int, string, bool
    -> ORD                         ord_marker
    (ident x DATA)+ -> TUPLE       tuple
    TUPLE -> STREAM                stream
    TUPLE -> SREL                  srel
    TUPLE -> RELREP                relrep
    tuple: TUPLE x ident x ORD -> BTREE    btree
    tuple: TUPLE x (tuple -> ORD) -> BTREE  btree

subtypes
    srel(tuple) < relrep(tuple)
    btree(tuple, attrname, dtype) < relrep(tuple)

operators
    forall relrep: relrep(tuple) in RELREP.
        relrep -> stream(tuple)    feed       syntax _ #
    forall stream: stream(tuple) in STREAM.
        stream x (tuple -> bool) -> stream   filter   syntax _ #[ _ ]
"""

    def test_parses(self):
        sos = parse_spec(self.REP_SPEC)
        assert len(sos.type_system.overloads("btree")) == 2
        feed = sos.operators("feed")[0]
        assert isinstance(feed.result, TypeApp)
        assert len(sos.subtypes.rules) == 2

    def test_binding_constructor_argument(self):
        sos = parse_spec(self.REP_SPEC)
        attr_variant = sos.type_system.overloads("btree")[0]
        assert isinstance(attr_variant.arg_sorts[0], PBind)
        fn_variant = sos.type_system.overloads("btree")[1]
        assert isinstance(fn_variant.arg_sorts[1], FunType)


class TestErrors:
    def test_unknown_sort_name(self):
        with pytest.raises(ParseError) as exc:
            parse_spec("kinds A\n\ntype constructors\n    nonsense -> A  x")
        assert exc.value.line == 4
        assert exc.value.column == 5
        assert "line 4" in str(exc.value)

    def test_type_operator_without_compute(self):
        spec = """
kinds DATA, REL
type constructors
    -> DATA  int
operators
    forall rel in REL.
        rel x rel -> rel: REL   myjoin
"""
        with pytest.raises(SpecificationError):
            parse_spec(spec)

    def test_text_before_section(self):
        with pytest.raises(ParseError) as exc:
            parse_spec("hello\nkinds A")
        assert exc.value.line == 1
        assert exc.value.column == 1

    def test_union_kind_quantifier(self):
        spec = """
kinds IDENT, DATA, REL
type constructors
    -> IDENT  ident
    -> DATA   int
operators
    forall x in DATA | REL.
        x -> x   identity
"""
        sos = parse_spec(spec)
        q = sos.operators("identity")[0].quantifiers[0]
        assert isinstance(q.kind, UnionSort)
