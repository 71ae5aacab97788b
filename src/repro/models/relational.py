"""The relational data model of paper Sections 2.1, 2.2 and 6.

Type system::

    kinds IDENT, DATA, TUPLE, REL
    type constructors
        -> IDENT                  ident
        -> DATA                   int, real, string, bool [, point, rect, pgon]
        (ident x DATA)+ -> TUPLE  tuple
        TUPLE -> REL              rel

Query operators (Section 2.2)::

    forall data in DATA.          data x data -> bool            =, !=, <, <=, >=, >
    forall rel: rel(tuple) in REL.
        rel x (tuple -> bool) -> rel                             select
    forall tuple: tuple(list) in TUPLE. forall (a, d) in list.
        tuple -> d                                               a   (attribute access)
    forall rel in REL.            rel+ -> rel                    union
    forall rel1: rel(tuple1), rel2: rel(tuple2) in REL.
        rel1 x rel2 x (tuple1 x tuple2 -> bool) -> rel: REL      join

Update operators (Section 6, marked as update functions)::

    forall rel: rel(tuple) in REL.
        -> rel                                                   empty
        rel x tuple ~> rel                                       insert
        rel x rel ~> rel                                         rel_insert
        rel x (tuple -> bool) ~> rel                             delete
    forall rel: rel(tuple: tuple(list)) in REL. forall (a, d) in list.
        rel x (tuple -> bool) x a x (tuple -> d) ~> rel          modify

The ``join`` result type is computed by a type operator in Δ (concatenation
of the operand tuple types); ``modify``'s dependent constraint on the
attribute name is a post-check, the second-level quantification of the paper.
"""

from __future__ import annotations

from repro.core.algebra import Relation, SecondOrderAlgebra, TupleValue
from repro.core.operators import Quantifier, TypeOperator
from repro.core.sorts import ListSort
from repro.core.sos import SecondOrderSignature, SignatureBuilder
from repro.core.types import (
    FunType,
    PVar,
    Sym,
    Type,
    TypeApp,
    attr_type,
    attrs_of,
    concat_tuple_types,
    format_type,
    tuple_type,
)
from repro.errors import ExecutionError
from repro.testing.faults import fault_point
from repro.models.common import (
    BOOL,
    register_atomic_carriers,
)
from repro.models.spatial import register_spatial_carriers

IDENT_T = TypeApp("ident")

REL_PATTERN = TypeApp("rel", (PVar("tuple"),))
"""The pattern ``rel(tuple)`` used by most quantifiers below."""


# ---------------------------------------------------------------------------
# Operator implementations (the second-order algebra)
# ---------------------------------------------------------------------------


def _select_impl(ctx, rel: Relation, pred) -> Relation:
    return Relation(rel.type, (t for t in rel if pred(t)))


def _union_impl(ctx, rels: list) -> Relation:
    rows = []
    for rel in rels:
        rows.extend(rel.rows)
    return Relation(rels[0].type, rows)


def _join_impl(ctx, left: Relation, right: Relation, pred) -> Relation:
    result_type = ctx.result_type
    assert isinstance(result_type, TypeApp)
    out_tuple = result_type.args[0]
    rows = []
    for t1 in left:
        for t2 in right:
            if pred(t1, t2):
                rows.append(t1.concat(t2, out_tuple))
    return Relation(result_type, rows)


def _join_type(type_system, binds, descriptors) -> Type:
    """The ``join`` type operator: REL x REL -> REL by tuple concatenation."""
    tuple1 = binds["tuple1"]
    tuple2 = binds["tuple2"]
    rel1 = binds["rel1"]
    assert isinstance(rel1, TypeApp)
    return TypeApp(rel1.constructor, (concat_tuple_types(tuple1, tuple2),))


def _empty_impl(ctx) -> Relation:
    return Relation(ctx.result_type, [])


def _insert_impl(ctx, rel: Relation, tup: TupleValue) -> Relation:
    fault_point("rel.insert")
    rel.insert(tup)
    return rel


def _rel_insert_impl(ctx, rel: Relation, other: Relation) -> Relation:
    fault_point("rel.insert")
    rel.rows.extend(other.rows)
    return rel


def _delete_impl(ctx, rel: Relation, pred) -> Relation:
    fault_point("rel.delete")
    rel.rows[:] = [t for t in rel.rows if not pred(t)]
    return rel


def _modify_impl(ctx, rel: Relation, pred, attr: Sym, fn) -> Relation:
    fault_point("rel.modify")
    name = attr.name
    rel.rows[:] = [
        t.with_attr(name, fn(t)) if pred(t) else t for t in rel.rows
    ]
    return rel


def _modify_post_check(type_system, binds, descriptors):
    """``forall (attrname, dtype) in list``: the named attribute must exist
    on the tuple type and the value function must produce its type."""
    attr = descriptors[2]
    fn_type = descriptors[3]
    tup = binds["tuple"]
    expected = attr_type(tup, attr.name)
    if expected is None:
        return f"tuple type {format_type(tup)} has no attribute {attr.name}"
    if fn_type.result != expected:
        return (
            f"value function yields {format_type(fn_type.result)}, attribute "
            f"{attr.name} has type {format_type(expected)}"
        )
    return None


# ---------------------------------------------------------------------------
# Model assembly
# ---------------------------------------------------------------------------


def relational_model(
    spatial: bool = True,
) -> tuple[SecondOrderSignature, SecondOrderAlgebra]:
    """Build the relational model: its second-order signature and algebra."""
    from repro.models.base import add_base_level

    builder = SignatureBuilder()
    add_base_level(builder, spatial=spatial)
    add_relational_level(builder)
    sos = builder.build()
    algebra = SecondOrderAlgebra(sos)
    register_relational_carriers(algebra)
    return sos, algebra


def add_relational_level(builder: SignatureBuilder) -> None:
    """Install the model-level relational layer on top of the base level:
    the ``rel`` constructor, the query operators and the update operators."""
    rel = builder.kind("REL")
    builder.constructor("rel", [PVar("", builder.kind("TUPLE"))], rel, level="model")
    add_relational_operators(builder)
    add_relational_updates(builder)


def add_relational_operators(builder: SignatureBuilder) -> None:
    """select / union / join / mktuple (Section 2.2)."""
    rel_kind = builder.kind("REL")
    data_kind = builder.kind("DATA")
    builder.op(
        "select",
        quantifiers=(Quantifier("rel", rel_kind, REL_PATTERN),),
        args=(
            PVar("rel"),
            FunType((PVar("tuple"),), BOOL),
        ),
        result=PVar("rel"),
        syntax="_ #[ _ ]",
        impl=_select_impl,
        level="model",
        doc="relational selection; result schema equals the operand schema",
    )
    builder.op(
        "union",
        quantifiers=(Quantifier("rel", rel_kind),),
        args=(ListSort(PVar("rel")),),
        result=PVar("rel"),
        syntax="_ #",
        impl=_union_impl,
        level="model",
        doc="n-ary union; all operands must have the same relation type",
    )
    builder.op(
        "join",
        quantifiers=(
            Quantifier("rel1", rel_kind, TypeApp("rel", (PVar("tuple1"),))),
            Quantifier("rel2", rel_kind, TypeApp("rel", (PVar("tuple2"),))),
        ),
        args=(
            PVar("rel1"),
            PVar("rel2"),
            FunType((PVar("tuple1"), PVar("tuple2")), BOOL),
        ),
        result=TypeOperator("join", rel_kind, _join_type),
        syntax="_ _ #[ _ ]",
        impl=_join_impl,
        level="model",
        doc="theta-join; the result type is computed by the join type operator",
    )
def add_relational_updates(builder: SignatureBuilder) -> None:
    """The update functions of Section 6 for the relational model."""
    rel_kind = builder.kind("REL")
    data_kind = builder.kind("DATA")
    rel_q = Quantifier("rel", rel_kind, REL_PATTERN)
    builder.op(
        "empty",
        quantifiers=(rel_q,),
        args=(),
        result=PVar("rel"),
        impl=_empty_impl,
        level="model",
        doc="the empty relation of the expected relation type",
    )
    builder.op(
        "insert",
        quantifiers=(rel_q,),
        args=(PVar("rel"), PVar("tuple")),
        result=PVar("rel"),
        impl=_insert_impl,
        is_update=True,
        level="model",
        doc="insert one tuple",
    )
    builder.op(
        "rel_insert",
        quantifiers=(rel_q,),
        args=(PVar("rel"), PVar("rel")),
        result=PVar("rel"),
        impl=_rel_insert_impl,
        is_update=True,
        level="model",
        doc="insert all tuples of another relation",
    )
    builder.op(
        "delete",
        quantifiers=(rel_q,),
        args=(PVar("rel"), FunType((PVar("tuple"),), BOOL)),
        result=PVar("rel"),
        impl=_delete_impl,
        is_update=True,
        level="model",
        doc="delete all tuples satisfying the predicate",
    )
    builder.op(
        "modify",
        quantifiers=(rel_q,),
        args=(
            PVar("rel"),
            FunType((PVar("tuple"),), BOOL),
            IDENT_T,
            FunType((PVar("tuple"),), PVar("", data_kind)),
        ),
        result=PVar("rel"),
        impl=_modify_impl,
        is_update=True,
        post_check=_modify_post_check,
        level="model",
        doc="assign the value function's result to the named attribute of "
        "every qualifying tuple",
    )


# ---------------------------------------------------------------------------
# Carriers
# ---------------------------------------------------------------------------


def _check_tuple(algebra, value, t) -> bool:
    if not isinstance(value, TupleValue) or value.schema != t:
        return False
    attrs = attrs_of(t)
    if len(value.values) != len(attrs):
        return False
    return all(
        algebra.check_value(v, dtype) for v, (_, dtype) in zip(value.values, attrs)
    )


def _check_rel(algebra, value, t) -> bool:
    if not isinstance(value, Relation) or value.type != t:
        return False
    return all(_check_tuple(algebra, row, value.tuple_type) for row in value.rows)


def register_relational_carriers(algebra: SecondOrderAlgebra) -> None:
    register_atomic_carriers(algebra)
    register_spatial_carriers(algebra)
    algebra.register_carrier("tuple", _check_tuple)
    algebra.register_carrier("rel", _check_rel)


# ---------------------------------------------------------------------------
# Python-side convenience constructors
# ---------------------------------------------------------------------------


def make_tuple(schema: Type, **values) -> TupleValue:
    """Build a tuple value by attribute name (Python-side convenience)."""
    attrs = attrs_of(schema)
    missing = [name for name, _ in attrs if name not in values]
    if missing:
        raise ExecutionError(f"missing attribute value(s): {', '.join(missing)}")
    extra = set(values) - {name for name, _ in attrs}
    if extra:
        raise ExecutionError(f"unknown attribute(s): {', '.join(sorted(extra))}")
    return TupleValue(schema, tuple(values[name] for name, _ in attrs))


def make_relation(rel_t: Type, rows) -> Relation:
    """Build a relation from dicts or TupleValues."""
    assert isinstance(rel_t, TypeApp)
    schema = rel_t.args[0]
    out = Relation(rel_t)
    for row in rows:
        if isinstance(row, TupleValue):
            out.insert(row)
        else:
            out.insert(make_tuple(schema, **row))
    return out
