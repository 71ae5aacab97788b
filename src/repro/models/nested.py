"""The nested relational model of paper Section 2.1 (the books example).

The paper's type system folds the attribute list directly into ``rel``::

    kinds IDENT, DATA, REL
    type constructors
        -> IDENT                            ident
        -> DATA                             int, real, string, bool
        (ident x (DATA | REL))+ -> REL      rel

:func:`nested_type_system_paper` builds exactly that signature (used to
check the books type of the paper verbatim).  The *executable* model built
by :func:`nested_relational_model` additionally keeps an explicit ``tuple``
constructor — ``tuple: (ident x (DATA | REL))+ -> TUPLE`` and ``rel: TUPLE
-> REL`` — so that row values have a type the operator specifications can
quantify over.  The two formulations describe the same set of relation
schemas; the executable one also carries the classical NF² operators
``nest`` and ``unnest``.
"""

from __future__ import annotations

from repro.core.algebra import Relation, SecondOrderAlgebra, TupleValue
from repro.core.operators import Quantifier, TypeOperator
from repro.core.signature import TypeSystem
from repro.core.sorts import ListSort, UnionSort
from repro.core.sos import SecondOrderSignature, SignatureBuilder
from repro.core.types import (
    FunType,
    PVar,
    ProductType,
    Sym,
    Type,
    TypeApp,
    attr_type,
    attrs_of,
    format_type,
    rel_type,
    tuple_type,
)
from repro.core.constructors import TypeConstructor
from repro.models.common import (
    BOOL,
    add_comparisons,
    add_logic,
    register_atomic_carriers,
)
from repro.models.relational import (
    IDENT_T,
    REL_PATTERN,
    _check_rel,
    _check_tuple,
    _select_impl,
)


def nested_type_system_paper() -> TypeSystem:
    """The verbatim type system of Section 2.1 (no tuple constructor)."""
    ts = TypeSystem()
    ident = ts.add_kind("IDENT")
    data = ts.add_kind("DATA")
    rel = ts.add_kind("REL")
    ts.add_constructor(TypeConstructor("ident", (), ident))
    for name in ("int", "real", "string", "bool"):
        ts.add_constructor(TypeConstructor(name, (), data))
    attr_sort = ProductType(
        (IDENT_T, UnionSort((PVar("", data), PVar("", rel))))
    )
    ts.add_constructor(TypeConstructor("rel", (ListSort(attr_sort),), rel))
    return ts


# ---------------------------------------------------------------------------
# Executable model
# ---------------------------------------------------------------------------


def _unnest_type(type_system, binds, descriptors) -> Type:
    """Result type of ``unnest``: replace the named rel-valued attribute by
    the attributes of its element tuple type."""
    tup = binds["tuple"]
    attr = descriptors[1]
    inner = attr_type(tup, attr.name)
    if inner is None:
        raise ValueError(f"no attribute {attr.name} on {format_type(tup)}")
    if not (isinstance(inner, TypeApp) and inner.constructor == "rel"):
        raise ValueError(f"attribute {attr.name} is not relation-valued")
    inner_tuple = inner.args[0]
    attrs = []
    for name, dtype in attrs_of(tup):
        if name == attr.name:
            attrs.extend(attrs_of(inner_tuple))
        else:
            attrs.append((name, dtype))
    names = [a for a, _ in attrs]
    if len(set(names)) != len(names):
        raise ValueError("unnest would create duplicate attribute names")
    return rel_type(tuple_type(attrs))


def _unnest_impl(ctx, rel: Relation, attr: Sym) -> Relation:
    result_type = ctx.result_type
    out_tuple = result_type.args[0]
    tup = ctx.binding_type("tuple")
    names = [name for name, _ in attrs_of(tup)]
    index = names.index(attr.name)
    rows = []
    for row in rel:
        inner = row.values[index]
        for inner_row in inner:
            values = (
                row.values[:index] + tuple(inner_row.values) + row.values[index + 1 :]
            )
            rows.append(TupleValue(out_tuple, values))
    return Relation(result_type, rows)


def _nest_type(type_system, binds, descriptors) -> Type:
    """Result type of ``nest``: move the named attributes into a nested
    relation-valued attribute."""
    tup = binds["tuple"]
    nested_names = [sym.name for sym in descriptors[1]]
    new_name = descriptors[2].name
    attrs = attrs_of(tup)
    known = {name for name, _ in attrs}
    unknown = [n for n in nested_names if n not in known]
    if unknown:
        raise ValueError(f"unknown attribute(s): {', '.join(unknown)}")
    inner = [(n, d) for n, d in attrs if n in nested_names]
    outer = [(n, d) for n, d in attrs if n not in nested_names]
    if not outer:
        raise ValueError("nest must leave at least one grouping attribute")
    if new_name in {n for n, _ in outer}:
        raise ValueError(f"new attribute name {new_name} collides")
    nested_rel = rel_type(tuple_type(inner))
    return rel_type(tuple_type(outer + [(new_name, nested_rel)]))


def _nest_impl(ctx, rel: Relation, attr_syms: list, new_name: Sym) -> Relation:
    result_type = ctx.result_type
    out_tuple = result_type.args[0]
    tup = ctx.binding_type("tuple")
    attrs = attrs_of(tup)
    nested_names = {sym.name for sym in attr_syms}
    outer_idx = [i for i, (n, _) in enumerate(attrs) if n not in nested_names]
    inner_idx = [i for i, (n, _) in enumerate(attrs) if n in nested_names]
    nested_rel_type = attrs_of(out_tuple)[-1][1]
    inner_tuple = nested_rel_type.args[0]
    groups: dict[tuple, list] = {}
    order: list[tuple] = []
    for row in rel:
        key = tuple(row.values[i] for i in outer_idx)
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(
            TupleValue(inner_tuple, tuple(row.values[i] for i in inner_idx))
        )
    rows = []
    for key in order:
        nested = Relation(nested_rel_type, groups[key])
        rows.append(TupleValue(out_tuple, key + (nested,)))
    return Relation(result_type, rows)


def nested_relational_model() -> tuple[SecondOrderSignature, SecondOrderAlgebra]:
    """The executable nested relational model with select / nest / unnest."""
    builder = SignatureBuilder()
    _ident, data, tup, rel = builder.kinds("IDENT", "DATA", "TUPLE", "REL")
    builder.constant_types("IDENT", "ident", level="hybrid")
    builder.constant_types("DATA", "int", "real", "string", "bool", level="hybrid")
    attr_sort = ProductType(
        (IDENT_T, UnionSort((PVar("", data), PVar("", rel))))
    )
    builder.constructor("tuple", [ListSort(attr_sort)], tup, level="model")
    builder.constructor("rel", [PVar("", tup)], rel, level="model")
    add_comparisons(builder, data)
    add_logic(builder)
    rel_q = Quantifier("rel", rel, REL_PATTERN)
    builder.op(
        "select",
        quantifiers=(rel_q,),
        args=(PVar("rel"), FunType((PVar("tuple"),), BOOL)),
        result=PVar("rel"),
        syntax="_ #[ _ ]",
        impl=_select_impl,
        doc="selection over nested relations",
    )
    builder.op(
        "unnest",
        quantifiers=(rel_q,),
        args=(PVar("rel"), IDENT_T),
        result=TypeOperator("unnest", rel, _unnest_type),
        syntax="_ #[ _ ]",
        impl=_unnest_impl,
        doc="flatten one relation-valued attribute",
    )
    builder.op(
        "nest",
        quantifiers=(rel_q,),
        args=(
            PVar("rel"),
            ListSort(IDENT_T),
            IDENT_T,
        ),
        result=TypeOperator("nest", rel, _nest_type),
        syntax="_ #[ _, _ ]",
        impl=_nest_impl,
        doc="group the named attributes into a nested relation",
    )
    builder.attribute_family()
    sos = builder.build()
    algebra = SecondOrderAlgebra(sos)
    register_atomic_carriers(algebra)
    algebra.register_carrier("tuple", _check_tuple)
    algebra.register_carrier("rel", _check_rel)
    return sos, algebra
