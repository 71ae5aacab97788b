"""The hybrid base level shared by model and representation signatures.

Section 6 observes that "often some types occur at both levels, for example,
atomic data types, or a tuple type" — those are the *hybrid* constructors.
This module installs them into a builder: the kinds ``IDENT``, ``DATA`` and
``TUPLE``, the atomic constant types, the ``tuple`` constructor, attribute
access, comparisons, arithmetic, logic, spatial types/operators and the
``mktuple`` constructor operator.
"""

from __future__ import annotations

from repro.core.algebra import SecondOrderAlgebra
from repro.core.operators import TypeOperator
from repro.core.sorts import ListSort
from repro.core.sos import SignatureBuilder
from repro.core.types import PVar, ProductType, Sym, Type, TypeApp, tuple_type
from repro.models.common import (
    add_arithmetic,
    add_comparisons,
    add_logic,
    register_atomic_carriers,
)
from repro.models.spatial import (
    add_spatial_operators,
    add_spatial_types,
    register_spatial_carriers,
)

IDENT_T = TypeApp("ident")


def _mktuple_type(type_system, binds, descriptors) -> Type:
    """Tuple type from the (attrname, value-type) descriptor list."""
    (pairs,) = descriptors
    attrs = []
    for sym, value_type in pairs:
        if not isinstance(sym, Sym):
            raise ValueError("mktuple components must be (identifier, value)")
        attrs.append((sym.name, value_type))
    names = [a for a, _ in attrs]
    if len(set(names)) != len(names):
        raise ValueError("duplicate attribute names in mktuple")
    return tuple_type(attrs)


def _mktuple_impl(ctx, pairs: list) -> tuple:
    """The tuple's carrier: its component values, in attribute order."""
    return tuple([value for _, value in pairs])


def add_base_level(builder: SignatureBuilder, spatial: bool = True) -> None:
    """Install the hybrid base: kinds, atomic types, tuple, shared operators."""
    _ident, data, tup = builder.kinds("IDENT", "DATA", "TUPLE")
    builder.constant_types("IDENT", "ident", level="hybrid")
    builder.constant_types("DATA", "int", "real", "string", "bool", level="hybrid")
    builder.constructor(
        "tuple",
        [ListSort(ProductType((IDENT_T, PVar("", data))))],
        tup,
        level="hybrid",
    )
    if spatial:
        add_spatial_types(builder)
        add_spatial_operators(builder)
    add_comparisons(builder, data)
    add_arithmetic(builder, data)
    add_logic(builder)
    builder.op(
        "mktuple",
        args=(ListSort(ProductType((IDENT_T, PVar("", data)))),),
        result=TypeOperator("mktuple", tup, _mktuple_type),
        syntax="#[ _ ]",
        impl=_mktuple_impl,
        level="hybrid",
        doc="tuple construction from (attrname, value) pairs",
    )
    builder.attribute_family()


def register_base_carriers(algebra: SecondOrderAlgebra) -> None:
    from repro.models.relational import _check_tuple

    register_atomic_carriers(algebra)
    register_spatial_carriers(algebra)
    algebra.register_carrier("tuple", _check_tuple)
