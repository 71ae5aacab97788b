"""The complex object model of paper Section 2.1, "in the spirit of [BaK86]".

Type system::

    kinds IDENT, OBJ
    type constructors
        -> IDENT                 ident
        -> OBJ                   bottom, top, int, real, string, bool
        (ident x OBJ)+ -> OBJ    tuple
        OBJ -> OBJ               set

Everything lives in the single kind ``OBJ``; tuples and sets nest freely.
Beyond the paper's type system we provide the structural subtype order of
[BaK86] (:func:`co_subtype`: ``bottom`` below everything, ``top`` above,
width/depth subtyping on tuples, covariant sets) and a small operator
algebra over set values.
"""

from __future__ import annotations

from repro.core.algebra import SecondOrderAlgebra
from repro.core.operators import Quantifier, TypeOperator
from repro.core.sorts import ListSort
from repro.core.sos import SecondOrderSignature, SignatureBuilder
from repro.core.types import FunType, PVar, ProductType, Type, TypeApp, attrs_of
from repro.models.common import BOOL, add_comparisons, add_logic, register_atomic_carriers
from repro.models.relational import IDENT_T, _check_tuple

BOTTOM = TypeApp("bottom")
TOP = TypeApp("top")


def co_subtype(sub: Type, sup: Type) -> bool:
    """The structural subtype order of the complex object model.

    * ``bottom <= t <= top`` for every type ``t``;
    * tuples: width and depth subtyping — the subtype has at least the
      supertype's attributes, componentwise subtypes;
    * sets: covariant in the element type;
    * atomic types only relate to themselves (and bottom/top).
    """
    if sub == sup or sub == BOTTOM or sup == TOP:
        return True
    if not isinstance(sub, TypeApp) or not isinstance(sup, TypeApp):
        return False
    if sub.constructor == "set" and sup.constructor == "set":
        return co_subtype(sub.args[0], sup.args[0])  # type: ignore[arg-type]
    if sub.constructor == "tuple" and sup.constructor == "tuple":
        sub_attrs = dict(attrs_of(sub))
        for name, sup_type in attrs_of(sup):
            if name not in sub_attrs:
                return False
            if not co_subtype(sub_attrs[name], sup_type):
                return False
        return True
    return False


class ObjectSet:
    """A set value of the complex object model.

    Elements are hashable model values (atomics, tuples, nested sets are
    frozen on insertion).
    """

    __slots__ = ("type", "elements")

    def __init__(self, set_type: Type, elements=()):
        self.type = set_type
        self.elements: list = []
        seen = set()
        for element in elements:
            key = repr(element)
            if key not in seen:
                seen.add(key)
                self.elements.append(element)

    @property
    def element_type(self) -> Type:
        assert isinstance(self.type, TypeApp)
        arg = self.type.args[0]
        assert isinstance(arg, Type)
        return arg

    def __iter__(self):
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, value) -> bool:
        return any(repr(e) == repr(value) for e in self.elements)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ObjectSet)
            and other.type == self.type
            and sorted(map(repr, other.elements)) == sorted(map(repr, self.elements))
        )

    def __repr__(self) -> str:
        return "{" + ", ".join(repr(e) for e in self.elements) + "}"


SET_PATTERN = TypeApp("set", (PVar("obj"),))


def _mkset_type(type_system, binds, descriptors) -> Type:
    (element_types,) = descriptors
    first = element_types[0]
    if any(t != first for t in element_types):
        raise ValueError("mkset elements must all have the same type")
    return TypeApp("set", (first,))


def complex_object_model() -> tuple[SecondOrderSignature, SecondOrderAlgebra]:
    """The complex object model with a small set algebra."""
    builder = SignatureBuilder()
    _ident, obj = builder.kinds("IDENT", "OBJ")
    builder.constant_types("IDENT", "ident", level="hybrid")
    builder.constant_types(
        "OBJ", "bottom", "top", "int", "real", "string", "bool", level="model"
    )
    builder.constructor(
        "tuple",
        [ListSort(ProductType((IDENT_T, PVar("", obj))))],
        obj,
        level="model",
    )
    builder.constructor("set", [PVar("", obj)], obj, level="model")
    add_comparisons(builder, obj)
    add_logic(builder)
    set_q = Quantifier("set", obj, SET_PATTERN)
    obj_q = Quantifier("obj", obj)
    builder.op(
        "mkset",
        quantifiers=(obj_q,),
        args=(ListSort(PVar("obj")),),
        result=TypeOperator("mkset", obj, _mkset_type),
        syntax="#[ _ ]",
        impl=lambda ctx, elements: ObjectSet(ctx.result_type, elements),
        doc="set construction from elements of one type",
    )
    builder.op(
        "member",
        quantifiers=(obj_q, set_q),
        args=(PVar("obj"), PVar("set")),
        result=BOOL,
        syntax="( _ # _ )",
        impl=lambda ctx, value, s: value in s,
        doc="set membership",
    )
    builder.op(
        "set_union",
        quantifiers=(set_q,),
        args=(PVar("set"), PVar("set")),
        result=PVar("set"),
        syntax="( _ # _ )",
        impl=lambda ctx, a, b: ObjectSet(a.type, list(a) + list(b)),
        doc="set union",
    )
    builder.op(
        "set_insert",
        quantifiers=(set_q,),
        args=(PVar("set"), PVar("obj")),
        result=PVar("set"),
        impl=lambda ctx, s, value: ObjectSet(s.type, list(s) + [value]),
        is_update=True,
        doc="insert an element (update function)",
    )
    builder.op(
        "filter_set",
        quantifiers=(set_q,),
        args=(PVar("set"), FunType((PVar("obj"),), BOOL)),
        result=PVar("set"),
        syntax="_ #[ _ ]",
        impl=lambda ctx, s, pred: ObjectSet(s.type, (e for e in s if pred(e))),
        doc="subset satisfying a predicate",
    )
    builder.op(
        "card",
        quantifiers=(set_q,),
        args=(PVar("set"),),
        result=TypeApp("int"),
        syntax="# ( _ )",
        impl=lambda ctx, s: len(s),
        doc="cardinality",
    )
    builder.attribute_family()
    sos = builder.build()
    algebra = SecondOrderAlgebra(sos)
    register_atomic_carriers(algebra)
    algebra.register_carrier("tuple", _check_tuple)
    algebra.register_carrier(
        "set",
        lambda alg, v, t: isinstance(v, ObjectSet)
        and v.type == t
        and all(alg.check_value(e, v.element_type) for e in v.elements),
    )
    return sos, algebra
