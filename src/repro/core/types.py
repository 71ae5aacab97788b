"""Type terms: the terms of the top-level signature (paper Def. 3.3 (iii)).

A *type* is a term built from type constructors.  Because constructors may
take not only types but also *values* as arguments (``string(4)``,
``btree(city, pop, int)``, ``lsdtree(state, fun (s: state) bbox(s region))``),
the argument positions of a :class:`TypeApp` accept a small algebra of
*type arguments*:

``Type``
    a nested type, e.g. the tuple type inside ``rel(tuple(...))``;
``Sym``
    an identifier value (type ``ident``), e.g. attribute names;
``Lit``
    a literal value of an atomic type, e.g. the ``4`` in ``string(4)``;
``ArgList``
    a list term ``<a1, ..., an>`` (a term of a list sort ``s+``);
``ArgTuple``
    a product term ``(a1, ..., an)`` (a term of a product sort);
``TermArg``
    an embedded value term, used for function-valued constructor arguments
    such as the key function of a function-indexed B-tree or LSD-tree.

Besides constructor applications the extended signature of Def. 3.2 yields
function types (``FunType``) and product types (``ProductType``); these occur
as the types of views (``( -> city_rel)``) and parameterized views
(``(string -> city_rel)``) in Section 2.4 of the paper.

A type term may also contain metavariables, which makes it a *pattern*
(:mod:`repro.core.patterns`): ``PVar`` stands for a cut-off subtree and
``PBind`` labels an internal node (paper Figure 1).

All type terms are immutable and structurally comparable/hashable, which the
optimizer's pattern matcher and the typechecker rely on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Optional, Union

from repro.core.kinds import Kind

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations only
    from repro.core.terms import Term


class Type:
    """Abstract base class of all type terms."""

    __slots__ = ()

    def __str__(self) -> str:
        return format_type(self)


@dataclass(frozen=True, slots=True)
class Sym:
    """An identifier value — a term of the constant type ``ident``."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, slots=True)
class Lit:
    """A literal value argument of a type constructor, e.g. ``string(4)``."""

    value: object

    def __str__(self) -> str:
        return repr(self.value)


@dataclass(frozen=True, slots=True)
class ArgList:
    """A list term ``<a1, ..., an>`` used as a constructor argument."""

    items: tuple["TypeArg", ...]

    def __str__(self) -> str:
        return "<" + ", ".join(_format_arg(a) for a in self.items) + ">"

    def __iter__(self):
        return iter(self.items)

    def __len__(self) -> int:
        return len(self.items)


@dataclass(frozen=True, slots=True)
class ArgTuple:
    """A product term ``(a1, ..., an)`` used as a constructor argument."""

    items: tuple["TypeArg", ...]

    def __str__(self) -> str:
        return "(" + ", ".join(_format_arg(a) for a in self.items) + ")"

    def __iter__(self):
        return iter(self.items)

    def __len__(self) -> int:
        return len(self.items)


class TermArg:
    """A value term embedded as a constructor argument.

    Equality and hashing are structural over the embedded term, so two
    B-tree types indexed by syntactically identical key functions are the
    same type.  Type formation replaces the parsed term by its typechecked
    version, which changes neither.
    """

    __slots__ = ("term",)

    def __init__(self, term: "Term"):
        self.term = term

    def __eq__(self, other: object) -> bool:
        from repro.core.terms import same_term

        return isinstance(other, TermArg) and same_term(self.term, other.term)

    def __hash__(self) -> int:
        from repro.core.terms import term_fingerprint

        return hash(term_fingerprint(self.term))

    def __repr__(self) -> str:
        return f"TermArg({self.term!r})"

    def __str__(self) -> str:
        from repro.core.terms import format_term

        return format_term(self.term)


TypeArg = Union[Type, Sym, Lit, ArgList, ArgTuple, TermArg]


@dataclass(frozen=True, slots=True)
class TypeApp(Type):
    """A type constructor application; with no arguments, a constant type.

    ``TypeApp("int")`` is the constant type ``int``;
    ``TypeApp("rel", (city_tuple,))`` is a relation type.
    """

    constructor: str
    args: tuple[TypeArg, ...] = ()
    _attrs: Optional["_AttrTable"] = field(
        default=None, init=False, repr=False, compare=False
    )
    """The attribute table of a tuple-shaped type, built by the first
    lookup by name (:func:`attr_index`); the type is immutable, so the
    table never goes stale."""

    def __str__(self) -> str:
        return format_type(self)


@dataclass(frozen=True, slots=True)
class FunType(Type):
    """A function type ``(t1 x ... x tn -> t)`` (Def. 3.2 (v))."""

    args: tuple[Type, ...]
    result: Type

    def __str__(self) -> str:
        return format_type(self)


@dataclass(frozen=True, slots=True)
class ProductType(Type):
    """A product type ``(t1 x ... x tn)`` (Def. 3.2 (ii))."""

    parts: tuple[Type, ...]

    def __str__(self) -> str:
        return format_type(self)


@dataclass(frozen=True, slots=True)
class PVar(Type):
    """A type metavariable: in a pattern, a cut-off subtree that matches any
    type argument and binds it to ``name`` (paper Figure 1).  Rule types
    write it ``?name``.

    ``kind`` restricts the variable to types of that kind where a kind
    check is supplied (the typechecker and type formation supply one).  An
    *anonymous* variable (``name == ""``) binds nothing: ``PVar("", DATA)``
    is the sort ``DATA`` of a signature, "any type of kind DATA"."""

    name: str
    kind: Optional[Kind] = None


@dataclass(frozen=True, slots=True)
class PBind(Type):
    """``name: pattern`` — an internal node of a pattern labelled by a
    metavariable: binds the whole matched argument to ``name`` and matches
    ``pattern`` against it (paper Figure 1)."""

    name: str
    pattern: TypeArg


def _format_arg(arg: TypeArg) -> str:
    if isinstance(arg, Type):
        return format_type(arg)
    return str(arg)


def format_type(t: Type) -> str:
    """Render a type term in the paper's concrete notation."""
    if isinstance(t, TypeApp):
        if not t.args:
            return t.constructor
        return t.constructor + "(" + ", ".join(_format_arg(a) for a in t.args) + ")"
    if isinstance(t, FunType):
        args = " x ".join(format_type(a) for a in t.args)
        arrow = f"{args} -> " if t.args else "-> "
        return f"({arrow}{format_type(t.result)})"
    if isinstance(t, ProductType):
        return "(" + " x ".join(format_type(p) for p in t.parts) + ")"
    if isinstance(t, PVar):
        return f"?{t.name}" if t.name else f"?{t.kind}"
    if isinstance(t, PBind):
        return f"{t.name}: {_format_arg(t.pattern)}"
    raise TypeError(f"not a type: {t!r}")


# ---------------------------------------------------------------------------
# Convenience builders for the ubiquitous tuple / rel shapes
# ---------------------------------------------------------------------------


def tuple_type(attrs: Iterable[tuple[str, Type]], constructor: str = "tuple") -> TypeApp:
    """Build ``tuple(<(a1, t1), ..., (an, tn)>)`` from (name, type) pairs."""
    items = tuple(ArgTuple((Sym(name), t)) for name, t in attrs)
    return TypeApp(constructor, (ArgList(items),))


def rel_type(tup: Type, constructor: str = "rel") -> TypeApp:
    """Build ``rel(tuple_type)``."""
    return TypeApp(constructor, (tup,))


_AttrTable = tuple[tuple[tuple[str, Type], ...], dict[str, tuple[int, Type]]]


def _attr_pairs(tup: Type) -> tuple[tuple[str, Type], ...]:
    if (
        isinstance(tup, TypeApp)
        and len(tup.args) == 1
        and isinstance(tup.args[0], ArgList)
    ):
        pairs = []
        for item in tup.args[0].items:
            if (
                isinstance(item, ArgTuple)
                and len(item.items) == 2
                and isinstance(item.items[0], Sym)
                and isinstance(item.items[1], Type)
            ):
                pairs.append((item.items[0].name, item.items[1]))
            else:
                raise TypeError(f"not an attribute list entry: {item!r}")
        return tuple(pairs)
    raise TypeError(f"not a tuple-shaped type: {format_type(tup)}")


def attrs_of(tup: Type) -> tuple[tuple[str, Type], ...]:
    """Extract the (name, type) attribute pairs of a tuple-shaped type.

    Works for any constructor whose single argument is an ``ArgList`` of
    ``(Sym, Type)`` pairs (``tuple`` in all of the paper's models).
    Raises :class:`TypeError` if the type has no such shape.

    Reads the type's attribute table if a lookup by name has built one,
    and builds none itself: the table lives on the type, not on values (a
    tuple value is its carrier, a plain Python tuple), and a type that is
    only listed (printed, dumped, typechecked) needs no name lookup.
    """
    if isinstance(tup, TypeApp) and tup._attrs is not None:
        return tup._attrs[0]
    return _attr_pairs(tup)


def attr_index(tup: Type, name: str) -> Optional[tuple[int, Type]]:
    """``(position, type)`` of attribute ``name`` in a tuple-shaped type,
    or ``None``.  The first lookup builds the type's attribute table."""
    if not isinstance(tup, TypeApp):
        return None
    if tup._attrs is None:
        try:
            pairs = _attr_pairs(tup)
        except TypeError:
            return None
        index: dict[str, tuple[int, Type]] = {}
        for i, (attr, t) in enumerate(pairs):
            index.setdefault(attr, (i, t))
        object.__setattr__(tup, "_attrs", (pairs, index))
    return tup._attrs[1].get(name)


def attr_type(tup: Type, name: str) -> Type | None:
    """The type of attribute ``name`` in a tuple-shaped type, or ``None``."""
    entry = attr_index(tup, name)
    return entry[1] if entry is not None else None


def concat_tuple_types(left: Type, right: Type) -> TypeApp:
    """Concatenate two tuple types — the semantics of the ``join`` type
    operator (paper Section 2.2).

    Raises :class:`ValueError` on duplicate attribute names, mirroring the
    relational requirement that a join result schema is well formed.
    """
    left_attrs = attrs_of(left)
    right_attrs = attrs_of(right)
    seen = {name for name, _ in left_attrs}
    for name, _ in right_attrs:
        if name in seen:
            raise ValueError(f"duplicate attribute in join result: {name}")
    constructor = left.constructor if isinstance(left, TypeApp) else "tuple"
    return tuple_type(left_attrs + right_attrs, constructor=constructor)


def walk_type(t: TypeArg) -> Iterable[TypeArg]:
    """Yield ``t`` and all nested type arguments, pre-order."""
    yield t
    if isinstance(t, TypeApp):
        for a in t.args:
            yield from walk_type(a)
    elif isinstance(t, (ArgList, ArgTuple)):
        for a in t.items:
            yield from walk_type(a)
    elif isinstance(t, FunType):
        for a in t.args:
            yield from walk_type(a)
        yield from walk_type(t.result)
    elif isinstance(t, ProductType):
        for p in t.parts:
            yield from walk_type(p)
    elif isinstance(t, PBind):
        yield from walk_type(t.pattern)
    elif isinstance(t, Shape):
        for a in t.parts:
            yield from walk_type(a)


class Shape:
    """Base of the operand-shape wrappers of :mod:`repro.core.sorts` (union
    and list sorts): not type terms, but :func:`walk_type` descends into
    their ``parts``."""

    __slots__ = ()
