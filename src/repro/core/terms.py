"""Value terms: the terms of the bottom-level signature (paper Defs. 3.1/3.2).

Terms denote values — including *function values* written in the typed
lambda notation ``fun (x1: s1, ..., xn: sn) t`` of Section 2.3.  The
constructors follow the extended term definition:

``Literal``      a constant of an atomic type
``ObjRef``       a named database object (created by a ``create`` statement)
``Var``          a lambda-bound variable
``Apply``        an operator application ``op(t1, ..., tn)``
``Fun``          a function abstraction
``ListTerm``     a list term ``<t1, ..., tn>`` (term of a list sort)
``TupleTerm``    a product term ``(t1, ..., tn)``
``OpRef``        an operator used as a function value (Def. 3.2 (v), last clause)

Terms are values: frozen dataclasses that nothing assigns to.  The
typechecker returns new nodes carrying the ``type`` (and, on ``Apply``, the
``resolved``) annotation, and shares every subterm whose annotation still
holds, so a typed term can be kept, rewritten or handed to another thread
without copying.  The annotations are excluded from structural equality so
that two parses of the same expression compare equal.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields
from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Union

from repro.core.types import Type, format_type

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.operators import ResolvedOp


def _value(cls):
    """``dataclass(frozen=True, slots=True)``, with an ``__init__`` that
    stores each field through its slot's own setter.

    A term is built on every parse, check and rewrite.  The ``__init__`` a
    frozen dataclass gets stores each field through ``object.__setattr__``,
    which finds the slot by name again and makes a node about three times
    as dear to build (``docs/PERFORMANCE.md`` §6).  Assigning to a field
    anywhere else still raises :class:`~dataclasses.FrozenInstanceError`.
    """
    cls = dataclass(frozen=True, slots=True)(cls)
    spec = fields(cls)
    params = ", ".join(
        f.name if f.default is MISSING else f"{f.name}={f.default!r}" for f in spec
    )
    body = "".join(f"    _set_{f.name}(self, {f.name})\n" for f in spec)
    namespace = {f"_set_{f.name}": cls.__dict__[f.name].__set__ for f in spec}
    exec(f"def __init__(self, {params}):\n{body}", namespace)
    cls.__init__ = namespace["__init__"]
    return cls


@_value
class Literal:
    value: object
    type: Optional[Type] = field(default=None, compare=False)


@_value
class ObjRef:
    name: str
    type: Optional[Type] = field(default=None, compare=False)


@_value
class Var:
    name: str
    type: Optional[Type] = field(default=None, compare=False)


@_value
class Apply:
    op: str
    args: tuple["Term", ...]
    type: Optional[Type] = field(default=None, compare=False)
    resolved: Optional["ResolvedOp"] = field(default=None, compare=False)


@_value
class Fun:
    """A typed lambda abstraction ``fun (x1: t1, ..., xn: tn) body``.

    Parameter types may be ``None`` before elaboration (the concrete-syntax
    shorthand ``select[age > 30]``); the typechecker fills them in from the
    application context, as the paper's parser does.
    """

    params: tuple[tuple[str, Optional[Type]], ...]
    body: "Term"
    type: Optional[Type] = field(default=None, compare=False)


@_value
class ListTerm:
    items: tuple["Term", ...]
    type: Optional[Type] = field(default=None, compare=False)


@_value
class TupleTerm:
    items: tuple["Term", ...]
    type: Optional[Type] = field(default=None, compare=False)


@_value
class OpRef:
    """An operator name used as a value of a function sort."""

    name: str
    type: Optional[Type] = field(default=None, compare=False)


@_value
class Call:
    """Application of a function *value* (not an operator): ``fn(a1, ..., an)``.

    This is how views are used — ``cities_in("Germany")`` calls the function
    value stored in the object ``cities_in`` (paper Section 2.4).
    """

    fn: "Term"
    args: tuple["Term", ...]
    type: Optional[Type] = field(default=None, compare=False)


Term = Union[Literal, ObjRef, Var, Apply, Fun, ListTerm, TupleTerm, OpRef, Call]


def format_term(t: Term) -> str:
    """Render a term in the paper's *abstract* syntax (prefix notation)."""
    if isinstance(t, Literal):
        if isinstance(t.value, str):
            return f'"{t.value}"'
        if isinstance(t.value, bool):
            return "true" if t.value else "false"
        return str(t.value)
    if isinstance(t, ObjRef):
        return t.name
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Apply):
        return t.op + "(" + ", ".join(format_term(a) for a in t.args) + ")"
    if isinstance(t, Fun):
        params = ", ".join(
            name if ptype is None else f"{name}: {format_type(ptype)}"
            for name, ptype in t.params
        )
        return f"fun ({params}) {format_term(t.body)}"
    if isinstance(t, ListTerm):
        return "<" + ", ".join(format_term(i) for i in t.items) + ">"
    if isinstance(t, TupleTerm):
        return "(" + ", ".join(format_term(i) for i in t.items) + ")"
    if isinstance(t, OpRef):
        return t.name
    if isinstance(t, Call):
        return format_term(t.fn) + "(" + ", ".join(format_term(a) for a in t.args) + ")"
    raise TypeError(f"not a term: {t!r}")


def same_term(a: Term, b: Term) -> bool:
    """Structural equality of terms, modulo alpha-renaming of lambdas."""
    return _same(a, b, {})


def _same(a: Term, b: Term, rename: dict[str, str]) -> bool:
    if type(a) is not type(b):
        return False
    if isinstance(a, Literal):
        return a.value == b.value and type(a.value) is type(b.value)
    if isinstance(a, ObjRef):
        return a.name == b.name
    if isinstance(a, Var):
        return rename.get(a.name, a.name) == b.name
    if isinstance(a, Apply):
        return (
            a.op == b.op
            and len(a.args) == len(b.args)
            and all(_same(x, y, rename) for x, y in zip(a.args, b.args))
        )
    if isinstance(a, Fun):
        if len(a.params) != len(b.params):
            return False
        for (_, ta), (_, tb) in zip(a.params, b.params):
            if ta is not None and tb is not None and ta != tb:
                return False
        inner = dict(rename)
        for (na, _), (nb, _) in zip(a.params, b.params):
            inner[na] = nb
        return _same(a.body, b.body, inner)
    if isinstance(a, (ListTerm, TupleTerm)):
        return len(a.items) == len(b.items) and all(
            _same(x, y, rename) for x, y in zip(a.items, b.items)
        )
    if isinstance(a, OpRef):
        return a.name == b.name
    if isinstance(a, Call):
        return (
            _same(a.fn, b.fn, rename)
            and len(a.args) == len(b.args)
            and all(_same(x, y, rename) for x, y in zip(a.args, b.args))
        )
    return False


def term_fingerprint(t: Term, rename: dict[str, int] | None = None) -> tuple:
    """A hashable, alpha-invariant fingerprint of a term."""
    if rename is None:
        rename = {}
    if isinstance(t, Literal):
        return ("lit", type(t.value).__name__, t.value)
    if isinstance(t, ObjRef):
        return ("obj", t.name)
    if isinstance(t, Var):
        bound = rename.get(t.name)
        return ("bvar", bound) if bound is not None else ("fvar", t.name)
    if isinstance(t, Apply):
        return ("app", t.op) + tuple(term_fingerprint(a, rename) for a in t.args)
    if isinstance(t, Fun):
        inner = dict(rename)
        for i, (name, _) in enumerate(t.params):
            inner[name] = len(rename) + i
        return ("fun", len(t.params), term_fingerprint(t.body, inner))
    if isinstance(t, ListTerm):
        return ("list",) + tuple(term_fingerprint(i, rename) for i in t.items)
    if isinstance(t, TupleTerm):
        return ("tuple",) + tuple(term_fingerprint(i, rename) for i in t.items)
    if isinstance(t, OpRef):
        return ("opref", t.name)
    if isinstance(t, Call):
        return ("call", term_fingerprint(t.fn, rename)) + tuple(
            term_fingerprint(a, rename) for a in t.args
        )
    raise TypeError(f"not a term: {t!r}")


def free_names(
    t: Term, bound: frozenset[str] = frozenset()
) -> Iterator[Union[Var, ObjRef]]:
    """The :class:`Var` and :class:`ObjRef` nodes of ``t`` that no lambda
    inside ``t`` binds, pre-order — lambda parameters shadow objects."""
    if isinstance(t, (Var, ObjRef)):
        if t.name not in bound:
            yield t
    elif isinstance(t, Apply):
        for a in t.args:
            yield from free_names(a, bound)
    elif isinstance(t, Fun):
        yield from free_names(t.body, bound | {name for name, _ in t.params})
    elif isinstance(t, (ListTerm, TupleTerm)):
        for i in t.items:
            yield from free_names(i, bound)
    elif isinstance(t, Call):
        yield from free_names(t.fn, bound)
        for a in t.args:
            yield from free_names(a, bound)


def free_variables(t: Term, bound: frozenset[str] = frozenset()) -> set[str]:
    """The free :class:`Var` names of a term."""
    return {n.name for n in free_names(t, bound) if isinstance(n, Var)}


def substitute_term(t: Term, mapping: dict[str, Term]) -> Term:
    """Substitute free variables by terms.

    Lambda parameters shadow outer substitutions.  The substituted terms are
    assumed not to capture the lambda parameters they are placed under (the
    optimizer guarantees this by construction: pattern variables and lambda
    parameters live in disjoint namespaces within a rule).
    """
    if isinstance(t, Var):
        replacement = mapping.get(t.name)
        return replacement if replacement is not None else t
    if isinstance(t, Apply):
        return Apply(t.op, tuple(substitute_term(a, mapping) for a in t.args))
    if isinstance(t, Fun):
        shadowed = {k: v for k, v in mapping.items() if k not in {n for n, _ in t.params}}
        return Fun(t.params, substitute_term(t.body, shadowed))
    if isinstance(t, ListTerm):
        return ListTerm(tuple(substitute_term(i, mapping) for i in t.items))
    if isinstance(t, TupleTerm):
        return TupleTerm(tuple(substitute_term(i, mapping) for i in t.items))
    if isinstance(t, Call):
        return Call(
            substitute_term(t.fn, mapping),
            tuple(substitute_term(a, mapping) for a in t.args),
        )
    return t


def walk_terms(t: Term) -> Iterable[Term]:
    """Yield ``t`` and every subterm, pre-order."""
    yield t
    if isinstance(t, Apply):
        for a in t.args:
            yield from walk_terms(a)
    elif isinstance(t, Fun):
        yield from walk_terms(t.body)
    elif isinstance(t, (ListTerm, TupleTerm)):
        for i in t.items:
            yield from walk_terms(i)
    elif isinstance(t, Call):
        yield from walk_terms(t.fn)
        for a in t.args:
            yield from walk_terms(a)
