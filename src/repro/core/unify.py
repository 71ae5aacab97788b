"""First-order unification of type terms with metavariables.

Matching (:func:`~repro.core.patterns.match_into`) binds the variables of a
pattern against a ground type.  Unification also lets the *type* contain
variables, which is how a rule is checked for all of its instances at once
(Fiore & Mahmoud's reading of second-order algebraic theories): the
variables are left unknown and solved for, rather than replaced by one
synthetic instance.

A *substitution* maps the name of each flexible variable to its binding,
or to ``None`` while it is unbound.  A :class:`~repro.core.types.PVar` whose
name is not a key is *rigid*: it stands for one unknown type and unifies
only with itself.

:func:`match_unify` is :func:`~repro.core.patterns.match_into` for a type
that may contain flexible variables; the typechecker calls ``match_into``
itself when its substitution is empty, so a ground operand costs nothing
extra.
"""

from __future__ import annotations

from itertools import count
from typing import Optional

from repro.core.patterns import BindCheck, Bindings, instantiate_pattern
from repro.core.types import (
    ArgList,
    ArgTuple,
    FunType,
    PBind,
    ProductType,
    PVar,
    TypeApp,
    TypeArg,
    walk_type,
)

Subst = dict[str, Optional[TypeArg]]

_names = count(1)


def fresh_var(subst: Subst, kind=None) -> PVar:
    """A new flexible variable, registered unbound in ``subst``."""
    var = PVar(f"_{next(_names)}", kind)
    subst[var.name] = None
    return var


def resolve(t: TypeArg, subst: Subst) -> TypeArg:
    """``t`` with bound variables at its root followed."""
    while isinstance(t, PVar):
        bound = subst.get(t.name)
        if bound is None:
            return t
        t = bound
    return t


def substitute(t: TypeArg, subst: Subst) -> TypeArg:
    """``t`` with every bound variable replaced, to any depth."""
    while True:
        out = instantiate_pattern(t, subst, lambda var: var)
        if out == t:
            return out
        t = out


def unify(a: TypeArg, b: TypeArg, subst: Subst) -> bool:
    """Make ``a`` and ``b`` equal by binding flexible variables in
    ``subst``; false if they cannot be.  On failure ``subst`` may hold
    some bindings, so callers unify on a copy they can drop."""
    a = resolve(a, subst)
    b = resolve(b, subst)
    if a == b:
        return True
    if isinstance(a, PVar) and a.name in subst:
        return _bind(a.name, b, subst)
    if isinstance(b, PVar) and b.name in subst:
        return _bind(b.name, a, subst)
    pairs = _children(a, b)
    return pairs is not None and all(unify(x, y, subst) for x, y in pairs)


def _children(a: TypeArg, b: TypeArg) -> Optional[list[tuple]]:
    """The child pairs of two nodes of one shape, or ``None``."""
    if isinstance(a, TypeApp) and isinstance(b, TypeApp):
        if a.constructor != b.constructor:
            return None
        xs, ys = a.args, b.args
    elif isinstance(a, (ArgList, ArgTuple)) and type(a) is type(b):
        xs, ys = a.items, b.items
    elif isinstance(a, FunType) and isinstance(b, FunType):
        xs, ys = (*a.args, a.result), (*b.args, b.result)
    elif isinstance(a, ProductType) and isinstance(b, ProductType):
        xs, ys = a.parts, b.parts
    else:
        return None
    return list(zip(xs, ys)) if len(xs) == len(ys) else None


def _bind(name: str, t: TypeArg, subst: Subst) -> bool:
    if _occurs(name, t, subst):
        return False
    subst[name] = t
    return True


def _occurs(name: str, t: TypeArg, subst: Subst) -> bool:
    for node in walk_type(t):
        if isinstance(node, PVar):
            if node.name == name:
                return True
            bound = subst.get(node.name)
            if bound is not None and _occurs(name, bound, subst):
                return True
    return False


def match_unify(
    pattern: TypeArg,
    t: TypeArg,
    bindings: Bindings,
    subst: Subst,
    check: Optional[BindCheck] = None,
) -> bool:
    """Match ``pattern`` (its variables bind in ``bindings``) against ``t``
    (its flexible variables bind in ``subst``).

    A pattern variable binds to ``t`` as in matching, and one already bound
    is unified with ``t``.  Where ``t`` is an unbound flexible variable, it
    is bound to the pattern instantiated under ``bindings``, each unbound
    pattern variable becoming a fresh flexible variable.
    """
    t = resolve(t, subst)
    if isinstance(pattern, PVar):
        bound = bindings.get(pattern.name)
        if bound is not None:
            return unify(bound, t, subst)
        if pattern.name:
            bindings[pattern.name] = t
        return check is None or check(pattern, t, bindings)
    if isinstance(t, PVar) and t.name in subst:

        def fresh(var: PVar) -> PVar:
            new = fresh_var(subst, var.kind)
            if var.name:
                bindings[var.name] = new
            return new

        return _bind(t.name, instantiate_pattern(pattern, bindings, fresh), subst)
    if isinstance(pattern, PBind):
        bound = bindings.get(pattern.name)
        if bound is not None and not unify(bound, t, subst):
            return False
        bindings[pattern.name] = t
        return match_unify(pattern.pattern, t, bindings, subst, check)
    pairs = _children(pattern, t)
    if pairs is None:
        return pattern == t
    return all(match_unify(p, x, bindings, subst, check) for p, x in pairs)


__all__ = ["Subst", "fresh_var", "match_unify", "resolve", "substitute", "unify"]
