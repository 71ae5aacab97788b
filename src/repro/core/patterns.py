"""Type patterns: term trees with variables (paper Section 3, Figure 1).

A pattern is a type term tree in which some subtrees have been cut off and
replaced by variables, and in which internal nodes may additionally be
labeled by variables.  So a pattern is an ordinary type argument
(:data:`~repro.core.types.TypeArg`) that may contain the two metavariable
forms :class:`~repro.core.types.PVar` (a cut subtree) and
:class:`~repro.core.types.PBind` (a labelled node).  The paper's Figure 1
example::

    stream: stream ( tuple: tuple ( list ) )

is ``PBind("stream", TypeApp("stream", (PBind("tuple", TypeApp("tuple",
(PVar("list"),))),)))`` and matching it against the type
``stream(tuple(<(name, string), (age, int)>))`` binds all three variables.

Matching and instantiation recurse over every kind of type argument
(constructor applications, function and product types, lists, tuples,
identifiers, literals, embedded terms), so a pattern without variables
matches exactly itself.  Optimization rules use the same patterns for their
type variables (``fun (t1: ?tuple1)``).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.types import (
    ArgList,
    ArgTuple,
    FunType,
    PBind,
    ProductType,
    PVar,
    Type,
    TypeApp,
    TypeArg,
    walk_type,
)

Bindings = dict[str, TypeArg]

#: A type argument that may contain :class:`PVar` / :class:`PBind`.
TypePattern = TypeArg


def match_type(
    pattern: TypePattern, arg: TypeArg, bindings: Optional[Bindings] = None
) -> Optional[Bindings]:
    """Match ``pattern`` against a type argument.

    Returns the extended bindings on success and ``None`` on failure.  A
    variable that is already bound only matches an equal argument (non-linear
    patterns, as used by ``union: rel+ -> rel``).
    The input ``bindings`` dict is never mutated.
    """
    out = dict(bindings) if bindings else {}
    return out if match_into(pattern, arg, out) else None


#: ``check(variable, argument, bindings) -> bool``: the constraint a caller
#: puts on each variable :func:`match_into` binds afresh (kinds, quantifiers).
BindCheck = Callable[[PVar, TypeArg, Bindings], bool]


def match_into(
    pattern: TypePattern,
    arg: TypeArg,
    bindings: Bindings,
    check: Optional[BindCheck] = None,
) -> bool:
    """:func:`match_type` extending ``bindings`` in place.

    On failure ``bindings`` may hold some of the pattern's variables, so
    this is for a caller that matches into scratch bindings it discards on
    failure, as the rule matcher does with its trial state.  ``check`` is
    called for every variable bound afresh, anonymous ones included, after
    it is bound; the match fails if it returns false.
    """
    if isinstance(pattern, PVar):
        bound = bindings.get(pattern.name)
        if bound is None:
            if pattern.name:
                bindings[pattern.name] = arg
            return check is None or check(pattern, arg, bindings)
        return bound == arg
    if isinstance(pattern, TypeApp):
        return (
            isinstance(arg, TypeApp)
            and arg.constructor == pattern.constructor
            and _match_all(pattern.args, arg.args, bindings, check)
        )
    if isinstance(pattern, PBind):
        bound = bindings.get(pattern.name)
        if bound is not None and bound != arg:
            return False
        bindings[pattern.name] = arg
        return match_into(pattern.pattern, arg, bindings, check)
    if isinstance(pattern, (ArgList, ArgTuple)):
        return type(arg) is type(pattern) and _match_all(
            pattern.items, arg.items, bindings, check
        )
    if isinstance(pattern, FunType):
        return (
            isinstance(arg, FunType)
            and _match_all(pattern.args, arg.args, bindings, check)
            and match_into(pattern.result, arg.result, bindings, check)
        )
    if isinstance(pattern, ProductType):
        return isinstance(arg, ProductType) and _match_all(
            pattern.parts, arg.parts, bindings, check
        )
    # Sym, Lit, TermArg: leaves without variables.
    return pattern == arg


def _match_all(
    patterns: tuple, args: tuple, bindings: Bindings, check: Optional[BindCheck]
) -> bool:
    if len(patterns) != len(args):
        return False
    for p, a in zip(patterns, args):
        if not match_into(p, a, bindings, check):
            return False
    return True


def instantiate_pattern(
    pattern: TypePattern,
    bindings: Bindings,
    fresh: Optional[Callable[[PVar], TypeArg]] = None,
) -> TypeArg:
    """Substitute the bindings for the variables of ``pattern``.

    The inverse of matching: every variable in ``pattern`` must be bound,
    otherwise :class:`KeyError` names it — unless ``fresh`` is given, which
    supplies the value of each unbound variable.  Subtrees without variables
    are shared, not copied.  Used to construct the supertype side of subtype
    rules, result types and the types on a rule's right-hand side.
    """
    if isinstance(pattern, PVar):
        bound = bindings.get(pattern.name)
        if bound is not None:
            return bound
        if fresh is not None:
            return fresh(pattern)
        raise KeyError(f"unbound pattern variable: {pattern.name or pattern.kind}")
    if isinstance(pattern, PBind):
        bound = bindings.get(pattern.name)
        if bound is not None:
            return bound
        return instantiate_pattern(pattern.pattern, bindings, fresh)
    if isinstance(pattern, TypeApp):
        args = _instantiate_all(pattern.args, bindings, fresh)
        return pattern if args is pattern.args else TypeApp(pattern.constructor, args)
    if isinstance(pattern, (ArgList, ArgTuple)):
        items = _instantiate_all(pattern.items, bindings, fresh)
        return pattern if items is pattern.items else type(pattern)(items)
    if isinstance(pattern, FunType):
        args = _instantiate_all(pattern.args, bindings, fresh)
        result = instantiate_pattern(pattern.result, bindings, fresh)
        if args is pattern.args and result is pattern.result:
            return pattern
        return FunType(args, result)
    if isinstance(pattern, ProductType):
        parts = _instantiate_all(pattern.parts, bindings, fresh)
        return pattern if parts is pattern.parts else ProductType(parts)
    return pattern


def instantiate_type(pattern: TypePattern, bindings: Bindings) -> Optional[Type]:
    """``pattern`` instantiated as a type, or ``None`` while one of its
    variables is unbound (or it is not a type)."""
    try:
        t = instantiate_pattern(pattern, bindings)
    except KeyError:
        return None
    return t if isinstance(t, Type) else None


def _instantiate_all(patterns: tuple, bindings: Bindings, fresh) -> tuple:
    """The instantiated items, or ``patterns`` itself if none changed."""
    out = [instantiate_pattern(p, bindings, fresh) for p in patterns]
    for new, old in zip(out, patterns):
        if new is not old:
            return tuple(out)
    return patterns


def pattern_variables(pattern: TypePattern) -> set[str]:
    """All variable names a pattern can bind (a sort's too: the walk
    descends into union and list sorts)."""
    return {
        node.name
        for node in walk_type(pattern)
        if isinstance(node, (PVar, PBind)) and node.name
    }


def format_pattern(p: TypePattern) -> str:
    """A pattern or sort in the specification notation: variables by bare
    name, an anonymous variable by its kind, a labelled node as
    ``name: pattern``."""
    if isinstance(p, PVar):
        return p.name or str(p.kind)
    if isinstance(p, PBind):
        return f"{p.name}: {format_pattern(p.pattern)}"
    if isinstance(p, TypeApp) and p.args:
        return p.constructor + "(" + ", ".join(format_pattern(a) for a in p.args) + ")"
    if isinstance(p, FunType):
        args = " x ".join(format_pattern(a) for a in p.args)
        arrow = f"{args} -> " if p.args else "-> "
        return f"({arrow}{format_pattern(p.result)})"
    if isinstance(p, ProductType):
        return "(" + " x ".join(format_pattern(a) for a in p.parts) + ")"
    return str(p)
