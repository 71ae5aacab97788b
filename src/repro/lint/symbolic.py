"""Symbolic typechecking support for the rule pass.

The type-preservation check (RUL004) typechecks a rule's LHS and RHS once,
under *fresh typed variables*, instead of trusting per-query typecheck
retries at optimization time.  Rule type variables (``tuple1`` …) are
instantiated with synthetic concrete types; rule term variables become
environment entries; variables whose types nothing constrains get the
:class:`AnyType` wildcard, which the core typechecker treats as matching
every sort (see the ``wildcard`` hooks in :mod:`repro.core.typecheck` and
:mod:`repro.core.signature`).
"""

from __future__ import annotations

from repro.core.terms import Fun, Var
from repro.core.types import (
    TermArg,
    Type,
    TypeApp,
    tuple_type,
)


class AnyType(Type):
    """The lint wildcard: equal to every type, member of every kind.

    The core typechecker and type system special-case any type object with
    a truthy ``wildcard`` attribute, so this class needs no registration.
    """

    __slots__ = ()
    wildcard = True

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Type)

    def __ne__(self, other: object) -> bool:
        return not isinstance(other, Type)

    def __hash__(self) -> int:
        return hash("<any-type>")

    def __repr__(self) -> str:
        return "AnyType()"


ANY = AnyType()

INT = TypeApp("int")


def synth_tuple(attrs: list[tuple[str, Type]]) -> TypeApp:
    """A synthetic concrete tuple type; always carries at least one ordered
    attribute (``k: int``) so B-tree shapes and sort orders are satisfiable."""
    if not attrs:
        attrs = [("k", INT)]
    return tuple_type(attrs)


def fresh_term_arg(param_type: Type) -> TermArg:
    """A placeholder function argument for function-valued constructor
    positions (the LSD-tree key function): the identity lambda."""
    return TermArg(Fun((("t", param_type),), Var("t")))


__all__ = [
    "ANY",
    "AnyType",
    "INT",
    "fresh_term_arg",
    "synth_tuple",
]
