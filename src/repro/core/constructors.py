"""Type constructors: the operators of the top-level signature.

A :class:`TypeConstructor` declares argument sorts (over kinds and types —
the (K ∪ T, K)-sorted signature Γ of Def. 3.3) and a result kind.  A
constructor with no arguments is a *constant type* (``int``, ``ident``).

A *constructor spec* (paper Section 4) is a dependent constraint relating the
arguments, e.g. the single-attribute B-tree requires its ``(attrname,
dtype)`` arguments to name an actual component of its tuple argument.  Specs
are represented as predicates plus a human-readable description, so error
messages can echo the paper's notation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Sequence

from repro.core.kinds import Kind
from repro.core.patterns import format_pattern
from repro.core.sorts import Sort
from repro.core.types import TypeArg

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.signature import TypeSystem


@dataclass(frozen=True, slots=True)
class ConstructorSpec:
    """A dependent constraint on a constructor's arguments.

    ``check(type_system, args)`` returns an error message if the constraint
    is violated and ``None`` otherwise.
    """

    description: str
    check: Callable[["TypeSystem", Sequence[TypeArg]], str | None]


@dataclass(frozen=True, slots=True)
class TypeConstructor:
    """An operator of the top-level signature Γ.

    ``arg_sorts`` are sort patterns: kinds (anonymous kinded ``PVar`` nodes),
    concrete types — a ground type means *a value of that type*, e.g. an
    identifier for ``ident`` — and, via ``PBind`` / ``PVar``, variables
    bound by earlier argument positions, which is how the paper specifies
    the function-indexed B-tree and the LSD-tree.
    """

    name: str
    arg_sorts: tuple[Sort, ...]
    result_kind: Kind
    spec: ConstructorSpec | None = None
    level: str = "model"
    """Which level this constructor belongs to: ``model``, ``rep``, or
    ``hybrid`` (paper Section 6)."""
    span: tuple[int, int] | None = field(default=None, compare=False)
    """``(line, column)`` of the declaring spec line, when parsed from text;
    diagnostics anchor here."""

    @property
    def is_constant(self) -> bool:
        """True for 0-ary constructors, which denote constant types."""
        return not self.arg_sorts

    def __str__(self) -> str:
        if self.is_constant:
            return f"-> {self.result_kind.name}  {self.name}"
        args = " x ".join(format_pattern(s) for s in self.arg_sorts)
        return f"{args} -> {self.result_kind.name}  {self.name}"
