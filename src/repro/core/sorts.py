"""Extended sorts (paper Def. 3.2).

Given a base set of sorts, the *extended* sort set closes it under products
``(s1 x ... x sn)``, unions ``(s1 | ... | sn)``, lists ``s+`` and function
sorts ``(s1 x ... x sn -> s)``.

A sort is a type pattern (:mod:`repro.core.patterns`): a ground type is
itself, ``PVar`` a variable bound by a quantifier or — in a constructor
signature — by an earlier ``PBind`` argument position, a kind ``K`` the
anonymous ``PVar("", K)``, and products and functions are
:class:`~repro.core.types.ProductType` and
:class:`~repro.core.types.FunType` over patterns.  Only unions and lists
say something a type pattern cannot — "either" and "one or more
operands" — so they are the two wrappers defined here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from repro.core.patterns import TypePattern, format_pattern
from repro.core.types import Shape


@dataclass(frozen=True, slots=True)
class UnionSort(Shape):
    """A union sort ``(s1 | ... | sn)`` — matches if any alternative does."""

    alternatives: tuple["Sort", ...]

    @property
    def parts(self) -> tuple["Sort", ...]:
        return self.alternatives

    def __str__(self) -> str:
        return "(" + " | ".join(format_pattern(a) for a in self.alternatives) + ")"


@dataclass(frozen=True, slots=True)
class ListSort(Shape):
    """A list sort ``s+`` — one or more arguments of sort ``s``."""

    element: "Sort"

    @property
    def parts(self) -> tuple["Sort", ...]:
        return (self.element,)

    def __str__(self) -> str:
        return format_pattern(self.element) + "+"


Sort = Union[TypePattern, UnionSort, ListSort]
