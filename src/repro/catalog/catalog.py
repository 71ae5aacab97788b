"""Catalog types and values.

``catalog`` essentially describes n-ary relations whose components are names
of database objects (identifiers).  The paper treats it as a predefined type
whose rows can be tested like PROLOG predicates inside optimization rules —
:meth:`CatalogValue.lookup` provides exactly that: match a row pattern in
which ``None`` matches any value and get the bindings back.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Sequence

from repro.core.operators import Quantifier
from repro.core.sorts import UnionSort
from repro.core.sos import SignatureBuilder
from repro.core.types import PVar, Sym, Type, TypeApp
from repro.testing.faults import fault_point

IDENT_T = TypeApp("ident")

MAX_CATALOG_WIDTH = 4
"""Catalog constructors are registered for widths 1..4 (the paper's ``rep``
catalog has width 2); wider catalogs would just need a larger constant."""


class CatalogValue:
    """A catalog object: a list of rows of identifiers."""

    __slots__ = ("type", "rows")

    def __init__(self, catalog_type: Type, rows: Optional[Iterable[tuple]] = None):
        self.type = catalog_type
        self.rows: list[tuple] = [tuple(r) for r in rows] if rows is not None else []

    @property
    def width(self) -> int:
        assert isinstance(self.type, TypeApp)
        return len(self.type.args)

    def clone(self) -> "CatalogValue":
        """A snapshot copy (rows are immutable identifier tuples)."""
        return CatalogValue(self.type, self.rows)

    def insert(self, row: Sequence) -> None:
        fault_point("catalog.insert")
        entry = tuple(row)
        if len(entry) != self.width:
            raise ValueError(
                f"catalog row has {len(entry)} components, expected {self.width}"
            )
        if entry not in self.rows:
            self.rows.append(entry)

    def remove(self, row: Sequence) -> bool:
        fault_point("catalog.remove")
        entry = tuple(row)
        if entry in self.rows:
            self.rows.remove(entry)
            return True
        return False

    def lookup(self, pattern: Sequence[Optional[object]]) -> Iterator[tuple]:
        """All rows matching the pattern; a ``None`` component matches any value.

        This is the PROLOG-predicate view of a catalog used by rule
        conditions: ``rep(cities, X)`` becomes ``lookup((Sym('cities'),
        None))`` and each result binds ``X``.
        """
        if len(pattern) != self.width:
            raise ValueError(
                f"pattern has {len(pattern)} components, expected {self.width}"
            )
        for row in self.rows:
            if all(p is None or p == c for p, c in zip(pattern, row)):
                yield row

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.rows)

    def __repr__(self) -> str:
        return f"CatalogValue({len(self.rows)} rows)"


def _catalog_insert(width: int):
    def impl(ctx, cat: CatalogValue, *components):
        cat.insert(components)
        return cat

    impl.__name__ = f"catalog_insert_{width}"
    return impl


def _catalog_remove(width: int):
    def impl(ctx, cat: CatalogValue, *components):
        cat.remove(components)
        return cat

    impl.__name__ = f"catalog_remove_{width}"
    return impl


def add_catalog_level(builder: SignatureBuilder) -> None:
    """Install the CATALOG kind, the ``catalog`` constructors (one per
    width) and the ``insert`` / ``cat_remove`` update functions."""
    ident = builder.kind("IDENT")
    data = builder.kind("DATA")
    cat_kind = builder.kind("CATALOG")
    component = UnionSort((PVar("", ident), PVar("", data)))
    for width in range(1, MAX_CATALOG_WIDTH + 1):
        builder.constructor(
            "catalog", [component] * width, cat_kind, level="hybrid"
        )
        quantifier = Quantifier("cat", cat_kind)
        ident_args = tuple(IDENT_T for _ in range(width))
        builder.op(
            "insert",
            quantifiers=(quantifier,),
            args=(PVar("cat"),) + ident_args,
            result=PVar("cat"),
            impl=_catalog_insert(width),
            is_update=True,
            level="hybrid",
            doc=f"insert a width-{width} identifier row into a catalog",
            post_check=_width_check(width),
        )
        builder.op(
            "cat_remove",
            quantifiers=(quantifier,),
            args=(PVar("cat"),) + ident_args,
            result=PVar("cat"),
            impl=_catalog_remove(width),
            is_update=True,
            level="hybrid",
            doc=f"remove a width-{width} identifier row from a catalog",
            post_check=_width_check(width),
        )
    builder.op(
        "empty",
        quantifiers=(Quantifier("cat", cat_kind),),
        args=(),
        result=PVar("cat"),
        impl=lambda ctx: CatalogValue(ctx.result_type),
        level="hybrid",
        doc="an empty catalog of the expected type",
    )


def _width_check(width: int):
    def check(type_system, binds, descriptors):
        cat = binds.get("cat")
        if isinstance(cat, TypeApp) and len(cat.args) != width:
            return (
                f"catalog has width {len(cat.args)}, "
                f"this insert provides {width} component(s)"
            )
        return None

    return check


def register_catalog_carriers(algebra) -> None:
    algebra.register_carrier(
        "catalog",
        lambda alg, v, t: isinstance(v, CatalogValue) and v.type == t,
    )
