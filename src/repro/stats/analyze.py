"""The ``analyze`` computation: scan objects, build :class:`RelationStats`.

``analyze`` / ``analyze <names>`` statements land here.  Analysis follows
the same catalog indirection the optimizer rules use: analyzing a *model*
relation (which carries no value — its data lives in representation
objects, paper Section 6) walks every catalog object for rows mentioning
it and analyzes the representation objects those rows name.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterable, Optional

from repro.catalog.catalog import CatalogValue
from repro.core.algebra import Relation
from repro.core.types import Sym, TypeApp, attrs_of
from repro.errors import CatalogError
from repro.stats.model import (
    AttributeStats,
    EquiDepthHistogram,
    RelationStats,
    StatsCatalog,
)
from repro.storage.btree import BTree
from repro.storage.lsdtree import LSDTree, _Bucket
from repro.storage.srel import SRel
from repro.storage.tidrel import TidRelation

MAX_ANALYZE_ROWS = 200_000
"""Analysis scans at most this many rows per object — a guard, not a
sampling strategy; every dataset in the suite fits well under it."""


def analyze_objects(db, names: Optional[Iterable[str]] = None) -> dict:
    """Analyze the named objects (or every scannable object) into
    ``db.stats``; returns a summary ``{object: {"rows": n, ...}}``.

    Model-level names resolve through the catalogs to their representation
    objects; the model name itself gets no entry (it has no value — the
    cost model only ever prices representation objects).
    """
    targets: list[str] = []
    if names:
        for name in names:
            obj = db.objects.get(name)
            if obj is None:
                raise CatalogError(f"no such object: {name}")
            if _scannable(obj.value):
                targets.append(name)
                continue
            reps = _catalog_reps(db, name)
            if not reps:
                raise CatalogError(
                    f"object {name} has no analyzable value and no "
                    "representation registered in any catalog"
                )
            targets.extend(reps)
    else:
        targets = [
            name for name, obj in db.objects.items() if _scannable(obj.value)
        ]
    summary: dict[str, dict] = {}
    for name in dict.fromkeys(targets):  # preserve order, drop duplicates
        stats = analyze_value(name, db.objects[name].value, db.objects[name].type)
        db.stats.put(stats)
        summary[name] = {
            "rows": stats.row_count,
            "attributes": len(stats.attributes),
            "histograms": sum(
                1 for a in stats.attributes.values() if a.histogram is not None
            ),
        }
    return summary


def related_stats(db, name: str) -> list[RelationStats]:
    """The stats entries describing ``name``: its own entry if analyzed,
    otherwise the entries of its catalog-registered representations (how
    ``\\stats cities`` finds the numbers behind a model relation)."""
    entry = db.stats.get(name)
    if entry is not None:
        return [entry]
    found = []
    for rep in _catalog_reps(db, name):
        rep_entry = db.stats.get(rep)
        if rep_entry is not None:
            found.append(rep_entry)
    return found


def _catalog_reps(db, name: str) -> list[str]:
    """Representation objects registered for ``name`` in any catalog —
    the rows ``rep(name, X)`` of the paper, generalized to any width."""
    reps: list[str] = []
    wanted = Sym(name)
    for obj in db.objects.values():
        if not isinstance(obj.value, CatalogValue):
            continue
        for row in obj.value.rows:
            if row and row[0] == wanted:
                for component in row[1:]:
                    if isinstance(component, Sym) and db.has_object(
                        component.name
                    ):
                        reps.append(component.name)
    return reps


def _scannable(value) -> bool:
    if value is None or isinstance(value, CatalogValue):
        return False
    return hasattr(value, "scan") or isinstance(value, Relation)


def analyze_value(name: str, value, declared_type=None) -> RelationStats:
    """Full statistics for one object value (rows, attributes, structure)."""
    rows = list(islice(_rows_of(value), MAX_ANALYZE_ROWS))
    attributes = _attribute_stats(rows, _attribute_names(value, declared_type))
    return RelationStats(
        name=name,
        row_count=_count_of(value, rows),
        analyzed_rows=len(rows),
        attributes=attributes,
        structure=_structure_stats(value),
        key_attr=_declared_key_attr(declared_type),
    )


def _rows_of(value):
    scan = getattr(value, "scan", None)
    if scan is not None:
        return scan()
    return iter(value)


def _count_of(value, rows: list) -> int:
    try:
        return len(value)
    except TypeError:
        return len(rows)


def _attribute_names(value, declared_type) -> Optional[list[str]]:
    """The attribute names of an object's rows.  A row is a carrier and
    does not carry its schema, so they come from the tuple type the object
    is declared over (``rel(t)``, ``btree(t, ...)``, ...) or, given no
    declared type, from a relation's own type."""
    t = declared_type if declared_type is not None else getattr(value, "type", None)
    if not isinstance(t, TypeApp) or not t.args:
        return None
    try:
        return [name for name, _ in attrs_of(t.args[0])]
    except TypeError:
        return None


def _attribute_stats(rows: list, names: Optional[list[str]]) -> dict[str, AttributeStats]:
    if not rows or names is None:
        return {}
    columns: dict[str, list] = {n: [] for n in names}
    for row in rows:
        if row.__class__ is not tuple:
            continue
        for n, v in zip(names, row):
            columns[n].append(v)
    stats = {}
    for n, values in columns.items():
        stats[n] = _one_attribute(n, values)
    return stats


def _one_attribute(name: str, values: list) -> AttributeStats:
    distinct = _distinct_count(values)
    low = high = None
    try:
        low, high = min(values), max(values)
    except (TypeError, ValueError):
        pass
    return AttributeStats(
        name=name,
        count=len(values),
        distinct=distinct,
        min=low,
        max=high,
        histogram=EquiDepthHistogram.build(values),
    )


def _distinct_count(values: list) -> int:
    try:
        return len(set(values))
    except TypeError:
        # Unhashable domain (geometry): fall back to repr identity.
        return len({repr(v) for v in values})


# ---------------------------------------------------------------------------
# Physical structure shape
# ---------------------------------------------------------------------------


def _structure_stats(value) -> dict:
    if isinstance(value, BTree):
        nodes, leaves = _btree_pages(value)
        return {
            "kind": "btree",
            "height": value.height,
            "order": value.order,
            "pages": nodes,
            "leaf_pages": leaves,
            "fanout": _btree_fanout(value, nodes, leaves),
        }
    if isinstance(value, LSDTree):
        buckets, depth = _lsd_shape(value)
        return {
            "kind": "lsdtree",
            "buckets": buckets,
            "directory_depth": depth,
            "bucket_capacity": value.bucket_capacity,
        }
    if isinstance(value, TidRelation):
        return {"kind": "tidrel"}
    if isinstance(value, SRel):
        return {"kind": "srel"}
    if isinstance(value, Relation):
        return {"kind": "relation"}
    return {"kind": type(value).__name__.lower()}


def _btree_pages(bt: BTree) -> tuple[int, int]:
    nodes = leaves = 0
    stack = [bt._root]
    while stack:
        node = stack.pop()
        nodes += 1
        if node.leaf:
            leaves += 1
        else:
            stack.extend(node.children)
    return nodes, leaves


def _btree_fanout(bt: BTree, nodes: int, leaves: int) -> float:
    internal = nodes - leaves
    if internal <= 0:
        return float(leaves)
    return (nodes - 1) / internal  # children per internal node


def _lsd_shape(tree: LSDTree) -> tuple[int, int]:
    buckets = 0
    depth = 0
    stack = [(tree._root, 0)]
    while stack:
        node, d = stack.pop()
        if isinstance(node, _Bucket):
            buckets += 1
            depth = max(depth, d)
        else:
            stack.append((node.left, d + 1))
            stack.append((node.right, d + 1))
    return buckets, depth


def _declared_key_attr(declared_type) -> Optional[str]:
    """The B-tree key attribute from a ``btree(tuple, attr, dtype)``
    declaration, when the key is a plain attribute name."""
    if isinstance(declared_type, TypeApp) and declared_type.constructor in (
        "btree",
        "mbtree",
        "sindex",
    ):
        if len(declared_type.args) >= 2 and isinstance(
            declared_type.args[1], Sym
        ):
            return declared_type.args[1].name
    return None


__all__ = [
    "analyze_objects",
    "analyze_value",
    "related_stats",
    "StatsCatalog",
]
