"""Dump a database to program text and restore it by re-execution.

Persistence through the language itself: a dump is an ordinary program of
``type`` / ``create`` / ``update`` statements that, run on a fresh system,
rebuilds the named types, objects, catalog entries and stored tuples.  This
keeps persistence model-independent — anything expressible in the language
round-trips, and the dump doubles as a human-readable export (and as the
checkpoint format of the durability layer, see ``docs/DURABILITY.md``).

Statement order is deterministic and dependency-safe:

1. ``type`` definitions;
2. ``create`` statements for every object (including catalog objects such
   as ``rep`` — :func:`restore_program` skips a ``create`` whose object
   already exists, so restoring onto a fresh system that pre-creates
   ``rep`` stays idempotent);
3. data statements (tuple inserts, scalar/tuple assignments) in object
   order;
4. catalog-entry inserts (they reference other objects by name, so every
   name they mention has been created by then);
5. ``build_index`` statements for secondary indexes (their base relations
   are fully populated by then, so the rebuilt index covers every tuple);
6. one ``analyze`` statement recreating the statistics-catalog entries
   from the restored data (fresh histograms over identical rows; observed
   selectivities from cardinality feedback are not carried over).

Tuple attribute values are rendered with the literal constructors of the
base level (``pt``, ``box``, ``poly`` for the spatial types); structures are
rebuilt by replaying ``insert`` statements against their representation
objects, so clustering and index organization are reconstructed rather than
copied byte for byte.
"""

from __future__ import annotations

from repro.catalog.catalog import CatalogValue
from repro.core.algebra import Relation
from repro.core.types import Type, TypeApp, attrs_of, format_type
from repro.errors import ExecutionError
from repro.geometry import Point, Polygon, Rect
from repro.lang.parser import split_statements
from repro.storage import BTree, LSDTree, SRel, TidRelation
from repro.storage.tidrel import SecondaryIndex


def dump_program(database) -> str:
    """The program text that rebuilds ``database`` on a fresh system."""
    lines: list[str] = ["-- database dump (re-runnable program)"]
    for name, t in database.aliases.items():
        # The alias's own definition must be spelled out structurally.
        lines.append(f"type {name} = {format_type(t)}")
    data: list[str] = []
    catalogs: list[str] = []
    indexes: list[str] = []
    for obj in database.objects.values():
        lines.append(f"create {obj.name} : {_type_text(database, obj.type)}")
        if isinstance(obj.value, CatalogValue):
            catalogs.extend(_value_statements(database, obj))
        elif isinstance(obj.value, SecondaryIndex):
            indexes.extend(_value_statements(database, obj))
        else:
            data.extend(_value_statements(database, obj))
    lines.extend(data)
    lines.extend(catalogs)
    lines.extend(indexes)
    analyzed = sorted(
        name for name in database.stats.entries if name in database.objects
    )
    if analyzed:
        lines.append("analyze " + ", ".join(analyzed))
    return "\n".join(lines) + "\n"


def restore_program(system, text: str) -> None:
    """Run a dump against a (fresh) system.

    ``create`` statements for objects that already exist are skipped, so a
    dump restores cleanly onto a system that pre-creates catalog objects
    (``build_relational_system`` creates ``rep`` with the database).
    """
    database = system.database
    for chunk in split_statements(text):
        words = chunk.split(None, 2)
        if (
            len(words) >= 2
            and words[0] == "create"
            and database.has_object(words[1])
        ):
            continue
        system.run_one(chunk)


def _type_text(database, t) -> str:
    """Render a type, substituting alias names for matching subterms so the
    dump stays readable (``rel(city)`` instead of the expanded tuple)."""
    for name, aliased in database.aliases.items():
        if aliased == t:
            return name
    if isinstance(t, TypeApp) and t.args:
        rendered = []
        for arg in t.args:
            if isinstance(arg, Type):
                rendered.append(_type_text(database, arg))
            else:
                rendered.append(str(arg))
        return f"{t.constructor}(" + ", ".join(rendered) + ")"
    return format_type(t)


def _value_statements(database, obj) -> list[str]:
    value = obj.value
    if value is None:
        return []
    if isinstance(value, CatalogValue):
        return [
            f"update {obj.name} := insert({obj.name}, "
            + ", ".join(sym.name for sym in row)
            + ")"
            for row in value.rows
        ]
    # A row is a carrier: its attribute names come from the declared type.
    if isinstance(value, (BTree, LSDTree, SRel, TidRelation, Relation)):
        names = _attribute_names(obj.type.args[0])
        rows = value.rows if isinstance(value, Relation) else value.scan()
        return [
            f"update {obj.name} := insert({obj.name}, {_tuple_text(names, t)})"
            for t in rows
        ]
    names = _attribute_names(obj.type)
    if isinstance(value, tuple) and names is not None:
        return [f"update {obj.name} := {_tuple_text(names, value)}"]
    if isinstance(value, (int, float, str, bool)):
        return [f"update {obj.name} := {_literal_text(value)}"]
    if isinstance(value, SecondaryIndex):
        return _sindex_statements(database, obj)
    if callable(value):
        return [f"-- note: function-valued object {obj.name} is not dumped"]
    return [
        f"-- note: value of {obj.name} ({type(value).__name__}) has no "
        "program representation and is not dumped"
    ]


def _sindex_statements(database, obj) -> list[str]:
    """Rebuild a secondary index with ``build_index`` over its base object.

    The base is the object holding a version of the index's heap — same
    ``heap_id``: a write to the heap after ``build_index`` replaced its
    instance by a copy.  The indexed attribute comes off the index's
    representation type ``sindex(tuple, attrname, dtype)``.  Dumped after
    every data statement, so the rebuilt index covers all tuples.
    """
    index = obj.value
    heap_id = index.relation.heap_id
    base_name = next(
        (
            other.name
            for other in database.objects.values()
            if isinstance(other.value, TidRelation)
            and other.value.heap_id == heap_id
        ),
        None,
    )
    rep_type = getattr(index, "rep_type", None)
    attr = (
        getattr(rep_type.args[1], "name", None)
        if rep_type is not None and len(rep_type.args) > 1
        else None
    )
    if base_name is None or attr is None:
        return [f"-- note: rebuild secondary index {obj.name} with build_index"]
    return [f"update {obj.name} := build_index({base_name}, {attr})"]


def _attribute_names(t) -> list[str] | None:
    """The attribute names of a tuple type, ``None`` for another type."""
    if not isinstance(t, TypeApp):
        return None
    try:
        return [name for name, _ in attrs_of(t)]
    except TypeError:
        return None


def _tuple_text(names: list[str], values: tuple) -> str:
    parts = []
    for name, value in zip(names, values):
        parts.append(f"({name}, {_literal_text(value)})")
    return "mktuple[<" + ", ".join(parts) + ">]"


def _literal_text(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int,)):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, str):
        escaped = value.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    if isinstance(value, Point):
        return f"pt({value.x!r}, {value.y!r})"
    if isinstance(value, Rect):
        return f"box({value.xmin!r}, {value.ymin!r}, {value.xmax!r}, {value.ymax!r})"
    if isinstance(value, Polygon):
        vertices = ", ".join(f"pt({v.x!r}, {v.y!r})" for v in value.vertices)
        return f"poly[<{vertices}>]"
    raise ExecutionError(f"cannot render literal: {value!r}")
