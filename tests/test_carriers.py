"""Carriers and views (paper Def. 3.4).

Below the API a tuple value is its carrier, a plain Python tuple, and its
type lives on the typed term.  :func:`~repro.core.algebra.view` builds the
:class:`~repro.core.algebra.TupleValue` views a result shows, and
:func:`~repro.core.algebra.carrier` takes a value given to the system back
to its carrier.
"""

import gc
import weakref
from operator import itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import connect
from repro.core.algebra import Relation, TupleValue, carrier, view
from repro.core.types import TypeApp, attrs_of, rel_type, tuple_type
from repro.geometry import Point, Polygon, Rect
from repro.storage import BTree, LSDTree, SRel, TidRelation
from repro.storage.io import PageManager
from tests.test_core_patterns import ATOMS, model_types

STRING = TypeApp("string")
POINT = TypeApp("point")

_ATOM_VALUES = {
    "int": st.integers(-5, 5),
    "real": st.floats(-5, 5, allow_nan=False),
    "string": st.text("ab", max_size=3),
    "bool": st.booleans(),
    "point": st.builds(Point, st.integers(0, 9), st.integers(0, 9)),
    "pgon": st.integers(0, 9).map(lambda x: Polygon.rectangle(x, 0, x + 1, 1)),
}
_OPAQUE = object()  # a storage structure or function: its own view


def _attrs(t):
    try:
        return attrs_of(t)
    except TypeError:
        return None


def carriers(t):
    """Carrier values of type ``t``: a plain tuple per tuple type, a
    :class:`Relation` of carriers per ``rel``, a list (a materialized
    stream) per ``stream``, and a shared opaque value for the rest."""
    if not isinstance(t, TypeApp):
        return st.just(_OPAQUE)
    if not t.args and t.constructor in _ATOM_VALUES:
        return _ATOM_VALUES[t.constructor]
    attrs = _attrs(t)
    if attrs is not None:
        return st.tuples(*[carriers(a) for _, a in attrs])
    if t.constructor == "rel":
        return st.lists(carriers(t.args[0]), max_size=3).map(lambda rs: Relation(t, rs))
    if t.constructor == "stream":
        return st.lists(carriers(t.args[0]), max_size=3)
    return st.just(_OPAQUE)


@st.composite
def nested_types(draw):
    """A tuple type with a ``rel`` and a geometry attribute, or its ``rel``."""
    inner = tuple_type(
        [(f"i{n}", draw(st.sampled_from(ATOMS))) for n in range(draw(st.integers(1, 3)))]
    )
    outer = tuple_type([("name", STRING), ("inner", rel_type(inner)), ("center", POINT)])
    return draw(st.sampled_from([outer, rel_type(outer)]))


@st.composite
def typed_carriers(draw):
    t = draw(st.one_of(model_types(), nested_types()))
    return t, draw(carriers(t))


def _holds_a_view(value) -> bool:
    if isinstance(value, TupleValue):
        return True
    if isinstance(value, Relation):
        return any(_holds_a_view(r) for r in value.rows)
    if isinstance(value, (tuple, list)):
        return any(_holds_a_view(v) for v in value)
    return False


class TestViewCarrierRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(typed_carriers())
    def test_carrier_of_view_is_the_carrier(self, case):
        t, value = case
        back = carrier(view(t, value))
        assert back == value
        assert not _holds_a_view(back)

    @settings(max_examples=200, deadline=None)
    @given(typed_carriers())
    def test_view_of_carrier_is_the_view(self, case):
        t, value = case
        shown = view(t, value)
        assert view(t, carrier(shown)) == shown
        if isinstance(shown, TupleValue):
            assert shown.schema is t
            for i, (name, a) in enumerate(attrs_of(t)):
                assert shown.attr(name) == view(a, value[i])

    def test_a_view_is_built_without_copying_its_carrier(self):
        t = tuple_type([("name", STRING), ("center", POINT)])
        row = ("ann", Point(1, 2))
        assert view(t, row).values is row
        assert carrier(view(t, row)) is row


CITY = tuple_type([("cname", STRING), ("pop", TypeApp("int")), ("center", POINT)])
CITY_ROWS = [(f"c{i}", (i * 37) % 50, Point(i % 7, i % 5)) for i in range(40)]


def _box(t):
    return Rect(t[2].x, t[2].y, t[2].x + 1, t[2].y + 1)


STRUCTURES = {
    "btree": (lambda pages: BTree(key=itemgetter(1), order=4, pages=pages), "insert"),
    "srel": (lambda pages: SRel(page_capacity=4, pages=pages), "append"),
    "lsdtree": (lambda pages: LSDTree(key=_box, bucket_capacity=3, pages=pages), "insert"),
    "tidrel": (lambda pages: TidRelation(page_capacity=4, pages=pages), "insert"),
}


class TestStructuresStoreCarriers:
    @pytest.mark.parametrize("kind", sorted(STRUCTURES))
    def test_a_view_and_its_carrier_store_identically(self, kind):
        make, put = STRUCTURES[kind]
        by_view, by_carrier = make(PageManager()), make(PageManager())
        for row in CITY_ROWS:
            getattr(by_view, put)(TupleValue(CITY, row))
            getattr(by_carrier, put)(row)
        if kind in ("btree", "lsdtree"):  # deletion finds a view's carrier
            for row in CITY_ROWS[::3]:
                assert by_view.delete(TupleValue(CITY, row))
                assert by_carrier.delete(row)
        stored = list(by_view.scan())
        assert stored == list(by_carrier.scan())
        assert all(type(row) is tuple for row in stored)
        assert by_view.pages.stats == by_carrier.pages.stats


class TestStoredRowsAreUntracked:
    def test_atomic_rows_leave_the_collector_geometry_rows_stay(self):
        """A stored row of atomic values is a tuple of untracked objects,
        which a collection untracks: it stops costing the collector
        anything.  A row holding a Point stays tracked."""
        db = connect()
        db.run(
            "type item = tuple(<(k, int), (name, string)>)\n"
            "type city = tuple(<(cname, string), (center, point), (pop, int)>)\n"
            "create items : rel(item)\n"
            "create items_rep : btree(item, k, int)\n"
            "create cities : rel(city)\n"
            "create cities_rep : btree(city, pop, int)\n"
            "update rep := insert(rep, items, items_rep)\n"
            "update rep := insert(rep, cities, cities_rep)\n"
        )
        for k in range(1000):
            db.run_one(f'update items := insert(items, mktuple[<(k, {k}), (name, "n{k}")>])')
        db.run_one(
            'update cities := insert(cities, mktuple[<(cname, "c"), '
            "(center, pt(1.0, 2.0)), (pop, 7)>])"
        )
        gc.collect()
        items = list(db.database.objects["items_rep"].value.scan())
        (city,) = db.database.objects["cities_rep"].value.scan()
        assert len(items) == 1000
        assert not any(gc.is_tracked(row) for row in items)
        assert gc.is_tracked(city)
        db.close()


class TestDatabaseLifetime:
    def test_a_dropped_session_is_freed_without_the_collector(self):
        gc.collect()
        gc.disable()
        try:
            db = connect()
            db.run(
                "type item = tuple(<(k, int), (name, string)>)\n"
                "create items : rel(item)\n"
                "create items_rep : btree(item, k, int)\n"
                "update rep := insert(rep, items, items_rep)\n"
                'update items := insert(items, mktuple[<(k, 1), (name, "a")>])\n'
            )
            assert db.query("items_rep feed count").value == 1
            database = weakref.ref(db.database)
            del db
            assert database() is None
        finally:
            gc.enable()
