"""The wire's value codec (``repro.server.wire``).

A tuple, and a relation, stream or list of tuples of one schema, crosses
the wire as its type's text once plus each row as a bare JSON array (atoms
as they are, other components tagged); the client decodes the rows to
carriers and views them through :func:`~repro.core.algebra.view`, the
boundary every in-process result crosses too.
"""

import dataclasses
import json
import socket

import pytest
from hypothesis import given, settings

from repro.api import connect
from repro.core.algebra import Relation, Stream, TupleValue, view
from repro.core.types import TypeApp, attrs_of, rel_type, tuple_type
from repro.geometry import Point, Polygon, Rect
from repro.server.wire import decode_result, decode_value, encode_result, encode_value
from tests.test_api import SCHEMA, server_handle  # noqa: F401  (fixture)
from tests.test_carriers import typed_carriers

INT, STRING = TypeApp("int"), TypeApp("string")
_WIRE_ATOMS = {"int", "real", "string", "bool", "point", "rect", "pgon"}


def _carried(t) -> bool:
    """Whether the wire carries values of ``t``: atoms, geometry, and
    tuple types of them, nested ``rel`` and tuple attributes included."""
    if not isinstance(t, TypeApp):
        return False
    if not t.args:
        return t.constructor in _WIRE_ATOMS
    try:
        return all(_carried(a) for _, a in attrs_of(t))
    except TypeError:
        return t.constructor == "rel" and len(t.args) == 1 and _carried(t.args[0])


def _sent(t) -> bool:
    """Whether ``t`` is a tuple, ``rel`` or ``stream`` type the wire
    carries."""
    if isinstance(t, TypeApp) and t.constructor == "stream":
        return _carried(t.args[0])
    return _carried(t) and bool(t.args)


def wire_cases():
    """``(t, carrier)`` of a type the wire carries."""
    return typed_carriers().filter(lambda case: _sent(case[0]))


def _same(a, b) -> bool:
    """Equal, class by class: a view keeps its schema and values, a
    relation its type and row order, a list stays a list."""
    if a.__class__ is not b.__class__:
        return False
    if a.__class__ is TupleValue:
        return a.schema == b.schema and _same(a.values, b.values)
    if a.__class__ is Relation:
        return a.type == b.type and _same(a.rows, b.rows)
    if a.__class__ in (list, tuple):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return a == b


def _round_trip(value):
    return decode_value(json.loads(json.dumps(encode_value(value))))


class TestRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(wire_cases())
    def test_a_view_survives_the_wire(self, case):
        t, value = case
        shown = view(t, value)
        assert _same(_round_trip(shown), shown)

    @pytest.mark.parametrize(
        "value",
        [[], Relation(rel_type(tuple_type([("k", INT)])))],
        ids=["list", "relation"],
    )
    def test_an_empty_collection_keeps_its_class(self, value):
        assert _same(_round_trip(value), value)

    def test_a_stream_arrives_as_a_list(self):
        t = tuple_type([("k", INT), ("name", STRING)])
        rows = [(1, "a"), (2, "b")]
        assert _same(_round_trip(Stream(t, iter(rows))), view(rel_type(t, "stream"), rows))
        assert _round_trip(Stream(t, iter([]))) == []

    def test_rects_and_nested_tuples(self):
        inner = tuple_type([("a", INT), ("box", TypeApp("rect"))])
        t = tuple_type(
            [("name", STRING), ("inner", rel_type(inner)), ("pair", inner),
             ("region", TypeApp("pgon")), ("at", TypeApp("point"))]
        )
        row = (
            "x",
            Relation(rel_type(inner), [(1, Rect(0, 0, 1, 1)), (2, Rect(1, 1, 3, 4))]),
            (3, Rect(0.5, 0.5, 2.5, 2.5)),
            Polygon.rectangle(0, 0, 2, 1),
            Point(1.5, -2),
        )
        for value in (view(t, row), view(rel_type(t), Relation(rel_type(t), [row]))):
            back = _round_trip(value)
            assert _same(back, value)
        assert back.rows[0].attr("inner").rows[1].attr("box") == Rect(1, 1, 3, 4)

    def test_rows_are_bare_arrays_of_atoms_and_tagged_values(self):
        t = tuple_type([("k", INT), ("at", TypeApp("point"))])
        frame = encode_value(view(rel_type(t, "stream"), [(1, Point(0, 1)), (2, Point(2, 3))]))
        assert json.loads(json.dumps(frame)) == {
            "$": "stream",
            "type": "stream(tuple(<(k, int), (at, point)>))",
            "rows": [
                [1, {"$": "point", "x": 0, "y": 1}],
                [2, {"$": "point", "x": 2, "y": 3}],
            ],
        }

    def test_tuples_of_different_schemas_travel_one_by_one(self):
        a = view(tuple_type([("k", INT)]), (1,))
        b = view(tuple_type([("name", STRING)]), ("x",))
        frame = encode_value([a, b])
        assert frame["$"] == "list"
        assert _same(_round_trip([a, b]), [a, b])


class TestExplainParity:
    def test_analyzed_value_is_equal_on_both_transports(self, server_handle):  # noqa: F811
        local = connect()
        remote = connect(server_handle.address)
        try:
            remote._client.request("reset")
            reports = []
            for session in (local, remote):
                session.run(SCHEMA)
                reports.append(session.explain("cities select[pop > 0]", analyze=True))
            here, there = reports
            assert len(here["value"]) == 2
            assert _same(there["value"], here["value"])
            assert there["result_type"] == here["result_type"]
        finally:
            remote.disconnect()


ITEM = "type item = tuple(<(k, int), (name, string), (grp, int)>)"


@pytest.fixture(scope="module")
def items():
    """A relation shaped like the benchmark's ``items``: 400 rows on the
    even keys, behind a B-tree on ``k``."""
    session = connect()
    session.run(
        "\n".join(
            [
                ITEM,
                "create items : rel(item)",
                "create items_rep : btree(item, k, int)",
                "update rep := insert(rep, items, items_rep)",
            ]
            + [
                "update items := insert(items, "
                f'mktuple[<(k, {2 * i}), (name, "n{i}"), (grp, {i % 10})>])'
                for i in range(400)
            ]
        )
    )
    return session


class TestFrameSize:
    """The bytes of whole result frames.  Timings are zeroed, as they are
    the one field whose text varies between runs; any other change to
    what a frame holds changes these counts.  With a schema per row the
    same frames took 625 and 20 995 bytes."""

    @pytest.mark.parametrize(
        "query,rows,size",
        [
            ("items select[k = 10]", 1, 606),
            ("items select[k >= 0 and k <= 398]", 200, 4061),
        ],
        ids=["point", "range200"],
    )
    def test_frame_bytes(self, items, query, rows, size):
        result = items.query(query)
        assert len(result.value) == rows
        result = dataclasses.replace(result, timings=dict.fromkeys(result.timings, 0.0))
        frame = json.dumps(encode_result(result))
        assert len(frame) == size
        assert _same(decode_result(json.loads(frame)).value, result.value)


class TestNoDelay:
    def test_both_ends_disable_nagle(self, server_handle):  # noqa: F811
        session = connect(server_handle.address)
        try:
            session.ping()
            client = session._client._sock
            assert client.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
            (server,) = [
                writer.get_extra_info("socket")
                for writer in tuple(server_handle.server._handlers.values())
                if writer.get_extra_info("peername") == client.getsockname()
            ]
            assert server.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
        finally:
            session.disconnect()
