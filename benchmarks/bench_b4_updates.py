"""B4 — update strategies of Section 6 on the B-tree.

Compares tuple-at-a-time insert, bulk stream_insert, in-situ modify (non-key
attribute), and delete + re-insert (key update).  Expected shape: in-situ
modify is cheaper than re_insert (no structural change); bulk insert beats
per-statement insert by the per-statement front-end cost.
"""

import pytest

from repro.geometry import Point
from repro.rep.model import tuple_attr_getter
from repro.storage import BTree
from repro.storage.io import PageManager

N = 2000
CNAME, POP = 0, 2  # attribute positions in a city tuple


def make_rows(city_t, n=N):
    """City tuples as a B-tree stores them: their carriers, plain tuples
    in attribute order."""
    return [(f"c{i}", Point(i % 100, i // 100), i) for i in range(n)]


def renamed(ts):
    """The in-situ update: cname := "x" (a non-key attribute)."""
    return (("x",) + t[CNAME + 1 :] for t in ts)


def moved(ts):
    """The key update: pop := pop + N."""
    return (t[:POP] + (t[POP] + N,) + t[POP + 1 :] for t in ts)


@pytest.fixture(scope="module")
def city_t():
    from repro.core.types import TypeApp, tuple_type

    return tuple_type(
        [("cname", TypeApp("string")), ("center", TypeApp("point")), ("pop", TypeApp("int"))]
    )


def fresh_tree(city_t, rows):
    bt = BTree(key=tuple_attr_getter(city_t, "pop"), order=16, pages=PageManager())
    bt.stream_insert(rows)
    return bt


def test_bulk_stream_insert(benchmark, city_t):
    rows = make_rows(city_t)

    def run():
        bt = BTree(key=tuple_attr_getter(city_t, "pop"), order=16, pages=PageManager())
        bt.stream_insert(rows)
        return bt

    bt = benchmark(run)
    assert len(bt) == N


def test_bulk_load(benchmark, city_t):
    """Bottom-up bulk loading vs the insert loop above."""
    rows = make_rows(city_t)

    def run():
        bt = BTree(key=tuple_attr_getter(city_t, "pop"), order=16, pages=PageManager())
        bt.bulk_load(rows)
        return bt

    bt = benchmark(run)
    assert len(bt) == N


def test_modify_in_situ_non_key(benchmark, city_t):
    rows = make_rows(city_t)

    def setup():
        return (fresh_tree(city_t, rows),), {}

    def run(bt):
        bt.modify_tuples(
            bt.range_search(0, N // 10),
            renamed,
        )

    benchmark.pedantic(run, setup=setup, rounds=10)


def test_re_insert_key_update(benchmark, city_t):
    rows = make_rows(city_t)

    def setup():
        return (fresh_tree(city_t, rows),), {}

    def run(bt):
        bt.re_insert_tuples(
            bt.range_search(0, N // 10),
            moved,
        )

    benchmark.pedantic(run, setup=setup, rounds=10)


def test_range_delete(benchmark, city_t):
    rows = make_rows(city_t)

    def setup():
        return (fresh_tree(city_t, rows),), {}

    def run(bt):
        bt.delete_tuples(bt.range_search(0, N // 10))

    benchmark.pedantic(run, setup=setup, rounds=10)


def test_in_situ_writes_fewer_pages_than_re_insert(city_t):
    rows = make_rows(city_t)
    bt1 = fresh_tree(city_t, rows)
    with bt1.pages.measure() as m1:
        bt1.modify_tuples(
            bt1.range_search(0, N // 10),
            renamed,
        )
    bt2 = fresh_tree(city_t, rows)
    with bt2.pages.measure() as m2:
        bt2.re_insert_tuples(
            bt2.range_search(0, N // 10),
            moved,
        )
    assert m1.delta.writes < m2.delta.writes
