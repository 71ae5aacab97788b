"""B+-tree unit and property tests (the ``btree`` structure of Section 4)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StorageError
from repro.storage import BOTTOM_KEY, TOP_KEY, BTree
from repro.storage.io import PageManager


def fresh(order=4):
    return BTree(key=lambda t: t[0], order=order, pages=PageManager())


class TestBasics:
    def test_order_minimum(self):
        with pytest.raises(StorageError):
            BTree(key=lambda t: t, order=2)

    def test_insert_scan_sorted(self):
        bt = fresh()
        for k in [5, 1, 9, 3, 7]:
            bt.insert((k, f"v{k}"))
        assert [t[0] for t in bt.scan()] == [1, 3, 5, 7, 9]
        assert len(bt) == 5

    def test_duplicates_allowed(self):
        bt = fresh()
        for i in range(10):
            bt.insert((42, i))
        assert len(list(bt.exact_search(42))) == 10

    def test_range_inclusive(self):
        bt = fresh()
        for k in range(20):
            bt.insert((k, k))
        assert [t[0] for t in bt.range_search(5, 8)] == [5, 6, 7, 8]

    def test_halfranges_with_bottom_top(self):
        bt = fresh()
        for k in range(10):
            bt.insert((k, k))
        assert [t[0] for t in bt.range_search(BOTTOM_KEY, 3)] == [0, 1, 2, 3]
        assert [t[0] for t in bt.range_search(7, TOP_KEY)] == [7, 8, 9]
        assert len(list(bt.range_search(BOTTOM_KEY, TOP_KEY))) == 10

    def test_empty_range(self):
        bt = fresh()
        bt.insert((1, 1))
        assert list(bt.range_search(5, 9)) == []

    def test_string_keys(self):
        bt = fresh()
        for name in ["bob", "ann", "cia"]:
            bt.insert((name, name))
        assert [t[0] for t in bt.scan()] == ["ann", "bob", "cia"]

    def test_function_key(self):
        # The second constructor variant: key by derived value.
        bt = BTree(key=lambda t: t[0] // 1000, order=4, pages=PageManager())
        for k in [100, 1500, 2700, 900]:
            bt.insert((k,))
        assert [t[0] for t in bt.range_search(0, 0)] == [100, 900]


class TestDeletion:
    def test_delete_present(self):
        bt = fresh()
        bt.insert((1, "a"))
        assert bt.delete((1, "a"))
        assert len(bt) == 0
        assert not bt.delete((1, "a"))

    def test_delete_selects_by_value_among_duplicates(self):
        bt = fresh()
        bt.insert((5, "x"))
        bt.insert((5, "y"))
        assert bt.delete((5, "y"))
        assert list(bt.exact_search(5)) == [(5, "x")]

    def test_delete_tuples_from_search_stream(self):
        bt = fresh()
        for k in range(30):
            bt.insert((k, k))
        deleted = bt.delete_tuples(bt.range_search(10, 19))
        assert deleted == 10
        assert len(bt) == 20
        bt.check_invariants()

    def test_mass_delete_keeps_invariants(self):
        rng = random.Random(5)
        bt = fresh(order=4)
        items = [(rng.randrange(50), i) for i in range(300)]
        for t in items:
            bt.insert(t)
        rng.shuffle(items)
        for t in items[:290]:
            assert bt.delete(t)
            bt.check_invariants()
        assert sorted(bt.scan()) == sorted(items[290:])


class TestUpdates:
    def test_modify_in_situ(self):
        bt = fresh()
        for k in range(10):
            bt.insert((k, 0))
        changed = bt.modify_tuples(
            bt.range_search(3, 5), lambda ts: ((k, v + 1) for k, v in ts)
        )
        assert changed == 3
        assert list(bt.range_search(3, 5)) == [(3, 1), (4, 1), (5, 1)]

    def test_modify_must_not_change_key(self):
        bt = fresh()
        bt.insert((1, 0))
        with pytest.raises(StorageError):
            bt.modify_tuples(bt.exact_search(1), lambda ts: ((9, v) for _, v in ts))

    def test_re_insert_moves_to_new_position(self):
        # The paper's key-update example: pop := pop * 1.1
        bt = fresh()
        for k in [10, 20, 30]:
            bt.insert((k, f"v{k}"))
        bt.re_insert_tuples(
            bt.exact_search(10), lambda ts: ((k * 10, v) for k, v in ts)
        )
        assert [t[0] for t in bt.scan()] == [20, 30, 100]
        bt.check_invariants()

    def test_stream_insert(self):
        bt = fresh()
        bt.stream_insert((k, k) for k in range(100))
        assert len(bt) == 100
        bt.check_invariants()


class TestIOAccounting:
    def test_range_search_reads_fewer_pages_than_scan(self):
        pages = PageManager()
        bt = BTree(key=lambda t: t[0], order=8, pages=pages)
        for k in range(2000):
            bt.insert((k, k))
        with pages.measure() as scan:
            list(bt.scan())
        with pages.measure() as ranged:
            list(bt.range_search(100, 110))
        assert ranged.delta.reads < scan.delta.reads / 5


def straddling():
    """An order-4 tree of height 4: keys 0..39 plus eight more duplicates
    of 15, so the nine tuples with key 15 span three leaves."""
    bt = fresh()
    for k in range(40):
        bt.insert((k, 0))
    for p in range(1, 9):
        bt.insert((15, p))
    return bt


class TestCursorIO:
    """Exact simulated I/O of the scan cursor.  A scan reads the descent
    path, then every leaf it enters; climbing and descending internal
    nodes between leaves reads nothing, as walking a leaf chain did."""

    def measure(self, bt, work):
        with bt.pages.measure() as m:
            work()
        return m.delta.reads, m.delta.writes

    def test_scan(self):
        bt = straddling()
        assert (bt.height, len(bt)) == (4, 48)
        assert self.measure(bt, lambda: list(bt.scan())) == (25, 0)

    def test_range_across_leaves(self):
        bt = straddling()
        assert self.measure(bt, lambda: list(bt.range_search(5, 30))) == (20, 0)
        assert self.measure(bt, lambda: list(bt.exact_search(15))) == (8, 0)

    def test_prefix_search(self):
        ct = BTree(key=lambda t: (t[0], t[1]), order=4, pages=PageManager())
        for a in range(10):
            for b in range(5):
                ct.insert((a, b))
        got = []
        assert self.measure(ct, lambda: got.extend(ct.prefix_search((4,)))) == (8, 0)
        assert got == [(4, b) for b in range(5)]
        assert self.measure(ct, lambda: list(ct.prefix_search(()))) == (28, 0)

    def test_empty_tree(self):
        bt = fresh()
        assert self.measure(bt, lambda: list(bt.scan())) == (2, 0)
        assert self.measure(bt, lambda: list(bt.range_search(1, 2))) == (2, 0)

    def test_modify_duplicates_straddling_leaves(self):
        bt = straddling()
        targets = list(bt.exact_search(15))
        bump = lambda ts: ((k, v + 100) for k, v in ts)
        assert self.measure(bt, lambda: bt.modify_tuples(targets, bump)) == (45, 9)
        assert sorted(bt.exact_search(15)) == [(15, p + 100) for p in range(9)]

    def test_modify_after_a_snapshot_costs_the_same(self):
        bt = straddling()
        targets = list(bt.exact_search(15))
        snap = bt.clone()
        bump = lambda ts: ((k, v + 100) for k, v in ts)
        assert self.measure(bt, lambda: bt.modify_tuples(targets, bump)) == (45, 9)
        assert sorted(snap.exact_search(15)) == sorted(targets)


class TestSnapshots:
    def test_clone_shares_the_root(self):
        bt = straddling()
        with bt.pages.measure() as m:
            twin = bt.clone()
        assert twin._root is bt._root
        assert (m.delta.reads, m.delta.writes, m.delta.pages_allocated) == (0, 0, 0)

    def test_a_node_is_copied_on_the_first_write_only(self):
        bt = fresh(order=8)
        for k in range(0, 200, 2):
            bt.insert((k, 0))
        snap = bt.clone()
        bt.insert((51, 0))
        root = bt._root
        assert root is not snap._root
        bt.insert((53, 0))
        assert bt._root is root
        assert list(snap.scan()) == [(k, 0) for k in range(0, 200, 2)]
        bt.check_invariants()

    def test_range_scan_over_a_snapshot_is_stable(self):
        bt = fresh()
        for k in range(60):
            bt.insert((k, 0))
        snap = bt.clone()
        cursor = snap.range_search(10, 49)
        got = [next(cursor) for _ in range(5)]
        for k in range(60, 200):  # splits, to a greater height
            bt.insert((k, 0))
        for k in range(0, 150):  # borrows and merges, under the cursor
            assert bt.delete((k, 0))
        got.extend(cursor)
        assert got == [(k, 0) for k in range(10, 50)]
        snap.check_invariants()
        bt.check_invariants()
        assert list(bt.scan()) == [(k, 0) for k in range(150, 200)]

    def test_snapshots_survive_splits_borrows_and_merges(self):
        rng = random.Random(7)
        bt = fresh()
        live = [(rng.randrange(60), i) for i in range(300)]
        for t in live:
            bt.insert(t)
        snapshots = []
        for step in range(600):
            if step % 7 == 0:
                snapshots.append((bt.clone(), sorted(live)))
            if live and rng.random() < 0.7:
                assert bt.delete(live.pop(rng.randrange(len(live))))
            else:
                t = (rng.randrange(60), 300 + step)
                bt.insert(t)
                live.append(t)
        bt.check_invariants()
        assert sorted(bt.scan()) == sorted(live)
        for snap, frozen in snapshots:
            snap.check_invariants()
            assert sorted(snap.scan()) == frozen

    def test_deleting_a_missing_tuple_copies_nothing(self):
        bt = straddling()
        snap = bt.clone()
        assert not bt.delete((15, 99))
        assert bt._root is snap._root


class TestBulkLoad:
    def test_requires_empty_tree(self):
        bt = fresh()
        bt.insert((1, 1))
        with pytest.raises(StorageError):
            bt.bulk_load([(2, 2)])

    def test_equivalent_to_inserts(self):
        rng = random.Random(3)
        items = [(rng.randrange(40), i) for i in range(500)]
        loaded = fresh(order=8)
        loaded.bulk_load(items)
        looped = fresh(order=8)
        looped.stream_insert(items)
        loaded.check_invariants()
        assert sorted(loaded.scan()) == sorted(looped.scan())
        assert len(loaded) == len(looped)

    def test_fewer_page_writes_than_inserts(self):
        items = [(k, k) for k in range(2000)]
        pm1 = PageManager()
        bt1 = BTree(key=lambda t: t[0], order=16, pages=pm1)
        bt1.bulk_load(items)
        pm2 = PageManager()
        bt2 = BTree(key=lambda t: t[0], order=16, pages=pm2)
        bt2.stream_insert(items)
        assert pm1.stats.writes * 5 < pm2.stats.writes

    def test_loaded_tree_is_fully_mutable(self):
        bt = fresh(order=4)
        bt.bulk_load([(k, k) for k in range(100)])
        for k in range(0, 100, 2):
            assert bt.delete((k, k))
        bt.check_invariants()
        assert len(bt) == 50


keys = st.lists(st.integers(min_value=0, max_value=200), min_size=0, max_size=200)


class TestProperties:
    @given(keys, st.integers(min_value=3, max_value=16))
    @settings(max_examples=60, deadline=None)
    def test_scan_equals_sorted_inserts(self, ks, order):
        bt = BTree(key=lambda t: t[0], order=order, pages=PageManager())
        items = [(k, i) for i, k in enumerate(ks)]
        for t in items:
            bt.insert(t)
        bt.check_invariants()
        assert sorted(t[0] for t in bt.scan()) == sorted(ks)
        assert len(bt) == len(ks)

    @given(keys, st.integers(min_value=0, max_value=200), st.integers(min_value=0, max_value=200))
    @settings(max_examples=60, deadline=None)
    def test_range_agrees_with_reference(self, ks, a, b):
        lo, hi = min(a, b), max(a, b)
        bt = BTree(key=lambda t: t[0], order=4, pages=PageManager())
        for i, k in enumerate(ks):
            bt.insert((k, i))
        got = sorted(t[0] for t in bt.range_search(lo, hi))
        expected = sorted(k for k in ks if lo <= k <= hi)
        assert got == expected

    @given(keys, st.integers(min_value=3, max_value=32))
    @settings(max_examples=60, deadline=None)
    def test_bulk_load_property(self, ks, order):
        bt = BTree(key=lambda t: t[0], order=order, pages=PageManager())
        items = [(k, i) for i, k in enumerate(ks)]
        bt.bulk_load(items)
        if items:
            bt.check_invariants()
        assert sorted(bt.scan()) == sorted(items)

    @given(keys)
    @settings(max_examples=40, deadline=None)
    def test_insert_delete_roundtrip(self, ks):
        bt = BTree(key=lambda t: t[0], order=4, pages=PageManager())
        items = [(k, i) for i, k in enumerate(ks)]
        for t in items:
            bt.insert(t)
        rng = random.Random(1)
        to_delete = items[: len(items) // 2]
        rng.shuffle(to_delete)
        for t in to_delete:
            assert bt.delete(t)
        bt.check_invariants()
        remaining = sorted(set(items) - set(to_delete))
        assert sorted(bt.scan()) == remaining
