"""Stateful (model-based) testing of the storage structures.

Hypothesis drives random operation sequences against the B-tree and the
LSD-tree, checking after every step that they agree with a trivial
reference implementation and that their structural invariants hold.  The
B-tree machine also takes O(1) snapshots and rolls back to them, checking
that every snapshot keeps its contents while the tree changes under it.
"""

import copy

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.geometry import Point, Rect
from repro.storage import BTree, LSDTree
from repro.storage.io import PageManager

keys = st.integers(min_value=0, max_value=40)
payloads = st.integers(min_value=0, max_value=5)


class BTreeMachine(RuleBasedStateMachine):
    """Random inserts, deletes, modifies, snapshots and rollbacks.

    A rollback adopts a clone of a snapshot as the live tree, as
    copy-on-write does, so the snapshot itself stays unchanged.  ``twin``
    gets the same inserts, deletes and modifies but never takes a snapshot;
    on a rollback it adopts a deep copy of itself saved at the snapshot.  Its page counters must equal the tree's after every step, so
    the copying a snapshot causes is invisible to page accounting.
    """

    def __init__(self):
        super().__init__()
        self.tree = BTree(key=lambda t: t[0], order=4, pages=PageManager())
        self.twin = BTree(key=lambda t: t[0], order=4, pages=PageManager())
        self.reference: list[tuple] = []
        # (snapshot, its frozen reference, a deep copy of the twin)
        self.snapshots: list[tuple[BTree, list, BTree]] = []

    def both(self, work):
        """Apply ``work`` to the tree and the twin; they must agree."""
        got = work(self.tree)
        assert work(self.twin) == got
        return got

    @rule(key=keys, payload=payloads)
    def insert(self, key, payload):
        item = (key, payload)
        self.both(lambda tree: tree.insert(item))
        self.reference.append(item)

    @rule(key=keys, payload=payloads)
    def delete(self, key, payload):
        item = (key, payload)
        present = item in self.reference
        assert self.both(lambda tree: tree.delete(item)) == present
        if present:
            self.reference.remove(item)

    @precondition(lambda self: self.reference)
    @rule(index=st.integers(min_value=0, max_value=10**6))
    def modify(self, index):
        index %= len(self.reference)
        item = self.reference[index]
        bump = lambda ts: ((k, v + 10) for k, v in ts)
        assert self.both(lambda tree: tree.modify_tuples([item], bump)) == 1
        self.reference[index] = (item[0], item[1] + 10)

    @rule(low=keys, high=keys)
    def range_query(self, low, high):
        low, high = min(low, high), max(low, high)
        got = sorted(self.both(lambda tree: list(tree.range_search(low, high))))
        expected = sorted(t for t in self.reference if low <= t[0] <= high)
        assert got == expected

    @rule()
    def full_scan(self):
        assert sorted(self.both(lambda tree: list(tree.scan()))) == sorted(self.reference)

    @rule()
    def snapshot(self):
        memo = {id(self.twin.pages): self.twin.pages}
        self.snapshots.append(
            (self.tree.clone(), sorted(self.reference), copy.deepcopy(self.twin, memo))
        )

    @precondition(lambda self: self.snapshots)
    @rule(index=st.integers(min_value=0, max_value=10**6))
    def rollback(self, index):
        snap, frozen, twin = self.snapshots[index % len(self.snapshots)]
        self.tree = snap.clone()
        self.twin = copy.deepcopy(twin, {id(twin.pages): twin.pages})
        self.reference = list(frozen)

    @invariant()
    def structure_is_valid(self):
        self.tree.check_invariants()
        assert len(self.tree) == len(self.reference)

    @invariant()
    def snapshots_are_unchanged(self):
        pages = self.tree.pages
        before = pages.stats.snapshot()
        for snap, frozen, _ in self.snapshots:
            snap.check_invariants()
            assert sorted(snap.scan()) == frozen
        pages.stats = before  # the check itself is not part of the workload

    @invariant()
    def snapshots_cost_no_io(self):
        assert self.tree.pages.stats == self.twin.pages.stats


class LSDTreeMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.tree = LSDTree(key=lambda t: t[1], bucket_capacity=3, pages=PageManager())
        self.reference: list[tuple] = []
        self._next_id = 0

    @rule(x=keys, y=keys, w=payloads, h=payloads)
    def insert(self, x, y, w, h):
        rect = Rect(x, y, x + w + 0.5, y + h + 0.5)
        item = (self._next_id, rect)
        self._next_id += 1
        self.tree.insert(item)
        self.reference.append(item)

    @rule(index=st.integers(min_value=0, max_value=10**6))
    def delete_some(self, index):
        if not self.reference:
            return
        item = self.reference[index % len(self.reference)]
        assert self.tree.delete(item)
        self.reference.remove(item)

    @rule(x=keys, y=keys)
    def point_query(self, x, y):
        p = Point(x + 0.25, y + 0.25)
        got = sorted(t[0] for t in self.tree.point_search(p))
        expected = sorted(i for i, r in self.reference if r.contains_point(p))
        assert got == expected

    @rule(x=keys, y=keys, w=payloads, h=payloads)
    def overlap_query(self, x, y, w, h):
        q = Rect(x, y, x + w + 0.5, y + h + 0.5)
        got = sorted(t[0] for t in self.tree.overlap_search(q))
        expected = sorted(i for i, r in self.reference if r.intersects(q))
        assert got == expected

    @invariant()
    def structure_is_valid(self):
        self.tree.check_invariants()


TestBTreeStateful = BTreeMachine.TestCase
TestBTreeStateful.settings = settings(
    max_examples=25, stateful_step_count=40, deadline=None
)

TestLSDTreeStateful = LSDTreeMachine.TestCase
TestLSDTreeStateful.settings = settings(
    max_examples=20, stateful_step_count=30, deadline=None
)
