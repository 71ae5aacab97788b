"""TID-addressed permanent relations (the ``tidrel`` constructor).

A TidRelation stores tuples with stable tuple identifiers and no particular
order; secondary index structures can be built over it (the paper mentions
"a sequence of tuple identifiers delivered from a secondary index" as one
search method for updates).  Tuples live on simulated pages; a TID is
``(page_id, slot)``, so fetching by TID costs one page read.
"""

from __future__ import annotations

from itertools import count
from typing import Callable, Iterable, Iterator, Optional

from repro.errors import StorageError
from repro.storage.btree import BTree
from repro.storage.io import GLOBAL_PAGES, PageManager
from repro.testing.faults import fault_point
from repro import observe


_heap_ids = count(1)


class TidRelation:
    """A heap file of tuples addressed by TIDs.

    ``heap_id`` names the heap across its snapshots (:meth:`clone` keeps
    it), so a secondary index can find its base object after copy-on-write
    has replaced the instance it was built over.
    """

    def __init__(
        self,
        page_capacity: int = 64,
        pages: Optional[PageManager] = None,
        name: str = "tidrel",
    ):
        self.page_capacity = page_capacity
        self.pages = pages if pages is not None else GLOBAL_PAGES
        self.name = name
        self.heap_id = next(_heap_ids)
        self._pages: list[tuple[int, list]] = []
        self._count = 0

    def clone(self) -> "TidRelation":
        """A snapshot copy: pages are copied (same page ids), tuples and the
        page manager are shared.  Costs no simulated I/O."""
        twin = TidRelation.__new__(TidRelation)
        twin.__dict__.update(self.__dict__)
        twin._pages = [(page_id, list(content)) for page_id, content in self._pages]
        return twin

    def insert(self, value) -> tuple[int, int]:
        """Insert a tuple; returns its TID."""
        fault_point("tidrel.insert")
        if not self._pages or len(self._pages[-1][1]) >= self.page_capacity:
            self._pages.append((self.pages.allocate(), []))
        page_index = len(self._pages) - 1
        page_id, content = self._pages[page_index]
        slot = len(content)
        content.append(value)
        self.pages.write(page_id)
        self._count += 1
        return (page_index, slot)

    def stream_insert(self, values: Iterable) -> list[tuple[int, int]]:
        return [self.insert(v) for v in values]

    def fetch(self, tid: tuple[int, int]):
        """The tuple stored at ``tid`` (one page read)."""
        page_index, slot = tid
        try:
            page_id, content = self._pages[page_index]
            value = content[slot]
        except IndexError:
            raise StorageError(f"invalid TID: {tid}") from None
        if value is None:
            raise StorageError(f"TID {tid} was deleted")
        self.pages.read(page_id)
        if observe.ENABLED:
            observe.incr(f"{self.name}.fetches")
        return value

    def delete(self, tid: tuple[int, int]) -> None:
        """Delete the tuple at ``tid`` (slot is tombstoned)."""
        fault_point("tidrel.delete")
        page_index, slot = tid
        try:
            page_id, content = self._pages[page_index]
            if content[slot] is None:
                raise StorageError(f"TID {tid} was already deleted")
            content[slot] = None
        except IndexError:
            raise StorageError(f"invalid TID: {tid}") from None
        self.pages.write(page_id)
        self._count -= 1

    def replace(self, tid: tuple[int, int], value) -> None:
        """Overwrite the tuple at ``tid`` in place."""
        fault_point("tidrel.replace")
        page_index, slot = tid
        try:
            page_id, content = self._pages[page_index]
            if content[slot] is None:
                raise StorageError(f"TID {tid} was deleted")
            content[slot] = value
        except IndexError:
            raise StorageError(f"invalid TID: {tid}") from None
        self.pages.write(page_id)

    def scan(self) -> Iterator:
        """All live tuples (page order) — the ``feed`` path."""
        for page_id, content in self._pages:
            self.pages.read(page_id)
            if observe.ENABLED:
                observe.incr(f"{self.name}.page_reads")
            yield from (value for value in content if value is not None)

    def scan_with_tids(self) -> Iterator[tuple[tuple[int, int], object]]:
        for page_index, (page_id, content) in enumerate(self._pages):
            self.pages.read(page_id)
            for slot, value in enumerate(content):
                if value is not None:
                    yield (page_index, slot), value

    def __iter__(self) -> Iterator:
        return self.scan()

    def __len__(self) -> int:
        return self._count

    def __repr__(self) -> str:
        return f"TidRelation({self._count} tuples)"


class SecondaryIndex:
    """A secondary B-tree index over a :class:`TidRelation`.

    Maps ``key(tuple)`` to TIDs; searches return TID streams which are then
    dereferenced against the heap (each dereference costs one page read) —
    the classic unclustered index access path.
    """

    def __init__(
        self,
        relation: TidRelation,
        key: Callable,
        order: int = 32,
        pages: Optional[PageManager] = None,
        name: str = "secondary",
    ):
        self.relation = relation
        self.key = key
        self._tree = BTree(
            key=lambda entry: entry[0],
            order=order,
            pages=pages if pages is not None else relation.pages,
            name=name,
        )

    def clone(self) -> "SecondaryIndex":
        """A snapshot copy of the index tree (O(1), see :meth:`BTree.clone`).
        The heap reference is shared: copy-on-write never writes a heap
        another object still holds, so the index keeps reading the heap
        version it was built over."""
        twin = SecondaryIndex.__new__(SecondaryIndex)
        twin.__dict__.update(self.__dict__)
        twin._tree = self._tree.clone()
        return twin

    def build(self) -> None:
        """Index every live tuple currently in the relation."""
        for tid, value in self.relation.scan_with_tids():
            self._tree.insert((self.key(value), tid))

    def insert(self, tid: tuple[int, int], value) -> None:
        self._tree.insert((self.key(value), tid))

    def delete(self, tid: tuple[int, int], value) -> bool:
        return self._tree.delete((self.key(value), tid))

    def tids_in_range(self, low, high) -> Iterator[tuple[int, int]]:
        """TIDs whose key lies in [low, high]."""
        return (tid for _, tid in self._tree.range_search(low, high))

    def fetch_range(self, low, high) -> Iterator:
        """Tuples (dereferenced) whose key lies in [low, high]."""
        return (self.relation.fetch(tid) for tid in self.tids_in_range(low, high))

    def __len__(self) -> int:
        return len(self._tree)
