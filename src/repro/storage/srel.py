"""Temporary relations (the ``srel`` constructor of Section 4).

An SRel is a materialized sequence of tuples — what the ``collect`` operator
produces when a stream has to be used more than once or kept around.  It is
page-structured for I/O accounting: tuples are appended to fixed-capacity
pages, and scans read each page once.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

from repro.core.algebra import TupleValue, carrier
from repro.storage.io import GLOBAL_PAGES, PageManager
from repro.testing.faults import fault_point


class SRel:
    """A temporary relation collected from a stream."""

    def __init__(
        self,
        tuples: Optional[Iterable] = None,
        page_capacity: int = 64,
        pages: Optional[PageManager] = None,
        name: str = "srel",
    ):
        self.page_capacity = page_capacity
        self.pages = pages if pages is not None else GLOBAL_PAGES
        self.name = name
        self._pages: list[tuple[int, list]] = []
        if tuples is not None:
            for t in tuples:
                self.append(t)

    def clone(self) -> "SRel":
        """A snapshot copy: pages copied (same page ids), tuples and the
        page manager shared.  Costs no simulated I/O."""
        twin = SRel.__new__(SRel)
        twin.__dict__.update(self.__dict__)
        twin._pages = [(page_id, list(content)) for page_id, content in self._pages]
        return twin

    def append(self, value) -> None:
        """Append one tuple; a :class:`~repro.core.algebra.TupleValue` is
        stored as its carrier."""
        fault_point("srel.append")
        if value.__class__ is TupleValue:
            value = carrier(value)
        if not self._pages or len(self._pages[-1][1]) >= self.page_capacity:
            self._pages.append((self.pages.allocate(), []))
        page_id, content = self._pages[-1]
        content.append(value)
        self.pages.write(page_id)

    def insert(self, value) -> None:
        """Alias of :meth:`append` — the generic ``insert`` update function
        of the algebra calls ``insert`` on every structure."""
        self.append(value)

    def stream_insert(self, values: Iterable) -> None:
        for value in values:
            self.append(value)

    def scan(self) -> Iterator:
        for page_id, content in self._pages:
            self.pages.read(page_id)
            yield from content

    def __iter__(self) -> Iterator:
        return self.scan()

    def __len__(self) -> int:
        return sum(len(content) for _, content in self._pages)

    def __repr__(self) -> str:
        return f"SRel({len(self)} tuples)"
