"""An LSD-tree [HeSW89] over rectangles (the ``lsdtree`` constructor).

The Local Split Decision tree is a binary directory over a multidimensional
data space whose leaves point to fixed-capacity buckets; split positions are
chosen locally per bucket (here: the median of the stored values in the
split dimension, cycling through dimensions along each path).

Rectangles are stored via the standard 4-d corner transformation: a
rectangle ``[x1, x2] x [y1, y2]`` becomes the point ``(x1, y1, x2, y2)``.
The two search operators of the paper become 4-d range queries:

* ``point_search(p)`` — all rectangles containing ``p``:
  ``x1 <= p.x <= x2`` and ``y1 <= p.y <= y2``, i.e. the query box
  ``(-inf, -inf, p.x, p.y) .. (p.x, p.y, +inf, +inf)``;
* ``overlap_search(r)`` — all rectangles intersecting ``r``:
  ``x1 <= r.xmax``, ``x2 >= r.xmin``, ``y1 <= r.ymax``, ``y2 >= r.ymin``.

Each entry carries a payload (the indexed tuple).  Buckets are simulated
pages; directory nodes live in memory (as in the original proposal, where
the directory is kept in main memory).
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Iterator, Optional

from repro.core.algebra import TupleValue, carrier
from repro.errors import StorageError
from repro.geometry import Point, Rect
from repro.storage.io import GLOBAL_PAGES, PageManager
from repro.testing.faults import fault_point
from repro import observe

_DIMS = 4
_NEG_INF = -math.inf
_POS_INF = math.inf


def _to_4d(rect: Rect) -> tuple[float, float, float, float]:
    return (rect.xmin, rect.ymin, rect.xmax, rect.ymax)


class _Bucket:
    __slots__ = ("entries", "page_id")

    def __init__(self, page_id: int):
        self.entries: list[tuple[tuple, Rect, object]] = []
        self.page_id = page_id


class _DirNode:
    """An internal directory node: split ``dim`` at ``position``."""

    __slots__ = ("dim", "position", "left", "right")

    def __init__(self, dim: int, position: float, left, right):
        self.dim = dim
        self.position = position
        self.left = left
        self.right = right


class LSDTree:
    """An LSD-tree of (rectangle, tuple) entries.

    ``key`` maps a tuple to its rectangle — the function-valued constructor
    argument of ``lsdtree(tuple, fun (t) bbox(t region))``.
    """

    def __init__(
        self,
        key: Callable,
        bucket_capacity: int = 32,
        pages: Optional[PageManager] = None,
        name: str = "lsdtree",
    ):
        if bucket_capacity < 2:
            raise StorageError("LSD-tree bucket capacity must be at least 2")
        self.key = key
        self.bucket_capacity = bucket_capacity
        self.pages = pages if pages is not None else GLOBAL_PAGES
        self.name = name
        self._root: _Bucket | _DirNode = _Bucket(self.pages.allocate())
        self._count = 0

    def __len__(self) -> int:
        return self._count

    # ------------------------------------------------------------ snapshots

    def clone(self) -> "LSDTree":
        """A structural copy sharing entries, the key function and the page
        manager (same page ids).  Costs no simulated I/O."""
        twin = LSDTree.__new__(LSDTree)
        twin.__dict__.update(self.__dict__)
        twin._root = _clone_subtree(self._root)
        return twin

    # ------------------------------------------------------------- insertion

    def insert(self, value) -> None:
        """Insert one tuple; its rectangle comes from the key function.  A
        :class:`~repro.core.algebra.TupleValue` is stored as its carrier."""
        fault_point("lsdtree.insert")
        if value.__class__ is TupleValue:
            value = carrier(value)
        rect = self.key(value)
        if not isinstance(rect, Rect):
            raise StorageError(f"LSD-tree key function must yield a rect, got {rect!r}")
        point = _to_4d(rect)
        self._root = self._insert(self._root, point, rect, value, depth=0)
        self._count += 1

    def stream_insert(self, values: Iterable) -> None:
        for value in values:
            self.insert(value)

    def _insert(self, node, point, rect, value, depth: int):
        if isinstance(node, _Bucket):
            node.entries.append((point, rect, value))
            self.pages.write(node.page_id)
            if len(node.entries) > self.bucket_capacity:
                return self._split(node, depth)
            return node
        if point[node.dim] <= node.position:
            node.left = self._insert(node.left, point, rect, value, depth + 1)
        else:
            node.right = self._insert(node.right, point, rect, value, depth + 1)
        return node

    def _split(self, bucket: _Bucket, depth: int) -> _DirNode:
        """The local split decision: cycle dimensions along the path, split
        at the median coordinate of the bucket's entries."""
        for probe in range(_DIMS):
            dim = (depth + probe) % _DIMS
            coords = sorted(entry[0][dim] for entry in bucket.entries)
            if coords[0] == coords[-1]:
                continue  # no split possible in this dimension
            position = coords[(len(coords) - 1) // 2]
            if position == coords[-1]:
                # Duplicate-heavy bucket: the median equals the maximum, which
                # would leave the right side empty.  Split below the maximum
                # instead (the dimension is splittable, so one exists).
                position = max(c for c in coords if c < coords[-1])
            left_entries = [e for e in bucket.entries if e[0][dim] <= position]
            right_entries = [e for e in bucket.entries if e[0][dim] > position]
            break
        else:
            # All entries identical in every dimension: overflow the bucket.
            return _DirNode(
                depth % _DIMS, bucket.entries[0][0][depth % _DIMS], bucket, _make_empty(self)
            )
        left = _Bucket(bucket.page_id)
        left.entries = left_entries
        right = _Bucket(self.pages.allocate())
        right.entries = right_entries
        self.pages.write(left.page_id)
        self.pages.write(right.page_id)
        return _DirNode(dim, position, left, right)

    # --------------------------------------------------------------- queries

    def scan(self) -> Iterator:
        """All stored tuples (bucket order)."""
        yield from (value for _, _, value in self._entries(self._root))

    def _entries(self, node) -> Iterator:
        if isinstance(node, _Bucket):
            self.pages.read(node.page_id)
            if observe.ENABLED:
                observe.incr(f"{self.name}.node_reads")
            yield from node.entries
            return
        yield from self._entries(node.left)
        yield from self._entries(node.right)

    def point_search(self, p: Point) -> Iterator:
        """All tuples whose rectangle contains ``p`` (``point_search``).

        The 4-d range query ``(-inf, -inf, p.x, p.y) .. (p.x, p.y, +inf,
        +inf)`` of :meth:`_range`, with the same buckets read in the same
        order; an entry is tested by the four comparisons that are not
        against an infinity.
        """
        return self._contains(p.x, p.y)

    def _contains(self, x, y) -> Iterator:
        low = (_NEG_INF, _NEG_INF, x, y)
        high = (x, y, _POS_INF, _POS_INF)
        stack = [self._root]
        while stack:
            node = stack.pop()
            if type(node) is _Bucket:
                self.pages.stats.reads += 1
                if observe.ENABLED:
                    observe.incr(f"{self.name}.node_reads")
                for (p0, p1, p2, p3), _rect, value in node.entries:
                    if p0 <= x and p1 <= y and x <= p2 and y <= p3:
                        yield value
                continue
            if low[node.dim] <= node.position:
                stack.append(node.left)
            if high[node.dim] > node.position:
                stack.append(node.right)

    def overlap_search(self, query: Rect) -> Iterator:
        """All tuples whose rectangle intersects ``query``
        (``overlap_search``)."""
        low = (_NEG_INF, _NEG_INF, query.xmin, query.ymin)
        high = (query.xmax, query.ymax, _POS_INF, _POS_INF)
        return self._range(low, high)

    def _range(self, low: tuple, high: tuple) -> Iterator:
        """4-d range query over the corner-transformed points."""
        low0, low1, low2, low3 = low
        high0, high1, high2, high3 = high
        stack = [self._root]
        while stack:
            node = stack.pop()
            if isinstance(node, _Bucket):
                self.pages.read(node.page_id)
                if observe.ENABLED:
                    observe.incr(f"{self.name}.node_reads")
                for (p0, p1, p2, p3), _rect, value in node.entries:
                    if (
                        low0 <= p0 <= high0
                        and low1 <= p1 <= high1
                        and low2 <= p2 <= high2
                        and low3 <= p3 <= high3
                    ):
                        yield value
                continue
            if low[node.dim] <= node.position:
                stack.append(node.left)
            if high[node.dim] > node.position:
                stack.append(node.right)

    # -------------------------------------------------------------- deletion

    def delete(self, value) -> bool:
        """Delete one tuple (found via its rectangle, then equality)."""
        fault_point("lsdtree.delete")
        if value.__class__ is TupleValue:
            value = carrier(value)
        rect = self.key(value)
        point = _to_4d(rect)
        node = self._root
        while isinstance(node, _DirNode):
            node = node.left if point[node.dim] <= node.position else node.right
        self.pages.read(node.page_id)
        for i, (_, _, stored) in enumerate(node.entries):
            if stored == value:
                del node.entries[i]
                self.pages.write(node.page_id)
                self._count -= 1
                return True
        return False

    def delete_tuples(self, values: Iterable) -> int:
        deleted = 0
        for value in list(values):
            if self.delete(value):
                deleted += 1
        return deleted

    # --------------------------------------------------------------- checking

    def check_invariants(self) -> None:
        """Every entry must be reachable through the directory and lie on
        the correct side of every split on its path."""
        count = self._check(self._root, [(_NEG_INF, _POS_INF)] * _DIMS)
        if count != self._count:
            raise StorageError(f"count mismatch: {count} != {self._count}")

    def _check(self, node, bounds: list[tuple[float, float]]) -> int:
        if isinstance(node, _Bucket):
            for point, rect, _value in node.entries:
                if _to_4d(rect) != point:
                    raise StorageError("stored point does not match rectangle")
                for d in range(_DIMS):
                    low, high = bounds[d]
                    # Routing sends coordinates <= split left and > split
                    # right, so every region is the half-open box (low, high].
                    if not (low < point[d] <= high):
                        raise StorageError("entry outside its directory region")
            return len(node.entries)
        left_bounds = list(bounds)
        right_bounds = list(bounds)
        low, high = bounds[node.dim]
        left_bounds[node.dim] = (low, node.position)
        right_bounds[node.dim] = (node.position, high)
        total = self._check(node.left, left_bounds)
        total += self._check(node.right, right_bounds)
        return total


def _make_empty(tree: LSDTree) -> _Bucket:
    return _Bucket(tree.pages.allocate())


def _clone_subtree(node):
    """Copy a directory subtree; buckets keep their page ids and share the
    stored (point, rect, tuple) entries."""
    if isinstance(node, _Bucket):
        twin = _Bucket(node.page_id)
        twin.entries = list(node.entries)
        return twin
    return _DirNode(
        node.dim, node.position, _clone_subtree(node.left), _clone_subtree(node.right)
    )
