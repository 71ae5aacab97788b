"""A clustering B+-tree over tuples (the ``btree`` constructor of Section 4).

The paper gives two constructor variants and this class covers both:

* ``btree(tuple, attrname, dtype)`` — key is one attribute; pass
  ``key=lambda t: t.attr("pop")``;
* ``btree(tuple, fun (t: tuple) expr)`` — key is an arbitrary derived value;
  pass any callable.

The tree is a textbook B+-tree: tuples live in the leaves (clustering
structure), internal nodes hold separator keys.  Duplicate keys are allowed.
Deletion rebalances by borrowing from or merging with siblings.  Every node
is a simulated page; reads and writes are accounted through a
:class:`~repro.storage.io.PageManager`.

The tree is persistent by path copying, so a snapshot (:meth:`BTree.clone`)
is O(1): it shares the root.  Each node records the owner token of the tree
that created it; a write first takes ownership of every node on its path,
copying a node only on the first write to it after a snapshot.  Because a
shared leaf cannot point at its successor in two trees, there is no leaf
chain: scans keep a stack of the parents above their leaf and climb and
descend it between leaves, which reads no pages, as the chain read none.

Update operators of Section 6 map to: :meth:`insert`, :meth:`stream_insert`,
:meth:`delete_tuples`, :meth:`modify_tuples` (in situ, key must not change)
and :meth:`re_insert_tuples` (delete + reinsert, for key updates).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Callable, Iterable, Iterator, Optional

from repro.errors import StorageError
from repro.storage.io import GLOBAL_PAGES, PageManager
from repro.testing.faults import fault_point
from repro import observe


class _Sentinel:
    __slots__ = ("_name",)

    def __init__(self, name: str):
        self._name = name

    def __repr__(self) -> str:
        return self._name


BOTTOM_KEY = _Sentinel("bottom")
"""Smaller than every key — the polymorphic constant ``bottom``."""

TOP_KEY = _Sentinel("top")
"""Greater than every key — the polymorphic constant ``top``."""


class _Node:
    """One page.  ``owner`` is the token of the tree that created this
    copy: only that tree may change it in place (see :meth:`BTree.clone`)."""

    __slots__ = ("leaf", "keys", "values", "children", "page_id", "owner")

    def __init__(self, leaf: bool, page_id: int, owner, keys=(), values=(), children=()):
        self.leaf = leaf
        self.keys: list = list(keys)
        self.values: list = list(values)  # leaf only: the tuples
        self.children: list["_Node"] = list(children)  # internal only
        self.page_id = page_id
        self.owner = owner


class BTree:
    """A B+-tree of tuples keyed by ``key(tuple)``.

    ``order`` is the maximum number of keys per node (>= 3); nodes other
    than the root keep at least ``order // 2`` keys.
    """

    def __init__(
        self,
        key: Callable,
        order: int = 32,
        pages: Optional[PageManager] = None,
        name: str = "btree",
    ):
        if order < 3:
            raise StorageError("B-tree order must be at least 3")
        self.key = key
        self.order = order
        self.pages = pages if pages is not None else GLOBAL_PAGES
        self.name = name
        self._owner = object()
        self._root = self._new_node(True)
        self._count = 0

    def _read_node(self, node: _Node) -> None:
        """Account one node access on a search path (page read plus, when
        metric collection is armed, the per-structure counter)."""
        self.pages.read(node.page_id)
        if observe.ENABLED:
            observe.incr(f"{self.name}.node_reads")

    # ------------------------------------------------------------ queries

    def __len__(self) -> int:
        return self._count

    @property
    def height(self) -> int:
        h = 1
        node = self._root
        while not node.leaf:
            h += 1
            node = node.children[0]
        return h

    def scan(self) -> Iterator:
        """All tuples in key order — the ``feed`` path.

        A depth-first walk whose stack holds, per level, an iterator over
        the children still to visit, so moving between sibling leaves costs
        no more than following a leaf chain did.  Like every scan it reads
        the descent to its first leaf, then each leaf as it enters it.
        """
        leaf, _ = self._seek()
        stack = [iter(node.children[1:]) for node, _ in self._path()]
        self._read_node(leaf)
        yield from leaf.values
        while stack:
            for node in stack[-1]:
                if not node.leaf:
                    stack.append(iter(node.children))
                    break
                self._read_node(node)
                yield from node.values
            else:
                stack.pop()

    def range_search(self, low, high) -> Iterator:
        """All tuples with ``low <= key <= high`` — the ``range`` operator.

        ``BOTTOM_KEY`` / ``TOP_KEY`` open the respective end (halfranges).
        """
        leaf, index = self._seek(low)
        path = None
        while leaf is not None:
            self._read_node(leaf)
            keys = leaf.keys
            while index < len(keys):
                if high is not TOP_KEY and keys[index] > high:
                    return
                yield leaf.values[index]
                index += 1
            path = path or self._path(low)
            leaf, index = self._next_leaf(path), 0

    def exact_search(self, key) -> Iterator:
        """All tuples whose key equals ``key``."""
        return self.range_search(key, key)

    def prefix_search(self, prefix: tuple) -> Iterator:
        """All tuples whose (composite) key starts with ``prefix``.

        For multi-attribute B-trees (keys are tuples, ordered
        lexicographically — the structure the paper mentions in Section 4:
        "ordered first by one attribute, then for equal values by a second
        attribute"), this answers queries that fix a *prefix* of the
        indexing attributes.  An empty prefix scans everything.
        """
        return self.range_search(_PrefixBound(prefix), _PrefixBound(prefix, above=True))

    def _seek(self, key=BOTTOM_KEY) -> tuple[_Node, int]:
        """The first leaf position with stored key >= ``key``, reading every
        node on the descent."""
        node, bottom = self._root, key is BOTTOM_KEY
        self._read_node(node)
        while not node.leaf:
            node = node.children[0 if bottom else bisect_left(node.keys, key)]
            self._read_node(node)
        return node, 0 if bottom else bisect_left(node.keys, key)

    def _path(self, key=BOTTOM_KEY) -> list:
        """The cursor at :meth:`_seek`'s leaf: the parent stack of ``(node,
        child index)`` pairs from the root.  A range search builds it only
        when it leaves its first leaf, so a point search never pays for it;
        retracing a descent whose pages were already read reads nothing."""
        path, node = [], self._root
        while not node.leaf:
            index = 0 if key is BOTTOM_KEY else bisect_left(node.keys, key)
            path.append((node, index))
            node = node.children[index]
        return path

    @staticmethod
    def _next_leaf(path: list) -> Optional[_Node]:
        """Move a cursor's parent stack to the following leaf (``None``
        past the last).  Internal nodes between leaves are not page reads,
        just as following a leaf chain read none."""
        while path:
            parent, index = path.pop()
            if index + 1 < len(parent.children):
                path.append((parent, index + 1))
                node = parent.children[index + 1]
                while not node.leaf:
                    path.append((node, 0))
                    node = node.children[0]
                return node
        return None

    # ----------------------------------------------------------- snapshots

    def clone(self) -> "BTree":
        """An O(1) snapshot: the twin shares the root and, through it, every
        node, tuple, the key function and the page manager.

        Both trees get fresh owner tokens, so neither owns a shared node any
        more: each copies a node on its first write to it (path copying,
        :meth:`_own`), and later writes between snapshots stay in place.
        Copying is not a page write — a snapshot is a logical view of the
        same disk pages.  Transactions write only the twin (copy-on-write),
        so the original stays the pre-statement value."""
        twin = BTree.__new__(BTree)
        twin.__dict__.update(self.__dict__)
        self._owner = object()
        twin._owner = object()
        return twin

    def _new_node(self, leaf: bool, keys=(), values=(), children=()) -> _Node:
        """A node on a freshly allocated page, owned by this tree."""
        return _Node(leaf, self.pages.allocate(), self._owner, keys, values, children)

    def _own(self, node: _Node) -> _Node:
        """``node`` itself if this tree owns it, else an owned copy."""
        if node.owner is self._owner:
            return node
        return _Node(node.leaf, node.page_id, self._owner, node.keys, node.values, node.children)

    def _own_child(self, parent: _Node, index: int) -> _Node:
        """Own ``parent``'s ``index``-th child, re-linking the owned parent."""
        child = parent.children[index]
        if child.owner is not self._owner:
            child = parent.children[index] = self._own(child)
        return child

    def _own_path(self, key, path: Optional[list] = None) -> _Node:
        """Own every node down to a cursor's leaf: the one at ``path``, else
        the one :meth:`_seek` finds for ``key``.  Returns the owned leaf."""
        node = self._root = self._own(self._root)
        depth = 0
        while not node.leaf:
            index = path[depth][1] if path else bisect_left(node.keys, key)
            node = self._own_child(node, index)
            depth += 1
        return node

    # ------------------------------------------------------------ insertion

    def insert(self, value) -> None:
        """Insert one tuple (the ``insert`` update function)."""
        fault_point("btree.insert")
        key = self.key(value)
        self._root = self._own(self._root)
        split = self._insert(self._root, key, value)
        if split is not None:
            separator, right = split
            self._root = self._new_node(False, [separator], (), [self._root, right])
            self.pages.write(self._root.page_id)
        self._count += 1

    def stream_insert(self, values: Iterable) -> None:
        """Insert every tuple of a stream (the ``stream_insert`` operator)."""
        for value in values:
            self.insert(value)

    def bulk_load(self, values: Iterable) -> None:
        """Build the tree bottom-up from (not necessarily sorted) tuples.

        Only valid on an empty tree.  The classical bulk-loading algorithm:
        sort once, pack leaves left to right at ~2/3 fill, then build each
        internal level from the one below — O(n log n) for the sort plus one
        write per page, instead of one descent per tuple.
        """
        if self._count:
            raise StorageError("bulk_load requires an empty B-tree")
        items = sorted(((self.key(v), v) for v in values), key=lambda kv: kv[0])
        if not items:
            return
        fill = max(2, (2 * self.order) // 3)
        # Leaf level.
        self.pages.free(self._root.page_id)
        leaves: list[_Node] = []
        for start in range(0, len(items), fill):
            chunk = items[start : start + fill]
            leaf = self._new_node(True, (k for k, _ in chunk), (v for _, v in chunk))
            leaves.append(leaf)
            self.pages.write(leaf.page_id)
        # A final underfull leaf merges with or rebalances against its left
        # sibling: total <= order fits one leaf; otherwise an even split
        # leaves both at >= order/2.
        if len(leaves) > 1 and len(leaves[-1].keys) < self._min_keys():
            last = leaves.pop()
            prev = leaves[-1]
            keys = prev.keys + last.keys
            vals = prev.values + last.values
            self.pages.free(last.page_id)
            if len(keys) <= self.order:
                prev.keys, prev.values = keys, vals
                self.pages.write(prev.page_id)
            else:
                half = len(keys) // 2
                prev.keys, prev.values = keys[:half], vals[:half]
                fresh = self._new_node(True, keys[half:], vals[half:])
                leaves.append(fresh)
                self.pages.write(prev.page_id)
                self.pages.write(fresh.page_id)
        # Internal levels.
        level: list[_Node] = leaves
        while len(level) > 1:
            parents: list[_Node] = []
            group = self.order  # children per internal node (keys = group-1)
            for start in range(0, len(level), group):
                children = level[start : start + group]
                keys = (self._subtree_min(c) for c in children[1:])
                node = self._new_node(False, keys, (), children)
                parents.append(node)
                self.pages.write(node.page_id)
            # Keep the last internal node legal: merge with the previous one
            # if everything fits, otherwise split the children evenly.
            if len(parents) > 1 and len(parents[-1].children) < self._min_keys() + 1:
                last = parents.pop()
                prev = parents[-1]
                children = prev.children + last.children
                self.pages.free(last.page_id)
                if len(children) <= self.order + 1:
                    prev.children = children
                    prev.keys = [self._subtree_min(c) for c in children[1:]]
                    self.pages.write(prev.page_id)
                else:
                    half = len(children) // 2
                    prev.children = children[:half]
                    prev.keys = [self._subtree_min(c) for c in prev.children[1:]]
                    keys = (self._subtree_min(c) for c in children[half + 1 :])
                    fresh = self._new_node(False, keys, (), children[half:])
                    parents.append(fresh)
                    self.pages.write(prev.page_id)
                    self.pages.write(fresh.page_id)
            level = parents
        self._root = level[0]
        self._count = len(items)

    def _subtree_min(self, node: _Node):
        while not node.leaf:
            node = node.children[0]
        return node.keys[0]

    def _insert(self, node: _Node, key, value):
        if node.leaf:
            index = bisect_right(node.keys, key)
            node.keys.insert(index, key)
            node.values.insert(index, value)
            self.pages.write(node.page_id)
            if len(node.keys) > self.order:
                return self._split_leaf(node)
            return None
        index = bisect_left(node.keys, key)
        child = node.children[index]
        if child.owner is not self._owner:  # _own_child, inlined on the hot path
            child = node.children[index] = self._own(child)
        split = self._insert(child, key, value)
        if split is None:
            return None
        separator, right = split
        node.keys.insert(index, separator)
        node.children.insert(index + 1, right)
        self.pages.write(node.page_id)
        if len(node.keys) > self.order:
            return self._split_internal(node)
        return None

    def _split_leaf(self, node: _Node):
        mid = len(node.keys) // 2
        right = self._new_node(True, node.keys[mid:], node.values[mid:])
        del node.keys[mid:]
        del node.values[mid:]
        self.pages.write(node.page_id)
        self.pages.write(right.page_id)
        return right.keys[0], right

    def _split_internal(self, node: _Node):
        mid = len(node.keys) // 2
        separator = node.keys[mid]
        right = self._new_node(False, node.keys[mid + 1 :], (), node.children[mid + 1 :])
        del node.keys[mid:]
        del node.children[mid + 1 :]
        self.pages.write(node.page_id)
        self.pages.write(right.page_id)
        return separator, right

    # ------------------------------------------------------------- deletion

    def delete(self, value) -> bool:
        """Delete one tuple (found by key, then by equality).

        Returns whether a matching tuple was present.
        """
        fault_point("btree.delete")
        root = self._delete(self._root, self.key(value), value)
        if root is None:
            return False
        self._count -= 1
        self._root = root
        if not root.leaf and len(root.children) == 1:
            self._root = root.children[0]
            self.pages.free(root.page_id)
        return True

    def delete_tuples(self, values: Iterable) -> int:
        """Delete every tuple of a stream (the B-tree ``delete`` operator).

        The stream is normally produced by a search on this same tree; it is
        materialized first so deletion does not disturb the scan — this
        stands in for the paper's "position still available / tuple fixed on
        a buffer page" stream-connection assumption.
        """
        deleted = 0
        for value in list(values):
            if self.delete(value):
                deleted += 1
        return deleted

    def _min_keys(self) -> int:
        return self.order // 2

    def _delete(self, node: _Node, key, value) -> Optional[_Node]:
        """Remove ``value`` from the subtree at ``node``.  Returns the owned
        subtree root if it was found, else ``None`` — so only the path to
        the removed tuple is copied, and a miss copies nothing."""
        self.pages.read(node.page_id)
        index = bisect_left(node.keys, key)
        if node.leaf:
            while index < len(node.keys) and node.keys[index] == key:
                if node.values[index] == value:
                    node = self._own(node)
                    del node.keys[index]
                    del node.values[index]
                    self.pages.write(node.page_id)
                    return node
                index += 1
            return None
        # Duplicates may straddle children; try successive children whose
        # range can still contain the key.
        while index < len(node.children):
            child = self._delete(node.children[index], key, value)
            if child is not None:
                node = self._own(node)
                node.children[index] = child
                self._rebalance(node, index)
                return node
            if index >= len(node.keys) or node.keys[index] != key:
                return None
            index += 1
        return None

    def _rebalance(self, parent: _Node, index: int) -> None:
        child = parent.children[index]
        min_keys = self._min_keys()
        if len(child.keys) >= min_keys:
            return
        left = parent.children[index - 1] if index > 0 else None
        right = parent.children[index + 1] if index + 1 < len(parent.children) else None
        if left is not None and len(left.keys) > min_keys:
            self._borrow_from_left(parent, index, self._own_child(parent, index - 1), child)
        elif right is not None and len(right.keys) > min_keys:
            self._borrow_from_right(parent, index, child, self._own_child(parent, index + 1))
        elif left is not None:
            self._merge(parent, index - 1, self._own_child(parent, index - 1), child)
        elif right is not None:
            # ``right`` is only read and dropped, so it is not copied.
            self._merge(parent, index, child, right)

    def _borrow_from_left(self, parent, index, left, child) -> None:
        if child.leaf:
            child.keys.insert(0, left.keys.pop())
            child.values.insert(0, left.values.pop())
            parent.keys[index - 1] = child.keys[0]
        else:
            child.keys.insert(0, parent.keys[index - 1])
            parent.keys[index - 1] = left.keys.pop()
            child.children.insert(0, left.children.pop())
        self.pages.write(parent.page_id)
        self.pages.write(left.page_id)
        self.pages.write(child.page_id)

    def _borrow_from_right(self, parent, index, child, right) -> None:
        if child.leaf:
            child.keys.append(right.keys.pop(0))
            child.values.append(right.values.pop(0))
            parent.keys[index] = right.keys[0]
        else:
            child.keys.append(parent.keys[index])
            parent.keys[index] = right.keys.pop(0)
            child.children.append(right.children.pop(0))
        self.pages.write(parent.page_id)
        self.pages.write(right.page_id)
        self.pages.write(child.page_id)

    def _merge(self, parent, left_index, left, right) -> None:
        if left.leaf:
            left.keys.extend(right.keys)
            left.values.extend(right.values)
        else:
            left.keys.append(parent.keys[left_index])
            left.keys.extend(right.keys)
            left.children.extend(right.children)
        del parent.keys[left_index]
        del parent.children[left_index + 1]
        self.pages.free(right.page_id)
        self.pages.write(parent.page_id)
        self.pages.write(left.page_id)

    # ---------------------------------------------------------------- updates

    def modify_tuples(self, values: Iterable, fn: Callable) -> int:
        """Modify tuples in situ (the B-tree ``modify`` operator).

        ``fn`` maps a stream of tuples to a stream of modified tuples (as in
        the paper, where it is composed of stream operators like
        ``replace``).  Keys must be unchanged; use :meth:`re_insert_tuples`
        for key updates.
        """
        originals = list(values)
        modified = list(fn(iter(originals)))
        if len(modified) != len(originals):
            raise StorageError("modify function changed the number of tuples")
        changed = 0
        for old, new in zip(originals, modified):
            fault_point("btree.modify")
            old_key = self.key(old)
            new_key = self.key(new)
            if old_key != new_key:
                raise StorageError(
                    "modify must not change the key; use re_insert"
                )
            if self._replace_in_situ(old_key, old, new):
                changed += 1
            else:
                raise StorageError("tuple to modify not found in B-tree")
        return changed

    def re_insert_tuples(self, values: Iterable, fn: Callable) -> int:
        """Key updates: delete each tuple and reinsert its modified version
        (the B-tree ``re_insert`` operator)."""
        originals = list(values)
        modified = list(fn(iter(originals)))
        if len(modified) != len(originals):
            raise StorageError("re_insert function changed the number of tuples")
        for old, new in zip(originals, modified):
            fault_point("btree.re_insert")
            if not self.delete(old):
                raise StorageError("tuple to re_insert not found in B-tree")
            self.insert(new)
        return len(originals)

    def _replace_in_situ(self, key, old, new) -> bool:
        node, index = self._seek(key)
        path = None
        while node is not None:
            while index < len(node.keys) and node.keys[index] == key:
                if node.values[index] == old:
                    # An owned leaf has an owned path: a node is only ever
                    # linked under an owned parent.
                    if node.owner is not self._owner:
                        node = self._own_path(key, path)
                    node.values[index] = new
                    self.pages.write(node.page_id)
                    return True
                index += 1
            if index < len(node.keys):
                return False
            path = path or self._path(key)
            node, index = self._next_leaf(path), 0
            if node is not None:
                self.pages.read(node.page_id)
        return False

    # --------------------------------------------------------------- checking

    def check_invariants(self) -> None:
        """Raise :class:`StorageError` if any B+-tree invariant is violated.

        Used by the property-based tests: sorted keys, balanced depth, node
        fill factors, separator correctness, the stored count, and that no
        node this tree owns hangs under one it shares.
        """
        leaves: list[_Node] = []
        self._check_node(self._root, depth=0, leaves=leaves, is_root=True)
        depths = {self._leaf_depth(leaf) for leaf in leaves}
        if len(depths) > 1:
            raise StorageError("leaves at differing depths")
        total = sum(len(leaf.keys) for leaf in leaves)
        if total != self._count:
            raise StorageError(f"count mismatch: {total} != {self._count}")
        keys = [key for leaf in leaves for key in leaf.keys]
        if any(keys[i] > keys[i + 1] for i in range(len(keys) - 1)):
            raise StorageError("keys are not globally sorted")

    def _leaf_depth(self, leaf: _Node) -> int:
        """Depth of a leaf found by identity search (invariant checking)."""
        def walk(node: _Node, depth: int):
            if node.leaf:
                return depth if node is leaf else None
            for child in node.children:
                found = walk(child, depth + 1)
                if found is not None:
                    return found
            return None

        depth = walk(self._root, 0)
        if depth is None:
            raise StorageError("leaf not reachable from the root")
        return depth

    def _check_node(self, node: _Node, depth: int, leaves: list, is_root: bool) -> None:
        min_keys = self._min_keys()
        if not is_root and len(node.keys) < min_keys:
            raise StorageError(f"underfull node at depth {depth}")
        if len(node.keys) > self.order:
            raise StorageError(f"overfull node at depth {depth}")
        if any(node.keys[i] > node.keys[i + 1] for i in range(len(node.keys) - 1)):
            raise StorageError("unsorted node keys")
        if node.leaf:
            if len(node.keys) != len(node.values):
                raise StorageError("leaf key/value length mismatch")
            leaves.append(node)
            return
        if len(node.children) != len(node.keys) + 1:
            raise StorageError("internal child count mismatch")
        for i, child in enumerate(node.children):
            if child.owner is self._owner and node.owner is not self._owner:
                raise StorageError("owned node under a shared parent")
            self._check_node(child, depth + 1, leaves, is_root=False)
            child_keys = self._subtree_keys(child)
            if not child_keys:
                continue
            if i > 0 and child_keys[0] < node.keys[i - 1]:
                raise StorageError("separator violated on the left")
            if i < len(node.keys) and child_keys[-1] > node.keys[i]:
                raise StorageError("separator violated on the right")

    def _subtree_keys(self, node: _Node) -> list:
        if node.leaf:
            return node.keys
        out: list = []
        for child in node.children:
            out.extend(self._subtree_keys(child))
        return out


class _PrefixBound:
    """A bound that sorts immediately before (``above``: after) every
    composite key sharing the given prefix (used by
    :meth:`BTree.prefix_search`).

    Comparisons with stored tuple keys go through the reflected operators:
    ``stored < bound`` falls back to ``bound.__gt__(stored)``.
    """

    __slots__ = ("prefix", "above")

    def __init__(self, prefix: tuple, above: bool = False):
        self.prefix = tuple(prefix)
        self.above = above

    def _head(self, other) -> tuple:
        if isinstance(other, tuple):
            return other[: len(self.prefix)]
        return (other,)[: len(self.prefix)]

    def __lt__(self, other) -> bool:
        # bound < stored  <=>  prefix <= stored-head (above: prefix < head)
        head = self._head(other)
        return self.prefix < head if self.above else self.prefix <= head

    def __gt__(self, other) -> bool:
        # bound > stored  <=>  stored-head < prefix (above: head <= prefix)
        head = self._head(other)
        return head <= self.prefix if self.above else head < self.prefix

    def __le__(self, other) -> bool:
        return self.__lt__(other)

    def __ge__(self, other) -> bool:
        return self.__gt__(other)

    def __eq__(self, other) -> bool:
        return False

    def __repr__(self) -> str:
        return f"_PrefixBound({self.prefix!r}, above={self.above})"
