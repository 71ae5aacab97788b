"""Transactional statement execution over a :class:`Database`.

The paper's Section 6 session model is a sequence of statements whose
optimizer-driven translation changes catalog state and representation
objects.  An update is an update function whose result is assigned back to
its first argument, so a statement is a move from one catalog value to the
next.  An error mid-statement (for example after an update function has
already changed a B-tree) must not strand the database in a state no paper
example can reach — so statements execute inside a :class:`Transaction`,
and every scope rolls back the same way, by copy-on-write:

* at transaction start (and at every :class:`Savepoint`), the catalog
  dictionaries (``aliases``, ``objects``, statistics entries) are
  snapshotted — shallow copies, a few pointer copies per statement;
* before an update statement evaluates, every object its term references
  is *protected*: :meth:`Transaction.protect` puts a fresh
  :class:`DatabaseObject` whose value is a ``clone()`` of the old one into
  the catalog, so the statement writes the copy and the object the
  savepoint holds is never written.  A B-tree snapshot is O(1): the tree
  is persistent by path copying, so the clone shares every node and a
  later write copies only the nodes on its path.  The LSD-tree and TID
  relation still copy their structure, O(n) in their size;
* on rollback, the catalog dictionaries are restored **in place** (the
  parser and typechecker hold live references to them).  Nothing else is
  undone: the restored dictionaries hold the untouched pre-statement
  objects.

The SOS system wraps every statement in :func:`statement_transaction`;
``run(source, atomic=True)`` wraps a whole program in one transaction with
a savepoint per statement, and so does an MVCC transaction
(:mod:`repro.server.mvcc`), whose write set is :meth:`Savepoint.changes`
from its snapshot to its workspace.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

from repro.catalog.database import Database, DatabaseObject
from repro.core.terms import Term, free_names


# ---------------------------------------------------------------------------
# Value snapshots
# ---------------------------------------------------------------------------


def clone_value(value):
    """A snapshot of an object value.

    Structures that support snapshots expose ``clone()`` (B-trees in O(1),
    LSD-trees, TID/temporary relations, catalogs, relations and graphs by
    structural copy); containers are copied element-wise; everything else (numbers,
    strings, tuples-as-values, closures, geometry) is immutable under the
    algebra's update functions and is shared.
    """
    if value is None:
        return None
    clone = getattr(value, "clone", None)
    if clone is not None:
        return clone()
    if isinstance(value, list):
        return [clone_value(item) for item in value]
    return value


# ---------------------------------------------------------------------------
# Referenced-object discovery
# ---------------------------------------------------------------------------


def referenced_objects(term: Term, database: Database) -> set[str]:
    """Names of database objects a typechecked term references.

    Lambda-bound names shadow objects (same rule as the system's level
    classification).
    """
    return {n.name for n in free_names(term) if database.has_object(n.name)}


# ---------------------------------------------------------------------------
# Transactions
# ---------------------------------------------------------------------------


class Savepoint:
    """A catalog state a transaction can return to.

    Shallow copies of the catalog dictionaries (``aliases``, ``objects``,
    statistics entries).  Shallow is sound because none of their entries is
    written: statistics entries are immutable, and :meth:`Transaction.protect`
    replaces an object before a statement changes its value.
    """

    __slots__ = ("aliases", "objects", "stats")

    def __init__(self, database: Database):
        self.aliases = dict(database.aliases)
        self.objects = dict(database.objects)
        self.stats = database.stats.snapshot()

    def restore(self, database: Database) -> None:
        """Make this the catalog state of ``database``, in place."""
        database.aliases.clear()
        database.aliases.update(self.aliases)
        database.objects.clear()
        database.objects.update(self.objects)
        database.stats.restore(self.stats)

    def changes(self, later: "Savepoint") -> tuple[dict, set, dict, set]:
        """``(object writes, object drops, alias writes, alias drops)`` from
        this state to ``later`` — identity diffs: copy-on-write makes every
        created or written object a fresh instance."""
        obj_writes = {
            name: obj
            for name, obj in later.objects.items()
            if self.objects.get(name) is not obj
        }
        alias_writes = {
            name: t
            for name, t in later.aliases.items()
            if self.aliases.get(name) is not t
        }
        return (
            obj_writes,
            self.objects.keys() - later.objects.keys(),
            alias_writes,
            self.aliases.keys() - later.aliases.keys(),
        )


class Transaction:
    """All-or-nothing execution of one or more statements over a database.

    States: ``active`` → ``committed`` | ``rolled-back``.  A transaction is
    not reusable after leaving ``active``.  ``privatizations`` counts the
    objects of :attr:`snapshot` that :meth:`protect` replaced.
    """

    def __init__(self, database: Database):
        self.database = database
        self.state = "active"
        self.privatizations = 0
        self._savepoints: list[Savepoint] = [Savepoint(database)]

    # ----------------------------------------------------------- lifecycle

    @property
    def active(self) -> bool:
        return self.state == "active"

    @property
    def snapshot(self) -> Savepoint:
        """The catalog state the transaction began from."""
        return self._savepoints[0]

    def savepoint(self) -> Savepoint:
        """Mark the current state; :meth:`rollback` can return to it."""
        self._require_active()
        sp = Savepoint(self.database)
        self._savepoints.append(sp)
        return sp

    def release(self, savepoint: Savepoint) -> None:
        """Forget ``savepoint`` and every later one; their changes stay."""
        del self._savepoints[self._index(savepoint) :]

    def _index(self, savepoint: Savepoint) -> int:
        try:
            return self._savepoints.index(savepoint)
        except ValueError:
            raise RuntimeError(
                "savepoint does not belong to this transaction"
            ) from None

    def _require_active(self) -> None:
        if self.state != "active":
            raise RuntimeError(f"transaction is {self.state}")

    # ---------------------------------------------------------- protection

    def protect(self, *names: str) -> None:
        """Copy-on-write: give each of ``names`` a private object whose
        value is a clone, so the object the newest savepoint holds is never
        written.  At most once per savepoint — an object created or
        privatized since then is already private.  Must be called *before*
        the statement changes a value; the executors protect every object
        an update term references before evaluating it."""
        self._require_active()
        objects = self.database.objects
        newest = self._savepoints[-1].objects
        for name in names:
            obj = objects.get(name)
            if obj is None or newest.get(name) is not obj:
                continue
            private = DatabaseObject(obj.name, obj.type, obj.level)
            private.value = clone_value(obj.value)
            objects[name] = private
            if self.snapshot.objects.get(name) is obj:
                self.privatizations += 1

    # ------------------------------------------------------------- outcome

    def commit(self) -> None:
        """Keep all changes; the savepoints are dropped."""
        self._require_active()
        self.state = "committed"
        self._savepoints.clear()

    def rollback(self, savepoint: Optional[Savepoint] = None) -> None:
        """Return to ``savepoint`` (or to the transaction's start).
        Rolling back to a savepoint keeps the transaction active; a full
        rollback ends it."""
        self._require_active()
        index = 0 if savepoint is None else self._index(savepoint)
        self._savepoints[index].restore(self.database)
        del self._savepoints[index + 1 :]
        if savepoint is None:
            self.state = "rolled-back"

    # -------------------------------------------------------- context mgmt

    def __enter__(self) -> "Transaction":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self.state != "active":
            return
        if exc_type is None:
            self.commit()
        else:
            self.rollback()


# ---------------------------------------------------------------------------
# Statement / program scopes
# ---------------------------------------------------------------------------


@contextmanager
def statement_transaction(database: Database) -> Iterator[Transaction]:
    """The per-statement atomicity scope used by the executors.

    Outside any transaction this opens (and commits / rolls back) a fresh
    one.  Inside one — ``run(source, atomic=True)`` or an MVCC transaction —
    it takes a savepoint, so a failing statement rolls back to the previous
    statement boundary and leaves the outer transaction usable; the
    savepoint is released when the statement ends.

    Also resets the evaluator's resource-guard counters, making the step
    budget and depth limit per-statement bounds.
    """
    database.evaluator.begin_statement()
    outer = database.transaction
    if outer is not None:
        sp = outer.savepoint()
        try:
            yield outer
        except BaseException:
            outer.rollback(sp)
            raise
        finally:
            outer.release(sp)
        return
    with program_transaction(database) as txn:
        yield txn


@contextmanager
def program_transaction(database: Database) -> Iterator[Transaction]:
    """An explicit multi-statement transaction (``run(..., atomic=True)``):
    any statement failure rolls the whole program back."""
    if database.transaction is not None:
        raise RuntimeError("a transaction is already active on this database")
    txn = Transaction(database)
    database.transaction = txn
    try:
        yield txn
    except BaseException:
        txn.rollback()
        raise
    else:
        txn.commit()
    finally:
        database.transaction = None
