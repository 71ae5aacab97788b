"""Transactional statement execution over a :class:`Database`.

The paper's Section 6 session model is a sequence of statements whose
optimizer-driven translation mutates catalog state and representation
objects.  An error mid-statement (for example after an update function has
already mutated a B-tree in place) must not strand the database in a state
no paper example can reach — so statements execute inside a
:class:`Transaction`:

* at transaction start (and at every :class:`Savepoint`), the catalog
  dictionaries (``aliases``, ``objects``) are snapshotted — shallow copies,
  a few pointer copies per statement;
* before an update statement evaluates, the values of every object its term
  references are *protected*: snapshotted via the storage structures'
  ``clone()``, which costs no simulated I/O.  A B-tree snapshot is O(1): the
  tree is persistent by path copying, so the clone shares every node and a
  later write copies only the nodes on its path.  The LSD-tree and TID
  relation still copy their structure, O(n) in their size;
* on rollback, catalog dictionaries are restored **in place** (the parser
  and typechecker hold live references to them) and protected values are
  restored by swapping the pristine clone's state back into the *original*
  value instance — preserving object identity, so cross-references between
  values (a secondary index holding its heap relation, for example) survive
  the rollback.

The SOS system wraps every statement in
:func:`statement_transaction`; ``run(source, atomic=True)`` wraps a whole
program in one transaction with a savepoint per statement.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator, Optional

from repro.core.terms import Term, free_names

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.catalog.database import Database


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


def _slots_of(cls: type) -> list[str]:
    slots: list[str] = []
    for klass in cls.__mro__:
        declared = getattr(klass, "__slots__", ())
        if isinstance(declared, str):
            declared = (declared,)
        slots.extend(declared)
    return slots


def restore_value(original, clone) -> None:
    """Swap the snapshot's state back into the original value instance.

    In-place restoration (rather than rebinding the clone) keeps every
    alias of the original value valid — e.g. a secondary index that holds a
    reference to its heap relation.
    """
    if original is clone or original is None:
        return
    if isinstance(original, list):
        original[:] = clone
        return
    d = getattr(original, "__dict__", None)
    if d is not None:
        d.clear()
        d.update(clone.__dict__)
        return
    for slot in _slots_of(type(original)):
        try:
            setattr(original, slot, getattr(clone, slot))
        except AttributeError:
            pass


# ---------------------------------------------------------------------------
# Referenced-object discovery
# ---------------------------------------------------------------------------


def referenced_objects(term: Term, database: "Database") -> set[str]:
    """Names of database objects a typechecked term references.

    Lambda-bound names shadow objects (same rule as the system's level
    classification).
    """
    return {n.name for n in free_names(term) if database.has_object(n.name)}


# ---------------------------------------------------------------------------
# Transactions
# ---------------------------------------------------------------------------


class Savepoint:
    """A point a transaction can roll back to.

    Holds shallow copies of the catalog dictionaries (``aliases``,
    ``objects``, statistics entries — all copy-on-write, so shallow is
    sound) as of its creation, plus an undo log of ``name -> (object,
    original value, pristine clone)`` for values protected after its
    creation.
    """

    __slots__ = ("aliases", "objects", "stats", "undo")

    def __init__(self, aliases: dict, objects: dict, stats: Optional[dict] = None):
        self.aliases = aliases
        self.objects = objects
        self.stats = stats if stats is not None else {}
        self.undo: dict[str, tuple] = {}


class Transaction:
    """All-or-nothing execution of one or more statements over a database.

    States: ``active`` → ``committed`` | ``rolled-back``.  A transaction is
    not reusable after leaving ``active``.
    """

    def __init__(self, database: "Database"):
        self.database = database
        self.state = "active"
        self._savepoints: list[Savepoint] = [self._capture()]

    # ----------------------------------------------------------- lifecycle

    @property
    def active(self) -> bool:
        return self.state == "active"

    def _capture(self) -> Savepoint:
        db = self.database
        return Savepoint(
            dict(db.aliases), dict(db.objects), db.stats.snapshot()
        )

    def savepoint(self) -> Savepoint:
        """Mark the current state; :meth:`rollback` can return to it."""
        self._require_active()
        sp = self._capture()
        self._savepoints.append(sp)
        return sp

    def _require_active(self) -> None:
        if self.state != "active":
            raise RuntimeError(f"transaction is {self.state}")

    # ---------------------------------------------------------- protection

    def protect(self, *names: str) -> None:
        """Snapshot the values of ``names`` (once per savepoint) so a later
        rollback can restore them.  Must be called *before* any in-place
        mutation of the statement being executed — the executors protect
        every object an update term references before evaluating it."""
        self._require_active()
        sp = self._savepoints[-1]
        for name in names:
            if name in sp.undo:
                continue
            obj = self.database.objects.get(name)
            if obj is None:
                continue
            sp.undo[name] = (obj, obj.value, clone_value(obj.value))

    # ------------------------------------------------------------- outcome

    def commit(self) -> None:
        """Keep all changes; the undo logs are dropped."""
        self._require_active()
        self.state = "committed"
        self._savepoints.clear()

    def rollback(self, savepoint: Optional[Savepoint] = None) -> None:
        """Undo every change since ``savepoint`` (or since the transaction
        began).  Rolling back to a savepoint keeps the transaction active;
        a full rollback ends it."""
        self._require_active()
        if savepoint is None:
            index = 0
        else:
            try:
                index = self._savepoints.index(savepoint)
            except ValueError:
                raise RuntimeError("savepoint does not belong to this transaction")
        # Newest first, so the oldest (pre-statement) snapshot wins.
        for sp in reversed(self._savepoints[index:]):
            for obj, original, clone in sp.undo.values():
                if original is not None and original is not clone:
                    restore_value(original, clone)
                obj.value = original
        target = self._savepoints[index]
        db = self.database
        db.aliases.clear()
        db.aliases.update(target.aliases)
        db.objects.clear()
        db.objects.update(target.objects)
        db.stats.restore(target.stats)
        del self._savepoints[index + 1 :]
        target.undo.clear()
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
def statement_transaction(database: "Database") -> Iterator[Transaction]:
    """The per-statement atomicity scope used by the executors.

    Outside any program transaction this opens (and commits / rolls back) a
    fresh transaction.  Inside one — ``run(source, atomic=True)`` — it
    creates a savepoint, so a failing statement rolls back to the previous
    statement boundary and the error decides the fate of the whole program.

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
        return
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


@contextmanager
def program_transaction(database: "Database") -> Iterator[Transaction]:
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
