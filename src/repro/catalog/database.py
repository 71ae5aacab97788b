"""The database: named objects, named types, and level classification.

A :class:`Database` holds the state behind a running system: type aliases
(``type city = ...``), objects (``create cities : rel(city)``) and their
values.  It wires the typechecker's object lookup and the evaluator's object
resolution, and classifies types into *model*, *representation* and *hybrid*
levels (paper Section 6) by the constructors they use.
"""

from __future__ import annotations

from typing import Optional

from repro.core.algebra import Evaluator, ResourceLimits, SecondOrderAlgebra
from repro.core.sos import SecondOrderSignature
from repro.core.typecheck import TypeChecker
from repro.core.types import Type, TypeApp, format_type, walk_type
from repro.errors import CatalogError, ExecutionError
from repro.stats.model import StatsCatalog
from repro.testing.faults import fault_point


class DatabaseObject:
    """A named object: declared type, current value (``None`` = undefined),
    and the level of its type."""

    __slots__ = ("name", "type", "value", "level")

    def __init__(self, name: str, declared: Type, level: str):
        self.name = name
        self.type = declared
        self.value = None
        self.level = level

    def __repr__(self) -> str:
        state = "defined" if self.value is not None else "undefined"
        return f"<{self.name} : {format_type(self.type)} ({state})>"


class Database:
    """Named types and objects over one signature and algebra."""

    def __init__(self, sos: SecondOrderSignature, algebra: SecondOrderAlgebra):
        self.sos = sos
        self.algebra = algebra
        self.aliases: dict[str, Type] = {}
        self.objects: dict[str, DatabaseObject] = {}
        self.typechecker = TypeChecker(sos, object_types=self.type_of)
        self.evaluator = Evaluator(algebra, resolver=self.value_of)
        #: The statistics catalog (``analyze`` statement, cost model,
        #: cardinality feedback).  Empty until the first ``analyze``.
        self.stats = StatsCatalog()
        #: The active :class:`~repro.system.transactions.Transaction`, if any.
        #: Executors install it around statements; ``None`` between them.
        self.transaction = None
        # Function-valued constructor arguments (B-tree/LSD-tree key
        # functions) are typechecked at type formation time.
        sos.type_system.term_typer = self._type_key_function

    def _type_key_function(self, fun, expected_params):
        return self.typechecker._check_fun(
            fun, {}, expected_params=tuple(expected_params)
        )

    # ----------------------------------------------------------------- types

    def define_type(self, name: str, t: Type) -> Type:
        self.sos.type_system.check_type(t)
        self.aliases[name] = t
        return t

    def type_of(self, name: str) -> Optional[Type]:
        obj = self.objects.get(name)
        return obj.type if obj is not None else None

    # --------------------------------------------------------------- objects

    def create(self, name: str, declared: Type) -> DatabaseObject:
        if name in self.objects:
            raise CatalogError(f"object {name} already exists")
        self.sos.type_system.check_type(declared)
        obj = DatabaseObject(name, declared, self.level_of_type(declared))
        self.objects[name] = obj
        return obj

    def drop(self, name: str) -> None:
        if name not in self.objects:
            raise CatalogError(f"no such object: {name}")
        del self.objects[name]
        self.stats.discard(name)

    def value_of(self, name: str):
        obj = self.objects.get(name)
        if obj is None:
            raise ExecutionError(f"no such object: {name}")
        if obj.value is None:
            raise ExecutionError(f"object {name} has an undefined value")
        return obj.value

    def set_value(self, name: str, value) -> None:
        self.protect(name)
        fault_point("database.set_value")
        obj = self.objects.get(name)
        if obj is None:
            raise CatalogError(f"no such object: {name}")
        self.algebra.require_value(value, obj.type)
        obj.value = value
        if self.stats.entries and name in self.stats.entries:
            try:
                self.stats.note_rowcount(name, len(value))
            except TypeError:
                pass  # unsized value: the analyzed count stands

    def has_object(self, name: str) -> bool:
        return name in self.objects

    # ----------------------------------------------------------- transactions

    def protect(self, *names: str) -> None:
        """Give ``names`` private copies in the active transaction (no-op
        when none is running).  ``set_value`` protects its target as a
        safety net; the executors protect every referenced object *before*
        evaluating an update term, so in-place update functions write only
        the copies and a rollback has nothing to undo."""
        txn = self.transaction
        if txn is not None and txn.active:
            txn.protect(*names)

    def set_resource_limits(
        self,
        max_steps: Optional[int] = None,
        max_depth: Optional[int] = None,
    ) -> None:
        """Configure the evaluator's per-statement resource guard; both
        ``None`` removes it."""
        if max_steps is None and max_depth is None:
            self.evaluator.limits = None
        else:
            self.evaluator.limits = ResourceLimits(max_steps, max_depth)

    # ---------------------------------------------------------------- levels

    def level_of_type(self, t: Type) -> str:
        """Classify a type as ``model``, ``rep`` or ``hybrid`` (Section 6).

        A type is hybrid if it uses only hybrid constructors; it is model /
        rep if it additionally uses constructors of exactly that level.
        Mixing model and representation constructors in one type is an
        error — such a type could be neither translated nor executed.
        """
        levels = set()
        for part in walk_type(t):
            if isinstance(part, TypeApp):
                if self.sos.type_system.has_constructor(part.constructor):
                    levels.add(self.sos.type_system.constructor(part.constructor).level)
        if "model" in levels and "rep" in levels:
            raise CatalogError(
                f"type {format_type(t)} mixes model and representation "
                "constructors"
            )
        if "model" in levels:
            return "model"
        if "rep" in levels:
            return "rep"
        return "hybrid"
