"""Rule conditions: catalog lookups and type tests (paper Sections 5/6).

Conditions extend a :class:`~repro.optimizer.termmatch.MatchState` and may
have several solutions (several representations for one relation), so each
condition yields all its solutions and the engine backtracks across the
condition list — "tests whether tuples are present can be written like
PROLOG predicates within an optimization rule".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

from repro.core.patterns import TypePattern, match_type
from repro.core.terms import ObjRef, Var
from repro.core.types import Sym
from repro.optimizer.termmatch import MatchState


class Condition:
    """Interface: yield extended states for each solution."""

    def solutions(self, state: MatchState, db) -> Iterator[MatchState]:  # pragma: no cover
        raise NotImplementedError


@dataclass(slots=True)
class CatalogCondition(Condition):
    """``catalog(v1, ..., vn)`` — rows of a catalog object.

    Already-bound variables constrain the lookup; unbound ones are bound to
    the object names found.  A variable bound to an object name also gets a
    ``Var`` term binding, so it can appear in the rule's right-hand side.
    """

    catalog: str
    variables: tuple[str, ...]

    def solutions(self, state: MatchState, db) -> Iterator[MatchState]:
        obj = db.objects.get(self.catalog)
        if obj is None or obj.value is None:
            return
        catalog = obj.value
        pattern: list[Optional[Sym]] = []
        for var in self.variables:
            name = _bound_name(state, var)
            if name is None and var in state.vbinds:
                # Bound to a complex subterm (e.g. a nested select), not an
                # object name: the catalog cannot vouch for it — the
                # condition fails rather than match any row (``None``), which
                # would silently drop the subterm (soundness!).
                return
            pattern.append(Sym(name) if name is not None else None)
        try:
            rows = list(catalog.lookup(tuple(pattern)))
        except ValueError:
            return
        for row in rows:
            new_state = state.copy()
            ok = True
            for var, component in zip(self.variables, row):
                if _bound_name(state, var) is None:
                    if not isinstance(component, Sym):
                        ok = False
                        break
                    new_state.vbinds[var] = Var(
                        component.name, db.type_of(component.name)
                    )
            if ok:
                yield new_state


@dataclass(slots=True)
class TypeCondition(Condition):
    """``v : pattern`` — the type of the object bound to ``v`` matches the
    pattern, possibly binding further type variables (``lsd2:
    lsdtree(tuple2, f)`` binds the key function ``f``)."""

    variable: str
    pattern: TypePattern
    subtype_ok: bool = False
    """Also accept a supertype match (``rep1 : relrep(tuple1)``)."""

    def solutions(self, state: MatchState, db) -> Iterator[MatchState]:
        term = state.vbinds.get(self.variable)
        if term is None or term.type is None:
            return
        candidates = (
            db.sos.subtypes.supertypes(term.type)  # ``term.type`` first
            if self.subtype_ok
            else (term.type,)
        )
        for candidate in candidates:
            matched = match_type(self.pattern, candidate, state.tbinds)
            if matched is not None:
                new_state = state.copy()
                new_state.tbinds = matched
                yield new_state
                return


@dataclass(slots=True)
class StatsCondition(Condition):
    """``stats(v) |= p`` — consult the statistics catalog entry of the
    object bound to ``v`` (paper Section 6: catalog facts guarding rules,
    here extended to gathered statistics).

    The predicate receives the object's
    :class:`~repro.stats.model.RelationStats` entry — or ``None`` when the
    object was never analyzed, so predicates decide whether missing
    statistics are acceptable.
    """

    variable: str
    predicate: Callable
    description: str = ""

    def solutions(self, state: MatchState, db) -> Iterator[MatchState]:
        name = _bound_name(state, self.variable)
        if name is None:
            return
        stats = getattr(db, "stats", None)
        entry = stats.get(name) if stats is not None else None
        if self.predicate(entry):
            yield state


@dataclass(slots=True)
class FunCondition(Condition):
    """An arbitrary predicate / generator over the match state.

    ``fn(state, db)`` may return a boolean (filter) or an iterator of new
    states (generator).  Used for conditions the declarative forms do not
    cover, e.g. "the modified attribute is (not) the B-tree key".
    """

    fn: Callable
    description: str = ""

    def solutions(self, state: MatchState, db) -> Iterator[MatchState]:
        result = self.fn(state, db)
        if result is True:
            yield state
        elif result is False or result is None:
            return
        else:
            yield from result


def solve_conditions(
    conditions: Sequence[Condition], state: MatchState, db
) -> Iterator[MatchState]:
    """Backtracking evaluation of a condition list."""
    if not conditions:
        yield state
        return
    first, rest = conditions[0], conditions[1:]
    for new_state in first.solutions(state, db):
        yield from solve_conditions(rest, new_state, db)


def _bound_name(state: MatchState, var: str) -> Optional[str]:
    term = state.vbinds.get(var)
    if isinstance(term, (Var, ObjRef)):
        return term.name
    return None
