"""Rule conditions in isolation: catalog lookups, type tests, backtracking."""

import pytest

from repro.core.patterns import PVar
from repro.core.terms import Apply, Var
from repro.core.types import Sym, TypeApp, tuple_type
from repro.optimizer.conditions import (
    CatalogCondition,
    FunCondition,
    StatsCondition,
    TypeCondition,
    solve_conditions,
)
from repro.optimizer.termmatch import MatchState

INT = TypeApp("int")
CITY = tuple_type([("pop", INT)])


@pytest.fixture()
def db(system):
    system.run(
        """
type city = tuple(<(pop, int)>)
create cities : rel(city)
create rep1 : srel(city)
create rep2 : btree(city, pop, int)
update rep := insert(rep, cities, rep1)
update rep := insert(rep, cities, rep2)
"""
    )
    return system.database


def _state_with_rel(db):
    state = MatchState()
    state.vbinds["rel1"] = Var("cities", db.type_of("cities"))
    return state


class TestCatalogCondition:
    def test_enumerates_all_representations(self, db):
        condition = CatalogCondition("rep", ("rel1", "r"))
        solutions = list(condition.solutions(_state_with_rel(db), db))
        assert len(solutions) == 2
        names = {s.vbinds["r"].name for s in solutions}
        assert names == {"rep1", "rep2"}

    def test_bound_variables_constrain(self, db):
        state = _state_with_rel(db)
        state.vbinds["r"] = Var("rep2", db.type_of("rep2"))
        condition = CatalogCondition("rep", ("rel1", "r"))
        solutions = list(condition.solutions(state, db))
        assert len(solutions) == 1

    def test_missing_catalog_yields_nothing(self, db):
        condition = CatalogCondition("nope", ("rel1", "r"))
        assert list(condition.solutions(_state_with_rel(db), db)) == []

    def test_arity_mismatch_yields_nothing(self, db):
        """rep is a 2-column catalog; a 3-variable lookup cannot match."""
        condition = CatalogCondition("rep", ("rel1", "r", "extra"))
        assert list(condition.solutions(_state_with_rel(db), db)) == []

    def test_variable_bound_to_complex_subterm_fails(self, db):
        """A variable bound to a nested expression (not an object name)
        must fail the lookup rather than act as a wildcard."""
        state = _state_with_rel(db)
        state.vbinds["rel1"] = Apply("feed", (Var("cities"),))
        condition = CatalogCondition("rep", ("rel1", "r"))
        assert list(condition.solutions(state, db)) == []

    def test_bound_objects_get_types(self, db):
        condition = CatalogCondition("rep", ("rel1", "r"))
        for solution in condition.solutions(_state_with_rel(db), db):
            assert solution.vbinds["r"].type is not None


class TestTypeCondition:
    def test_direct_match_binds_pattern_vars(self, db):
        state = _state_with_rel(db)
        state.vbinds["r"] = _obj(db, "rep2")
        condition = TypeCondition(
            "r", TypeApp("btree", (PVar("t"), PVar("a"), PVar("d")))
        )
        (solution,) = list(condition.solutions(state, db))
        assert solution.tbinds["a"] == Sym("pop")
        assert solution.tbinds["d"] == INT

    def test_subtype_match(self, db):
        state = _state_with_rel(db)
        state.vbinds["r"] = _obj(db, "rep2")
        condition = TypeCondition(
            "r", TypeApp("relrep", (PVar("t"),)), subtype_ok=True
        )
        assert len(list(condition.solutions(state, db))) == 1

    def test_no_subtype_without_flag(self, db):
        state = _state_with_rel(db)
        state.vbinds["r"] = _obj(db, "rep2")
        condition = TypeCondition("r", TypeApp("relrep", (PVar("t"),)))
        assert list(condition.solutions(state, db)) == []

    def test_unbound_variable_yields_nothing(self, db):
        condition = TypeCondition("ghost", TypeApp("relrep", (PVar("t"),)))
        assert list(condition.solutions(MatchState(), db)) == []


class TestFunCondition:
    def test_boolean_filter(self, db):
        yes = FunCondition(lambda state, db: True)
        no = FunCondition(lambda state, db: False)
        state = MatchState()
        assert list(yes.solutions(state, db)) == [state]
        assert list(no.solutions(state, db)) == []

    def test_generator_form(self, db):
        def expand(state, db):
            for i in range(3):
                new = state.copy()
                new.tbinds["i"] = Sym(str(i))
                yield new

        condition = FunCondition(expand)
        assert len(list(condition.solutions(MatchState(), db))) == 3


class TestStatsCondition:
    def test_unbound_variable_yields_nothing(self, db):
        condition = StatsCondition("ghost", lambda entry: True)
        assert list(condition.solutions(MatchState(), db)) == []

    def test_missing_statistics_pass_none_to_predicate(self, db):
        seen = []
        condition = StatsCondition("rel1", seen.append)
        list(condition.solutions(_state_with_rel(db), db))
        assert seen == [None]

    def test_predicate_filters(self, db):
        accept = StatsCondition("rel1", lambda entry: entry is None)
        reject = StatsCondition("rel1", lambda entry: entry is not None)
        state = _state_with_rel(db)
        assert len(list(accept.solutions(state, db))) == 1
        assert list(reject.solutions(state, db)) == []


class TestBacktracking:
    def test_later_conditions_filter_earlier_solutions(self, db):
        """rep(rel1, r) has two solutions; the btree type test keeps one."""
        conditions = (
            CatalogCondition("rep", ("rel1", "r")),
            TypeCondition("r", TypeApp("btree", (PVar("t"), PVar("a"), PVar("d")))),
        )
        solutions = list(solve_conditions(conditions, _state_with_rel(db), db))
        assert len(solutions) == 1
        assert solutions[0].vbinds["r"].name == "rep2"

    def test_empty_condition_list(self, db):
        state = MatchState()
        assert list(solve_conditions((), state, db)) == [state]


def _obj(db, name):
    return Var(name, db.type_of(name))
