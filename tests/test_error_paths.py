"""Error paths: each failure mode raises its documented class and — because
statements run transactionally — leaves the database untouched."""

import pytest

from repro.core.types import TypeApp, rel_type, tuple_type
from repro.errors import CatalogError, StatementError, UpdateError
from repro.system import build_relational_system
from repro.testing import database_fingerprint

INT = TypeApp("int")


@pytest.fixture()
def system():
    s = build_relational_system()
    s.run(
        """
type t = tuple(<(a, int)>)
create r : rel(t)
create r_rep : btree(t, a, int)
update rep := insert(rep, r, r_rep)
update r := insert(r, mktuple[<(a, 1)>])
"""
    )
    return s


class TestCatalogErrors:
    def test_duplicate_create(self, system):
        before = database_fingerprint(system.database)
        with pytest.raises(CatalogError, match="already exists"):
            system.run_one("create r : rel(t)")
        assert database_fingerprint(system.database) == before

    def test_drop_of_missing_object(self, system):
        before = database_fingerprint(system.database)
        with pytest.raises(CatalogError, match="no such object"):
            system.run_one("delete ghost")
        assert database_fingerprint(system.database) == before

    def test_update_on_undefined_object(self, system):
        before = database_fingerprint(system.database)
        with pytest.raises(CatalogError, match="no such object") as info:
            system.run_one("update ghost := insert(ghost, mktuple[<(a, 1)>])")
        assert isinstance(info.value, StatementError)
        assert database_fingerprint(system.database) == before

    def test_errors_are_statement_errors_with_phase(self, system):
        with pytest.raises(CatalogError) as info:
            system.run_one("delete ghost")
        assert isinstance(info.value, StatementError)
        assert info.value.phase == "execute"


class TestLevelMixing:
    def test_mixed_model_and_rep_type_rejected(self, system):
        mixed = rel_type(
            tuple_type([("a", TypeApp("srel", [tuple_type([("b", INT)])]))])
        )
        with pytest.raises(CatalogError, match="mixes model and representation"):
            system.database.level_of_type(mixed)

    def test_create_with_mixed_type_rejected_and_rolled_back(self, system):
        """Through the surface syntax the kind system catches the mix even
        earlier (a rep structure is not of kind DATA); either way the
        statement fails and leaves no trace."""
        before = database_fingerprint(system.database)
        with pytest.raises(StatementError) as info:
            system.run_one(
                "create bad : rel(tuple(<(a, srel(tuple(<(b, int)>)))>))"
            )
        assert info.value.phase == "typecheck"
        assert not system.database.has_object("bad")
        assert database_fingerprint(system.database) == before

    def test_pure_levels_classify(self, system):
        db = system.database
        assert db.level_of_type(rel_type(tuple_type([("a", INT)]))) == "model"
        assert (
            db.level_of_type(TypeApp("srel", [tuple_type([("a", INT)])])) == "rep"
        )
        assert db.level_of_type(INT) == "hybrid"


class TestExplainErrors:
    def test_explain_rejects_non_query_statements(self, system):
        for source in ("delete r", "create z : int", "update r := insert(r, 1)"):
            with pytest.raises(UpdateError, match="only accepts query"):
                system.explain(source)

    def test_explain_still_accepts_queries(self, system):
        info = system.explain("r select[a > 0]")
        assert info["level"] == "model"
        info = system.explain("query r select[a > 0]")
        assert info["level"] == "model"


class TestMatchFailureReport:
    def test_deepest_failure_leads_and_candidates_take_a_line_each(self, system):
        """A typo inside an operand: the report opens with the one fact that
        matters, then lists every functionality of the operator once."""
        from repro.errors import TypeCheckError

        with pytest.raises(StatementError) as info:
            system.run_one("update r := insert(r, mktupel(3))")
        assert info.value.phase == "typecheck"
        cause = info.value.__cause__
        assert isinstance(cause, TypeCheckError)
        lines = str(cause).splitlines()
        assert lines[0] == "unknown operator: mktupel"
        assert lines[1] == "no functionality of insert matches:"
        candidates = lines[2:]
        assert len(candidates) == len(system.database.sos.operators("insert"))
        assert candidates[0].endswith("operand 2: unknown operator: mktupel")
        assert "rel x tuple ~> rel  insert" in candidates[0]
        assert sum("mktupel" in line for line in candidates) == 1
