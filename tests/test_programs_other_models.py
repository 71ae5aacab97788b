"""Whole programs against the nested relational and complex object models —
the generic statement pipeline really is model-independent."""

import pytest

from repro.catalog import Database
from repro.models.complex_objects import complex_object_model
from repro.models.nested import nested_relational_model
from repro.system import SOSSystem


@pytest.fixture()
def nested_interp():
    sos, algebra = nested_relational_model()
    return SOSSystem(Database(sos, algebra))


@pytest.fixture()
def co_interp():
    sos, algebra = complex_object_model()
    return SOSSystem(Database(sos, algebra))


class TestNestedPrograms:
    def test_nested_schema_and_select(self, nested_interp):
        nested_interp.run(
            """
type author = tuple(<(name, string), (country, string)>)
type book = tuple(<(title, string), (authors, rel(author)), (year, int)>)
create books : rel(book)
"""
        )
        # fill via the Python API (tuples contain nested relation values)
        from repro.core.algebra import Relation, TupleValue
        from repro.core.types import attr_type, rel_type

        db = nested_interp.database
        book_t = db.aliases["book"]
        author_t = db.aliases["author"]
        authors_rel_t = attr_type(book_t, "authors")
        inner = Relation(authors_rel_t, [TupleValue(author_t, ("Gueting", "DE"))])
        books = Relation(rel_type(book_t), [TupleValue(book_t, ("SOS", inner, 1993))])
        db.set_value("books", books)

        result = nested_interp.run_one("query books select[year = 1993]")
        assert len(result.value.rows) == 1

    def test_unnest_in_concrete_syntax(self, nested_interp):
        self.test_nested_schema_and_select(nested_interp)
        result = nested_interp.run_one("query books unnest[authors]")
        row = result.value.rows[0]
        assert row.attr("name") == "Gueting"
        assert row.attr("title") == "SOS"

    def test_nest_in_concrete_syntax(self, nested_interp):
        self.test_nested_schema_and_select(nested_interp)
        result = nested_interp.run_one(
            "query books unnest[authors] nest[<name, country>, authors]"
        )
        assert len(result.value.rows) == 1
        assert len(result.value.rows[0].attr("authors")) == 1


class TestComplexObjectPrograms:
    def test_sets_in_concrete_syntax(self, co_interp):
        # mktuple is not part of the complex object model; build via API.
        co_interp.run(
            """
type person = tuple(<(name, string), (children, set(string))>)
create p : person
"""
        )
        from repro.core.algebra import TupleValue
        from repro.core.types import TypeApp
        from repro.models.complex_objects import ObjectSet

        db = co_interp.database
        person_t = db.aliases["person"]
        children = ObjectSet(TypeApp("set", (TypeApp("string"),)), ["kim", "lee"])
        db.set_value("p", TupleValue(person_t, ("ann", children)))

        assert co_interp.run_one("query card(p children)").value == 2
        assert co_interp.run_one('query "kim" member p children').value is True
        filtered = co_interp.run_one('query p children filter_set[fun (c: string) c != "kim"]')
        assert sorted(filtered.value) == ["lee"]

    def test_mkset_literal(self, co_interp):
        result = co_interp.run_one("query card(mkset[<1, 2, 2, 3>])")
        assert result.value == 3
