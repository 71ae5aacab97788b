"""The nested relational model (experiment E2, paper Section 2.1)."""

import pytest

from repro.core.algebra import Evaluator, Relation, TupleValue, carrier
from repro.core.typecheck import TypeChecker
from repro.core.terms import Apply, ListTerm, Literal, Var
from repro.core.types import (
    ArgList,
    ArgTuple,
    Sym,
    TypeApp,
    format_type,
    rel_type,
    tuple_type,
)
from repro.errors import NoMatchingOperator, TypeFormationError
from repro.models.nested import nested_relational_model, nested_type_system_paper

INT = TypeApp("int")
STRING = TypeApp("string")

AUTHOR = tuple_type([("name", STRING), ("country", STRING)])
AUTHORS_REL = rel_type(AUTHOR)
BOOK = tuple_type(
    [
        ("title", STRING),
        ("authors", AUTHORS_REL),
        ("publisher", STRING),
        ("year", INT),
    ]
)
BOOKS_REL = rel_type(BOOK)


class TestPaperTypeSystem:
    """The verbatim (tuple-less) signature of Section 2.1."""

    def test_books_type_well_formed(self):
        ts = nested_type_system_paper()
        # rel(<(title, string), (authors, rel(<(name, string), (country,
        # string)>)), (publisher, string), (year, int)>)
        authors = TypeApp(
            "rel",
            (
                ArgList(
                    (
                        ArgTuple((Sym("name"), STRING)),
                        ArgTuple((Sym("country"), STRING)),
                    )
                ),
            ),
        )
        books = TypeApp(
            "rel",
            (
                ArgList(
                    (
                        ArgTuple((Sym("title"), STRING)),
                        ArgTuple((Sym("authors"), authors)),
                        ArgTuple((Sym("publisher"), STRING)),
                        ArgTuple((Sym("year"), INT)),
                    )
                ),
            ),
        )
        ts.check_type(books)
        assert ts.kind_of(books).name == "REL"

    def test_attr_must_be_data_or_rel(self):
        ts = nested_type_system_paper()
        bad = TypeApp(
            "rel", (ArgList((ArgTuple((Sym("x"), Sym("not_a_type"))),)),)
        )
        with pytest.raises(TypeFormationError):
            ts.check_type(bad)


@pytest.fixture()
def env():
    sos, algebra = nested_relational_model()
    sos.type_system.check_type(BOOKS_REL)
    author_rows = lambda names: Relation(
        AUTHORS_REL,
        [TupleValue(AUTHOR, (n, c)) for n, c in names],
    )
    books = Relation(
        BOOKS_REL,
        [
            TupleValue(
                BOOK,
                (
                    "SOS",
                    author_rows([("Gueting", "DE")]),
                    "SIGMOD",
                    1993,
                ),
            ),
            TupleValue(
                BOOK,
                (
                    "Gral",
                    author_rows([("Gueting", "DE"), ("Becker", "DE")]),
                    "VLDB",
                    1992,
                ),
            ),
        ],
    )
    tc = TypeChecker(sos, object_types={"books": BOOKS_REL}.get)
    # objects handed to an evaluator are carriers
    ev = Evaluator(algebra, resolver={"books": carrier(books)}.get)
    return sos, tc, ev


class TestExecutableModel:
    def test_nested_type_well_formed(self, env):
        sos, *_ = env
        sos.type_system.check_type(BOOKS_REL)

    def test_select_on_nested(self, env):
        _, tc, ev = env
        q = tc.check(
            Apply("select", (Var("books"), Apply(">", (Var("year"), Literal(1992)))))
        )
        assert [t.attr("title") for t in ev.eval(q)] == ["SOS"]

    def test_unnest(self, env):
        _, tc, ev = env
        q = tc.check(Apply("unnest", (Var("books"), Var("authors"))))
        assert format_type(q.type) == (
            "rel(tuple(<(title, string), (name, string), (country, string), "
            "(publisher, string), (year, int)>))"
        )
        rows = ev.eval(q)
        assert len(rows) == 3
        assert sorted({t.attr("name") for t in rows}) == ["Becker", "Gueting"]

    def test_unnest_non_rel_attribute_rejected(self, env):
        _, tc, ev = env
        with pytest.raises(NoMatchingOperator):
            tc.check(Apply("unnest", (Var("books"), Var("year"))))

    def test_nest_unnest_roundtrip(self, env):
        _, tc, ev = env
        flat = Apply("unnest", (Var("books"), Var("authors")))
        renested = tc.check(
            Apply(
                "nest",
                (flat, ListTerm((Var("name"), Var("country"))), Var("authors")),
            )
        )
        rows = ev.eval(renested)
        assert len(rows) == 2
        gral = next(t for t in rows if t.attr("title") == "Gral")
        assert len(gral.attr("authors")) == 2

    def test_nest_must_leave_grouping_attrs(self, env):
        _, tc, ev = env
        with pytest.raises(NoMatchingOperator):
            tc.check(
                Apply(
                    "nest",
                    (
                        Var("books"),
                        ListTerm(
                            (Var("title"), Var("authors"), Var("publisher"), Var("year"))
                        ),
                        Var("stuff"),
                    ),
                )
            )
