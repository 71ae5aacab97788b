"""Other data models in the same framework (paper Section 2.1).

The framework is a *meta-model*: the nested relational model (the books
example) and the complex object model (the persons example) are defined with
exactly the same machinery — kinds, type constructors, quantified operators.

Run:  python examples/nested_models.py
"""

from repro.core.algebra import Evaluator, Relation, TupleValue, carrier
from repro.core.terms import Apply, ListTerm, Literal, Var
from repro.core.typecheck import TypeChecker
from repro.core.types import TypeApp, format_type, rel_type, tuple_type
from repro.models.complex_objects import ObjectSet, complex_object_model, co_subtype
from repro.models.nested import nested_relational_model

INT = TypeApp("int")
STRING = TypeApp("string")


def nested_demo() -> None:
    print("== nested relational model: the books example ==")
    sos, algebra = nested_relational_model()

    author = tuple_type([("name", STRING), ("country", STRING)])
    authors_rel = rel_type(author)
    book = tuple_type(
        [("title", STRING), ("authors", authors_rel), ("publisher", STRING), ("year", INT)]
    )
    books_rel = rel_type(book)
    sos.type_system.check_type(books_rel)
    print("books type:", format_type(books_rel))

    def authors(*pairs):
        return Relation(authors_rel, [TupleValue(author, p) for p in pairs])

    books = Relation(
        books_rel,
        [
            TupleValue(book, ("Modern DBMS", authors(("Smith", "US")), "X", 1990)),
            TupleValue(
                book,
                ("Extensible Systems", authors(("Smith", "US"), ("Meyer", "DE")), "Y", 1992),
            ),
        ],
    )
    tc = TypeChecker(sos, object_types={"books": books_rel}.get)
    # An evaluator works on carriers: a tuple is a plain Python tuple, its
    # type lives on the typed term.  carrier() takes the views built above
    # to them; eval() shows a result as views again.
    ev = Evaluator(algebra, resolver={"books": carrier(books)}.get)

    flat = tc.check(Apply("unnest", (Var("books"), Var("authors"))))
    print("unnest type:", format_type(flat.type))
    for t in ev.eval(flat):
        print("  ", t)

    renested = tc.check(
        Apply(
            "nest",
            (
                Apply("unnest", (Var("books"), Var("authors"))),
                ListTerm((Var("name"), Var("country"))),
                Var("authors"),
            ),
        )
    )
    print("nest(unnest(books)) row count:", len(ev.eval(renested)))


def complex_demo() -> None:
    print("\n== complex object model: the persons example ==")
    sos, algebra = complex_object_model()
    address = tuple_type([("city", STRING), ("street", STRING)])
    person = tuple_type(
        [("name", STRING), ("children", TypeApp("set", (STRING,))), ("address", address)]
    )
    sos.type_system.check_type(person)
    print("persons type:", format_type(person))

    employee = tuple_type(
        [
            ("name", STRING),
            ("children", TypeApp("set", (STRING,))),
            ("address", address),
            ("salary", INT),
        ]
    )
    print("employee <= person (width subtyping):", co_subtype(employee, person))

    p = TupleValue(
        person,
        (
            "ann",
            ObjectSet(TypeApp("set", (STRING,)), ["kim", "lee"]),
            TupleValue(address, ("Hagen", "Main St")),
        ),
    )
    tc = TypeChecker(sos, object_types={"p": person}.get)
    ev = Evaluator(algebra, resolver={"p": carrier(p)}.get)
    q = tc.check(Apply("card", (Apply("children", (Var("p"),)),)))
    print("card(children(p)) =", ev.eval(q))
    q2 = tc.check(Apply("city", (Apply("address", (Var("p"),)),)))
    print("city(address(p)) =", ev.eval(q2))


if __name__ == "__main__":
    nested_demo()
    complex_demo()
