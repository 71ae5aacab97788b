"""Second-order algebra: values, carriers, evaluation (paper Def. 3.4)."""

import pytest

from repro.core.algebra import Closure, Evaluator, Stream, TupleValue, carrier, view
from repro.core.terms import Apply, Fun, ListTerm, Literal, TupleTerm, Var
from repro.core.typecheck import TypeChecker
from repro.core.types import FunType, ProductType, TypeApp, rel_type, tuple_type
from repro.errors import ExecutionError, UpdateError
from repro.models.relational import make_relation, make_tuple, relational_model

INT = TypeApp("int")
STRING = TypeApp("string")
PERSON = tuple_type([("name", STRING), ("age", INT)])
PERSONS = rel_type(PERSON)


@pytest.fixture()
def model():
    return relational_model()


@pytest.fixture()
def setup(model):
    sos, algebra = model
    persons = make_relation(
        PERSONS,
        [
            {"name": "ann", "age": 25},
            {"name": "bob", "age": 40},
            {"name": "cia", "age": 35},
        ],
    )
    tc = TypeChecker(sos, object_types={"persons": PERSONS}.get)
    ev = Evaluator(algebra, resolver={"persons": persons}.get)
    return sos, algebra, tc, ev, persons


class TestTupleValue:
    def test_attr_access(self):
        t = make_tuple(PERSON, name="ann", age=25)
        assert t.attr("name") == "ann"
        assert t.attr("age") == 25

    def test_missing_attr_raises(self):
        t = make_tuple(PERSON, name="ann", age=25)
        with pytest.raises(ExecutionError):
            t.attr("salary")

    def test_with_attr_is_a_copy(self):
        t = make_tuple(PERSON, name="ann", age=25)
        t2 = t.with_attr("age", 26)
        assert t.attr("age") == 25
        assert t2.attr("age") == 26

    def test_attribute_positions_are_per_schema(self):
        """The name -> position map belongs to the schema, not the tuple:
        tuples of one schema share it, another schema has its own."""
        flipped = tuple_type([("age", INT), ("name", STRING)])
        twin = tuple_type([("name", STRING), ("age", INT)])  # equal, distinct
        a = TupleValue(PERSON, ("ann", 25))
        b = TupleValue(flipped, (25, "ann"))
        c = TupleValue(twin, ("bob", 40))
        assert (a.attr("age"), b.attr("age"), c.attr("age")) == (25, 25, 40)
        assert a.with_attr("age", 26).attr("age") == 26
        assert not hasattr(a, "_index")

    def test_attribute_lookups_leave_no_module_state(self):
        """A view's attribute positions live on its schema's type, so
        looking attributes up on views of many schemas leaves nothing
        behind in ``repro.core.algebra``."""
        from repro.core import algebra

        def module_state():
            return {
                name: value
                for name, value in vars(algebra).items()
                if isinstance(value, (dict, list, set))
            }

        before = {name: len(value) for name, value in module_state().items()}
        schemas = [tuple_type([(f"a{i}", INT)]) for i in range(50)]
        for i, schema in enumerate(schemas):
            tv = view(schema, (i,))
            assert tv.attr(f"a{i}") == i
            assert tv.with_attr(f"a{i}", i + 1).attr(f"a{i}") == i + 1
        after = {name: len(value) for name, value in module_state().items()}
        assert after == before

    def test_equality_and_hash(self):
        a = make_tuple(PERSON, name="ann", age=25)
        b = make_tuple(PERSON, name="ann", age=25)
        assert a == b
        assert hash(a) == hash(b)

    def test_concat(self):
        city = tuple_type([("cname", STRING)])
        out = tuple_type([("name", STRING), ("age", INT), ("cname", STRING)])
        t = make_tuple(PERSON, name="ann", age=25).concat(
            make_tuple(city, cname="Hagen"), out
        )
        assert t.attr("cname") == "Hagen"
        assert t.attr("age") == 25


class TestMakeHelpers:
    def test_make_tuple_missing_attr(self):
        with pytest.raises(ExecutionError):
            make_tuple(PERSON, name="ann")

    def test_make_tuple_extra_attr(self):
        with pytest.raises(ExecutionError):
            make_tuple(PERSON, name="ann", age=1, x=2)


class TestStream:
    def test_one_shot(self):
        s = Stream(PERSON, iter([1, 2, 3]))
        assert list(s) == [1, 2, 3]
        with pytest.raises(ExecutionError):
            list(s)

    def test_materialize(self):
        assert Stream(PERSON, iter([1])).materialize() == [1]


class TestCarriers:
    def test_atomic_checks(self, model):
        _, algebra = model
        assert algebra.check_value(1, INT)
        assert not algebra.check_value(True, INT)
        assert not algebra.check_value("x", INT)
        assert algebra.check_value(1.5, TypeApp("real"))
        assert algebra.check_value(True, TypeApp("bool"))

    def test_tuple_carrier(self, model):
        """A tuple type's carrier is a plain tuple; its view is not."""
        _, algebra = model
        good = make_tuple(PERSON, name="ann", age=25)
        assert algebra.check_value(carrier(good), PERSON)
        assert not algebra.check_value(good, PERSON)
        assert not algebra.check_value(("ann", "not-an-int"), PERSON)

    def test_rel_carrier(self, model):
        _, algebra = model
        rel = make_relation(PERSONS, [{"name": "a", "age": 1}])
        assert algebra.check_value(rel, PERSONS)
        assert not algebra.check_value(rel, rel_type(tuple_type([("x", INT)])))

    def test_function_carrier(self, model):
        _, algebra = model
        assert algebra.check_value(lambda x: x, FunType((INT,), INT))

    def test_product_carrier(self, model):
        _, algebra = model
        assert algebra.check_value((1, "a"), ProductType((INT, STRING)))
        assert not algebra.check_value((1,), ProductType((INT, STRING)))

    def test_require_value_raises(self, model):
        _, algebra = model
        with pytest.raises(ExecutionError):
            algebra.require_value("nope", INT)


class TestEvaluation:
    def test_select_pipeline(self, setup):
        sos, algebra, tc, ev, persons = setup
        q = tc.check(
            Apply(
                "select",
                (Var("persons"), Apply(">", (Var("age"), Literal(30)))),
            )
        )
        result = ev.eval(q)
        assert sorted(t.attr("name") for t in result) == ["bob", "cia"]

    def test_closure_captures_environment(self, setup):
        sos, algebra, tc, ev, persons = setup
        fun = tc.check(
            Fun(
                (("lim", INT),),
                Apply(
                    "select",
                    (Var("persons"), Apply(">", (Var("age"), Var("lim")))),
                ),
            )
        )
        closure = ev.eval(fun)
        assert isinstance(closure, Closure)
        assert len(closure(30)) == 2
        assert len(closure(0)) == 3

    def test_closure_arity_checked(self, setup):
        *_, tc, ev, _ = setup
        closure = ev.eval(tc.check(Fun((("x", INT),), Var("x"))))
        with pytest.raises(ExecutionError):
            closure(1, 2)

    def test_unbound_variable(self, setup):
        *_, ev, _ = setup
        with pytest.raises(ExecutionError):
            ev.eval(Var("ghost"))

    def test_unchecked_apply_rejected(self, setup):
        *_, ev, _ = setup
        with pytest.raises(ExecutionError):
            ev.eval(Apply("select", (Var("persons"), Literal(1))))

    def test_update_outside_update_statement_rejected(self, setup):
        sos, algebra, tc, ev, persons = setup
        term = tc.check(
            Apply(
                "insert",
                (
                    Var("persons"),
                    Apply(
                        "mktuple",
                        (ListTerm((TupleTerm((Var("name"), Literal("dan"))), TupleTerm((Var("age"), Literal(20))))),),
                    ),
                ),
            )
        )
        with pytest.raises(UpdateError):
            ev.eval(term)  # allow_update defaults to False
        # and with permission it works
        out = ev.eval(term, allow_update=True)
        assert len(out) == 4

    def test_list_and_tuple_terms_evaluate(self, setup):
        *_, ev, _ = setup
        assert ev.eval(ListTerm((Literal(1), Literal(2)))) == [1, 2]
        assert ev.eval(TupleTerm((Literal(1), Literal("a")))) == (1, "a")
