"""The compiled evaluator (``Evaluator.compile``) keeps every run-time
check of a term-walking interpreter: resource guards and fault points fire
*inside* a per-tuple parameter function, closures capture the right
bindings, and errors surface when evaluation reaches them — not when the
term is compiled.  The step counts and per-operator tuple counts hard-coded
here were recorded with the interpreter this evaluator replaced.  A
parameter function's fused form (``Evaluator.fuse``) — scalar bodies, index
probes, nested functions and names alike — must agree with its per-node
body in rows, page reads and operator counts, and must step aside whenever
a guard is armed.
"""

import functools
import math
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import connect
from repro.core.algebra import (
    DEADLINE_CHECK_STEPS,
    Closure,
    Evaluator,
    ResourceLimits,
    SecondOrderAlgebra,
    carrier,
)
from repro.core.operators import AttributeFamily, ResolvedOp
from repro.core.terms import Apply, Fun, ListTerm, Literal, Var
from repro.core.types import TypeApp
from repro.errors import (
    ExecutionError,
    ResourceLimitError,
    StatementTimeoutError,
    UpdateError,
)
from repro.geometry import Point, Rect
from repro.optimizer import cost_based_optimizer
from repro.storage.btree import BOTTOM_KEY, TOP_KEY
from repro.storage.io import GLOBAL_PAGES, PageManager
from repro.storage.lsdtree import LSDTree
from repro.testing import InjectedFault, database_fingerprint, inject

SCHEMA = """
type item = tuple(<(k, int), (name, string), (grp, int)>)
type order = tuple(<(oid, int), (cust, int)>)
type customer = tuple(<(cid, int), (cname, string)>)
type city = tuple(<(cname, string), (center, point), (pop, int)>)
type state = tuple(<(sname, string), (region, pgon)>)
create items : rel(item)
create items_rep : btree(item, k, int)
update rep := insert(rep, items, items_rep)
create orders : rel(order)
create customers : rel(customer)
create orders_rep : srel(order)
create customers_rep : btree(customer, cid, int)
update rep := insert(rep, orders, orders_rep)
update rep := insert(rep, customers, customers_rep)
create cities : rel(city)
create states : rel(state)
create cities_rep : btree(city, pop, int)
create states_rep : lsdtree(state, fun (s: state) bbox(s region))
update rep := insert(rep, cities, cities_rep)
update rep := insert(rep, states, states_rep)
"""

N_ITEMS, N_CUSTOMERS, N_ORDERS, N_STATES, N_CITIES = 300, 400, 60, 4, 40

#: The four statement shapes of sosbench's ``analytic_local`` workload.
SCAN = "items_rep feed filter[grp = 3] count"
EQUIJOIN = "orders customers join[cust = cid]"
SPATIAL_JOIN = "cities states join[center inside region]"
BULK_UPDATE = 'update items := modify(items, grp = 3, name, "m1")'


def _load(session) -> None:
    rows = [
        f'update items := insert(items, mktuple[<(k, {k}), (name, "n{k}"), '
        f"(grp, {k % 7})>])"
        for k in range(N_ITEMS)
    ]
    rows += [
        f'update customers := insert(customers, mktuple[<(cid, {c}), '
        f'(cname, "c{c}")>])'
        for c in range(N_CUSTOMERS)
    ]
    rows += [
        f"update orders := insert(orders, mktuple[<(oid, {o}), "
        f"(cust, {(o * 7) % N_CUSTOMERS})>])"
        for o in range(N_ORDERS)
    ]
    rows += [
        f'update states := insert(states, mktuple[<(sname, "s{i}"), '
        f"(region, region_box({i * 25}, 0, {i * 25 + 25}, 100))>])"
        for i in range(N_STATES)
    ]
    rows += [
        f'update cities := insert(cities, mktuple[<(cname, "c{i}"), '
        f"(center, pt({(i * 7) % 100}, {(i * 13) % 100})), (pop, {i * 1000})>])"
        for i in range(N_CITIES)
    ]
    session.run("\n".join(rows))
    session.analyze()


def _fresh():
    session = connect(optimizer=cost_based_optimizer())
    session.run(SCHEMA)
    _load(session)
    return session


@pytest.fixture(scope="module")
def loaded():
    return _fresh()


@pytest.fixture()
def db(loaded):
    """The loaded session with the resource guard cleared afterwards."""
    yield loaded
    loaded.database.set_resource_limits()


# ---------------------------------------------------------------------------
# (a) resource guards inside a compiled per-tuple body
# ---------------------------------------------------------------------------


class TestGuardsInsideParameterFunctions:
    def test_step_budget_fires_mid_scan(self, db):
        # the plan itself is 5 nodes; the budget runs out in the predicate
        db.database.set_resource_limits(max_steps=200)
        with pytest.raises(ResourceLimitError, match="step budget of 200"):
            db.query(SCAN)
        assert db.database.evaluator._steps == 201

    def test_depth_limit_fires_in_predicate(self, db):
        # The plan count > filter > feed > items_rep is 4 deep.  The
        # predicate runs while count (depth 1) pulls tuples, and
        # = > * > + > grp > t puts 5 more levels under it.
        deep_scan = "items_rep feed filter[(grp + 1) * 2 = 8] count"
        db.database.set_resource_limits(max_depth=5)
        with pytest.raises(ResourceLimitError, match="recursion-depth limit of 5"):
            db.query(deep_scan)
        assert db.database.evaluator._depth == 0  # released on unwind
        db.database.set_resource_limits(max_depth=6)
        assert db.query(deep_scan).value == 43
        assert db.database.evaluator._depth == 0

    def test_expired_deadline_cancels(self, db):
        evaluator = db.database.evaluator
        evaluator.limits = ResourceLimits(deadline=time.monotonic() - 1.0)
        with pytest.raises(StatementTimeoutError):
            db.query(SCAN)
        assert evaluator._steps == 1  # the clock is read on the first step

    def test_deadline_cadence_reaches_into_the_predicate(self, db, monkeypatch):
        """The clock is read every DEADLINE_CHECK_STEPS steps — including
        the steps spent inside the per-tuple function."""
        from repro.core import algebra

        reads = []

        def clock():
            reads.append(db.database.evaluator._steps)
            return 0.0

        monkeypatch.setattr(algebra, "_monotonic", clock)
        db.database.evaluator.limits = ResourceLimits(deadline=1.0)
        assert db.query(SCAN).value == 43
        assert reads == list(range(1, 1206, DEADLINE_CHECK_STEPS))

    @pytest.mark.parametrize(
        "statement, steps",
        [
            ("query " + SCAN, 1205),  # 5 plan nodes + 300 rows x 4 body nodes
            ("query " + EQUIJOIN, 244),
            ("query " + SPATIAL_JOIN, 449),
            (BULK_UPDATE, 1254),
        ],
    )
    def test_step_counts_match_the_interpreter(self, statement, steps):
        session = _fresh()
        session.database.set_resource_limits(max_steps=10**9)
        value = session.run_one(statement).value
        if statement.startswith("query") and not isinstance(value, int):
            list(value)  # drain a lazy answer
        assert session.database.evaluator._steps == steps


# ---------------------------------------------------------------------------
# (b) the evaluator.apply fault site inside a scan
# ---------------------------------------------------------------------------


class TestFaultPointInsideParameterFunctions:
    def test_fault_mid_scan_triggers_at_hit_k(self, db):
        # 3 plan operators, then 2 applications (=, attribute) per row
        with inject("evaluator.apply", at=301) as plan:
            with pytest.raises(InjectedFault):
                db.query(SCAN)
        assert plan.triggered and plan.hits == 301

    def test_unfaulted_scan_hits_every_application(self, db):
        with inject("evaluator.apply", at=10**9) as plan:
            assert db.query(SCAN).value == 43
        assert plan.hits == 3 + 2 * N_ITEMS

    def test_fault_mid_bulk_update_leaves_no_partial_effect(self):
        session = _fresh()
        before = database_fingerprint(session.database)
        with inject("evaluator.apply", at=150) as plan:
            with pytest.raises(InjectedFault):
                session.run_one(BULK_UPDATE)
        assert plan.hits == 150
        assert database_fingerprint(session.database) == before
        session.run_one(BULK_UPDATE)
        assert database_fingerprint(session.database) != before
        assert session.query('items_rep feed filter[name = "m1"] count').value == 43


# ---------------------------------------------------------------------------
# (c) environment capture
# ---------------------------------------------------------------------------


class TestEnvironmentCapture:
    def test_inner_function_sees_the_outer_tuple(self, db):
        """The search-join inner function refers to the outer tuple
        variable from inside its own nested filter function."""
        rows = db.query(
            "orders_rep feed fun (o: order) customers_rep feed "
            "filter[fun (c: customer) c cid = o cust] search_join"
        ).value
        pairs = sorted((t.attr("oid"), t.attr("cust"), t.attr("cid")) for t in rows)
        assert pairs == [
            (o, (o * 7) % N_CUSTOMERS, (o * 7) % N_CUSTOMERS)
            for o in range(N_ORDERS)
        ]

    def test_stored_view_called_with_arguments(self, db):
        db.run(
            "create in_grp : (int -> stream(item))\n"
            "update in_grp := fun (g: int) items_rep feed filter[grp = g]"
        )
        try:
            assert len(list(db.query("in_grp(3)").value)) == 43
            assert len(list(db.query("in_grp(6)").value)) == 42
            assert db.query("in_grp(3) count").value == 43
        finally:
            db.run_one("delete in_grp")

    def test_closures_of_one_compiled_fun_do_not_share_state(self, db):
        evaluator = db.database.evaluator
        typechecker = db.database.typechecker
        int_t = TypeApp("int")
        make_adder = typechecker.check(
            Fun(
                (("n", int_t),),
                Fun((("x", int_t),), Apply("+", (Var("x"), Var("n")))),
            )
        )
        outer = evaluator.eval(make_adder)
        add1, add10 = outer(1), outer(10)
        assert isinstance(add1, Closure) and add1 is not add10
        assert add1._body is add10._body  # one compiled body ...
        assert (add1(5), add10(5), add1(5)) == (6, 15, 6)  # ... two bindings
        assert add1.env == {"n": 1} and add10.env == {"n": 10}  # untouched by calls

    def test_compiled_term_is_reusable_across_environments(self, db):
        evaluator = db.database.evaluator
        body = db.database.typechecker.check(
            Fun((("x", TypeApp("int")),), Apply("*", (Var("x"), Var("x"))))
        ).body
        run = evaluator.compile(body)
        assert [run({"x": n}) for n in (2, 3, 4)] == [4, 9, 16]


# ---------------------------------------------------------------------------
# (d) errors surface at evaluation time, not compile time
# ---------------------------------------------------------------------------


class TestErrorsSurfaceWhenReached:
    def test_impl_type_error_inside_closure_is_execution_error(self, db):
        def picky(ctx, value):
            raise TypeError("cannot take that")

        resolved = ResolvedOp(result_type=TypeApp("int"), impl=picky)
        fun = Fun((("x", TypeApp("int")),), Apply("picky", (Var("x"),), resolved=resolved))
        closure = Closure(fun, {}, db.database.evaluator)  # compiles fine
        with pytest.raises(ExecutionError, match="operator picky cannot be applied to 7"):
            closure(7)

    def test_update_function_inside_parameter_function(self, db):
        """``insert`` typechecks as a value of the right type but is an
        update function: legal only at the root of an update statement."""
        term = db.database.typechecker.check(
            Fun(
                (("r", db.database.aliases["item"]),),
                Apply("insert", (Var("items"), Var("r"))),
            )
        )
        closure = db.database.evaluator.eval(term)  # building it is legal
        row = next(iter(db.query("items_rep feed").value))
        with pytest.raises(UpdateError, match="outside an update statement"):
            closure(row)

    def test_untypechecked_apply_raises_only_when_reached(self, db):
        evaluator = db.database.evaluator
        bad = Apply("select", (Var("items"), Literal(1)))
        run = evaluator.compile(ListTerm((Literal(1), bad)))  # does not raise
        with pytest.raises(ExecutionError, match="was not typechecked"):
            run({})
        closure = Closure(Fun((("x", None),), bad), {}, evaluator)
        with pytest.raises(ExecutionError, match="was not typechecked"):
            closure(1)

    def test_operator_without_implementation(self):
        evaluator = Evaluator(SecondOrderAlgebra(None))
        term = Apply("ghost", (), resolved=ResolvedOp(result_type=TypeApp("int")))
        run = evaluator.compile(term)
        with pytest.raises(ExecutionError, match="ghost has no implementation"):
            run({})

    def test_failing_node_still_costs_its_step(self, db):
        evaluator = db.database.evaluator
        evaluator.begin_statement()
        evaluator.limits = ResourceLimits(max_steps=10**6)
        with pytest.raises(ExecutionError):
            evaluator.eval(ListTerm((Literal(1), Apply("select", ()))))
        assert evaluator._steps == 3 and evaluator._depth == 0


# ---------------------------------------------------------------------------
# (e) explain(analyze=True) operator counts for the analytic shapes
# ---------------------------------------------------------------------------


def _operator_counts(operators: dict) -> dict:
    return {
        op: (slot.get("in", 0), slot.get("out", 0))
        for op, slot in operators.items()
    }


class TestOperatorCountsUnchanged:
    """Queries through ``explain(analyze=True)``; the update through a
    traced run (``explain`` takes queries only)."""

    def test_scan(self, db):
        info = db.explain(SCAN, analyze=True)
        assert info["value"] == 43
        assert _operator_counts(info["metrics"]["operators"]) == {
            "feed": (0, 300),
            "filter": (300, 43),
        }

    def test_index_equijoin(self, db):
        info = db.explain(EQUIJOIN, analyze=True)
        assert info["rows"] == N_ORDERS
        assert _operator_counts(info["metrics"]["operators"]) == {
            "feed": (0, 60),
            "exact": (0, 60),
            "search_join": (0, 60),
        }

    def test_spatial_join(self, db):
        info = db.explain(SPATIAL_JOIN, analyze=True)
        assert info["rows"] == 41
        assert _operator_counts(info["metrics"]["operators"]) == {
            "feed": (0, 40),
            "filter": (41, 41),
            "point_search": (0, 41),
            "search_join": (0, 41),
        }

    def test_bulk_update(self):
        session = _fresh()
        session.set_tracing(True)
        metrics = session.run_one(BULK_UPDATE).metrics
        assert _operator_counts(metrics.operators) == {
            "feed": (0, 300),
            "filter": (300, 43),
            "replace": (0, 43),
        }


# ---------------------------------------------------------------------------
# (f) LSD-tree searches against a brute-force rectangle model
# ---------------------------------------------------------------------------


def _brute_point(rects, x, y):
    return sorted(
        i for i, r in enumerate(rects)
        if r.xmin <= x <= r.xmax and r.ymin <= y <= r.ymax
    )


def _brute_overlap(rects, q):
    return sorted(
        i for i, r in enumerate(rects)
        if r.xmin <= q.xmax and q.xmin <= r.xmax
        and r.ymin <= q.ymax and q.ymin <= r.ymax
    )


class TestLSDTreeAgainstBruteForce:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_rectangles(self, seed):
        rng = random.Random(seed)
        rects = []
        for _ in range(400):
            # integer grid so that touching boundaries actually occur
            x, y = rng.randrange(50), rng.randrange(50)
            shape = rng.random()
            if shape < 0.1:
                w = h = 0  # degenerate: a point
            elif shape < 0.2:
                w, h = rng.randrange(1, 10), 0  # degenerate: a segment
            else:
                w, h = rng.randrange(1, 10), rng.randrange(1, 10)
            rects.append(Rect(x, y, x + w, y + h))
        tree = LSDTree(key=lambda i: rects[i], bucket_capacity=8)
        for i in range(len(rects)):
            tree.insert(i)
        for _ in range(200):
            x, y = rng.randrange(-1, 61), rng.randrange(-1, 61)
            assert sorted(tree.point_search(Point(x, y))) == _brute_point(rects, x, y)
        for _ in range(200):
            x, y = rng.randrange(-1, 61), rng.randrange(-1, 61)
            w, h = rng.choice([0, 0, 1, 5, 20]), rng.choice([0, 0, 1, 5, 20])
            query = Rect(x, y, x + w, y + h)
            assert sorted(tree.overlap_search(query)) == _brute_overlap(rects, query)

    def test_boundary_touching_counts_as_a_hit(self):
        rects = [Rect(0, 0, 10, 10), Rect(10, 10, 20, 20), Rect(5, 5, 5, 5)]
        tree = LSDTree(key=lambda i: rects[i], bucket_capacity=2)
        for i in range(len(rects)):
            tree.insert(i)
        assert sorted(tree.point_search(Point(10, 10))) == [0, 1]
        assert sorted(tree.point_search(Point(5, 5))) == [0, 2]
        assert sorted(tree.overlap_search(Rect(20, 20, 30, 30))) == [1]
        assert sorted(tree.overlap_search(Rect(10, 0, 10, 30))) == [0, 1]
        assert sorted(tree.overlap_search(Rect(21, 21, 30, 30))) == []


_grid = st.integers(0, 20)
_rects = st.tuples(_grid, _grid, st.integers(0, 6), st.integers(0, 6)).map(
    lambda r: Rect(r[0], r[1], r[0] + r[2], r[1] + r[3])
)


class TestPointSearchAgainstRange:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(_rects, max_size=60),
        st.integers(2, 6),
        st.lists(st.tuples(st.integers(-1, 27), st.integers(-1, 27)), min_size=1, max_size=8),
    )
    def test_same_rows_order_and_reads(self, rects, capacity, points):
        tree = LSDTree(key=lambda i: rects[i], bucket_capacity=capacity, pages=PageManager())
        for i in range(len(rects)):
            tree.insert(i)
        stats = tree.pages.stats
        for x, y in points:
            before = stats.reads
            rows = list(tree.point_search(Point(x, y)))
            reads = stats.reads - before
            low, high = (-math.inf, -math.inf, x, y), (x, y, math.inf, math.inf)
            assert rows == list(tree._range(low, high))
            assert reads == stats.reads - before - reads


# ---------------------------------------------------------------------------
# (g) the fused parameter function against the per-node body
# ---------------------------------------------------------------------------

FUSE_SCHEMA = (
    "type row = tuple(<(a, int), (b, int), (x, real), (s, string), (f, bool)>)"
)
ATTRS = ("a", "b", "x", "s", "f")
BINARY = (
    "=", "!=", "<", "<=", ">=", ">", "+", "-", "*", "/", "div", "mod", "and", "or",
)


@functools.lru_cache(maxsize=None)
def _fuse_session():
    session = connect()
    session.run(FUSE_SCHEMA)
    return session


def _row_type():
    return _fuse_session().database.aliases["row"]


def _build(shape):
    """A term with resolved operators, built without the typechecker so
    that ill-typed applications (mixed types, ``bottom`` against an int)
    reach the operator impls."""
    kind = shape[0]
    if kind == "lit":
        return Literal(shape[1])
    if kind == "attr":
        resolved = AttributeFamily().resolve(shape[1], (_row_type(),))
        return Apply(shape[1], (Var("t"),), resolved=resolved)
    op, args = shape[1], tuple(_build(arg) for arg in shape[2:])
    sos = _fuse_session().database.sos
    (spec,) = sos.operators_of_arity(op, len(args))
    return Apply(op, args, resolved=ResolvedOp(result_type=None, spec=spec))


def _outcome(fn, *args):
    try:
        value = fn(*args)
    except Exception as exc:  # noqa: BLE001 — the outcome is compared
        return ("raise", type(exc), str(exc))
    return ("value", type(value), value)


def _both_paths(body):
    """The closure with its fused function, and one without (the per-node
    body alone, as a body the fuser declines is compiled)."""
    evaluator = _fuse_session().database.evaluator
    fun = Fun((("t", _row_type()),), body)
    fused = Closure(fun, {}, evaluator)
    per_node = Closure(fun, {}, evaluator, evaluator.compile(body))
    assert per_node._fused is None
    return fused, per_node


_literals = st.one_of(
    st.integers(-3, 3),
    st.floats(-2, 2, allow_nan=False),
    st.text("ab", max_size=2),
    st.booleans(),
    st.sampled_from([BOTTOM_KEY, TOP_KEY]),
).map(lambda v: ("lit", v))
_shapes = st.recursive(
    st.one_of(st.sampled_from(ATTRS).map(lambda n: ("attr", n)), _literals),
    lambda kids: st.one_of(
        st.tuples(st.just("op"), st.sampled_from(BINARY), kids, kids),
        st.tuples(st.just("op"), st.just("not"), kids),
    ),
    max_leaves=8,
)
_rows = st.tuples(
    st.integers(-3, 3),
    st.integers(-3, 3),
    st.floats(-2, 2, allow_nan=False),
    st.text("ab", max_size=2),
    st.booleans(),
)


class TestFusedAgainstPerNode:
    @settings(max_examples=300, deadline=None)
    @given(_shapes, st.lists(_rows, min_size=1, max_size=4))
    def test_same_value_or_same_error(self, shape, rows):
        fused, per_node = _both_paths(_build(shape))
        assert fused._fused is not None  # every generated body is closed
        for values in rows:
            row = values  # a row's carrier
            expected = _outcome(per_node, row)
            assert _outcome(fused, row) == expected
            raw = _outcome(fused._fused, row)
            if raw[0] == "value":  # the generated code alone agrees, too
                assert raw == expected

    def test_and_evaluates_its_right_side_when_the_left_is_false(self):
        # false and (bottom < 1): the per-node impl of ``and`` receives both
        # operands, so the comparison's error is the statement's error
        shape = ("op", "and", ("lit", False), ("op", "<", ("lit", BOTTOM_KEY), ("lit", 1)))
        fused, per_node = _both_paths(_build(shape))
        row = (1, 2, 0.5, "a", True)
        with pytest.raises(TypeError):
            fused._fused(row)
        with pytest.raises(ExecutionError, match="not comparable with <"):
            fused(row)
        assert _outcome(fused, row) == _outcome(per_node, row)

    def test_division_by_zero_raises_the_impl_error(self):
        fused, per_node = _both_paths(_build(("op", "div", ("attr", "a"), ("lit", 0))))
        row = (1, 2, 0.5, "a", True)
        assert _outcome(fused, row)[:2] == ("raise", ZeroDivisionError)
        assert _outcome(fused, row) == _outcome(per_node, row)

    def test_wrong_arity_raises_the_per_node_error(self):
        fused, _ = _both_paths(_build(("attr", "a")))
        with pytest.raises(ExecutionError, match="expects 1 argument"):
            fused()

    def test_declined_bodies_compile_as_before(self, db):
        # A body naming a variable it does not bind is fused now (the name
        # is looked up per call, see TestNamesAndNestedFunctions); a fun
        # that is itself the body, not an operator argument, still is not.
        evaluator = db.database.evaluator
        int_t = TypeApp("int")
        nested = db.database.typechecker.check(
            Fun((("n", int_t),), Fun((("x", int_t),), Var("n")))
        )
        opaque = Fun(
            (("x", int_t),),
            Apply("picky", (Var("x"),), resolved=ResolvedOp(int_t, impl=lambda ctx, x: abs(x))),
        )
        untyped = Fun((("x", int_t),), Apply("+", (Var("x"), Literal(1))))
        for fun in (nested, opaque, untyped):
            assert evaluator.fuse(fun) is None
            assert Closure(fun, {}, evaluator)._fused is None
        assert Closure(opaque, {}, evaluator)(-4) == 4

    def test_one_generated_function_per_shape(self, db):
        evaluator = db.database.evaluator
        item = db.database.aliases["item"]

        def predicate(g):
            return db.database.typechecker.check(
                Fun((("t", item),), Apply("=", (Apply("grp", (Var("t"),)), Literal(g))))
            )

        three, four = evaluator.fuse(predicate(3)), evaluator.fuse(predicate(4))
        assert three.__code__ is four.__code__
        row = carrier(next(iter(db.query("items_rep feed filter[grp = 3]").value)))
        assert (three(row), four(row)) == (True, False)


@pytest.fixture()
def per_node_calls(monkeypatch):
    """Counts the runs of every closure's per-node body."""
    calls = []
    init = Closure.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        body = self._body

        def counted(env):
            calls.append(1)
            return body(env)

        self._body = counted

    monkeypatch.setattr(Closure, "__init__", counting_init)
    return calls


class TestFastPathAndGuards:
    def test_unguarded_scan_runs_no_per_node_body(self, db, per_node_calls):
        assert db.query(SCAN).value == 43
        assert per_node_calls == []

    def test_unguarded_bulk_update_runs_no_per_node_body(self, per_node_calls):
        session = _fresh()
        per_node_calls.clear()  # the LSD-tree key function is not closed
        session.run_one(BULK_UPDATE)
        # only the once-per-statement fun (s: stream) replace(s, name, ...)
        # runs per node; the per-tuple predicate and new value are fused
        assert len(per_node_calls) == 1
        assert session.query('items_rep feed filter[name = "m1"] count').value == 43

    def test_resource_limits_take_the_per_node_body(self, db, per_node_calls):
        db.database.set_resource_limits(max_steps=10**9)
        assert db.query(SCAN).value == 43
        assert len(per_node_calls) == N_ITEMS

    def test_fault_plan_takes_the_per_node_body(self, db, per_node_calls):
        with inject("evaluator.apply", at=10**9) as plan:
            assert db.query(SCAN).value == 43
        assert len(per_node_calls) == N_ITEMS
        assert plan.hits == 3 + 2 * N_ITEMS

    def test_arming_mid_statement_falls_back_on_the_next_call(self, db, per_node_calls):
        rows = [carrier(row) for row in db.query("items_rep feed").value][:4]
        item = db.database.aliases["item"]
        fun = db.database.typechecker.check(
            Fun((("t", item),), Apply("=", (Apply("grp", (Var("t"),)), Literal(3))))
        )
        closure = Closure(fun, {}, db.database.evaluator)
        closure(rows[0])
        with inject("btree.insert", at=10**9):
            closure(rows[1])
            closure(rows[2])
        closure(rows[3])
        assert len(per_node_calls) == 2

    def test_filter_counts_are_the_same_on_both_paths(self, db, per_node_calls):
        fast = db.explain(SCAN, analyze=True)
        assert per_node_calls == []
        db.database.set_resource_limits(max_steps=10**9)
        guarded = db.explain(SCAN, analyze=True)
        assert len(per_node_calls) == N_ITEMS
        assert fast["value"] == guarded["value"] == 43
        counts = _operator_counts(fast["metrics"]["operators"])
        assert counts == _operator_counts(guarded["metrics"]["operators"])
        assert counts["filter"] == (300, 43)


# ---------------------------------------------------------------------------
# (h) fused probes, nested functions and names against the per-node body
# ---------------------------------------------------------------------------

#: A search join whose inner function builds a range probe and filters it
#: with a nested predicate over the outer tuple.
NESTED_RANGE = (
    "orders_rep feed fun (o: order) customers_rep range[o cust, o cust + 2] "
    "filter[fun (c: customer) c cid > o cust] search_join"
)
OBJECT_NAME = "items_rep feed filter[k < cap] count"  # cap is an object
CLOSURE_ENV = "in_grp(3) count"  # g is bound in the predicate's closure env


@pytest.fixture(scope="module")
def named():
    session = _fresh()
    session.run(
        "create cap : int\n"
        "update cap := 150\n"
        "create in_grp : (int -> stream(item))\n"
        "update in_grp := fun (g: int) items_rep feed filter[grp = g]"
    )
    return session


def _run_observed(session, query):
    """The answer's rows, the page reads and writes it cost, and its
    operator counts under ``explain(analyze=True)``."""
    before = GLOBAL_PAGES.stats.snapshot()
    value = session.query(query).value
    rows = value if isinstance(value, int) else [repr(t) for t in value]
    delta = GLOBAL_PAGES.stats.delta(before)
    info = session.explain(query, analyze=True)
    return rows, (delta.reads, delta.writes), _operator_counts(info["metrics"]["operators"])


class TestNamesAndNestedFunctions:
    @pytest.mark.parametrize(
        "query",
        [
            EQUIJOIN,  # search_join + exact
            SPATIAL_JOIN,  # point_search + a nested filter over t1
            NESTED_RANGE,  # range + a nested filter over o
            OBJECT_NAME,
            CLOSURE_ENV,
        ],
    )
    def test_same_rows_pages_and_counts_on_both_paths(self, named, query, per_node_calls):
        value = named.query(query).value
        if not isinstance(value, int):
            list(value)
        # Every closure built while the query ran took the fused path (the
        # stored view was built before the counter was installed).
        assert per_node_calls == []
        fused = _run_observed(named, query)
        named.database.set_resource_limits(max_steps=10**9)  # per node only
        try:
            per_node = _run_observed(named, query)
        finally:
            named.database.set_resource_limits()
        assert per_node_calls  # the guarded runs took the per-node bodies
        assert fused == per_node
        assert fused[1][0] > 0  # the probes read pages

    def test_a_lazy_body_runs_per_node_while_metrics_are_armed(self, named, per_node_calls):
        info = named.explain(EQUIJOIN, analyze=True)
        assert info["rows"] == N_ORDERS
        assert len(per_node_calls) == N_ORDERS  # one inner call per order
        per_node_calls.clear()
        assert len(list(named.query(EQUIJOIN).value)) == N_ORDERS
        assert per_node_calls == []

    def test_a_name_is_looked_up_in_the_closure_env_then_resolved(self, named):
        evaluator = named.database.evaluator
        int_t = TypeApp("int")
        add_n = named.database.typechecker.check(
            Fun((("n", int_t),), Fun((("x", int_t),), Apply("+", (Var("x"), Var("n")))))
        ).body
        add_cap = named.database.typechecker.check(
            Fun((("x", int_t),), Apply("+", (Var("x"), Var("cap"))))
        )
        assert evaluator.fuse(add_n, {"n": 5})(1) == 6
        assert evaluator.fuse(add_cap)(1) == 151  # the object
        assert evaluator.fuse(add_cap, {"cap": 2})(1) == 3  # the env wins
        closure = Closure(add_n, {"n": 7}, evaluator)
        assert closure._fused is not None and closure(1) == 8
        assert closure.env == {"n": 7}
        with pytest.raises(ExecutionError, match="no such object: n"):
            Closure(add_n, {}, evaluator)(1)  # the per-node body's error

    def test_the_nested_closure_is_the_one_the_per_node_body_builds(self, named):
        """The spatial join's fused inner function hands ``filter`` a
        Closure over the outer tuple, in the environment the per-node body
        gives it, with a fused function of its own."""
        inner = named.run_one("query " + SPATIAL_JOIN).translated_term.args[1]
        evaluator = named.database.evaluator
        fused = Closure(inner, {}, evaluator)
        per_node = Closure(inner, {}, evaluator, evaluator.compile(inner.body))
        assert fused._fused is not None and fused._lazy
        predicates = []
        filter_impl = filter

        def recording_filter(predicate, stream):
            predicates.append(predicate)
            return filter_impl(predicate, stream)

        city = carrier(next(iter(named.query("cities_rep feed").value)))
        namespace = fused._fused.__globals__
        namespace["filter"] = recording_filter
        try:
            rows = list(fused(city))
        finally:
            del namespace["filter"]
        (predicate,) = predicates
        assert isinstance(predicate, Closure) and predicate._fused is not None
        assert predicate.env == {"t1": city}
        assert [repr(t) for t in rows] == [repr(t) for t in per_node(city)]
