"""Engine control strategies and safety behaviour ([BeG92] step model)."""

import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.terms import Apply, Fun, Literal, Var, format_term, walk_terms
from repro.core.types import TypeApp
from repro.errors import OptimizationError, TypeCheckError
from repro.observe import RuleTrace
from repro.optimizer.engine import Optimizer, OptimizerStep
from repro.optimizer.rules import RewriteRule, rule_vars
from repro.optimizer.standard_rules import (
    cost_based_optimizer,
    misordered_optimizer,
    normalization_rules,
    query_rules,
    standard_optimizer,
)
from repro.optimizer.termmatch import RuleVar
from repro.system import build_relational_system


@pytest.fixture()
def db():
    return build_relational_system().database


def _typed(db, text):
    from repro.lang.parser import Parser

    parser = Parser(db.sos, aliases=db.aliases, is_object=db.has_object)
    return db.typechecker.check(parser.parse_expression(text))


def add_zero_rule():
    """x + 0 => x  (a pure simplification rule for strategy testing)."""
    return RewriteRule(
        name="add_zero",
        variables=rule_vars(RuleVar("x")),
        lhs=Apply("+", (Var("x"), Literal(0))),
        rhs=Var("x"),
    )


def wrap_rule():
    """x => x + 0 — deliberately non-terminating under 'exhaustive'."""
    return RewriteRule(
        name="wrap",
        variables=rule_vars(RuleVar("x", kind=None)),
        lhs=Apply("*", (Var("x"), Literal(1))),
        rhs=Apply("*", (Apply("+", (Var("x"), Literal(0))), Literal(1))),
    )


class TestStrategies:
    def test_exhaustive_reaches_fixpoint(self, db):
        term = _typed(db, "((1 + 0) + 0) + 0")
        opt = Optimizer([OptimizerStep("s", [add_zero_rule()], "exhaustive")])
        result = opt.optimize(term, db)
        assert result.fired == ["add_zero"] * 3
        from repro.core.terms import same_term

        assert same_term(result.term, _typed(db, "1"))

    def test_once_topdown_fires_once_per_traversal(self, db):
        term = _typed(db, "((1 + 0) + 0) + 0")
        opt = Optimizer([OptimizerStep("s", [add_zero_rule()], "once_topdown")])
        result = opt.optimize(term, db)
        assert result.fired == ["add_zero"]
        # outermost occurrence rewritten first
        assert same_shape(result.term, _typed(db, "(1 + 0) + 0"))

    def test_once_bottomup_rewrites_innermost(self, db):
        term = _typed(db, "((1 + 0) + 0) + 0")
        opt = Optimizer([OptimizerStep("s", [add_zero_rule()], "once_bottomup")])
        result = opt.optimize(term, db)
        assert result.fired == ["add_zero"]
        assert same_shape(result.term, _typed(db, "(1 + 0) + 0"))

    def test_non_terminating_rule_set_detected(self, db):
        term = _typed(db, "2 * 1")
        opt = Optimizer([OptimizerStep("s", [wrap_rule()], "exhaustive")])
        with pytest.raises(OptimizationError):
            opt.optimize(term, db)

    def test_unknown_strategy_rejected(self, db):
        opt = Optimizer([OptimizerStep("s", [], "sideways")])
        with pytest.raises(OptimizationError):
            opt.optimize(_typed(db, "1"), db)

    def test_steps_run_in_order(self, db):
        double = RewriteRule(
            name="one_to_two",
            variables={},
            lhs=Literal(1),
            rhs=Literal(2),
        )
        halve = RewriteRule(
            name="two_to_three",
            variables={},
            lhs=Literal(2),
            rhs=Literal(3),
        )
        opt = Optimizer(
            [
                OptimizerStep("first", [double], "once_topdown"),
                OptimizerStep("second", [halve], "once_topdown"),
            ]
        )
        result = opt.optimize(_typed(db, "1 + 100"), db)
        assert result.fired == ["one_to_two", "two_to_three"]
        assert same_shape(result.term, _typed(db, "3 + 100"))


class TestSafety:
    def test_ill_typed_rewrite_is_discarded(self, db):
        bad = RewriteRule(
            name="break_types",
            variables=rule_vars(RuleVar("x")),
            lhs=Apply("+", (Var("x"), Literal(0))),
            rhs=Apply("and", (Var("x"), Literal(0))),  # int operands: ill-typed
        )
        term = _typed(db, "5 + 0")
        opt = Optimizer([OptimizerStep("s", [bad], "exhaustive")])
        result = opt.optimize(term, db)
        assert result.fired == []  # the unsound rule never applies


def same_shape(a, b):
    from repro.core.terms import same_term

    return same_term(a, b)


# ---------------------------------------------------------------------------
# The head index: same plans as scanning every rule, fewer attempts
# ---------------------------------------------------------------------------


class _FullScanStep(OptimizerStep):
    """Reference: every rule of the step, in list order, at every node."""

    __slots__ = ()

    def rules_at(self, term):
        return self.rules


def _full_scan(optimizer):
    return Optimizer(
        [
            _FullScanStep(s.name, s.rules, s.strategy, s.cost_based)
            for s in optimizer.steps
        ]
    )


OPTIMIZERS = {
    "standard": standard_optimizer,
    "misordered": misordered_optimizer,
    "cost_based": cost_based_optimizer,
    "cost_based_shuffled": lambda: cost_based_optimizer(shuffled=True),
}

SHAPES_SCHEMA = """
type city = tuple(<(cname, string), (center, point), (pop, int)>)
type state = tuple(<(sname, string), (region, pgon)>)
type item = tuple(<(k, int), (name, string), (grp, int)>)
type order = tuple(<(oid, int), (cust, int)>)
type customer = tuple(<(cid, int), (cname, string)>)
create cities : rel(city)
create states : rel(state)
create cities_rep : btree(city, pop, int)
create states_rep : lsdtree(state, fun (s: state) bbox(s region))
update rep := insert(rep, cities, cities_rep)
update rep := insert(rep, states, states_rep)
create items : rel(item)
create items_rep : btree(item, k, int)
update rep := insert(rep, items, items_rep)
create orders : rel(order)
create customers : rel(customer)
create orders_rep : srel(order)
create customers_rep : btree(customer, cid, int)
update rep := insert(rep, orders, orders_rep)
update rep := insert(rep, customers, customers_rep)
create c : city
update c := mktuple[<(cname, "Hagen"), (center, pt(5, 5)), (pop, 190000)>]
update cities := insert(cities, c)
update states := insert(states, mktuple[<(sname, "s0"), (region, region_box(0, 0, 20, 100))>])
update items := insert(items, mktuple[<(k, 1), (name, "a"), (grp, 2)>])
update orders := insert(orders, mktuple[<(oid, 1), (cust, 1)>])
update customers := insert(customers, mktuple[<(cid, 1), (cname, "x")>])
"""

# The statement shapes of the shipped examples (examples/*.py, run by
# tests/test_examples.py) and the four sosbench oltp shapes (point select,
# range select, insert, delete), plus joins over a selection.
SHAPES = [
    "query cities select[pop > 1000000]",
    "query cities select[pop >= 1000000]",
    "query cities select[pop < 5000]",
    "query cities select[pop <= 5000]",
    "query cities select[pop = 190000]",
    "query cities select[pop >= 10 and pop <= 20]",
    'query cities select[cname = "Hagen"]',
    "query cities select[pop > 10] select[pop < 100]",
    "query cities states join[center inside region]",
    "query cities select[pop > 100] states join[center inside region]",
    "query orders customers join[cust = cid]",
    "query items select[k = 7]",
    "query items select[k >= 3 and k <= 9]",
    "update cities := insert(cities, c)",
    'update cities := insert(cities, mktuple[<(cname, "B"), (center, pt(1, 1)), (pop, 3)>])',
    "update cities := delete(cities, pop <= 10000)",
    'update cities := modify(cities, cname = "Madras", pop, pop * 2)',
    'update cities := modify(cities, pop >= 8000000, cname, "Chennai")',
    'update items := insert(items, mktuple[<(k, 5), (name, "b"), (grp, 3)>])',
    "update items := delete(items, k = 5)",
    'update items := modify(items, grp = 3, name, "z")',
]


@pytest.fixture(scope="module")
def shapes_system():
    system = build_relational_system()
    system.run(SHAPES_SCHEMA)
    return system


def _statement_term(system, source):
    """The typechecked expression of a model-level statement, as the
    system hands it to the optimizer."""
    statement = system.make_parser().parse_statement(source)
    tc = system.database.typechecker
    if source.startswith("update"):
        obj = system.database.objects[statement.name]
        return tc.check_value_term(statement.expr, obj.type)
    return tc.check(statement.expr)


def _outcome(optimizer, system, term):
    trace = RuleTrace()
    try:
        result = optimizer.optimize(term, system.database, trace)
    except OptimizationError as exc:
        return ("error", str(exc)), trace, 0
    fired = [(f.rule, f.step, f.before, f.after) for f in trace.fired]
    return (result.fired, format_term(result.term), fired), trace, result.tried


class TestHeadIndex:
    @pytest.mark.parametrize("name", sorted(OPTIMIZERS))
    @pytest.mark.parametrize("source", SHAPES)
    def test_same_plan_as_scanning_every_rule(self, shapes_system, name, source):
        # One term for both runs: the parser's fresh lambda names differ
        # between parses, and the optimizer leaves its input as it was.
        term = _statement_term(shapes_system, source)
        indexed = OPTIMIZERS[name]()
        got, _, tried = _outcome(indexed, shapes_system, term)
        want, _, tried_all = _outcome(_full_scan(indexed), shapes_system, term)
        assert got == want
        assert tried <= tried_all

    def test_point_select_attempts_only_matching_heads(self, shapes_system):
        term = _statement_term(shapes_system, "query items select[k = 7]")
        _, trace, tried = _outcome(standard_optimizer(), shapes_system, term)
        _, _, tried_all = _outcome(
            _full_scan(standard_optimizer()), shapes_system, term
        )
        assert [f.rule for f in trace.fired] == ["select_eq_btree_range"]
        assert tried < 20 < tried_all
        attempted = set(trace.attempts)
        heads = {r.name: r.lhs.op for s in standard_optimizer().steps for r in s.rules}
        assert {heads[r] for r in attempted} == {"select"}

    def test_headless_rules_are_attempted_at_every_node(self, db):
        op_var = RewriteRule(
            name="op_var_head",
            variables=rule_vars(RuleVar("f"), RuleVar("x")),
            lhs=Apply("f", (Var("x"), Literal(99))),
            rhs=Var("x"),
        )
        literal = RewriteRule(
            name="literal_head", variables={}, lhs=Literal(42), rhs=Literal(43)
        )
        add_zero = add_zero_rule()
        step = OptimizerStep("s", [op_var, add_zero, literal], "once_topdown")
        assert step.rules_at(Apply("+", (Literal(1), Literal(2)))) == (
            op_var, add_zero, literal,
        )
        assert step.rules_at(Apply("*", (Literal(1), Literal(2)))) == (
            op_var, literal,
        )
        assert step.rules_at(Literal(1)) == (op_var, literal)

        term = _typed(db, "(1 + 2) * 3")
        nodes = len(list(walk_terms(term)))
        trace = RuleTrace()
        result = Optimizer([step]).optimize(term, db, trace)
        assert result.fired == []
        assert sum(trace.attempts["op_var_head"].values()) == nodes
        assert sum(trace.attempts["literal_head"].values()) == nodes
        assert trace.attempts["add_zero"] == {"no_match": 1}

    def test_rules_are_a_tuple(self):
        step = OptimizerStep("s", [add_zero_rule()])
        assert isinstance(step.rules, tuple)
        with pytest.raises(AttributeError):
            step.rules = ()


# ---------------------------------------------------------------------------
# Rewriting builds new terms; the input is never modified
# ---------------------------------------------------------------------------


def _snapshot(term):
    """``(id, type, resolved)`` of every node, pre-order, plus the nodes
    themselves: holding them keeps their ids from being reused."""
    nodes = list(walk_terms(term))
    return nodes, [(id(n), n.type, getattr(n, "resolved", None)) for n in nodes]


def _assert_unchanged(term, snapshot):
    assert _snapshot(term)[1] == snapshot[1]


class TestNonMutation:
    @pytest.mark.parametrize(
        "strategy", ["exhaustive", "once_topdown", "once_bottomup"]
    )
    @pytest.mark.parametrize("source", ["((1 + 0) + 0) + 0", "((1 + 0) + 0) * 2"])
    def test_rewrite_below_the_root_leaves_input_intact(self, db, strategy, source):
        term = _typed(db, source)
        text = format_term(term)
        snapshot = _snapshot(term)
        opt = Optimizer([OptimizerStep("s", [add_zero_rule()], strategy)])
        result = opt.optimize(term, db)
        assert result.fired
        _assert_unchanged(term, snapshot)
        assert format_term(term) == text

    @pytest.mark.parametrize(
        "strategy", ["exhaustive", "once_topdown", "once_bottomup"]
    )
    def test_select_under_join_leaves_input_intact(self, loaded_system, strategy):
        # select_fusion rewrites the selection below the join first.
        term = _statement_term(
            loaded_system,
            "query cities select[pop > 100] select[pop < 900] "
            "states join[center inside region]",
        )
        text = format_term(term)
        snapshot = _snapshot(term)
        opt = Optimizer(
            [
                OptimizerStep("normalize", normalization_rules(), strategy),
                OptimizerStep("translate", query_rules(), strategy),
            ]
        )
        result = opt.optimize(term, loaded_system.database)
        assert result.fired[0] == "select_fusion" and len(result.fired) == 2
        _assert_unchanged(term, snapshot)
        assert format_term(term) == text

    def test_rebuilt_spine_keeps_annotations_and_shares_siblings(self, db):
        term = _typed(db, "(1 + 0) * (2 + 3)")
        opt = Optimizer([OptimizerStep("s", [add_zero_rule()], "once_bottomup")])
        result = opt.optimize(term, db)
        assert result.fired == ["add_zero"]
        new = result.term
        assert new is not term
        assert new.type == term.type and new.resolved is term.resolved
        assert new.args[1] is term.args[1]

    def test_system_result_term_is_the_statement_as_written(self, loaded_system):
        for source in (
            "query cities select[pop >= 5000]",
            "update cities := delete(cities, pop <= 100)",
        ):
            result = loaded_system.run_one(source)
            assert result.level == "model" and result.fired
            written = _statement_term(loaded_system, source)
            # Alpha-equivalence: each parse draws fresh lambda names.
            assert same_shape(result.term, written)
            assert not same_shape(result.translated_term, written)

    def test_explain_output_unchanged(self, loaded_system):
        # Expected values are those of the optimizer that worked on a
        # re-typechecked clone of the statement.
        info = loaded_system.explain("cities select[pop >= 5000]")
        assert info["plan"] == "cities_rep range[5000, top]"
        assert info["fired"] == ["select_ge_btree_range"]
        assert [
            (f["rule"], f["before"], f["after"])
            for f in info["rule_trace"]["fired"]
        ] == [
            (
                "select_ge_btree_range",
                "select(cities, fun (_t1: tuple(<(cname, string), (center, "
                "point), (pop, int)>)) >=(pop(_t1), 5000))",
                "range(cities_rep, 5000, top())",
            )
        ]
        assert info["estimated_cost"] == pytest.approx(9.39231742277876)
        assert info["cost_counters"] == {"cost.stats_miss": 2}
        join = loaded_system.explain(
            "cities select[pop > 100] states join[center inside region]"
        )
        assert join["fired"] == ["join_inside_lsdtree_outer_select"]
        assert join["estimated_cost"] == pytest.approx(272.29419688230416)
        assert join["plan"] == (
            "((cities_rep feed) filter[fun (_t2: tuple(<(cname, string), "
            "(center, point), (pop, int)>)) ((_t2 pop) > 100)]) (fun (t1: "
            "tuple(<(cname, string), (center, point), (pop, int)>)) "
            "(states_rep (t1 center) point_search) filter[fun (t2: "
            "tuple(<(sname, string), (region, pgon)>)) ((t1 center) inside "
            "(t2 region))]) search_join"
        )


# ---------------------------------------------------------------------------
# Bound subterms are shared into the instance; the checker takes each as it
# is wherever its free variables are bound as before
# ---------------------------------------------------------------------------


def requalify_rule():
    """select(r, fun (t: tup) p) => select(r, fun (t: tup) p).

    ``p`` is bound under the pattern's lambda, so it mentions ``t`` whenever
    the selection body does."""
    from repro.core.patterns import PVar

    def shape():
        return Apply("select", (Var("r"), Fun((("t", PVar("tup")),), Var("p"))))

    return RewriteRule(
        name="requalify",
        variables=rule_vars(RuleVar("r"), RuleVar("p")),
        lhs=shape(),
        rhs=shape(),
    )


INT = TypeApp("int")


class TestSharing:
    def test_closed_bound_subterm_is_shared(self, loaded_system):
        term = _statement_term(
            loaded_system,
            "query cities select[pop > 100] states join[center inside region]",
        )
        predicate = term.args[0].args[1]  # the selection's lambda
        snapshot = _snapshot(term)
        result = loaded_system.optimizer.optimize(term, loaded_system.database)
        assert result.fired == ["join_inside_lsdtree_outer_select"]
        assert any(node is predicate for node in walk_terms(result.term))
        _assert_unchanged(term, snapshot)

    def test_open_bound_subterm_is_shared_where_its_binding_holds(self, loaded_system):
        term = _statement_term(
            loaded_system, "query cities select[fun (t: city) pop(t) > 100]"
        )
        body = term.args[1].body
        snapshot = _snapshot(term)
        opt = Optimizer([OptimizerStep("s", [requalify_rule()], "once_topdown")])
        result = opt.optimize(term, loaded_system.database)
        assert result.fired == ["requalify"]
        new = result.term
        assert new.args[0] is term.args[0]  # ``cities``
        # ``pop(t) > 100`` mentions ``t``, which the rebuilt lambda binds at
        # the same type: its annotations hold, so it is not checked again.
        assert new.args[1] is not term.args[1]
        assert new.args[1].body is body
        _assert_unchanged(term, snapshot)

    def test_a_subterm_mentioning_an_enclosing_lambda_is_open(self, db):
        y = Var("y", type=INT)
        subject = Apply("+", (y, Literal(0, type=INT)), type=INT)
        [instance] = add_zero_rule().apply_at(subject, db)
        assert instance is y  # instantiation shares every bound subterm
        # Only a lambda binding ``y`` at ``int`` makes the annotation hold.
        assert db.typechecker.check(instance, {"y": INT}) is y
        with pytest.raises(TypeCheckError):
            db.typechecker.check(instance)
        assert db.typechecker.check(instance, {"y": TypeApp("real")}).type == TypeApp(
            "real"
        )

    def test_rewrite_under_a_lambda_mentioning_its_parameter_does_not_fire(self, db):
        # The engine checks an instance without the parameters of the
        # lambdas around the match site, so ``y + 0`` => ``y`` is rejected
        # inside ``fun (y: int) ...``, exactly as when the subterm was copied.
        term = db.typechecker.check(
            Fun((("y", INT),), Apply("+", (Var("y"), Literal(0))))
        )
        opt = Optimizer([OptimizerStep("s", [add_zero_rule()], "exhaustive")])
        result = opt.optimize(term, db)
        assert result.fired == [] and result.term is term

    def test_typed_term_moves_to_another_system(self):
        """A typed term holds in any database whose objects have the same
        types: a second system optimizes it to the plan it builds itself."""
        program = """
type city = tuple(<(cname, string), (pop, int)>)
create cities : rel(city)
create cities_rep : btree(city, pop, int)
update rep := insert(rep, cities, cities_rep)
"""
        first, second = build_relational_system(), build_relational_system()
        first.run(program)
        second.run(program)
        source = "query cities select[pop = 7]"
        term = _statement_term(first, source)
        own = second.optimizer.optimize(_statement_term(second, source), second.database)
        moved = second.optimizer.optimize(term, second.database)
        assert moved.fired == own.fired == ["select_eq_btree_range"]
        assert moved.term == own.term

    def test_typed_terms_are_shared_by_threads(self, shapes_system):
        """Eight threads, each with its own system, optimize the same typed
        terms at once: every thread gets the plans of a single-threaded run,
        and no shared node changes under them."""
        terms = [_statement_term(shapes_system, source) for source in SHAPES]
        snapshots = [_snapshot(t) for t in terms]

        def plans(system):
            return [
                system.optimizer.optimize(t, system.database).term for t in terms
            ]

        want = plans(shapes_system)
        systems = []
        for _ in range(8):
            system = build_relational_system()
            system.run(SHAPES_SCHEMA)
            systems.append(system)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=len(systems)) as pool:
                futures = [pool.submit(plans, s) for s in systems]
                results = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert all(got == want for got in results)
        for term, snapshot in zip(terms, snapshots):
            _assert_unchanged(term, snapshot)
