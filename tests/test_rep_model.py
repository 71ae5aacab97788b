"""The representation model (experiment E8, paper Section 4)."""

import pytest

from repro.core.algebra import Evaluator, Stream, view
from repro.core.terms import Apply, Fun, ListTerm, Literal, TupleTerm, Var
from repro.core.typecheck import TypeChecker
from repro.core.types import Sym, TermArg, TypeApp, format_type, tuple_type
from repro.errors import NoMatchingOperator, TypeFormationError
from repro.geometry import Point, Polygon
from repro.models.relational import make_tuple
from repro.rep.model import representation_model, tuple_attr_getter
from repro.storage import BTree, LSDTree

INT = TypeApp("int")
STRING = TypeApp("string")
CITY = tuple_type([("cname", STRING), ("center", TypeApp("point")), ("pop", INT)])
STATE = tuple_type([("sname", STRING), ("region", TypeApp("pgon"))])

BTREE_CITY = TypeApp("btree", (CITY, Sym("pop"), INT))


def lsd_state_type():
    key = Fun((("s", STATE),), Apply("bbox", (Apply("region", (Var("s"),)),)))
    return TypeApp("lsdtree", (STATE, TermArg(key)))


@pytest.fixture()
def env():
    sos, algebra = representation_model()
    lsd_t = lsd_state_type()
    objects = {"cities_rep": BTREE_CITY, "states_rep": lsd_t}
    tc = TypeChecker(sos, object_types=objects.get)
    sos.type_system.term_typer = lambda fun, expected: tc._check_fun(
        fun, {}, expected_params=tuple(expected)
    )
    sos.type_system.check_type(lsd_t)

    values = {}
    ev = Evaluator(algebra, resolver=values.get)

    bt = BTree(key=tuple_attr_getter(CITY, "pop"))
    bt.rep_type = BTREE_CITY
    bt.tuple_type = CITY
    for i in range(20):
        bt.insert(
            make_tuple(CITY, cname=f"c{i}", center=Point(i * 5 + 2, 50), pop=i * 100)
        )
    from repro.core.algebra import Closure

    lsd = LSDTree(key=Closure(lsd_t.args[1].term, {}, ev))
    lsd.rep_type = lsd_t
    lsd.tuple_type = STATE
    for i in range(5):
        lsd.insert(
            make_tuple(
                STATE, sname=f"s{i}", region=Polygon.rectangle(i * 20, 0, i * 20 + 20, 100)
            )
        )
    values.update({"cities_rep": bt, "states_rep": lsd})
    return sos, tc, ev, bt, lsd


class TestTypeSystem:
    def test_kinds(self, env):
        sos, *_ = env
        names = {k.name for k in sos.type_system.kinds}
        assert {
            "ORD",
            "STREAM",
            "SREL",
            "TIDREL",
            "BTREE",
            "LSDTREE",
            "RELREP",
        } <= names

    def test_ord_members(self, env):
        sos, *_ = env
        assert sos.type_system.has_kind(INT, "ORD")
        assert sos.type_system.has_kind(STRING, "ORD")
        assert not sos.type_system.has_kind(TypeApp("pgon"), "ORD")

    def test_btree_attr_constructor_spec(self, env):
        sos, *_ = env
        sos.type_system.check_type(BTREE_CITY)
        with pytest.raises(TypeFormationError):
            sos.type_system.check_type(TypeApp("btree", (CITY, Sym("ghost"), INT)))
        with pytest.raises(TypeFormationError):
            # pop has type int, not string
            sos.type_system.check_type(TypeApp("btree", (CITY, Sym("pop"), STRING)))

    def test_btree_function_variant(self, env):
        sos, *_ = env
        key = Fun((("c", CITY),), Apply("pop", (Var("c"),)))
        sos.type_system.check_type(TypeApp("btree", (CITY, TermArg(key))))

    def test_btree_key_function_body_is_typechecked(self, env):
        sos, *_ = env
        bad = Fun((("c", CITY),), Apply("ghost_attr", (Var("c"),)))
        with pytest.raises(TypeFormationError):
            sos.type_system.check_type(TypeApp("btree", (CITY, TermArg(bad))))

    def test_lsdtree_key_must_yield_rect(self, env):
        sos, *_ = env
        bad = Fun((("s", STATE),), Apply("sname", (Var("s"),)))
        with pytest.raises(TypeFormationError):
            sos.type_system.check_type(TypeApp("lsdtree", (STATE, TermArg(bad))))

    def test_subtype_order(self, env):
        sos, *_ = env
        relrep = TypeApp("relrep", (CITY,))
        assert sos.subtypes.is_subtype(BTREE_CITY, relrep)
        assert sos.subtypes.is_subtype(TypeApp("srel", (CITY,)), relrep)
        assert sos.subtypes.is_subtype(TypeApp("tidrel", (CITY,)), relrep)
        assert sos.subtypes.is_subtype(
            lsd_state_type(), TypeApp("relrep", (STATE,))
        )


class TestStreamOperators:
    def test_feed_via_subtype_polymorphism(self, env):
        sos, tc, ev, bt, lsd = env
        term = tc.check(Apply("feed", (Var("cities_rep"),)))
        assert format_type(term.type) == f"stream({format_type(CITY)})"
        assert len(list(ev.eval(term))) == 20

    def test_filter(self, env):
        _, tc, ev, *_ = env
        term = tc.check(
            Apply(
                "filter",
                (Apply("feed", (Var("cities_rep"),)), Apply(">", (Var("pop"), Literal(1500)))),
            )
        )
        assert len(list(ev.eval(term))) == 4

    def test_project_computes_new_schema(self, env):
        _, tc, ev, *_ = env
        term = tc.check(
            Apply(
                "project",
                (
                    Apply("feed", (Var("cities_rep"),)),
                    ListTerm(
                        (
                            TupleTerm((Var("n"), Var("cname"))),
                            TupleTerm(
                                (
                                    Var("hundreds"),
                                    Fun(
                                        (("c", CITY),),
                                        Apply("div", (Apply("pop", (Var("c"),)), Literal(100))),
                                    ),
                                )
                            ),
                        )
                    ),
                ),
            )
        )
        assert format_type(term.type) == "stream(tuple(<(n, string), (hundreds, int)>))"
        rows = list(ev.eval(term))
        assert rows[0].attr("hundreds") == 0
        assert rows[5].attr("hundreds") == 5

    def test_replace(self, env):
        _, tc, ev, *_ = env
        term = tc.check(
            Apply(
                "replace",
                (
                    Apply("feed", (Var("cities_rep"),)),
                    Var("pop"),
                    Fun((("c", CITY),), Apply("*", (Apply("pop", (Var("c"),)), Literal(2)))),
                ),
            )
        )
        rows = list(ev.eval(term))
        assert rows[1].attr("pop") == 200

    def test_replace_wrong_type_rejected(self, env):
        _, tc, ev, *_ = env
        with pytest.raises(NoMatchingOperator):
            tc.check(
                Apply(
                    "replace",
                    (
                        Apply("feed", (Var("cities_rep"),)),
                        Var("pop"),
                        Fun((("c", CITY),), Apply("cname", (Var("c"),))),
                    ),
                )
            )

    def test_collect_gives_rescannable_srel(self, env):
        _, tc, ev, *_ = env
        term = tc.check(Apply("collect", (Apply("feed", (Var("cities_rep"),)),)))
        assert format_type(term.type) == f"srel({format_type(CITY)})"
        srel = ev.eval(term)
        assert len(list(srel.scan())) == 20
        assert len(list(srel.scan())) == 20  # repeatable, unlike a stream

    def test_head_and_count(self, env):
        _, tc, ev, *_ = env
        term = tc.check(
            Apply("count", (Apply("head", (Apply("feed", (Var("cities_rep"),)), Literal(7))),))
        )
        assert ev.eval(term) == 7


class TestSearchOperators:
    def test_range_inclusive(self, env):
        _, tc, ev, *_ = env
        term = tc.check(Apply("range", (Var("cities_rep"), Literal(500), Literal(800))))
        assert [t.attr("pop") for t in ev.eval(term)] == [500, 600, 700, 800]

    def test_range_halfranges(self, env):
        _, tc, ev, *_ = env
        low = tc.check(Apply("range", (Var("cities_rep"), Var("bottom"), Literal(200))))
        assert len(list(ev.eval(low))) == 3
        high = tc.check(Apply("range", (Var("cities_rep"), Literal(1700), Var("top"))))
        assert len(list(ev.eval(high))) == 3

    def test_range_wrong_key_type_rejected(self, env):
        _, tc, ev, *_ = env
        with pytest.raises(NoMatchingOperator):
            tc.check(Apply("range", (Var("cities_rep"), Literal("a"), Literal("z"))))

    def test_exact(self, env):
        _, tc, ev, *_ = env
        term = tc.check(Apply("exact", (Var("cities_rep"), Literal(700))))
        assert [t.attr("cname") for t in ev.eval(term)] == ["c7"]

    def test_point_search(self, env):
        _, tc, ev, *_ = env
        term = tc.check(
            Apply("point_search", (Var("states_rep"), Apply("pt", (Literal(30), Literal(50)))))
        )
        assert [t.attr("sname") for t in ev.eval(term)] == ["s1"]

    def test_overlap_search(self, env):
        _, tc, ev, *_ = env
        term = tc.check(
            Apply(
                "overlap_search",
                (Var("states_rep"), Apply("box", (Literal(10), Literal(0), Literal(50), Literal(10)))),
            )
        )
        assert sorted(t.attr("sname") for t in ev.eval(term)) == ["s0", "s1", "s2"]


class TestSearchJoin:
    """Both Section 4 plans compute the same join."""

    def _plan(self, tc, inner_body):
        return tc.check(
            Apply(
                "search_join",
                (Apply("feed", (Var("cities_rep"),)), Fun((("c", CITY),), inner_body)),
            )
        )

    def test_plans_agree(self, env):
        _, tc, ev, *_ = env
        pred = Fun(
            (("s", STATE),),
            Apply("inside", (Apply("center", (Var("c"),)), Apply("region", (Var("s"),)))),
        )
        scan_plan = self._plan(
            tc, Apply("filter", (Apply("feed", (Var("states_rep"),)), pred))
        )

        pred2 = Fun(
            (("s", STATE),),
            Apply("inside", (Apply("center", (Var("c"),)), Apply("region", (Var("s"),)))),
        )
        index_plan = self._plan(
            tc,
            Apply(
                "filter",
                (
                    Apply("point_search", (Var("states_rep"), Apply("center", (Var("c"),)))),
                    pred2,
                ),
            ),
        )
        rows1 = sorted(
            (t.attr("cname"), t.attr("sname")) for t in Stream.materialize(ev.eval(scan_plan))
        )
        rows2 = sorted(
            (t.attr("cname"), t.attr("sname")) for t in Stream.materialize(ev.eval(index_plan))
        )
        assert rows1 == rows2
        assert len(rows1) == 20

    def test_result_schema_is_concatenation(self, env):
        _, tc, ev, *_ = env
        pred = Fun(
            (("s", STATE),),
            Apply("inside", (Apply("center", (Var("c"),)), Apply("region", (Var("s"),)))),
        )
        plan = self._plan(tc, Apply("filter", (Apply("feed", (Var("states_rep"),)), pred)))
        assert format_type(plan.type) == (
            "stream(tuple(<(cname, string), (center, point), (pop, int), "
            "(sname, string), (region, pgon)>))"
        )


class TestStructureUpdates:
    def test_btree_insert_via_algebra(self, env):
        _, tc, ev, bt, _ = env
        new = make_tuple(CITY, cname="x", center=Point(1, 1), pop=55)
        lit = Literal(new, CITY)
        term = tc.check(Apply("insert", (Var("cities_rep"), lit)))
        ev.eval(term, allow_update=True)
        assert len(bt) == 21

    def test_btree_delete_via_range_stream(self, env):
        _, tc, ev, bt, _ = env
        term = tc.check(
            Apply(
                "delete",
                (Var("cities_rep"), Apply("range", (Var("cities_rep"), Var("bottom"), Literal(400)))),
            )
        )
        ev.eval(term, allow_update=True)
        assert len(bt) == 15

    def test_btree_re_insert_key_update(self, env):
        # Section 6: pop := pop * 2 for one city, via re_insert
        _, tc, ev, bt, _ = env
        term = tc.check(
            Apply(
                "re_insert",
                (
                    Var("cities_rep"),
                    Apply("exact", (Var("cities_rep"), Literal(100))),
                    Fun(
                        (("s", TypeApp("stream", (CITY,))),),
                        Apply(
                            "replace",
                            (
                                Var("s"),
                                Var("pop"),
                                Fun(
                                    (("c", CITY),),
                                    Apply("*", (Apply("pop", (Var("c"),)), Literal(20))),
                                ),
                            ),
                        ),
                    ),
                ),
            )
        )
        ev.eval(term, allow_update=True)
        pops = [view(CITY, t).attr("pop") for t in bt.scan()]
        assert 100 not in pops
        assert pops == sorted(pops)
        assert 2000 in pops
