"""The full Section 6 update session (experiment E10)."""

import pytest

from repro.core.algebra import view
from repro.errors import OptimizationError
from repro.system import build_relational_system


@pytest.fixture()
def session():
    system = build_relational_system()
    system.run(
        """
type city = tuple(<(cname, string), (center, point), (pop, int)>)
create cities : rel(city)
create cities_rep : btree(city, pop, int)
update rep := insert(rep, cities, cities_rep)
"""
    )
    return system


def city_literal(name, x, y, pop):
    return (
        f'mktuple[<(cname, "{name}"), (center, pt({x}, {y})), (pop, {pop})>]'
    )


class TestSection6Session:
    def test_statement_levels_match_paper(self, session):
        # H type city / M create cities / R create cities_rep / R update rep
        results = session.run("create c : city")
        assert results[0].level == "hybrid"
        assert session.database.objects["cities"].level == "model"
        assert session.database.objects["cities_rep"].level == "rep"

    def test_hybrid_tuple_object_update(self, session):
        session.run_one("create c : city")
        r = session.run_one(f"update c := {city_literal('Hagen', 5, 5, 210)}")
        assert not r.translated  # hybrid, executed directly

    def test_model_insert_translates_to_structure_insert(self, session):
        session.run_one("create c : city")
        session.run_one(f"update c := {city_literal('Hagen', 5, 5, 210)}")
        r = session.run_one("update cities := insert(cities, c)")
        assert r.translated
        assert r.generated_statement() == "update cities_rep := insert(cities_rep, c)"
        assert len(session.database.objects["cities_rep"].value) == 1

    def test_model_relation_itself_stays_virtual(self, session):
        session.run_one("create c : city")
        session.run_one(f"update c := {city_literal('Hagen', 5, 5, 210)}")
        session.run_one("update cities := insert(cities, c)")
        assert session.database.objects["cities"].value is None

    def test_delete_by_key_range_uses_range_search(self, session):
        for i, pop in enumerate([100, 5000, 20000, 8000]):
            session.run_one(
                f"update cities := insert(cities, {city_literal('c%d' % i, i, i, pop)})"
            )
        r = session.run_one("update cities := delete(cities, pop <= 10000)")
        assert r.fired == ["delete_le_btree_range"]
        generated = r.generated_statement()
        # The paper's plan: victims found by a B-tree halfrange search.
        # (Concrete syntax prints the nullary constant bare so it re-parses.)
        assert "cities_rep range[bottom, 10000]" in generated
        assert "range(cities_rep, bottom(), 10000)" in r.generated_statement(
            concrete=False
        )
        bt = session.database.objects["cities_rep"].value
        city = session.database.aliases["city"]
        assert [view(city, t).attr("pop") for t in bt.scan()] == [20000]

    def test_key_update_translates_to_re_insert(self, session):
        # The paper's final example: pop := pop * 1.1 — here * 2 to stay int.
        for i, pop in enumerate([100, 5000, 20000]):
            session.run_one(
                f"update cities := insert(cities, {city_literal('c%d' % i, i, i, pop)})"
            )
        r = session.run_one('update cities := modify(cities, cname = "c0", pop, pop * 2)')
        assert r.fired == ["modify_key_re_insert"]
        assert "re_insert(cities_rep" in r.generated_statement()
        assert "replace[pop" in r.generated_statement()
        assert "replace(s, pop" in r.generated_statement(concrete=False)
        bt = session.database.objects["cities_rep"].value
        city = session.database.aliases["city"]
        assert sorted(view(city, t).attr("pop") for t in bt.scan()) == [200, 5000, 20000]
        bt.check_invariants()

    def test_non_key_update_modifies_in_situ(self, session):
        session.run_one(
            f"update cities := insert(cities, {city_literal('old', 1, 1, 7)})"
        )
        r = session.run_one(
            'update cities := modify(cities, pop = 7, cname, "new")'
        )
        assert r.fired == ["modify_in_situ"]
        bt = session.database.objects["cities_rep"].value
        city = session.database.aliases["city"]
        assert [view(city, t).attr("cname") for t in bt.scan()] == ["new"]

    def test_bulk_rel_insert(self, session):
        session.run(
            """
create more : rel(city)
create more_rep : btree(city, pop, int)
update rep := insert(rep, more, more_rep)
"""
        )
        for i in range(5):
            session.run_one(
                f"update more := insert(more, {city_literal('m%d' % i, i, i, i * 10)})"
            )
        r = session.run_one("update cities := rel_insert(cities, more)")
        assert r.fired == ["rel_insert_to_rep"]
        assert len(session.database.objects["cities_rep"].value) == 5

    def test_untranslatable_update_raises(self, session):
        session.run_one("create loners : rel(city)")  # not in the rep catalog
        session.run_one("create c : city")
        session.run_one(f"update c := {city_literal('x', 1, 1, 1)}")
        with pytest.raises(OptimizationError):
            session.run_one("update loners := insert(loners, c)")

    def test_catalog_is_an_ordinary_object(self, session):
        cat = session.database.objects["rep"].value
        assert len(cat) == 1
        rows = list(cat.lookup((None, None)))
        assert rows[0][0].name == "cities"
        assert rows[0][1].name == "cities_rep"

    def test_model_query_roundtrip_after_updates(self, session):
        for i, pop in enumerate([100, 5000, 20000]):
            session.run_one(
                f"update cities := insert(cities, {city_literal('c%d' % i, i, i, pop)})"
            )
        r = session.run_one("query cities select[pop >= 5000]")
        assert sorted(t.attr("cname") for t in r.value) == ["c1", "c2"]
