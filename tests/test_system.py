"""The SOS system front end: classification and mixed-program processing."""

import pytest

from benchmarks.helpers import build_spatial_system
from repro.core.types import TypeApp, rel_type, tuple_type
from repro.errors import CatalogError, OptimizationError
from repro.storage.io import GLOBAL_PAGES
from repro.system import build_model_interpreter

INT = TypeApp("int")


class TestLevelClassification:
    def test_type_levels(self, system):
        db = system.database
        city = tuple_type([("a", INT)])  # note: attr name 'a' reused below
        assert db.level_of_type(city) == "hybrid"
        assert db.level_of_type(rel_type(city)) == "model"
        from repro.core.types import Sym

        btree_t = TypeApp("btree", (city, Sym("a"), TypeApp("int")))
        assert db.level_of_type(btree_t) == "rep"
        assert db.level_of_type(TypeApp("srel", (city,))) == "rep"
        assert db.level_of_type(TypeApp("stream", (city,))) == "rep"
        assert db.level_of_type(TypeApp("catalog", (TypeApp("ident"),))) == "hybrid"

    def test_mixed_level_type_rejected(self, system):
        db = system.database
        # a relation of streams mixes model and rep constructors
        bad = TypeApp("rel", (TypeApp("srel", (tuple_type([("a", INT)]),)),))
        with pytest.raises(CatalogError):
            db.level_of_type(bad)

    def test_statement_levels(self, loaded_system):
        r = loaded_system.run_one("query cities_rep feed count")
        assert r.level == "rep"
        r = loaded_system.run_one("query 1 + 1")
        assert r.level == "hybrid"
        r = loaded_system.run_one("query cities select[pop >= 0]")
        assert r.level == "model"


class TestQueryProcessing:
    def test_hybrid_query_executes_directly(self, system):
        r = system.run_one("query 2 * 3 + 1")
        assert r.value == 7
        assert not r.translated

    def test_model_query_requires_catalog_entry(self, system):
        system.run(
            """
type t = tuple(<(a, int)>)
create r : rel(t)
"""
        )
        with pytest.raises(OptimizationError):
            system.run_one("query r select[a > 0]")

    def test_query_convenience_method(self, loaded_system):
        result = loaded_system.query("cities_rep feed count")
        assert result.value == 40
        assert result.kind == "query"

    def test_range_plan_reads_fewer_pages_than_scan_plan(self):
        # The B1 selection over the benchmarks' 400-city data set: the
        # B-tree range plan and the feed-filter scan plan count the same
        # 34 rows, the range plan in 4 page reads to the scan's 20.
        system = build_spatial_system(n_cities=400, n_states=1)

        def rows_and_reads(text):
            before = GLOBAL_PAGES.stats.snapshot()
            rows = system.run_one(text).value
            return rows, GLOBAL_PAGES.stats.delta(before).reads

        assert rows_and_reads("query cities_rep range[900000, top] count") == (
            34,
            4,
        )
        assert rows_and_reads(
            "query cities_rep feed filter[pop >= 900000] count"
        ) == (34, 20)

    def test_model_create_leaves_object_virtual(self, system):
        system.run("type t = tuple(<(a, int)>)")
        system.run_one("create r : rel(t)")
        assert system.database.objects["r"].value is None

    def test_rep_create_initializes(self, system):
        system.run("type t = tuple(<(a, int)>)")
        system.run_one("create r : srel(t)")
        assert system.database.objects["r"].value is not None


class TestModelInterpreter:
    def test_direct_model_execution(self):
        interp = build_model_interpreter()
        interp.run(
            """
type t = tuple(<(a, int)>)
create r : rel(t)
update r := insert(r, mktuple[<(a, 5)>])
"""
        )
        result = interp.run_one("query r select[a = 5]")
        assert len(result.value.rows) == 1

    def test_model_and_translated_results_agree(self, loaded_system):
        """The same logical database, queried via translation, agrees with a
        model-level database loaded with the same rows."""
        translated = loaded_system.run_one("query cities select[pop >= 5000]")
        # rebuild at model level from the representation contents
        interp = build_model_interpreter()
        interp.run(
            """
type city = tuple(<(cname, string), (center, point), (pop, int)>)
create cities : rel(city)
"""
        )
        rel = interp.database.objects["cities"].value
        bt = loaded_system.database.objects["cities_rep"].value
        for t in bt.scan():
            rel.insert(t)
        direct = interp.run_one("query cities select[pop >= 5000]")
        a = sorted(t.attr("cname") for t in translated.value)
        b = sorted(t.attr("cname") for t in direct.value.rows)
        assert a == b
