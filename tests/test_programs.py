"""Whole programs through a system with no optimizer (experiment E6, Section 2.4)."""

import pytest

from repro.catalog import Database
from repro.core.algebra import SecondOrderAlgebra
from repro.core.sos import SignatureBuilder
from repro.errors import CatalogError, ExecutionError, TypeCheckError, UpdateError
from repro.models.base import add_base_level, register_base_carriers
from repro.models.relational import add_relational_level, register_relational_carriers
from repro.system import SOSSystem


@pytest.fixture()
def interp():
    builder = SignatureBuilder()
    add_base_level(builder)
    add_relational_level(builder)
    sos = builder.build()
    algebra = SecondOrderAlgebra(sos)
    register_base_carriers(algebra)
    register_relational_carriers(algebra)
    return SOSSystem(Database(sos, algebra))


CITIES_PROGRAM = """
type city = tuple(< (name, string), (pop, int), (country, string) >)
type city_rel = rel(city)
create cities : city_rel
update cities := insert(cities, mktuple[<(name, "Berlin"), (pop, 3500000), (country, "Germany")>])
update cities := insert(cities, mktuple[<(name, "Paris"), (pop, 2100000), (country, "France")>])
update cities := insert(cities, mktuple[<(name, "Hagen"), (pop, 210000), (country, "Germany")>])
"""


class TestPaperProgram:
    """The Section 2.4 example program."""

    def test_program_runs(self, interp):
        results = interp.run(CITIES_PROGRAM)
        assert [r.kind for r in results] == ["type"] * 2 + ["create"] + ["update"] * 3

    def test_query(self, interp):
        interp.run(CITIES_PROGRAM)
        result = interp.run_one("query cities select[pop > 1000000]")
        assert sorted(t.attr("name") for t in result.value.rows) == ["Berlin", "Paris"]

    def test_view_without_special_construct(self, interp):
        interp.run(CITIES_PROGRAM)
        interp.run(
            """
create french_cities : ( -> city_rel)
update french_cities := fun () cities select[country = "France"]
"""
        )
        result = interp.run_one("query french_cities select[pop > 1000000]")
        assert [t.attr("name") for t in result.value.rows] == ["Paris"]

    def test_view_reflects_base_updates(self, interp):
        interp.run(CITIES_PROGRAM)
        interp.run(
            """
create french_cities : ( -> city_rel)
update french_cities := fun () cities select[country = "France"]
update cities := insert(cities, mktuple[<(name, "Lyon"), (pop, 520000), (country, "France")>])
"""
        )
        result = interp.run_one("query french_cities select[pop > 0]")
        assert sorted(t.attr("name") for t in result.value.rows) == ["Lyon", "Paris"]

    def test_parameterized_view(self, interp):
        interp.run(CITIES_PROGRAM)
        interp.run(
            """
create cities_in : (string -> city_rel)
update cities_in := fun (c: string) cities select[country = c]
"""
        )
        result = interp.run_one('query cities_in("Germany")')
        assert sorted(t.attr("name") for t in result.value.rows) == ["Berlin", "Hagen"]

    def test_delete_statement(self, interp):
        interp.run(CITIES_PROGRAM)
        interp.run_one("delete cities")
        with pytest.raises(TypeCheckError):
            interp.run_one("query cities")


class TestUpdateSemantics:
    def test_update_function_first_arg_must_be_target(self, interp):
        interp.run(CITIES_PROGRAM)
        interp.run_one("create other : city_rel")
        with pytest.raises(UpdateError):
            interp.run_one(
                'update other := insert(cities, mktuple[<(name, "X"), (pop, 1), (country, "Y")>])'
            )

    def test_plain_assignment_update(self, interp):
        interp.run(CITIES_PROGRAM)
        interp.run_one("create copy : city_rel")
        interp.run_one("update copy := cities select[pop > 1000000]")
        assert len(interp.database.objects["copy"].value) == 2

    def test_update_value_must_match_type(self, interp):
        interp.run(CITIES_PROGRAM)
        with pytest.raises(TypeCheckError):
            interp.run_one("update cities := 42")

    def test_update_unknown_object(self, interp):
        with pytest.raises(CatalogError):
            interp.run_one("update ghost := 1")

    def test_create_duplicate_rejected(self, interp):
        interp.run(CITIES_PROGRAM)
        with pytest.raises(CatalogError):
            interp.run_one("create cities : city_rel")

    def test_relations_auto_initialize_empty(self, interp):
        interp.run_one("type t = tuple(<(a, int)>)")
        interp.run_one("create r : rel(t)")
        result = interp.run_one("query r")
        assert len(result.value.rows) == 0

    def test_view_object_starts_undefined(self, interp):
        interp.run(CITIES_PROGRAM)
        interp.run_one("create v : ( -> city_rel)")
        with pytest.raises(ExecutionError):
            interp.run_one("query v select[pop > 0]")

    def test_update_via_empty_constant(self, interp):
        interp.run(CITIES_PROGRAM)
        interp.run_one("update cities := empty")
        assert len(interp.database.objects["cities"].value) == 0
