"""The graph model extension (the [ErG91] direction the paper cites)."""

import pytest

from repro.catalog import Database
from repro.errors import ExecutionError, TypeFormationError
from repro.models.graph import GraphValue, graph_model
from repro.system import SOSSystem


@pytest.fixture()
def interp():
    sos, algebra = graph_model()
    return SOSSystem(Database(sos, algebra))


PROGRAM = """
type person = tuple(<(name, string), (age, int)>)
type knows = tuple(<(since, int)>)
create social : graph(person, knows)
update social := add_node(social, 1, mktuple[<(name, "ann"), (age, 30)>])
update social := add_node(social, 2, mktuple[<(name, "bob"), (age, 40)>])
update social := add_node(social, 3, mktuple[<(name, "cia"), (age, 25)>])
update social := add_node(social, 4, mktuple[<(name, "dan"), (age, 55)>])
update social := add_edge(social, 1, 2, mktuple[<(since, 2010)>])
update social := add_edge(social, 2, 3, mktuple[<(since, 2015)>])
update social := add_edge(social, 1, 3, mktuple[<(since, 2020)>])
"""


@pytest.fixture()
def social(interp):
    interp.run(PROGRAM)
    return interp


class TestTypeSystem:
    def test_graph_type_well_formed(self, interp):
        interp.run("type n = tuple(<(a, int)>)")
        t = interp.make_parser().parse_type("graph(n, n)")
        interp.database.sos.type_system.check_type(t)

    def test_graph_needs_tuple_arguments(self, interp):
        from repro.core.types import TypeApp

        with pytest.raises(TypeFormationError):
            interp.database.sos.type_system.check_type(
                TypeApp("graph", (TypeApp("int"), TypeApp("int")))
            )


class TestQueries:
    def test_nodes_relation(self, social):
        r = social.run_one("query social nodes")
        assert sorted(t.attr("name") for t in r.value.rows) == [
            "ann",
            "bob",
            "cia",
            "dan",
        ]

    def test_edges_relation(self, social):
        r = social.run_one("query social edges")
        assert sorted(t.attr("since") for t in r.value.rows) == [2010, 2015, 2020]

    def test_succ(self, social):
        r = social.run_one("query social succ[1]")
        assert sorted(t.attr("name") for t in r.value.rows) == ["bob", "cia"]

    def test_pred(self, social):
        r = social.run_one("query social pred[3]")
        assert sorted(t.attr("name") for t in r.value.rows) == ["ann", "bob"]

    def test_reachable(self, social):
        r = social.run_one("query social reachable[2]")
        assert sorted(t.attr("name") for t in r.value.rows) == ["bob", "cia"]

    def test_shortest_path(self, social):
        r = social.run_one("query social shortest_path[1, 3]")
        assert [t.attr("name") for t in r.value.rows] == ["ann", "cia"]

    def test_shortest_path_missing(self, social):
        r = social.run_one("query social shortest_path[3, 1]")
        assert r.value.rows == []

    def test_degree(self, social):
        assert social.run_one("query social degree[3]").value == 2
        assert social.run_one("query social degree[4]").value == 0

    def test_compose_with_select(self, social):
        r = social.run_one("query social nodes select[age > 28]")
        assert sorted(t.attr("name") for t in r.value.rows) == ["ann", "bob", "dan"]

    def test_select_over_succ(self, social):
        r = social.run_one("query social succ[1] select[age > 30]")
        assert [t.attr("name") for t in r.value.rows] == ["bob"]


class TestUpdates:
    def test_edge_endpoints_must_exist(self, social):
        with pytest.raises(ExecutionError):
            social.run_one(
                "update social := add_edge(social, 1, 99, mktuple[<(since, 1)>])"
            )

    def test_graph_carrier(self, social):
        value = social.database.objects["social"].value
        assert isinstance(value, GraphValue)
        assert len(value) == 4
