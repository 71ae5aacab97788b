"""Graph model edge cases: multi-edges, self-loops, replacement."""

import pytest

from repro.catalog import Database
from repro.models.graph import graph_model
from repro.system import SOSSystem


@pytest.fixture()
def interp():
    sos, algebra = graph_model()
    interp = SOSSystem(Database(sos, algebra))
    interp.run(
        """
type n = tuple(<(label, string)>)
type e = tuple(<(w, int)>)
create g : graph(n, e)
update g := add_node(g, 1, mktuple[<(label, "a")>])
update g := add_node(g, 2, mktuple[<(label, "b")>])
"""
    )
    return interp


class TestEdgeCases:
    def test_parallel_edges_allowed(self, interp):
        interp.run_one("update g := add_edge(g, 1, 2, mktuple[<(w, 1)>])")
        interp.run_one("update g := add_edge(g, 1, 2, mktuple[<(w, 2)>])")
        r = interp.run_one("query g edges")
        assert sorted(t.attr("w") for t in r.value.rows) == [1, 2]
        assert interp.run_one("query g degree[1]").value == 2

    def test_self_loop(self, interp):
        interp.run_one("update g := add_edge(g, 1, 1, mktuple[<(w, 0)>])")
        r = interp.run_one("query g succ[1]")
        assert [t.attr("label") for t in r.value.rows] == ["a"]
        reach = interp.run_one("query g reachable[1]")
        assert len(reach.value.rows) == 1

    def test_node_replacement_keeps_edges(self, interp):
        interp.run_one("update g := add_edge(g, 1, 2, mktuple[<(w, 1)>])")
        interp.run_one('update g := add_node(g, 1, mktuple[<(label, "a2")>])')
        r = interp.run_one("query g succ[1]")
        assert [t.attr("label") for t in r.value.rows] == ["b"]
        nodes = interp.run_one("query g nodes")
        assert sorted(t.attr("label") for t in nodes.value.rows) == ["a2", "b"]

    def test_shortest_path_to_self(self, interp):
        r = interp.run_one("query g shortest_path[1, 1]")
        assert [t.attr("label") for t in r.value.rows] == ["a"]

    def test_unknown_node_queries_raise(self, interp):
        from repro.errors import ExecutionError

        with pytest.raises(ExecutionError):
            interp.run_one("query g succ[99]")
        with pytest.raises(ExecutionError):
            interp.run_one("query g degree[99]")
