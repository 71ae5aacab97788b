"""A graph data model in the SOS framework.

The paper credits the two-level idea to joint work with Erwig ([ErG91]),
where it was "applied to define a data model that integrates object class
hierarchies with explicit graph structures".  This module demonstrates the
same generality: a graph model defined with the identical machinery —
kinds, type constructors, quantified operators — and an algebra implemented
over ``networkx``.

Type system::

    kinds IDENT, DATA, TUPLE, GRAPH
    type constructors
        -> IDENT                      ident
        -> DATA                       int, real, string, bool
        (ident x DATA)+ -> TUPLE      tuple
        TUPLE x TUPLE -> GRAPH        graph     (node type, edge type)

Nodes carry an integer identity plus a tuple of attributes; edges connect
node identities and carry their own attribute tuple.  Query operators
return relations of node/edge tuples, so the relational operators compose
with graph exploration (``succ``, ``reachable``, ``shortest_path``).
"""

from __future__ import annotations

from repro.core.algebra import Relation, SecondOrderAlgebra, TupleValue
from repro.core.operators import Quantifier
from repro.core.sorts import AppSort, FunSort, KindSort, TypeSort, VarSort
from repro.core.sos import SecondOrderSignature, SignatureBuilder
from repro.core.types import PVar, Type, TypeApp
from repro.errors import ExecutionError
from repro.models.common import (
    BOOL,
    INT,
)
from repro.models.relational import REL_PATTERN, _check_rel, _select_impl

GRAPH_PATTERN = TypeApp("graph", (PVar("ntuple"), PVar("etuple")))


class GraphValue:
    """A graph value: a directed multigraph with attributed nodes/edges."""

    __slots__ = ("type", "g")

    def __init__(self, graph_type: Type):
        import networkx as nx  # imported on first use: it is slow to load

        self.type = graph_type
        self.g = nx.MultiDiGraph()

    @property
    def node_type(self) -> Type:
        assert isinstance(self.type, TypeApp)
        return self.type.args[0]  # type: ignore[return-value]

    @property
    def edge_type(self) -> Type:
        assert isinstance(self.type, TypeApp)
        return self.type.args[1]  # type: ignore[return-value]

    def clone(self) -> "GraphValue":
        """A snapshot copy: the graph topology and attribute dicts are
        copied, the (immutable) attribute tuples are shared."""
        twin = GraphValue(self.type)
        twin.g = self.g.copy()
        return twin

    def add_node(self, node_id: int, attrs: TupleValue) -> None:
        self.g.add_node(node_id, attrs=attrs)

    def add_edge(self, source: int, target: int, attrs: TupleValue) -> None:
        if source not in self.g or target not in self.g:
            raise ExecutionError(
                f"edge endpoints must exist: {source} -> {target}"
            )
        self.g.add_edge(source, target, attrs=attrs)

    def node_attrs(self, node_id: int) -> TupleValue:
        try:
            return self.g.nodes[node_id]["attrs"]
        except KeyError:
            raise ExecutionError(f"no node {node_id} in the graph") from None

    def node_relation(self, rel_type: Type) -> Relation:
        return Relation(
            rel_type, (self.g.nodes[n]["attrs"] for n in sorted(self.g.nodes))
        )

    def edge_relation(self, rel_type: Type) -> Relation:
        return Relation(
            rel_type,
            (data["attrs"] for _, _, data in sorted(
                self.g.edges(data=True), key=lambda e: (e[0], e[1])
            )),
        )

    def __len__(self) -> int:
        return self.g.number_of_nodes()

    def __repr__(self) -> str:
        return (
            f"GraphValue({self.g.number_of_nodes()} nodes, "
            f"{self.g.number_of_edges()} edges)"
        )


# ---------------------------------------------------------------------------
# Operator implementations
# ---------------------------------------------------------------------------


def _empty_graph(ctx) -> GraphValue:
    return GraphValue(ctx.result_type)


def _add_node_impl(ctx, graph: GraphValue, node_id: int, attrs: TupleValue):
    graph.add_node(node_id, attrs)
    return graph


def _add_edge_impl(ctx, graph: GraphValue, source: int, target: int, attrs):
    graph.add_edge(source, target, attrs)
    return graph


def _nodes_impl(ctx, graph: GraphValue) -> Relation:
    return graph.node_relation(ctx.result_type)


def _edges_impl(ctx, graph: GraphValue) -> Relation:
    return graph.edge_relation(ctx.result_type)


def _succ_impl(ctx, graph: GraphValue, node_id: int) -> Relation:
    rel_type = ctx.result_type
    if node_id not in graph.g:
        raise ExecutionError(f"no node {node_id} in the graph")
    return Relation(
        rel_type,
        (graph.node_attrs(s) for s in sorted(graph.g.successors(node_id))),
    )


def _pred_impl(ctx, graph: GraphValue, node_id: int) -> Relation:
    rel_type = ctx.result_type
    if node_id not in graph.g:
        raise ExecutionError(f"no node {node_id} in the graph")
    return Relation(
        rel_type,
        (graph.node_attrs(p) for p in sorted(graph.g.predecessors(node_id))),
    )


def _reachable_impl(ctx, graph: GraphValue, node_id: int) -> Relation:
    if node_id not in graph.g:
        raise ExecutionError(f"no node {node_id} in the graph")
    import networkx as nx

    reached = nx.descendants(graph.g, node_id) | {node_id}
    return Relation(
        ctx.result_type, (graph.node_attrs(n) for n in sorted(reached))
    )


def _shortest_path_impl(ctx, graph: GraphValue, source: int, target: int) -> Relation:
    import networkx as nx

    try:
        path = nx.shortest_path(graph.g, source, target)
    except (nx.NetworkXNoPath, nx.NodeNotFound):
        path = []
    return Relation(ctx.result_type, (graph.node_attrs(n) for n in path))


def _degree_impl(ctx, graph: GraphValue, node_id: int) -> int:
    if node_id not in graph.g:
        raise ExecutionError(f"no node {node_id} in the graph")
    return graph.g.out_degree(node_id) + graph.g.in_degree(node_id)


# ---------------------------------------------------------------------------
# Model assembly
# ---------------------------------------------------------------------------


def graph_model() -> tuple[SecondOrderSignature, SecondOrderAlgebra]:
    """The graph model: signature and algebra (relational select included,
    so graph results compose with relational filtering)."""
    from repro.models.base import add_base_level, register_base_carriers

    builder = SignatureBuilder()
    add_base_level(builder, spatial=False)
    rel_kind = builder.kind("REL")
    builder.constructor("rel", [KindSort(builder.kind("TUPLE"))], rel_kind)
    graph_kind = builder.kind("GRAPH")
    tup = builder.kind("TUPLE")
    builder.constructor("graph", [KindSort(tup), KindSort(tup)], graph_kind)

    graph_q = Quantifier("graph", graph_kind, GRAPH_PATTERN)
    node_rel = AppSort("rel", (VarSort("ntuple"),))
    edge_rel = AppSort("rel", (VarSort("etuple"),))

    builder.op(
        "empty",
        quantifiers=(graph_q,),
        args=(),
        result=VarSort("graph"),
        impl=_empty_graph,
        doc="the empty graph of the expected type",
    )
    builder.op(
        "add_node",
        quantifiers=(graph_q,),
        args=(VarSort("graph"), TypeSort(INT), VarSort("ntuple")),
        result=VarSort("graph"),
        impl=_add_node_impl,
        is_update=True,
        doc="add (or replace) an attributed node",
    )
    builder.op(
        "add_edge",
        quantifiers=(graph_q,),
        args=(VarSort("graph"), TypeSort(INT), TypeSort(INT), VarSort("etuple")),
        result=VarSort("graph"),
        impl=_add_edge_impl,
        is_update=True,
        doc="add an attributed edge between existing nodes",
    )
    builder.op(
        "nodes",
        quantifiers=(graph_q,),
        args=(VarSort("graph"),),
        result=node_rel,
        syntax="_ #",
        impl=_nodes_impl,
        doc="the node relation of a graph",
    )
    builder.op(
        "edges",
        quantifiers=(graph_q,),
        args=(VarSort("graph"),),
        result=edge_rel,
        syntax="_ #",
        impl=_edges_impl,
        doc="the edge relation of a graph",
    )
    builder.op(
        "succ",
        quantifiers=(graph_q,),
        args=(VarSort("graph"), TypeSort(INT)),
        result=node_rel,
        syntax="_ #[ _ ]",
        impl=_succ_impl,
        doc="successor nodes of a node",
    )
    builder.op(
        "pred",
        quantifiers=(graph_q,),
        args=(VarSort("graph"), TypeSort(INT)),
        result=node_rel,
        syntax="_ #[ _ ]",
        impl=_pred_impl,
        doc="predecessor nodes of a node",
    )
    builder.op(
        "reachable",
        quantifiers=(graph_q,),
        args=(VarSort("graph"), TypeSort(INT)),
        result=node_rel,
        syntax="_ #[ _ ]",
        impl=_reachable_impl,
        doc="all nodes reachable from a node (including itself)",
    )
    builder.op(
        "shortest_path",
        quantifiers=(graph_q,),
        args=(VarSort("graph"), TypeSort(INT), TypeSort(INT)),
        result=node_rel,
        syntax="_ #[ _, _ ]",
        impl=_shortest_path_impl,
        doc="node sequence of a shortest path (empty if none)",
    )
    builder.op(
        "degree",
        quantifiers=(graph_q,),
        args=(VarSort("graph"), TypeSort(INT)),
        result=TypeSort(INT),
        syntax="_ #[ _ ]",
        impl=_degree_impl,
        doc="total degree of a node",
    )
    # relational select over the node/edge relations
    builder.op(
        "select",
        quantifiers=(Quantifier("rel", rel_kind, REL_PATTERN),),
        args=(VarSort("rel"), FunSort((VarSort("tuple"),), TypeSort(BOOL))),
        result=VarSort("rel"),
        syntax="_ #[ _ ]",
        impl=_select_impl,
        doc="relational selection over graph-derived relations",
    )

    sos = builder.build()
    algebra = SecondOrderAlgebra(sos)
    register_base_carriers(algebra)
    algebra.register_carrier("rel", _check_rel)
    algebra.register_carrier(
        "graph",
        lambda alg, v, t: isinstance(v, GraphValue) and v.type == t,
    )
    return sos, algebra
