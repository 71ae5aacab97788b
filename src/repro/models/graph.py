"""A graph data model in the SOS framework.

The paper credits the two-level idea to joint work with Erwig ([ErG91]),
where it was "applied to define a data model that integrates object class
hierarchies with explicit graph structures".  This module demonstrates the
same generality: a graph model defined with the identical machinery —
kinds, type constructors, quantified operators — and an algebra over
adjacency lists.

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

from collections import deque
from typing import Optional

from repro.core.algebra import Relation, SecondOrderAlgebra, TupleValue
from repro.core.operators import Quantifier
from repro.core.sos import SecondOrderSignature, SignatureBuilder
from repro.core.types import FunType, PVar, Type, TypeApp
from repro.errors import ExecutionError
from repro.models.common import (
    BOOL,
    INT,
)
from repro.models.relational import REL_PATTERN, _check_rel, _select_impl

GRAPH_PATTERN = TypeApp("graph", (PVar("ntuple"), PVar("etuple")))


class GraphValue:
    """A graph value: a directed multigraph with attributed nodes/edges,
    kept as adjacency lists."""

    __slots__ = ("type", "nodes", "out", "inc")

    def __init__(self, graph_type: Type):
        self.type = graph_type
        self.nodes: dict[int, TupleValue] = {}
        self.out: dict[int, list[tuple[int, TupleValue]]] = {}
        """Per node, its outgoing edges ``(target, attributes)`` in the
        order they were added."""
        self.inc: dict[int, list[int]] = {}
        """Per node, the source of each incoming edge."""

    def clone(self) -> "GraphValue":
        """A snapshot copy: the adjacency lists are copied, the (immutable)
        attribute tuples are shared."""
        twin = GraphValue(self.type)
        twin.nodes = dict(self.nodes)
        twin.out = {n: list(edges) for n, edges in self.out.items()}
        twin.inc = {n: list(sources) for n, sources in self.inc.items()}
        return twin

    def add_node(self, node_id: int, attrs: TupleValue) -> None:
        self.nodes[node_id] = attrs
        self.out.setdefault(node_id, [])
        self.inc.setdefault(node_id, [])

    def add_edge(self, source: int, target: int, attrs: TupleValue) -> None:
        if source not in self.nodes or target not in self.nodes:
            raise ExecutionError(
                f"edge endpoints must exist: {source} -> {target}"
            )
        self.out[source].append((target, attrs))
        self.inc[target].append(source)

    def node_attrs(self, node_id: int) -> TupleValue:
        try:
            return self.nodes[node_id]
        except KeyError:
            raise ExecutionError(f"no node {node_id} in the graph") from None

    def node_relation(self, rel_type: Type) -> Relation:
        return Relation(rel_type, (self.nodes[n] for n in sorted(self.nodes)))

    def edge_relation(self, rel_type: Type) -> Relation:
        edges = sorted(
            ((u, v, attrs) for u, out in self.out.items() for v, attrs in out),
            key=lambda e: (e[0], e[1]),
        )
        return Relation(rel_type, (attrs for _, _, attrs in edges))

    def reachable(self, node_id: int) -> dict[int, Optional[int]]:
        """Breadth-first search: each node a path from ``node_id`` reaches,
        mapped to its predecessor on a shortest such path."""
        parent: dict[int, Optional[int]] = {node_id: None}
        frontier = deque([node_id])
        while frontier:
            node = frontier.popleft()
            for m, _ in self.out[node]:
                if m not in parent:
                    parent[m] = node
                    frontier.append(m)
        return parent

    def shortest_path(self, source: int, target: int) -> list[int]:
        """The nodes of a shortest path from ``source`` to ``target``, or
        ``[]`` if there is none."""
        if source not in self.nodes:
            return []
        parent = self.reachable(source)
        path: list[int] = []
        node = target if target in parent else None
        while node is not None:
            path.append(node)
            node = parent[node]
        return path[::-1]

    def __len__(self) -> int:
        return len(self.nodes)

    def __repr__(self) -> str:
        edges = sum(len(out) for out in self.out.values())
        return f"GraphValue({len(self.nodes)} nodes, {edges} edges)"


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
    graph.node_attrs(node_id)  # raises for a missing node
    successors = {m for m, _ in graph.out[node_id]}
    return Relation(ctx.result_type, (graph.nodes[m] for m in sorted(successors)))


def _pred_impl(ctx, graph: GraphValue, node_id: int) -> Relation:
    graph.node_attrs(node_id)  # raises for a missing node
    predecessors = set(graph.inc[node_id])
    return Relation(ctx.result_type, (graph.nodes[m] for m in sorted(predecessors)))


def _reachable_impl(ctx, graph: GraphValue, node_id: int) -> Relation:
    graph.node_attrs(node_id)  # raises for a missing node
    reached = graph.reachable(node_id)
    return Relation(ctx.result_type, (graph.nodes[n] for n in sorted(reached)))


def _shortest_path_impl(ctx, graph: GraphValue, source: int, target: int) -> Relation:
    path = graph.shortest_path(source, target)
    return Relation(ctx.result_type, (graph.nodes[n] for n in path))


def _degree_impl(ctx, graph: GraphValue, node_id: int) -> int:
    graph.node_attrs(node_id)  # raises for a missing node
    return len(graph.out[node_id]) + len(graph.inc[node_id])


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
    builder.constructor("rel", [PVar("", builder.kind("TUPLE"))], rel_kind)
    graph_kind = builder.kind("GRAPH")
    tup = builder.kind("TUPLE")
    builder.constructor("graph", [PVar("", tup), PVar("", tup)], graph_kind)

    graph_q = Quantifier("graph", graph_kind, GRAPH_PATTERN)
    node_rel = TypeApp("rel", (PVar("ntuple"),))
    edge_rel = TypeApp("rel", (PVar("etuple"),))

    builder.op(
        "empty",
        quantifiers=(graph_q,),
        args=(),
        result=PVar("graph"),
        impl=_empty_graph,
        doc="the empty graph of the expected type",
    )
    builder.op(
        "add_node",
        quantifiers=(graph_q,),
        args=(PVar("graph"), INT, PVar("ntuple")),
        result=PVar("graph"),
        impl=_add_node_impl,
        is_update=True,
        doc="add (or replace) an attributed node",
    )
    builder.op(
        "add_edge",
        quantifiers=(graph_q,),
        args=(PVar("graph"), INT, INT, PVar("etuple")),
        result=PVar("graph"),
        impl=_add_edge_impl,
        is_update=True,
        doc="add an attributed edge between existing nodes",
    )
    builder.op(
        "nodes",
        quantifiers=(graph_q,),
        args=(PVar("graph"),),
        result=node_rel,
        syntax="_ #",
        impl=_nodes_impl,
        doc="the node relation of a graph",
    )
    builder.op(
        "edges",
        quantifiers=(graph_q,),
        args=(PVar("graph"),),
        result=edge_rel,
        syntax="_ #",
        impl=_edges_impl,
        doc="the edge relation of a graph",
    )
    builder.op(
        "succ",
        quantifiers=(graph_q,),
        args=(PVar("graph"), INT),
        result=node_rel,
        syntax="_ #[ _ ]",
        impl=_succ_impl,
        doc="successor nodes of a node",
    )
    builder.op(
        "pred",
        quantifiers=(graph_q,),
        args=(PVar("graph"), INT),
        result=node_rel,
        syntax="_ #[ _ ]",
        impl=_pred_impl,
        doc="predecessor nodes of a node",
    )
    builder.op(
        "reachable",
        quantifiers=(graph_q,),
        args=(PVar("graph"), INT),
        result=node_rel,
        syntax="_ #[ _ ]",
        impl=_reachable_impl,
        doc="all nodes reachable from a node (including itself)",
    )
    builder.op(
        "shortest_path",
        quantifiers=(graph_q,),
        args=(PVar("graph"), INT, INT),
        result=node_rel,
        syntax="_ #[ _, _ ]",
        impl=_shortest_path_impl,
        doc="node sequence of a shortest path (empty if none)",
    )
    builder.op(
        "degree",
        quantifiers=(graph_q,),
        args=(PVar("graph"), INT),
        result=INT,
        syntax="_ #[ _ ]",
        impl=_degree_impl,
        doc="total degree of a node",
    )
    # relational select over the node/edge relations
    builder.op(
        "select",
        quantifiers=(Quantifier("rel", rel_kind, REL_PATTERN),),
        args=(PVar("rel"), FunType((PVar("tuple"),), BOOL)),
        result=PVar("rel"),
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
