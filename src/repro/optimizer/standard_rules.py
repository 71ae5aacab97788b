"""The standard model-to-representation rule set (paper Sections 5 and 6).

Rules translate model-level queries and updates over relations into
representation-level plans over the objects registered in the ``rep``
catalog (``rep(rel, repobj)``).  The collection contains:

* the paper's Section 5 rule verbatim: a join with a geometric ``inside``
  condition becomes a repeated LSD-tree ``point_search`` under a
  ``search_join``;
* selection rules: a comparison on the B-tree key attribute becomes a
  ``range`` / ``exact`` search (with a refining ``filter`` for the strict
  comparisons); any other selection becomes ``feed``-``filter``;
* join fallback: ``feed`` the outer side, ``feed``-``filter`` the inner per
  outer tuple through ``search_join``;
* the update translations of Section 6: ``insert`` goes to the structure;
  a key-range ``delete`` finds its victims by a ``range`` search; ``modify``
  becomes in-situ ``modify`` with a ``replace`` stream function, or
  ``re_insert`` when the modified attribute *is* the B-tree key.

Index rules precede scan fallbacks in each step, so the first applicable
(most specific) rule wins — the per-step control strategy of [BeG92].
"""

from __future__ import annotations

from repro.core.terms import Apply, Call, Fun, Literal, Var
from repro.core.types import PVar, Sym, TypeApp
from repro.optimizer.conditions import (
    CatalogCondition,
    FunCondition,
    StatsCondition,
    TypeCondition,
)
from repro.optimizer.engine import Optimizer, OptimizerStep
from repro.optimizer.rules import RewriteRule, rule_vars
from repro.optimizer.termmatch import RuleVar

REP_CATALOG = "rep"

T1 = PVar("tuple1")
T2 = PVar("tuple2")

REL1 = RuleVar("rel1", type_pattern=TypeApp("rel", (PVar("tuple1"),)))
REL2 = RuleVar("rel2", type_pattern=TypeApp("rel", (PVar("tuple2"),)))

RELREP1 = TypeCondition("rep1", TypeApp("relrep", (PVar("tuple1"),)), subtype_ok=True)
RELREP2 = TypeCondition("rep2", TypeApp("relrep", (PVar("tuple2"),)), subtype_ok=True)
BTREE1 = TypeCondition(
    "bt1", TypeApp("btree", (PVar("tuple1"), PVar("attr"), PVar("dtype")))
)
LSD2 = TypeCondition("lsd2", TypeApp("lsdtree", (PVar("tuple2"), PVar("f"))))

REP_REL1 = CatalogCondition(REP_CATALOG, ("rel1", "rep1"))
REP_REL2 = CatalogCondition(REP_CATALOG, ("rel2", "rep2"))
REP_BT1 = CatalogCondition(REP_CATALOG, ("rel1", "bt1"))
REP_LSD2 = CatalogCondition(REP_CATALOG, ("rel2", "lsd2"))


def _attr_cmp_pred(op: str) -> Fun:
    """``fun (t1: tuple1) (t1 attr) op c1`` — the indexed-selection shape."""
    return Fun(
        (("t1", T1),),
        Apply(op, (Apply("attr", (Var("t1"),)), Var("c1"))),
    )


def _select_vars() -> dict:
    return rule_vars(
        REL1,
        RuleVar("attr", fun_args=(T1,), fun_result=PVar("dtype")),
        RuleVar("c1"),
    )


def spatial_join_rule() -> RewriteRule:
    """The paper's Section 5 rule, structure for structure."""
    inside = Apply(
        "inside",
        (Apply("point", (Var("t1"),)), Apply("region", (Var("t2"),))),
    )
    lhs = Apply(
        "join",
        (Var("rel1"), Var("rel2"), Fun((("t1", T1), ("t2", T2)), inside)),
    )
    rhs = Apply(
        "search_join",
        (
            Apply("feed", (Var("rep1"),)),
            Fun(
                (("t1", T1),),
                Apply(
                    "filter",
                    (
                        Apply(
                            "point_search",
                            (Var("lsd2"), Apply("point", (Var("t1"),))),
                        ),
                        Fun(
                            (("t2", T2),),
                            Apply(
                                "inside",
                                (
                                    Apply("point", (Var("t1"),)),
                                    Apply("region", (Var("t2"),)),
                                ),
                            ),
                        ),
                    ),
                ),
            ),
        ),
    )
    return RewriteRule(
        name="join_inside_lsdtree",
        variables=rule_vars(
            REL1,
            REL2,
            RuleVar("point", fun_args=(T1,), fun_result=TypeApp("point")),
            RuleVar("region", fun_args=(T2,), fun_result=TypeApp("pgon")),
        ),
        lhs=lhs,
        rhs=rhs,
        conditions=(REP_REL1, RELREP1, REP_LSD2, LSD2),
        doc="join by geometric inside -> repeated LSD-tree point search",
    )


def select_between_rule() -> RewriteRule:
    """``select[attr >= c1 and attr <= c2]`` becomes one ``range[c1, c2]`` —
    the conjunctive-range refinement of the single-comparison rules."""
    pred = Fun(
        (("t1", T1),),
        Apply(
            "and",
            (
                Apply(">=", (Apply("attr", (Var("t1"),)), Var("c1"))),
                Apply("<=", (Apply("attr", (Var("t1"),)), Var("c2"))),
            ),
        ),
    )
    variables = rule_vars(
        REL1,
        RuleVar("attr", fun_args=(T1,), fun_result=PVar("dtype")),
        RuleVar("c1"),
        RuleVar("c2"),
    )
    return RewriteRule(
        name="select_between_btree_range",
        variables=variables,
        lhs=Apply("select", (Var("rel1"), pred)),
        rhs=Apply("range", (Var("bt1"), Var("c1"), Var("c2"))),
        conditions=(REP_BT1, BTREE1),
        doc="conjunctive key range -> single B-tree range search",
    )


def select_index_rules() -> list[RewriteRule]:
    """Selections on the B-tree key attribute become index searches."""
    rules = []
    shapes = {
        "=": Apply("exact", (Var("bt1"), Var("c1"))),
        "<=": Apply("range", (Var("bt1"), Var("bottom"), Var("c1"))),
        ">=": Apply("range", (Var("bt1"), Var("c1"), Var("top"))),
        "<": Apply(
            "filter",
            (
                Apply("range", (Var("bt1"), Var("bottom"), Var("c1"))),
                _attr_cmp_pred("<"),
            ),
        ),
        ">": Apply(
            "filter",
            (
                Apply("range", (Var("bt1"), Var("c1"), Var("top"))),
                _attr_cmp_pred(">"),
            ),
        ),
    }
    for op, rhs in shapes.items():
        rules.append(
            RewriteRule(
                name=f"select_{_op_slug(op)}_btree_range",
                variables=_select_vars(),
                lhs=Apply("select", (Var("rel1"), _attr_cmp_pred(op))),
                rhs=rhs,
                conditions=(REP_BT1, BTREE1),
                doc=f"selection by key {op} constant -> B-tree search",
            )
        )
    return rules


def _op_slug(op: str) -> str:
    return {"=": "eq", "<=": "le", ">=": "ge", "<": "lt", ">": "gt"}[op]


def select_scan_rule() -> RewriteRule:
    """Fallback: any selection becomes a feed-filter scan."""
    return RewriteRule(
        name="select_scan",
        variables=rule_vars(REL1, RuleVar("p1")),
        lhs=Apply("select", (Var("rel1"), Var("p1"))),
        rhs=Apply("filter", (Apply("feed", (Var("rep1"),)), Var("p1"))),
        conditions=(REP_REL1, RELREP1),
        doc="selection -> scan of any relation representation",
    )


def _equi_join_rule(method: str) -> RewriteRule:
    pred = Fun(
        (("t1", T1), ("t2", T2)),
        Apply("=", (Apply("a1", (Var("t1"),)), Apply("a2", (Var("t2"),)))),
    )
    return RewriteRule(
        name=f"equi_join_{method.split('_')[0]}",
        variables=rule_vars(
            REL1,
            REL2,
            RuleVar("a1", fun_args=(T1,), fun_result=PVar("dtype")),
            RuleVar("a2", fun_args=(T2,), fun_result=PVar("dtype")),
        ),
        lhs=Apply("join", (Var("rel1"), Var("rel2"), pred)),
        rhs=Apply(
            method,
            (
                Apply("feed", (Var("rep1"),)),
                Apply("feed", (Var("rep2"),)),
                Var("a1"),
                Var("a2"),
            ),
        ),
        conditions=(REP_REL1, RELREP1, REP_REL2, RELREP2),
        doc=f"equality join -> {method}",
    )


def equi_join_rule() -> RewriteRule:
    """``join[a1 = a2]`` becomes a sort-merge join over both feeds."""
    return _equi_join_rule("merge_join")


def equi_join_hash_rule() -> RewriteRule:
    """``join[a1 = a2]`` becomes a hash join — the alternative the
    cost-based strategy chooses between."""
    return _equi_join_rule("hash_join")


def _join_attr_is_inner_key(state, db) -> bool:
    # Attribute rule variables (fun_args/fun_result) bind the operator
    # symbol into tbinds.
    a2 = state.tbinds.get("a2")
    key_attr = state.tbinds.get("attr2")
    if isinstance(a2, Sym):
        return a2 == key_attr
    return False


def equi_join_index_rule() -> RewriteRule:
    """``join[a1 = a2]`` becomes an index nested-loop join when the inner
    relation has a B-tree keyed on the join attribute: feed the outer side
    and probe the B-tree with ``exact`` per outer tuple.

    Listed after the merge/hash alternatives, so first-match never picks it;
    the cost-based strategy does — and only gets it right with statistics:
    under the textbook 1 %-per-probe constant the repeated descent looks
    more expensive than a hash join, while an analyzed near-unique key makes
    each probe ~1 row and the index plan the cheapest.  Stale statistics
    (row count drifted past the threshold since ``analyze``) withdraw the
    candidate rather than argue from outdated distinct counts.
    """
    pred = Fun(
        (("t1", T1), ("t2", T2)),
        Apply("=", (Apply("a1", (Var("t1"),)), Apply("a2", (Var("t2"),)))),
    )
    rhs = Apply(
        "search_join",
        (
            Apply("feed", (Var("rep1"),)),
            Fun(
                (("t1", T1),),
                Apply("exact", (Var("bt2"), Apply("a1", (Var("t1"),)))),
            ),
        ),
    )
    return RewriteRule(
        name="equi_join_index",
        variables=rule_vars(
            REL1,
            REL2,
            RuleVar("a1", fun_args=(T1,), fun_result=PVar("dtype")),
            RuleVar("a2", fun_args=(T2,), fun_result=PVar("dtype")),
        ),
        lhs=Apply("join", (Var("rel1"), Var("rel2"), pred)),
        rhs=rhs,
        conditions=(
            REP_REL1,
            RELREP1,
            CatalogCondition(REP_CATALOG, ("rel2", "bt2")),
            TypeCondition(
                "bt2",
                TypeApp("btree", (PVar("tuple2"), PVar("attr2"), PVar("dtype"))),
            ),
            FunCondition(_join_attr_is_inner_key, "a2 is the inner B-tree key"),
            StatsCondition(
                "bt2",
                lambda entry: entry is None or not entry.stale,
                "inner index statistics are missing or fresh",
            ),
        ),
        doc="equality join -> repeated exact search on the inner B-tree",
    )


def join_scan_rule() -> RewriteRule:
    """Fallback: any join becomes a repeated inner scan under search_join."""
    rhs = Apply(
        "search_join",
        (
            Apply("feed", (Var("rep1"),)),
            Fun(
                (("t1", T1),),
                Apply(
                    "filter",
                    (
                        Apply("feed", (Var("rep2"),)),
                        Fun(
                            (("t2", T2),),
                            Call(Var("p1"), (Var("t1"), Var("t2"))),
                        ),
                    ),
                ),
            ),
        ),
    )
    return RewriteRule(
        name="join_scan",
        variables=rule_vars(REL1, REL2, RuleVar("p1")),
        lhs=Apply("join", (Var("rel1"), Var("rel2"), Var("p1"))),
        rhs=rhs,
        conditions=(REP_REL1, RELREP1, REP_REL2, RELREP2),
        doc="join -> search_join with repeated inner scan",
    )


# ---------------------------------------------------------------------------
# Update translation (Section 6)
# ---------------------------------------------------------------------------


def insert_rule() -> RewriteRule:
    return RewriteRule(
        name="insert_to_rep",
        variables=rule_vars(REL1, RuleVar("x1")),
        lhs=Apply("insert", (Var("rel1"), Var("x1"))),
        rhs=Apply("insert", (Var("rep1"), Var("x1"))),
        conditions=(REP_REL1, RELREP1),
        doc="relational insert -> structure insert",
    )


def rel_insert_rule() -> RewriteRule:
    return RewriteRule(
        name="rel_insert_to_rep",
        variables=rule_vars(REL1, RuleVar("rel2", type_pattern=TypeApp("rel", (PVar("tuple1"),)))),
        lhs=Apply("rel_insert", (Var("rel1"), Var("rel2"))),
        rhs=Apply("stream_insert", (Var("rep1"), Apply("feed", (Var("rep2"),)))),
        conditions=(
            REP_REL1,
            RELREP1,
            CatalogCondition(REP_CATALOG, ("rel2", "rep2")),
            TypeCondition("rep2", TypeApp("relrep", (PVar("tuple1"),)), subtype_ok=True),
        ),
        doc="bulk insert -> stream_insert from the source representation",
    )


def delete_range_rules() -> list[RewriteRule]:
    """Deletion by a key range finds its victims with a range search —
    the paper's ``delete (cities_rep, cities_rep range[bottom, 10000])``."""
    rules = []
    shapes = {
        "<=": Apply("range", (Var("bt1"), Var("bottom"), Var("c1"))),
        ">=": Apply("range", (Var("bt1"), Var("c1"), Var("top"))),
        "=": Apply("exact", (Var("bt1"), Var("c1"))),
    }
    for op, search in shapes.items():
        rules.append(
            RewriteRule(
                name=f"delete_{_op_slug(op)}_btree_range",
                variables=_select_vars(),
                lhs=Apply("delete", (Var("rel1"), _attr_cmp_pred(op))),
                rhs=Apply("delete", (Var("bt1"), search)),
                conditions=(REP_BT1, BTREE1),
                doc=f"delete by key {op} constant -> range-search delete",
            )
        )
    return rules


def delete_scan_rule() -> RewriteRule:
    return RewriteRule(
        name="delete_scan",
        variables=rule_vars(REL1, RuleVar("p1")),
        lhs=Apply("delete", (Var("rel1"), Var("p1"))),
        rhs=Apply(
            "delete",
            (Var("bt1"), Apply("filter", (Apply("feed", (Var("bt1"),)), Var("p1")))),
        ),
        conditions=(REP_BT1, BTREE1),
        doc="delete -> scan-filter delete on the B-tree",
    )


def _stream_fun(body_op: str) -> Fun:
    """``fun (s: stream(tuple1)) s body_op[a1, v1]``"""
    return Fun(
        (("s", TypeApp("stream", (T1,))),),
        Apply(body_op, (Var("s"), Var("a1"), Var("v1"))),
    )


def _modified_attr_is_key(state, db) -> bool:
    a1 = state.vbinds.get("a1")
    key_attr = state.tbinds.get("attr")
    if isinstance(a1, Literal) and isinstance(a1.value, Sym):
        return a1.value == key_attr
    if isinstance(a1, Var):
        return Sym(a1.name) == key_attr
    return False


def modify_rules() -> list[RewriteRule]:
    """In-situ modify for non-key attributes; re_insert for key updates —
    exactly the two behaviours the paper distinguishes."""
    variables = rule_vars(REL1, RuleVar("p1"), RuleVar("a1"), RuleVar("v1"))
    lhs = Apply("modify", (Var("rel1"), Var("p1"), Var("a1"), Var("v1")))
    victims = Apply("filter", (Apply("feed", (Var("bt1"),)), Var("p1")))
    non_key = RewriteRule(
        name="modify_in_situ",
        variables=variables,
        lhs=lhs,
        rhs=Apply("modify", (Var("bt1"), victims, _stream_fun("replace"))),
        conditions=(
            REP_BT1,
            BTREE1,
            FunCondition(
                lambda state, db: not _modified_attr_is_key(state, db),
                "modified attribute is not the B-tree key",
            ),
        ),
        doc="non-key modify -> in-situ B-tree modify via replace",
    )
    key = RewriteRule(
        name="modify_key_re_insert",
        variables=variables,
        lhs=lhs,
        rhs=Apply("re_insert", (Var("bt1"), victims, _stream_fun("replace"))),
        conditions=(
            REP_BT1,
            BTREE1,
            FunCondition(_modified_attr_is_key, "modified attribute is the key"),
        ),
        doc="key modify -> delete + re-insert at the new key position",
    )
    return [non_key, key]


def nested_join_rules() -> list[RewriteRule]:
    """Joins over *selected* base relations (one level of nesting).

    ``join(select(rel, p), ..., pred)`` cannot bind ``rel1`` to the select
    subterm — the catalog only knows object names — so dedicated rules push
    the selection into the representation plan as a ``filter`` on the
    corresponding ``feed``/``point_search`` input.  Deeper nesting is out of
    the standard rule set's scope and fails with a clean
    :class:`~repro.errors.OptimizationError` rather than a wrong plan.
    """
    rules: list[RewriteRule] = []
    inside_pred = Fun(
        (("t1", T1), ("t2", T2)),
        Apply(
            "inside",
            (Apply("point", (Var("t1"),)), Apply("region", (Var("t2"),))),
        ),
    )
    spatial_vars = rule_vars(
        REL1,
        REL2,
        RuleVar("point", fun_args=(T1,), fun_result=TypeApp("point")),
        RuleVar("region", fun_args=(T2,), fun_result=TypeApp("pgon")),
        RuleVar("p1"),
        RuleVar("p2"),
    )
    outer_filtered = Apply(
        "filter", (Apply("feed", (Var("rep1"),)), Var("p1"))
    )
    spatial_inner = lambda probe: Fun(  # noqa: E731 - local plan builder
        (("t1", T1),),
        Apply(
            "filter",
            (
                probe,
                Fun(
                    (("t2", T2),),
                    Apply(
                        "inside",
                        (
                            Apply("point", (Var("t1"),)),
                            Apply("region", (Var("t2"),)),
                        ),
                    ),
                ),
            ),
        ),
    )
    probe = Apply("point_search", (Var("lsd2"), Apply("point", (Var("t1"),))))
    rules.append(
        RewriteRule(
            name="join_inside_lsdtree_outer_select",
            variables=spatial_vars,
            lhs=Apply(
                "join",
                (
                    Apply("select", (Var("rel1"), Var("p1"))),
                    Var("rel2"),
                    inside_pred,
                ),
            ),
            rhs=Apply("search_join", (outer_filtered, spatial_inner(probe))),
            conditions=(REP_REL1, RELREP1, REP_LSD2, LSD2),
            doc="selected outer side of the spatial join",
        )
    )
    filtered_probe = Apply("filter", (probe, Var("p2")))
    rules.append(
        RewriteRule(
            name="join_inside_lsdtree_inner_select",
            variables=spatial_vars,
            lhs=Apply(
                "join",
                (
                    Var("rel1"),
                    Apply("select", (Var("rel2"), Var("p2"))),
                    inside_pred,
                ),
            ),
            rhs=Apply(
                "search_join",
                (Apply("feed", (Var("rep1"),)), spatial_inner(filtered_probe)),
            ),
            conditions=(REP_REL1, RELREP1, REP_LSD2, LSD2),
            doc="selected inner side of the spatial join",
        )
    )
    # Generic scan fallbacks with a select on either (or both) sides.
    scan_vars = rule_vars(REL1, REL2, RuleVar("p"), RuleVar("p1"), RuleVar("p2"))

    def scan_rhs(outer, inner):
        return Apply(
            "search_join",
            (
                outer,
                Fun(
                    (("t1", T1),),
                    Apply(
                        "filter",
                        (
                            inner,
                            Fun(
                                (("t2", T2),),
                                Call(Var("p"), (Var("t1"), Var("t2"))),
                            ),
                        ),
                    ),
                ),
            ),
        )

    plain_outer = Apply("feed", (Var("rep1"),))
    plain_inner = Apply("feed", (Var("rep2"),))
    sel_outer = Apply("filter", (Apply("feed", (Var("rep1"),)), Var("p1")))
    sel_inner = Apply("filter", (Apply("feed", (Var("rep2"),)), Var("p2")))
    shapes = [
        (
            "join_scan_outer_select",
            Apply(
                "join",
                (Apply("select", (Var("rel1"), Var("p1"))), Var("rel2"), Var("p")),
            ),
            scan_rhs(sel_outer, plain_inner),
        ),
        (
            "join_scan_inner_select",
            Apply(
                "join",
                (Var("rel1"), Apply("select", (Var("rel2"), Var("p2"))), Var("p")),
            ),
            scan_rhs(plain_outer, sel_inner),
        ),
        (
            "join_scan_both_select",
            Apply(
                "join",
                (
                    Apply("select", (Var("rel1"), Var("p1"))),
                    Apply("select", (Var("rel2"), Var("p2"))),
                    Var("p"),
                ),
            ),
            scan_rhs(sel_outer, sel_inner),
        ),
    ]
    for name, lhs, rhs in shapes:
        rules.append(
            RewriteRule(
                name=name,
                variables=scan_vars,
                lhs=lhs,
                rhs=rhs,
                conditions=(REP_REL1, RELREP1, REP_REL2, RELREP2),
                doc="scan join with pushed-down selection(s)",
            )
        )
    return rules


def select_fusion_rule() -> RewriteRule:
    """Model-level normalization: ``select(select(r, p1), p2)`` becomes one
    selection with a conjunctive predicate.  Applied exhaustively before
    translation, it collapses select chains of any depth, so the translation
    rules only ever see a single selection."""
    return RewriteRule(
        name="select_fusion",
        variables=rule_vars(
            RuleVar("r", type_pattern=TypeApp("rel", (PVar("tuple1"),))),
            RuleVar("p1"),
            RuleVar("p2"),
        ),
        lhs=Apply("select", (Apply("select", (Var("r"), Var("p1"))), Var("p2"))),
        rhs=Apply(
            "select",
            (
                Var("r"),
                Fun(
                    (("t1", T1),),
                    Apply(
                        "and",
                        (
                            Call(Var("p1"), (Var("t1"),)),
                            Call(Var("p2"), (Var("t1"),)),
                        ),
                    ),
                ),
            ),
        ),
        doc="fuse stacked selections into one conjunctive selection",
    )


def normalization_rules() -> list[RewriteRule]:
    return [select_fusion_rule()]


def query_rules() -> list[RewriteRule]:
    return [
        spatial_join_rule(),
        equi_join_rule(),
        equi_join_hash_rule(),
        equi_join_index_rule(),
        *nested_join_rules(),
        select_between_rule(),
        *select_index_rules(),
        select_scan_rule(),
        join_scan_rule(),
    ]


def update_rules() -> list[RewriteRule]:
    return [
        insert_rule(),
        rel_insert_rule(),
        *delete_range_rules(),
        *modify_rules(),
        delete_scan_rule(),
    ]


def standard_optimizer() -> Optimizer:
    """The default two-step optimizer: translate updates, then queries.

    Within each step the first applicable rule wins, so the rule *order*
    encodes the preference for index plans (the [BeG92] heuristic)."""
    return Optimizer(
        [
            OptimizerStep("normalize", normalization_rules(), "exhaustive"),
            OptimizerStep("translate-updates", update_rules(), "exhaustive"),
            OptimizerStep("translate-queries", query_rules(), "exhaustive"),
        ]
    )


def cost_based_optimizer(shuffled: bool = False) -> Optimizer:
    """An optimizer that chooses among all applicable rewrites by estimated
    cost (:mod:`repro.optimizer.cost`) instead of rule order.

    With ``shuffled=True`` the query rules are listed *worst-first* (scan
    fallbacks before index rules) — under first-match that order produces
    scan plans; under cost-based choice the plan quality must not depend on
    rule order at all, which is the ablation benchmark B7.
    """
    rules = query_rules()
    if shuffled:
        rules = list(reversed(rules))
    return Optimizer(
        [
            OptimizerStep("normalize", normalization_rules(), "exhaustive"),
            OptimizerStep("translate-updates", update_rules(), "exhaustive"),
            OptimizerStep(
                "translate-queries", rules, "exhaustive", cost_based=True
            ),
        ]
    )


def misordered_optimizer() -> Optimizer:
    """First-match with the query rules listed worst-first — the baseline
    the cost-based ablation compares against."""
    return Optimizer(
        [
            OptimizerStep("translate-updates", update_rules(), "exhaustive"),
            OptimizerStep(
                "translate-queries", list(reversed(query_rules())), "exhaustive"
            ),
        ]
    )
