"""Static analysis of rewrite rules (``RUL001`` … ``RUL008``).

A :class:`~repro.optimizer.rules.RewriteRule` is only exercised when a
query happens to match it, so a broken rule — an unbound right-hand-side
variable, a condition over a catalog that does not exist, a rewrite that
changes the type of the plan — can hide for a long time.  This pass checks
every rule of a rule set against a signature without running any query:

* *binding analysis* (RUL001/RUL002): every variable the RHS or a
  condition consumes must be bound by the LHS pattern or by an earlier
  catalog condition;
* *liveness* (RUL003): the LHS head operator must exist in the signature,
  otherwise the rule can never fire;
* *type preservation* (RUL004/RUL008): the LHS and RHS are typechecked
  once, for every instance at once: each rule type variable is a rigid
  metavariable (it unifies only with itself, so the rule must hold
  whatever type it stands for), each term variable whose type nothing
  declares a flexible one the typechecker solves for
  (:mod:`repro.core.unify`) — and the two result types must agree up to
  representation change (same content schema, subtyping allowed);
* *catalog hygiene* (RUL005) and *loop detection* (RUL006).
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from repro.core.patterns import (
    instantiate_pattern,
    instantiate_type,
    match_type,
    pattern_variables,
)
from repro.core.terms import (
    Apply,
    Fun,
    Var,
    free_names,
    same_term,
    walk_terms,
)
from repro.core.typecheck import TypeChecker
from repro.core.types import (
    PVar,
    Sym,
    Type,
    TypeApp,
    TypeArg,
    tuple_type,
    walk_type,
)
from repro.core.unify import Subst, fresh_var, substitute, unify
from repro.errors import TypeCheckError
from repro.lint.diagnostics import Diagnostic, LintReport
from repro.optimizer.conditions import (
    CatalogCondition,
    StatsCondition,
    TypeCondition,
)
from repro.optimizer.rules import RewriteRule
from repro.optimizer.termmatch import MatchState, instantiate


def lint_rules(
    rules: Sequence[RewriteRule],
    sos,
    *,
    catalogs: Iterable[str] = ("rep",),
    source: str = "<rules>",
) -> LintReport:
    """Run every rule check over ``rules`` against signature ``sos``."""
    report = LintReport()
    known_catalogs = set(catalogs)
    for rule in rules:
        _check_bindings(rule, sos, report, source)
        dead = _check_liveness(rule, sos, report, source)
        _check_catalogs(rule, known_catalogs, report, source)
        if not dead:
            # A dead rule's LHS cannot typecheck; RUL003 already says why.
            _check_type_preservation(rule, sos, report, source)
    _check_loops(rules, report, source)
    return report


def lint_optimizer(optimizer, sos, *, catalogs=("rep",), source="<rules>") -> LintReport:
    """Lint every rule of every step of an optimizer."""
    seen: dict[str, RewriteRule] = {}
    for step in optimizer.steps:
        for rule in step.rules:
            seen.setdefault(rule.name, rule)
    return lint_rules(list(seen.values()), sos, catalogs=catalogs, source=source)


# ------------------------------------------------------------------ helpers


def _lhs_bound(rule: RewriteRule) -> set[str]:
    """Variables the LHS match binds: term variables and operator variables."""
    bound: set[str] = set()
    for node in walk_terms(rule.lhs):
        if isinstance(node, Var) and node.name in rule.variables:
            bound.add(node.name)
        elif isinstance(node, Apply) and node.op in rule.variables:
            bound.add(node.op)
    # Type variables bound through declared type patterns are usable too
    # (``rel1: rel(tuple1)`` binds ``tuple1``).
    for name in bound & set(rule.variables):
        rv = rule.variables[name]
        if rv.type_pattern is not None:
            bound |= pattern_variables(rv.type_pattern)
    return bound


# ------------------------------------------------------- RUL001 / RUL002


def _check_bindings(rule: RewriteRule, sos, report: LintReport, source: str) -> None:
    bound = _lhs_bound(rule)
    # Conditions run in order; each may consume earlier bindings and
    # contribute its own.
    for cond in rule.conditions:
        if isinstance(cond, CatalogCondition):
            bound |= set(cond.variables)
        elif isinstance(cond, TypeCondition):
            if cond.variable not in bound:
                report.add(
                    Diagnostic(
                        "RUL002",
                        f"type condition tests '{cond.variable}', which no "
                        "LHS pattern or earlier catalog condition binds",
                        source=source,
                        subject=rule.name,
                    )
                )
            bound |= pattern_variables(cond.pattern)
        elif isinstance(cond, StatsCondition):
            if cond.variable not in bound:
                report.add(
                    Diagnostic(
                        "RUL002",
                        f"stats condition consults '{cond.variable}', which no "
                        "LHS pattern or earlier catalog condition binds",
                        source=source,
                        subject=rule.name,
                    )
                )
        # FunCondition is an opaque predicate: nothing to analyze.

    unbound = set(rule.variables) - bound
    for node in free_names(rule.rhs):
        if isinstance(node, Var) and node.name in unbound:
            report.add(
                Diagnostic(
                    "RUL001",
                    f"RHS uses rule variable '{node.name}' which neither "
                    "the LHS pattern nor any condition binds",
                    source=source,
                    subject=rule.name,
                )
            )
    for node in walk_terms(rule.rhs):
        if isinstance(node, Apply) and node.op in unbound:
            report.add(
                Diagnostic(
                    "RUL001",
                    f"RHS applies operator variable '{node.op}' which "
                    "neither the LHS pattern nor any condition binds",
                    source=source,
                    subject=rule.name,
                )
            )


# ----------------------------------------------------------------- RUL003


def _check_liveness(rule: RewriteRule, sos, report: LintReport, source: str) -> bool:
    lhs = rule.lhs
    if not isinstance(lhs, Apply):
        return False
    if lhs.op in rule.variables or sos.is_operator(lhs.op):
        return False
    report.add(
        Diagnostic(
            "RUL003",
            f"LHS head operator '{lhs.op}' is not in the signature; "
            "the rule can never fire",
            source=source,
            subject=rule.name,
        )
    )
    return True


# ----------------------------------------------------------------- RUL005


def _check_catalogs(
    rule: RewriteRule, known: set[str], report: LintReport, source: str
) -> None:
    for cond in rule.conditions:
        if isinstance(cond, CatalogCondition) and cond.catalog not in known:
            report.add(
                Diagnostic(
                    "RUL005",
                    f"condition consults catalog '{cond.catalog}', which the "
                    "database does not define "
                    f"(known: {', '.join(sorted(known)) or 'none'})",
                    source=source,
                    subject=rule.name,
                )
            )


# ----------------------------------------------------------------- RUL006


def _check_loops(
    rules: Sequence[RewriteRule], report: LintReport, source: str
) -> None:
    for i, a in enumerate(rules):
        for b in rules[i + 1 :]:
            if same_term(a.lhs, b.rhs) and same_term(a.rhs, b.lhs):
                report.add(
                    Diagnostic(
                        "RUL006",
                        f"rules '{a.name}' and '{b.name}' rewrite A => B and "
                        "B => A; exhaustive application will not terminate",
                        source=source,
                        subject=a.name,
                    )
                )


# ------------------------------------------- RUL004 / RUL007 / RUL008


def _collect_type_vars(
    rule: RewriteRule,
) -> tuple[set[str], set[str]]:
    """All rule type-variable names, and the subset that stand for tuple
    types (they appear as a lambda parameter or operator argument type, or
    in the content position of a type constructor)."""
    names: set[str] = set()
    tuples: set[str] = set()

    def add(pattern, is_tuple: bool) -> None:
        names.update(pattern_variables(pattern))
        if is_tuple and isinstance(pattern, PVar):
            tuples.add(pattern.name)
        for node in walk_type(pattern):
            # rel(tuple1), stream(tuple1): the first argument of a
            # collection constructor holds the content schema.
            if isinstance(node, TypeApp) and node.args and isinstance(node.args[0], PVar):
                tuples.add(node.args[0].name)

    for rv in rule.variables.values():
        if rv.type_pattern is not None:
            add(rv.type_pattern, False)
        for t in rv.fun_args or ():
            add(t, True)
        if rv.fun_result is not None:
            add(rv.fun_result, False)
    for cond in rule.conditions:
        if isinstance(cond, TypeCondition):
            add(cond.pattern, False)
    for term in (rule.lhs, rule.rhs):
        for node in walk_terms(term):
            if isinstance(node, Fun):
                for _, ptype in node.params:
                    if ptype is not None:
                        add(ptype, True)
    return names, tuples


def _ident_vars(rule: RewriteRule, sos) -> set[str]:
    """Plain rule variables the LHS passes in ``ident`` argument positions —
    attribute names (``modify[a1, v1]``), which dependent post-checks
    require to exist in the subject's tuple type."""
    out: set[str] = set()
    for node in walk_terms(rule.lhs):
        if not isinstance(node, Apply) or node.op in rule.variables:
            continue
        for spec in sos.operators(node.op):
            if len(spec.arg_sorts) != len(node.args):
                continue
            for arg, sort in zip(node.args, spec.arg_sorts):
                if not (isinstance(arg, Var) and arg.name in rule.variables):
                    continue
                rv = rule.variables[arg.name]
                if rv.is_operator_var or rv.type_pattern or rv.kind:
                    continue
                if sort == TypeApp("ident"):
                    out.add(arg.name)
    return out


def _rule_types(
    rule: RewriteRule,
    tuple_vars: set[str],
    type_names: set[str],
    ident_vars: set[str] = frozenset(),
) -> dict[str, TypeArg]:
    """What a rule's type variables stand for in the symbolic check.

    Each is a rigid metavariable of its own name: the rule must typecheck
    whatever type it is.  Two kinds are given structure, because operators
    read it: an operator variable binds its name as an identifier, and a
    tuple variable is a tuple of the attributes the rule reads through its
    operator variables (typed by their declared result) and attribute-name
    variables — or of one attribute — each of a type the rule leaves open.
    """
    tbinds: dict[str, TypeArg] = {name: PVar(name) for name in type_names}
    attrs: dict[str, list[tuple[str, Type]]] = {tv: [] for tv in tuple_vars}
    for rv in rule.variables.values():
        if not rv.is_operator_var:
            continue
        fun_args = rv.fun_args or ()
        if len(fun_args) != 1 or not isinstance(fun_args[0], PVar):
            continue
        result = rv.fun_result
        rtype = result if isinstance(result, Type) else PVar(f"{rv.name}_type")
        attrs.setdefault(fun_args[0].name, []).append((rv.name, rtype))
        # Operator variables bind their name as a Sym, so the attribute
        # name and e.g. a B-tree key-name binding agree.
        tbinds[rv.name] = Sym(rv.name)
    if len(tuple_vars) == 1:
        # Attribute-name variables must name real attributes of the (only)
        # schema; with several schemas the target is ambiguous, and no
        # bundled rule mixes the two shapes.
        tv = next(iter(tuple_vars))
        for name in sorted(ident_vars):
            attrs[tv].append((name, PVar(f"{name}_type")))
    for tv in tuple_vars:
        # The default attribute is unique per tuple variable so joins of two
        # such tuples have disjoint schemas.
        tbinds[tv] = tuple_type(attrs[tv] or [(f"k_{tv}", PVar(f"k_{tv}"))])
    return tbinds


def _condition_type(cond: TypeCondition, tbinds: dict[str, TypeArg], sos) -> Type:
    """The type of a condition-bound variable: its pattern instantiated, or
    under ``subtype_ok`` a concrete subtype of it."""
    t = instantiate_pattern(cond.pattern, tbinds)
    if not cond.subtype_ok:
        return t
    # ``subtype_ok`` means the variable's real type is the pattern *or any
    # subtype of it*; abstract heads (relrep) have no operators of their
    # own, so refine to a concrete subtype when one instantiates cleanly.
    refined = _refine_to_subtype(t, sos)
    return refined if refined is not None else t


def _refine_to_subtype(t: Type, sos) -> Optional[Type]:
    for rule in sos.subtypes.rules:
        binds = match_type(rule.sup, t)
        sub = None if binds is None else instantiate_type(rule.sub, binds)
        if sub is not None:
            return sub
    return None


def _result_compatible(lt: Type, rt: Type, sos, subst: Subst) -> bool:
    if unify(lt, rt, dict(subst)):
        return True
    subtypes = sos.subtypes
    if subtypes.is_subtype(rt, lt) or subtypes.is_subtype(lt, rt):
        return True
    # A representation change keeps the content schema: rel(t) may become
    # stream(t), btree(t, ...), relrep(t) — the first argument carries the
    # tuple type in every collection constructor of the bundled models.
    if (
        isinstance(lt, TypeApp)
        and isinstance(rt, TypeApp)
        and lt.args
        and rt.args
        and lt.args[0] == rt.args[0]
    ):
        return True
    return False


def _check_type_preservation(
    rule: RewriteRule, sos, report: LintReport, source: str
) -> None:
    try:
        type_names, tuple_vars = _collect_type_vars(rule)
        tbinds = _rule_types(rule, tuple_vars, type_names, _ident_vars(rule, sos))
        subst: Subst = {}
        env: dict[str, Type] = {}
        for cond in rule.conditions:
            if isinstance(cond, TypeCondition):
                env[cond.variable] = _condition_type(cond, tbinds, sos)
        for rv in rule.variables.values():
            if not rv.is_operator_var and rv.type_pattern is not None:
                env[rv.name] = instantiate_pattern(rv.type_pattern, tbinds)
        names = [rv.name for rv in rule.variables.values() if not rv.is_operator_var]
        for cond in rule.conditions:
            if isinstance(cond, CatalogCondition):
                names.extend(cond.variables)
        for name in names:
            if name not in env:
                env[name] = fresh_var(subst)
        checker = TypeChecker(sos, object_types=env.get)
        # Substituting the bindings gives the lambda parameters their types.
        concrete = MatchState(tbinds)
        checked = []
        sides = (("RUL008", "LHS", rule.lhs), ("RUL004", "RHS", rule.rhs))
        for code, side, term in sides:
            try:
                term = checker.check(instantiate(term, concrete), dict(env), subst)
            except TypeCheckError as exc:
                report.add(
                    Diagnostic(
                        code,
                        f"{side} does not typecheck under symbolic bindings: {exc}",
                        source=source,
                        subject=rule.name,
                    )
                )
                return
            checked.append(term)
        lhs, rhs = checked
        if lhs.type is None or rhs.type is None:
            raise RuntimeError("typechecker returned an untyped term")
        lt, rt = substitute(lhs.type, subst), substitute(rhs.type, subst)
        if not _result_compatible(lt, rt, sos, subst):
            report.add(
                Diagnostic(
                    "RUL004",
                    "rewrite changes the plan type: LHS has type "
                    f"{lt} but RHS has type {rt}",
                    source=source,
                    subject=rule.name,
                )
            )
    except Exception as exc:  # pragma: no cover - analysis fallback
        report.add(
            Diagnostic(
                "RUL007",
                f"could not analyze rule symbolically: {exc}",
                source=source,
                subject=rule.name,
            )
        )


__all__ = ["lint_rules", "lint_optimizer"]
