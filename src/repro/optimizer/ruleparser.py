"""Textual optimization rules (paper Section 5).

A rule is written as::

    forall rel1: rel(tuple1) in REL. forall rel2: rel(tuple2) in REL.
    forall point: (tuple1 -> point). forall region: (tuple2 -> pgon).
    rel1 rel2 join[fun (t1: tuple1, t2: tuple2) (t1 point) inside (t2 region)]
    => rep1 feed
       fun (t1: tuple1) lsd2 (t1 point) point_search
           filter[fun (t2: tuple2) (t1 point) inside (t2 region)]
       search_join
    if rep(rel1, rep1) and rep1 : relrep(tuple1)
       and rep(rel2, lsd2) and lsd2 : lsdtree(tuple2, f)

— the ASCII form of the paper's rule, clause for clause.  Quantifiers over a
kind declare term variables (with an optional binding pattern); quantifiers
with a functionality ``(t -> r)`` declare operator variables.  The left- and
right-hand sides are ordinary concrete-syntax expressions parsed by the same
model-independent parser as queries; rule type variables simply enter the
parser as type aliases bound to :class:`~repro.core.types.PVar`.  Type
patterns are read by the specification parser's pattern reader.
Conditions are catalog lookups ``cat(v1, ..., vn)`` and type tests
``v : pattern`` (a test against ``relrep(...)`` allows subtyping).
"""

from __future__ import annotations

import re
from typing import Optional

from repro.core.patterns import TypePattern, pattern_variables
from repro.core.sos import SecondOrderSignature
from repro.core.terms import Apply, Var, free_names, walk_terms
from repro.core.types import PVar, Type, TypeApp
from repro.errors import ParseError
from repro.lang.lexer import tokenize
from repro.lang.parser import Parser
from repro.optimizer.conditions import (
    CatalogCondition,
    Condition,
    TypeCondition,
)
from repro.optimizer.rules import RewriteRule
from repro.optimizer.termmatch import RuleVar
from repro.spec.parser import Tokens, read_type_pattern


def parse_rule(text: str, sos: SecondOrderSignature, name: str = "rule") -> RewriteRule:
    """Parse one textual rule against a signature."""
    quantifier_lines, lhs_text, rhs_text, cond_text = _split(text)
    variables: dict[str, RuleVar] = {}
    type_vars: set[str] = set()
    for line in quantifier_lines:
        for rv, tvs in _parse_quantifiers(line, sos):
            variables[rv.name] = rv
            type_vars |= tvs
    conditions, condition_vars = _parse_conditions(cond_text, variables, type_vars)
    term_vars = {
        v.name for v in variables.values() if not v.is_operator_var
    } | condition_vars
    aliases = {tv: PVar(tv) for tv in type_vars}
    parser = Parser(sos, aliases=aliases, is_object=term_vars.__contains__)
    lhs = parser.parse_expression(lhs_text.strip())
    rhs = parser.parse_expression(rhs_text.strip())
    _check_rhs_bound(lhs, rhs, variables, condition_vars, conditions)
    return RewriteRule(
        name=name,
        variables=variables,
        lhs=lhs,
        rhs=rhs,
        conditions=tuple(conditions),
        doc=text.strip(),
    )


def _check_rhs_bound(lhs, rhs, variables, condition_vars, conditions) -> None:
    """Reject a right-hand side that uses a declared rule variable nothing
    binds — previously such rules parsed fine and failed only when (and if)
    they fired, as a ``KeyError``/``OptimizationError`` deep inside
    instantiation."""
    def uses(term) -> set[str]:
        names = {n.name for n in free_names(term) if isinstance(n, Var)}
        names |= {n.op for n in walk_terms(term) if isinstance(n, Apply)}
        return names & set(variables)

    bound = uses(lhs) | set(condition_vars)
    for cond in conditions:
        if isinstance(cond, TypeCondition):
            bound |= pattern_variables(cond.pattern)
        elif isinstance(cond, CatalogCondition):
            bound |= set(cond.variables)
    unbound = sorted(uses(rhs) - bound)
    if unbound:
        raise ParseError(
            "right-hand side uses variable(s) "
            + ", ".join(unbound)
            + " that neither the left-hand side nor the conditions bind"
        )


def _split(text: str) -> tuple[list[str], str, str, str]:
    stripped = "\n".join(
        line for line in text.splitlines() if line.strip() and not line.strip().startswith("--")
    )
    quantifier_lines = []
    rest_lines = []
    in_quantifiers = True
    for line in stripped.splitlines():
        if in_quantifiers and line.lstrip().startswith("forall"):
            quantifier_lines.append(line.strip())
        else:
            in_quantifiers = False
            rest_lines.append(line)
    rest = "\n".join(rest_lines)
    if "=>" not in rest:
        raise ParseError("rule needs '=>' between left and right sides")
    lhs, _, after = rest.partition("=>")
    match = re.search(r"(?:^|\s)if(?:\s)", after)
    if match:
        rhs = after[: match.start()]
        conditions = after[match.end() :]
    else:
        rhs = after
        conditions = ""
    return quantifier_lines, lhs, rhs, conditions


def _parse_quantifiers(line: str, sos) -> list[tuple[RuleVar, set[str]]]:
    """All ``forall`` clauses on one line."""
    out: list[tuple[RuleVar, set[str]]] = []
    toks = Tokens(tokenize(line))
    while toks.peek().kind != "EOF":
        word = toks.next()
        if word.text != "forall":
            raise ParseError(f"expected forall, got {word}")
        var = toks.next().text
        kind = None
        pattern: Optional[TypePattern] = None
        fun_args = None
        fun_result = None
        tvs: set[str] = set()
        if toks.peek().text == ":":
            toks.next()
            if toks.peek().text == "(":
                fun_args, fun_result, tvs = _parse_functionality(toks, sos)
            else:
                pattern = read_type_pattern(toks)
                tvs = pattern_variables(pattern) - {var}
        if toks.peek().text == "in":
            toks.next()
            kind = sos.type_system.kind(toks.next().text)
        if toks.peek().text == ".":
            toks.next()
        out.append(
            (
                RuleVar(
                    var,
                    kind=kind,
                    type_pattern=pattern,
                    fun_args=fun_args,
                    fun_result=fun_result,
                ),
                tvs,
            )
        )
    return out


def _parse_functionality(toks, sos) -> tuple[tuple[Type, ...], Type, set[str]]:
    """``(t1 x ... -> t)`` with rule type variables."""
    toks.expect("(")
    tvs: set[str] = set()
    args: list[Type] = []
    while toks.peek().text != "->":
        args.append(_rule_type(toks, sos, tvs))
        if toks.peek().text == "x" or (
            toks.peek().kind == "NAME" and toks.peek().text == "x"
        ):
            toks.next()
    toks.expect("->")
    result = _rule_type(toks, sos, tvs)
    toks.expect(")")
    return tuple(args), result, tvs


def _rule_type(toks, sos, tvs: set[str]) -> Type:
    """A type pattern in which a bare name of a declared type is that
    constant type (``point``), not a variable."""
    pattern = read_type_pattern(toks)
    if isinstance(pattern, PVar) and sos.type_system.has_constructor(pattern.name):
        return TypeApp(pattern.name)
    tvs |= pattern_variables(pattern)
    return pattern


def _parse_conditions(
    text: str, variables: dict[str, RuleVar], type_vars: set[str]
) -> tuple[list[Condition], set[str]]:
    """Conditions separated by 'and'; returns them plus the names of rule
    variables first bound by a catalog condition (usable on the RHS)."""
    conditions: list[Condition] = []
    new_vars: set[str] = set()
    stripped = text.strip().rstrip(".")
    if not stripped:
        return conditions, new_vars
    for clause in _split_on_and(stripped):
        toks = Tokens(tokenize(clause))
        first = toks.next().text
        if toks.peek().text == "(":
            toks.next()
            args = [toks.next().text]
            while toks.peek().text == ",":
                toks.next()
                args.append(toks.next().text)
            toks.expect(")")
            for arg in args:
                if arg not in variables:
                    new_vars.add(arg)
            conditions.append(CatalogCondition(first, tuple(args)))
        elif toks.peek().text == ":":
            toks.next()
            pattern = read_type_pattern(toks)
            subtype_ok = isinstance(pattern, TypeApp) and pattern.constructor == "relrep"
            type_vars |= pattern_variables(pattern)
            conditions.append(TypeCondition(first, pattern, subtype_ok=subtype_ok))
        else:
            raise ParseError(f"cannot parse condition: {clause}")
    return conditions, new_vars


def _split_on_and(text: str) -> list[str]:
    parts = re.split(r"\band\b", text)
    return [p.strip() for p in parts if p.strip()]
