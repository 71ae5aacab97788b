"""Rewrite rules: pattern ``=>`` template ``if`` conditions (Section 5)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence

from repro.core.terms import Term, format_term
from repro.optimizer.conditions import Condition, solve_conditions
from repro.optimizer.termmatch import (
    MatchState,
    RuleVar,
    instantiate,
    match_pattern,
)


@dataclass(slots=True)
class RewriteRule:
    """One optimization rule.

    ``apply_at(subject, db)`` yields the rewritten (unchecked) term for each
    way the rule matches at the root of ``subject`` and its conditions are
    satisfiable — the engine takes the first result whose re-typecheck
    succeeds.
    """

    name: str
    variables: Mapping[str, RuleVar]
    lhs: Term
    rhs: Term
    conditions: Sequence[Condition] = field(default_factory=tuple)
    doc: str = ""

    def apply_at(
        self,
        subject: Term,
        db,
        outcome: list | None = None,
    ) -> Iterator[Term]:
        """``outcome``, when given, is a single-element list the rule writes
        its condition-evaluation result into: ``no_match`` (pattern failed),
        ``conditions_failed`` (pattern matched, no condition solution) or
        ``conditions_ok`` — the engine refines the last one into
        ``typecheck_failed`` / ``fired``."""
        state = match_pattern(self.lhs, subject, self.variables, MatchState(), db.sos)
        if state is None:
            if outcome is not None:
                outcome[0] = "no_match"
            return
        if outcome is not None:
            outcome[0] = "conditions_failed"
        for solved in solve_conditions(tuple(self.conditions), state, db):
            if outcome is not None:
                outcome[0] = "conditions_ok"
            yield instantiate(self.rhs, solved)

    def __str__(self) -> str:
        return f"{self.name}: {format_term(self.lhs)} => {format_term(self.rhs)}"


def rule_vars(*declarations: RuleVar) -> dict[str, RuleVar]:
    """Build a variable table from declarations."""
    return {rv.name: rv for rv in declarations}
