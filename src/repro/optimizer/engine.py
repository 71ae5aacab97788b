"""The rule engine: steps with control strategies (Gral-style, [BeG92]).

An optimizer is a sequence of :class:`OptimizerStep`; each step owns a rule
collection and a control strategy:

``exhaustive``
    apply rules anywhere in the term, repeatedly, until no rule fires (with
    a safety bound on the number of rewrites);
``once_topdown`` / ``once_bottomup``
    one traversal; at each node the first applicable rule fires at most
    once.

A step indexes its rules by the head of their left side — the operator and
arity of an ``Apply`` pattern, the way the paper's Section 5 rules are
written per operator — so at a node only the rules whose head matches the
node's operator and arity are *attempted*.  A rule whose left side has no
fixed head (a literal, a variable, an operator variable) is attempted at
every node.  Each bucket keeps the step's list order, so first-match
choice is exactly that of a scan over the whole list.

Every candidate rewrite is typechecked before acceptance; a rewrite whose
instance does not typecheck is discarded (the rule simply does not apply
there), which keeps unsound rules from corrupting plans.  The check costs
what the rule built, not the plan: a rule instance shares the typed
subterms it moves, and the checker takes each of them as it is — matching
only its type against the operand position — unless a variable free in it
is no longer bound, or bound at another type, where it now stands (see
:mod:`repro.core.typecheck`).

Terms are values, so rewriting cannot modify the input term: a rule
instance is a new term, and the path from the root to the rewritten node is
rebuilt (each rebuilt node keeps its ``type`` and ``resolved``) while every
untouched subterm is shared.  Callers may therefore keep — and report — the
term they passed in.

Passing a :class:`~repro.observe.RuleTrace` to :meth:`Optimizer.optimize`
records the full decision log — every fired rewrite with the term before
and after, and per-rule outcomes of every attempt — at formatting cost
only paid when a trace is requested.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

from repro.core.terms import Apply, Call, Fun, ListTerm, Term, TupleTerm, format_term
from repro.errors import OptimizationError, TypeCheckError
from repro.observe import RuleTrace
from repro.optimizer.rules import RewriteRule
from repro.testing.faults import fault_point

MAX_REWRITES = 200


@dataclass(frozen=True, slots=True)
class OptimizerStep:
    name: str
    rules: tuple[RewriteRule, ...]
    strategy: str = "exhaustive"  # 'exhaustive' | 'once_topdown' | 'once_bottomup'
    cost_based: bool = False
    """If true, *all* applicable rewrites at a node are generated and the
    cheapest (by :mod:`repro.optimizer.cost`) is taken, instead of the first
    rule in list order winning."""
    _by_head: dict[tuple[str, int], tuple[RewriteRule, ...]] = field(
        init=False, repr=False, compare=False
    )
    _headless: tuple[RewriteRule, ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        # Rules are grouped once, here; the step is frozen and ``rules`` a
        # tuple, so the index cannot fall out of step with the list.
        rules = tuple(self.rules)
        heads = [_head(rule) for rule in rules]
        by_head = {
            key: tuple(r for r, h in zip(rules, heads) if h in (key, None))
            for key in set(heads) - {None}
        }
        headless = tuple(r for r, h in zip(rules, heads) if h is None)
        object.__setattr__(self, "rules", rules)
        object.__setattr__(self, "_by_head", by_head)
        object.__setattr__(self, "_headless", headless)

    def rules_at(self, term: Term) -> tuple[RewriteRule, ...]:
        """The rules whose left side can match at ``term``, in list order."""
        if isinstance(term, Apply):
            return self._by_head.get((term.op, len(term.args)), self._headless)
        return self._headless


def _head(rule: RewriteRule) -> Optional[tuple[str, int]]:
    """``(op, arity)`` of the rule's left side, or ``None`` when it has no
    fixed operator (the rule may then match at any node)."""
    lhs = rule.lhs
    if isinstance(lhs, Apply) and lhs.op not in rule.variables:
        return lhs.op, len(lhs.args)
    return None


@dataclass(slots=True)
class OptimizationResult:
    term: Term
    fired: list[str] = field(default_factory=list)
    tried: int = 0
    trace: Optional[RuleTrace] = None

    @property
    def changed(self) -> bool:
        return bool(self.fired)


class Optimizer:
    """Applies the steps in order to a typechecked term."""

    def __init__(self, steps: Sequence[OptimizerStep]):
        self.steps = list(steps)

    def optimize(
        self, term: Term, db, trace: Optional[RuleTrace] = None
    ) -> OptimizationResult:
        """Rewrite ``term`` (already typechecked against ``db``).

        Returns the rewritten, re-typechecked term plus statistics; ``term``
        itself is left as it was.  With a ``trace``, every rule attempt and
        fired rewrite is recorded on it (and on ``result.trace``).
        """
        result = OptimizationResult(term, trace=trace)
        try:
            for step in self.steps:
                result.term = self._run_step(step, result.term, db, result, trace)
        except RecursionError:
            raise OptimizationError(
                "optimization exceeded the recursion limit — a rule set is "
                "growing terms without bound"
            ) from None
        return result

    # ------------------------------------------------------------ strategies

    def _run_step(self, step: OptimizerStep, term: Term, db, stats, trace) -> Term:
        if step.strategy == "exhaustive":
            for _ in range(MAX_REWRITES):
                new_term, fired = self._rewrite_once(
                    step, term, db, stats, topdown=True, trace=trace
                )
                if not fired:
                    return new_term
                term = new_term
            raise OptimizationError(
                f"step {step.name} exceeded {MAX_REWRITES} rewrites "
                "(non-terminating rule set?)"
            )
        if step.strategy == "once_topdown":
            new_term, _ = self._rewrite_once(
                step, term, db, stats, topdown=True, trace=trace
            )
            return new_term
        if step.strategy == "once_bottomup":
            new_term, _ = self._rewrite_once(
                step, term, db, stats, topdown=False, trace=trace
            )
            return new_term
        raise OptimizationError(f"unknown strategy: {step.strategy}")

    def _rewrite_once(
        self,
        step: OptimizerStep,
        term: Term,
        db,
        stats,
        topdown: bool,
        trace: Optional[RuleTrace] = None,
    ) -> tuple[Term, bool]:
        """One traversal; returns (new term, any rule fired)."""
        if topdown:
            new_term = self._try_rules(step, term, db, stats, trace)
            if new_term is not None:
                return new_term, True
        rebuilt, changed = self._rewrite_children(
            step, term, db, stats, topdown, trace
        )
        if changed:
            return rebuilt, True
        if not topdown:
            new_term = self._try_rules(step, rebuilt, db, stats, trace)
            if new_term is not None:
                return new_term, True
        return rebuilt, False

    def _rewrite_children(
        self, step: OptimizerStep, term: Term, db, stats, topdown: bool, trace
    ) -> tuple[Term, bool]:
        """Rewrite the first child that changes, under a rebuilt ``term``."""
        if isinstance(term, Apply):
            args, changed = self._rewrite_first(
                step, term.args, db, stats, topdown, trace
            )
            return (replace(term, args=args), True) if changed else (term, False)
        if isinstance(term, Fun):
            body, changed = self._rewrite_once(
                step, term.body, db, stats, topdown, trace
            )
            return (replace(term, body=body), True) if changed else (term, False)
        if isinstance(term, (ListTerm, TupleTerm)):
            items, changed = self._rewrite_first(
                step, term.items, db, stats, topdown, trace
            )
            return (replace(term, items=items), True) if changed else (term, False)
        if isinstance(term, Call):
            fn, changed = self._rewrite_once(
                step, term.fn, db, stats, topdown, trace
            )
            if changed:
                return replace(term, fn=fn), True
            args, changed = self._rewrite_first(
                step, term.args, db, stats, topdown, trace
            )
            return (replace(term, args=args), True) if changed else (term, False)
        return term, False

    def _rewrite_first(
        self, step: OptimizerStep, terms: tuple, db, stats, topdown: bool, trace
    ) -> tuple[tuple, bool]:
        """Rewrite the first of ``terms`` that changes; share the others."""
        for i, t in enumerate(terms):
            new, changed = self._rewrite_once(step, t, db, stats, topdown, trace)
            if changed:
                return terms[:i] + (new,) + terms[i + 1 :], True
        return terms, False

    def _try_rules(
        self,
        step: OptimizerStep,
        term: Term,
        db,
        stats,
        trace: Optional[RuleTrace],
    ) -> Optional[Term]:
        rules = step.rules_at(term)
        if not step.cost_based:
            for rule in rules:
                stats.tried += 1
                outcome = None if trace is None else [None]
                for candidate in rule.apply_at(term, db, outcome):
                    try:
                        checked = db.typechecker.check(candidate)
                    except TypeCheckError:
                        if outcome is not None:
                            outcome[0] = "typecheck_failed"
                        continue
                    fault_point("optimizer.rule")
                    stats.fired.append(rule.name)
                    if trace is not None:
                        trace.record_fired(
                            rule.name, step.name,
                            format_term(term), format_term(checked),
                        )
                    return checked
                if trace is not None:
                    trace.record_attempt(rule.name, outcome[0] or "no_match")
            return None
        # Cost-based choice: generate every applicable rewrite and keep the
        # cheapest plan under the structural cost model.
        from repro.optimizer.cost import estimate

        best = None
        best_cost = None
        best_rule = None
        before = format_term(term) if trace is not None else ""
        applicable: list[str] = []
        for rule in rules:
            stats.tried += 1
            outcome = None if trace is None else [None]
            applied = False
            for candidate in rule.apply_at(term, db, outcome):
                try:
                    checked = db.typechecker.check(candidate)
                except TypeCheckError:
                    if outcome is not None:
                        outcome[0] = "typecheck_failed"
                    continue
                applied = True
                cost = estimate(checked, db)
                if best_cost is None or cost < best_cost:
                    best, best_cost, best_rule = checked, cost, rule
            if trace is not None:
                if applied:
                    applicable.append(rule.name)
                else:
                    trace.record_attempt(rule.name, outcome[0] or "no_match")
        if trace is not None and best_rule is not None:
            for name in applicable:
                if name != best_rule.name:
                    trace.record_attempt(name, "cost_rejected")
        if best is not None:
            fault_point("optimizer.rule")
            stats.fired.append(best_rule.name)
            if trace is not None:
                trace.record_fired(
                    best_rule.name, step.name, before, format_term(best)
                )
            return best
        return None
