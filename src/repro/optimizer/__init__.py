"""Rule-based optimization (paper Section 5, following Gral [BeG92]).

Optimization rules are rewrite rules on algebra terms with typed variables:

* *term variables* bind operand subterms (relations, constants, whole
  parameter functions), constrained by type patterns and kinds;
* *operator variables* bind operator names in application position —
  ``(t1 point)`` matches any attribute/operator applied to ``t1`` with the
  declared functionality;
* *conditions* relate model objects to their representations through
  catalog lookups (``rep(rel1, rep1)``) and subtype/type tests
  (``lsd2: lsdtree(tuple2, f)``), evaluated with backtracking.

The engine applies rule collections in *steps*, each with its own control
strategy, and every rewrite result is re-typechecked before it replaces the
original term.
"""

from repro.optimizer.termmatch import (
    MatchState,
    RuleVar,
    instantiate,
    match_pattern,
)
from repro.optimizer.conditions import CatalogCondition, FunCondition, TypeCondition
from repro.optimizer.rules import RewriteRule
from repro.optimizer.engine import Optimizer, OptimizerStep, OptimizationResult
from repro.optimizer.cost import estimate
from repro.optimizer.ruleparser import parse_rule
from repro.optimizer.standard_rules import (
    cost_based_optimizer,
    standard_optimizer,
)

__all__ = [
    "RuleVar",
    "MatchState",
    "match_pattern",
    "instantiate",
    "CatalogCondition",
    "TypeCondition",
    "FunCondition",
    "RewriteRule",
    "Optimizer",
    "OptimizerStep",
    "OptimizationResult",
    "parse_rule",
    "standard_optimizer",
    "cost_based_optimizer",
    "estimate",
]
