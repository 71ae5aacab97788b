"""Term pattern matching for optimization rules.

A rule's left-hand side is an ordinary term in which some names are *rule
variables*.  Matching walks the (typechecked) subject term:

* ``Var(v)`` with ``v`` a rule variable binds the whole subterm, after
  checking the variable's declared type pattern and kind against the
  subterm's type;
* ``Apply(op, ...)`` with ``op`` a rule variable is an *operator variable*:
  it matches any operator or attribute application of the right arity whose
  result type matches the declared functionality — this is how the paper's
  rule abstracts over the ``point`` and ``region`` attributes;
* ``Fun`` patterns match lambdas of the same arity up to alpha-renaming;
  their parameter types are type patterns over the rule type variables
  (``t1: tuple1`` is the :class:`~repro.core.types.PVar` ``?tuple1``).

All bindings live in one namespace (:class:`MatchState`): type variables
bind type arguments, term variables bind subterms, operator variables bind
their name as a :class:`~repro.core.types.Sym` — so a B-tree type pattern
``btree(tuple1, attr, dtype)`` and an operator variable ``attr`` agree
automatically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional

from repro.core.kinds import Kind
from repro.core.patterns import TypePattern, instantiate_pattern, match_into
from repro.core.sorts import UnionSort
from repro.core.terms import (
    Apply,
    Call,
    Fun,
    ListTerm,
    Literal,
    ObjRef,
    OpRef,
    Term,
    TupleTerm,
    Var,
    same_term,
)
from repro.core.types import Sym, Type, TypeArg
from repro.errors import OptimizationError


@dataclass(frozen=True, slots=True)
class RuleVar:
    """Declaration of one rule variable.

    ``kind`` / ``type_pattern`` constrain term variables (``rel1: rel(tuple1)
    in REL``); ``fun_args`` / ``fun_result`` declare an operator variable's
    functionality (``point: (tuple1 -> point)``); all of these are type
    patterns over the rule's type variables.
    """

    name: str
    kind: Optional[Kind | UnionSort] = None
    type_pattern: Optional[TypePattern] = None
    fun_args: Optional[tuple[Type, ...]] = None
    fun_result: Optional[Type] = None

    @property
    def is_operator_var(self) -> bool:
        return self.fun_result is not None


@dataclass(slots=True)
class MatchState:
    """Bindings accumulated during matching and condition evaluation."""

    tbinds: dict[str, TypeArg] = field(default_factory=dict)
    vbinds: dict[str, Term] = field(default_factory=dict)

    def copy(self) -> "MatchState":
        return MatchState(dict(self.tbinds), dict(self.vbinds))

    def op_name(self, var: str) -> Optional[str]:
        bound = self.tbinds.get(var)
        return bound.name if isinstance(bound, Sym) else None


def match_pattern(
    pattern: Term,
    subject: Term,
    rule_vars: Mapping[str, RuleVar],
    state: MatchState,
    sos,
) -> Optional[MatchState]:
    """Match a rule pattern against a typechecked subject term.

    Returns an extended copy of ``state`` on success, ``None`` on failure.
    """
    trial = state.copy()
    if _match(pattern, subject, rule_vars, trial, {}, sos):
        return trial
    return None


def _match(
    pattern: Term,
    subject: Term,
    rule_vars: Mapping[str, RuleVar],
    state: MatchState,
    params: dict[str, str],
    sos,
) -> bool:
    if isinstance(pattern, Var):
        name = pattern.name
        if name in params:
            return isinstance(subject, Var) and subject.name == params[name]
        if name in rule_vars:
            return _bind_term_var(rule_vars[name], subject, state, sos)
        # A concrete name in the pattern: matches the same object/variable.
        return isinstance(subject, (Var, ObjRef)) and subject.name == name
    if isinstance(pattern, ObjRef):
        return isinstance(subject, (Var, ObjRef)) and subject.name == pattern.name
    if isinstance(pattern, Literal):
        return (
            isinstance(subject, Literal)
            and subject.value == pattern.value
            and type(subject.value) is type(pattern.value)
        )
    if isinstance(pattern, Apply):
        if not isinstance(subject, Apply):
            return False
        if len(pattern.args) != len(subject.args):
            return False
        if pattern.op in rule_vars:
            if not _bind_operator_var(
                rule_vars[pattern.op], subject, state, sos
            ):
                return False
        elif pattern.op != subject.op:
            return False
        return all(
            _match(p, s, rule_vars, state, params, sos)
            for p, s in zip(pattern.args, subject.args)
        )
    if isinstance(pattern, Fun):
        if not isinstance(subject, Fun):
            return False
        if len(pattern.params) != len(subject.params):
            return False
        inner = dict(params)
        for (pname, ptype), (sname, stype) in zip(pattern.params, subject.params):
            if ptype is not None and stype is not None:
                if not match_into(ptype, stype, state.tbinds):
                    return False
            inner[pname] = sname
        return _match(pattern.body, subject.body, rule_vars, state, inner, sos)
    if isinstance(pattern, (ListTerm, TupleTerm)):
        if type(subject) is not type(pattern):
            return False
        if len(pattern.items) != len(subject.items):
            return False
        return all(
            _match(p, s, rule_vars, state, params, sos)
            for p, s in zip(pattern.items, subject.items)
        )
    if isinstance(pattern, Call):
        if not isinstance(subject, Call) or len(pattern.args) != len(subject.args):
            return False
        if not _match(pattern.fn, subject.fn, rule_vars, state, params, sos):
            return False
        return all(
            _match(p, s, rule_vars, state, params, sos)
            for p, s in zip(pattern.args, subject.args)
        )
    if isinstance(pattern, OpRef):
        return isinstance(subject, OpRef) and subject.name == pattern.name
    raise OptimizationError(f"unsupported pattern node: {pattern!r}")


def _bind_term_var(rv: RuleVar, subject: Term, state: MatchState, sos) -> bool:
    bound = state.vbinds.get(rv.name)
    if bound is not None:
        return same_term(bound, subject)
    subject_type = subject.type
    if rv.type_pattern is not None:
        if subject_type is None:
            return False
        if not match_into(rv.type_pattern, subject_type, state.tbinds):
            return False
        state.tbinds[rv.name + ".type"] = subject_type
    if rv.kind is not None:
        if subject_type is None:
            return False
        if not sos.type_system.has_kind(subject_type, rv.kind):
            return False
    state.vbinds[rv.name] = subject
    return True


def _bind_operator_var(rv: RuleVar, subject: Apply, state: MatchState, sos) -> bool:
    """Bind an operator variable to the subject's operator name, checking
    the declared functionality against the subject's types."""
    existing = state.op_name(rv.name)
    if existing is not None:
        if existing != subject.op:
            return False
    if rv.fun_result is not None:
        if subject.type is None:
            return False
        if not match_into(rv.fun_result, subject.type, state.tbinds):
            return False
    if rv.fun_args is not None:
        if len(rv.fun_args) != len(subject.args):
            return False
        for declared, arg in zip(rv.fun_args, subject.args):
            if arg.type is None or not match_into(declared, arg.type, state.tbinds):
                return False
    state.tbinds[rv.name] = Sym(subject.op)
    return True


# ---------------------------------------------------------------------------
# Instantiation (building the right-hand side)
# ---------------------------------------------------------------------------


def instantiate(template: Term, state: MatchState) -> Term:
    """Build the right-hand-side instance of a rule under full bindings.

    Term variables are replaced by their bound subterms, operator variables
    by their bound names, and the type variables in parameter types by their
    bound types.  Terms are values, so the bound subterms — typed — and the
    template's own leaves are shared, not copied.  The nodes the template
    builds are unchecked; the engine typechecks the instance, which checks
    those nodes and takes each shared subterm as it is wherever its
    annotations still hold.
    """
    if isinstance(template, Var):
        bound = state.vbinds.get(template.name)
        if bound is not None:
            return bound
        sym = state.tbinds.get(template.name)
        if isinstance(sym, Sym):
            return Var(sym.name)
        return template
    if isinstance(template, (Literal, ObjRef, OpRef)):
        return template
    if isinstance(template, Apply):
        op = template.op
        bound_op = state.op_name(op)
        if bound_op is not None:
            op = bound_op
        return Apply(op, tuple(instantiate(a, state) for a in template.args))
    if isinstance(template, Fun):
        try:
            params = tuple(
                (name, None if ptype is None else instantiate_pattern(ptype, state.tbinds))
                for name, ptype in template.params
            )
        except KeyError as exc:
            raise OptimizationError(f"right-hand side: {exc.args[0]}") from None
        return Fun(params, instantiate(template.body, state))
    if isinstance(template, ListTerm):
        return ListTerm(tuple(instantiate(i, state) for i in template.items))
    if isinstance(template, TupleTerm):
        return TupleTerm(tuple(instantiate(i, state) for i in template.items))
    if isinstance(template, Call):
        return Call(
            instantiate(template.fn, state),
            tuple(instantiate(a, state) for a in template.args),
        )
    raise OptimizationError(f"unsupported template node: {template!r}")
