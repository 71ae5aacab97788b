"""Type checking of terms against a second-order signature.

Checking an operator application means *matching* the operand types against
the spec's argument sorts under the quantifier bindings (Section 2.2 of the
paper): a quantifier ``rel: rel(tuple) in REL`` is satisfied by binding
``rel`` (and simultaneously ``tuple``) through a pattern match, followed by a
kind-membership check.  The result type is the instantiated result sort, or
— for type operators in Δ such as ``join`` — the value of the type-operator
function on the bindings and operand descriptors.

The checker is also the *elaborator* of the concrete syntax (Section 2.3):

* an expression in a function position (``select[age > 30]``) is implicitly
  abstracted over parameters whose types come from the application context,
  and free identifiers naming attributes of those parameters are rewritten
  into attribute accesses — exactly the "simplification recognized by the
  parser" the paper describes;
* ``fun`` parameters without declared types receive them from the expected
  function sort;
* polymorphic constants (``bottom``, ``top``) are resolved from the expected
  type of their operand position.

The checker never writes to a term (terms are frozen values): it returns a
new, elaborated term with ``type`` and ``resolved`` annotations filled in,
and the evaluator dispatches on those.  Overloaded operators are therefore
tried one candidate after another on the same operands — a failed attempt
has nothing to leave behind.

A node that already carries a type is returned as it is when its
annotations *hold* where it is placed: each of its free names — a lambda
parameter around it, or an object — still has the type it was checked
with.  Its type is still matched against the sort of
the operand position it lands in.  The optimizer shares the subterms a rule
moves into its instance, so checking the instance costs the nodes the rule
built; a moved subterm is checked again only when a lambda around it now
binds one of its free variables at another type, or no longer binds it.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.operators import (
    OperatorSpec,
    Quantifier,
    ResolvedOp,
    TypeOperator,
)
from repro.core.patterns import (
    Bindings,
    PVar,
    format_pattern,
    instantiate_type,
    match_into,
)
from repro.core.sorts import ListSort, Sort, UnionSort
from repro.core.sos import SecondOrderSignature
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
    format_term,
    free_names,
)
from repro.core.types import (
    FunType,
    ProductType,
    Sym,
    Type,
    TypeApp,
    attr_type,
    format_type,
    walk_type,
)
from repro.core.unify import (
    Subst,
    fresh_var,
    match_unify,
    resolve,
    substitute,
    unify,
)
from repro.errors import NoMatchingOperator, SpecificationError, TypeCheckError

DEFAULT_LITERAL_TYPES = {bool: "bool", int: "int", float: "real", str: "string"}

TypeEnv = dict[str, Type]


class _Failure(Exception):
    """Internal: one spec candidate failed to match (not a user error).

    ``detail`` is the message, or a function that renders it: most
    failures are dropped when a later candidate matches, so a mismatch
    formats its types only if a report needs them.  ``inside`` marks a
    failure from inside an operand — its own term did not check — rather
    than a mismatch of its type; ``operand`` is the 1-based position it
    came from.  Together they rank how deep a candidate got, so the report
    leads with the one that got furthest."""

    def __init__(self, detail: "str | Callable[[], str]", inside: bool = False):
        super().__init__()
        self.detail = detail
        self.inside = inside
        self.operand = 0

    def __str__(self) -> str:
        return _render(self.detail)


class TypeChecker:
    """Checks and elaborates terms against a second-order signature."""

    def __init__(
        self,
        sos: SecondOrderSignature,
        object_types: Optional[Callable[[str], Optional[Type]]] = None,
        literal_types: Optional[dict[type, str]] = None,
    ):
        self.sos = sos
        self.object_types = (
            object_types if object_types is not None else lambda name: None
        )
        self.literal_types = (
            dict(literal_types)
            if literal_types is not None
            else dict(DEFAULT_LITERAL_TYPES)
        )
        self._implicit_frames: list[list[tuple[str, Type]]] = []
        self._fresh = 0
        self._subst: Subst = {}
        self._quantifiers: tuple[Quantifier, ...] = ()
        self._binding_check = self._check_binding

    # ------------------------------------------------------------------ API

    def check(
        self, term: Term, env: Optional[TypeEnv] = None, subst: Optional[Subst] = None
    ) -> Term:
        """Typecheck ``term``; returns the elaborated term with ``type`` set,
        sharing every subterm of ``term`` whose annotations hold.

        ``subst`` is a substitution of flexible type variables
        (:mod:`repro.core.unify`) that the types in ``env`` may mention; the
        check solves for them in place.  An ordinary statement has none,
        and its operand types are matched without unification.

        Raises :class:`TypeCheckError` (or a subclass) on failure.
        """
        if env is None:
            env = {}
        if subst is None:
            return self._check(term, env)
        outer, self._subst = self._subst, subst
        try:
            return self._check(term, env)
        finally:
            self._subst = outer

    def type_of(self, term: Term, env: Optional[TypeEnv] = None) -> Type:
        checked = self.check(term, env)
        assert checked.type is not None
        return checked.type

    # ------------------------------------------------------------ dispatch

    def _check(self, term: Term, env: TypeEnv) -> Term:
        if term.type is not None and self._holds(term, env):
            return term
        if isinstance(term, Literal):
            return self._check_literal(term)
        if isinstance(term, Var):
            return self._check_var(term, env)
        if isinstance(term, ObjRef):
            obj_type = self.object_types(term.name)
            if obj_type is None:
                raise TypeCheckError(f"unknown object: {term.name}")
            return ObjRef(term.name, obj_type)
        if isinstance(term, Fun):
            return self._check_fun(term, env, expected_params=None)
        if isinstance(term, Apply):
            return self._check_apply(term, env)
        if isinstance(term, Call):
            return self._check_call(term, env)
        if isinstance(term, TupleTerm):
            items = tuple(self._check(i, env) for i in term.items)
            return TupleTerm(items, ProductType(tuple(i.type for i in items)))  # type: ignore[arg-type]
        if isinstance(term, ListTerm):
            raise TypeCheckError(
                "a list term <...> is only meaningful as an operator operand"
            )
        if isinstance(term, OpRef):
            raise TypeCheckError(
                f"operator {term.name} used as a value in an unconstrained "
                "position; a function sort context is required"
            )
        raise TypeCheckError(f"cannot typecheck: {term!r}")

    def _holds(self, term: Term, env: TypeEnv) -> bool:
        """Whether the annotations of a checked ``term`` hold in ``env``:
        each free name still denotes what it did when it was checked."""
        return all(
            (env[n.name] if n.name in env else self.object_types(n.name)) == n.type
            for n in free_names(term)
        )

    def _check_literal(self, term: Literal) -> Literal:
        ctor = self.literal_types.get(type(term.value))
        if ctor is None or not self.sos.type_system.has_constructor(ctor):
            raise TypeCheckError(
                f"no type for literal {term.value!r} in this type system"
            )
        return Literal(term.value, TypeApp(ctor))

    def _check_var(self, term: Var, env: TypeEnv) -> Term:
        if term.name in env:
            return Var(term.name, env[term.name])
        # Implicit-lambda elaboration: a free identifier naming an attribute
        # of an implicit parameter becomes an attribute access on it.
        for frame in reversed(self._implicit_frames):
            for pname, ptype in frame:
                dtype = attr_type(ptype, term.name)
                if dtype is not None:
                    access = Apply(term.name, (Var(pname),))
                    return self._check_apply(access, env)
        obj_type = self.object_types(term.name)
        if obj_type is not None:
            return Var(term.name, obj_type)
        raise TypeCheckError(f"unknown identifier: {term.name}")

    # ----------------------------------------------------------- functions

    def _check_fun(
        self,
        term: Fun,
        env: TypeEnv,
        expected_params: Optional[tuple[Optional[Type], ...]],
    ) -> Fun:
        """Check a lambda.  ``expected_params`` supplies parameter types from
        the application context, if any."""
        params: list[tuple[str, Type]] = []
        if expected_params is not None:
            if len(expected_params) != len(term.params):
                raise TypeCheckError(
                    f"function takes {len(term.params)} parameter(s); "
                    f"{len(expected_params)} required"
                )
            pairs = zip(term.params, expected_params)
            for (name, declared), expected in pairs:
                if (
                    declared is not None
                    and expected is not None
                    and declared != expected
                    and not (self._subst and unify(declared, expected, self._subst))
                ):
                    raise TypeCheckError(
                        f"parameter {name} declared as {format_type(declared)}, "
                        f"required {format_type(expected)}"
                    )
                ptype = declared if declared is not None else expected
                if ptype is None:
                    raise TypeCheckError(f"cannot infer type of parameter {name}")
                params.append((name, ptype))
        else:
            for name, declared in term.params:
                if declared is None:
                    raise TypeCheckError(
                        f"parameter {name} needs a type annotation here"
                    )
                self.sos.type_system.check_type(declared)
                params.append((name, declared))
        if term.type is not None and self._holds(term, env):
            # Its parameter types agree with the context, so its body's
            # annotations hold here too.
            return term
        inner = dict(env)
        inner.update(params)
        body = self._check(term.body, inner)
        if body.type is None:
            raise TypeCheckError(f"function body has no type: {format_term(body)}")
        return Fun(tuple(params), body, FunType(tuple(t for _, t in params), body.type))

    def _check_call(self, term: Call, env: TypeEnv):
        """Application of a function value (views, parameterized views).

        A call whose head is a bare name that does not denote a function
        value falls back to operator/attribute application — this makes the
        abstract (prefix) syntax ``age(p)`` parseable everywhere, as the
        paper uses it in all formal definitions.
        """
        if isinstance(term.fn, Var):
            head = term.fn.name
            known_value = head in env or self.object_types(head) is not None
            if not known_value and (
                self.sos.is_operator(head) or self.sos.families
            ):
                return self._check_apply(Apply(head, term.args), env)
        fn = self._check(term.fn, env)
        fn_type = fn.type
        if self._subst:
            fn_type = resolve(fn_type, self._subst)
            if isinstance(fn_type, PVar) and fn_type.name in self._subst:
                # A function value of unknown type: the call gives its shape.
                shape = FunType(
                    tuple(fresh_var(self._subst) for _ in term.args),
                    fresh_var(self._subst),
                )
                unify(fn_type, shape, self._subst)
                fn_type = shape
        if not isinstance(fn_type, FunType):
            raise TypeCheckError(
                f"{format_term(fn)} is not a function value "
                f"(type {format_type(fn_type) if fn_type else '?'})"
            )
        if len(term.args) != len(fn_type.args):
            raise TypeCheckError(
                f"function takes {len(fn_type.args)} argument(s), "
                f"got {len(term.args)}"
            )
        args = tuple(
            self.check_value_term(arg, expected, env)
            for arg, expected in zip(term.args, fn_type.args)
        )
        return Call(fn, args, fn_type.result)

    def check_value_term(
        self, term: Term, expected: Type, env: Optional[TypeEnv] = None
    ) -> Term:
        """Check a term against an *expected type* (update statements,
        function-call arguments).  Enables subtype coercion, polymorphic
        constant resolution (``empty``, ``bottom``) and view dereferencing,
        exactly like an operand position with sort ``expected``."""
        if env is None:
            env = {}
        if self._subst:
            # The expected type may mention unknowns, which a pattern
            # would read as its own variables: unify with it instead.
            new_term = self._check(term, env)
            if not unify(new_term.type, expected, self._subst):
                raise TypeCheckError(
                    f"expected {format_type(substitute(expected, self._subst))}, "
                    f"got {format_type(substitute(new_term.type, self._subst))}"
                )
            return new_term
        try:
            new_term, _ = self._match_term(term, expected, {}, env, ())
        except _Failure as exc:
            raise TypeCheckError(str(exc)) from None
        return new_term

    # --------------------------------------------------------- applications

    def _check_apply(self, term: Apply, env: TypeEnv) -> Apply:
        arity = len(term.args)
        failures: dict[OperatorSpec, tuple[tuple[bool, int], object]] = {}
        for spec in self.sos.operators_of_arity(term.op, arity):
            saved = self._subst and dict(self._subst)
            try:
                return self._try_spec(term, spec, env)
            except _Failure as exc:
                failures[spec] = ((exc.inside, exc.operand), exc.detail)
            except TypeCheckError as exc:
                failures[spec] = ((False, 0), str(exc))
            self._restore(saved)
        resolved = self._try_families(term, env)
        if resolved is not None:
            return resolved
        named = self.sos.operators(term.op)
        if not named:
            raise NoMatchingOperator(f"unknown operator: {term.op}")
        raise NoMatchingOperator(_no_match_report(term.op, arity, named, failures))

    def _try_families(self, term: Apply, env: TypeEnv) -> Optional[Apply]:
        if len(term.args) != 1 or not self.sos.families:
            return None
        try:
            arg = self._check(term.args[0], env)
        except TypeCheckError:
            return None
        if arg.type is None:
            return None
        for family in self.sos.families:
            resolved = family.resolve(term.op, (arg.type,))
            if resolved is not None:
                return Apply(term.op, (arg,), resolved.result_type, resolved)
        return None

    def _try_spec(self, term: Apply, spec: OperatorSpec, env: TypeEnv) -> Apply:
        binds: Bindings = {}
        checked: list[Term] = []
        descriptors: list[object] = []
        try:
            for arg, sort in zip(term.args, spec.arg_sorts):
                new_arg, descriptor = self._match_term(
                    arg, sort, binds, env, spec.quantifiers
                )
                checked.append(new_arg)
                descriptors.append(descriptor)
        except _Failure as exc:
            exc.operand = len(checked) + 1
            raise
        unknown = False
        if self._subst:
            # What is solved so far; a dependent constraint over a type
            # still unknown is not refuted.
            binds = {k: _settle(v, self._subst) for k, v in binds.items()}
            descriptors = [_settle(d, self._subst) for d in descriptors]
            unknown = _flexible((*binds.values(), *descriptors), self._subst)
        if spec.post_check is not None and not unknown:
            message = spec.post_check(
                self.sos.type_system, binds, tuple(descriptors)
            )
            if message is not None:
                failure = _Failure(message)
                failure.operand = len(term.args)
                raise failure
        result_type = self._result_type(spec, binds, tuple(descriptors), unknown)
        resolved = ResolvedOp(
            result_type=result_type, spec=spec, bindings=binds, impl=spec.impl
        )
        return Apply(term.op, tuple(checked), result_type, resolved)

    def _result_type(
        self, spec: OperatorSpec, binds: Bindings, descriptors: tuple, unknown: bool
    ) -> Type:
        if isinstance(spec.result, TypeOperator):
            if unknown:
                # Its function needs the operand types, which are unknown.
                return fresh_var(self._subst, spec.result.result_kind)
            try:
                result = spec.result.compute(
                    self.sos.type_system, binds, descriptors
                )
            except (TypeError, ValueError, KeyError) as exc:
                raise _Failure(f"type operator {spec.result.name} failed: {exc}")
            if not self.sos.type_system.has_kind(result, spec.result.result_kind):
                raise _Failure(
                    f"type operator {spec.result.name} produced "
                    f"{format_type(result)}, not of kind {spec.result.result_kind}"
                )
            return result
        resolved = instantiate_type(spec.result, binds)
        if resolved is None:
            raise SpecificationError(
                f"result sort of {spec.name} does not resolve to a type; "
                "a type operator is needed"
            )
        return resolved

    # ------------------------------------------------- term-vs-sort matching

    def _match_term(
        self,
        term: Term,
        sort: Sort,
        binds: Bindings,
        env: TypeEnv,
        quantifiers: tuple[Quantifier, ...],
    ) -> tuple[Term, object]:
        """Match one operand term against an argument sort, whose variables
        are bound under ``quantifiers``.

        Returns ``(elaborated term, descriptor)`` where the descriptor is the
        operand's type, or a structural summary for identifier / list /
        product operands (consumed by type operators in Δ).  Raises
        :class:`_Failure` on mismatch.
        """
        if isinstance(sort, ListSort):
            if not isinstance(term, ListTerm):
                raise _Failure("expected a list operand <...>")
            if not term.items:
                raise _Failure("list operand must be non-empty")
            items = []
            descriptors = []
            for item in term.items:
                new_item, descriptor = self._match_term(
                    item, sort.element, binds, env, quantifiers
                )
                items.append(new_item)
                descriptors.append(descriptor)
            return ListTerm(tuple(items)), descriptors
        if isinstance(sort, ProductType):
            if not isinstance(term, TupleTerm):
                raise _Failure("expected a product operand (...)")
            if len(term.items) != len(sort.parts):
                raise _Failure(
                    f"product operand has {len(term.items)} component(s), "
                    f"expected {len(sort.parts)}"
                )
            items = []
            descriptors = []
            for item, part in zip(term.items, sort.parts):
                new_item, descriptor = self._match_term(
                    item, part, binds, env, quantifiers
                )
                items.append(new_item)
                descriptors.append(descriptor)
            return TupleTerm(tuple(items)), tuple(descriptors)
        if isinstance(sort, FunType):
            return self._match_function(term, sort, binds, env, quantifiers)
        if isinstance(sort, TypeApp) and sort.constructor == "ident" and not sort.args:
            return self._match_ident(term)
        # A type-valued operand; a union sort is matched by its type.
        try:
            checked = self._check(term, env)
        except TypeCheckError as first_error:
            constant = self._constant_op(term, sort, binds)
            if constant is None:
                raise _Failure(str(first_error), inside=True)
            checked = constant
        if checked.type is None:
            raise _Failure(f"operand {format_term(checked)} has no type")
        try:
            self._match_type(checked.type, sort, binds, quantifiers)
        except _Failure:
            # A 0-ary function value (a view) may stand for its result:
            # ``query french_cities select[...]`` dereferences the view.
            if isinstance(checked.type, FunType) and not checked.type.args:
                call = Call(checked, (), checked.type.result)
                self._match_type(call.type, sort, binds, quantifiers)
                return call, call.type
            raise
        return checked, checked.type

    def _match_ident(self, term: Term) -> tuple[Term, object]:
        """An identifier-valued operand (attribute names in project/replace)."""
        if isinstance(term, Var):
            lit = Literal(Sym(term.name), type=TypeApp("ident"))
            return lit, Sym(term.name)
        if isinstance(term, Literal) and isinstance(term.value, Sym):
            return Literal(term.value, type=TypeApp("ident")), term.value
        raise _Failure(f"expected an identifier, got {format_term(term)}")

    def _constant_op(
        self, term: Term, sort: Sort, binds: Bindings
    ) -> Optional[Apply]:
        """Resolve a polymorphic constant (``bottom``, ``top``) from the
        expected type of its operand position."""
        if isinstance(term, Var):
            name = term.name
        elif isinstance(term, Apply) and not term.args:
            name = term.op
        else:
            return None
        expected = instantiate_type(sort, binds)
        if expected is None:
            return None
        for candidate in self.sos.operators_of_arity(name, 0):
            trial: Bindings = {}
            try:
                self._match_type(
                    expected, candidate.result, trial, candidate.quantifiers
                )
            except _Failure:
                continue
            resolved = ResolvedOp(
                result_type=expected,
                spec=candidate,
                bindings=trial,
                impl=candidate.impl,
            )
            return Apply(name, (), expected, resolved)
        return None

    def _match_function(
        self,
        term: Term,
        sort: FunType,
        binds: Bindings,
        env: TypeEnv,
        quantifiers: tuple[Quantifier, ...],
    ) -> tuple[Term, object]:
        if self._subst and isinstance(term, Var) and term.name in env:
            # A variable of a rule in a function position: a function value
            # whose type the sort constrains.
            value = Var(term.name, env[term.name])
            self._match_type(value.type, sort, binds, quantifiers)
            return value, substitute(value.type, self._subst)
        param_types = tuple(instantiate_type(p, binds) for p in sort.args)
        if isinstance(term, OpRef):
            result = instantiate_type(sort.result, binds)
            if result is None or any(p is None for p in param_types):
                raise _Failure(
                    f"cannot determine the functionality of operator value {term.name}"
                )
            ref = OpRef(term.name, type=FunType(tuple(param_types), result))  # type: ignore[arg-type]
            return ref, ref.type
        implicit = False
        if not isinstance(term, Fun):
            if any(p is None for p in param_types):
                raise _Failure(
                    "shorthand function bodies need fully determined parameter types"
                )
            params = tuple((self._fresh_name(), p) for p in param_types)
            term = Fun(params, term)
            implicit = True
        if implicit:
            self._implicit_frames.append([(n, t) for n, t in term.params])  # type: ignore[misc]
        try:
            fun = self._check_fun(term, env, expected_params=param_types)
        except TypeCheckError as exc:
            raise _Failure(str(exc), inside=True) from exc
        finally:
            if implicit:
                self._implicit_frames.pop()
        assert isinstance(fun.type, FunType)
        self._match_type(fun.type.result, sort.result, binds, quantifiers)
        return fun, fun.type

    def _fresh_name(self) -> str:
        self._fresh += 1
        return f"_t{self._fresh}"

    # ------------------------------------------------- type-vs-sort matching

    def _match_type(
        self, t: Type, sort: Sort, binds: Bindings, quantifiers: tuple[Quantifier, ...]
    ) -> None:
        """Match an operand *type* against a sort pattern, extending
        ``binds`` through ``quantifiers``; tries the proper
        supertypes of ``t`` (read from the signature's closure table) only
        when ``t`` fails."""
        self._quantifiers = quantifiers
        if sort is t or self._matches(sort, t, binds):
            return
        for sup in self.sos.subtypes.supertypes(t)[1:]:
            if self._matches(sort, sup, binds):
                return
        raise _Failure(lambda: _mismatch(t, sort, binds))

    def _matches(self, sort: Sort, t: Type, binds: Bindings) -> bool:
        """Match ``t`` into ``binds``; on failure take back what it bound.
        A match only adds names (or rebinds one to an equal value), so the
        names added after the first ``size`` are exactly its bindings."""
        size = len(binds)
        saved = self._subst and dict(self._subst)
        if isinstance(sort, UnionSort):
            if any(self._matches(a, t, binds) for a in sort.alternatives):
                return True
        elif saved:
            if match_unify(sort, t, binds, self._subst, self._binding_check):
                return True
        elif match_into(sort, t, binds, self._binding_check):
            return True
        for name in list(binds)[size:]:
            del binds[name]
        self._restore(saved)
        return False

    def _match_pattern(self, pattern, t, binds: Bindings) -> bool:
        if self._subst:
            return match_unify(pattern, t, binds, self._subst, self._binding_check)
        return match_into(pattern, t, binds, self._binding_check)

    def _check_binding(self, var: PVar, t, binds: Bindings) -> bool:
        """The constraint on a variable a match binds afresh: its kind
        annotation, or the pattern and kind of its quantifier."""
        if var.kind is not None:
            return self.sos.type_system.has_kind(t, var.kind)
        for quantifier in self._quantifiers:
            if quantifier.var == var.name:
                if quantifier.pattern is not None and not self._match_pattern(
                    quantifier.pattern, t, binds
                ):
                    return False
                if self._subst:
                    t = resolve(t, self._subst)
                return self.sos.type_system.has_kind(t, quantifier.kind)
        return True

    def _restore(self, saved: Subst) -> None:
        """Take back what a failed attempt bound in the substitution (an
        empty ``saved``: the check has no substitution, nothing to undo)."""
        if saved:
            self._subst.clear()
            self._subst.update(saved)



def _render(detail: "str | Callable[[], str]") -> str:
    return detail if isinstance(detail, str) else detail()


def _mismatch(t: Type, sort: Sort, binds: Bindings) -> str:
    expected = instantiate_type(sort, binds)
    shown = format_pattern(sort) if expected is None else format_type(expected)
    return f"expected {shown}, got {format_type(t)}"


def _settle(value, subst: Subst):
    """A binding or descriptor with the solved variables substituted."""
    if isinstance(value, (list, tuple)):
        return type(value)(_settle(v, subst) for v in value)
    return substitute(value, subst)


def _flexible(value, subst: Subst) -> bool:
    if isinstance(value, (list, tuple)):
        return any(_flexible(v, subst) for v in value)
    return any(isinstance(n, PVar) and n.name in subst for n in walk_type(value))


def _no_match_report(
    op: str,
    arity: int,
    named: tuple[OperatorSpec, ...],
    failures: dict[OperatorSpec, tuple[tuple[bool, int], object]],
) -> str:
    """The message of a failed application: the first line is the failure
    of the candidate that got deepest into its operands (an error from
    inside an operand ranks above a type mismatch, a later operand above an
    earlier one); then that candidate and every other one, one line each."""
    rows = []
    for spec in named:
        reason = f"expects {len(spec.arg_sorts)} operand(s), got {arity}"
        depth, detail = failures.get(spec, ((False, -1), reason))
        first = (_render(detail).splitlines() or [""])[0]
        where = f"operand {depth[1]}: " if depth[1] > 0 else ""
        rows.append((depth, first, f"  [{spec}]: {where}{first}"))
    rows.sort(key=lambda row: row[0], reverse=True)
    head = [rows[0][1], f"no functionality of {op} matches:"]
    return "\n".join(head + [row[2] for row in rows])
