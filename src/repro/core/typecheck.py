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
from repro.core.patterns import Bindings, PVar, match_type, pattern_variables
from repro.core.sorts import (
    AppSort,
    BindSort,
    FunSort,
    KindSort,
    ListSort,
    ProductSort,
    Sort,
    TypeSort,
    UnionSort,
    VarSort,
)
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
)
from repro.errors import NoMatchingOperator, SpecificationError, TypeCheckError

DEFAULT_LITERAL_TYPES = {bool: "bool", int: "int", float: "real", str: "string"}

TypeEnv = dict[str, Type]


class _Failure(Exception):
    """Internal: one spec candidate failed to match (not a user error)."""


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

    # ------------------------------------------------------------------ API

    def check(self, term: Term, env: Optional[TypeEnv] = None) -> Term:
        """Typecheck ``term``; returns the elaborated term with ``type`` set,
        sharing every subterm of ``term`` whose annotations hold.

        Raises :class:`TypeCheckError` (or a subclass) on failure.
        """
        if env is None:
            env = {}
        return self._check(term, env)

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
                if declared is not None and expected is not None and declared != expected:
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
        if getattr(fn_type, "wildcard", False):
            # Calling a lint wildcard: the arguments are checked on their
            # own; the result is again unconstrained.
            return Call(fn, tuple(self._check(a, env) for a in term.args), fn_type)
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
        dummy = OperatorSpec(
            name="<expected>",
            quantifiers=(),
            arg_sorts=(TypeSort(expected),),
            result=TypeSort(expected),
        )
        try:
            new_term, _ = self._match_term(term, TypeSort(expected), {}, env, dummy)
        except _Failure as exc:
            raise TypeCheckError(str(exc)) from None
        return new_term

    # --------------------------------------------------------- applications

    def _check_apply(self, term: Apply, env: TypeEnv) -> Apply:
        arity = len(term.args)
        failures: list[str] = []
        for spec in self.sos.operators_of_arity(term.op, arity):
            try:
                return self._try_spec(term, spec, env)
            except (_Failure, TypeCheckError) as exc:
                failures.append(str(exc))
        resolved = self._try_families(term, env)
        if resolved is not None:
            return resolved
        named = self.sos.operators(term.op)
        if not named:
            raise NoMatchingOperator(f"unknown operator: {term.op}")
        tried = iter(failures)
        detail = "; ".join(
            f"[{spec}]: "
            + (
                next(tried)
                if len(spec.arg_sorts) == arity
                else f"expects {len(spec.arg_sorts)} operand(s), got {arity}"
            )
            for spec in named
        )
        raise NoMatchingOperator(f"no functionality of {term.op} matches: {detail}")

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
        for arg, sort in zip(term.args, spec.arg_sorts):
            new_arg, descriptor = self._match_term(arg, sort, binds, env, spec)
            checked.append(new_arg)
            descriptors.append(descriptor)
        if spec.post_check is not None:
            message = spec.post_check(
                self.sos.type_system, binds, tuple(descriptors)
            )
            if message is not None:
                raise _Failure(message)
        result_type = self._result_type(spec, binds, tuple(descriptors))
        resolved = ResolvedOp(
            result_type=result_type, spec=spec, bindings=binds, impl=spec.impl
        )
        return Apply(term.op, tuple(checked), result_type, resolved)

    def _result_type(
        self, spec: OperatorSpec, binds: Bindings, descriptors: tuple
    ) -> Type:
        if isinstance(spec.result, TypeOperator):
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
        resolved = self._resolve_sort(spec.result, binds)
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
        spec: OperatorSpec,
    ) -> tuple[Term, object]:
        """Match one operand term against an argument sort.

        Returns ``(elaborated term, descriptor)`` where the descriptor is the
        operand's type, or a structural summary for identifier / list /
        product operands (consumed by type operators in Δ).  Raises
        :class:`_Failure` on mismatch.
        """
        if isinstance(sort, BindSort):
            new_term, descriptor = self._match_term(term, sort.sort, binds, env, spec)
            if isinstance(descriptor, Type):
                binds.setdefault(sort.name, descriptor)
            return new_term, descriptor
        if isinstance(sort, ListSort):
            if not isinstance(term, ListTerm):
                raise _Failure("expected a list operand <...>")
            if not term.items:
                raise _Failure("list operand must be non-empty")
            items = []
            descriptors = []
            for item in term.items:
                new_item, descriptor = self._match_term(
                    item, sort.element, binds, env, spec
                )
                items.append(new_item)
                descriptors.append(descriptor)
            return ListTerm(tuple(items)), descriptors
        if isinstance(sort, ProductSort):
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
                new_item, descriptor = self._match_term(item, part, binds, env, spec)
                items.append(new_item)
                descriptors.append(descriptor)
            return TupleTerm(tuple(items)), tuple(descriptors)
        if isinstance(sort, UnionSort):
            errors = []
            for alternative in sort.alternatives:
                trial = dict(binds)
                try:
                    new_term, descriptor = self._match_term(
                        term, alternative, trial, env, spec
                    )
                    binds.clear()
                    binds.update(trial)
                    return new_term, descriptor
                except (_Failure, TypeCheckError) as exc:
                    errors.append(str(exc))
            raise _Failure("no union alternative matched: " + "; ".join(errors))
        if isinstance(sort, FunSort):
            return self._match_function(term, sort, binds, env, spec)
        if self._is_ident_sort(sort):
            return self._match_ident(term)
        # Plain type-valued operand.
        try:
            checked = self._check(term, env)
        except TypeCheckError as first_error:
            constant = self._constant_op(term, sort, binds, spec)
            if constant is None:
                raise _Failure(str(first_error))
            checked = constant
        if checked.type is None:
            raise _Failure(f"operand {format_term(checked)} has no type")
        try:
            self._match_type(checked.type, sort, binds, spec)
        except _Failure:
            # A 0-ary function value (a view) may stand for its result:
            # ``query french_cities select[...]`` dereferences the view.
            if isinstance(checked.type, FunType) and not checked.type.args:
                call = Call(checked, (), checked.type.result)
                self._match_type(call.type, sort, binds, spec)
                return call, call.type
            raise
        return checked, checked.type

    def _is_ident_sort(self, sort: Sort) -> bool:
        return (
            isinstance(sort, TypeSort)
            and isinstance(sort.type, TypeApp)
            and sort.type.constructor == "ident"
        )

    def _match_ident(self, term: Term) -> tuple[Term, object]:
        """An identifier-valued operand (attribute names in project/replace)."""
        if isinstance(term, Var):
            lit = Literal(Sym(term.name), type=TypeApp("ident"))
            return lit, Sym(term.name)
        if isinstance(term, Literal) and isinstance(term.value, Sym):
            return Literal(term.value, type=TypeApp("ident")), term.value
        raise _Failure(f"expected an identifier, got {format_term(term)}")

    def _constant_op(
        self, term: Term, sort: Sort, binds: Bindings, spec: OperatorSpec
    ) -> Optional[Apply]:
        """Resolve a polymorphic constant (``bottom``, ``top``) from the
        expected type of its operand position."""
        if isinstance(term, Var):
            name = term.name
        elif isinstance(term, Apply) and not term.args:
            name = term.op
        else:
            return None
        expected = self._resolve_sort(sort, binds)
        if expected is None:
            return None
        for candidate in self.sos.operators_of_arity(name, 0):
            trial: Bindings = {}
            try:
                self._match_type(expected, candidate.result, trial, candidate)
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
        sort: FunSort,
        binds: Bindings,
        env: TypeEnv,
        spec: OperatorSpec,
    ) -> tuple[Term, object]:
        param_types = tuple(self._resolve_sort(p, binds) for p in sort.args)
        if isinstance(term, OpRef):
            result = self._resolve_sort(sort.result, binds)
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
            raise _Failure(str(exc)) from exc
        finally:
            if implicit:
                self._implicit_frames.pop()
        assert isinstance(fun.type, FunType)
        self._match_type(fun.type.result, sort.result, binds, spec)
        return fun, fun.type

    def _fresh_name(self) -> str:
        self._fresh += 1
        return f"_t{self._fresh}"

    # ------------------------------------------------- type-vs-sort matching

    def _match_type(
        self, t: Type, sort: Sort, binds: Bindings, spec: OperatorSpec
    ) -> None:
        """Match an operand *type* against a sort, possibly extending
        ``binds`` through quantifiers; tries the proper supertypes of ``t``
        (read from the signature's closure table) only when ``t`` fails."""
        failure = self._match_committing(t, sort, binds, spec)
        if failure is None:
            return
        for sup in self.sos.subtypes.supertypes(t)[1:]:
            if self._match_committing(sup, sort, binds, spec) is None:
                return
        raise _Failure(failure)

    def _match_committing(
        self, t: Type, sort: Sort, binds: Bindings, spec: OperatorSpec
    ) -> Optional[str]:
        """Match ``t`` on a copy of ``binds`` and keep the copy if it
        matched; otherwise return the failure's message and leave ``binds``
        alone.  A message, not the exception: a kept exception's traceback
        holds this frame's caller, a cycle that pins the statement's whole
        stack until the cycle collector runs."""
        trial = dict(binds)
        try:
            self._match_type_direct(t, sort, trial, spec)
        except _Failure as exc:
            return str(exc)
        binds.clear()
        binds.update(trial)
        return None

    def _match_type_direct(
        self, t: Type, sort: Sort, binds: Bindings, spec: OperatorSpec
    ) -> None:
        if getattr(t, "wildcard", False):
            # A lint wildcard (repro.lint.symbolic.AnyType) matches every
            # sort; bind the names the sort would have bound so result
            # sorts still resolve during the symbolic check.
            self._bind_wildcard(t, sort, binds, spec)
            return
        if isinstance(sort, BindSort):
            self._match_type_direct(t, sort.sort, binds, spec)
            binds.setdefault(sort.name, t)
            return
        if isinstance(sort, VarSort):
            bound = binds.get(sort.name)
            if bound is not None:
                if bound != t:
                    raise _Failure(
                        f"operand type {format_type(t)} differs from earlier "
                        f"binding of {sort.name}"
                    )
                return
            quantifier = self._quantifier_for(sort.name, spec)
            if quantifier is None:
                raise _Failure(f"variable {sort.name} has no quantifier")
            self._bind_quantifier(quantifier, t, binds)
            return
        if isinstance(sort, KindSort):
            if not self.sos.type_system.has_kind(t, sort.kind):
                raise _Failure(f"{format_type(t)} is not of kind {sort.kind}")
            return
        if isinstance(sort, TypeSort):
            if t == sort.type or self.sos.subtypes.is_subtype(t, sort.type):
                return
            raise _Failure(
                f"expected {format_type(sort.type)}, got {format_type(t)}"
            )
        if isinstance(sort, FunSort):
            if not isinstance(t, FunType) or len(t.args) != len(sort.args):
                raise _Failure(f"expected a function type, got {format_type(t)}")
            for arg, part in zip(t.args, sort.args):
                self._match_type_direct(arg, part, binds, spec)
            self._match_type_direct(t.result, sort.result, binds, spec)
            return
        if isinstance(sort, ProductSort):
            if not isinstance(t, ProductType) or len(t.parts) != len(sort.parts):
                raise _Failure(f"expected a product type, got {format_type(t)}")
            for part_type, part_sort in zip(t.parts, sort.parts):
                self._match_type_direct(part_type, part_sort, binds, spec)
            return
        if isinstance(sort, UnionSort):
            errors = []
            for alternative in sort.alternatives:
                trial = dict(binds)
                try:
                    self._match_type_direct(t, alternative, trial, spec)
                    binds.clear()
                    binds.update(trial)
                    return
                except _Failure as exc:
                    errors.append(str(exc))
            raise _Failure("; ".join(errors))
        if isinstance(sort, AppSort):
            if not isinstance(t, TypeApp) or t.constructor != sort.constructor:
                raise _Failure(
                    f"expected a {sort.constructor}(...) type, got {format_type(t)}"
                )
            if len(t.args) != len(sort.args):
                raise _Failure(
                    f"{sort.constructor} arity mismatch in {format_type(t)}"
                )
            for arg, part in zip(t.args, sort.args):
                if isinstance(arg, Type):
                    self._match_type_direct(arg, part, binds, spec)
                elif isinstance(part, VarSort):
                    bound = binds.get(part.name)
                    if bound is None:
                        binds[part.name] = arg
                    elif bound != arg:
                        raise _Failure(
                            f"argument {arg!r} differs from earlier binding "
                            f"of {part.name}"
                        )
                else:
                    raise _Failure(
                        f"cannot match non-type argument {arg!r} against "
                        f"sort {part!r}"
                    )
            return
        raise _Failure(f"cannot match a type against sort {sort!r}")

    def _bind_wildcard(
        self, t: Type, sort: Sort, binds: Bindings, spec: OperatorSpec
    ) -> None:
        """Bind the names ``sort`` would bind when matched by a wildcard."""
        if isinstance(sort, BindSort):
            binds.setdefault(sort.name, t)
            self._bind_wildcard(t, sort.sort, binds, spec)
            return
        if isinstance(sort, VarSort):
            binds.setdefault(sort.name, t)
            quantifier = self._quantifier_for(sort.name, spec)
            if quantifier is not None and quantifier.pattern is not None:
                for name in pattern_variables(quantifier.pattern):
                    binds.setdefault(name, t)

    def _quantifier_for(self, name: str, spec: OperatorSpec) -> Optional[Quantifier]:
        for quantifier in spec.quantifiers:
            if quantifier.var == name:
                return quantifier
        return None

    def _bind_quantifier(
        self, quantifier: Quantifier, t: Type, binds: Bindings
    ) -> None:
        pattern = (
            quantifier.pattern
            if quantifier.pattern is not None
            else PVar(quantifier.var)
        )
        matched = match_type(pattern, t, binds)
        if matched is None:
            raise _Failure(
                f"{format_type(t)} does not match the pattern of "
                f"quantifier {quantifier.var}"
            )
        if not self.sos.type_system.has_kind(t, quantifier.kind):
            kind = (
                quantifier.kind.name
                if hasattr(quantifier.kind, "name")
                else str(quantifier.kind)
            )
            raise _Failure(f"{format_type(t)} is not of kind {kind}")
        binds.clear()
        binds.update(matched)
        binds[quantifier.var] = t

    # ----------------------------------------------------- sort resolution

    def _resolve_sort(self, sort: Sort, binds: Bindings) -> Optional[Type]:
        """Resolve a sort to a concrete type under current bindings, or
        ``None`` if it is not yet determined (e.g. an unbound variable)."""
        if isinstance(sort, TypeSort):
            return sort.type
        if isinstance(sort, VarSort):
            bound = binds.get(sort.name)
            return bound if isinstance(bound, Type) else None
        if isinstance(sort, BindSort):
            return self._resolve_sort(sort.sort, binds)
        if isinstance(sort, AppSort):
            args = []
            for part in sort.args:
                if isinstance(part, VarSort):
                    bound = binds.get(part.name)
                    if bound is None:
                        return None
                    args.append(bound)
                    continue
                resolved = self._resolve_sort(part, binds)
                if resolved is None:
                    return None
                args.append(resolved)
            return TypeApp(sort.constructor, tuple(args))
        if isinstance(sort, FunSort):
            args = tuple(self._resolve_sort(a, binds) for a in sort.args)
            result = self._resolve_sort(sort.result, binds)
            if result is None or any(a is None for a in args):
                return None
            return FunType(args, result)  # type: ignore[arg-type]
        if isinstance(sort, ProductSort):
            parts = tuple(self._resolve_sort(p, binds) for p in sort.parts)
            if any(p is None for p in parts):
                return None
            return ProductType(parts)  # type: ignore[arg-type]
        return None
