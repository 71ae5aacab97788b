"""Second-order algebra: values and evaluation (paper Def. 3.4).

A second-order algebra supplies a carrier set for every type, a function for
every type operator, and a function for every operator.  Here:

* carriers are Python values validated by per-constructor predicates
  (:meth:`SecondOrderAlgebra.check_value`);
* type-operator functions live on the
  :class:`~repro.core.operators.TypeOperator` objects in Δ;
* operator functions are the ``impl`` callables of the operator specs,
  invoked by the :class:`Evaluator`.

The module also defines the generic value classes shared by all models:
:class:`TupleValue`, :class:`Relation`, :class:`Stream` and function values
(:class:`Closure`).
"""

from __future__ import annotations

from dataclasses import dataclass
from time import monotonic as _monotonic
from typing import Callable, Iterable, Iterator, Optional

from repro.core.operators import ResolvedOp
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
)
from repro.core.types import (
    FunType,
    ProductType,
    Type,
    TypeApp,
    attrs_of,
    format_type,
)
from repro.errors import (
    ExecutionError,
    ResourceLimitError,
    StatementTimeoutError,
    UpdateError,
)
from repro.testing.faults import fault_point
from repro import observe


_ATTR_INDEX: dict[int, tuple[Type, dict[str, int]]] = {}
_ATTR_INDEX_LIMIT = 4096


def _attr_index(schema: Type) -> dict[str, int]:
    """The attribute-name -> position map of a tuple schema, computed once
    per schema object.

    All tuples of a relation or stream share one schema object, so the
    cache is keyed by its identity (hashing a type is a deep structural
    walk that costs more than building the map); an entry keeps its schema
    alive, so an ``id`` is never reused while cached.  A server that keeps
    typechecking new result schemas would grow the cache without bound, so
    it is emptied when it reaches ``_ATTR_INDEX_LIMIT`` schemas.
    """
    entry = _ATTR_INDEX.get(id(schema))
    if entry is None:
        if len(_ATTR_INDEX) >= _ATTR_INDEX_LIMIT:
            _ATTR_INDEX.clear()
        index = {name: i for i, (name, _) in enumerate(attrs_of(schema))}
        entry = _ATTR_INDEX[id(schema)] = (schema, index)
    return entry[1]


class TupleValue:
    """A tuple value: a schema (its tuple type) plus the component values."""

    __slots__ = ("schema", "values")

    def __init__(self, schema: Type, values: tuple):
        self.schema = schema
        self.values = tuple(values)

    def attr(self, name: str):
        """The value of attribute ``name``."""
        try:
            return self.values[_attr_index(self.schema)[name]]
        except KeyError:
            raise ExecutionError(f"tuple has no attribute {name}") from None

    def with_attr(self, name: str, value) -> "TupleValue":
        """A copy with attribute ``name`` replaced (the ``replace`` op)."""
        index = _attr_index(self.schema)[name]
        values = list(self.values)
        values[index] = value
        return TupleValue(self.schema, tuple(values))

    def concat(self, other: "TupleValue", schema: Type) -> "TupleValue":
        """Concatenation with another tuple under a given result schema."""
        return TupleValue(schema, self.values + other.values)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, TupleValue)
            and other.schema == self.schema
            and other.values == self.values
        )

    def __hash__(self) -> int:
        return hash((self.schema, self.values))

    def __repr__(self) -> str:
        pairs = ", ".join(
            f"{name}: {value!r}"
            for (name, _), value in zip(attrs_of(self.schema), self.values)
        )
        return f"({pairs})"


class Relation:
    """A relation value: a multiset of tuples of one tuple type."""

    __slots__ = ("type", "rows")

    def __init__(self, rel_type: Type, rows: Optional[Iterable[TupleValue]] = None):
        self.type = rel_type
        self.rows: list[TupleValue] = list(rows) if rows is not None else []

    @property
    def tuple_type(self) -> Type:
        assert isinstance(self.type, TypeApp)
        arg = self.type.args[0]
        assert isinstance(arg, Type)
        return arg

    def insert(self, row: TupleValue) -> None:
        self.rows.append(row)

    def clone(self) -> "Relation":
        """A snapshot copy (tuples are immutable and shared)."""
        return Relation(self.type, self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[TupleValue]:
        return iter(self.rows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Relation) or other.type != self.type:
            return NotImplemented if not isinstance(other, Relation) else False
        return sorted(map(repr, self.rows)) == sorted(map(repr, other.rows))

    def __repr__(self) -> str:
        return f"Relation[{format_type(self.type)}]({len(self.rows)} rows)"


class Stream:
    """A pipelined stream of tuples (kind STREAM of Section 4).

    Streams are one-shot: iterating consumes them, which models the paper's
    assumption that the execution engine processes stream operator sequences
    in a pipelined fashion.  Operators that need the input repeatedly must
    ``collect`` it first.
    """

    __slots__ = ("tuple_type", "_iterator", "_consumed")

    def __init__(self, tuple_type: Type, iterator: Iterable[TupleValue]):
        self.tuple_type = tuple_type
        self._iterator = iter(iterator)
        self._consumed = False

    def __iter__(self) -> Iterator[TupleValue]:
        if self._consumed:
            raise ExecutionError("stream already consumed; collect it first")
        self._consumed = True
        return self._iterator

    def materialize(self) -> list[TupleValue]:
        return list(self)

    def __repr__(self) -> str:
        return f"Stream[{format_type(self.tuple_type)}]"


Compiled = Callable[[dict], object]
"""A compiled term: maps an environment to the term's value."""


class Closure:
    """A function value: a lambda abstraction closed over an environment.

    The body is compiled once (:meth:`Evaluator.compile`), when the closure
    is built; a call only binds the parameters and runs the compiled body.
    ``body`` is the already-compiled body when the evaluator builds the
    closure from a ``Fun`` node it has compiled.
    """

    __slots__ = ("fun", "env", "evaluator", "_names", "_body")

    def __init__(
        self,
        fun: Fun,
        env: dict,
        evaluator: "Evaluator",
        body: Optional[Compiled] = None,
    ):
        self.fun = fun
        self.env = env
        self.evaluator = evaluator
        self._names = tuple(name for name, _ in fun.params)
        self._body = body if body is not None else evaluator.compile(fun.body)

    @property
    def param_types(self) -> tuple[Optional[Type], ...]:
        return tuple(ptype for _, ptype in self.fun.params)

    def __call__(self, *args):
        names = self._names
        if len(args) != len(names):
            raise ExecutionError(
                f"function expects {len(names)} argument(s), got {len(args)}"
            )
        env = self.env.copy()
        i = 0
        for value in args:  # measurably cheaper than update(zip(...))
            env[names[i]] = value
            i += 1
        return self._body(env)

    def __repr__(self) -> str:
        from repro.core.terms import format_term

        return f"<fun {format_term(self.fun)}>"


CarrierCheck = Callable[["SecondOrderAlgebra", object, Type], bool]


class SecondOrderAlgebra:
    """Carriers and functions for a second-order signature.

    Operator functions are taken from the specs' ``impl`` attributes (set by
    the model modules); carrier membership is checked through predicates
    registered per type constructor.
    """

    def __init__(self, sos: SecondOrderSignature):
        self.sos = sos
        self._carriers: dict[str, CarrierCheck] = {}

    def register_carrier(self, constructor: str, check: CarrierCheck) -> None:
        self._carriers[constructor] = check

    def check_value(self, value: object, t: Type) -> bool:
        """Does ``value`` inhabit the carrier of type ``t``?"""
        if isinstance(t, FunType):
            return callable(value)
        if isinstance(t, ProductType):
            return (
                isinstance(value, tuple)
                and len(value) == len(t.parts)
                and all(self.check_value(v, p) for v, p in zip(value, t.parts))
            )
        if isinstance(t, TypeApp):
            check = self._carriers.get(t.constructor)
            if check is None:
                return True  # unconstrained carrier
            return check(self, value, t)
        return False

    def require_value(self, value: object, t: Type) -> None:
        if not self.check_value(value, t):
            raise ExecutionError(
                f"value {value!r} does not inhabit type {format_type(t)}"
            )


@dataclass(slots=True)
class OpContext:
    """Passed to every operator implementation as its first argument."""

    evaluator: "Evaluator"
    algebra: SecondOrderAlgebra
    resolved: ResolvedOp
    term: Optional[Apply] = None

    @property
    def result_type(self) -> Type:
        return self.resolved.result_type

    @property
    def bindings(self):
        return self.resolved.bindings

    def binding_type(self, name: str) -> Type:
        """A type bound by the spec's quantifiers during typechecking."""
        bound = self.resolved.bindings[name]
        if not isinstance(bound, Type):
            raise ExecutionError(f"binding {name} is not a type: {bound!r}")
        return bound


@dataclass(slots=True)
class ResourceLimits:
    """Guards on evaluation: a budget of evaluation steps (term nodes
    visited, closure bodies included) and a recursion-depth bound.

    Either bound may be ``None`` (unbounded).  Exceeding a bound raises
    :class:`~repro.errors.ResourceLimitError`, so a pathological query
    degrades to a clean per-statement error instead of hanging or blowing
    the Python stack.

    ``deadline`` is a wall-clock cancellation point (a
    ``time.monotonic()`` instant): evaluation past it raises
    :class:`~repro.errors.StatementTimeoutError`.  The server arms it per
    statement from ``--statement-timeout-ms``; the clock is only read
    every :data:`DEADLINE_CHECK_STEPS` evaluation steps so an unarmed or
    rarely-firing deadline costs a bit test per step, not a syscall.
    """

    max_steps: Optional[int] = None
    max_depth: Optional[int] = None
    deadline: Optional[float] = None


DEADLINE_CHECK_STEPS = 64
"""Evaluation steps between deadline clock reads (a power of two)."""


def _not_applicable(op: str, values, exc: TypeError) -> ExecutionError:
    """Polymorphic constants (``bottom``/``top`` unify with any ordered
    domain) can deliver a value a Python impl cannot operate on; surface
    that as a clean statement error instead of a raw TypeError escaping the
    evaluator."""
    return ExecutionError(
        f"operator {op} cannot be applied to "
        f"{', '.join(repr(v) for v in values) or 'no arguments'}: {exc}"
    )


def _count_out(op: str, result):
    """Operator-level tuple accounting (collection is on): the stream an
    operator returns is wrapped so every tuple it produces is counted under
    the operator's name."""
    if isinstance(result, Stream):
        sink = observe.active()
        if sink is not None:
            return Stream(result.tuple_type, sink.count_out(op, iter(result)))
    return result


class Evaluator:
    """Evaluates typechecked terms against an algebra.

    A term is evaluated in two stages: :meth:`compile` translates it, once,
    into nested Python closures, and running the result against an
    environment gives the value.  What the term fixes — operator
    implementation, :class:`OpContext`, eagerness, update legality — is
    decided at compile time; what depends on the run (resource limits,
    fault injection, operator tuple counts) is still checked at every node
    visit, so a parameter function applied to a million tuples is compiled
    once and guarded a million times.

    ``resolver`` maps object names (:class:`ObjRef`) to their current values
    — typically :meth:`repro.catalog.database.Database.value_of`.

    ``limits`` (a :class:`ResourceLimits`) arms the resource guard; it is
    read at every node visit, so it may be swapped between statements.  The
    step/depth counters are reset per statement via :meth:`begin_statement`.
    """

    def __init__(
        self,
        algebra: SecondOrderAlgebra,
        resolver: Optional[Callable[[str], object]] = None,
        limits: Optional[ResourceLimits] = None,
    ):
        self.algebra = algebra
        self.resolver = resolver
        self.limits = limits
        self._steps = 0
        self._depth = 0

    def begin_statement(self) -> None:
        """Reset the resource-guard counters (called once per statement)."""
        self._steps = 0
        self._depth = 0

    def eval(self, term: Term, env: Optional[dict] = None, allow_update: bool = False):
        """Evaluate a term.  ``allow_update`` permits an update function at
        the *root* only (the term of an update statement)."""
        return self.compile(term, allow_update)({} if env is None else env)

    def compile(self, term: Term, allow_update: bool = False) -> Compiled:
        """Translate ``term`` into a function from an environment to its
        value.  Never raises: a node that cannot be evaluated compiles to a
        function that raises when (and only if) evaluation reaches it."""
        if type(term) is Apply:  # the one node ``allow_update`` concerns
            return self._compile_apply(term, allow_update)
        build = self._COMPILERS.get(type(term), Evaluator._compile_unknown)
        return build(self, term)

    def _visit(self, limits: ResourceLimits) -> None:
        """Charge one evaluation step — one visit of one term node — to
        ``limits``: check the step budget, the deadline, and that one more
        level of nesting stays within the depth bound."""
        steps = self._steps = self._steps + 1
        if limits.max_steps is not None and steps > limits.max_steps:
            raise ResourceLimitError(
                f"evaluation exceeded the step budget of {limits.max_steps}"
            )
        if (
            limits.deadline is not None
            and steps % DEADLINE_CHECK_STEPS == 1
            and _monotonic() > limits.deadline
        ):
            raise StatementTimeoutError(
                "statement cancelled: evaluation ran past its deadline"
            )
        if limits.max_depth is not None and self._depth >= limits.max_depth:
            raise ResourceLimitError(
                f"evaluation exceeded the recursion-depth limit of "
                f"{limits.max_depth}"
            )

    # Every compiled node starts with the same guard: read ``self.limits``
    # and, when armed, ``_visit``.  Nodes with sub-terms also hold
    # ``_depth`` one higher while they run.

    def _compile_literal(self, term: Literal) -> Compiled:
        ev, value = self, term.value

        def run(env):
            limits = ev.limits
            if limits is not None:
                ev._visit(limits)
            return value

        return run

    def _compile_var(self, term: Var) -> Compiled:
        ev, name = self, term.name

        def run(env):
            limits = ev.limits
            if limits is not None:
                ev._visit(limits)
            try:
                return env[name]
            except KeyError:
                pass
            # Bare identifiers that survived typechecking as object
            # references are resolved like ObjRef.
            if ev.resolver is None:
                raise ExecutionError(f"unbound variable: {name}")
            value = ev.resolver(name)
            if value is None:
                raise ExecutionError(f"object {name} is undefined or unknown")
            return value

        return run

    def _compile_objref(self, term: ObjRef) -> Compiled:
        ev, name = self, term.name

        def run(env):
            limits = ev.limits
            if limits is not None:
                ev._visit(limits)
            if ev.resolver is None:
                raise ExecutionError(
                    f"no object resolver; cannot evaluate object {name}"
                )
            return ev.resolver(name)

        return run

    def _compile_fun(self, term: Fun) -> Compiled:
        ev, body = self, self.compile(term.body)

        def run(env):
            limits = ev.limits
            if limits is not None:
                ev._visit(limits)
            return Closure(term, env.copy(), ev, body)

        return run

    def _compile_opref(self, term: OpRef) -> Compiled:
        ev = self

        def run(env):
            limits = ev.limits
            if limits is not None:
                ev._visit(limits)
            return ev._op_value(term)

        return run

    def _compile_error(self, error: type[Exception], message: str) -> Compiled:
        """A node evaluation must not get past: raises when it is reached."""
        ev = self

        def run(env):
            limits = ev.limits
            if limits is not None:
                ev._visit(limits)
            raise error(message)

        return run

    def _compile_unknown(self, term) -> Compiled:
        return self._compile_error(ExecutionError, f"cannot evaluate: {term!r}")

    def _compile_items(self, term, build: Callable[[Iterable], object]) -> Compiled:
        ev, items = self, [self.compile(item) for item in term.items]

        def run(env):
            limits = ev.limits
            if limits is not None:
                ev._visit(limits)
                ev._depth += 1
            try:
                return build([item(env) for item in items])
            finally:
                if limits is not None:
                    ev._depth -= 1

        return run

    def _compile_list(self, term: ListTerm) -> Compiled:
        return self._compile_items(term, list)

    def _compile_tuple(self, term: TupleTerm) -> Compiled:
        return self._compile_items(term, tuple)

    def _compile_call(self, term: Call) -> Compiled:
        ev, callee = self, self.compile(term.fn)
        args = [self.compile(a) for a in term.args]

        def run(env):
            limits = ev.limits
            if limits is not None:
                ev._visit(limits)
                ev._depth += 1
            try:
                fn = callee(env)
                if not callable(fn):
                    raise ExecutionError(f"value {fn!r} is not callable")
                return fn(*[a(env) for a in args])
            finally:
                if limits is not None:
                    ev._depth -= 1

        return run

    def _compile_apply(self, term: Apply, allow_update: bool) -> Compiled:
        op, resolved = term.op, term.resolved
        if resolved is None:
            return self._compile_error(
                ExecutionError,
                f"term was not typechecked: {op}(...) has no resolved operator",
            )
        if resolved.is_update and not allow_update:
            return self._compile_error(
                UpdateError,
                f"update function {op} applied outside an update statement",
            )
        spec = resolved.spec
        impl = resolved.impl
        if impl is None and spec is not None:
            impl = spec.impl
        if impl is None:
            return self._compile_error(
                ExecutionError, f"operator {op} has no implementation"
            )
        ev = self
        args = [self.compile(a) for a in term.args]
        ctx = OpContext(self, self.algebra, resolved, term)

        # One ``run`` per argument shape: the unary and binary forms (the
        # attribute accesses, comparisons and arithmetic of a parameter
        # function) call ``impl`` without building an argument list.
        eager = spec is not None and spec.eager
        if eager or len(args) not in (1, 2):

            def run(env):
                limits = ev.limits
                if limits is not None:
                    ev._visit(limits)
                    ev._depth += 1
                try:
                    fault_point("evaluator.apply")
                    values = [a(env) for a in args]
                    if eager:
                        values = [
                            v.materialize() if isinstance(v, Stream) else v
                            for v in values
                        ]
                    try:
                        result = impl(ctx, *values)
                    except TypeError as exc:
                        raise _not_applicable(op, values, exc) from exc
                    if observe.ENABLED:
                        result = _count_out(op, result)
                    return result
                finally:
                    if limits is not None:
                        ev._depth -= 1

        elif len(args) == 1:
            (first,) = args

            def run(env):
                limits = ev.limits
                if limits is not None:
                    ev._visit(limits)
                    ev._depth += 1
                try:
                    fault_point("evaluator.apply")
                    x = first(env)
                    try:
                        result = impl(ctx, x)
                    except TypeError as exc:
                        raise _not_applicable(op, (x,), exc) from exc
                    if observe.ENABLED:
                        result = _count_out(op, result)
                    return result
                finally:
                    if limits is not None:
                        ev._depth -= 1

        else:
            first, second = args

            def run(env):
                limits = ev.limits
                if limits is not None:
                    ev._visit(limits)
                    ev._depth += 1
                try:
                    fault_point("evaluator.apply")
                    x = first(env)
                    y = second(env)
                    try:
                        result = impl(ctx, x, y)
                    except TypeError as exc:
                        raise _not_applicable(op, (x, y), exc) from exc
                    if observe.ENABLED:
                        result = _count_out(op, result)
                    return result
                finally:
                    if limits is not None:
                        ev._depth -= 1

        return run

    _COMPILERS = {
        Literal: _compile_literal,
        Var: _compile_var,
        ObjRef: _compile_objref,
        Fun: _compile_fun,
        ListTerm: _compile_list,
        TupleTerm: _compile_tuple,
        OpRef: _compile_opref,
        Call: _compile_call,
    }

    def _op_value(self, term: OpRef):
        """An operator used as a function value.

        Resolution happened at typecheck time only for applications; for a
        bare operator value we require a unique spec of that name.
        """
        specs = self.algebra.sos.operators(term.name)
        if len(specs) != 1 or specs[0].impl is None:
            raise ExecutionError(
                f"operator {term.name} cannot be used as a value "
                "(ambiguous or unimplemented)"
            )
        spec = specs[0]

        def call(*args):
            result_type = term.type.result if isinstance(term.type, FunType) else None
            resolved = ResolvedOp(result_type=result_type, spec=spec, impl=spec.impl)
            ctx = OpContext(self, self.algebra, resolved, None)
            return spec.impl(ctx, *args)

        return call
