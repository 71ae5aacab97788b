"""Second-order algebra: values and evaluation (paper Def. 3.4).

A second-order algebra supplies a carrier set for every type, a function for
every type operator, and a function for every operator.  Here:

* carriers are Python values validated by per-constructor predicates
  (:meth:`SecondOrderAlgebra.check_value`).  A value does not carry its
  type: the carrier of a tuple type is a plain Python tuple, and the type
  lives on the typed term;
* type-operator functions live on the
  :class:`~repro.core.operators.TypeOperator` objects in Δ;
* operator functions are the ``impl`` callables of the operator specs,
  invoked by the :class:`Evaluator`.

The module also defines the generic value classes shared by all models:
:class:`Relation`, :class:`Stream` and function values (:class:`Closure`),
and the one boundary between carriers and the API: :func:`view` builds
:class:`TupleValue` views of a result, :func:`carrier` takes a value given
to the system back to its carrier.
"""

from __future__ import annotations

import itertools
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
    ArgList,
    FunType,
    ProductType,
    Type,
    TypeApp,
    attr_index,
    attrs_of,
    format_type,
)
from repro.errors import (
    ExecutionError,
    ResourceLimitError,
    StatementTimeoutError,
    UpdateError,
)
from repro.testing import faults as _faults
from repro.testing.faults import fault_point
from repro import observe


class TupleValue:
    """The API view of a tuple value: its schema (the tuple type) plus the
    component values.

    Below the API a tuple value is its carrier, a plain Python tuple, and
    its type lives on the typed term (Def. 3.4).  A view is built only where
    a value leaves the system (:func:`view`), and a value entering it is
    turned back into its carrier (:func:`carrier`).
    """

    __slots__ = ("schema", "values")

    def __init__(self, schema: Type, values: tuple):
        self.schema = schema
        self.values = tuple(values)

    def attr(self, name: str):
        """The value of attribute ``name``."""
        entry = attr_index(self.schema, name)
        if entry is None:
            raise ExecutionError(f"tuple has no attribute {name}")
        return self.values[entry[0]]

    def with_attr(self, name: str, value) -> "TupleValue":
        """A copy with attribute ``name`` replaced (the ``replace`` op)."""
        index = attr_index(self.schema, name)[0]
        values = self.values
        return view(self.schema, values[:index] + (value,) + values[index + 1 :])

    def concat(self, other: "TupleValue", schema: Type) -> "TupleValue":
        """Concatenation with another tuple under a given result schema."""
        return view(schema, self.values + other.values)

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
    """A relation value: a multiset of tuples of one tuple type.

    It keeps whatever rows it is given: carriers below the API, views in a
    result (:func:`view`) or on a client.
    """

    __slots__ = ("type", "rows")

    def __init__(self, rel_type: Type, rows: Optional[Iterable] = None):
        self.type = rel_type
        self.rows: list = list(rows) if rows is not None else []

    @property
    def tuple_type(self) -> Type:
        assert isinstance(self.type, TypeApp)
        arg = self.type.args[0]
        assert isinstance(arg, Type)
        return arg

    def insert(self, row) -> None:
        self.rows.append(row)

    def clone(self) -> "Relation":
        """A snapshot copy (tuples are immutable and shared)."""
        return Relation(self.type, self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator:
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

    def __init__(self, tuple_type: Type, iterator: Iterable):
        self.tuple_type = tuple_type
        self._iterator = iter(iterator)
        self._consumed = False

    def __iter__(self) -> Iterator:
        if self._consumed:
            raise ExecutionError("stream already consumed; collect it first")
        self._consumed = True
        return self._iterator

    def materialize(self) -> list:
        return list(self)

    def __repr__(self) -> str:
        return f"Stream[{format_type(self.tuple_type)}]"


def view(t: Type, value):
    """The API view of a carrier ``value`` of type ``t``: a tuple becomes a
    :class:`TupleValue` of schema ``t``, recursively through the tuple and
    ``rel`` types inside it; a relation, a materialized stream (a list) or a
    stream of tuples gets its rows viewed; any other value is its own view.

    Called only where values leave the system: a query's result
    (:class:`~repro.system.sos_system.SystemResult`) and
    :meth:`Evaluator.eval`.  The viewing function is built once per call,
    rows of a flat tuple type are viewed in one loop, and a view is made
    without :class:`TupleValue`'s ``tuple()`` copy, so a 20-row range pays
    one walk of ``t`` and one object per row.  A value that already is a
    view is returned unchanged.
    """
    viewer = _viewer(t)
    return value if viewer is None else viewer(value)


def _viewer(t) -> Optional[Callable]:
    """The function :func:`view` applies to a carrier of ``t``, or ``None``
    where the carrier is its own view."""
    if type(t) is not TypeApp or len(t.args) != 1:
        return None
    new = object.__new__
    arg = t.args[0]
    if type(arg) is not ArgList:  # a collection type: rel, stream, ...
        parts = _attribute_viewers(arg)
        if parts is not None and not any(parts):
            schema = arg

            def rows(values) -> list:  # flat tuples: no call per row
                out = []
                for r in values:
                    if r.__class__ is tuple:
                        tv = new(TupleValue)
                        tv.schema = schema
                        tv.values = r
                        r = tv
                    out.append(r)
                return out

        else:
            element = _viewer(arg)
            if element is None:
                return None

            def rows(values) -> list:
                return [element(r) for r in values]

        def collection(value):
            cls = value.__class__
            if cls is Relation:
                relation = Relation(value.type)
                relation.rows = rows(value.rows)
                return relation
            if cls is list:
                return rows(value)
            if cls is Stream:  # lazily, one row at a time
                return Stream(value.tuple_type, (rows((r,))[0] for r in value))
            return value  # a storage structure: its rows stay carriers

        return collection
    parts = _attribute_viewers(t)
    if parts is None:
        return None
    nested = any(parts)

    def row(value):
        if value.__class__ is not tuple:
            return value  # already a view
        if nested:
            value = tuple([v if f is None else f(v) for f, v in zip(parts, value)])
        tv = new(TupleValue)
        tv.schema = t
        tv.values = value
        return tv

    return row


def _attribute_viewers(t) -> Optional[list]:
    """Per attribute of tuple type ``t``, the :func:`_viewer` of its type;
    ``None`` if ``t`` is not tuple-shaped."""
    if type(t) is not TypeApp or len(t.args) != 1 or type(t.args[0]) is not ArgList:
        return None
    try:
        attrs = attrs_of(t)
    except TypeError:  # an argument list that is not attribute pairs
        return None
    return [_viewer(a) if a.__class__ is TypeApp and a.args else None for _, a in attrs]


def carrier(value):
    """The carrier of a value entering the system: a :class:`TupleValue`
    becomes the plain tuple of its components' carriers, and a
    :class:`Relation` or a list (a materialized stream) holding views gets
    carrier rows; every other value, a plain tuple included, is its own
    carrier.  The inverse of :func:`view`: ``carrier(view(t, v)) == v``."""
    cls = value.__class__
    if cls is TupleValue:
        values = value.values
        for v in values:
            kind = v.__class__
            if kind is TupleValue or kind is Relation:
                return tuple([carrier(v) for v in values])
        return values
    if cls is Relation or cls is list:
        rows = value.rows if cls is Relation else value
        for row in rows:
            if row.__class__ is TupleValue:
                rows = [carrier(r) for r in rows]
                if cls is list:
                    return rows
                relation = Relation(value.type)
                relation.rows = rows
                return relation
    return value


Compiled = Callable[[dict], object]
"""A compiled term: maps an environment to the term's value."""


class Closure:
    """A function value: a lambda abstraction closed over an environment.

    The body is compiled once (:meth:`Evaluator.compile`), when the closure
    is built; a call only binds the parameters and runs the compiled body.
    ``body`` is the already-compiled body when the evaluator builds the
    closure from a ``Fun`` node it has compiled, and ``fused`` its one
    generated function (:meth:`Evaluator.fuse`), if the body can be fused;
    ``lazy`` says that the fused body builds a stream.

    A call runs the fused function while nothing watches evaluation: no
    resource limits on the evaluator and no fault plan armed, both read on
    every call, and — for a lazy body — no statement metrics, whose
    per-operator tuple counts only the per-node body keeps.  Otherwise,
    and whenever the fused function raises, it runs the per-node body —
    the reference semantics — so step counts, deadline reads, depth,
    operator counts and ``evaluator.apply`` fault hits are those of the
    per-node body by construction, and an error is the one its operator
    impl raises.  Re-running after a failure is sound because every
    operator a fused body contains is pure: a probe operator only builds
    a stream, whose pages are read as it is consumed.
    """

    __slots__ = ("fun", "env", "evaluator", "_names", "_body", "_fused", "_lazy")

    def __init__(
        self,
        fun: Fun,
        env: dict,
        evaluator: "Evaluator",
        body: Optional[Compiled] = None,
        fused: Optional[Callable] = None,
        lazy: bool = False,
    ):
        self.fun = fun
        self.env = env
        self.evaluator = evaluator
        self._names = None  # the parameter names, on the first per-node call
        if body is None:
            body, fusion = evaluator.compile(fun.body), evaluator._fusion(fun)
            if fusion is not None:
                fused, lazy = fusion.bind(env), fusion.lazy
        self._body = body
        self._fused = fused
        self._lazy = lazy

    @property
    def param_types(self) -> tuple[Optional[Type], ...]:
        return tuple(ptype for _, ptype in self.fun.params)

    def __call__(self, *args):
        fused = self._fused
        if (
            fused is not None
            and self.evaluator.limits is None
            and _faults._ARMED is None
            and not (self._lazy and observe.ENABLED)
        ):
            try:
                return fused(*args)
            except Exception:  # noqa: BLE001 — the per-node body raises it
                pass
        names = self._names
        if names is None:
            names = self._names = tuple([name for name, _ in self.fun.params])
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


def _stream_element(t) -> Optional[Type]:
    """The tuple type of a ``stream(tuple)`` type, else ``None``."""
    if isinstance(t, TypeApp) and t.constructor == "stream" and t.args:
        return t.args[0]
    return None


def _inline_form(term: Apply) -> Optional[str]:
    """The Python expression template of an application, over operand
    names ``{0}``, ``{1}``, ... and ``{elem}``, the tuple type of a stream
    result; ``None`` unless the impl the per-node body would call declares
    one.

    Attribute access is ``{0}[i]``, at the position the typechecker
    resolved.  Other operators carry their template on the spec
    (``OperatorSpec.inline``): the comparisons, arithmetic and logic, and
    the probe operators that build a lazy stream (``exact``, ``range``,
    ``point_search``, ``filter``).  An eager operator materializes its
    stream operands first, which a template does not, so it has none.
    """
    resolved = term.resolved
    if resolved is None:
        return None
    if resolved.is_attribute:
        return f"{{0}}[{resolved.attr_index}]"
    spec = resolved.spec
    if spec is None or spec.inline is None or spec.eager:
        return None
    if resolved.impl is not None and resolved.impl is not spec.impl:
        return None
    return spec.inline


def _resolve(ev: "Evaluator", name: str):
    """The value of a name the environment does not bind: an object,
    looked up through the evaluator's resolver."""
    if ev.resolver is None:
        raise ExecutionError(f"unbound variable: {name}")
    value = ev.resolver(name)
    if value is None:
        raise ExecutionError(f"object {name} is undefined or unknown")
    return value


_FUSED: dict[str, Callable] = {}
_FUSED_LIMIT = 1024


def _fused_factory(source: str) -> Callable:
    """The ``make`` function that ``source`` defines, executed once per
    distinct source text.

    Executing the source costs about 100 µs, fusing a body with a cached
    ``make`` under 10 µs; a statement without the optimizer compiles its
    ``select`` predicate every time, so the difference is per statement.
    The cache is emptied when it reaches ``_FUSED_LIMIT`` entries.
    """
    factory = _FUSED.get(source)
    if factory is None:
        if len(_FUSED) >= _FUSED_LIMIT:
            _FUSED.clear()
        namespace: dict = {"Closure": Closure, "Stream": Stream, "_resolve": _resolve}
        exec(compile(source, "<fused>", "exec"), namespace)
        factory = _FUSED[source] = namespace["make"]
    return factory


class _Fusion:
    """The generated function of one ``Fun`` term, ready to bind.

    A body that names nothing outside its own parameters is bound once and
    shared by every closure of the term; one that looks a name up in its
    closure's environment, or builds a nested closure over it, is bound
    per closure.
    """

    __slots__ = ("lazy", "_make", "_args", "_shared")

    def __init__(self, make: Callable, args: tuple, lazy: bool, uses_env: bool):
        self.lazy = lazy
        self._make = make
        self._args = args
        self._shared = None if uses_env else make(None, *args)

    def bind(self, env: dict) -> Callable:
        """The fused function of a closure over ``env``."""
        shared = self._shared
        return shared if shared is not None else self._make(env, *self._args)


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

    A parameter function built from variables, literals, pure operators
    with an inline form and nested ``fun`` arguments — the ``grp = g`` of a
    scan, or a search join's inner ``customers_rep exact[t1 cust]`` — is
    also fused (:meth:`fuse`) into one generated Python function, which a
    call runs instead of the per-node body while no guard is armed
    (:class:`Closure`).  The per-node body stays the reference semantics:
    guarded calls and failing calls run it.

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

    def run(self, term: Term, env: Optional[dict] = None, allow_update: bool = False):
        """Evaluate a term to its carrier.  ``allow_update`` permits an
        update function at the *root* only (the term of an update
        statement)."""
        return self.compile(term, allow_update)({} if env is None else env)

    def eval(self, term: Term, env: Optional[dict] = None, allow_update: bool = False):
        """Evaluate a typechecked term to the value the API shows: the
        :func:`view` of its carrier at the term's type.  Values bound in
        ``env`` enter as their carriers (:func:`carrier`)."""
        if env:
            env = {name: carrier(value) for name, value in env.items()}
        return view(term.type, self.run(term, env, allow_update))

    def compile(self, term: Term, allow_update: bool = False) -> Compiled:
        """Translate ``term`` into a function from an environment to its
        value.  Never raises: a node that cannot be evaluated compiles to a
        function that raises when (and only if) evaluation reaches it."""
        if type(term) is Apply:  # the one node ``allow_update`` concerns
            return self._compile_apply(term, allow_update)
        build = self._COMPILERS.get(type(term), Evaluator._compile_unknown)
        return build(self, term)

    def fuse(self, fun: Fun, env: Optional[dict] = None) -> Optional[Callable]:
        """One generated Python function computing ``fun``'s body from its
        arguments in a closure over ``env``, or ``None`` if the body cannot
        be fused (see :meth:`_fusion`)."""
        fusion = self._fusion(fun)
        return None if fusion is None else fusion.bind({} if env is None else env)

    def _fusion(self, fun: Fun) -> Optional[_Fusion]:
        """Generate the one function of ``fun``'s body, or ``None``.

        A body can be fused when it is built only from variables, literals,
        applications whose operator has an inline form (:func:`_inline_form`)
        and, as operator arguments, nested ``fun`` terms.  A variable is a
        parameter of ``fun`` or of an enclosing nested ``fun``; any other
        name is resolved per call as the per-node body resolves it — the
        closure's environment first, then the object resolver.  A nested
        ``fun`` becomes a :class:`Closure` over the same environment the
        per-node body would give it, with its own generated function (a
        Python closure over the enclosing parameters) when its body can be
        fused too.

        The function has one assignment per application, in the order the
        per-node body evaluates them, so both operands of ``and``/``or`` are
        evaluated before the connective, as their impls receive them.
        Literal values, names, types and nested terms are bound as closure
        cells, so one generated ``make`` serves every body of the same
        shape.  A body that builds a stream is ``lazy``.
        """
        consts: list = []
        fresh = itertools.count()
        uses_env = False

        def const(value) -> str:
            consts.append(value)
            return f"c{len(consts) - 1}"

        def emit(term, scope: dict, out: list, pad: str, lazy: list) -> Optional[str]:
            nonlocal uses_env
            kind = type(term)
            if kind is Literal:
                return const(term.value)
            if kind is Var and term.name in scope:
                return scope[term.name]
            if kind is Var:
                uses_env = True
                key, v = const(term.name), f"v{next(fresh)}"
                out.append(f"{pad}{v} = env[{key}] if {key} in env else _resolve(ev, {key})\n")
                return v
            if kind is ObjRef:
                key, v = const(term.name), f"v{next(fresh)}"
                out.append(f"{pad}{v} = ev.resolver({key})\n")
                return v
            template = _inline_form(term) if kind is Apply else None
            if template is None:
                return None
            operands = []
            for arg in term.args:
                if type(arg) is Fun:
                    operand = closure(arg, scope, out, pad)
                else:
                    operand = emit(arg, scope, out, pad, lazy)
                if operand is None:
                    return None
                operands.append(operand)
            elem = _stream_element(term.resolved.result_type)
            if elem is not None:
                lazy[0] = True
            if "{elem}" in template:
                elem = const(elem)
            v = f"v{next(fresh)}"
            out.append(f"{pad}{v} = {template.format(*operands, elem=elem)}\n")
            return v

        def function(fun: Fun, scope: dict, out: list, pad: str) -> Optional[tuple]:
            """``def fN(...)`` of ``fun``'s body into ``out``: (name, lazy)."""
            params = [f"p{next(fresh)}" for _ in fun.params]
            scope = {**scope, **{name: p for (name, _), p in zip(fun.params, params)}}
            lines: list[str] = []
            lazy = [False]
            result = emit(fun.body, scope, lines, pad + "    ", lazy)
            if result is None:
                return None
            name = f"f{next(fresh)}"
            out.append(f"{pad}def {name}({', '.join(params)}):\n")
            out.extend(lines)
            out.append(f"{pad}    return {result}\n")
            return name, lazy[0]

        def closure(fun: Fun, scope: dict, out: list, pad: str) -> str:
            """A nested ``fun`` argument: the closure the per-node body
            builds, over the environment extended by the parameters in
            scope."""
            nonlocal uses_env
            uses_env = True
            fused, lazy = function(fun, scope, out, pad) or ("None", False)
            bound = "".join(f", {const(name)}: {var}" for name, var in scope.items())
            v = f"v{next(fresh)}"
            out.append(
                f"{pad}{v} = Closure({const(fun)}, {{**env{bound}}}, ev, "
                f"{const(self.compile(fun.body))}, {fused}, {lazy})\n"
            )
            return v

        lines: list[str] = []
        top = function(fun, {}, lines, "    ")
        if top is None:
            return None
        name, lazy = top
        source = (
            f"def make(env, ev{''.join(f', c{i}' for i in range(len(consts)))}):\n"
            f"{''.join(lines)}"
            f"    return {name}\n"
        )
        return _Fusion(_fused_factory(source), (self, *consts), lazy, uses_env)

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
            return _resolve(ev, name)

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
        ev, body, fusion = self, self.compile(term.body), self._fusion(term)

        def run(env):
            limits = ev.limits
            if limits is not None:
                ev._visit(limits)
            env = env.copy()
            if fusion is None:
                return Closure(term, env, ev, body)
            return Closure(term, env, ev, body, fusion.bind(env), fusion.lazy)

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
