"""The top-level signature: a type system (paper Sections 2.1 and 3).

A :class:`TypeSystem` is the (K ∪ T, K)-sorted signature Γ of a second-order
signature: a set of kinds plus the type constructors over them.  It provides

* *well-formedness checking* of type terms (:meth:`TypeSystem.check_type`),
  including dependent constructor specs,
* *kind assignment* (:meth:`TypeSystem.kind_of`),
* enumeration of the constant types of a kind, which is how specification
  quantifiers like ``forall data in DATA`` over finite kinds are resolved.
"""

from __future__ import annotations

from typing import Optional

from repro.core.constructors import TypeConstructor
from repro.core.kinds import Kind
from repro.core.patterns import format_pattern, instantiate_type, match_into
from repro.core.sorts import ListSort, Sort, UnionSort
from repro.core.types import (
    ArgList,
    ArgTuple,
    FunType,
    Lit,
    PBind,
    ProductType,
    PVar,
    Sym,
    TermArg,
    Type,
    TypeApp,
    TypeArg,
    format_type,
    walk_type,
)
from repro.errors import KindError, SpecificationError, TypeFormationError


class TypeSystem:
    """Kinds plus type constructors; validates and classifies type terms."""

    def __init__(self) -> None:
        self._kinds: dict[str, Kind] = {}
        # Constructors may be overloaded by arity — the paper gives two
        # alternative B-tree constructors; both can coexist.  All overloads
        # of a name must share the result kind.
        self._constructors: dict[str, list[TypeConstructor]] = {}
        self._extra_kinds: dict[str, set[Kind]] = {}
        self.term_typer = None
        """Optional hook ``(fun_term, expected_param_types) -> typed term``
        used to typecheck function-valued constructor arguments (the key
        functions of B-trees and LSD-trees).  Set by the system once the
        bottom-level signature exists; types are then fully checked at
        formation time, and each :class:`TermArg` holds the typed term."""

    # -- construction -------------------------------------------------------

    def add_kind(self, kind: Kind | str) -> Kind:
        """Register a kind; returns the canonical :class:`Kind` object."""
        if isinstance(kind, str):
            kind = Kind(kind)
        existing = self._kinds.get(kind.name)
        if existing is not None:
            return existing
        self._kinds[kind.name] = kind
        return kind

    def add_constructor(self, ctor: TypeConstructor) -> TypeConstructor:
        """Register a type constructor.  Its kinds must already exist.

        Overloads by arity are allowed (the two B-tree constructor variants
        of Section 4); overloads must agree on the result kind, otherwise
        the kind of a type would be ambiguous.
        """
        overloads = self._constructors.get(ctor.name, [])
        for existing in overloads:
            if len(existing.arg_sorts) == len(ctor.arg_sorts):
                raise SpecificationError(
                    f"duplicate type constructor: {ctor.name} with "
                    f"{len(ctor.arg_sorts)} argument(s)"
                )
            if existing.result_kind != ctor.result_kind:
                raise SpecificationError(
                    f"constructor {ctor.name} overloads disagree on result kind"
                )
        if ctor.result_kind.name not in self._kinds:
            raise KindError(f"unknown result kind {ctor.result_kind} for {ctor.name}")
        for sort in ctor.arg_sorts:
            self._check_sort_kinds(sort, ctor.name)
        self._constructors.setdefault(ctor.name, []).append(ctor)
        return ctor

    def _check_sort_kinds(self, sort: Sort, where: str) -> None:
        for node in walk_type(sort):
            if isinstance(node, PVar) and node.kind is not None:
                if node.kind.name not in self._kinds:
                    raise KindError(f"unknown kind {node.kind} in constructor {where}")

    # -- lookup --------------------------------------------------------------

    @property
    def kinds(self) -> tuple[Kind, ...]:
        return tuple(self._kinds.values())

    @property
    def constructors(self) -> tuple[TypeConstructor, ...]:
        return tuple(c for overloads in self._constructors.values() for c in overloads)

    def kind(self, name: str) -> Kind:
        try:
            return self._kinds[name]
        except KeyError:
            raise KindError(f"unknown kind: {name}") from None

    def has_kind_named(self, name: str) -> bool:
        return name in self._kinds

    def constructor(self, name: str) -> TypeConstructor:
        """The (first) constructor of a name; all overloads share its kind."""
        try:
            return self._constructors[name][0]
        except KeyError:
            raise TypeFormationError(f"unknown type constructor: {name}") from None

    def overloads(self, name: str) -> tuple[TypeConstructor, ...]:
        try:
            return tuple(self._constructors[name])
        except KeyError:
            raise TypeFormationError(f"unknown type constructor: {name}") from None

    def has_constructor(self, name: str) -> bool:
        return name in self._constructors

    def constant_type(self, name: str) -> TypeApp:
        """The constant type built from a 0-ary constructor."""
        for ctor in self.overloads(name):
            if ctor.is_constant:
                return TypeApp(name)
        raise TypeFormationError(f"{name} is not a constant type constructor")

    def add_kind_member(self, constructor: str, kind: Kind | str) -> None:
        """Declare that the types built by ``constructor`` *also* belong to
        ``kind``.

        The paper's Section 4 puts ``int`` and ``string`` in both ``DATA``
        and ``ORD``; a constructor has one primary result kind, and this
        records the additional memberships.
        """
        if isinstance(kind, str):
            kind = self.kind(kind)
        if kind.name not in self._kinds:
            raise KindError(f"unknown kind: {kind}")
        self.constructor(constructor)  # must exist
        self._extra_kinds.setdefault(constructor, set()).add(kind)

    def constant_types_of_kind(self, kind: Kind | str) -> tuple[TypeApp, ...]:
        """All constant types whose constructor belongs to ``kind``.

        This enumerates the finite population of kinds such as ``DATA`` or
        ``ORD`` — exactly what quantification like ``forall data in DATA``
        ranges over when every type of the kind is constant.
        """
        if isinstance(kind, str):
            kind = self.kind(kind)
        return tuple(
            TypeApp(c.name)
            for c in self.constructors
            if c.is_constant
            and (c.result_kind == kind or kind in self._extra_kinds.get(c.name, ()))
        )

    # -- kind assignment ------------------------------------------------------

    def kind_of(self, t: Type) -> Optional[Kind]:
        """The kind of a type: the result kind of its outermost constructor.

        Function and product types (extended sorts used as types) have no
        kind, so ``None`` is returned for them.
        """
        if isinstance(t, TypeApp):
            return self.constructor(t.constructor).result_kind
        return None

    def has_kind(self, t: Type, kind: Kind | UnionSort | str) -> bool:
        """Does type ``t`` belong to ``kind`` (or to any kind of a union)?

        A metavariable belongs to the kind it is annotated with; one
        without an annotation stands for an unknown type, which may be of
        any kind."""
        if isinstance(kind, str):
            kind = self.kind(kind)
        if isinstance(kind, UnionSort):
            return any(self.has_kind(t, a.kind) for a in kind.alternatives)
        if isinstance(t, TypeApp):
            return self.kind_of(t) == kind or kind in self._extra_kinds.get(
                t.constructor, ()
            )
        if isinstance(t, PVar):
            return t.kind is None or t.kind == kind
        return False

    # -- well-formedness -------------------------------------------------------

    def check_type(self, t: Type) -> Type:
        """Validate that ``t`` is a well-formed type term of this signature.

        Returns ``t`` for chaining; raises :class:`TypeFormationError`
        otherwise.  Function and product types are checked componentwise; a
        metavariable stands for a well-formed type.
        """
        if isinstance(t, TypeApp):
            overloads = self.overloads(t.constructor)
            matching = [c for c in overloads if len(c.arg_sorts) == len(t.args)]
            if not matching:
                arities = ", ".join(str(len(c.arg_sorts)) for c in overloads)
                raise TypeFormationError(
                    f"{t.constructor} takes {arities} argument(s), "
                    f"got {len(t.args)}"
                )
            ctor = matching[0]
            env: dict[str, TypeArg] = {}
            self._check_args(t.args, ctor.arg_sorts, env, ctor.name)
            if ctor.spec is not None:
                message = ctor.spec.check(self, t.args)
                if message is not None:
                    raise TypeFormationError(
                        f"constructor spec violated for {format_type(t)}: {message}"
                    )
            return t
        if isinstance(t, FunType):
            for a in t.args:
                self.check_type(a)
            self.check_type(t.result)
            return t
        if isinstance(t, ProductType):
            for p in t.parts:
                self.check_type(p)
            return t
        if isinstance(t, PVar):
            return t
        raise TypeFormationError(f"not a type term: {t!r}")

    def _check_args(
        self,
        args: tuple[TypeArg, ...],
        sorts: tuple[Sort, ...],
        env: dict[str, TypeArg],
        where: str,
    ) -> None:
        if len(args) != len(sorts):
            raise TypeFormationError(
                f"{where} expects {len(sorts)} argument(s), got {len(args)}"
            )
        for arg, sort in zip(args, sorts):
            self._check_arg(arg, sort, env, where)

    def _check_arg(
        self, arg: TypeArg, sort: Sort, env: dict[str, TypeArg], where: str
    ) -> None:
        if isinstance(sort, PBind):
            self._check_arg(arg, sort.pattern, env, where)
            env[sort.name] = arg
            return
        if isinstance(sort, PVar) and sort.kind is not None:
            if not isinstance(arg, (TypeApp, FunType, ProductType)):
                raise TypeFormationError(
                    f"{where}: expected a type of kind {sort.kind}, got {arg!r}"
                )
            self.check_type(arg)
            if not self.has_kind(arg, sort.kind):
                raise TypeFormationError(
                    f"{where}: {format_type(arg)} is not of kind {sort.kind}"
                )
            return
        if isinstance(sort, PVar):
            bound = env.get(sort.name)
            if bound is None:
                raise SpecificationError(
                    f"{where}: variable {sort.name} used before being bound"
                )
            if isinstance(bound, Type):
                self._check_value_arg(arg, bound, where)
            elif arg != bound:
                raise TypeFormationError(
                    f"{where}: argument {arg!r} does not match bound {sort.name}"
                )
            return
        if isinstance(sort, ProductType):
            if not isinstance(arg, ArgTuple) or len(arg.items) != len(sort.parts):
                raise TypeFormationError(
                    f"{where}: expected a {len(sort.parts)}-tuple, got {arg!r}"
                )
            for item, part in zip(arg.items, sort.parts):
                self._check_arg(item, part, env, where)
            return
        if isinstance(sort, UnionSort):
            errors = []
            for alternative in sort.alternatives:
                try:
                    # Union alternatives must not leak partial bindings.
                    trial_env = dict(env)
                    self._check_arg(arg, alternative, trial_env, where)
                    env.update(trial_env)
                    return
                except TypeFormationError as exc:
                    errors.append(str(exc))
            raise TypeFormationError(
                f"{where}: {arg!r} matches no alternative of the union sort "
                f"({'; '.join(errors)})"
            )
        if isinstance(sort, ListSort):
            if not isinstance(arg, ArgList) or not arg.items:
                raise TypeFormationError(
                    f"{where}: expected a non-empty list argument, got {arg!r}"
                )
            for item in arg.items:
                self._check_arg(item, sort.element, env, where)
            return
        if isinstance(sort, FunType):
            self._check_function_arg(arg, sort, env, where)
            return
        if isinstance(sort, TypeApp):
            # A ground type in a constructor signature: a value of that type.
            self._check_value_arg(arg, sort, where)
            return
        raise SpecificationError(f"{where}: unsupported sort {sort!r}")

    def _check_value_arg(self, arg: TypeArg, expected: Type, where: str) -> None:
        """Check a *value* argument against the type used as its sort.

        Identifiers are :class:`Sym`, atomic literals are :class:`Lit`; any
        other value term is accepted as a :class:`TermArg` (full term
        typechecking happens once the bottom-level signature exists).
        """
        if isinstance(expected, TypeApp) and expected.constructor == "ident":
            if not isinstance(arg, Sym):
                raise TypeFormationError(
                    f"{where}: expected an identifier, got {arg!r}"
                )
            return
        if isinstance(arg, Lit):
            return
        if isinstance(arg, TermArg):
            return
        if isinstance(arg, Type) and arg == expected:
            return
        raise TypeFormationError(
            f"{where}: expected a value of type {format_type(expected)}, got {arg!r}"
        )

    def _check_function_arg(
        self, arg: TypeArg, sort: FunType, env: dict[str, TypeArg], where: str
    ) -> None:
        from repro.core.terms import Fun, OpRef

        if not isinstance(arg, TermArg):
            raise TypeFormationError(
                f"{where}: expected a function value, got {arg!r}"
            )
        term = arg.term
        if isinstance(term, OpRef):
            return  # operator-as-value; functionality checked at the SOS level
        if not isinstance(term, Fun):
            raise TypeFormationError(
                f"{where}: expected a function abstraction, got {term!r}"
            )
        if len(term.params) != len(sort.args):
            raise TypeFormationError(
                f"{where}: function takes {len(term.params)} parameter(s), "
                f"sort requires {len(sort.args)}"
            )
        expected_params = []
        for (_, ptype), psort in zip(term.params, sort.args):
            expected = instantiate_type(psort, env)
            expected_params.append(expected if expected is not None else ptype)
            if ptype is None:
                continue
            if expected is not None and ptype != expected:
                raise TypeFormationError(
                    f"{where}: function parameter type {format_type(ptype)} "
                    f"does not match required {format_type(expected)}"
                )
        if self.term_typer is not None:
            from repro.errors import TypeCheckError

            try:
                arg.term = self.term_typer(term, tuple(expected_params))
            except TypeCheckError as exc:
                raise TypeFormationError(
                    f"{where}: key function does not typecheck: {exc}"
                ) from exc
            self._check_function_result(arg.term, sort, env, where)

    def _check_function_result(
        self, term, sort: FunType, env: dict[str, TypeArg], where: str
    ) -> None:
        """After the body is typed, its result must match the result sort."""
        fun_type = getattr(term, "type", None)
        if isinstance(fun_type, FunType) and not match_into(
            sort.result,
            fun_type.result,
            dict(env),
            lambda var, t, _: var.kind is None or self.has_kind(t, var.kind),
        ):
            raise TypeFormationError(
                f"{where}: key function yields {format_type(fun_type.result)}, "
                f"required {format_pattern(sort.result)}"
            )
