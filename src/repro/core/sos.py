"""Second-order signature: the quintuple Σ = (K, Γ, T, Δ, Ω) (paper Def. 3.3).

:class:`SecondOrderSignature` bundles

* ``K`` and ``Γ`` — the kinds and type constructors, held by a
  :class:`~repro.core.signature.TypeSystem` (``T`` is the set of well-formed
  type terms it accepts);
* ``Δ`` — the type operators, reachable through the operator specs whose
  result is a :class:`~repro.core.operators.TypeOperator`;
* ``Ω`` — the operator specifications, plus operator *families* (attribute
  access) that denote infinitely many operators at once;
* the subtype relation of Section 4.

:class:`SignatureBuilder` is the ergonomic way to assemble one; the textual
specification parser (:mod:`repro.spec`) produces the same structures.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Union

from repro.core.kinds import Kind
from repro.core.operators import (
    AttributeFamily,
    OperatorSpec,
    Quantifier,
    SyntaxPattern,
    TypeOperator,
)
from repro.core.patterns import TypePattern
from repro.core.signature import TypeSystem
from repro.core.sorts import KindSort, Sort, UnionSort
from repro.core.subtypes import SubtypeRelation, SubtypeRule
from repro.core.constructors import ConstructorSpec, TypeConstructor
from repro.errors import SpecificationError


class SecondOrderSignature:
    """The coupled pair of signatures with subtyping."""

    def __init__(
        self,
        type_system: Optional[TypeSystem] = None,
        subtypes: Optional[SubtypeRelation] = None,
    ):
        self.type_system = type_system if type_system is not None else TypeSystem()
        self.subtypes = subtypes if subtypes is not None else SubtypeRelation()
        self._operators: dict[str, tuple[OperatorSpec, ...]] = {}
        self._by_arity: dict[tuple[str, int], tuple[OperatorSpec, ...]] = {}
        self._families: tuple[AttributeFamily, ...] = ()

    # -- operators -----------------------------------------------------------

    def add_operator(self, spec: OperatorSpec) -> OperatorSpec:
        self._validate_spec(spec)
        self._register(spec)
        return spec

    def _register(self, spec: OperatorSpec) -> None:
        self._operators[spec.name] = self._operators.get(spec.name, ()) + (spec,)
        key = (spec.name, len(spec.arg_sorts))
        self._by_arity[key] = self._by_arity.get(key, ()) + (spec,)

    def add_family(self, family: AttributeFamily) -> AttributeFamily:
        self._families += (family,)
        return family

    def _validate_spec(self, spec: OperatorSpec) -> None:
        for q in spec.quantifiers:
            kinds = (
                [a.kind for a in q.kind.alternatives if isinstance(a, KindSort)]
                if isinstance(q.kind, UnionSort)
                else [q.kind]
            )
            for kind in kinds:
                if not self.type_system.has_kind_named(kind.name):
                    raise SpecificationError(
                        f"operator {spec.name}: unknown kind {kind} in quantifier"
                    )

    def operators(self, name: str) -> tuple[OperatorSpec, ...]:
        """All specs registered under ``name`` (may be empty)."""
        return self._operators.get(name, ())

    def operators_of_arity(self, name: str, arity: int) -> tuple[OperatorSpec, ...]:
        """The specs of ``name`` that take ``arity`` operands, in
        registration order."""
        return self._by_arity.get((name, arity), ())

    def all_operators(self) -> Iterable[OperatorSpec]:
        for specs in self._operators.values():
            yield from specs

    @property
    def families(self) -> tuple[AttributeFamily, ...]:
        return self._families

    def is_operator(self, name: str) -> bool:
        return name in self._operators

    def syntax_of(self, name: str) -> Optional[SyntaxPattern]:
        """The syntax pattern of ``name``.

        All specs sharing a name must agree on syntax; the first spec with an
        explicit pattern wins, prefix notation is the default.
        """
        for spec in self._operators.get(name, ()):
            if spec.syntax is not None:
                return spec.syntax
        return None

    def type_operators(self) -> list[TypeOperator]:
        """The Δ signature: every distinct type operator in use."""
        seen: list[TypeOperator] = []
        for spec in self.all_operators():
            if isinstance(spec.result, TypeOperator) and spec.result not in seen:
                seen.append(spec.result)
        return seen

    # -- merge ---------------------------------------------------------------

    def merge(self, other: "SecondOrderSignature") -> "SecondOrderSignature":
        """A new signature combining this one with ``other``.

        This is how mixed model/representation type systems (paper Section 6)
        are assembled: constructors and operators of both levels coexist, and
        shared *hybrid* constructors (same name, same definition) unify.
        """
        merged = SecondOrderSignature()
        for source in (self, other):
            for kind in source.type_system.kinds:
                merged.type_system.add_kind(kind)
        for source in (self, other):
            for ctor in source.type_system.constructors:
                if merged.type_system.has_constructor(ctor.name):
                    same_arity = [
                        c
                        for c in merged.type_system.overloads(ctor.name)
                        if len(c.arg_sorts) == len(ctor.arg_sorts)
                    ]
                    if same_arity:
                        existing = same_arity[0]
                        if (
                            existing.arg_sorts != ctor.arg_sorts
                            or existing.result_kind != ctor.result_kind
                        ):
                            raise SpecificationError(
                                f"conflicting definitions of constructor {ctor.name}"
                            )
                        continue
                merged.type_system.add_constructor(ctor)
        for source in (self, other):
            for ctor_name, kinds in source.type_system._extra_kinds.items():
                for kind in kinds:
                    merged.type_system.add_kind_member(ctor_name, kind)
        for source in (self, other):
            for rule in source.subtypes.rules:
                merged.subtypes.add(rule)
            for spec in source.all_operators():
                merged._register(spec)
            for family in source._families:
                if family not in merged._families:
                    merged._families += (family,)
        return merged


class SignatureBuilder:
    """Fluent construction of a :class:`SecondOrderSignature`.

    The builder mirrors the sections of a paper specification: ``kinds``,
    ``type constructors`` (with optional constructor specs), ``subtypes``
    and ``operators``.
    """

    def __init__(self, sos: Optional[SecondOrderSignature] = None):
        self.sos = sos if sos is not None else SecondOrderSignature()

    # -- kinds / constructors -------------------------------------------------

    def kind(self, name: str) -> Kind:
        return self.sos.type_system.add_kind(name)

    def kind_member(self, constructor: str, kind: Union[Kind, str]):
        """Record an additional kind membership (``int`` in ``ORD``)."""
        self.sos.type_system.add_kind_member(constructor, kind)
        return self

    def kinds(self, *names: str) -> tuple[Kind, ...]:
        return tuple(self.kind(n) for n in names)

    def constant_types(self, kind: Union[Kind, str], *names: str, level: str = "model"):
        """Declare 0-ary constructors, e.g. ``-> DATA  int, real, string``."""
        if isinstance(kind, str):
            kind = self.sos.type_system.kind(kind)
        for name in names:
            self.sos.type_system.add_constructor(
                TypeConstructor(name, (), kind, level=level)
            )
        return self

    def constructor(
        self,
        name: str,
        arg_sorts: Iterable[Sort],
        result_kind: Union[Kind, str],
        spec: Optional[ConstructorSpec] = None,
        level: str = "model",
        span: Optional[tuple[int, int]] = None,
    ) -> TypeConstructor:
        if isinstance(result_kind, str):
            result_kind = self.sos.type_system.kind(result_kind)
        ctor = TypeConstructor(name, tuple(arg_sorts), result_kind, spec, level, span)
        return self.sos.type_system.add_constructor(ctor)

    # -- subtypes ---------------------------------------------------------------

    def subtype(
        self,
        sub: TypePattern,
        sup: TypePattern,
        span: Optional[tuple[int, int]] = None,
    ) -> "SignatureBuilder":
        self.sos.subtypes.add(SubtypeRule(sub, sup, span))
        return self

    # -- operators ---------------------------------------------------------------

    def op(
        self,
        name: str,
        quantifiers: Iterable[Quantifier] = (),
        args: Iterable[Sort] = (),
        result: Union[Sort, TypeOperator, None] = None,
        syntax: Optional[str] = None,
        impl: Optional[Callable] = None,
        inline: Optional[str] = None,
        is_update: bool = False,
        level: str = "model",
        doc: str = "",
        eager: bool = False,
        post_check: Optional[Callable] = None,
        span: Optional[tuple[int, int]] = None,
    ) -> OperatorSpec:
        if result is None:
            raise SpecificationError(f"operator {name} needs a result sort")
        spec = OperatorSpec(
            name=name,
            quantifiers=tuple(quantifiers),
            arg_sorts=tuple(args),
            result=result,
            syntax=SyntaxPattern(syntax) if syntax is not None else None,
            is_update=is_update,
            level=level,
            doc=doc,
            impl=impl,
            inline=inline,
            eager=eager,
            post_check=post_check,
            span=span,
        )
        return self.sos.add_operator(spec)

    def attribute_family(self, constructors: Optional[Iterable[str]] = None):
        family = AttributeFamily(
            frozenset(constructors) if constructors is not None else None
        )
        return self.sos.add_family(family)

    def build(self) -> SecondOrderSignature:
        return self.sos
