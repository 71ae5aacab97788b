"""Operator specifications (paper Section 2.2).

An :class:`OperatorSpec` describes a (usually polymorphic) operator of the
bottom-level signature Ω by

* *quantifiers* over kinds, each binding one primary variable and possibly
  more via a type pattern — ``rel: rel(tuple) in REL`` binds ``rel`` and
  ``tuple`` simultaneously;
* *argument sorts* over the quantified variables and concrete types;
* a *result*: either a sort to be instantiated under the match bindings, or
  a :class:`TypeOperator` — an element of the Δ signature whose function
  computes the result type (the paper's ``join`` result, ``rel: REL``);
* an optional *syntax pattern* (Section 2.3) giving the operator its
  concrete syntax, e.g. ``_ #[ _ ]`` for ``select``;
* an *update* flag marking update functions (Section 6).

Attribute access (``tuple x -> dtype  attrname``) defines one operator per
attribute of every tuple type — infinitely many.  Such families are
represented by :class:`AttributeFamily`, which resolves operator names
against the structure of the first operand's type.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional, Union

from repro.core.kinds import Kind
from repro.core.patterns import Bindings, TypePattern, format_pattern
from repro.core.sorts import Sort, UnionSort
from repro.core.types import Type, TypeApp, attr_index

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.signature import TypeSystem


@dataclass(frozen=True, slots=True)
class Quantifier:
    """``var [: pattern] in kind`` — quantification over the types of a kind.

    ``kind`` may be a union of kinds (``DATA | REL`` in the nested relational
    model).  ``pattern`` defaults to just binding ``var`` to the whole type.
    """

    var: str
    kind: Union[Kind, UnionSort]
    pattern: Optional[TypePattern] = None

    @property
    def kinds(self) -> tuple[Kind, ...]:
        """The kind, or each kind of a union."""
        if isinstance(self.kind, Kind):
            return (self.kind,)
        return tuple(a.kind for a in self.kind.alternatives)

    def __str__(self) -> str:
        if self.pattern is None:
            return f"forall {self.var} in {self.kind}"
        return f"forall {self.var}: {format_pattern(self.pattern)} in {self.kind}"


class SyntaxPattern:
    """A concrete-syntax pattern such as ``_ #[ _ ]`` (paper Section 2.3).

    ``_`` marks an operand, ``#`` the operator name.  Operands before ``#``
    are written prefix-of-the-operator (postfix application); operands after
    ``#`` come in plain, bracketed ``[...]`` or parenthesized ``(...)``
    groups.  Parsed patterns drive the model-independent expression parser.
    """

    __slots__ = ("text", "pre", "groups")

    def __init__(self, text: str):
        self.text = text
        self.pre, self.groups = _parse_syntax_pattern(text)

    @property
    def arity(self) -> int:
        """Total number of operands the pattern mentions."""
        return self.pre + sum(n for _, n in self.groups)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SyntaxPattern) and other.text == self.text

    def __hash__(self) -> int:
        return hash(self.text)

    def __repr__(self) -> str:
        return f"SyntaxPattern({self.text!r})"


def _parse_syntax_pattern(text: str) -> tuple[int, tuple[tuple[str, int], ...]]:
    """Parse a pattern string into (operands before #, groups after #)."""
    stripped = text.strip()
    # Outer parentheses that wrap the entire pattern are decoration:
    # "( _ # _ )" is the infix comparison pattern of the paper.
    if stripped.startswith("(") and stripped.endswith(")") and "#" in stripped:
        inner = stripped[1:-1]
        if inner.count("(") == inner.count(")"):
            stripped = inner.strip()
    tokens = _tokenize_pattern(stripped)
    pre = 0
    i = 0
    while i < len(tokens) and tokens[i] == "_":
        pre += 1
        i += 1
    if i >= len(tokens) or tokens[i] != "#":
        raise ValueError(f"malformed syntax pattern (no #): {text!r}")
    i += 1
    groups: list[tuple[str, int]] = []
    while i < len(tokens):
        tok = tokens[i]
        if tok == "_":
            groups.append(("plain", 1))
            i += 1
        elif tok in "([":
            close = ")" if tok == "(" else "]"
            style = "paren" if tok == "(" else "bracket"
            i += 1
            count = 0
            expect_operand = True
            while i < len(tokens) and tokens[i] != close:
                if tokens[i] == "_":
                    if not expect_operand:
                        raise ValueError(f"malformed syntax pattern: {text!r}")
                    count += 1
                    expect_operand = False
                elif tokens[i] == ",":
                    expect_operand = True
                else:
                    raise ValueError(f"malformed syntax pattern: {text!r}")
                i += 1
            if i >= len(tokens):
                raise ValueError(f"unclosed group in syntax pattern: {text!r}")
            i += 1
            groups.append((style, count))
        else:
            raise ValueError(f"unexpected token {tok!r} in syntax pattern: {text!r}")
    return pre, tuple(groups)


def _tokenize_pattern(text: str) -> list[str]:
    tokens = []
    for ch in text:
        if ch.isspace():
            continue
        if ch in "_#[](),":
            tokens.append(ch)
        else:
            raise ValueError(f"bad character {ch!r} in syntax pattern {text!r}")
    return tokens


PREFIX = SyntaxPattern("# ( _ )")
"""Default syntax: prefix notation (the abstract syntax)."""

INFIX = SyntaxPattern("( _ # _ )")
POSTFIX_1 = SyntaxPattern("_ #")
POSTFIX_2 = SyntaxPattern("_ _ #")
POSTFIX_BRACKET_1 = SyntaxPattern("_ #[ _ ]")


@dataclass(frozen=True, slots=True)
class TypeOperator:
    """An element of the Δ signature (paper Section 2.2, "type operators").

    ``compute(type_system, bindings, arg_types)`` maps the operand types of
    an application to its result type; how it does so is part of the algebra
    (e.g. ``join`` concatenates the two tuple types).
    """

    name: str
    result_kind: Kind
    compute: Callable[["TypeSystem", Bindings, tuple[Type, ...]], Type]

    def __str__(self) -> str:
        return f"{self.name}: ... -> {self.result_kind.name}"


@dataclass(eq=False, slots=True)
class OperatorSpec:
    """One specification of a (polymorphic) operator.

    Several specs may share a ``name`` (overloading across models or levels);
    the typechecker tries them in registration order.  ``impl`` is the
    algebra function giving the operator its semantics; keeping it on the
    spec is a practical shortcut for "the algebra is provided by
    implementation" — :class:`~repro.core.algebra.SecondOrderAlgebra`
    collects these.
    """

    name: str
    quantifiers: tuple[Quantifier, ...]
    arg_sorts: tuple[Sort, ...]
    result: Union[Sort, TypeOperator]
    syntax: Optional[SyntaxPattern] = None
    is_update: bool = False
    level: str = "model"
    doc: str = ""
    impl: Optional[Callable] = field(default=None, compare=False)
    inline: Optional[str] = field(default=None, compare=False)
    """The Python expression ``impl`` computes, over operand names ``{0}``,
    ``{1}``, ...; set only on pure operators.  The evaluator splices it
    into the one generated function of a closed parameter function
    (:meth:`~repro.core.algebra.Evaluator.fuse`)."""
    eager: bool = False
    """If true, stream-valued operands are fully consumed before the call
    (used by operators whose semantics require materialized input)."""
    post_check: Optional[Callable] = field(default=None, compare=False)
    """A dependent constraint checked after all operands matched:
    ``post_check(type_system, bindings, descriptors)`` returns an error
    message or ``None``.  This expresses second-level quantifications like
    ``forall (attrname, dtype) in list`` relating an identifier operand to
    the attribute list of a tuple type (``modify``, ``replace``)."""
    span: Optional[tuple[int, int]] = field(default=None, compare=False)
    """``(line, column)`` of the declaring spec line, when parsed from text
    (:mod:`repro.spec.parser`); diagnostics anchor here."""

    def __str__(self) -> str:
        args = " x ".join(format_pattern(s) for s in self.arg_sorts)
        result = (
            f"{self.result.name}: {self.result.result_kind.name}"
            if isinstance(self.result, TypeOperator)
            else format_pattern(self.result)
        )
        arrow = "~>" if self.is_update else "->"
        return f"{args} {arrow} {result}  {self.name}"


@dataclass(eq=False, slots=True)
class ResolvedOp:
    """The outcome of typechecking one operator application.

    Records which spec (or attribute family) matched, the quantifier
    bindings, and the computed result type; the evaluator dispatches on it.
    """

    result_type: Type
    spec: Optional[OperatorSpec] = None
    bindings: Bindings = field(default_factory=dict)
    attr_name: Optional[str] = None
    attr_index: Optional[int] = None
    impl: Optional[Callable] = None

    @property
    def is_attribute(self) -> bool:
        return self.attr_name is not None

    @property
    def is_update(self) -> bool:
        return self.spec is not None and self.spec.is_update


class AttributeFamily:
    """The attribute-access operator family of Section 2.2::

        forall tuple: tuple(list) in TUPLE. forall (attrname, dtype) in list.
            tuple -> dtype   attrname

    One instance serves *every* tuple-shaped type (any constructor whose
    single argument is a list of ``(ident, type)`` pairs), across models —
    exactly the paper's second-level quantification over the attribute list.
    """

    syntax = SyntaxPattern("_ #")

    def __init__(self, constructors: Optional[frozenset[str]] = None):
        self.constructors = constructors
        """Restrict to these tuple constructors; ``None`` accepts any
        tuple-shaped type."""

    def resolve(self, name: str, arg_types: tuple[Type, ...]) -> Optional[ResolvedOp]:
        """Resolve ``name`` as attribute access on the single operand type."""
        if len(arg_types) != 1:
            return None
        tup = arg_types[0]
        if self.constructors is not None:
            if not isinstance(tup, TypeApp) or tup.constructor not in self.constructors:
                return None
        entry = attr_index(tup, name)
        if entry is None:
            return None
        index, dtype = entry
        return ResolvedOp(
            result_type=dtype,
            attr_name=name,
            attr_index=index,
            impl=_attribute_access(index),
        )


def _attribute_access(index: int) -> Callable:
    def access(ctx, tup):
        return tup[index]

    access.__name__ = f"attr_{index}"
    return access
