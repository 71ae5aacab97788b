"""Parser for the textual specification language.

Sections: ``kinds``, ``type constructors``, ``subtypes``, ``operators``.
The ASCII rendering of the paper's notation:

* ``x`` separates argument sorts, ``->`` the result (``~>`` marks update
  functions);
* ``s+`` is a list sort, ``(s1 | s2)`` a union sort, ``(s1 x s2)`` a
  product sort, ``(s1 x ... -> s)`` a function sort;
* ``forall v in KIND.`` and ``forall v: pattern in KIND.`` introduce
  quantifiers; a ``forall`` line replaces the current quantifier group;
* a constructor argument may bind a name for later positions:
  ``tuple: TUPLE x (tuple -> ORD) -> BTREE  btree``;
* an operator result may be a type operator: ``... -> rel: REL  join``
  (the compute function comes from the ``type_operators`` mapping);
* ``syntax <pattern>`` at the end of an operator line sets the concrete
  syntax (default: prefix).

Lower-case names resolve, in order, to: a quantifier variable, a bound
constructor argument, a declared constant type; upper-case names must be
kinds.
"""

from __future__ import annotations

import re
from dataclasses import replace
from typing import Callable, Mapping, Optional

from repro.core.constructors import ConstructorSpec
from repro.core.operators import Quantifier, TypeOperator
from repro.core.patterns import TypePattern, pattern_variables
from repro.core.sorts import ListSort, Sort, UnionSort
from repro.core.sos import SecondOrderSignature, SignatureBuilder
from repro.core.types import FunType, PBind, ProductType, PVar, TypeApp
from repro.errors import ParseError, SpecificationError
from repro.lang.lexer import Token, tokenize

SECTIONS = ("kinds", "type constructors", "constructor specs", "subtypes", "operators")

#: One buffered specification line: ``(lineno, column_offset, text)``.
_Line = tuple[int, int, str]

#: A trailing ``-- comment`` (whitespace-delimited, so ``->`` stays intact).
_TRAILING_COMMENT = re.compile(r"\s--(\s.*)?$")


def parse_spec(
    text: str,
    builder: Optional[SignatureBuilder] = None,
    impls: Optional[Mapping[str, Callable]] = None,
    type_operators: Optional[Mapping[str, Callable]] = None,
    constructor_specs: Optional[Mapping[str, ConstructorSpec]] = None,
    level: str = "model",
) -> SecondOrderSignature:
    """Parse a specification into (or on top of) a signature.

    ``impls`` maps operator names to implementation callables (shared by all
    functionalities of the name); ``type_operators`` maps operator names to
    type-operator compute functions; ``constructor_specs`` maps constructor
    names to their dependent constraints.
    """
    parser = _SpecParser(
        builder if builder is not None else SignatureBuilder(),
        impls or {},
        type_operators or {},
        constructor_specs or {},
        level,
    )
    parser.parse(text)
    return parser.builder.sos


class _SpecParser:
    def __init__(self, builder, impls, type_operators, constructor_specs, level):
        self.builder = builder
        self.impls = impls
        self.type_operators = type_operators
        self.constructor_specs = constructor_specs
        self.level = level
        self.quantifiers: list[Quantifier] = []

    # ------------------------------------------------------------- sections

    def parse(self, text: str) -> None:
        # Each buffered entry is ``(lineno, column_offset, text)``; token
        # positions are rebased onto the original source so every error
        # (and every recorded span) points into ``text``.
        section = None
        buffer: list[_Line] = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            stripped = raw.strip()
            if not stripped or stripped.startswith("--"):
                continue
            raw = _TRAILING_COMMENT.sub("", raw)
            stripped = raw.strip()
            lowered = stripped.lower()
            matched = None
            for name in SECTIONS:
                if lowered == name or lowered.startswith(name):
                    remainder = stripped[len(name) :].strip()
                    # "kinds A, B" keeps its payload on the same line
                    matched = (name, remainder)
                    break
            if matched is not None and (
                matched[0] != "kinds" or section is None or not raw[:1].isspace()
            ):
                self._flush(section, buffer)
                section, remainder = matched
                if remainder:
                    buffer = [(lineno, raw.index(remainder), remainder)]
                else:
                    buffer = []
            else:
                if section is None:
                    column = len(raw) - len(raw.lstrip()) + 1
                    raise ParseError(
                        f"text before any section: {stripped}", lineno, column
                    )
                buffer.append((lineno, 0, raw))
        self._flush(section, buffer)

    def _flush(self, section: Optional[str], buffer: list["_Line"]) -> None:
        entries = [e for e in buffer if e[2].strip()]
        if section is None or not entries:
            return
        if section == "kinds":
            self._parse_kinds(" ".join(e[2] for e in entries))
        elif section == "type constructors":
            for entry in entries:
                self._parse_constructor(entry)
        elif section == "constructor specs":
            raise SpecificationError(
                "textual constructor specs are not supported; pass them via "
                "the constructor_specs mapping"
            )
        elif section == "subtypes":
            for entry in entries:
                self._parse_subtype(entry)
        elif section == "operators":
            self.quantifiers = []
            for entry in entries:
                self._parse_operator_line(entry)

    def _toks(self, entry: "_Line") -> "Tokens":
        """Tokenize one buffered line, rebasing token positions onto the
        original specification text."""
        lineno, offset, text = entry
        rebased = [
            replace(tok, line=lineno, column=tok.column + offset)
            for tok in tokenize(text)
        ]
        return Tokens(rebased)

    # ----------------------------------------------------------------- kinds

    def _parse_kinds(self, text: str) -> None:
        for name in text.replace(",", " ").split():
            self.builder.kind(name)

    # ----------------------------------------------------------- constructors

    def _parse_constructor(self, entry: "_Line") -> None:
        toks = self._toks(entry)
        start = toks.peek()
        arg_sorts: list[Sort] = []
        bound: dict[str, Sort] = {}
        if toks.peek().text != "->":
            arg_sorts = self._sort_product(toks, vars_allowed=bound)
        toks.expect("->")
        kind_name = toks.name("result kind")
        kind = self.builder.kind(kind_name)
        names = [toks.name("constructor name")]
        while toks.peek().text == ",":
            toks.next()
            names.append(toks.name("constructor name"))
        toks.end()
        for name in names:
            # Constructor specs may be keyed by (name, arity) — the two
            # B-tree variants share a name but only the attr variant has
            # the dependent constraint — or just by name.
            spec = self.constructor_specs.get((name, len(arg_sorts)))
            if spec is None:
                spec = self.constructor_specs.get(name)
            self.builder.constructor(
                name,
                arg_sorts,
                kind,
                spec=spec,
                level=self.level,
                span=(start.line, start.column),
            )

    # --------------------------------------------------------------- subtypes

    def _parse_subtype(self, entry: "_Line") -> None:
        toks = self._toks(entry)
        start = toks.peek()
        sub = read_type_pattern(toks)
        toks.expect("<")
        sup = read_type_pattern(toks)
        toks.end()
        self.builder.subtype(sub, sup, span=(start.line, start.column))

    # -------------------------------------------------------------- operators

    def _parse_operator_line(self, entry: "_Line") -> None:
        lineno, offset, line = entry
        if line.strip().startswith("forall"):
            self.quantifiers = self._parse_quantifiers(entry)
            return
        # Split off a trailing "syntax <pattern>".
        syntax: Optional[str] = None
        if " syntax " in line:
            line, _, syntax_text = line.rpartition(" syntax ")
            syntax = syntax_text.strip()
            entry = (lineno, offset, line)
        elif line.strip().startswith("syntax "):
            column = offset + len(line) - len(line.lstrip()) + 1
            raise ParseError(
                f"syntax clause without an operator: {line.strip()}",
                lineno,
                column,
            )
        toks = self._toks(entry)
        start = toks.peek()
        arg_sorts: list[Sort] = []
        is_update = False
        if toks.peek().text not in ("->", "~>"):
            arg_sorts = self._sort_product(toks, vars_allowed=None)
        arrow = toks.next()
        if arrow.text == "~>":
            is_update = True
        elif arrow.text != "->":
            raise ParseError(
                f"expected -> or ~> in operator line: {line.strip()}",
                arrow.line,
                arrow.column,
            )
        result = self._operator_result(toks)
        names = [self._op_name(toks)]
        while toks.peek().text == ",":
            toks.next()
            names.append(self._op_name(toks))
        toks.end()
        for name in names:
            final_result = result
            if isinstance(result, TypeOperator):
                compute = self.type_operators.get(name)
                if compute is None:
                    raise SpecificationError(
                        f"operator {name} declares a type operator result; "
                        "pass its compute function via type_operators"
                    )
                final_result = TypeOperator(name, result.result_kind, compute)
            try:
                self.builder.op(
                    name,
                    quantifiers=tuple(self.quantifiers),
                    args=tuple(arg_sorts),
                    result=final_result,
                    syntax=syntax,
                    impl=self.impls.get(name),
                    is_update=is_update,
                    level=self.level,
                    span=(start.line, start.column),
                )
            except ValueError as exc:
                # Malformed syntax patterns surface as positioned errors.
                raise ParseError(str(exc), start.line, start.column) from exc

    def _op_name(self, toks: "Tokens") -> str:
        tok = toks.next()
        if tok.kind in ("NAME", "KEYWORD"):
            return tok.text
        if tok.kind == "SYM" and tok.text in ("=", "<", "<=", ">=", ">", "!=", "+", "-", "*", "/"):
            return tok.text
        raise ParseError(f"expected an operator name, got {tok}", tok.line, tok.column)

    def _operator_result(self, toks: "Tokens"):
        """Either a sort, or ``var: KIND`` denoting a type operator."""
        if (
            toks.peek().kind == "NAME"
            and toks.peek(1).text == ":"
            and toks.peek(2).kind == "NAME"
            and self.builder.sos.type_system.has_kind_named(toks.peek(2).text)
        ):
            toks.next()
            toks.next()
            kind = self.builder.kind(toks.name("result kind"))
            # placeholder; the compute function is bound per operator name
            return TypeOperator("<pending>", kind, lambda *a: None)
        return self._sort_atom_with_suffix(toks, vars_allowed=None)

    def _parse_quantifiers(self, entry: "_Line") -> list[Quantifier]:
        quantifiers = []
        toks = self._toks(entry)
        while toks.peek().kind != "EOF":
            tok = toks.peek()
            word = toks.name("forall")
            if word != "forall":
                raise ParseError(
                    f"expected forall, got {word}", tok.line, tok.column
                )
            var = toks.name("quantified variable")
            pattern: Optional[TypePattern] = None
            if toks.peek().text == ":":
                toks.next()
                pattern = read_type_pattern(toks)
            tok = toks.next()
            if tok.text != "in":
                raise ParseError(
                    "expected 'in' in quantifier", tok.line, tok.column
                )
            kind = self._quantifier_kind(toks)
            quantifiers.append(Quantifier(var, kind, pattern))
            if toks.peek().text == ".":
                toks.next()
        return quantifiers

    def _quantifier_kind(self, toks: "Tokens"):
        first = self.builder.kind(toks.name("kind"))
        if toks.peek().text != "|":
            return first
        alternatives = [PVar("", first)]
        while toks.peek().text == "|":
            toks.next()
            alternatives.append(PVar("", self.builder.kind(toks.name("kind"))))
        return UnionSort(tuple(alternatives))

    # ------------------------------------------------------------------ sorts

    def _sort_product(
        self, toks: "Tokens", vars_allowed: Optional[dict]
    ) -> list[Sort]:
        """``s1 x s2 x ...`` — the argument sorts of a constructor/operator."""
        sorts = [self._sort_atom_with_suffix(toks, vars_allowed)]
        while toks.peek().kind == "NAME" and toks.peek().text == "x":
            toks.next()
            sorts.append(self._sort_atom_with_suffix(toks, vars_allowed))
        return sorts

    def _sort_atom_with_suffix(self, toks, vars_allowed) -> Sort:
        sort = self._sort_atom(toks, vars_allowed)
        while toks.peek().text == "+":
            toks.next()
            sort = ListSort(sort)
        return sort

    def _sort_atom(self, toks, vars_allowed) -> Sort:
        tok = toks.peek()
        if tok.text == "(":
            return self._paren_sort(toks, vars_allowed)
        name = toks.name("sort")
        # Binding form: "tuple: TUPLE" in constructor signatures.
        if vars_allowed is not None and toks.peek().text == ":":
            toks.next()
            inner = self._sort_atom_with_suffix(toks, vars_allowed)
            vars_allowed[name] = inner
            return PBind(name, inner)
        return self._resolve_name(name, toks, vars_allowed, tok)

    def _resolve_name(self, name: str, toks, vars_allowed, tok=None) -> Sort:
        ts = self.builder.sos.type_system
        quantified = {q.var for q in self.quantifiers}
        for q in self.quantifiers:
            if q.pattern is not None:
                quantified |= pattern_variables(q.pattern)
        is_var = name in quantified or (
            vars_allowed is not None and name in vars_allowed
        )
        if toks.peek().text == "(":
            # Constructor application over sorts: stream(tuple) etc.
            toks.next()
            args = [self._sort_atom_with_suffix(toks, vars_allowed)]
            while toks.peek().text == ",":
                toks.next()
                args.append(self._sort_atom_with_suffix(toks, vars_allowed))
            toks.expect(")")
            return TypeApp(name, tuple(args))
        if is_var:
            return PVar(name)
        if ts.has_kind_named(name):
            return PVar("", ts.kind(name))
        if ts.has_constructor(name):
            return TypeApp(name)
        raise ParseError(
            f"unknown sort name: {name}",
            tok.line if tok is not None else None,
            tok.column if tok is not None else None,
        )

    def _paren_sort(self, toks, vars_allowed) -> Sort:
        toks.expect("(")
        if toks.peek().text == "->":
            toks.next()
            result = self._sort_atom_with_suffix(toks, vars_allowed)
            toks.expect(")")
            return FunType((), result)
        parts = [self._sort_atom_with_suffix(toks, vars_allowed)]
        connective = None
        while toks.peek().text in ("|",) or (
            toks.peek().kind == "NAME" and toks.peek().text == "x"
        ):
            tok = toks.next()
            kind = "union" if tok.text == "|" else "product"
            if connective is None:
                connective = kind
            elif connective != kind:
                raise ParseError(
                    "cannot mix 'x' and '|' without parentheses",
                    tok.line,
                    tok.column,
                )
            parts.append(self._sort_atom_with_suffix(toks, vars_allowed))
        if toks.peek().text == "->":
            arrow = toks.next()
            result = self._sort_atom_with_suffix(toks, vars_allowed)
            toks.expect(")")
            if connective == "union":
                raise ParseError(
                    "function sort over a union is not supported",
                    arrow.line,
                    arrow.column,
                )
            return FunType(tuple(parts), result)
        toks.expect(")")
        if len(parts) == 1:
            return parts[0]
        if connective == "union":
            return UnionSort(tuple(parts))
        return ProductType(tuple(parts))


def read_type_pattern(toks: "Tokens") -> TypePattern:
    """``name`` or ``name(p1, ..., pn)``: a bare name is a pattern variable,
    an application a type constructor over argument patterns."""
    name = toks.name("pattern")
    if toks.peek().text != "(":
        return PVar(name)
    toks.next()
    args = [read_type_pattern(toks)]
    while toks.peek().text == ",":
        toks.next()
        args.append(read_type_pattern(toks))
    toks.expect(")")
    return TypeApp(name, tuple(args))


class Tokens:
    """A tiny token cursor."""

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self, ahead: int = 0) -> Token:
        index = min(self.pos + ahead, len(self.tokens) - 1)
        return self.tokens[index]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def expect(self, text: str) -> Token:
        tok = self.next()
        if tok.text != text:
            raise ParseError(f"expected {text!r}, got {tok}", tok.line, tok.column)
        return tok

    def name(self, what: str) -> str:
        tok = self.next()
        if tok.kind not in ("NAME", "KEYWORD"):
            raise ParseError(f"expected {what}, got {tok}", tok.line, tok.column)
        return tok.text

    def end(self) -> None:
        tok = self.peek()
        if tok.kind != "EOF":
            raise ParseError(f"trailing input: {tok}", tok.line, tok.column)
