"""Parser for the five-statement language and the concrete expression syntax.

The expression grammar is *data driven*: each operator's
:class:`~repro.core.operators.SyntaxPattern` (loaded from the specification)
tells the parser how many operands precede the operator name and what
bracketed/parenthesized groups follow it.  The core shapes:

=====================  =========================================
pattern                example
=====================  =========================================
``_ #``                ``cities_rep feed``, ``p age`` (attributes)
``_ _ #``              ``s1 s2 search_join``
``_ #[ _ ]``           ``persons select[age > 30]``
``_ #[ _, _ ]``        ``s replace[pop, ...]``
``_ _ #[ _ ]``         ``cities states join[...]``
``( _ # _ )``          ``pop > 30`` (infix, with precedence)
``# ( _ )``            ``bbox(region)``; also the default prefix
=====================  =========================================

Disambiguation notes (all documented deviations are parser-level only):

* A bare identifier that is neither an operator, a visible lambda parameter
  nor a known object, appearing after an operand, is *attribute access*
  (``p age``); with no preceding operand it stays a free identifier for the
  typechecker's implicit-lambda elaboration (``select[age > 30]``).
* ``name(`` with **no space** before ``(`` where ``name`` is not an operator
  is a function-value call (``cities_in("Germany")``); with a space it is a
  juxtaposed operand (``states_rep (c center) point_search``).
* ``<`` in operand position opens a list term; in infix position it is the
  comparison.  A comparison used directly inside ``< ... >`` needs
  parentheses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Optional

from repro.core.operators import SyntaxPattern
from repro.core.sos import SecondOrderSignature
from repro.core.terms import (
    Apply,
    Call,
    Fun,
    ListTerm,
    Literal,
    Term,
    TupleTerm,
    Var,
)
from repro.core.types import (
    ArgList,
    ArgTuple,
    FunType,
    Lit,
    Sym,
    TermArg,
    Type,
    TypeApp,
    TypeArg,
)
from repro.errors import ParseError
from repro.lang.lexer import Token, tokenize

STATEMENT_KEYWORDS = ("type", "create", "update", "delete", "query", "analyze")

_SYMBOL_PRECEDENCE = {
    "or": 1,
    "and": 2,
    "=": 3,
    "!=": 3,
    "<": 3,
    "<=": 3,
    ">=": 3,
    ">": 3,
    "+": 4,
    "-": 4,
    "*": 5,
    "/": 5,
    "div": 5,
    "mod": 5,
}
_NAMED_INFIX_PRECEDENCE = 3  # inside, intersects, member, ...


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class TypeStmt:
    name: str
    type: Type
    source: str = ""


@dataclass(slots=True)
class CreateStmt:
    name: str
    type: Type
    source: str = ""


@dataclass(slots=True)
class UpdateStmt:
    name: str
    expr: Term
    source: str = ""


@dataclass(slots=True)
class DeleteStmt:
    name: str
    source: str = ""


@dataclass(slots=True)
class QueryStmt:
    expr: Term
    source: str = ""


@dataclass(slots=True)
class AnalyzeStmt:
    """``analyze`` or ``analyze name, name`` — gather statistics for the
    named objects (all scannable objects when no names are given)."""

    names: tuple[str, ...] = ()
    source: str = ""


Statement = TypeStmt | CreateStmt | UpdateStmt | DeleteStmt | QueryStmt | AnalyzeStmt


def split_statements(source: str) -> list[str]:
    """Split a program into statement chunks.

    A statement starts on an *unindented* line whose first word is one of
    the five statement keywords; every other non-blank line continues the
    current statement (the paper's examples indent continuations).
    """
    chunks: list[list[str]] = []
    for raw in source.splitlines():
        line = raw.rstrip()
        stripped = line.strip()
        if not stripped or stripped.startswith("--"):
            continue
        first_word = stripped.split(None, 1)[0]
        starts = first_word in STATEMENT_KEYWORDS and not raw[:1].isspace()
        if starts:
            chunks.append([line])
        else:
            if not chunks:
                raise ParseError(
                    f"program must start with a statement keyword, got: {stripped}"
                )
            chunks[-1].append(line)
    return ["\n".join(chunk) for chunk in chunks]


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class Parser:
    """A parser configured by a second-order signature.

    ``aliases`` maps named types (``type city = ...``) to their definitions;
    ``is_object`` says whether a bare identifier names a database object —
    the parser needs this (as Gral's did) to tell a juxtaposed operand from
    an attribute access.
    """

    def __init__(
        self,
        sos: SecondOrderSignature,
        aliases: Optional[Mapping[str, Type]] = None,
        is_object: Optional[Callable[[str], bool]] = None,
    ):
        self.sos = sos
        self.aliases = aliases if aliases is not None else {}
        self.is_object = is_object if is_object is not None else lambda name: False
        self._tokens: list[Token] = []
        self._pos = 0
        self._params: list[str] = []  # lambda parameters in scope
        self._list_depth = 0  # inside < ... > at the current nesting level

    # ------------------------------------------------------------- plumbing

    def _start(self, text: str) -> None:
        self._tokens = tokenize(text)
        self._pos = 0
        self._params = []
        self._list_depth = 0

    def _peek(self, ahead: int = 0) -> Token:
        index = min(self._pos + ahead, len(self._tokens) - 1)
        return self._tokens[index]

    def _next(self) -> Token:
        tok = self._tokens[self._pos]
        if tok.kind != "EOF":
            self._pos += 1
        return tok

    def _expect(self, text: str) -> Token:
        tok = self._next()
        if tok.text != text:
            raise ParseError(f"expected {text!r}, got {tok}", tok.line, tok.column)
        return tok

    def _at_end(self) -> bool:
        return self._peek().kind == "EOF"

    def _error(self, message: str) -> ParseError:
        tok = self._peek()
        return ParseError(message + f" (at {tok})", tok.line, tok.column)

    # ----------------------------------------------------------- statements

    def parse_statement(self, text: str) -> Statement:
        self._start(text)
        tok = self._next()
        if tok.text == "type":
            name = self._name("type name")
            self._expect("=")
            t = self.parse_type_tokens()
            self._finish(text)
            return TypeStmt(name, t, source=text)
        if tok.text == "create":
            name = self._name("object name")
            self._expect(":")
            t = self.parse_type_tokens()
            self._finish(text)
            return CreateStmt(name, t, source=text)
        if tok.text == "update":
            name = self._name("object name")
            self._expect(":=")
            expr = self.parse_expr_tokens()
            self._finish(text)
            return UpdateStmt(name, expr, source=text)
        if tok.text == "delete":
            name = self._name("object name")
            self._finish(text)
            return DeleteStmt(name, source=text)
        if tok.text == "query":
            expr = self.parse_expr_tokens()
            self._finish(text)
            return QueryStmt(expr, source=text)
        if tok.text == "analyze":
            names: list[str] = []
            if not self._at_end():
                names.append(self._name("object name"))
                while self._peek().text == ",":
                    self._next()
                    names.append(self._name("object name"))
            self._finish(text)
            return AnalyzeStmt(tuple(names), source=text)
        raise ParseError(
            f"expected a statement keyword, got {tok}", tok.line, tok.column
        )

    def _name(self, what: str) -> str:
        tok = self._next()
        if tok.kind != "NAME":
            raise ParseError(f"expected {what}, got {tok}", tok.line, tok.column)
        return tok.text

    def _finish(self, text: str) -> None:
        tok = self._peek()
        if tok.kind != "EOF":
            raise ParseError(
                f"trailing input after statement: {tok}", tok.line, tok.column
            )

    # ---------------------------------------------------------------- types

    def parse_type(self, text: str) -> Type:
        self._start(text)
        t = self.parse_type_tokens()
        self._finish(text)
        return t

    def parse_type_tokens(self) -> Type:
        tok = self._peek()
        if tok.text == "(":
            return self._paren_type()
        if tok.kind != "NAME":
            raise self._error("expected a type expression")
        self._next()
        name = tok.text
        if name in self.aliases and not self._starts_args():
            return self.aliases[name]
        if self._starts_args():
            self._expect("(")
            args: list[TypeArg] = []
            if self._peek().text != ")":
                args.append(self._type_arg())
                while self._peek().text == ",":
                    self._next()
                    args.append(self._type_arg())
            self._expect(")")
            return TypeApp(name, tuple(args))
        if name in self.aliases:
            return self.aliases[name]
        if not self.sos.type_system.has_constructor(name):
            raise ParseError(f"unknown type: {name}", tok.line, tok.column)
        return TypeApp(name)

    def _starts_args(self) -> bool:
        return self._peek().text == "("

    def _paren_type(self) -> Type:
        """``(t1, ..., tn -> t)`` function types; ``(t)`` is just grouping."""
        self._expect("(")
        if self._peek().text == "->":
            self._next()
            result = self.parse_type_tokens()
            self._expect(")")
            return FunType((), result)
        first = self.parse_type_tokens()
        parts = [first]
        while self._peek().text == ",":
            self._next()
            parts.append(self.parse_type_tokens())
        if self._peek().text == "->":
            self._next()
            result = self.parse_type_tokens()
            self._expect(")")
            return FunType(tuple(parts), result)
        self._expect(")")
        if len(parts) == 1:
            return parts[0]
        from repro.core.types import ProductType

        return ProductType(tuple(parts))

    def _type_arg(self) -> TypeArg:
        tok = self._peek()
        if tok.text == "<":
            self._next()
            items = [self._type_arg()]
            while self._peek().text == ",":
                self._next()
                items.append(self._type_arg())
            self._expect(">")
            return ArgList(tuple(items))
        if tok.text == "(":
            # An ArgTuple ("(name, string)") or a function type
            # ("(tuple -> int)"); the arrow decides.
            self._expect("(")
            if self._peek().text == "->":
                self._next()
                result = self.parse_type_tokens()
                self._expect(")")
                return FunType((), result)
            items = [self._type_arg()]
            while self._peek().text == ",":
                self._next()
                items.append(self._type_arg())
            if self._peek().text == "->":
                self._next()
                result = self.parse_type_tokens()
                self._expect(")")
                if not all(isinstance(i, Type) for i in items):
                    raise self._error("function type over non-types")
                return FunType(tuple(items), result)  # type: ignore[arg-type]
            self._expect(")")
            if len(items) == 1:
                return items[0]
            return ArgTuple(tuple(items))
        if tok.kind in ("INT", "REAL", "STRING"):
            self._next()
            return Lit(tok.value)
        if tok.text == "fun":
            return TermArg(self._parse_fun())
        if tok.kind == "NAME":
            name = tok.text
            known_type = (
                name in self.aliases or self.sos.type_system.has_constructor(name)
            )
            if known_type:
                return self.parse_type_tokens()
            self._next()
            return Sym(name)
        raise self._error("expected a type argument")

    # ---------------------------------------------------------- expressions

    def parse_expression(self, text: str) -> Term:
        self._start(text)
        expr = self.parse_expr_tokens()
        self._finish(text)
        return expr

    def parse_expr_tokens(self, min_prec: int = 0) -> Term:
        left = self._parse_chain()
        while True:
            op = self._infix_at()
            if op is None:
                break
            prec = self._infix_prec(op)
            if prec < min_prec:
                break
            self._next()
            right = self.parse_expr_tokens(prec + 1)
            left = Apply(op, (left, right))
        return left

    def _infix_at(self) -> Optional[str]:
        tok = self._peek()
        text = tok.text
        if tok.kind == "SYM" and text in _SYMBOL_PRECEDENCE:
            if text == "<" and self._list_depth:
                return None
            if text == ">" and self._list_depth:
                return None
            return text
        if tok.kind in ("NAME", "KEYWORD") and text in _SYMBOL_PRECEDENCE:
            return text
        if tok.kind == "NAME":
            syntax = self.sos.syntax_of(text)
            if syntax is not None and _is_infix(syntax):
                return text
        return None

    def _infix_prec(self, op: str) -> int:
        return _SYMBOL_PRECEDENCE.get(op, _NAMED_INFIX_PRECEDENCE)

    def _parse_chain(self) -> Term:
        """A juxtaposition chain, reduced by postfix operator patterns."""
        stack: list[Term] = []
        while True:
            tok = self._peek()
            # 'delete' is both a statement keyword and an operator name
            # (Section 6); in expression position it is the operator.
            if tok.kind == "NAME" or (
                tok.kind == "KEYWORD"
                and tok.text == "delete"
                and self.sos.is_operator(tok.text)
            ):
                name = tok.text
                syntax = self.sos.syntax_of(name)
                is_op = self.sos.is_operator(name)
                if is_op and syntax is not None and _is_infix(syntax):
                    break  # handled by the precedence layer
                if is_op:
                    reduced = self._try_operator(name, syntax, stack)
                    if reduced:
                        continue
                    break  # operator needs more operands; outer context has them
                if stack and not self._is_value_name(name):
                    # attribute access  p age
                    self._next()
                    operand = stack.pop()
                    stack.append(Apply(name, (operand,)))
                    continue
                stack.append(self._parse_primary())
                continue
            if tok.kind in ("INT", "REAL", "STRING") or tok.text in ("(", "<") or (
                tok.kind == "KEYWORD" and tok.text == "fun"
            ):
                if tok.text == "<" and stack:
                    break  # comparison, not a list
                stack.append(self._parse_primary())
                continue
            break
        if not stack:
            raise self._error("expected an expression")
        if len(stack) != 1:
            raise self._error(
                f"dangling operands ({len(stack)}); an operator is missing"
            )
        return stack[0]

    def _try_operator(
        self, name: str, syntax: Optional[SyntaxPattern], stack: list[Term]
    ) -> bool:
        """Reduce the stack with operator ``name`` if possible."""
        if syntax is None:
            # Default prefix syntax: name(args...).
            if self._peek(1).text != "(":
                if stack:
                    return False
                # A bare operator name: a polymorphic constant (bottom, top,
                # empty) — represented as a variable, resolved by expected
                # type during checking.
                self._next()
                stack.append(Var(name))
                return True
            self._next()
            self._expect("(")
            args: list[Term] = []
            if self._peek().text != ")":
                args.append(self.parse_expr_tokens())
                while self._peek().text == ",":
                    self._next()
                    args.append(self.parse_expr_tokens())
            self._expect(")")
            stack.append(Apply(name, tuple(args)))
            return True
        if len(stack) < syntax.pre:
            return False
        self._next()
        pre_args = tuple(stack[len(stack) - syntax.pre :])
        del stack[len(stack) - syntax.pre :]
        group_args = self._parse_groups(syntax)
        stack.append(Apply(name, pre_args + group_args))
        return True

    def _parse_groups(self, syntax: SyntaxPattern) -> tuple[Term, ...]:
        args: list[Term] = []
        for style, count in syntax.groups:
            if style == "plain":
                args.append(self._parse_chain())
                continue
            open_sym, close_sym = ("[", "]") if style == "bracket" else ("(", ")")
            self._expect(open_sym)
            saved_depth = self._list_depth
            self._list_depth = 0
            for i in range(count):
                if i:
                    self._expect(",")
                args.append(self.parse_expr_tokens())
            self._list_depth = saved_depth
            self._expect(close_sym)
        return tuple(args)

    def _is_value_name(self, name: str) -> bool:
        return name in self._params or self.is_object(name) or name in self.aliases

    def _parse_primary(self) -> Term:
        tok = self._next()
        if tok.kind == "INT" or tok.kind == "REAL":
            return Literal(tok.value)
        if tok.kind == "STRING":
            return Literal(tok.value)
        if tok.kind == "KEYWORD" and tok.text == "fun":
            self._pos -= 1
            return self._parse_fun()
        if tok.text == "(":
            saved_depth = self._list_depth
            self._list_depth = 0
            expr = self.parse_expr_tokens()
            items = [expr]
            while self._peek().text == ",":
                self._next()
                items.append(self.parse_expr_tokens())
            self._list_depth = saved_depth
            self._expect(")")
            if len(items) > 1:
                return TupleTerm(tuple(items))
            return expr
        if tok.text == "<":
            self._list_depth += 1
            items = [self.parse_expr_tokens()]
            while self._peek().text == ",":
                self._next()
                items.append(self.parse_expr_tokens())
            self._list_depth -= 1
            self._expect(">")
            return ListTerm(tuple(items))
        if tok.kind == "NAME" and tok.text in ("true", "false"):
            return Literal(tok.text == "true")
        if tok.kind == "NAME":
            # Function-value call: name immediately followed by '('.
            nxt = self._peek()
            adjacent = (
                nxt.text == "("
                and nxt.line == tok.line
                and nxt.column == tok.column + len(tok.text)
            )
            if adjacent and not self.sos.is_operator(tok.text):
                self._expect("(")
                args: list[Term] = []
                if self._peek().text != ")":
                    saved_depth = self._list_depth
                    self._list_depth = 0
                    args.append(self.parse_expr_tokens())
                    while self._peek().text == ",":
                        self._next()
                        args.append(self.parse_expr_tokens())
                    self._list_depth = saved_depth
                self._expect(")")
                return Call(Var(tok.text), tuple(args))
            return Var(tok.text)
        raise ParseError(f"unexpected token {tok}", tok.line, tok.column)

    def _parse_fun(self) -> Fun:
        self._expect("fun")
        self._expect("(")
        params: list[tuple[str, Optional[Type]]] = []
        if self._peek().text != ")":
            while True:
                pname = self._name("parameter name")
                ptype: Optional[Type] = None
                if self._peek().text == ":":
                    self._next()
                    ptype = self.parse_type_tokens()
                params.append((pname, ptype))
                if self._peek().text != ",":
                    break
                self._next()
        self._expect(")")
        self._params.extend(p for p, _ in params)
        saved_depth = self._list_depth
        self._list_depth = 0
        try:
            body = self.parse_expr_tokens()
        finally:
            self._list_depth = saved_depth
            del self._params[len(self._params) - len(params) :]
        return Fun(tuple(params), body)


def _is_infix(syntax: SyntaxPattern) -> bool:
    return syntax.pre == 1 and syntax.groups == (("plain", 1),)
