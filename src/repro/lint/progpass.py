"""Program analysis (progpass): whole SOS programs checked before execution.

:func:`lint_program` statically analyzes a program against a database's
signature and catalog *without executing a single statement* — no
transaction begins, no WAL frame is written, no object value is touched.
Three analysis families over the ``PRG...`` codes:

* **pre-execution typecheck** — every statement is parsed and typechecked
  against an *overlay* catalog that carries the effects of the preceding
  statements (a ``create`` makes its object visible to later statements,
  a ``type`` its alias), so a program that would die on statement 7 is
  rejected whole (``PRG000``);
* **def-use dataflow** over catalog objects — use-before-create
  (``PRG001``), use-after-delete (``PRG002``), duplicate create
  (``PRG003``), dead stores and created-never-used objects (``PRG004``);
* **transaction effects and plan shape** — write-write pairs whose
  earlier effect is discarded inside one atomic program (``PRG005``),
  mutations run outside ``atomic=True`` in a multi-statement program
  (``PRG006``), joins with no equatable attribute pair (``PRG007``) and
  queries over never-``analyze``\\ d relations (``PRG008``).

Diagnostics carry ``(line, column)`` spans into the *original* program
source (statement chunks are re-split here with a line map, because
:func:`~repro.lang.parser.split_statements` drops blank and comment
lines).  Inline ``-- lint: disable=PRG...`` comments suppress findings
exactly as they do for specification sources.

The pass is wired into the session surface as ``Session.check(source)``
and ``connect(precheck="strict"|"warn")`` — see ``docs/STATIC_ANALYSIS.md``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Optional

from repro.core.terms import Apply, Fun, Term, free_names, walk_terms
from repro.core.typecheck import TypeChecker
from repro.core.types import Type, TypeApp
from repro.errors import ParseError, SOSError
from repro.lang.parser import (
    STATEMENT_KEYWORDS,
    AnalyzeStmt,
    CreateStmt,
    DeleteStmt,
    Parser,
    QueryStmt,
    TypeStmt,
    UpdateStmt,
)
from repro.lint.diagnostics import Diagnostic, LintReport

__all__ = ["lint_program"]


# ---------------------------------------------------------------------------
# Statement chunks with spans into the original source
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class _Chunk:
    """One statement chunk plus the original line number of each kept line."""

    lines: list[str] = field(default_factory=list)
    linenos: list[int] = field(default_factory=list)

    @property
    def text(self) -> str:
        return "\n".join(self.lines)

    @property
    def start(self) -> int:
        return self.linenos[0] if self.linenos else 1

    def map_line(self, chunk_line: Optional[int]) -> Optional[int]:
        """A 1-based line inside :attr:`text` -> the original source line."""
        if chunk_line is None:
            return self.start
        index = max(0, min(chunk_line - 1, len(self.linenos) - 1))
        return self.linenos[index]

    def find_name(self, name: str) -> tuple[int, int]:
        """The original ``(line, column)`` of the first occurrence of
        ``name`` in the chunk (the statement head as a fallback)."""
        pattern = re.compile(rf"\b{re.escape(name)}\b")
        for text, lineno in zip(self.lines, self.linenos):
            m = pattern.search(text)
            if m is not None:
                return lineno, m.start() + 1
        return self.start, 1


def _split_with_spans(source: str) -> tuple[list[_Chunk], Optional[Diagnostic]]:
    """Re-implement :func:`split_statements` keeping original line numbers.

    Must mirror its splitting rule exactly: a statement starts on an
    unindented line whose first word is a statement keyword; blank and
    ``--`` comment lines are dropped.  A program that starts mid-statement
    is returned as a ``PRG000`` diagnostic instead of raising.
    """
    chunks: list[_Chunk] = []
    for lineno, raw in enumerate(source.splitlines(), start=1):
        line = raw.rstrip()
        stripped = line.strip()
        if not stripped or stripped.startswith("--"):
            continue
        first_word = stripped.split(None, 1)[0]
        starts = first_word in STATEMENT_KEYWORDS and not raw[:1].isspace()
        if starts:
            chunks.append(_Chunk([line], [lineno]))
        elif not chunks:
            return [], Diagnostic(
                "PRG000",
                f"program must start with a statement keyword, got: {stripped}",
                line=lineno,
                column=1,
            )
        else:
            chunks[-1].lines.append(line)
            chunks[-1].linenos.append(lineno)
    return chunks, None


_HEAD_NAME_RE = re.compile(
    r"^\s*(create|delete|update|type)\s+([A-Za-z_][A-Za-z0-9_]*)"
)


def _future_definitions(chunks: list[_Chunk]) -> tuple[dict[str, int], dict[str, int]]:
    """A cheap textual pre-scan: which objects / type aliases the program
    defines, and in which statement.  Used to tell "created later"
    (``PRG001``) apart from "does not exist at all" before parsing."""
    creates: dict[str, int] = {}
    aliases: dict[str, int] = {}
    for index, chunk in enumerate(chunks):
        m = _HEAD_NAME_RE.match(chunk.lines[0])
        if m is None:
            continue
        if m.group(1) == "create":
            creates.setdefault(m.group(2), index)
        elif m.group(1) == "type":
            aliases.setdefault(m.group(2), index)
    return creates, aliases


# ---------------------------------------------------------------------------
# Term walks
# ---------------------------------------------------------------------------


def _object_refs(term: Term, known: set[str]) -> set[str]:
    """Names from ``known`` the term references outside lambda scopes.

    Free identifiers *not* in ``known`` are left alone — they are attribute
    names for the typechecker's implicit-lambda elaboration, not objects.
    """
    return {n.name for n in free_names(term) if n.name in known}


def _param_refs(term: Term, params: set[str]) -> set[str]:
    """Which of ``params`` a condition subterm references."""
    return _object_refs(term, params)


def _join_nodes(term: Term):
    """Every ``join`` application in the term (post-typecheck walk)."""
    return (n for n in walk_terms(term) if isinstance(n, Apply) and n.op == "join")


def _has_equatable_pair(condition: Fun) -> bool:
    """True when the join condition contains an ``=`` comparison that
    relates both tuple parameters — the shape an equi-join rewrite (and a
    hash/merge plan) can use.  Anything else degenerates to a filtered
    cartesian product."""
    params = {name for name, _ in condition.params}
    if len(params) < 2:
        return True  # not the two-tuple shape this check understands

    for node in walk_terms(condition.body):
        if isinstance(node, Apply) and node.op == "=" and len(node.args) == 2:
            left = _param_refs(node.args[0], params)
            right = _param_refs(node.args[1], params)
            if left and right and left != right:
                return True
    return False


def _is_relation(t: Optional[Type]) -> bool:
    return isinstance(t, TypeApp) and t.constructor == "rel"


# ---------------------------------------------------------------------------
# The pass
# ---------------------------------------------------------------------------


class _ProgramAnalysis:
    """One program's analysis state: the overlay catalog plus dataflow facts."""

    def __init__(self, database, source_name: str, atomic: bool):
        self.db = database
        self.source_name = source_name
        self.atomic = atomic
        self.report = LintReport()
        # Overlay catalog: committed state + the program's own effects.
        self.live: dict[str, Type] = {
            name: obj.type for name, obj in database.objects.items()
        }
        self.aliases: dict[str, Type] = dict(database.aliases)
        self.analyzed: set[str] = set(database.stats.entries)
        # ``analyze`` stores statistics under the *representation* object;
        # credit them to the model relation via the rep directory too.
        rep = database.objects.get("rep")
        if rep is not None and hasattr(rep.value, "rows"):
            for row in rep.value.rows:
                names = [getattr(cell, "name", cell) for cell in row]
                if len(names) == 2 and names[1] in self.analyzed:
                    self.analyzed.add(names[0])
        self.dropped: dict[str, int] = {}
        self.created: dict[str, int] = {}
        # Dataflow: the last statement that wrote each object, and whether
        # anything read the object since that write.
        self.last_write: dict[str, tuple[int, _Chunk]] = {}
        self.read_since: set[str] = set()
        self.used_since_create: set[str] = set()
        self.parser = Parser(
            database.sos,
            aliases=self.aliases,
            is_object=self._is_known_name,
        )
        self.typechecker = TypeChecker(
            database.sos, object_types=lambda name: self.live.get(name)
        )
        self.future_creates: dict[str, int] = {}

    def _is_known_name(self, name: str) -> bool:
        # Future and dropped names parse as object references so the
        # dataflow pass can report PRG001/PRG002 instead of a parse error.
        return (
            name in self.live
            or name in self.dropped
            or name in self.future_creates
        )

    # ------------------------------------------------------------ reporting

    def add(
        self,
        code: str,
        message: str,
        *,
        subject: str = "",
        line: Optional[int] = None,
        column: Optional[int] = None,
    ) -> None:
        self.report.add(
            Diagnostic(
                code,
                message,
                source=self.source_name,
                subject=subject,
                line=line,
                column=column,
            )
        )

    def _flag_name(
        self, code: str, message: str, name: str, chunk: _Chunk
    ) -> None:
        line, column = chunk.find_name(name)
        self.add(code, message, subject=name, line=line, column=column)

    # ------------------------------------------------------------- dataflow

    def _check_uses(self, names: set[str], index: int, chunk: _Chunk) -> bool:
        """Report refs to not-yet / no-longer existing objects.  Returns
        True when the statement can still be typechecked (all refs live)."""
        ok = True
        for name in sorted(names):
            if name in self.live:
                continue
            ok = False
            if name in self.dropped:
                self._flag_name(
                    "PRG002",
                    f"object {name} was deleted by statement "
                    f"{self.dropped[name] + 1} and is used here",
                    name,
                    chunk,
                )
            elif name in self.future_creates:
                self._flag_name(
                    "PRG001",
                    f"object {name} is used before statement "
                    f"{self.future_creates[name] + 1} creates it",
                    name,
                    chunk,
                )
            else:
                self._flag_name(
                    "PRG000", f"no such object: {name}", name, chunk
                )
        return ok

    def _note_reads(self, names: set[str]) -> None:
        for name in names:
            self.read_since.add(name)
            self.used_since_create.add(name)

    def _note_write(
        self, name: str, index: int, chunk: _Chunk, *, kills: bool = False
    ) -> None:
        """A statement (re)defines ``name``'s value.  A previous write that
        nothing read in between is a dead store — reported as ``PRG005``
        inside an atomic program (its write sets statically conflict; the
        earlier effect is discarded at commit) and ``PRG004`` otherwise."""
        previous = self.last_write.get(name)
        if previous is not None and name not in self.read_since:
            prev_index, prev_chunk = previous
            line, column = prev_chunk.find_name(name)
            verb = "deleted" if kills else "overwritten"
            if self.atomic:
                self.add(
                    "PRG005",
                    f"statements {prev_index + 1} and {index + 1} of this "
                    f"atomic program both write {name}; the earlier value "
                    f"is {verb} without ever being read",
                    subject=name,
                    line=line,
                    column=column,
                )
            else:
                self.add(
                    "PRG004",
                    f"value written to {name} by statement {prev_index + 1} "
                    f"is {verb} by statement {index + 1} without ever "
                    "being read",
                    subject=name,
                    line=line,
                    column=column,
                )
        if kills:
            self.last_write.pop(name, None)
        else:
            self.last_write[name] = (index, chunk)
        self.read_since.discard(name)

    # ----------------------------------------------------------- statements

    def statement(self, index: int, chunk: _Chunk) -> None:
        try:
            statement = self.parser.parse_statement(chunk.text)
        except ParseError as exc:
            self.add(
                "PRG000",
                str(exc),
                line=chunk.map_line(exc.line),
                column=exc.column,
            )
            return
        except SOSError as exc:
            self.add("PRG000", str(exc), line=chunk.start, column=1)
            return
        if isinstance(statement, TypeStmt):
            self._type(statement, chunk)
        elif isinstance(statement, CreateStmt):
            self._create(statement, index, chunk)
        elif isinstance(statement, DeleteStmt):
            self._delete(statement, index, chunk)
        elif isinstance(statement, UpdateStmt):
            self._update(statement, index, chunk)
        elif isinstance(statement, QueryStmt):
            self._query(statement, index, chunk)
        elif isinstance(statement, AnalyzeStmt):
            self._analyze(statement, index, chunk)

    def _type(self, statement: TypeStmt, chunk: _Chunk) -> None:
        try:
            self.db.sos.type_system.check_type(statement.type)
        except SOSError as exc:
            self.add("PRG000", str(exc), line=chunk.start, column=1)
            return
        self.aliases[statement.name] = statement.type

    def _create(self, statement: CreateStmt, index: int, chunk: _Chunk) -> None:
        name = statement.name
        if name in self.live:
            self._flag_name(
                "PRG003",
                f"object {name} already exists"
                + (
                    f" (created by statement {self.created[name] + 1})"
                    if name in self.created
                    else " in the catalog"
                ),
                name,
                chunk,
            )
            return
        try:
            self.db.sos.type_system.check_type(statement.type)
            self.db.level_of_type(statement.type)
        except SOSError as exc:
            self.add(
                "PRG000", str(exc), subject=name, line=chunk.start, column=1
            )
            return
        self.live[name] = statement.type
        self.created[name] = index
        self.dropped.pop(name, None)
        self.used_since_create.discard(name)
        self.read_since.discard(name)
        self.last_write.pop(name, None)

    def _delete(self, statement: DeleteStmt, index: int, chunk: _Chunk) -> None:
        name = statement.name
        if not self._check_uses({name}, index, chunk):
            return
        if name in self.created and name not in self.used_since_create:
            line, column = chunk.find_name(name)
            self.add(
                "PRG004",
                f"object {name} is created by statement "
                f"{self.created[name] + 1} and deleted here without ever "
                "being used",
                subject=name,
                line=line,
                column=column,
            )
        else:
            self._note_write(name, index, chunk, kills=True)
        del self.live[name]
        self.dropped[name] = index
        self.created.pop(name, None)
        self.analyzed.discard(name)
        self.last_write.pop(name, None)

    def _update(self, statement: UpdateStmt, index: int, chunk: _Chunk) -> None:
        name = statement.name
        known = set(self.live) | set(self.dropped) | set(self.future_creates)
        refs = _object_refs(statement.expr, known)
        if not self._check_uses(refs | {name}, index, chunk):
            return
        self._note_reads(refs)
        self.used_since_create.add(name)
        try:
            term = self.typechecker.check_value_term(
                statement.expr, self.live[name]
            )
        except SOSError as exc:
            self.add("PRG000", str(exc), subject=name,
                     line=chunk.start, column=1)
            return
        self._plan_shape(term, refs, index, chunk)
        self._note_write(name, index, chunk)

    def _query(self, statement: QueryStmt, index: int, chunk: _Chunk) -> None:
        known = set(self.live) | set(self.dropped) | set(self.future_creates)
        refs = _object_refs(statement.expr, known)
        if not self._check_uses(refs, index, chunk):
            return
        self._note_reads(refs)
        try:
            term = self.typechecker.check(statement.expr)
        except SOSError as exc:
            self.add("PRG000", str(exc), line=chunk.start, column=1)
            return
        self._plan_shape(term, refs, index, chunk)
        for name in sorted(refs):
            if _is_relation(self.live.get(name)) and name not in self.analyzed:
                self._flag_name(
                    "PRG008",
                    f"relation {name} has no statistics; the optimizer "
                    f"falls back to defaults (run: analyze {name})",
                    name,
                    chunk,
                )

    def _analyze(self, statement: AnalyzeStmt, index: int, chunk: _Chunk) -> None:
        names = set(statement.names)
        if not self._check_uses(names, index, chunk):
            return
        self._note_reads(names)
        if statement.names:
            self.analyzed |= names
        else:
            self.analyzed |= set(self.live)

    def _plan_shape(
        self, term: Term, refs: set[str], index: int, chunk: _Chunk
    ) -> None:
        for node in _join_nodes(term):
            condition = next(
                (a for a in node.args if isinstance(a, Fun)), None
            )
            if condition is not None and not _has_equatable_pair(condition):
                line, column = chunk.find_name("join")
                self.add(
                    "PRG007",
                    "join condition relates no attribute of one operand to "
                    "an attribute of the other by =; this evaluates as a "
                    "filtered cartesian product",
                    subject="join",
                    line=line,
                    column=column,
                )

    # -------------------------------------------------------------- program

    def finish(self, chunks: list[_Chunk]) -> None:
        if self.atomic or len(chunks) < 2:
            return
        mutations = [
            (index, chunk)
            for index, chunk in enumerate(chunks)
            if chunk.lines[0].split(None, 1)[0]
            in ("type", "create", "update", "delete")
        ]
        if len(mutations) >= 2:
            index, chunk = mutations[1]
            self.add(
                "PRG006",
                f"program has {len(mutations)} mutating statements but runs "
                "without atomic=True; a failure here leaves the preceding "
                "statements committed",
                line=chunk.start,
                column=1,
            )


def lint_program(
    database,
    program: str,
    *,
    atomic: bool = False,
    source: str = "<program>",
) -> LintReport:
    """Statically analyze ``program`` against ``database`` without
    executing it; returns the :class:`LintReport` with ``PRG...`` findings.

    ``atomic`` mirrors the ``run(source, atomic=...)`` flag the program
    would execute under: it selects between the ``PRG005`` (conflicting
    write sets inside one atomic program) and ``PRG006`` (mutations
    outside ``atomic=True``) transaction-effect diagnostics.  Inline
    ``-- lint: disable=...`` comments in the program are honored.
    """
    chunks, head_error = _split_with_spans(program)
    if head_error is not None:
        report = LintReport([
            Diagnostic(
                head_error.code,
                head_error.message,
                source=source,
                line=head_error.line,
                column=head_error.column,
            )
        ])
        return report.suppress(source_text=program)
    analysis = _ProgramAnalysis(database, source, atomic)
    analysis.future_creates, _ = _future_definitions(chunks)
    for index, chunk in enumerate(chunks):
        # The pre-scan names every create; once reached, a name stops
        # being "future" (a second create is PRG003, not PRG001).
        analysis.future_creates = {
            name: at
            for name, at in analysis.future_creates.items()
            if at > index
        }
        analysis.statement(index, chunk)
    analysis.finish(chunks)
    return analysis.report.suppress(source_text=program).sorted()
