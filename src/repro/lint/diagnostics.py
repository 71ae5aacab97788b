"""The diagnostics framework behind :mod:`repro.lint`.

A :class:`Diagnostic` is one finding: a stable code (``SOS001`` …,
``RUL001`` …), a severity, a message, and an optional ``(line, column)``
span into the source the analyzed object came from.  A :class:`LintReport`
collects them, applies inline suppressions, and renders as text or JSON.

Suppressions use the spec/rule comment syntax::

    -- lint: disable=SOS010,RUL006      (this line, or the next one when
                                         the comment stands alone)
    -- lint: disable-file=SOS010        (the whole file)
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

ERROR = "error"
WARNING = "warn"
INFO = "info"

_SEVERITY_ORDER = {ERROR: 0, WARNING: 1, INFO: 2}

#: Every stable diagnostic code with its default severity and summary.
CODES: dict[str, tuple[str, str]] = {
    "SOS000": (ERROR, "specification source failed to parse"),
    "SOS001": (ERROR, "quantifier or constructor references an unknown kind"),
    "SOS002": (ERROR, "duplicate operator signature"),
    "SOS003": (WARNING, "operator signature shadowed by an earlier identical one"),
    "SOS004": (ERROR, "quantifier pattern uses an unknown constructor or wrong arity"),
    "SOS005": (WARNING, "specs of one operator disagree on concrete syntax"),
    "SOS006": (ERROR, "syntax pattern arity differs from the argument count"),
    "SOS007": (ERROR, "subtype rules form a cycle"),
    "SOS008": (WARNING, "representation type unreachable (no operator, no subtype path)"),
    "SOS009": (ERROR, "update function violates first-arg-type = result-type"),
    "SOS010": (INFO, "operator has no documentation (missing from spec.describe)"),
    "RUL001": (ERROR, "rule RHS uses a variable the LHS and conditions never bind"),
    "RUL002": (ERROR, "rule condition references a variable that is never bound"),
    "RUL003": (ERROR, "dead rule: LHS head operator not in the signature"),
    "RUL004": (ERROR, "rule is not type-preserving"),
    "RUL005": (WARNING, "condition references an unknown catalog"),
    "RUL006": (WARNING, "rule pair rewrites A => B and B => A (direct loop)"),
    "RUL007": (INFO, "rule could not be statically analyzed"),
    "RUL008": (WARNING, "rule LHS fails the symbolic typecheck"),
    "PRG000": (ERROR, "program statement failed to parse or typecheck"),
    "PRG001": (ERROR, "object used before the statement that creates it"),
    "PRG002": (ERROR, "object used after delete"),
    "PRG003": (ERROR, "duplicate create of an existing object"),
    "PRG004": (WARNING, "dead store: created or written value is never used"),
    "PRG005": (WARNING, "conflicting write sets inside one atomic program"),
    "PRG006": (WARNING, "mutations in a multi-statement program outside atomic=True"),
    "PRG007": (WARNING, "join condition has no equatable attribute pair (cartesian blowup)"),
    "PRG008": (INFO, "query touches a relation that was never analyzed"),
    "ENG001": (ERROR, "MVCC shared state mutated outside the engine lock"),
    "ENG002": (WARNING, "blocking call while holding the engine lock"),
    "ENG003": (WARNING, "blocking or engine call on the event-loop thread"),
    "ENG004": (ERROR, "await while holding a synchronous lock"),
    "ENG005": (WARNING, "telemetry metric fed but never pre-declared"),
    "ENG006": (ERROR, "fault site injected but not registered in repro.testing.faults"),
    "ENG007": (ERROR, "TupleValue built outside the view boundary"),
}


@dataclass(frozen=True, slots=True)
class Diagnostic:
    """One finding of an analysis pass."""

    code: str
    message: str
    severity: str = ""
    source: str = ""
    """What was analyzed: a model name, rule set name, or file path."""
    subject: str = ""
    """The operator / constructor / rule the finding is about."""
    line: Optional[int] = None
    column: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.severity:
            default = CODES.get(self.code)
            object.__setattr__(
                self, "severity", default[0] if default else WARNING
            )

    @property
    def span(self) -> Optional[tuple[int, int]]:
        if self.line is None:
            return None
        return (self.line, self.column if self.column is not None else 1)

    def as_dict(self) -> dict:
        return {
            "code": self.code,
            "severity": self.severity,
            "message": self.message,
            "source": self.source,
            "subject": self.subject,
            "line": self.line,
            "column": self.column,
        }

    def render(self) -> str:
        where = self.source or "<signature>"
        if self.line is not None:
            where += f":{self.line}"
            if self.column is not None:
                where += f":{self.column}"
        subject = f" [{self.subject}]" if self.subject else ""
        return f"{where}: {self.severity}: {self.code}{subject}: {self.message}"


_SUPPRESS_RE = re.compile(
    r"--\s*lint:\s*(disable|disable-file)\s*=\s*([A-Z0-9,\s]+)"
)


def scan_suppressions(text: str) -> tuple[set[str], dict[int, set[str]]]:
    """Collect inline suppressions from specification/rule source text.

    Returns ``(file_wide_codes, {line: codes})``.  A trailing comment
    suppresses its own line; a standalone comment line suppresses the next
    line as well (so suppressions can sit above long declarations).
    """
    file_wide: set[str] = set()
    by_line: dict[int, set[str]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        m = _SUPPRESS_RE.search(raw)
        if m is None:
            continue
        codes = {c.strip() for c in m.group(2).split(",") if c.strip()}
        if m.group(1) == "disable-file":
            file_wide |= codes
            continue
        by_line.setdefault(lineno, set()).update(codes)
        if raw.strip().startswith("--"):
            by_line.setdefault(lineno + 1, set()).update(codes)
    return file_wide, by_line


class LintReport:
    """A collection of diagnostics with rendering and filtering."""

    def __init__(self, diagnostics: Iterable[Diagnostic] = ()):
        self.diagnostics: list[Diagnostic] = list(diagnostics)

    def add(self, diagnostic: Diagnostic) -> None:
        self.diagnostics.append(diagnostic)

    def extend(self, diagnostics: Iterable[Diagnostic]) -> None:
        self.diagnostics.extend(diagnostics)

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self.diagnostics)

    def __len__(self) -> int:
        return len(self.diagnostics)

    # -------------------------------------------------------------- filtering

    def suppress(
        self,
        codes: Iterable[str] = (),
        source_text: Optional[str] = None,
    ) -> "LintReport":
        """A new report without suppressed diagnostics.

        ``codes`` suppresses globally; ``source_text`` is scanned for
        ``-- lint: disable=...`` comments matched against diagnostic spans.
        """
        file_wide = set(codes)
        by_line: dict[int, set[str]] = {}
        if source_text is not None:
            scanned, by_line = scan_suppressions(source_text)
            file_wide |= scanned
        kept = []
        for d in self.diagnostics:
            if d.code in file_wide:
                continue
            if d.line is not None and d.code in by_line.get(d.line, ()):
                continue
            kept.append(d)
        return LintReport(kept)

    def sorted(self) -> "LintReport":
        return LintReport(
            sorted(
                self.diagnostics,
                key=lambda d: (
                    _SEVERITY_ORDER.get(d.severity, 3),
                    d.source,
                    d.line if d.line is not None else 0,
                    d.code,
                    d.subject,
                ),
            )
        )

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == ERROR]

    @property
    def warnings(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == WARNING]

    @property
    def ok(self) -> bool:
        """True when no error-severity diagnostics are present."""
        return not self.errors

    # -------------------------------------------------------------- rendering

    def render_text(self) -> str:
        lines = [d.render() for d in self.sorted()]
        counts = (
            f"{len(self.errors)} error(s), {len(self.warnings)} warning(s), "
            f"{len(self.diagnostics) - len(self.errors) - len(self.warnings)} info"
        )
        lines.append(counts if self.diagnostics else f"clean: {counts}")
        return "\n".join(lines)

    def render_json(self) -> str:
        return json.dumps(
            {
                "diagnostics": [d.as_dict() for d in self.sorted()],
                "errors": len(self.errors),
                "warnings": len(self.warnings),
                "ok": self.ok,
            },
            indent=2,
        )
