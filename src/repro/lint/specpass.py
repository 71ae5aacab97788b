"""Static analysis of second-order signatures (``SOS001`` … ``SOS010``).

The checks run over a built :class:`~repro.core.sos.SecondOrderSignature`,
so they apply equally to signatures assembled in Python
(:func:`repro.system.build_relational_database`) and to parsed
specification text (:func:`lint_spec`).  When the signature came from text,
the spans recorded by the parser anchor each diagnostic to the declaring
line.
"""

from __future__ import annotations

from typing import Optional

from repro.core.operators import OperatorSpec, TypeOperator
from repro.core.patterns import format_pattern
from repro.core.sorts import ListSort
from repro.core.sos import SecondOrderSignature
from repro.core.types import PVar, TypeApp, walk_type
from repro.errors import ParseError, SpecificationError
from repro.lint.diagnostics import Diagnostic, LintReport


def lint_signature(
    sos: SecondOrderSignature, *, source: str = "<signature>"
) -> LintReport:
    """Run every signature check; returns the collected diagnostics."""
    report = LintReport()
    _check_quantifier_kinds(sos, report, source)
    _check_signature_clashes(sos, report, source)
    _check_pattern_constructors(sos, report, source)
    _check_syntax(sos, report, source)
    _check_subtype_cycles(sos, report, source)
    _check_unreachable_reps(sos, report, source)
    _check_update_functions(sos, report, source)
    _check_docs(sos, report, source)
    return report


def lint_spec(
    text: str,
    *,
    source: str = "<spec>",
    level: str = "model",
) -> LintReport:
    """Parse specification text and lint the resulting signature.

    Parse failures become a single ``SOS000`` diagnostic; inline
    ``-- lint: disable=...`` suppressions in the text are honored.
    """
    from repro.spec.parser import parse_spec

    try:
        sos = parse_spec(text, level=level)
    except ParseError as exc:
        return LintReport(
            [
                Diagnostic(
                    "SOS000",
                    str(exc),
                    source=source,
                    line=getattr(exc, "line", None),
                    column=getattr(exc, "column", None),
                )
            ]
        )
    except SpecificationError as exc:
        return LintReport([Diagnostic("SOS000", str(exc), source=source)])
    return lint_signature(sos, source=source).suppress(source_text=text)


# ------------------------------------------------------------------ helpers


def _span(obj) -> tuple[Optional[int], Optional[int]]:
    span = getattr(obj, "span", None)
    if span is None:
        return None, None
    return span


def _inhabited_kinds(sos: SecondOrderSignature) -> set[str]:
    ts = sos.type_system
    names = {c.result_kind.name for c in ts.constructors}
    for kinds in getattr(ts, "_extra_kinds", {}).values():
        names |= {k.name for k in kinds}
    return names


# ----------------------------------------------------------------- SOS001


def _check_quantifier_kinds(sos, report: LintReport, source: str) -> None:
    inhabited = _inhabited_kinds(sos)
    for spec in sos.all_operators():
        for q in spec.quantifiers:
            names = [k.name for k in q.kinds]
            if names and not any(n in inhabited for n in names):
                line, column = _span(spec)
                report.add(
                    Diagnostic(
                        "SOS001",
                        f"quantifier 'forall {q.var} in "
                        f"{' | '.join(names)}' ranges over a kind no type "
                        "constructor inhabits; the operator can never apply",
                        source=source,
                        subject=spec.name,
                        line=line,
                        column=column,
                    )
                )


# -------------------------------------------------------- SOS002 / SOS003


def _signature_key(spec: OperatorSpec) -> tuple:
    quantifiers = tuple(
        (
            q.var,
            format_pattern(q.pattern) if q.pattern is not None else "",
            "|".join([k.name for k in q.kinds]),
        )
        for q in spec.quantifiers
    )
    return (
        quantifiers,
        tuple(format_pattern(s) for s in spec.arg_sorts),
        spec.is_update,
    )


def _result_text(spec: OperatorSpec) -> str:
    if isinstance(spec.result, TypeOperator):
        return f"{spec.result.name}: {spec.result.result_kind.name}"
    return format_pattern(spec.result)


def _check_signature_clashes(sos, report: LintReport, source: str) -> None:
    by_name: dict[str, dict[tuple, OperatorSpec]] = {}
    for spec in sos.all_operators():
        seen = by_name.setdefault(spec.name, {})
        key = _signature_key(spec)
        first = seen.get(key)
        if first is None:
            seen[key] = spec
            continue
        line, column = _span(spec)
        if _result_text(first) == _result_text(spec):
            report.add(
                Diagnostic(
                    "SOS002",
                    "duplicate specification: identical quantifiers, "
                    "argument sorts and result as an earlier spec of "
                    f"'{spec.name}'",
                    source=source,
                    subject=spec.name,
                    line=line,
                    column=column,
                )
            )
        else:
            report.add(
                Diagnostic(
                    "SOS003",
                    f"specification of '{spec.name}' with result "
                    f"{_result_text(spec)} is shadowed: an earlier spec has "
                    "the same quantifiers and argument sorts (result "
                    f"{_result_text(first)}) and the typechecker tries specs "
                    "in order",
                    source=source,
                    subject=spec.name,
                    line=line,
                    column=column,
                )
            )


# ----------------------------------------------------------------- SOS004


def _check_app(
    app: TypeApp, sos, report: LintReport, source: str, subject: str, span
) -> None:
    ts = sos.type_system
    line, column = span
    if not ts.has_constructor(app.constructor):
        report.add(
            Diagnostic(
                "SOS004",
                f"pattern references unknown type constructor "
                f"'{app.constructor}'",
                source=source,
                subject=subject,
                line=line,
                column=column,
            )
        )
        return
    arities = {len(c.arg_sorts) for c in ts.overloads(app.constructor)}
    if len(app.args) not in arities:
        expect = ", ".join(str(a) for a in sorted(arities))
        report.add(
            Diagnostic(
                "SOS004",
                f"pattern applies '{app.constructor}' to {len(app.args)} "
                f"argument(s); the constructor takes {expect}",
                source=source,
                subject=subject,
                line=line,
                column=column,
            )
        )


def _check_pattern_constructors(sos, report: LintReport, source: str) -> None:
    for spec in sos.all_operators():
        for q in spec.quantifiers:
            if q.pattern is None:
                continue
            for app in walk_type(q.pattern):
                if isinstance(app, TypeApp):
                    _check_app(app, sos, report, source, spec.name, _span(spec))
    for rule in sos.subtypes.rules:
        subject = f"{format_pattern(rule.sub)} < {format_pattern(rule.sup)}"
        for pattern in (rule.sub, rule.sup):
            for app in walk_type(pattern):
                if isinstance(app, TypeApp):
                    _check_app(app, sos, report, source, subject, _span(rule))


# -------------------------------------------------------- SOS005 / SOS006


def _check_syntax(sos, report: LintReport, source: str) -> None:
    first_syntax: dict[str, tuple[str, OperatorSpec]] = {}
    for spec in sos.all_operators():
        if spec.syntax is None:
            continue
        line, column = _span(spec)
        # Variadic operators (a list sort among the arguments) legitimately
        # take more operands than the pattern's group shows once.
        variadic = any(isinstance(s, ListSort) for s in spec.arg_sorts)
        if not variadic and spec.syntax.arity != len(spec.arg_sorts):
            report.add(
                Diagnostic(
                    "SOS006",
                    f"syntax pattern '{spec.syntax.text}' mentions "
                    f"{spec.syntax.arity} operand(s) but the spec takes "
                    f"{len(spec.arg_sorts)} argument(s)",
                    source=source,
                    subject=spec.name,
                    line=line,
                    column=column,
                )
            )
        known = first_syntax.get(spec.name)
        if known is None:
            first_syntax[spec.name] = (spec.syntax.text, spec)
        elif known[0] != spec.syntax.text:
            report.add(
                Diagnostic(
                    "SOS005",
                    f"spec declares syntax '{spec.syntax.text}' but an "
                    f"earlier spec of '{spec.name}' declared "
                    f"'{known[0]}'; the parser uses the first",
                    source=source,
                    subject=spec.name,
                    line=line,
                    column=column,
                )
            )


# ----------------------------------------------------------------- SOS007


def _check_subtype_cycles(sos, report: LintReport, source: str) -> None:
    edges: dict[str, set[str]] = {}
    spans: dict[tuple[str, str], tuple] = {}
    for rule in sos.subtypes.rules:
        sub, sup = (
            next((t.constructor for t in walk_type(p) if isinstance(t, TypeApp)), None)
            for p in (rule.sub, rule.sup)
        )
        if sub is None or sup is None:
            continue
        edges.setdefault(sub, set()).add(sup)
        spans.setdefault((sub, sup), _span(rule))
    reported: set[frozenset[str]] = set()

    def visit(node: str, path: list[str]) -> None:
        for nxt in edges.get(node, ()):
            if nxt in path:
                cycle = path[path.index(nxt) :] + [nxt]
                key = frozenset(cycle)
                if key in reported:
                    continue
                reported.add(key)
                line, column = spans.get((node, nxt), (None, None))
                report.add(
                    Diagnostic(
                        "SOS007",
                        "subtype rules form a cycle: "
                        + " < ".join(cycle)
                        + "; the supertype closure does not terminate",
                        source=source,
                        subject=nxt,
                        line=line,
                        column=column,
                    )
                )
            else:
                visit(nxt, path + [nxt])

    for start in list(edges):
        visit(start, [start])


# ----------------------------------------------------------------- SOS008


def _check_unreachable_reps(sos, report: LintReport, source: str) -> None:
    ts = sos.type_system
    mentioned: set[str] = set()
    kinds: set[str] = set()
    for spec in sos.all_operators():
        for q in spec.quantifiers:
            kinds.update([k.name for k in q.kinds])
            if q.pattern is not None:
                mentioned.update(
                    t.constructor for t in walk_type(q.pattern) if isinstance(t, TypeApp)
                )
        result = () if isinstance(spec.result, TypeOperator) else (spec.result,)
        for node in (n for sort in (*spec.arg_sorts, *result) for n in walk_type(sort)):
            if isinstance(node, TypeApp):
                mentioned.add(node.constructor)
            elif isinstance(node, PVar) and node.kind is not None:
                kinds.add(node.kind.name)
    extra = getattr(ts, "_extra_kinds", {})
    for ctor in ts.constructors:
        member_kinds = {ctor.result_kind.name} | {
            k.name for k in extra.get(ctor.name, ())
        }
        if member_kinds & kinds:
            mentioned.add(ctor.name)
    # Subtype closure: a representation reachable through its supertype's
    # operators is reachable (``srel < relrep`` makes srel usable wherever
    # a relrep is accepted).
    changed = True
    while changed:
        changed = False
        for rule in sos.subtypes.rules:
            sub, sup = (
                next((t.constructor for t in walk_type(p) if isinstance(t, TypeApp)), None)
                for p in (rule.sub, rule.sup)
            )
            if sub and sup and sup in mentioned and sub not in mentioned:
                mentioned.add(sub)
                changed = True
    for ctor in ts.constructors:
        if ctor.level != "rep" or ctor.name in mentioned:
            continue
        line, column = _span(ctor)
        report.add(
            Diagnostic(
                "SOS008",
                f"representation constructor '{ctor.name}' is unreachable: "
                "no operator consumes or produces it and no subtype rule "
                "links it to one that does",
                source=source,
                subject=ctor.name,
                line=line,
                column=column,
            )
        )


# ----------------------------------------------------------------- SOS009


def _check_update_functions(sos, report: LintReport, source: str) -> None:
    for spec in sos.all_operators():
        if not spec.is_update or not spec.arg_sorts:
            continue
        if isinstance(spec.result, TypeOperator):
            continue
        first = format_pattern(spec.arg_sorts[0])
        result = format_pattern(spec.result)
        if first != result:
            line, column = _span(spec)
            report.add(
                Diagnostic(
                    "SOS009",
                    f"update function takes '{first}' but produces "
                    f"'{result}'; updates must return their first "
                    "argument's type (paper Section 2.5)",
                    source=source,
                    subject=spec.name,
                    line=line,
                    column=column,
                )
            )


# ----------------------------------------------------------------- SOS010


def _check_docs(sos, report: LintReport, source: str) -> None:
    seen: set[str] = set()
    for spec in sos.all_operators():
        if spec.doc or spec.name in seen:
            continue
        seen.add(spec.name)
        line, column = _span(spec)
        report.add(
            Diagnostic(
                "SOS010",
                f"operator '{spec.name}' has no documentation; "
                "spec.describe renders it without a description",
                source=source,
                subject=spec.name,
                line=line,
                column=column,
            )
        )


__all__ = ["lint_signature", "lint_spec"]
