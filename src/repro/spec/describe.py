"""Render a second-order signature back into specification-style text.

The inverse of :func:`repro.spec.parse_spec` for inspection: prints kinds,
type constructors, subtype rules and operator specifications in the paper's
layout.  Used by the REPL's ``\\ops`` command and handy for verifying what a
composed system actually contains.
"""

from __future__ import annotations

from repro.core.operators import OperatorSpec, TypeOperator
from repro.core.patterns import format_pattern
from repro.core.sos import SecondOrderSignature


def describe_signature(sos: SecondOrderSignature, level: str | None = None) -> str:
    """A specification-style listing of the signature.

    ``level`` filters constructors/operators to one of ``model`` / ``rep`` /
    ``hybrid``; ``None`` lists everything.
    """
    lines: list[str] = []
    ts = sos.type_system
    lines.append("kinds " + ", ".join(k.name for k in ts.kinds))
    lines.append("")
    lines.append("type constructors")
    for ctor in ts.constructors:
        if level is not None and ctor.level != level:
            continue
        if ctor.is_constant:
            lines.append(f"    -> {ctor.result_kind.name:<10} {ctor.name}")
        else:
            args = " x ".join(format_pattern(s) for s in ctor.arg_sorts)
            lines.append(f"    {args} -> {ctor.result_kind.name}   {ctor.name}")
    if sos.subtypes.rules:
        lines.append("")
        lines.append("subtypes")
        for rule in sos.subtypes.rules:
            lines.append(
                f"    {format_pattern(rule.sub)} < {format_pattern(rule.sup)}"
            )
    lines.append("")
    lines.append("operators")
    for spec in sos.all_operators():
        if level is not None and spec.level != level:
            continue
        lines.append("    " + describe_operator(spec))
    if sos.families:
        lines.append(
            "    forall tuple: tuple(list) in TUPLE. forall (a, d) in list. "
            "tuple -> d   a   -- attribute access"
        )
    return "\n".join(lines)


def describe_operator(spec: OperatorSpec) -> str:
    quantifiers = " ".join(f"{q}." for q in spec.quantifiers)
    args = " x ".join(format_pattern(s) for s in spec.arg_sorts)
    arrow = "~>" if spec.is_update else "->"
    if isinstance(spec.result, TypeOperator):
        result = f"{spec.result.name}: {spec.result.result_kind.name}"
    else:
        result = format_pattern(spec.result)
    syntax = f"   syntax {spec.syntax.text}" if spec.syntax is not None else ""
    head = f"{quantifiers} " if quantifiers else ""
    if args:
        return f"{head}{args} {arrow} {result}   {spec.name}{syntax}"
    return f"{head}{arrow} {result}   {spec.name}{syntax}"
