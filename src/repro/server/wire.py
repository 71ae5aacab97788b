"""Wire codecs for the json-lines client/server protocol.

One request or response is one JSON object on one line.  Values, results,
errors, explain reports and lint reports all have symmetric
``encode_*`` / ``decode_*`` pairs here, used by both endpoints — the
client reconstructs *real* library objects (:class:`TupleValue` views with
``.attr()``, :class:`Relation`, :class:`~repro.geometry.Point`,
:class:`~repro.system.sos_system.SystemResult`,
:class:`~repro.observe.ExecutionMetrics`, the exception classes of
:mod:`repro.errors`), so code written against a local session runs
unchanged against a network one.

Tagged encoding: any non-scalar value becomes ``{"$": tag, ...}``.  A
plain dict is tagged too (``{"$": "dict", "items": [[k, v], ...]}``), so
the ``$`` discriminator can never collide with user data.  Types travel
as concrete syntax and are re-parsed on the client against the standard
relational signature — the one signature both endpoints share.

Typed rows: a value does not carry its type (Def. 3.4), so tuples travel
as their carriers under one type per frame.  A relation ships
``{"$": "rel", "type": <rel type>, "rows": [...]}``, a stream or a list of
tuples of one schema ``{"$": "stream", "type": <stream type>, "rows":
[...]}``, a lone tuple ``{"$": "tuple", "schema": <tuple type>, "values":
row}``.  A row is a bare JSON array: an atom (int, real, string, bool)
as it is, any other component (a point, a nested tuple or relation, ...)
tagged.  The server reads which positions are atoms from the type, once
per frame; the client decodes the tagged components, which are JSON
objects where an atom never is, and builds the views with
:func:`repro.core.algebra.view`.
"""

from __future__ import annotations

import threading

from repro import errors as _errors
from repro.core.algebra import Closure, Relation, Stream, TupleValue, view
from repro.core.types import Type, TypeApp, attrs_of, format_type
from repro.errors import ProtocolError, SOSError, wrap_statement_error
from repro.geometry import Point, Polygon, Rect
from repro.observe import ExecutionMetrics, FiredRule, Histogram, RuleTrace
from repro.system.sos_system import SystemResult

# ---------------------------------------------------------------------------
# Types: concrete syntax over the wire, re-parsed against a shared signature
# ---------------------------------------------------------------------------

_TYPE_PARSER = None
_TYPE_PARSER_LOCK = threading.Lock()
_TYPE_CACHE: dict[str, Type] = {}


def _type_parser():
    """A parser over the standard relational signature, built lazily once
    per process (building the signature is milliseconds; decoding a row
    must not pay it per tuple)."""
    global _TYPE_PARSER
    if _TYPE_PARSER is None:
        with _TYPE_PARSER_LOCK:
            if _TYPE_PARSER is None:
                from repro.lang.parser import Parser
                from repro.system.sos_system import build_relational_database

                _TYPE_PARSER = Parser(build_relational_database().sos)
    return _TYPE_PARSER


def encode_type(t: Type) -> str:
    return format_type(t)


def decode_type(source: str) -> Type:
    t = _TYPE_CACHE.get(source)
    if t is None:
        t = _TYPE_CACHE[source] = _type_parser().parse_type(source)
    return t


# ---------------------------------------------------------------------------
# Values
# ---------------------------------------------------------------------------


def encode_value(value) -> object:
    """Encode any library value into JSON-able form (tagged where needed).

    A tuple, and a relation, a stream or a list of tuples of one schema,
    ships its type's text once and each row as a bare JSON array
    (:func:`_encode_rows`)."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, list) and value and isinstance(value[0], TupleValue):
        schema = value[0].schema
        # A materialized stream: a list of tuples of one schema.
        if all([isinstance(r, TupleValue) and r.schema is schema for r in value]):
            return _stream(schema, value)
    if isinstance(value, TupleValue):
        return {
            "$": "tuple",
            "schema": encode_type(value.schema),
            "values": _encode_rows(value.schema, [value])[0],
        }
    if isinstance(value, Relation):
        return {
            "$": "rel",
            "type": encode_type(value.type),
            "rows": _encode_rows(value.type.args[0], value.rows),
        }
    if isinstance(value, Stream):
        return _stream(value.tuple_type, value.materialize())
    if isinstance(value, Point):
        return {"$": "point", "x": value.x, "y": value.y}
    if isinstance(value, Rect):
        return {
            "$": "rect",
            "xmin": value.xmin, "ymin": value.ymin,
            "xmax": value.xmax, "ymax": value.ymax,
        }
    if isinstance(value, Polygon):
        return {
            "$": "pgon",
            "vertices": [[p.x, p.y] for p in value.vertices],
        }
    if isinstance(value, Type):
        return {"$": "type", "source": encode_type(value)}
    if isinstance(value, (list, tuple)):
        return {"$": "list", "items": [encode_value(v) for v in value]}
    if isinstance(value, dict):
        return {
            "$": "dict",
            "items": [[encode_value(k), encode_value(v)] for k, v in value.items()],
        }
    if isinstance(value, Closure):
        return {"$": "opaque", "text": "<function value>"}
    # Storage structures (B-trees, catalogs, ...) and anything else the
    # client cannot usefully reconstruct travel as their repr.
    return {"$": "opaque", "text": repr(value)}


def decode_value(value) -> object:
    if not isinstance(value, dict):
        if isinstance(value, list):  # never produced by encode, but be lenient
            return [decode_value(v) for v in value]
        return value
    tag = value.get("$")
    if tag == "tuple":
        schema = decode_type(value["schema"])
        return view(schema, _carriers([value["values"]])[0])
    if tag == "rel":
        rel = decode_type(value["type"])
        return view(rel, Relation(rel, _carriers(value["rows"])))
    if tag == "stream":
        # A stream is one-shot and already materialized server-side; the
        # client gets the list of tuples (iterates the same way).
        return view(decode_type(value["type"]), _carriers(value["rows"]))
    if tag == "point":
        return Point(value["x"], value["y"])
    if tag == "rect":
        return Rect(value["xmin"], value["ymin"], value["xmax"], value["ymax"])
    if tag == "pgon":
        return Polygon(tuple(Point(x, y) for x, y in value["vertices"]))
    if tag == "type":
        return decode_type(value["source"])
    if tag == "list":
        return [decode_value(v) for v in value["items"]]
    if tag == "dict":
        return {decode_value(k): decode_value(v) for k, v in value["items"]}
    if tag == "opaque":
        return value["text"]
    raise ProtocolError(f"malformed value frame: unknown tag {tag!r}")


# Rows: the wire twin of ``algebra._viewer``.  The server walks the
# shipped tuple type once per collection: a row of atoms (int, real,
# string, bool) is sent as it is, and only a component of another type
# travels tagged through ``encode_value``.  The client needs no walk of its
# own: a tagged component is a JSON object and an atom never is, so it
# decodes the objects, keeps the rest, and leaves the one walk that makes
# the views to ``algebra.view``.

#: Constant types whose carriers are their own JSON.
_FLAT = frozenset({"int", "real", "string", "bool"})


def _encode_rows(t, rows) -> list:
    """Rows (views or carriers) of tuple type ``t``, each as a JSON array.
    Rows of atoms are returned as they are: ``json`` writes a tuple as an
    array."""
    try:
        flat = all(
            [
                a.__class__ is TypeApp and not a.args and a.constructor in _FLAT
                for _, a in attrs_of(t)
            ]
        )
    except TypeError:  # not tuple-shaped: every component travels tagged
        flat = False
    if flat:
        return [r.values if r.__class__ is TupleValue else r for r in rows]
    return [
        [encode_value(v) for v in (r.values if r.__class__ is TupleValue else r)]
        for r in rows
    ]


def _stream(schema, rows) -> dict:
    """The frame of a stream of tuples of ``schema``.  Its type is
    ``stream(schema)``, written out so the client parses it once and views
    the rows under it without building it anew."""
    return {
        "$": "stream",
        "type": "stream(" + encode_type(schema) + ")",
        "rows": _encode_rows(schema, rows),
    }


def _carriers(rows: list) -> list:
    """The carriers of decoded JSON rows: each tagged component decoded, an
    atom kept as it is."""
    return [
        tuple(r) if dict not in map(type, r) else tuple([decode_value(v) for v in r])
        for r in rows
    ]


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------


def encode_result(result: SystemResult) -> dict:
    from repro.core.terms import format_term

    return {
        "kind": result.kind,
        "level": result.level,
        "name": result.name,
        "type": encode_type(result.type) if result.type is not None else None,
        "value": encode_value(result.value),
        "term": format_term(result.term) if result.term is not None else None,
        "translated_term": (
            format_term(result.translated_term)
            if result.translated_term is not None
            else None
        ),
        "translated_target": result.translated_target,
        "translated_source": result.translated_source,
        "fired": list(result.fired),
        "timings": dict(result.timings),
        "metrics": (
            encode_metrics(result.metrics) if result.metrics is not None else None
        ),
        "rule_trace": (
            encode_rule_trace(result.rule_trace)
            if result.rule_trace is not None
            else None
        ),
    }


def decode_result(data: dict) -> SystemResult:
    # ``term`` / ``translated_term`` arrive as formatted abstract syntax —
    # the client has no typechecker context to rebuild real Term objects,
    # and none of the result surface needs one (``generated_statement``
    # prefers ``translated_source``, which is verbatim).
    return SystemResult(
        kind=data["kind"],
        level=data["level"],
        name=data["name"],
        type=decode_type(data["type"]) if data["type"] is not None else None,
        value=decode_value(data["value"]),
        term=data["term"],
        translated_term=data["translated_term"],
        translated_target=data["translated_target"],
        translated_source=data["translated_source"],
        fired=list(data["fired"]),
        timings=dict(data["timings"]),
        metrics=(
            decode_metrics(data["metrics"])
            if data["metrics"] is not None
            else None
        ),
        rule_trace=(
            decode_rule_trace(data["rule_trace"])
            if data["rule_trace"] is not None
            else None
        ),
    )


def encode_metrics(metrics: ExecutionMetrics) -> dict:
    return {
        "operators": {op: dict(slot) for op, slot in metrics.operators.items()},
        "counters": dict(metrics.counters),
        "io": dict(metrics.io),
        "histograms": {
            name: {"values": list(h.values), "count": h.count, "sum": h.sum}
            for name, h in metrics.histograms.items()
        },
    }


def decode_metrics(data: dict) -> ExecutionMetrics:
    metrics = ExecutionMetrics()
    metrics.operators.update(
        {op: dict(slot) for op, slot in data["operators"].items()}
    )
    metrics.counters.update(data["counters"])
    metrics.io.update(data["io"])
    for name, shipped in data.get("histograms", {}).items():
        hist = metrics.histograms[name] = Histogram()
        hist.values = list(shipped["values"])
        hist.count = shipped["count"]
        hist.sum = shipped["sum"]
    return metrics


def encode_rule_trace(trace: RuleTrace) -> dict:
    return {
        "fired": [
            {"rule": f.rule, "step": f.step, "before": f.before, "after": f.after}
            for f in trace.fired
        ],
        "attempts": {
            rule: dict(outcomes) for rule, outcomes in trace.attempts.items()
        },
    }


def decode_rule_trace(data: dict) -> RuleTrace:
    trace = RuleTrace()
    trace.fired.extend(
        FiredRule(f["rule"], f["step"], f["before"], f["after"])
        for f in data["fired"]
    )
    trace.attempts.update(
        {rule: dict(outcomes) for rule, outcomes in data["attempts"].items()}
    )
    return trace


# ---------------------------------------------------------------------------
# Lint reports
# ---------------------------------------------------------------------------


def encode_lint_report(report) -> dict:
    return {"diagnostics": [d.as_dict() for d in report.diagnostics]}


def decode_lint_report(data: dict):
    from repro.lint.diagnostics import Diagnostic, LintReport

    return LintReport(
        [
            Diagnostic(
                code=d["code"],
                message=d["message"],
                severity=d["severity"],
                # `or ""` keeps the round trip identical: Diagnostic's
                # empty-string defaults must not come back as None.
                source=d.get("source") or "",
                subject=d.get("subject") or "",
                line=d.get("line"),
                column=d.get("column"),
            )
            for d in data["diagnostics"]
        ]
    )


# ---------------------------------------------------------------------------
# Errors: same class, same message, same fields on the other side
# ---------------------------------------------------------------------------

_SKIP_ATTRS = {"report"}  # LintError.report: not JSON-able, dropped


def _jsonable(v) -> bool:
    if v is None or isinstance(v, (bool, int, float, str)):
        return True
    if isinstance(v, (list, tuple)):
        return all(_jsonable(x) for x in v)
    return False


def encode_error(exc: BaseException) -> dict:
    """Encode an exception: class name, message, simple attributes, and —
    for the dynamic ``StatementError`` dual-inheritance wrappers — the
    original cause class so the client can rebuild the same dual class."""
    attrs = {
        k: (list(v) if isinstance(v, tuple) else v)
        for k, v in vars(exc).items()
        if k not in _SKIP_ATTRS and _jsonable(v)
    }
    frame = {
        "type": type(exc).__name__,
        "message": str(exc),
        "attrs": attrs,
    }
    if isinstance(exc, _errors.StatementError):
        cause = exc.__cause__
        cause_cls = None
        for base in type(exc).__mro__[1:]:
            if (
                issubclass(base, SOSError)
                and not issubclass(base, _errors.StatementError)
                and base is not SOSError
            ):
                cause_cls = base.__name__
                break
        frame["statement"] = {
            "index": exc.index,
            "source": exc.source,
            "phase": exc.phase,
            "cause_type": (
                type(cause).__name__ if cause is not None else cause_cls
            ),
            "cause_message": str(cause) if cause is not None else None,
            "cause_attrs": (
                {
                    k: (list(v) if isinstance(v, tuple) else v)
                    for k, v in vars(cause).items()
                    if k not in _SKIP_ATTRS and _jsonable(v)
                }
                if cause is not None
                else {}
            ),
        }
    return frame


def _error_class(name: str):
    cls = getattr(_errors, name, None)
    if isinstance(cls, type) and issubclass(cls, BaseException):
        return cls
    if name == "InjectedFault":
        from repro.testing.faults import InjectedFault

        return InjectedFault
    return None


def _rebuild(cls, message: str, attrs: dict) -> BaseException:
    """Instantiate without calling ``__init__`` — the subclasses have
    varied constructor signatures, and some (ParseError) transform the
    message; the encoded message is already the final one."""
    exc = cls.__new__(cls)
    Exception.__init__(exc, message)
    for k, v in attrs.items():
        try:
            setattr(exc, k, tuple(v) if k == "names" else v)
        except AttributeError:
            pass  # slotted class without that attribute
    return exc


def decode_error(frame: dict) -> BaseException:
    name = frame.get("type", "ProtocolError")
    message = frame.get("message", "remote error")
    attrs = frame.get("attrs", {})
    statement = frame.get("statement")
    if statement is not None and statement.get("cause_type"):
        cause_cls = _error_class(statement["cause_type"])
        if cause_cls is not None:
            cause = _rebuild(
                cause_cls,
                statement.get("cause_message") or message,
                statement.get("cause_attrs", {}),
            )
            return wrap_statement_error(
                cause,
                index=statement.get("index"),
                source=statement.get("source"),
                phase=statement.get("phase"),
            )
    cls = _error_class(name)
    if cls is None:
        return ProtocolError(f"remote {name}: {message}")
    return _rebuild(cls, message, attrs)
