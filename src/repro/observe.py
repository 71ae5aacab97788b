"""Structured execution observability: events, spans, and metrics.

Three cooperating pieces, all optional and all zero-overhead when off:

:class:`Tracer`
    a lightweight structured event bus.  Producers call :meth:`Tracer.emit`
    / :meth:`Tracer.span`; when nobody subscribed, both are a length check
    and an early return.  Subscriber exceptions are swallowed — a broken
    listener must never kill query execution.

:class:`ExecutionMetrics`
    per-statement counters: tuples produced/consumed per algebra operator,
    storage node/page accesses, TID fetches, plus the simulated-I/O delta.
    Collection is armed with :func:`collecting`; instrumented code guards
    each counter behind the module-level :data:`ENABLED` flag (same pattern
    as :func:`repro.testing.faults.fault_point` — a single global load and
    an early return when disabled).

:class:`RuleTrace`
    the optimizer's decision log: every fired rewrite with the term before
    and after, and per-rule attempt counts broken down by outcome
    (``no_match`` / ``conditions_failed`` / ``typecheck_failed`` /
    ``fired``) — the Gral-style rule trace [BeG92] that rule sets are
    debugged with.

The system front end (:mod:`repro.system`) wires these into every
statement; :func:`repro.api.connect` exposes them as the ``trace`` option
and ``explain(..., analyze=True)``.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

ENABLED = False
"""True while an :class:`ExecutionMetrics` is armed (fast-path guard)."""

_ACTIVE: Optional["ExecutionMetrics"] = None

_ARMED: list["ExecutionMetrics"] = []
"""The stack of armed sinks; the top one is :data:`_ACTIVE`.  Kept as an
explicit stack so :func:`collecting` scopes can exit in any order (e.g.
interleaved generators) without clobbering each other's state."""


# ---------------------------------------------------------------------------
# Event bus
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class Event:
    """One structured trace event.

    ``kind`` is ``begin`` / ``end`` for spans (``value`` of an ``end`` event
    is the span duration in seconds) or ``counter`` for point events.
    ``depth`` is the span-nesting depth at emission time.  ``ts`` is
    normally ``None`` (the event happened *now*); events replayed from
    another process — server spans stitched into a client trace — carry
    an explicit ``time.perf_counter()``-scale timestamp instead.
    """

    name: str
    kind: str = "counter"
    value: float = 0.0
    data: dict = field(default_factory=dict)
    depth: int = 0
    ts: Optional[float] = None


class Tracer:
    """A subscribable event bus with span support.

    ``emit``/``span`` cost a subscriber-list check when nobody listens, so a
    tracer can stay permanently attached to a system.  Subscribers are
    callables of one :class:`Event` argument; exceptions they raise are
    caught and counted, never propagated.
    """

    __slots__ = ("_subscribers", "_depth", "subscriber_errors")

    def __init__(self) -> None:
        self._subscribers: list[Callable[[Event], None]] = []
        self._depth = 0
        self.subscriber_errors = 0

    @property
    def enabled(self) -> bool:
        return bool(self._subscribers)

    def subscribe(self, fn: Callable[[Event], None]) -> Callable[[Event], None]:
        """Register a subscriber; returns it (usable as a decorator)."""
        self._subscribers.append(fn)
        return fn

    def unsubscribe(self, fn: Callable[[Event], None]) -> None:
        if fn in self._subscribers:
            self._subscribers.remove(fn)

    def emit(
        self, name: str, kind: str = "counter", value: float = 0.0, **data
    ) -> None:
        if not self._subscribers:
            return
        self.deliver(Event(name, kind, value, data, self._depth))

    def deliver(self, event: Event) -> None:
        """Dispatch a pre-built :class:`Event` to every subscriber.

        :meth:`emit` builds and delivers; replay paths (network sessions
        stitching server spans into the client trace) build events with
        explicit depths/timestamps and deliver them directly.
        """
        if not self._subscribers:
            return
        for fn in tuple(self._subscribers):
            try:
                fn(event)
            except Exception:
                self.subscriber_errors += 1

    @contextmanager
    def span(self, name: str, **data) -> Iterator[None]:
        """Emit ``begin``/``end`` events around a block; the ``end`` event
        carries the wall-clock duration."""
        if not self._subscribers:
            yield
            return
        self.emit(name, "begin", **data)
        self._depth += 1
        start = time.perf_counter()
        try:
            yield
        finally:
            self._depth -= 1
            self.emit(name, "end", value=time.perf_counter() - start, **data)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


class Histogram:
    """A value-distribution counter: records observations, reports
    min/max/mean and interpolated percentiles.

    Stores the raw observations (statements observe at most a few thousand
    values — latencies, per-probe row counts), so percentiles are exact
    rather than bucketed.
    """

    __slots__ = ("values",)

    def __init__(self) -> None:
        self.values: list[float] = []

    def record(self, value: float) -> None:
        self.values.append(float(value))

    @property
    def count(self) -> int:
        return len(self.values)

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile (0..100), linearly interpolated."""
        if not self.values:
            raise ValueError("empty histogram has no percentiles")
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile out of range: {q}")
        ordered = sorted(self.values)
        if len(ordered) == 1:
            return ordered[0]
        rank = (q / 100.0) * (len(ordered) - 1)
        low = int(rank)
        frac = rank - low
        if low + 1 >= len(ordered):
            return ordered[-1]
        return ordered[low] + (ordered[low + 1] - ordered[low]) * frac

    def as_dict(self) -> dict:
        if not self.values:
            return {"count": 0}
        return {
            "count": len(self.values),
            "min": min(self.values),
            "max": max(self.values),
            "mean": sum(self.values) / len(self.values),
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }

    def __repr__(self) -> str:
        return f"<Histogram n={len(self.values)}>"


class ExecutionMetrics:
    """Counters collected over one statement (or any :func:`collecting`
    scope).

    ``operators`` maps an algebra operator name to its tuple flow:
    ``out`` tuples it produced, ``in`` tuples explicitly consumed (only
    operators with interesting input-side behavior report ``in``; for a
    pipeline, the consumption of an operator equals the production of its
    input).  ``counters`` holds storage-level counts
    (``btree.node_reads``, ``lsdtree.node_reads``, ``tidrel.fetches``, ...)
    and stream-internal ones (``hash_join.build_rows``, ``sort.rows``,
    ``search_join.probes``).  ``io`` is the simulated page-I/O delta of the
    statement, filled in by the system front end.
    """

    __slots__ = ("operators", "counters", "io", "histograms")

    def __init__(self) -> None:
        self.operators: dict[str, dict[str, int]] = {}
        self.counters: dict[str, int] = {}
        self.io: dict[str, int] = {}
        self.histograms: dict[str, Histogram] = {}

    # ---- hot-path recording (only reached while ENABLED)

    def op_slot(self, op: str) -> dict[str, int]:
        slot = self.operators.get(op)
        if slot is None:
            slot = self.operators[op] = {"in": 0, "out": 0}
        return slot

    def count_out(self, op: str, iterator) -> Iterator:
        """Wrap an operator's output iterator, counting produced tuples."""
        slot = self.op_slot(op)
        for item in iterator:
            slot["out"] += 1
            yield item

    def count_in(self, op: str, iterator) -> Iterator:
        """Wrap an operator's input iterator, counting consumed tuples."""
        slot = self.op_slot(op)
        for item in iterator:
            slot["in"] += 1
            yield item

    def incr(self, name: str, value: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def record(self, name: str, value: float) -> None:
        """Add one observation to the named :class:`Histogram`."""
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = Histogram()
        hist.record(value)

    # ---- reporting

    def tuples_out(self, op: str) -> int:
        slot = self.operators.get(op)
        return slot["out"] if slot else 0

    def as_dict(self) -> dict:
        d = {
            "operators": {op: dict(slot) for op, slot in self.operators.items()},
            "counters": dict(self.counters),
            "io": dict(self.io),
        }
        if self.histograms:
            d["histograms"] = {
                name: hist.as_dict() for name, hist in self.histograms.items()
            }
        return d

    def __repr__(self) -> str:
        ops = ", ".join(
            f"{op}:{slot['out']}" for op, slot in sorted(self.operators.items())
        )
        return f"<ExecutionMetrics ops=[{ops}] counters={self.counters}>"


def active() -> Optional[ExecutionMetrics]:
    """The armed metrics sink, or None when collection is off."""
    return _ACTIVE


def incr(name: str, value: int = 1) -> None:
    """Bump a named counter on the active sink (no-op when disarmed).

    Hot call sites should guard with ``if observe.ENABLED:`` first so the
    disabled path is a module-attribute load, not a function call.
    """
    sink = _ACTIVE
    if sink is not None:
        sink.counters[name] = sink.counters.get(name, 0) + value


def record(name: str, value: float) -> None:
    """Add one observation to a named histogram on the active sink
    (no-op when disarmed).  Same guard discipline as :func:`incr`."""
    sink = _ACTIVE
    if sink is not None:
        sink.record(name, value)


@contextmanager
def collecting(metrics: Optional[ExecutionMetrics] = None) -> Iterator[ExecutionMetrics]:
    """Arm ``metrics`` (a fresh sink by default) as the active collector.

    Fully reentrant: scopes nest, and — because generators can suspend a
    scope and finalize later — they may also *exit out of order*.  Each
    exit removes its own sink from the armed stack (by identity, innermost
    occurrence first) and recomputes the active sink from whatever remains,
    so a stale exit never clobbers a scope armed after it.
    """
    global _ACTIVE, ENABLED
    sink = metrics if metrics is not None else ExecutionMetrics()
    _ARMED.append(sink)
    _ACTIVE = sink
    ENABLED = True
    try:
        yield sink
    finally:
        for i in range(len(_ARMED) - 1, -1, -1):
            if _ARMED[i] is sink:
                del _ARMED[i]
                break
        _ACTIVE = _ARMED[-1] if _ARMED else None
        ENABLED = _ACTIVE is not None


# ---------------------------------------------------------------------------
# Trace export
# ---------------------------------------------------------------------------


class ChromeTraceExporter:
    """A :class:`Tracer` subscriber that renders events in the Chrome trace
    event format (``chrome://tracing`` / Perfetto ``about:tracing`` JSON).

    Subscribe it to a tracer, run statements, then :meth:`write` (or
    :meth:`to_json`) the collected events::

        exporter = ChromeTraceExporter()
        session.subscribe(exporter)
        ...
        exporter.write("trace.json")

    Span ``begin``/``end`` events map to ``ph: "B"``/``"E"`` duration
    events; point events map to ``ph: "i"`` instants.  Timestamps are
    microseconds since the exporter was created.
    """

    __slots__ = ("events", "_origin", "pid", "tid")

    def __init__(self, pid: int = 1, tid: int = 1) -> None:
        self.events: list[dict] = []
        self._origin = time.perf_counter()
        self.pid = pid
        self.tid = tid

    def __call__(self, event: Event) -> None:
        ph = {"begin": "B", "end": "E"}.get(event.kind, "i")
        when = event.ts if event.ts is not None else time.perf_counter()
        record: dict = {
            "name": event.name,
            "ph": ph,
            "ts": (when - self._origin) * 1e6,
            "pid": self.pid,
            "tid": self.tid,
        }
        if ph == "i":
            record["s"] = "t"  # thread-scoped instant
        args = {k: _jsonable(v) for k, v in event.data.items()}
        if event.kind == "end":
            args["duration_ms"] = event.value * 1000.0
        elif event.kind == "counter" and event.value:
            args["value"] = event.value
        if args:
            record["args"] = args
        self.events.append(record)

    def to_json(self) -> str:
        return json.dumps(
            {"traceEvents": self.events, "displayTimeUnit": "ms"}, indent=1
        )

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            f.write(self.to_json())

    def __repr__(self) -> str:
        return f"<ChromeTraceExporter events={len(self.events)}>"


class SpanRecorder:
    """A :class:`Tracer` subscriber that captures events as JSON-able
    dicts with timestamps relative to its creation.

    The server subscribes one per traced request while it holds the
    engine lock, so the recording contains exactly that statement's
    events; the frames ship over the wire and the client replays them
    into its own tracer (:class:`Event` with an explicit ``ts``) to
    stitch one cross-process timeline.
    """

    __slots__ = ("events", "_origin")

    def __init__(self) -> None:
        self.events: list[dict] = []
        self._origin = time.perf_counter()

    def __call__(self, event: Event) -> None:
        self.events.append(
            {
                "name": event.name,
                "kind": event.kind,
                "value": event.value,
                "depth": event.depth,
                "t": time.perf_counter() - self._origin,
                "data": {k: _jsonable(v) for k, v in event.data.items()},
            }
        )

    def elapsed(self) -> float:
        return time.perf_counter() - self._origin

    def __repr__(self) -> str:
        return f"<SpanRecorder events={len(self.events)}>"


def _jsonable(value):
    """Event payloads may carry live objects (metrics, terms); flatten them
    to something ``json.dumps`` accepts."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    as_dict = getattr(value, "as_dict", None)
    if as_dict is not None:
        try:
            return as_dict()
        except Exception:
            return repr(value)
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return repr(value)


# ---------------------------------------------------------------------------
# Optimizer rule trace
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class FiredRule:
    """One accepted rewrite: the rule plus the term before and after (in
    abstract syntax), and which optimizer step it fired in."""

    rule: str
    step: str
    before: str
    after: str

    def as_dict(self) -> dict:
        return {
            "rule": self.rule,
            "step": self.step,
            "before": self.before,
            "after": self.after,
        }


class RuleTrace:
    """The optimizer's decision log for one optimization run.

    ``fired`` lists accepted rewrites in order; ``attempts`` maps each rule
    name to outcome counts over every place it was tried.  A rule is tried
    only at nodes whose operator and arity match the head of its left side
    (a rule without a fixed head — a literal, a variable or an operator
    variable — at every node), so a rule that cannot match a node's
    operator leaves no count there:

    ``no_match``
        the left-hand-side pattern did not match the node;
    ``conditions_failed``
        the pattern matched but no condition solution exists (the catalog
        lookup or type test came back empty);
    ``typecheck_failed``
        conditions held but every instantiated right-hand side failed the
        re-typecheck;
    ``fired``
        the rewrite was accepted.
    """

    __slots__ = ("fired", "attempts")

    def __init__(self) -> None:
        self.fired: list[FiredRule] = []
        self.attempts: dict[str, dict[str, int]] = {}

    def record_attempt(self, rule: str, outcome: str) -> None:
        per_rule = self.attempts.get(rule)
        if per_rule is None:
            per_rule = self.attempts[rule] = {}
        per_rule[outcome] = per_rule.get(outcome, 0) + 1

    def record_fired(self, rule: str, step: str, before: str, after: str) -> None:
        self.fired.append(FiredRule(rule, step, before, after))
        self.record_attempt(rule, "fired")

    def as_dict(self) -> dict:
        return {
            "fired": [f.as_dict() for f in self.fired],
            "attempts": {r: dict(o) for r, o in self.attempts.items()},
        }

    def __repr__(self) -> str:
        names = ", ".join(f.rule for f in self.fired) or "(none)"
        return f"<RuleTrace fired=[{names}]>"
