"""Structured observability: events, spans, and one metrics spine.

Counters have two scopes, both optional and both zero-overhead when off:

* the **statement sink** — an :class:`ExecutionMetrics` armed by
  :func:`collecting` — answers "what did *this statement* do?";
* the **process registry** — :data:`REGISTRY`, a :class:`MetricsRegistry`
  that :func:`enable_registry` turns on (a server does at startup) —
  answers "what is *the server* doing?".

Which scope sees an event is decided here, by the call the producer makes:

==============  ==============  ================
call            statement sink  process registry
==============  ==============  ================
:func:`incr`    counter         —
:func:`record`  histogram       —
:func:`count`   counter         counter
:func:`gauge`   —               gauge
:func:`sample`  —               histogram
==============  ==============  ================

Each event is counted by one call under one name.  Per-row and per-page
producers (storage structures, streams, the evaluator, cost estimation)
call :func:`incr`/:func:`record` behind ``if observe.ENABLED:``.  The
per-statement and per-commit producers of the WAL and the MVCC engine,
which also run without a server, call :func:`count`/:func:`gauge`/
:func:`sample` behind ``if observe.COUNTING:``; the server's own code,
whose process has the registry on, calls them directly.  A guard is one
module-attribute load, the same pattern as
:func:`repro.testing.faults.fault_point`.

The other pieces:

:class:`Tracer`
    a lightweight structured event bus.  Producers call :meth:`Tracer.emit`
    / :meth:`Tracer.span`; when nobody subscribed, both are a length check
    and an early return.  Subscriber exceptions are swallowed — a broken
    listener must never kill query execution.

:class:`RuleTrace`
    the optimizer's decision log: every fired rewrite with the term before
    and after, and per-rule attempt counts broken down by outcome
    (``no_match`` / ``conditions_failed`` / ``typecheck_failed`` /
    ``fired``) — the Gral-style rule trace [BeG92] that rule sets are
    debugged with.

:func:`render_prometheus` / :func:`render_top`
    the registry's renderers: the ``--metrics-port`` exposition page and
    the ``python -m repro top`` screen.

The system front end (:mod:`repro.system`) wires these into every
statement; :func:`repro.api.connect` exposes them as the ``trace`` option
and ``explain(..., analyze=True)``.
"""

from __future__ import annotations

import gc
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

ENABLED = False
"""True while an :class:`ExecutionMetrics` is armed (the statement guard)."""

COUNTING = False
"""True while either scope is on: a statement sink is armed or the
process registry is enabled (the spine guard)."""

REGISTRY_ON = False
"""True while the process registry is on (a server enabled it)."""

_ACTIVE: Optional["ExecutionMetrics"] = None
_OWNER: Optional[int] = None
"""The thread that armed :data:`_ACTIVE`; :func:`count` reaches the sink
only from it, so a server thread's event never lands in another
session's statement."""

_ARMED: list[tuple["ExecutionMetrics", int]] = []
"""The stack of armed sinks and their threads; the top one is
:data:`_ACTIVE`.  Kept as an explicit stack so :func:`collecting` scopes
can exit in any order (e.g. interleaved generators) without clobbering
each other's state."""

_WINDOW = 1024
"""Observations a :class:`Histogram` keeps for its percentiles."""


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
    """A value distribution: ``count``, ``sum`` and the mean are exact
    over its whole life; min, max and the interpolated percentiles
    describe the most recent ``limit`` observations.

    The window keeps a server-lifetime latency histogram bounded; a
    statement's histogram (per-probe row counts) rarely fills it.
    """

    __slots__ = ("values", "limit", "count", "sum")

    def __init__(self, limit: int = _WINDOW) -> None:
        self.values: list[float] = []
        self.limit = limit
        self.count = 0
        self.sum = 0.0

    def record(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.sum += value
        self.values.append(value)
        if len(self.values) > self.limit:
            # Amortized: shed the oldest half in one slice, not one pop
            # per record.
            del self.values[: self.limit // 2]

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile (0..100) of the window, linearly
        interpolated."""
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
        if not self.count:
            return {"count": 0, "sum": 0.0}
        return {
            "count": self.count,
            "sum": self.sum,
            "min": min(self.values),
            "max": max(self.values),
            "mean": self.sum / self.count,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }

    def __repr__(self) -> str:
        return f"<Histogram n={self.count}>"


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


class MetricsRegistry:
    """Thread-safe counters, gauges, and histograms, keyed by dotted name
    (``mvcc.commits``, ``wal.fsync_seconds``).

    Producers run on the asyncio loop *and* on ``to_thread`` workers, so
    every mutation takes the registry lock; each is a dict update, never
    contended for long.
    """

    __slots__ = ("_lock", "counters", "gauges", "histograms")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        self.histograms: dict[str, Histogram] = {}

    def incr(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        with self._lock:
            self.gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        with self._lock:
            hist = self.histograms.get(name)
            if hist is None:
                hist = self.histograms[name] = Histogram()
            hist.record(value)

    def locked(self) -> bool:
        """Whether some thread holds the lock at this instant."""
        return self._lock.locked()

    def declare(self, counters=(), gauges=(), histograms=()) -> None:
        """Pre-register metric families at their zero values so renderers
        list them before the first observation arrives (idempotent, never
        overwrites recorded values)."""
        with self._lock:
            for name in counters:
                self.counters.setdefault(name, 0)
            for name in gauges:
                self.gauges.setdefault(name, 0.0)
            for name in histograms:
                self.histograms.setdefault(name, Histogram())

    def snapshot(self) -> dict:
        """A JSON-able point-in-time copy of the whole registry."""
        with self._lock:
            return {
                "counters": dict(self.counters),
                "gauges": dict(self.gauges),
                "histograms": {
                    name: hist.as_dict()
                    for name, hist in self.histograms.items()
                },
            }

    def reset(self) -> None:
        with self._lock:
            self.counters.clear()
            self.gauges.clear()
            self.histograms.clear()

    def __repr__(self) -> str:
        return (
            f"<MetricsRegistry counters={len(self.counters)}"
            f" gauges={len(self.gauges)} histograms={len(self.histograms)}>"
        )


REGISTRY = MetricsRegistry()
"""The process registry.  Because it is process-wide, several in-process
servers (the test harness starts them) share it, and assertions against
it are written as deltas."""


GC_METRIC_FAMILIES = {
    "histograms": ("gc.pause_ms.gen0", "gc.pause_ms.gen1", "gc.pause_ms.gen2"),
}
"""The collector's pauses, one histogram per generation, fed while the
registry is on."""

_gc_started = 0.0
_gc_pending: list[tuple[str, float]] = []


def _gc_pause(phase: str, info: dict) -> None:
    """The :data:`gc.callbacks` hook :func:`enable_registry` installs: one
    ``gc.pause_ms.gen<N>`` sample per collection.

    A collection starts wherever an allocation triggers it — possibly in a
    registry update on this very thread, whose lock is not reentrant — so
    a sample that finds the registry locked is kept for the next
    collection's hook to record.
    """
    global _gc_started
    if phase == "start":
        _gc_started = time.perf_counter()
        return
    pause_ms = (time.perf_counter() - _gc_started) * 1e3
    _gc_pending.append((GC_METRIC_FAMILIES["histograms"][info["generation"]], pause_ms))
    while _gc_pending and not REGISTRY.locked():
        REGISTRY.observe(*_gc_pending.pop())


def enable_registry() -> None:
    """Turn the process registry on (idempotent).  Servers call this at
    startup; once on, it stays on — the flag is a producer fast path,
    not a subscription.  It also installs the collector hook that feeds
    :data:`GC_METRIC_FAMILIES`."""
    global REGISTRY_ON, COUNTING
    REGISTRY_ON = COUNTING = True
    REGISTRY.declare(**GC_METRIC_FAMILIES)
    if _gc_pause not in gc.callbacks:
        gc.callbacks.append(_gc_pause)


def disable_registry() -> None:
    global REGISTRY_ON, COUNTING
    REGISTRY_ON = False
    COUNTING = ENABLED
    if _gc_pause in gc.callbacks:
        gc.callbacks.remove(_gc_pause)


def active() -> Optional[ExecutionMetrics]:
    """The armed metrics sink, or None when collection is off."""
    return _ACTIVE


def incr(name: str, value: int = 1) -> None:
    """Bump a named counter on the statement sink (no-op when disarmed).

    Hot call sites should guard with ``if observe.ENABLED:`` first so the
    disabled path is a module-attribute load, not a function call.
    """
    sink = _ACTIVE
    if sink is not None:
        sink.counters[name] = sink.counters.get(name, 0) + value


def record(name: str, value: float) -> None:
    """Add one observation to a named histogram on the statement sink
    (no-op when disarmed).  Same guard discipline as :func:`incr`."""
    sink = _ACTIVE
    if sink is not None:
        sink.record(name, value)


def count(name: str, value: float = 1) -> None:
    """Count one event under ``name`` in every scope that is on: the
    statement sink armed on this thread and the process registry.

    Call sites outside the server guard with ``if observe.COUNTING:``.
    """
    sink = _ACTIVE
    if sink is not None and _OWNER == threading.get_ident():
        sink.counters[name] = sink.counters.get(name, 0) + value
    if REGISTRY_ON:
        REGISTRY.incr(name, value)


def gauge(name: str, value: float) -> None:
    """Set a process gauge (no-op while the registry is off)."""
    if REGISTRY_ON:
        REGISTRY.gauge(name, value)


def sample(name: str, value: float) -> None:
    """Add one observation to a process histogram (no-op while the
    registry is off)."""
    if REGISTRY_ON:
        REGISTRY.observe(name, value)


@contextmanager
def collecting(metrics: Optional[ExecutionMetrics] = None) -> Iterator[ExecutionMetrics]:
    """Arm ``metrics`` (a fresh sink by default) as the statement sink.

    Fully reentrant: scopes nest, and — because generators can suspend a
    scope and finalize later — they may also *exit out of order*.  Each
    exit removes its own sink from the armed stack (by identity, innermost
    occurrence first) and recomputes the active sink from whatever remains,
    so a stale exit never clobbers a scope armed after it.
    """
    global _ACTIVE, _OWNER, ENABLED, COUNTING
    sink = metrics if metrics is not None else ExecutionMetrics()
    owner = threading.get_ident()
    _ARMED.append((sink, owner))
    _ACTIVE, _OWNER = sink, owner
    ENABLED = COUNTING = True
    try:
        yield sink
    finally:
        for i in range(len(_ARMED) - 1, -1, -1):
            if _ARMED[i][0] is sink:
                del _ARMED[i]
                break
        _ACTIVE, _OWNER = _ARMED[-1] if _ARMED else (None, None)
        ENABLED = _ACTIVE is not None
        COUNTING = ENABLED or REGISTRY_ON


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


# ---------------------------------------------------------------------------
# Registry renderers
# ---------------------------------------------------------------------------


def _metric_name(name: str) -> str:
    """``mvcc.commit_seconds`` -> ``repro_mvcc_commit_seconds``."""
    cleaned = "".join(c if c.isalnum() or c == "_" else "_" for c in name)
    return f"repro_{cleaned}"


def render_prometheus(snapshot: dict) -> str:
    """Render a :meth:`MetricsRegistry.snapshot` in the Prometheus plain
    text exposition format (version 0.0.4).

    Counters get a ``_total`` suffix; histograms render as summaries
    with ``quantile`` labels plus ``_count``/``_sum`` series.
    """
    lines: list[str] = []
    for name in sorted(snapshot.get("counters", {})):
        metric = _metric_name(name) + "_total"
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {_fmt(snapshot['counters'][name])}")
    for name in sorted(snapshot.get("gauges", {})):
        metric = _metric_name(name)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {_fmt(snapshot['gauges'][name])}")
    for name in sorted(snapshot.get("histograms", {})):
        stats = snapshot["histograms"][name]
        metric = _metric_name(name)
        lines.append(f"# TYPE {metric} summary")
        for q, key in (("0.5", "p50"), ("0.95", "p95"), ("0.99", "p99")):
            if key in stats:
                lines.append(f'{metric}{{quantile="{q}"}} {_fmt(stats[key])}')
        lines.append(f"{metric}_count {_fmt(stats.get('count', 0))}")
        lines.append(f"{metric}_sum {_fmt(stats.get('sum', 0.0))}")
    return "\n".join(lines) + "\n"


def _fmt(value: float) -> str:
    if isinstance(value, float) and value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


def _rate(now: dict, before: Optional[dict], name: str, interval: float) -> float:
    if not before or interval <= 0:
        return 0.0
    delta = now.get("counters", {}).get(name, 0) - before.get(
        "counters", {}
    ).get(name, 0)
    return delta / interval


def render_top(
    snapshot: dict,
    previous: Optional[dict] = None,
    interval: float = 1.0,
    address: str = "",
) -> str:
    """One screenful of the registry: current gauges, totals, rates
    computed against the ``previous`` snapshot, and latency percentiles.

    Pure function of its inputs so it is testable without a terminal;
    ``python -m repro top`` clears the screen and reprints it.
    """
    counters = snapshot.get("counters", {})
    gauges = snapshot.get("gauges", {})
    hists = snapshot.get("histograms", {})
    server = snapshot.get("server", {})

    def total(name: str) -> float:
        return counters.get(name, 0)

    batches = total("group_commit.batches")
    mean_batch = total("group_commit.synced") / batches if batches else 0.0
    lines = [
        f"repro top — {address or 'server'}"
        + (
            f"  up {server['uptime_seconds']:.0f}s"
            if "uptime_seconds" in server
            else ""
        ),
        "",
        f"sessions   active {gauges.get('server.active_sessions', 0):>6.0f}"
        f"   connections {total('server.connections'):>8.0f}",
        f"txns       open   {gauges.get('mvcc.open_transactions', 0):>6.0f}"
        f"   commits     {total('mvcc.commits'):>8.0f}"
        f"   conflicts {total('mvcc.conflicts'):>8.0f}"
        f"   rollbacks {total('mvcc.rollbacks'):>6.0f}",
        f"statements total  {total('server.statements'):>6.0f}"
        f"   queries     {total('server.queries'):>8.0f}"
        f"   slow      {total('server.slow_queries'):>8.0f}"
        f"   {_rate(snapshot, previous, 'server.statements', interval):>8.1f}/s",
        f"snapshots  taken  {total('mvcc.snapshots'):>6.0f}"
        f"   privatized  {total('mvcc.privatizations'):>8.0f}",
        f"wal        appends {total('wal.appends'):>5.0f}"
        f"   bytes       {total('wal.bytes'):>8.0f}"
        f"   fsyncs    {total('wal.fsyncs'):>8.0f}"
        f"   {_rate(snapshot, previous, 'wal.bytes', interval):>8.1f} B/s",
        f"groupcommit batches {batches:>4.0f}"
        f"   commits     {total('group_commit.synced'):>8.0f}"
        f"   mean batch {mean_batch:>7.2f}",
        f"resilience journal hits {total('mvcc.journal_hits'):>5.0f}"
        f"   timeouts  {total('server.statement_timeouts'):>6.0f}"
        f"   rejected {total('server.rejected_connections'):>5.0f}",
    ]
    for name, label in (
        ("server.statement_seconds", "statement"),
        ("mvcc.commit_seconds", "commit"),
        ("wal.fsync_seconds", "fsync"),
    ):
        stats = hists.get(name)
        if stats and stats.get("count"):
            lines.append(
                f"{label:<10} p50 {stats['p50'] * 1e3:>9.3f}ms"
                f"   p95 {stats['p95'] * 1e3:>9.3f}ms"
                f"   p99 {stats['p99'] * 1e3:>9.3f}ms"
                f"   n {stats['count']:>6.0f}"
            )
    return "\n".join(lines) + "\n"
