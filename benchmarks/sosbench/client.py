"""One closed-loop caller: next statement, send, wait, check, record."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import SOSError
from repro.storage.io import GLOBAL_PAGES

from .model import Op, matches
from .spans import SpanLog
from .workloads import Caller, TracedWire, Workload

_PHASES = (
    ("parse", "lang.parse_ms"),
    ("typecheck", "core.typecheck_ms"),
    ("optimize", "optimizer.optimize_ms"),
    ("execute", "core.execute_ms"),
    ("wal", "durability.wal_ms"),
)


@dataclass
class Tally:
    """What one caller observed during the timed section."""

    #: (op class, "read" | "update" | "txn", end, seconds) per operation.
    #: Explicit transactions are six round trips, a population of their own
    #: that would put a cliff in the tail of the single-statement updates.
    ops: list[tuple[str, str, float, float]] = field(default_factory=list)
    failed: int = 0
    #: Traced runs only: rows answered and seconds executing, over reads;
    #: simulated page traffic over the first ``counted`` operations.
    rows: int = 0
    execute_s: float = 0.0
    page_reads: int = 0
    page_writes: int = 0
    counted: int = 0


class Client:
    """Drives one caller.  With ``spans`` (the traced run) every operation
    also leaves a ``bench.stmt`` span split into layers."""

    def __init__(self, index: int, caller: Caller, workload: Workload,
                 spans: Optional[SpanLog] = None):
        self.index = index
        self.session = caller.session
        self.ops = caller.ops
        self.workload = workload
        self.spans = spans
        self.tally = Tally()
        self.error: Optional[BaseException] = None
        self._remote = isinstance(self.session, TracedWire)
        self._pages = None

    def execute(self, op: Op) -> list:
        if len(op.sources) == 1:
            return [self.session.run_one(op.sources[0])]
        self.session.begin()
        results = [self.session.run_one(source) for source in op.sources]
        self.session.commit()
        return results

    def warm(self) -> None:
        """One untimed operation; a failure here is a broken set-up."""
        op = next(self.ops)
        if not matches(op, self.execute(op)[-1].value):
            raise RuntimeError(f"warm-up operation went wrong: {op.sources}")
        if self._remote:
            self.session.take()

    def step(self) -> None:
        op = next(self.ops)
        results = None
        start = time.perf_counter()
        try:
            results = self.execute(op)
        except SOSError:
            pass  # a failed or refused operation; counted below
        end = time.perf_counter()
        tally = self.tally
        tally.failed += results is None or not matches(op, results[-1].value)
        group = ("txn" if len(op.sources) > 1
                 else "update" if op.mutating else "read")
        tally.ops.append((op.kind, group, end, end - start))
        if self.spans is not None and results is not None:
            self._trace(op, start, end, results)

    def _trace(self, op: Op, start: float, end: float, results: list) -> None:
        wall = end - start
        parts = {
            layer: sum(r.timings.get(phase, 0.0) for r in results)
            for phase, layer in _PHASES
        }
        total = sum(parts.values())
        if self._remote:
            elapsed, statement, wal = self.session.take()
            parts["durability.wal_ms"] = wal
            parts["system.overhead_ms"] = statement - total
            parts["server.dispatch_ms"] = elapsed - statement - wal
            parts["server.transport_ms"] = wall - elapsed
        else:
            parts["system.overhead_ms"] = wall - total
        self.spans.add(self.index, op.kind, start, end, parts)
        tally = self.tally
        if not op.mutating:
            value = results[-1].value
            tally.rows += len(value) if isinstance(value, list) else int(value)
            tally.execute_s += parts["core.execute_ms"]
        if tally.counted < self.workload.count_prefix:
            tally.counted += 1
            if self._remote:
                for result in results:
                    tally.page_reads += result.metrics.io["reads"]
                    tally.page_writes += result.metrics.io["writes"]
            elif tally.counted == self.workload.count_prefix:
                self.close_page_count()

    def close_page_count(self) -> None:
        """In-process the page manager is ours to read: the traffic of the
        first ``count_prefix`` operations, a count that repeats exactly."""
        if self._pages is not None:
            delta = GLOBAL_PAGES.stats.delta(self._pages)
            self.tally.page_reads, self.tally.page_writes = delta.reads, delta.writes
            self._pages = None

    def run_until(self, deadline: float) -> None:
        if self.spans is not None and not self._remote:
            self._pages = GLOBAL_PAGES.stats.snapshot()
        try:
            cycle = self.workload.cycle
            while (time.perf_counter() < deadline
                   or len(self.tally.ops) % cycle):
                self.step()
            self.close_page_count()
        except BaseException as exc:  # handed to the thread that joins us
            self.error = exc
