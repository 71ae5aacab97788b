"""The traced run's spans: one ``bench.stmt`` per operation, children per layer.

Spans are recorded from the benchmark's own files, around the calls into
the system: the parent is the caller's wall time for one operation, the
children are what the system itself reports for it
(``SystemResult.timings``; over the wire also ``server_elapsed`` and the
server's own spans).  The parent's self time is whatever no child covers:
``system.overhead_ms`` in-process, ``server.transport_ms`` over a socket.
Everything stays in memory until the run ends.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

#: The layers a statement's wall time is split into, in pipeline order.
#: Per operation they sum to the ``bench.stmt`` span exactly.
LAYERS = (
    "server.transport_ms",
    "server.dispatch_ms",
    "system.overhead_ms",
    "lang.parse_ms",
    "core.typecheck_ms",
    "optimizer.optimize_ms",
    "core.execute_ms",
    "durability.wal_ms",
)

#: Spans written per caller; a long run would otherwise write ~100 MB.
CHROME_SPANS_PER_CALLER = 5000


class SpanLog:
    """``bench.stmt`` spans of one run: (caller, op class, start, end,
    seconds per layer)."""

    def __init__(self):
        self.spans: list[tuple[int, str, float, float, dict[str, float]]] = []

    def add(self, caller: int, kind: str, start: float, end: float,
            parts: dict[str, float]) -> None:
        self.spans.append((caller, kind, start, end, parts))

    def median_statement_ms(self) -> dict[str, float]:
        """Where the median statement's time goes: the mean, per layer, over
        the statements whose wall time lies in the middle fifth (40th to
        60th percentile).  Unlike per-layer medians of a statement mix,
        these add up to ``system.stmt_wall_ms``."""
        ordered = sorted(self.spans, key=lambda span: span[3] - span[2])
        low = len(ordered) * 2 // 5
        band = ordered[low:max(len(ordered) * 3 // 5, low + 1)]
        out = {
            layer: 1000.0 * statistics.fmean(
                parts.get(layer, 0.0) for *_, parts in band
            )
            for layer in LAYERS
        }
        out["system.stmt_wall_ms"] = 1000.0 * statistics.fmean(
            end - start for _, _, start, end, _ in band
        )
        return out

    def write_chrome(self, path: Path) -> int:
        """Chrome-trace JSON (``chrome://tracing`` / Perfetto).  Child
        durations are measured; their offsets inside the parent are not
        reported by the system, so children are laid end to end in
        pipeline order, centred in the parent."""
        events = []
        written: dict[int, int] = {}
        origin = min((start for _, _, start, _, _ in self.spans), default=0.0)
        for index, (caller, kind, start, end, parts) in enumerate(self.spans):
            if written.get(caller, 0) >= CHROME_SPANS_PER_CALLER:
                continue
            written[caller] = written.get(caller, 0) + 1
            events.append(_event("bench.stmt", caller, start - origin,
                                 end - start, {"id": index, "op": kind}))
            # The parent's self time is not a child: transport over a
            # socket, the system's own overhead in-process.
            own = LAYERS[0] if parts.get(LAYERS[0]) else "system.overhead_ms"
            children = [
                (layer, parts[layer]) for layer in LAYERS
                if layer != own and parts.get(layer, 0.0) > 0.0
            ]
            cursor = start + max(
                0.0, (end - start - sum(d for _, d in children)) / 2.0
            )
            for layer, duration in children:
                events.append(_event(layer[:-3], caller, cursor - origin,
                                     duration, {"id": index}))
                cursor += duration
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events}))
        return len(events)


def _event(name: str, caller: int, start: float, duration: float,
           args: dict) -> dict:
    return {
        "name": name, "ph": "X", "pid": 1, "tid": caller,
        "ts": round(start * 1e6, 3), "dur": round(duration * 1e6, 3),
        "args": args,
    }
