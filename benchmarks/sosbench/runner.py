"""One benchmark run: set up, warm, time, verify, (traced) probe the layers.

All sessions are closed-loop: a database session is a caller that waits
for its reply before sending the next statement.  The caller count is
:data:`~.workloads.CALLERS` on the server workloads and 1 in-process.
"""

from __future__ import annotations

import gc
import statistics
import threading
import time
from dataclasses import dataclass

from . import probes
from .calibrate import Sampler
from .client import Client, Tally
from .model import ANALYTIC_CLASSES, matches
from .procs import OUT_DIR, WorkArea, peak_rss_mb
from .spans import SpanLog
from .workloads import WORKLOADS, Setup, Workload, crash, recover

#: Full set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3


@dataclass
class Report:
    workload: str
    seed: int
    attempted: int
    failed: int
    #: ``end_to_end`` metrics of BENCHMARK.json (always measured).
    end_to_end: dict[str, float]
    #: ``per_layer`` metrics (traced runs only; empty otherwise).
    layers: dict[str, float]
    #: Ungated extras for the human-readable report.
    info: dict[str, float]
    #: Sample count behind each end-to-end metric.
    samples: dict[str, int]


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> Report:
    workload = WORKLOADS[name]
    with WorkArea() as work, Sampler() as sampler:
        setup_times = []
        setup = None
        try:
            for _ in range(SETUP_REPEATS):
                if setup is not None:
                    setup.close()
                    gc.collect()
                start = time.perf_counter()
                setup = workload.setup(seed, work, traced)
                setup_times.append((start, time.perf_counter()))
            return _measure(workload, setup, work, sampler, seed, seconds,
                            traced, setup_times)
        finally:
            if setup is not None:
                setup.close()


def _measure(workload: Workload, setup: Setup, work: WorkArea,
             sampler: Sampler, seed: int, seconds: float, traced: bool,
             setup_times: list[tuple[float, float]]) -> Report:
    spans = SpanLog() if traced else None
    clients = [Client(i, caller, workload, spans)
               for i, caller in enumerate(setup.callers)]
    local = setup.server is None
    for client in clients:
        for _ in range(workload.warmup):
            client.warm()
    before = probes.server_counters(setup) if traced and not local else None
    gc.collect()

    started = time.perf_counter()
    deadline = started + seconds
    if len(clients) == 1:
        clients[0].run_until(deadline)
    else:
        threads = [threading.Thread(target=c.run_until, args=(deadline,))
                   for c in clients]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    ended = time.perf_counter()
    sampler.stop()
    for client in clients:
        if client.error is not None:
            raise client.error

    tallies = [c.tally for c in clients]
    # End-to-end times are reported at the reference machine speed (see
    # calibrate.py): every operation's seconds are divided by the speed
    # factor of the half second it ended in.  Raw numbers go to ``info``.
    curve = sampler.speed_curve(started, ended)
    raw = _Summary(tallies, lambda at: 1.0)
    calibrated = _Summary(tallies, curve)
    attempted = raw.count
    failed = sum(t.failed for t in tallies)
    commits = len(raw.groups["update"]) + len(raw.groups["txn"])
    rss = peak_rss_mb() if local else setup.server.peak_rss_mb()
    setup_raw_s = statistics.median(end - start for start, end in setup_times)
    # A local set-up is shorter than the helper's start: the factor of the
    # set-ups is that of everything before the clock started.
    setup_factor = sampler.speed_factor(setup_times[0][0], started)

    layers: dict[str, float] = {}
    if traced:
        counted = max(sum(t.counted for t in tallies), 1)
        layers.update(spans.median_statement_ms())
        layers["bench.traced_stmts_per_s"] = calibrated.rate
        layers["bench.speed_factor"] = sampler.speed_factor(started, ended)
        layers["core.rows_per_s"] = (
            sum(t.rows for t in tallies)
            / max(sum(t.execute_s for t in tallies), 1e-9)
        )
        layers["storage.page_reads_per_stmt"] = (
            sum(t.page_reads for t in tallies) / counted
        )
        layers["storage.page_writes_per_stmt"] = (
            sum(t.page_writes for t in tallies) / counted
        )
        for kind in ANALYTIC_CLASSES:
            if kind in raw.kinds:
                layers[f"analytic.{kind}_ms"] = raw.kind_p50_ms(kind)
        if "txn" in raw.kinds:
            layers["server.txn_ms"] = raw.kind_p50_ms("txn")
        if not local:
            layers.update(probes.server_layers(setup, before, commits))
        layers.update(probes.explain_sample(workload, setup, seed))
        layers.update(probes.analyze_ms(setup))

    verifier = setup.callers[0].session
    if workload.crash:
        crash(setup)
        statements = probes.recoverable_statements(setup.server.data_dir)
        verifier, recovery_s = recover(setup, work)
        layers["durability.recovery_s"] = recovery_s
        layers["durability.recover_stmts_per_s"] = statements / recovery_s
    for op in setup.verify():
        attempted += 1
        failed += not matches(op, verifier.run_one(op.sources[0]).value)

    if traced:
        layers.update(probes.direct_probes(work))
        if workload.name == "oltp_local":
            layers.update(probes.insert_size_slope(seed))
        if not local:
            layers.update(probes.engine_overhead(workload, seed))
        spans.write_chrome(OUT_DIR / f"trace-{workload.name}.json")

    end_to_end = {
        "setup_s": setup_raw_s / setup_factor,
        "stmts_per_s": calibrated.rate,
        **calibrated.latencies_ms(),
        "peak_rss_mb": rss,
    }
    info = {
        "speed_factor": sampler.speed_factor(started, ended),
        "timed_wall_s": ended - started,
        "raw_setup_s": setup_raw_s,
        "raw_stmts_per_s": raw.rate,
        **{f"raw_{name}": value for name, value in raw.latencies_ms().items()},
    }
    for group in ("read", "update"):
        times = raw.groups[group]
        info[f"raw_{group}_p99_ms"] = 1e3 * percentile(times, 0.99)
        info[f"raw_{group}_max_ms"] = 1e3 * max(times)
    info["raw_update_p95_ms"] = 1e3 * percentile(raw.groups["update"], 0.95)
    for kind in sorted(raw.kinds):
        info[f"raw_{kind}_p50_ms"] = raw.kind_p50_ms(kind)
    reads, updates = len(raw.groups["read"]), len(raw.groups["update"])
    samples = {
        "setup_s": len(setup_times), "stmts_per_s": raw.count,
        "query_p50_ms": reads, "query_p95_ms": reads,
        "update_p50_ms": updates, "update_p90_ms": updates,
        "peak_rss_mb": 1,
    }
    return Report(workload.name, seed, attempted, failed, end_to_end, layers,
                  info, samples)


class _Summary:
    """The timed section's operations with every duration divided by
    ``speed(end)``."""

    def __init__(self, tallies: list[Tally], speed):
        self.groups: dict[str, list[float]] = {"read": [], "update": [], "txn": []}
        self.kinds: dict[str, list[float]] = {}
        self.count = 0
        #: Operations per second of time the callers spent waiting for
        #: replies, summed over callers.  Their think time (generating the
        #: next statement, checking the last answer) is the benchmark's
        #: cost, not the system's.
        self.rate = 0.0
        for tally in tallies:
            busy = 0.0
            for kind, group, end, seconds in tally.ops:
                seconds /= speed(end)
                busy += seconds
                self.groups[group].append(seconds)
                self.kinds.setdefault(kind, []).append(seconds)
            self.count += len(tally.ops)
            self.rate += len(tally.ops) / busy

    def latencies_ms(self) -> dict[str, float]:
        reads, updates = self.groups["read"], self.groups["update"]
        return {
            "query_p50_ms": 1e3 * statistics.median(reads),
            "query_p95_ms": 1e3 * percentile(reads, 0.95),
            "update_p50_ms": 1e3 * statistics.median(updates),
            "update_p90_ms": 1e3 * percentile(updates, 0.90),
        }

    def kind_p50_ms(self, kind: str) -> float:
        return 1e3 * statistics.median(self.kinds[kind])
