"""Layer probes of the traced run: everything that is not a statement span.

Each function returns ``{metric name: value}`` for the ``per_layer`` list
of ``BENCHMARK.json``.  They run outside the timed section, call only
public functions of the layer they measure, and are sized to take about a
second each.
"""

from __future__ import annotations

import gc
import itertools
import json
import random
import statistics
import time
from pathlib import Path

from repro.api import connect
from repro.durability.manager import decode_checkpoint
from repro.durability.wal import (
    STMT,
    WalRecord,
    WriteAheadLog,
    committed_statements,
    scan,
)
from repro.geometry import Point, Rect
from repro.lang.parser import split_statements
from repro.server.wire import decode_result, encode_result
from repro.storage.btree import BTree
from repro.storage.lsdtree import LSDTree

from .client import Client
from .model import ITEM_TYPE, KeyedModel, insert_stmt, keyed_schema
from .procs import WorkArea
from .spans import SpanLog
from .workloads import (
    OLTP_ROWS,
    Setup,
    Workload,
    engine_caller,
    load_local,
    rng_for,
)

ENGINE_PROBE_OPS = 300


def _median_us(times: list[float]) -> float:
    return 1e6 * statistics.median(times)


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


# ---------------------------------------------------------------------------
# Direct probes: storage, WAL, wire
# ---------------------------------------------------------------------------


def direct_probes(work: WorkArea) -> dict[str, float]:
    """Micro-probes of single layers.  The collector is off meanwhile: a
    full collection over the *workload's* heap landing in a probe says
    nothing about the layer probed."""
    gc.collect()
    gc.disable()
    try:
        return {**_storage_probes(), **_wal_probes(work), **_wire_probes()}
    finally:
        gc.enable()


def _storage_probes() -> dict[str, float]:
    rng = random.Random(0)
    keys = list(range(20_000))
    rng.shuffle(keys)
    tree = BTree(key=lambda row: row[0])
    insert_s = _timed(lambda: [tree.insert((k, "x")) for k in keys])
    point_s = _timed(
        lambda: [list(tree.exact_search(k)) for k in keys[:5_000]]
    )
    rows = 0

    def ranges() -> None:
        nonlocal rows
        for lo in keys[:200]:
            rows += sum(1 for _ in tree.range_search(lo, lo + 999))

    range_s = _timed(ranges)
    lsd = LSDTree(key=lambda row: row[0])
    for i in range(2_500):
        x, y = 20.0 * (i % 50), 20.0 * (i // 50)
        lsd.insert((Rect(x, y, x + 20.0, y + 20.0), i))
    points = [Point(rng.uniform(0, 1000), rng.uniform(0, 1000))
              for _ in range(2_000)]
    search_s = _timed(lambda: [list(lsd.point_search(p)) for p in points])
    return {
        "storage.btree_insert_us": 1e6 * insert_s / len(keys),
        "storage.btree_point_us": 1e6 * point_s / 5_000,
        "storage.btree_range_rows_per_s": rows / range_s,
        "storage.lsdtree_search_us": 1e6 * search_s / len(points),
    }


def _wal_probes(work: WorkArea) -> dict[str, float]:
    """Append and fsync on a scratch file: the sandbox's floor for the log
    device (reads come from the page cache and a flush may be cheap here —
    this is not a disk's number)."""
    log = WriteAheadLog(str(work.subdir("walprobe") / "probe.log"))
    try:
        text = insert_stmt("r0", (123456789, "w123456789", 3))
        appends = [
            _timed(lambda: log.append(WalRecord(STMT, seq, text)))
            for seq in range(2_000)
        ]
        syncs = []
        for seq in range(2_000, 2_050):
            log.append(WalRecord(STMT, seq, text))
            syncs.append(_timed(log.sync))
    finally:
        log.close()
    return {
        "durability.wal_append_us": _median_us(appends),
        "durability.fsync_floor_ms": 1e3 * statistics.median(syncs),
    }


def _wire_probes() -> dict[str, float]:
    """Encode and decode of one 200-row result, JSON text included."""
    session = connect()
    session.run("\n".join([ITEM_TYPE, *keyed_schema("items")]))
    load_local(session, "items", KeyedModel("items").preload(400, random.Random(0)))
    result = session.run_one("query items select[k >= 0 and k <= 398]")
    if len(result.value) != 200:
        raise RuntimeError("wire probe expected a 200-row result")
    text = json.dumps(encode_result(result))
    encode = [_timed(lambda: json.dumps(encode_result(result)))
              for _ in range(50)]
    decode = [_timed(lambda: decode_result(json.loads(text)))
              for _ in range(50)]
    return {
        "server.wire_encode_us": _median_us(encode),
        "server.wire_decode_us": _median_us(decode),
    }


# ---------------------------------------------------------------------------
# Optimizer and statistics: a fixed explain(analyze=True) sample
# ---------------------------------------------------------------------------


def explain_sample(workload: Workload, setup: Setup, seed: int) -> dict[str, float]:
    """``explain(analyze=True)`` over a fixed, seed-determined sample of
    read statements.  The counts depend on the seed and the code alone, so
    two runs of one commit agree exactly."""
    if setup.server is None:
        session = setup.callers[0].session
    else:
        session = connect(setup.server.dsn)
        setup.closers.append(session.disconnect)
    ops = itertools.islice(
        setup.explain_ops(rng_for(seed, "explain")), workload.explain_sample
    )
    fired = attempts = hits = misses = examined = returned = n = 0
    q_errors: list[float] = []
    for op in ops:
        report = session.explain(op.sources[0][len("query "):], analyze=True)
        n += 1
        trace = report["rule_trace"]
        fired += len(trace["fired"])
        attempts += sum(sum(o.values()) for o in trace["attempts"].values())
        hits += report["cost_counters"].get("cost.stats_hit", 0)
        misses += report["cost_counters"].get("cost.stats_miss", 0)
        q_errors += [c["q_error"] for c in report["cardinality"].values()]
        operators = report["metrics"]["operators"].values()
        examined += sum(o["out"] for o in operators if o["in"] == 0)
        value = report["value"]
        returned += len(value) if isinstance(value, list) else int(value)
    return {
        "optimizer.rules_fired": fired / n,
        "optimizer.rule_attempts": attempts / n,
        "optimizer.fire_ratio": fired / max(attempts, 1),
        "optimizer.qerror_p50": statistics.median(q_errors) if q_errors else 0.0,
        "stats.hit_ratio": hits / max(hits + misses, 1),
        "storage.rows_examined_per_row": examined / max(returned, 1),
    }


def analyze_ms(setup: Setup) -> dict[str, float]:
    """One ``analyze`` statement over everything the workload holds."""
    session = setup.callers[0].session
    return {
        "stats.analyze_ms": 1e3 * _timed(lambda: session.run_one("analyze"))
    }


# ---------------------------------------------------------------------------
# In-process counts and slopes
# ---------------------------------------------------------------------------


def insert_size_slope(seed: int) -> dict[str, float]:
    """Median single-row insert at the workload's size over the same at a
    tenth of it: 1.0 if a statement's cost did not depend on how much data
    the relation it touches already holds."""
    medians = []
    for rows in (OLTP_ROWS // 10, OLTP_ROWS):
        session = connect()
        session.run("\n".join([ITEM_TYPE, *keyed_schema("items")]))
        model = KeyedModel("items")
        load_local(session, "items", model.preload(rows, rng_for(seed, "data")))
        statements = [
            insert_stmt("items", (2 * i + 1, "slope", 0)) for i in range(40)
        ]
        times = [_timed(lambda: session.run_one(s)) for s in statements]
        medians.append(statistics.median(times[10:]))
    return {"system.insert_size_slope": medians[1] / medians[0]}


# ---------------------------------------------------------------------------
# Server: registry deltas, round-trip floor, checkpoint, in-process engine
# ---------------------------------------------------------------------------


def server_counters(setup: Setup) -> dict:
    session = connect(setup.server.dsn)
    try:
        return session.server_metrics()
    finally:
        session.disconnect()


def server_layers(setup: Setup, before: dict, commits: int) -> dict[str, float]:
    """The server's own registry over the timed section.  ``commits`` is
    the number of mutating operations the callers had acknowledged (the
    registry's ``mvcc.commits`` also counts read-only statements)."""
    session = connect(setup.server.dsn)
    try:
        after = session.server_metrics()
        pings = [_timed(session.ping) for _ in range(300)]
        checkpoint_s = _timed(session.checkpoint)
    finally:
        session.disconnect()

    def delta(name: str) -> float:
        return after["counters"].get(name, 0) - before["counters"].get(name, 0)

    def p50_ms(name: str) -> float:
        return 1e3 * after["histograms"].get(name, {}).get("p50", 0.0)

    commits = max(commits, 1)
    return {
        "server.rtt_floor_ms": 1e3 * statistics.median(pings),
        "server.statement_ms": p50_ms("server.statement_seconds"),
        "server.commit_ms": p50_ms("mvcc.commit_seconds"),
        "server.privatizations_per_commit": delta("mvcc.privatizations") / commits,
        "server.group_commit_batch": (
            delta("group_commit.synced") / max(delta("group_commit.batches"), 1)
        ),
        "server.conflicts": delta("mvcc.conflicts"),
        "durability.fsyncs_per_commit": delta("wal.fsyncs") / commits,
        "durability.fsync_p50_ms": p50_ms("wal.fsync_seconds"),
        "durability.wal_bytes_per_commit": delta("wal.bytes") / commits,
        "durability.checkpoint_ms": 1e3 * checkpoint_s,
    }


def engine_overhead(workload: Workload, seed: int) -> dict[str, float]:
    """The workload's statements through an in-process ``MVCCEngine``
    session: no socket, no event loop, no thread hop, no fsync.  What
    remains above ``timings["total"]`` is the engine lock, the workspace
    install/extract and the publish."""
    spans = SpanLog()
    client = Client(0, engine_caller(workload.name, seed), workload, spans)
    for _ in range(workload.warmup):
        client.warm()
    for _ in range(ENGINE_PROBE_OPS):
        client.step()
    if client.tally.failed:
        raise RuntimeError("the in-process engine probe got a wrong result")
    medians = spans.median_statement_ms()
    return {
        "server.engine_ms": medians["system.stmt_wall_ms"],
        "server.mvcc_overhead_ms": medians["system.overhead_ms"],
    }


def recoverable_statements(data_dir: Path) -> int:
    """Statements recovery has to run: the newest checkpoint's dump plus
    the committed suffix of its log."""
    def newest(pattern: str):
        paths = sorted(data_dir.glob(pattern),
                       key=lambda p: int(p.stem.split("-")[1]))
        return paths[-1] if paths else None

    total = 0
    checkpoint = newest("checkpoint-*.sos")
    if checkpoint is not None:
        total += len(split_statements(decode_checkpoint(checkpoint.read_text())))
    log = newest("wal-*.log")
    if log is not None:
        total += len(committed_statements(scan(str(log))[0]))
    return total
