"""The four workloads: what each sets up, what its callers run, how it ends.

Sizes are fixed here, chosen on the seed commit for a 2-core box so that a
set-up stays a few seconds (it is repeated for the ``setup_s`` median) and
one run yields thousands of statements (hundreds on ``analytic_local``).
The timed section is bounded by ``--seconds``, not by a statement count.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterator, Optional

from repro.api import connect
from repro.core.algebra import TupleValue
from repro.geometry import Point, Polygon
from repro.optimizer.standard_rules import cost_based_optimizer
from repro.server import MVCCEngine
from repro.server.client import SocketClient
from repro.server.wire import decode_result

from .model import (
    ANALYTIC_CLASSES,
    ANALYTIC_SCHEMA,
    ITEM_TYPE,
    AnalyticModel,
    KeyedModel,
    Op,
    analytic_ops,
    insert_stmt,
    keyed_ops,
    keyed_schema,
)
from .procs import ServerProcess, WorkArea

#: One process generates the load; more callers than cores would measure
#: the generator's own GIL, not the server.
CALLERS = min(os.cpu_count() or 1, 2)

OLTP_ROWS = 20_000
ANALYTIC_SIZES = {
    "items": 40_000, "orders": 15_000, "customers": 150_000,
    "cities": 2_500, "states": 100,
}
SHARED_ROWS = 1_000
PRIVATE_ROWS = 300
#: Rows per atomic load program: one request line must stay under the
#: server's 64 KiB line limit.
LOAD_BATCH = 250
#: Even and beyond every preload: a key no generator produces.
UNACKED_KEY = 2_000_000_000

OLTP_MIX = (("point", 0.35), ("range20", 0.35), ("insert", 0.15),
            ("delete", 0.15))
READ_MOSTLY_MIX = (("point", 0.45), ("range20", 0.35), ("range200", 0.10),
                   ("insert", 0.10))
DURABLE_WRITE_MIX = (("insert", 0.35), ("delete", 0.35), ("txn", 0.10),
                     ("point_own", 0.20))


@dataclass
class Caller:
    """One closed-loop caller: a session and its endless statement stream."""

    session: object
    ops: Iterator[Op]


@dataclass
class Setup:
    callers: list[Caller]
    #: Whole-relation checks to run once the timed section is over.
    verify: Callable[[], list[Op]]
    #: Read statements for the ``explain(analyze=True)`` sample.
    explain_ops: Callable[[random.Random], Iterator[Op]]
    server: Optional[ServerProcess] = None
    closers: list[Callable[[], None]] = field(default_factory=list)

    def close(self) -> None:
        """Undo the set-up, newest resource first."""
        while self.closers:
            self.closers.pop()()


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int, WorkArea, bool], Setup]
    #: Untimed operations per caller before the clock starts.
    warmup: int = 200
    #: A run stops on a multiple of this many operations per caller.
    cycle: int = 1
    #: Leading timed operations the exactly-repeating counts are taken over.
    count_prefix: int = 2000
    #: Statements in the ``explain(analyze=True)`` sample.
    explain_sample: int = 100
    #: SIGKILL the server after the run and check what recovery brings back.
    crash: bool = False


def rng_for(seed: int, label: str) -> random.Random:
    # A string seed is hashed with SHA-512, not with hash(): the stream
    # does not depend on PYTHONHASHSEED.
    return random.Random(f"{seed}/{label}")


# ---------------------------------------------------------------------------
# Sessions over the wire with tracing on
# ---------------------------------------------------------------------------


class TracedWire:
    """The traced run's network session: the same requests a
    ``NetworkSession`` sends with tracing on, but keeping what the server
    says about each one (``server_elapsed``, its spans) instead of
    replaying it into an event bus."""

    def __init__(self, server: ServerProcess):
        self._client = SocketClient(server.host, server.port)
        self._client.request("set_tracing", enabled=True)
        self.server_elapsed = 0.0
        self.statement_span = 0.0
        self.wal_span = 0.0

    def take(self) -> tuple[float, float, float]:
        """Server seconds since the last call: (inside the request
        handler, inside the engine's statement spans, inside WAL spans)."""
        taken = (self.server_elapsed, self.statement_span, self.wal_span)
        self.server_elapsed = self.statement_span = self.wal_span = 0.0
        return taken

    def _absorb(self, frame) -> None:
        if not isinstance(frame, dict):
            return
        self.server_elapsed += frame.pop("server_elapsed", 0.0)
        for span in frame.pop("server_spans", ()):
            if span["kind"] != "end":
                continue
            if span["name"] == "statement":
                self.statement_span += span["value"]
            elif span["name"] in ("wal.append", "wal.commit"):
                self.wal_span += span["value"]

    def run_one(self, source: str):
        frame = self._client.request("run_one", source=source, trace="sosbench")
        self._absorb(frame)
        return decode_result(frame)

    def begin(self) -> None:
        self._client.request("begin")

    def commit(self) -> None:
        self._absorb(self._client.request("commit", trace="sosbench"))

    def disconnect(self) -> None:
        self._client.close()


# ---------------------------------------------------------------------------
# Loading
# ---------------------------------------------------------------------------


def load_local(session, rel: str, rows: list[tuple]) -> None:
    """Fill a representation directly: in-process set-up is not what the
    timed section measures, and the structure's own ``insert`` is public."""
    schema = session.database.aliases["item"]
    rep = session.database.objects[f"{rel}_rep"].value
    for row in rows:
        rep.insert(TupleValue(schema, row))


# ---------------------------------------------------------------------------
# oltp_local
# ---------------------------------------------------------------------------


def setup_oltp_local(seed: int, work: WorkArea, traced: bool) -> Setup:
    session = connect()
    session.run("\n".join([ITEM_TYPE, *keyed_schema("items")]))
    items = KeyedModel("items")
    load_local(session, "items", items.preload(OLTP_ROWS, rng_for(seed, "data")))
    ops = keyed_ops(rng_for(seed, "ops/0"), OLTP_MIX, items, items, [])
    return Setup(
        [Caller(session, ops)],
        verify=lambda: [items.feed_op()],
        explain_ops=lambda rng: keyed_ops(rng, OLTP_MIX[:2], items, items, []),
    )


# ---------------------------------------------------------------------------
# analytic_local
# ---------------------------------------------------------------------------


def setup_analytic_local(seed: int, work: WorkArea, traced: bool) -> Setup:
    session = connect(optimizer=cost_based_optimizer())
    session.run("\n".join(ANALYTIC_SCHEMA))
    model = AnalyticModel(rng_for(seed, "data"), ANALYTIC_SIZES)
    db = session.database
    types, objects = db.aliases, db.objects

    def fill(name: str, type_name: str, rows, method: str = "insert") -> None:
        put = getattr(objects[name].value, method)
        schema = types[type_name]
        for row in rows:
            put(TupleValue(schema, tuple(row)))

    fill("items_rep", "item", model.items)
    fill("orders_rep", "order", model.orders, "append")
    fill("customers_rep", "customer", model.customers)
    fill("states_rep", "state", (
        (name, Polygon.rectangle(x0, y0, x1, y1))
        for name, x0, y0, x1, y1 in model.states()
    ))
    fill("cities_rep", "city", (
        (name, Point(x, y), pop) for name, x, y, pop in model.cities
    ))
    session.analyze()
    return Setup(
        [Caller(session, analytic_ops(rng_for(seed, "ops/0"), model))],
        verify=lambda: [model.feed_op()],
        explain_ops=lambda rng: (
            model.op(kind, rng) for kind in ANALYTIC_CLASSES
            if kind != "bulk_update"  # explain takes queries only
        ),
    )


# ---------------------------------------------------------------------------
# server_read_mostly / server_durable_write
# ---------------------------------------------------------------------------


#: (statement mix, shared rows, private rows per caller)
SERVER_SHAPES = {
    "server_read_mostly": (READ_MOSTLY_MIX, SHARED_ROWS, 0),
    "server_durable_write": (DURABLE_WRITE_MIX, 0, PRIVATE_ROWS),
}


class ServerData:
    """One private relation per caller and (read-mostly) one shared
    relation nobody writes: no two callers ever touch the same object, so
    no commit can conflict."""

    def __init__(self, name: str, seed: int):
        self.mix, self.shared_rows, self.private_rows = SERVER_SHAPES[name]
        self.seed = seed
        self.shared = KeyedModel("shared")
        self.privates = [KeyedModel(f"r{c}") for c in range(CALLERS)]
        self.models = [self.shared, *self.privates]

    def populate(self, admin) -> None:
        """Schema and preload through ``admin.run`` — statements are the
        only way in over the wire: atomic programs of single-row inserts."""
        data = rng_for(self.seed, "data")
        admin.run("\n".join(
            [ITEM_TYPE]
            + [line for m in self.models for line in keyed_schema(m.rel)]
        ))
        loads = [(self.shared, self.shared_rows)]
        loads += [(private, self.private_rows) for private in self.privates]
        for model, count in loads:
            rows = model.preload(count, data)
            for start in range(0, len(rows), LOAD_BATCH):
                admin.run(
                    "\n".join(insert_stmt(model.rel, row)
                              for row in rows[start:start + LOAD_BATCH]),
                    atomic=True,
                )

    def _reads(self, c: int) -> KeyedModel:
        return self.shared if self.shared_rows else self.privates[c]

    def ops(self, c: int) -> Iterator[Op]:
        private = self.privates[c]
        return keyed_ops(rng_for(self.seed, f"ops/{c}"), self.mix,
                         self._reads(c), private, list(private.keys))

    def explain_ops(self, rng: random.Random) -> Iterator[Op]:
        reads = [(kind, share) for kind, share in self.mix
                 if kind.startswith(("point", "range"))]
        return keyed_ops(rng, reads, self._reads(0), self.privates[0],
                         list(self.privates[0].keys))


def _setup_server(name: str, seed: int, work: WorkArea, traced: bool) -> Setup:
    server = work.server()
    closers: list[Callable[[], None]] = [server.stop]
    try:
        data = ServerData(name, seed)
        admin = connect(server.dsn)
        try:
            data.populate(admin)
        finally:
            admin.disconnect()
        callers = []
        for c in range(CALLERS):
            session = TracedWire(server) if traced else connect(server.dsn)
            closers.append(session.disconnect)
            callers.append(Caller(session, data.ops(c)))
    except BaseException:
        for close in reversed(closers):
            close()
        raise
    return Setup(
        callers,
        verify=lambda: [m.feed_op() for m in data.models],
        explain_ops=data.explain_ops,
        server=server,
        closers=closers,
    )


def engine_caller(name: str, seed: int) -> Caller:
    """A server workload's first caller on an in-process, non-durable
    ``MVCCEngine``: the same statements with no socket in between."""
    engine = MVCCEngine()
    data = ServerData(name, seed)
    data.populate(engine.session())
    return Caller(engine.session(), data.ops(0))


def crash(setup: Setup) -> None:
    """SIGKILL the server with one transaction open and unacknowledged.

    SIGKILL keeps the operating system's page cache, so what recovery is
    checked against afterwards is the engine's ack-after-flush ordering,
    not the device.
    """
    hanging = connect(setup.server.dsn)
    try:
        hanging.begin()
        for k in (UNACKED_KEY, UNACKED_KEY + 2):
            hanging.run_one(insert_stmt("r0", (k, "unacknowledged", 0)))
        for caller in setup.callers:
            caller.session.disconnect()
        setup.server.kill()
    finally:
        hanging.disconnect()


def recover(setup: Setup, work: WorkArea) -> tuple[object, float]:
    """Restart on the killed server's directory; seconds until the first
    query answers, and the session that asked it."""
    start = time.perf_counter()
    setup.server = work.server(data_dir=setup.server.data_dir)
    setup.closers.append(setup.server.stop)
    session = connect(setup.server.dsn)
    setup.closers.append(session.disconnect)
    session.run_one("query r0_rep feed count")
    return session, time.perf_counter() - start


WORKLOADS = {
    w.name: w for w in (
        Workload("oltp_local", setup_oltp_local),
        Workload("analytic_local", setup_analytic_local,
                 warmup=2 * len(ANALYTIC_CLASSES), cycle=len(ANALYTIC_CLASSES),
                 count_prefix=len(ANALYTIC_CLASSES), explain_sample=3),
        Workload("server_read_mostly",
                 partial(_setup_server, "server_read_mostly")),
        Workload("server_durable_write",
                 partial(_setup_server, "server_durable_write"), crash=True),
    )
}
