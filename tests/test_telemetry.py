"""Server-wide telemetry: the :mod:`repro.observe` process registry and
its renderers, the ``metrics`` wire op, the Prometheus exposition endpoint,
the slow-query log, and cross-wire trace stitching.

The registry is process-wide and stays enabled once any server has
started in this process, so every assertion against live counters is
written as a *delta* between two snapshots — never as an absolute.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro import observe
from repro.api import connect
from repro.errors import ConflictError
from repro.observe import (
    ChromeTraceExporter,
    Histogram,
    MetricsRegistry,
    render_prometheus,
    render_top,
)

SCHEMA = """
type city = tuple(<(cname, string), (center, point), (pop, int)>)
create cities : rel(city)
create cities_rep : btree(city, pop, int)
update rep := insert(rep, cities, cities_rep)
update cities := insert(cities, mktuple[<(cname, "aa"), (center, pt(1, 1)), (pop, 100)>])
update cities := insert(cities, mktuple[<(cname, "bb"), (center, pt(2, 2)), (pop, 200000)>])
"""


# ---------------------------------------------------------------------------
# Registry machinery (no server required)
# ---------------------------------------------------------------------------


class TestHistogramWindow:
    def test_empty(self):
        hist = Histogram()
        assert hist.count == 0
        assert hist.as_dict() == {"count": 0, "sum": 0.0}

    def test_basic_stats(self):
        hist = Histogram()
        for v in (1.0, 2.0, 3.0, 4.0):
            hist.record(v)
        d = hist.as_dict()
        assert d["count"] == 4
        assert d["sum"] == 10.0
        assert d["min"] == 1.0 and d["max"] == 4.0
        assert d["mean"] == 2.5
        assert d["p50"] == 2.5

    def test_window_sheds_but_totals_are_exact(self):
        hist = Histogram(limit=8)
        for i in range(100):
            hist.record(float(i))
        # Lifetime count/sum survive the shedding...
        assert hist.count == 100
        assert hist.sum == sum(range(100))
        # ...while the retained window stays bounded and recent.
        assert len(hist.values) <= 8
        assert min(hist.values) >= 90.0
        d = hist.as_dict()
        assert d["count"] == 100
        assert d["p50"] >= 90.0  # percentiles describe recent behavior


class TestMetricsRegistry:
    def test_counters_gauges_histograms(self):
        reg = MetricsRegistry()
        reg.incr("a.hits")
        reg.incr("a.hits", 4)
        reg.gauge("a.active", 3)
        reg.gauge("a.active", 2)
        reg.observe("a.seconds", 0.5)
        snap = reg.snapshot()
        assert snap["counters"]["a.hits"] == 5
        assert snap["gauges"]["a.active"] == 2
        assert snap["histograms"]["a.seconds"]["count"] == 1
        assert snap["histograms"]["a.seconds"]["sum"] == 0.5

    def test_declare_lists_families_at_zero_and_never_overwrites(self):
        reg = MetricsRegistry()
        reg.incr("x.count", 7)
        reg.declare(
            counters=("x.count", "y.count"),
            gauges=("g",),
            histograms=("h.seconds",),
        )
        snap = reg.snapshot()
        assert snap["counters"]["x.count"] == 7  # declare kept the value
        assert snap["counters"]["y.count"] == 0
        assert snap["gauges"]["g"] == 0.0
        assert snap["histograms"]["h.seconds"] == {"count": 0, "sum": 0.0}

    def test_reset(self):
        reg = MetricsRegistry()
        reg.incr("a")
        reg.reset()
        assert reg.snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {},
        }

    def test_snapshot_is_json_able(self):
        reg = MetricsRegistry()
        reg.incr("a", 2)
        reg.observe("b", 1.0)
        json.dumps(reg.snapshot())  # must not raise

    def test_module_guards_are_zero_overhead_when_disabled(self):
        was = observe.REGISTRY_ON
        observe.disable_registry()
        try:
            before = observe.REGISTRY.snapshot()
            observe.count("guarded.counter")
            observe.gauge("guarded.gauge", 1)
            observe.sample("guarded.hist", 1.0)
            assert observe.REGISTRY.snapshot() == before
        finally:
            if was:
                observe.enable_registry()


class TestRenderPrometheus:
    SNAP = {
        "counters": {"mvcc.commits": 12, "wal.bytes": 4096},
        "gauges": {"server.active_sessions": 3},
        "histograms": {
            "wal.fsync_seconds": {
                "count": 9, "sum": 0.18,
                "min": 0.01, "max": 0.04, "mean": 0.02,
                "p50": 0.02, "p95": 0.035, "p99": 0.04,
            },
            "empty.seconds": {"count": 0, "sum": 0.0},
        },
    }

    def test_counters_get_total_suffix_and_type_lines(self):
        text = render_prometheus(self.SNAP)
        assert "# TYPE repro_mvcc_commits_total counter" in text
        assert "repro_mvcc_commits_total 12" in text
        assert "repro_wal_bytes_total 4096" in text

    def test_gauges(self):
        text = render_prometheus(self.SNAP)
        assert "# TYPE repro_server_active_sessions gauge" in text
        assert "repro_server_active_sessions 3" in text

    def test_histograms_render_as_summaries(self):
        text = render_prometheus(self.SNAP)
        assert "# TYPE repro_wal_fsync_seconds summary" in text
        assert 'repro_wal_fsync_seconds{quantile="0.5"} 0.02' in text
        assert 'repro_wal_fsync_seconds{quantile="0.99"} 0.04' in text
        assert "repro_wal_fsync_seconds_count 9" in text
        assert "repro_wal_fsync_seconds_sum 0.18" in text

    def test_empty_histogram_still_lists_count_and_sum(self):
        text = render_prometheus(self.SNAP)
        assert "repro_empty_seconds_count 0" in text
        assert "repro_empty_seconds_sum 0" in text

    def test_dotted_names_are_mangled(self):
        text = render_prometheus({"counters": {"a.b-c.d": 1}})
        assert "repro_a_b_c_d_total 1" in text


class TestRenderTop:
    SNAP = {
        "counters": {
            "server.connections": 4,
            "server.statements": 100,
            "mvcc.commits": 60,
            "mvcc.conflicts": 2,
            "wal.bytes": 10_000,
            "group_commit.batches": 10,
            "group_commit.synced": 40,
        },
        "gauges": {"server.active_sessions": 3, "mvcc.open_transactions": 1},
        "histograms": {
            "wal.fsync_seconds": {
                "count": 5, "sum": 0.05,
                "p50": 0.01, "p95": 0.02, "p99": 0.02,
            },
        },
        "server": {"uptime_seconds": 12.0},
    }

    def test_screen_contents(self):
        screen = render_top(self.SNAP, address="repro://h:1")
        assert "repro top — repro://h:1" in screen
        assert "up 12s" in screen
        assert "commits" in screen and "conflicts" in screen
        assert "mean batch    4.00" in screen
        assert "fsync" in screen and "p95" in screen

    def test_rates_against_previous_snapshot(self):
        previous = {
            "counters": {"server.statements": 80, "wal.bytes": 5_000},
        }
        screen = render_top(self.SNAP, previous, interval=2.0)
        assert "10.0/s" in screen  # (100 - 80) / 2
        assert "2500.0 B/s" in screen

    def test_no_previous_means_zero_rates(self):
        screen = render_top(self.SNAP)
        assert "0.0/s" in screen


# ---------------------------------------------------------------------------
# Live server: wire op, slow-query log, exposition, trace stitching
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def telemetry_handle(tmp_path_factory):
    """One durable server with every telemetry surface armed: the
    metrics endpoint on an ephemeral port, and a log-everything
    slow-query threshold feeding a JSON-lines file."""
    from repro.server import start_server

    root = tmp_path_factory.mktemp("telemetry")
    handle = start_server(
        data_dir=str(root / "data"),
        metrics_port=0,
        slow_query_ms=0.0,
        slow_query_log=str(root / "slow.jsonl"),
    )
    handle.slow_log_path = str(root / "slow.jsonl")
    yield handle
    handle.stop()


def _fetch_exposition(handle) -> tuple[str, str]:
    with urllib.request.urlopen(handle.metrics_url, timeout=10) as response:
        return (
            response.read().decode("utf-8"),
            response.headers.get("Content-Type", ""),
        )


def _parse_exposition(text: str) -> dict[str, float]:
    """``{series-with-labels: value}`` from an exposition page."""
    series = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        series[name] = float(value)
    return series


class TestServerMetricsOp:
    def test_snapshot_shape_and_deltas(self, telemetry_handle):
        db = connect(telemetry_handle.address)
        try:
            before = db.server_metrics()
            db.run(SCHEMA)
            db.query("cities_rep feed count")
            after = db.server_metrics()
        finally:
            db.disconnect()
        for section in ("counters", "gauges", "histograms", "server"):
            assert section in after
        delta = (
            after["counters"]["server.statements"]
            - before["counters"]["server.statements"]
        )
        assert delta == 7  # 6 schema statements + 1 query
        assert (
            after["counters"]["mvcc.commits"]
            > before["counters"]["mvcc.commits"]
        )
        assert (
            after["counters"]["server.queries"]
            - before["counters"]["server.queries"]
        ) == 1
        assert (
            after["histograms"]["server.statement_seconds"]["count"]
            - before["histograms"]["server.statement_seconds"]["count"]
        ) == 7
        assert after["gauges"]["server.uptime_seconds"] > 0
        assert after["server"]["durable"] is True

    def test_status_op_is_an_alias(self, telemetry_handle):
        db = connect(telemetry_handle.address)
        try:
            status = db._client.request("status")
            assert "counters" in status and "server" in status
        finally:
            db.disconnect()

    def test_core_families_are_declared_before_traffic(self, telemetry_handle):
        from repro.server.net import CORE_METRIC_FAMILIES

        db = connect(telemetry_handle.address)
        try:
            snap = db.server_metrics()
        finally:
            db.disconnect()
        for name in CORE_METRIC_FAMILIES["counters"]:
            assert name in snap["counters"]
        for name in CORE_METRIC_FAMILIES["gauges"]:
            assert name in snap["gauges"]
        for name in CORE_METRIC_FAMILIES["histograms"]:
            assert name in snap["histograms"]

    def test_open_transaction_gauge(self, telemetry_handle):
        db = connect(telemetry_handle.address)
        try:
            before = db.server_metrics()["gauges"]["mvcc.open_transactions"]
            db.begin()
            during = db.server_metrics()["gauges"]["mvcc.open_transactions"]
            db.rollback()
            after = db.server_metrics()["gauges"]["mvcc.open_transactions"]
            assert during == before + 1
            assert after == before
        finally:
            db.disconnect()


class TestSlowQueryLog:
    def test_every_statement_logged_at_threshold_zero(self, telemetry_handle):
        db = connect(telemetry_handle.address)
        try:
            before = db.server_metrics()["counters"]["server.slow_queries"]
            db.run_one("query 1 + 1")
            snap = db.server_metrics()
            after = snap["counters"]["server.slow_queries"]
        finally:
            db.disconnect()
        assert after == before + 1
        recent = snap["server"]["slow_queries"]
        assert recent, "metrics op must surface recent slow queries"
        entry = recent[-1]
        assert entry["statement"] == "query 1 + 1"
        assert entry["ms"] >= 0.0
        assert "total" in entry["timings"]
        assert entry["kind"] == "query"

    def test_json_lines_file(self, telemetry_handle):
        db = connect(telemetry_handle.address)
        try:
            db.run_one("query 2 + 2")
        finally:
            db.disconnect()
        with open(telemetry_handle.slow_log_path) as f:
            lines = [json.loads(line) for line in f if line.strip()]
        assert lines
        entry = next(e for e in reversed(lines)
                     if e["statement"] == "query 2 + 2")
        assert set(entry) >= {
            "ts", "session", "ms", "kind", "statement", "timings", "fired",
        }


class TestExposition:
    """Acceptance: the ``--metrics-port`` page shows commit/conflict
    counters and fsync percentiles moving under a concurrent 8-client
    workload."""

    def test_content_type_and_404(self, telemetry_handle):
        _, content_type = _fetch_exposition(telemetry_handle)
        assert content_type.startswith("text/plain")
        assert "version=0.0.4" in content_type
        bogus = telemetry_handle.metrics_url.replace("/metrics", "/nope")
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(bogus, timeout=10)
        assert info.value.code == 404

    def test_counters_move_under_concurrent_workload(self, telemetry_handle):
        text_before, _ = _fetch_exposition(telemetry_handle)
        before = _parse_exposition(text_before)

        def client(i: int) -> None:
            # Concurrent `update rep := insert(...)` statements can lose
            # the first-committer-wins race; the retry DSN turns those
            # losses into client-side retries instead of thread crashes.
            db = connect(telemetry_handle.address + "?retries=8&backoff_ms=20")
            try:
                db.run(
                    f"type t{i} = tuple(<(k, int)>)\n"
                    f"create load{i} : rel(t{i})\n"
                    f"create load{i}_rep : btree(t{i}, k, int)\n"
                    f"update rep := insert(rep, load{i}, load{i}_rep)"
                )
                for k in range(4):
                    db.run_one(
                        f"update load{i} := "
                        f"insert(load{i}, mktuple[<(k, {k})>])"
                    )
            finally:
                db.disconnect()

        threads = [
            threading.Thread(target=client, args=(i,)) for i in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        # One deterministic first-committer-wins loser on top.
        a = connect(telemetry_handle.address)
        b = connect(telemetry_handle.address)
        try:
            a.begin()
            b.begin()
            a.run_one("update load0 := insert(load0, mktuple[<(k, 90)>])")
            b.run_one("update load0 := insert(load0, mktuple[<(k, 91)>])")
            a.commit()
            with pytest.raises(ConflictError):
                b.commit()
        finally:
            a.disconnect()
            b.disconnect()

        text_after, _ = _fetch_exposition(telemetry_handle)
        after = _parse_exposition(text_after)

        # At least the 8 clients' create + 4 inserts each, plus the
        # conflict winner (type statements may or may not commit).
        commits = (
            after["repro_mvcc_commits_total"]
            - before["repro_mvcc_commits_total"]
        )
        assert commits >= 8 * 5 + 1
        assert (
            after["repro_mvcc_conflicts_total"]
            - before["repro_mvcc_conflicts_total"]
        ) >= 1
        # Durable server: the workload fsynced, and the latency summary
        # carries live percentiles.
        assert (
            after["repro_wal_fsync_seconds_count"]
            - before["repro_wal_fsync_seconds_count"]
        ) > 0
        assert after['repro_wal_fsync_seconds{quantile="0.5"}'] >= 0.0
        assert after['repro_wal_fsync_seconds{quantile="0.99"}'] >= (
            after['repro_wal_fsync_seconds{quantile="0.5"}']
        )
        assert (
            after["repro_server_statement_seconds_count"]
            - before["repro_server_statement_seconds_count"]
        ) >= 8 * 8
        assert after["repro_wal_bytes_total"] > before["repro_wal_bytes_total"]
        assert after["repro_group_commit_batches_total"] >= (
            before["repro_group_commit_batches_total"]
        )


class TestTraceStitching:
    """Acceptance: a traced client statement against ``repro://``
    produces one Chrome-trace JSON whose server-side phase spans share
    the client's trace ID and nest under the client statement span."""

    @pytest.fixture()
    def traced(self, telemetry_handle):
        db = connect(telemetry_handle.address)
        # Set up the schema *before* subscribing so the exporter holds
        # exactly the statements each test issues.
        if "cities" not in db.dump():
            db.run(SCHEMA)
        exporter = ChromeTraceExporter()
        db.subscribe(exporter)
        yield db, exporter
        db.disconnect()

    def test_server_spans_nest_under_client_statement(self, traced):
        db, exporter = traced
        db.run_one("query cities_rep feed count")
        doc = json.loads(exporter.to_json())
        events = doc["traceEvents"]

        # One self-contained Chrome-trace document.
        assert doc["displayTimeUnit"] == "ms"
        statements = [
            e for e in events
            if e["name"] == "statement"
            and e.get("args", {}).get("op") == "run_one"
        ]
        begin = next(e for e in statements if e["ph"] == "B")
        end = next(e for e in statements if e["ph"] == "E")
        assert begin["args"]["trace_id"] == db.trace_id

        remote = [
            e for e in events if e.get("args", {}).get("remote") is True
        ]
        phases = {e["name"] for e in remote}
        assert "phase.execute" in phases
        assert any(name.startswith("phase.") for name in phases)
        for e in remote:
            # Same trace ID as the client statement span...
            assert e["args"]["trace_id"] == db.trace_id
            # ...and strictly inside it on the stitched timeline.
            assert begin["ts"] <= e["ts"] <= end["ts"]

    def test_untraced_sessions_pay_nothing(self, telemetry_handle):
        db = connect(telemetry_handle.address)
        try:
            assert not db.tracer.enabled
            result = db.run_one("query 3 * 3")
            assert result.value == 9
        finally:
            db.disconnect()

    def test_commit_is_traced_too(self, traced):
        db, exporter = traced
        db.begin()
        db.run_one(
            'update cities := insert(cities, '
            'mktuple[<(cname, "zz"), (center, pt(9, 9)), (pop, 5)>])'
        )
        db.commit()
        commits = [
            e for e in exporter.events
            if e["name"] == "statement"
            and e.get("args", {}).get("op") == "commit"
        ]
        assert commits, "commit must produce a client statement span"


class TestTopCommand:
    def test_top_once_prints_one_screen(self, telemetry_handle, capsys):
        from repro.__main__ import main

        code = main(["top", telemetry_handle.address, "--once"])
        out = capsys.readouterr().out
        assert code == 0
        assert "repro top" in out
        assert "commits" in out and "wal" in out
        assert "\x1b[2J" not in out  # --once never clears the screen

    def test_top_rejects_bad_usage(self, capsys):
        from repro.__main__ import main

        assert main(["top"]) == 2
        assert main(["top", "repro://h:1", "--interval", "x"]) == 2

    def test_top_unreachable_server_fails_cleanly(self, capsys):
        from repro.__main__ import main

        assert main(["top", "repro://127.0.0.1:1", "--once"]) == 2
