"""The event bus and metric machinery of :mod:`repro.observe`."""

from __future__ import annotations

import pytest

import gc
import json
import threading

from repro import observe
from repro.observe import (
    ChromeTraceExporter,
    Event,
    ExecutionMetrics,
    Histogram,
    RuleTrace,
    SpanRecorder,
    Tracer,
)


class TestTracer:
    def test_disabled_bus_emits_nothing(self):
        tracer = Tracer()
        assert not tracer.enabled
        tracer.emit("x")  # no subscribers: a no-op, not an error
        with tracer.span("y"):
            pass

    def test_events_reach_subscribers(self):
        tracer = Tracer()
        seen: list[Event] = []
        tracer.subscribe(seen.append)
        assert tracer.enabled
        tracer.emit("tick", value=3.0, extra="payload")
        assert [e.name for e in seen] == ["tick"]
        assert seen[0].kind == "counter"
        assert seen[0].value == 3.0
        assert seen[0].data == {"extra": "payload"}

    def test_unsubscribe(self):
        tracer = Tracer()
        seen = []
        tracer.subscribe(seen.append)
        tracer.unsubscribe(seen.append)
        tracer.emit("tick")
        assert seen == []
        assert not tracer.enabled

    def test_span_emits_begin_end_with_duration(self):
        tracer = Tracer()
        seen = []
        tracer.subscribe(seen.append)
        with tracer.span("work", tag=1):
            tracer.emit("inner")
        kinds = [(e.name, e.kind) for e in seen]
        assert kinds == [("work", "begin"), ("inner", "counter"), ("work", "end")]
        assert seen[2].value >= 0.0
        assert seen[2].data == {"tag": 1}

    def test_nested_spans_track_depth(self):
        tracer = Tracer()
        seen = []
        tracer.subscribe(seen.append)
        with tracer.span("outer"):
            with tracer.span("inner"):
                tracer.emit("leaf")
        by_name = {e.name: e.depth for e in seen if e.kind != "end"}
        assert by_name == {"outer": 0, "inner": 1, "leaf": 2}

    def test_subscriber_exception_does_not_propagate(self):
        tracer = Tracer()
        seen = []

        def broken(event):
            raise RuntimeError("listener bug")

        tracer.subscribe(broken)
        tracer.subscribe(seen.append)
        with tracer.span("work"):
            tracer.emit("inner")
        # All events still reached the healthy subscriber.
        assert [e.name for e in seen] == ["work", "inner", "work"]
        assert tracer.subscriber_errors == 3

    def test_subscriber_exception_does_not_kill_execution(self, loaded_system):
        loaded_system.tracer.subscribe(
            lambda e: (_ for _ in ()).throw(RuntimeError("boom"))
        )
        result = loaded_system.query("cities_rep feed count")
        assert result.value == 40
        assert loaded_system.tracer.subscriber_errors > 0

    def test_span_depth_restored_across_exceptions(self):
        tracer = Tracer()
        seen = []
        tracer.subscribe(seen.append)
        with pytest.raises(ValueError):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    raise ValueError()
        # Both spans closed (depth unwound), and a fresh span starts at 0.
        assert [(e.name, e.kind) for e in seen] == [
            ("outer", "begin"),
            ("inner", "begin"),
            ("inner", "end"),
            ("outer", "end"),
        ]
        tracer.emit("after")
        assert seen[-1].depth == 0

    def test_unsubscribe_during_emit(self):
        tracer = Tracer()
        seen = []

        def one_shot(event):
            seen.append(event.name)
            tracer.unsubscribe(one_shot)

        tracer.subscribe(one_shot)
        tracer.subscribe(lambda e: seen.append(f"late:{e.name}"))
        tracer.emit("first")  # one_shot removes itself mid-delivery...
        tracer.emit("second")
        # ...yet still received 'first', the later subscriber got both,
        # and nothing was miscounted as an error.
        assert seen == ["first", "late:first", "late:second"]
        assert tracer.subscriber_errors == 0

    def test_unsubscribe_unknown_fn_is_a_noop(self):
        tracer = Tracer()
        tracer.unsubscribe(lambda e: None)  # never subscribed: no error

    def test_deliver_dispatches_prebuilt_events(self):
        tracer = Tracer()
        seen = []
        tracer.subscribe(seen.append)
        event = Event("remote", "begin", depth=3, ts=123.0)
        tracer.deliver(event)
        assert seen == [event]
        assert seen[0].depth == 3 and seen[0].ts == 123.0

    def test_deliver_counts_subscriber_errors(self):
        tracer = Tracer()
        tracer.subscribe(
            lambda e: (_ for _ in ()).throw(RuntimeError("boom"))
        )
        tracer.deliver(Event("x"))
        assert tracer.subscriber_errors == 1


class TestRemoteReplay:
    """The pieces behind cross-wire trace stitching: server-side span
    capture and explicit-timestamp replay (see docs/OBSERVABILITY.md)."""

    def test_span_recorder_captures_json_able_frames(self):
        tracer = Tracer()
        recorder = SpanRecorder()
        tracer.subscribe(recorder)
        with tracer.span("work", tag=1):
            tracer.emit("inner", value=2.0)
        frames = recorder.events
        assert [(f["name"], f["kind"]) for f in frames] == [
            ("work", "begin"), ("inner", "counter"), ("work", "end"),
        ]
        # Relative, monotone timestamps inside the recorder's window.
        ts = [f["t"] for f in frames]
        assert ts == sorted(ts) and ts[0] >= 0.0
        assert recorder.elapsed() >= ts[-1]
        assert frames[1]["depth"] == 1
        json.dumps(frames)  # wire-ready

    def test_exporter_honors_explicit_event_ts(self):
        exporter = ChromeTraceExporter()
        origin = exporter._origin
        exporter(Event("remote", "begin", ts=origin + 0.5))
        exporter(Event("remote", "end", value=0.25, ts=origin + 0.75))
        assert exporter.events[0]["ts"] == pytest.approx(0.5e6)
        assert exporter.events[1]["ts"] == pytest.approx(0.75e6)
        assert exporter.events[1]["args"]["duration_ms"] == 250.0


class TestCollecting:
    def test_disabled_by_default(self):
        assert observe.ENABLED is False
        assert observe.active() is None
        observe.incr("x")  # disarmed: silently dropped

    def test_collecting_arms_and_restores(self):
        with observe.collecting() as metrics:
            assert observe.ENABLED is True
            assert observe.active() is metrics
            observe.incr("x", 2)
        assert observe.ENABLED is False
        assert observe.active() is None
        assert metrics.counters == {"x": 2}

    def test_nested_collection_keeps_sinks_separate(self):
        with observe.collecting() as outer:
            observe.incr("a")
            with observe.collecting() as inner:
                observe.incr("b")
            assert observe.active() is outer
            observe.incr("a")
        assert outer.counters == {"a": 2}
        assert inner.counters == {"b": 1}

    def test_restores_on_exception(self):
        with pytest.raises(ValueError):
            with observe.collecting():
                raise ValueError()
        assert observe.ENABLED is False
        assert observe.active() is None

    def test_out_of_order_exit_does_not_clobber_newer_scope(self):
        # Generators can suspend a collecting scope and finalize it after a
        # newer scope was armed; the stale exit must leave the newer scope
        # active.
        def generator_scope():
            with observe.collecting() as inner:
                yield inner

        gen = generator_scope()
        stale = next(gen)
        with observe.collecting() as fresh:
            gen.close()  # exits the *older* scope while 'fresh' is armed
            assert observe.active() is fresh
            assert observe.ENABLED is True
            observe.incr("x")
        assert fresh.counters == {"x": 1}
        assert stale.counters == {}
        assert observe.ENABLED is False
        assert observe.active() is None

    def test_count_reaches_the_sink_and_the_registry(self):
        was = observe.REGISTRY_ON
        observe.enable_registry()
        try:
            before = observe.REGISTRY.snapshot()["counters"].get("wal.appends", 0)
            with observe.collecting() as metrics:
                observe.count("wal.appends", 2)
            after = observe.REGISTRY.snapshot()["counters"]["wal.appends"]
        finally:
            if not was:
                observe.disable_registry()
        assert metrics.counters == {"wal.appends": 2}
        assert after - before == 2

    def test_enabling_installs_exactly_one_gc_callback(self):
        was = observe.REGISTRY_ON
        try:
            observe.enable_registry()
            observe.enable_registry()
            assert gc.callbacks.count(observe._gc_pause) == 1
            observe.disable_registry()
            assert observe._gc_pause not in gc.callbacks
        finally:
            if was:
                observe.enable_registry()

    def test_forced_collection_records_one_pause_sample(self):
        was = observe.REGISTRY_ON
        observe.enable_registry()
        try:
            def counts():
                histograms = observe.REGISTRY.snapshot()["histograms"]
                return [histograms[name]["count"] for name in observe.GC_METRIC_FAMILIES["histograms"]]

            before = counts()
            gc.disable()  # no allocation-triggered collection in between
            try:
                gc.collect()
                after = counts()
                # A collection inside a registry update on this thread
                # must not wait for the lock: its sample waits instead.
                with observe.REGISTRY._lock:
                    gc.collect()
                held = counts()
                gc.collect()
                later = counts()
            finally:
                gc.enable()
        finally:
            if not was:
                observe.disable_registry()
        assert [a - b for a, b in zip(after, before)] == [0, 0, 1]
        assert held == after
        assert [a - b for a, b in zip(later, after)] == [0, 0, 2]

    def test_count_skips_a_sink_armed_on_another_thread(self):
        # A server counts events on its event loop while a traced
        # statement runs on a worker thread; they are not that statement's.
        with observe.collecting() as metrics:
            observe.count("here")
            other = threading.Thread(target=observe.count, args=("elsewhere",))
            other.start()
            other.join(timeout=10)
            assert not other.is_alive()
        assert metrics.counters == {"here": 1}

    def test_count_out_and_in_wrappers(self):
        metrics = ExecutionMetrics()
        assert list(metrics.count_out("feed", iter([1, 2, 3]))) == [1, 2, 3]
        assert list(metrics.count_in("filter", iter([1, 2]))) == [1, 2]
        assert metrics.operators == {
            "feed": {"in": 0, "out": 3},
            "filter": {"in": 2, "out": 0},
        }
        assert metrics.tuples_out("feed") == 3
        assert metrics.tuples_out("missing") == 0

    def test_as_dict_shape(self):
        metrics = ExecutionMetrics()
        metrics.incr("btree.node_reads", 4)
        d = metrics.as_dict()
        assert set(d) == {"operators", "counters", "io"}
        assert d["counters"] == {"btree.node_reads": 4}


class TestDisabledOverhead:
    def test_statements_run_clean_without_collection(self, loaded_system):
        # No tracing: results carry timings but no metrics objects, and the
        # global flag stays down for the whole statement.
        result = loaded_system.query("cities_rep feed count")
        assert result.metrics is None
        assert result.rule_trace is None
        assert observe.ENABLED is False
        assert set(result.timings) >= {"parse", "typecheck", "execute", "total"}

    def test_tracing_toggle(self, loaded_system):
        loaded_system.set_tracing(True)
        assert loaded_system.tracing
        traced = loaded_system.query("cities_rep feed count")
        assert traced.metrics is not None
        assert traced.metrics.tuples_out("feed") == 40
        loaded_system.set_tracing(False)
        untraced = loaded_system.query("cities_rep feed count")
        assert untraced.metrics is None


class TestRuleTrace:
    def test_record_and_report(self):
        trace = RuleTrace()
        trace.record_attempt("r1", "no_match")
        trace.record_attempt("r1", "no_match")
        trace.record_attempt("r2", "conditions_failed")
        trace.record_fired("r2", "translate", "before-term", "after-term")
        d = trace.as_dict()
        assert d["attempts"]["r1"] == {"no_match": 2}
        assert d["attempts"]["r2"] == {"conditions_failed": 1, "fired": 1}
        assert d["fired"] == [
            {
                "rule": "r2",
                "step": "translate",
                "before": "before-term",
                "after": "after-term",
            }
        ]

    def test_optimizer_records_trace(self, loaded_system):
        statement = loaded_system.make_parser().parse_statement(
            "query cities select[pop >= 5000]"
        )
        tc = loaded_system.database.typechecker
        term = tc.check(statement.expr)
        trace = RuleTrace()
        result = loaded_system.optimizer.optimize(
            term, loaded_system.database, trace
        )
        assert result.trace is trace
        assert [f.rule for f in trace.fired] == result.fired
        fired = trace.fired[0]
        assert fired.rule == "select_ge_btree_range"
        assert "select" in fired.before
        assert "range" in fired.after
        # The losing rules were attempted and accounted.
        assert any(
            "no_match" in outcomes or "conditions_failed" in outcomes
            for rule, outcomes in trace.attempts.items()
            if rule != "select_ge_btree_range"
        )


class TestMetricCorrectness:
    """Exact operator/storage counts over a small deterministic dataset."""

    @pytest.fixture()
    def seeded(self, system):
        # 4 cities strictly inside 4 distinct states (20-wide tiles), so the
        # spatial join matches each city exactly once.
        system.run(
            """
type city = tuple(<(cname, string), (center, point), (pop, int)>)
type state = tuple(<(sname, string), (region, pgon)>)
create cities : rel(city)
create states : rel(state)
create cities_rep : btree(city, pop, int)
create states_rep : lsdtree(state, fun (s: state) bbox(s region))
update rep := insert(rep, cities, cities_rep)
update rep := insert(rep, states, states_rep)
"""
        )
        for i in range(4):
            system.run_one(
                f'update states := insert(states, mktuple[<(sname, "s{i}"), '
                f"(region, region_box({i * 20}, 0, {i * 20 + 20}, 100))>])"
            )
        for i in range(4):
            x = i * 20 + 10  # strictly inside tile i
            system.run_one(
                f'update cities := insert(cities, mktuple[<(cname, "c{i}"), '
                f"(center, pt({x}, 50)), (pop, {1000 * (i + 1)})>])"
            )
        system.set_tracing(True)
        return system

    def test_feed_count_tuple_flow(self, seeded):
        result = seeded.query("cities_rep feed count")
        m = result.metrics
        assert m.tuples_out("feed") == 4
        assert m.tuples_out("count") == 0  # count returns a scalar
        # A single-leaf B-tree scan touches the root page twice (leftmost
        # descent + the leaf walk).
        assert m.counters["btree.node_reads"] == 2

    def test_search_join_exact_node_accesses(self, seeded):
        result = seeded.query("cities states join[center inside region]")
        m = result.metrics
        assert result.fired == ["join_inside_lsdtree"]
        # 4 outer tuples, each probing the LSD-tree once; the tree holds 4
        # states in its single bucket, so each point search reads 1 node.
        assert m.counters["search_join.probes"] == 4
        assert m.counters["lsdtree.node_reads"] == 4
        assert m.tuples_out("point_search") == 4
        assert m.tuples_out("search_join") == 4
        assert m.counters["btree.node_reads"] == 2  # outer feed, single leaf
        assert len(result.value) == 4

    def test_range_search_node_accesses(self, seeded):
        result = seeded.query("cities select[pop >= 3000]")
        m = result.metrics
        assert result.fired == ["select_ge_btree_range"]
        # Single-leaf tree: root-as-leaf descent + the leaf read.  The >=
        # rule is a pure halfrange search — no residual filter operator.
        assert m.counters["btree.node_reads"] == 2
        assert m.tuples_out("range") == 2
        assert set(m.operators) == {"range"}

    def test_io_delta_recorded(self, seeded):
        result = seeded.query("cities_rep feed count")
        assert result.metrics.io["reads"] >= 2
        assert result.metrics.io["writes"] == 0

    def test_tidrel_fetch_counter(self, seeded):
        seeded.run(
            """
create orders_heap : tidrel(city)
update orders_heap := insert(orders_heap, mktuple[<(cname, "zz"), (center, pt(1, 1)), (pop, 7)>])
create orders_idx : sindex(city, pop, int)
update orders_idx := build_index(orders_heap, pop)
"""
        )
        result = seeded.query("orders_idx sindex_exact[7] count")
        assert result.value == 1
        # One matching TID, dereferenced once against the heap.
        assert result.metrics.counters["tidrel.fetches"] == 1


class TestHistogram:
    def test_records_and_reports(self):
        hist = Histogram()
        for v in [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]:
            hist.record(v)
        assert hist.count == 10
        d = hist.as_dict()
        assert d["min"] == 1.0
        assert d["max"] == 10.0
        assert d["mean"] == pytest.approx(5.5)
        assert d["p50"] == pytest.approx(5.5)
        assert d["p95"] == pytest.approx(9.55)

    def test_percentile_edge_cases(self):
        hist = Histogram()
        with pytest.raises(ValueError):
            hist.percentile(50)
        hist.record(7)
        assert hist.percentile(0) == 7.0
        assert hist.percentile(100) == 7.0
        with pytest.raises(ValueError):
            hist.percentile(101)
        assert hist.as_dict()["count"] == 1

    def test_empty_as_dict(self):
        assert Histogram().as_dict() == {"count": 0, "sum": 0.0}

    def test_metrics_record_into_named_histograms(self):
        with observe.collecting() as metrics:
            observe.record("probe.rows", 3)
            observe.record("probe.rows", 5)
        assert metrics.histograms["probe.rows"].count == 2
        d = metrics.as_dict()
        assert d["histograms"]["probe.rows"]["mean"] == pytest.approx(4.0)
        # Disarmed: silently dropped, like incr.
        observe.record("probe.rows", 9)
        assert metrics.histograms["probe.rows"].count == 2

    def test_as_dict_omits_histograms_when_none_recorded(self):
        assert "histograms" not in ExecutionMetrics().as_dict()


class TestChromeTraceExporter:
    def test_span_and_counter_mapping(self):
        tracer = Tracer()
        exporter = ChromeTraceExporter()
        tracer.subscribe(exporter)
        with tracer.span("statement", category="query"):
            tracer.emit("rows", value=4.0)
        phases = [(e["name"], e["ph"]) for e in exporter.events]
        assert phases == [
            ("statement", "B"),
            ("rows", "i"),
            ("statement", "E"),
        ]
        begin, instant, end = exporter.events
        assert begin["args"] == {"category": "query"}
        assert instant["s"] == "t"
        assert instant["args"]["value"] == 4.0
        assert end["args"]["duration_ms"] >= 0.0
        assert end["ts"] >= begin["ts"]

    def test_json_document_shape(self):
        tracer = Tracer()
        exporter = ChromeTraceExporter(pid=7, tid=9)
        tracer.subscribe(exporter)
        tracer.emit("tick")
        doc = json.loads(exporter.to_json())
        assert set(doc) == {"traceEvents", "displayTimeUnit"}
        assert doc["traceEvents"][0]["pid"] == 7
        assert doc["traceEvents"][0]["tid"] == 9

    def test_write_roundtrip(self, tmp_path):
        tracer = Tracer()
        exporter = ChromeTraceExporter()
        tracer.subscribe(exporter)
        with tracer.span("work"):
            pass
        path = tmp_path / "trace.json"
        exporter.write(str(path))
        doc = json.loads(path.read_text())
        assert len(doc["traceEvents"]) == 2

    def test_live_payloads_are_flattened(self):
        tracer = Tracer()
        exporter = ChromeTraceExporter()
        tracer.subscribe(exporter)
        metrics = ExecutionMetrics()
        metrics.incr("btree.node_reads", 2)
        tracer.emit("done", metrics=metrics, term=object())
        args = exporter.events[0]["args"]
        assert args["metrics"]["counters"] == {"btree.node_reads": 2}
        assert isinstance(args["term"], str)
        json.dumps(exporter.events)  # everything serializes

    def test_session_trace_export(self, loaded_system, tmp_path):
        exporter = ChromeTraceExporter()
        loaded_system.tracer.subscribe(exporter)
        loaded_system.set_tracing(True)
        loaded_system.query("cities_rep feed count")
        names = {e["name"] for e in exporter.events}
        assert "statement" in names
        path = tmp_path / "session.json"
        exporter.write(str(path))
        assert json.loads(path.read_text())["traceEvents"]
