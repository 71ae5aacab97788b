"""The public facade: ``repro.api.connect``, DSNs, and the unified result
shape — run against BOTH session variants.

The ``db`` fixture is parametrized over ``local`` (in-process
:class:`LocalSession`) and ``network`` (a :class:`NetworkSession` to a
shared in-process server) — every test taking ``db`` asserts the same
behavior through both transports with one body.  Local-only machinery
(custom optimizers, tracer identity, the model-level session,
restore) is tested separately below.
"""

from __future__ import annotations

import pytest

from repro.api import LocalSession, Session, connect
from repro.errors import (
    CatalogError,
    ParseError,
    ProtocolError,
    StatementError,
)
from repro.observe import ExecutionMetrics, Tracer
from repro.server.wire import decode_metrics, encode_metrics
from repro.system import SystemResult

SCHEMA = """
type city = tuple(<(cname, string), (center, point), (pop, int)>)
create cities : rel(city)
create cities_rep : btree(city, pop, int)
update rep := insert(rep, cities, cities_rep)
update cities := insert(cities, mktuple[<(cname, "aa"), (center, pt(1, 1)), (pop, 100)>])
update cities := insert(cities, mktuple[<(cname, "bb"), (center, pt(2, 2)), (pop, 200000)>])
"""

# 4 cities strictly inside 4 disjoint state tiles: the spatial join matches
# each city exactly once, so search_join probe fan-out is deterministic.
SPATIAL_SCHEMA = """
type city = tuple(<(cname, string), (center, point), (pop, int)>)
type state = tuple(<(sname, string), (region, pgon)>)
create cities : rel(city)
create states : rel(state)
create cities_rep : btree(city, pop, int)
create states_rep : lsdtree(state, fun (s: state) bbox(s region))
update rep := insert(rep, cities, cities_rep)
update rep := insert(rep, states, states_rep)
""" + "".join(
    f'update states := insert(states, mktuple[<(sname, "s{i}"), '
    f"(region, region_box({i * 20}, 0, {i * 20 + 20}, 100))>])\n"
    for i in range(4)
) + "".join(
    f'update cities := insert(cities, mktuple[<(cname, "c{i}"), '
    f"(center, pt({i * 20 + 10}, 50)), (pop, {1000 * (i + 1)})>])\n"
    for i in range(4)
)


@pytest.fixture(scope="module")
def server_handle():
    from repro.server import start_server

    handle = start_server(allow_reset=True)
    yield handle
    handle.stop()


@pytest.fixture(params=["local", "network"])
def db(request):
    """One session, both transports — the parity fixture."""
    if request.param == "local":
        session = connect()
        yield session
    else:
        handle = request.getfixturevalue("server_handle")
        session = connect(handle.address)
        session._client.request("reset")  # fresh database per test
        yield session
        session.disconnect()


class TestSessionParity:
    """Identical surface and semantics through both transports."""

    def test_is_a_session(self, db):
        assert isinstance(db, Session)

    def test_schema_and_query(self, db):
        db.run(SCHEMA)
        result = db.query("cities select[pop > 100000]")
        assert isinstance(result, SystemResult)
        assert [t.attr("cname") for t in result.value] == ["bb"]

    def test_result_shapes_agree(self, db):
        results = db.run(SCHEMA)
        assert all(isinstance(r, SystemResult) for r in results)
        one = db.run_one("query cities_rep feed count")
        via_query = db.query("cities_rep feed count")
        assert isinstance(one, SystemResult)
        assert isinstance(via_query, SystemResult)
        assert one.value == via_query.value == 2

    def test_every_result_carries_timings(self, db):
        for result in db.run(SCHEMA):
            assert result.timings["total"] >= 0.0
            assert "parse" in result.timings
        model_fired = db.query("cities select[pop > 0]")
        assert set(model_fired.timings) >= {
            "parse", "typecheck", "optimize", "execute", "total",
        }

    def test_metrics_off_by_default(self, db):
        db.run(SCHEMA)
        result = db.query("cities_rep feed count")
        assert result.metrics is None and result.rule_trace is None

    def test_set_tracing_collects_metrics(self, db):
        db.set_tracing(True)
        assert db.tracing
        db.run(SCHEMA)
        result = db.query("cities_rep feed count")
        assert result.metrics is not None
        assert result.metrics.tuples_out("feed") == 2
        assert result.rule_trace is not None

    def test_translated_statement_reported(self, db):
        db.run(SCHEMA)
        result = db.query("cities select[pop > 100000]")
        assert result.translated
        assert "select_gt_btree_range" in result.fired
        assert result.generated_statement().startswith("query ")

    def test_explain_passthrough(self, db):
        db.run(SCHEMA)
        info = db.explain("cities select[pop > 100000]")
        assert info["translated"] is True
        assert info["fired"] == ["select_gt_btree_range"]

    def test_explain_analyze(self, db):
        db.run(SCHEMA)
        info = db.explain("cities select[pop > 100000]", analyze=True)
        assert info["analyzed"] is True
        assert info["rows"] == 1
        assert info["metrics"]["operators"]

    def test_lint_reports(self, db):
        report = db.lint()
        assert report.ok
        assert report.render_text()

    def test_dump(self, db):
        db.run(SCHEMA)
        text = db.dump()
        assert "create cities : rel(city)" in text

    def test_analyze_shorthand(self, db):
        db.run(SCHEMA)
        result = db.analyze("cities_rep")
        assert result.kind == "analyze"
        assert "cities_rep" in result.value

    def test_statement_errors_carry_index_and_phase(self, db):
        with pytest.raises(CatalogError) as info:
            db.run("type t = tuple(<(a, int)>)\nupdate ghost := 1")
        assert isinstance(info.value, StatementError)
        assert info.value.index == 1
        assert info.value.phase in ("typecheck", "execute")
        assert info.value.snippet() is not None

    def test_parse_errors_same_class(self, db):
        with pytest.raises(ParseError):
            db.run_one("query 1 +")

    def test_close_is_idempotent(self, db):
        db.run(SCHEMA)
        db.close()
        db.close()
        assert db.closed

    def test_closed_session_queries_ok_mutations_raise(self, db):
        db.run(SCHEMA)
        db.close()
        assert db.query("cities_rep feed count").value == 2
        with pytest.raises(CatalogError, match="closed"):
            db.run_one(
                'update cities := insert(cities,'
                ' mktuple[<(cname, "x"), (center, pt(3, 3)), (pop, 1)>])'
            )

    def test_context_manager_closes(self, db):
        with db as handle:
            assert handle is db
            handle.run(SCHEMA)
        assert db.closed

    def test_metric_histograms_round_trip(self, db):
        """``search_join.probe_rows`` — the one per-statement histogram —
        must survive the wire codec with its raw observations intact."""
        db.run(SPATIAL_SCHEMA)
        db.set_tracing(True)
        result = db.query("cities states join[center inside region]")
        hist = result.metrics.histograms["search_join.probe_rows"]
        # 4 outer tuples, each matching exactly one state: 4 probes of
        # fan-out 1, identical through both transports.
        assert hist.values == [1.0, 1.0, 1.0, 1.0]
        assert hist.as_dict()["p50"] == 1.0
        assert result.metrics.counters["search_join.probes"] == 4

    def test_explain_analyze_reports_histograms(self, db):
        db.run(SPATIAL_SCHEMA)
        info = db.explain(
            "cities states join[center inside region]", analyze=True
        )
        stats = info["metrics"]["histograms"]["search_join.probe_rows"]
        assert stats["count"] == 4
        assert stats["p50"] == 1.0

    def test_raising_subscriber_does_not_break_execution(self, db):
        db.run(SCHEMA)

        def broken(event):
            raise RuntimeError("listener bug")

        db.subscribe(broken)
        result = db.query("cities_rep feed count")
        assert result.value == 2
        assert db.tracer.subscriber_errors > 0


class TestDSN:
    def test_default_is_relational(self):
        db = connect()
        assert isinstance(db, LocalSession)
        assert "rep" in db.database.objects  # catalog pre-created

    def test_legacy_model_names_positional(self):
        assert connect("relational").system is not None
        model = connect("model")
        assert model.system.optimizer is None

    def test_file_dsn_is_data_dir_sugar(self, tmp_path):
        path = str(tmp_path / "db")
        with connect(f"file:{path}") as db:
            db.run_one("type t = tuple(<(a, int)>)")
            assert db.durable
            assert db.durability.data_dir == path
        with connect(data_dir=path) as again:
            assert "t" in again.dump()

    def test_file_dsn_conflicting_data_dir_rejected(self, tmp_path):
        with pytest.raises(CatalogError, match="conflicting"):
            connect(f"file:{tmp_path}/a", data_dir=f"{tmp_path}/b")

    def test_unknown_dsn_rejected(self):
        with pytest.raises(CatalogError):
            connect("hierarchical")
        with pytest.raises(CatalogError):
            connect("file:")

    def test_network_dsn_rejects_local_only_options(self):
        from repro.optimizer import standard_optimizer

        with pytest.raises(CatalogError, match="network"):
            connect("repro://localhost", optimizer=standard_optimizer())
        with pytest.raises(CatalogError, match="network"):
            connect("repro://localhost", data_dir="/tmp/nope")

    def test_unreachable_server_raises_protocol_error(self):
        with pytest.raises(ProtocolError):
            connect("repro://127.0.0.1:1")  # port 1: nothing listens

    def test_network_session_repr(self, server_handle):
        db = connect(server_handle.address)
        assert "repro://" in repr(db)
        db.disconnect()


class TestLocalOnly:
    def test_model_session(self):
        db = connect(model="model")
        db.run("type t = tuple(<(a, int)>)\ncreate r : rel(t)")
        db.run_one("update r := insert(r, mktuple[<(a, 7)>])")
        result = db.query("r select[a > 0]")
        assert isinstance(result, SystemResult)
        assert result.level == "model"
        assert len(result.value.rows) == 1

    def test_model_shapes_agree(self):
        db = connect(model="model")
        results = db.run("type t = tuple(<(a, int)>)\ncreate r : rel(t)")
        assert all(isinstance(r, SystemResult) for r in results)
        assert results[0].kind == "type"
        assert results[1].level == "model"

    def test_model_session_atomic_program_rolls_back(self):
        db = connect("model")
        db.run("type t = tuple(<(a, int)>)\ncreate r : rel(t)")
        with pytest.raises(StatementError):
            db.run(
                "update r := insert(r, mktuple[<(a, 7)>])\nupdate nosuch := 3",
                atomic=True,
            )
        assert len(db.query("r").value.rows) == 0

    def test_model_session_is_observable(self):
        events = []
        db = connect("model", trace=events.append)
        assert db.tracing
        db.run("type t = tuple(<(a, int)>)\ncreate r : rel(t)")
        events.clear()
        result = db.query("r select[a > 0]")
        assert any(e.name == "statement" for e in events)
        assert result.timings["total"] > 0
        assert result.metrics is not None and result.metrics.io
        assert result.rule_trace is not None
        plan = db.explain("r select[a > 0]")
        assert plan["translated"] is False
        assert plan["level"] == "model"

    def test_model_session_takes_no_optimizer(self):
        from repro.optimizer import standard_optimizer

        with pytest.raises(CatalogError):
            connect(model="model", optimizer=standard_optimizer())

    def test_custom_optimizer(self):
        from repro.optimizer import standard_optimizer

        opt = standard_optimizer()
        db = connect(optimizer=opt)
        assert db.system.optimizer is opt

    def test_trace_callable_subscribes(self):
        events = []
        db = connect(trace=events.append)
        db.run_one("query 1 + 2")
        assert any(e.name == "statement" for e in events)
        assert db.tracing  # a callable also arms collection

    def test_trace_tracer_instance_is_the_bus(self):
        tracer = Tracer()
        db = connect(trace=tracer)
        assert db.tracer is tracer
        assert db.system.tracer is tracer

    def test_dump_restore_round_trip(self):
        db = connect()
        db.run(SCHEMA)
        text = db.dump()
        clone = connect()
        clone.restore(text)
        assert clone.query("cities_rep feed count").value == 2

    def test_repr(self):
        assert "relational" in repr(connect())
        assert "model" in repr(connect(model="model"))

    def test_closed_model_session_contract(self):
        db = connect(model="model")
        db.run("type t = tuple(<(a, int)>)\ncreate r : rel(t)")
        db.run_one("update r := insert(r, mktuple[<(a, 7)>])")
        db.close()
        assert db.query("r select[a > 0]").value.rows
        with pytest.raises(CatalogError, match="closed"):
            db.run_one("update r := insert(r, mktuple[<(a, 8)>])")


class TestWireCodec:
    def test_histogram_codec_keeps_totals_past_the_window(self):
        """A histogram ships its window plus its exact count and sum, so
        a decoded one reports every observation, not the window's."""
        metrics = ExecutionMetrics()
        for i in range(2000):
            metrics.record("probe.rows", i)
        hist = decode_metrics(encode_metrics(metrics)).histograms["probe.rows"]
        assert hist.count == 2000
        assert hist.sum == sum(range(2000))
        assert hist.values == metrics.histograms["probe.rows"].values
        assert hist.as_dict() == metrics.histograms["probe.rows"].as_dict()
