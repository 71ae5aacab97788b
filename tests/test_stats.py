"""The statistics catalog: histograms, ``analyze``, maintenance, feedback."""

from __future__ import annotations

import pytest

from repro.errors import SOSError
from repro.stats.analyze import analyze_objects, related_stats
from repro.stats.feedback import q_error
from repro.stats.model import (
    AttributeStats,
    EquiDepthHistogram,
    RelationStats,
    StatsCatalog,
)


class TestEquiDepthHistogram:
    def test_build_shape(self):
        hist = EquiDepthHistogram.build(list(range(100)))
        assert hist.total == 100
        assert hist.buckets == 16
        assert hist.edges[0] == 0
        assert hist.edges[-1] == 99
        assert sum(hist.counts) == 100

    def test_fraction_le_interpolates(self):
        hist = EquiDepthHistogram.build(list(range(100)))
        assert hist.fraction_le(-1) == 0.0
        assert hist.fraction_le(99) == 1.0
        assert hist.fraction_le(49) == pytest.approx(0.5, abs=0.05)

    def test_fraction_between(self):
        hist = EquiDepthHistogram.build(list(range(100)))
        assert hist.fraction_between(25, 74) == pytest.approx(0.5, abs=0.06)
        assert hist.fraction_between(None, None) == 1.0
        assert hist.fraction_between(200, None) == 0.0

    def test_empty_and_unorderable_build_to_none(self):
        assert EquiDepthHistogram.build([]) is None
        assert EquiDepthHistogram.build([1, "a", 2]) is None

    def test_single_value_and_duplicates(self):
        hist = EquiDepthHistogram.build([5] * 10)
        assert hist.fraction_at(5) == pytest.approx(1.0)
        assert hist.fraction_le(5) == 1.0
        assert hist.fraction_le(4) == 0.0
        single = EquiDepthHistogram.build([3])
        assert single.buckets == 1
        assert single.fraction_le(3) == 1.0

    def test_strings_are_orderable_but_not_subtractable(self):
        hist = EquiDepthHistogram.build(["ant", "bee", "cat", "dog"])
        assert hist is not None
        assert 0.0 <= hist.fraction_le("bee") <= 1.0


class TestAttributeStats:
    def test_selectivity_eq(self):
        hist = EquiDepthHistogram.build(list(range(10)))
        a = AttributeStats(
            "x", count=10, distinct=10, min=0, max=9, histogram=hist
        )
        assert a.selectivity_eq(5) == pytest.approx(0.1)
        # Outside the observed range: at most one row's worth.
        assert a.selectivity_eq(999) == pytest.approx(0.1)
        empty = AttributeStats("x", count=0, distinct=0)
        assert empty.selectivity_eq(5) is None

    def test_selectivity_range_requires_histogram(self):
        bare = AttributeStats("x", count=10, distinct=10)
        assert bare.selectivity_range(1, 5) is None


class TestStatsCatalog:
    def _entry(self, name="r", rows=40):
        return RelationStats(name=name, row_count=rows, analyzed_rows=rows)

    def test_put_get_discard(self):
        catalog = StatsCatalog()
        catalog.put(self._entry())
        assert "r" in catalog
        assert catalog.get("r").row_count == 40
        catalog.discard("r")
        assert catalog.get("r") is None

    def test_note_rowcount_copy_on_write(self):
        catalog = StatsCatalog()
        catalog.put(self._entry())
        before = catalog.get("r")
        catalog.note_rowcount("r", 41)
        assert catalog.get("r").row_count == 41
        assert before.row_count == 40  # the old entry is untouched
        catalog.note_rowcount("ghost", 7)  # unanalyzed: silently ignored

    def test_staleness_threshold(self):
        catalog = StatsCatalog()
        catalog.put(self._entry())
        catalog.note_rowcount("r", 45)
        assert not catalog.get("r").stale  # 12.5% drift
        catalog.note_rowcount("r", 60)
        assert catalog.get("r").stale  # 50% drift

    def test_record_observed_ewma(self):
        catalog = StatsCatalog()
        catalog.put(self._entry())
        catalog.record_observed("r", "pred", 0.2)
        assert catalog.get("r").observed["pred"] == pytest.approx(0.2)
        catalog.record_observed("r", "pred", 0.4)
        assert catalog.get("r").observed["pred"] == pytest.approx(0.3)

    def test_snapshot_restore(self):
        catalog = StatsCatalog()
        catalog.put(self._entry())
        snap = catalog.snapshot()
        catalog.note_rowcount("r", 999)
        catalog.put(self._entry("s"))
        catalog.restore(snap)
        assert catalog.get("r").row_count == 40
        assert catalog.get("s") is None


class TestAnalyzeStatement:
    def test_parse_analyze(self, loaded_system):
        from repro.lang.parser import AnalyzeStmt

        parser = loaded_system.make_parser()
        bare = parser.parse_statement("analyze")
        assert isinstance(bare, AnalyzeStmt)
        assert bare.names == ()
        named = parser.parse_statement("analyze cities, states")
        assert named.names == ("cities", "states")

    def test_parse_rejects_trailing_garbage(self, loaded_system):
        parser = loaded_system.make_parser()
        with pytest.raises(SOSError):
            parser.parse_statement("analyze cities states")

    def test_analyze_resolves_model_name_to_representation(
        self, loaded_system
    ):
        result = loaded_system.run_one("analyze cities")
        assert result.kind == "analyze"
        assert "cities_rep" in result.value
        entry = loaded_system.database.stats.get("cities_rep")
        assert entry.row_count == 40
        assert entry.analyzed_rows == 40
        assert entry.key_attr == "pop"
        assert entry.structure["kind"] == "btree"
        assert entry.structure["pages"] >= 1
        pop = entry.attr("pop")
        assert pop.count == 40
        assert pop.histogram is not None
        assert pop.min <= pop.max

    def test_analyze_everything(self, loaded_system):
        result = loaded_system.run_one("analyze")
        assert {"cities_rep", "states_rep"} <= set(result.value)
        # The rep catalog itself is not a data structure to analyze.
        assert "rep" not in result.value

    def test_analyze_named_objects_reports_each(self, loaded_system):
        result = loaded_system.run_one("analyze cities, states")
        assert sorted(result.value) == ["cities_rep", "states_rep"]
        # cname, center and pop; sname (a region has no order).
        assert sum(s["histograms"] for s in result.value.values()) == 4
        assert sum(s["rows"] for s in result.value.values()) == 40 + 5

    def test_analyze_unknown_object_fails(self, loaded_system):
        with pytest.raises(SOSError):
            loaded_system.run_one("analyze ghost")

    def test_analyze_object_with_no_representation_fails(self, loaded_system):
        loaded_system.run_one("create lonely : int")
        with pytest.raises(SOSError):
            loaded_system.run_one("analyze lonely")

    def test_related_stats_lookup(self, loaded_system):
        loaded_system.run_one("analyze cities")
        db = loaded_system.database
        via_model = related_stats(db, "cities")
        assert [e.name for e in via_model] == ["cities_rep"]
        via_rep = related_stats(db, "cities_rep")
        assert [e.name for e in via_rep] == ["cities_rep"]
        assert related_stats(db, "states") == []


class TestMaintenance:
    def test_update_keeps_rowcount_current(self, loaded_system):
        loaded_system.run_one("analyze cities")
        loaded_system.run_one(
            'update cities := insert(cities, mktuple[<(cname, "new"), '
            "(center, pt(1, 1)), (pop, 123)>])"
        )
        entry = loaded_system.database.stats.get("cities_rep")
        assert entry.row_count == 41
        assert entry.analyzed_rows == 40
        assert not entry.stale

    def test_failed_statement_rolls_stats_back(self, loaded_system):
        from repro.errors import UpdateError
        from repro.system.transactions import statement_transaction

        db = loaded_system.database
        analyze_objects(db, ["cities"])
        with pytest.raises(UpdateError):
            with statement_transaction(db):
                analyze_objects(db, ["states"])
                db.stats.note_rowcount("cities_rep", 999)
                raise UpdateError("boom")
        assert db.stats.get("cities_rep").row_count == 40
        assert db.stats.get("states_rep") is None

    def test_drop_discards_stats(self, loaded_system):
        loaded_system.run_one("analyze cities")
        db = loaded_system.database
        db.drop("cities_rep")
        assert db.stats.get("cities_rep") is None


class TestFeedback:
    def test_q_error(self):
        assert q_error(10, 10) == 1.0
        assert q_error(20, 5) == 4.0
        assert q_error(5, 20) == 4.0
        assert q_error(0, 5) == 5.0  # zero floored at one row

    def test_fold_observed_records_filter_selectivity(self, loaded_system):
        loaded_system.run_one("analyze cities")
        loaded_system.set_tracing(True)
        loaded_system.set_feedback(True)
        result = loaded_system.query("cities_rep feed filter[pop < 5000] count")
        observed = loaded_system.database.stats.get("cities_rep").observed
        assert len(observed) == 1
        (key, sel), = observed.items()
        assert "pop" in key
        assert sel == pytest.approx(result.value / 40)

    def test_feedback_needs_tracing(self, loaded_system):
        loaded_system.run_one("analyze cities")
        loaded_system.set_feedback(True)  # tracing stays off: no metrics
        loaded_system.query("cities_rep feed filter[pop < 5000] count")
        assert loaded_system.database.stats.get("cities_rep").observed == {}


class TestSessionApi:
    @pytest.fixture()
    def session(self):
        from repro.api import connect

        s = connect()
        s.run(
            """
type city = tuple(<(cname, string), (pop, int)>)
create cities : rel(city)
create cities_rep : btree(city, pop, int)
update rep := insert(rep, cities, cities_rep)
"""
        )
        for i in range(8):
            s.run_one(
                f'update cities := insert(cities, mktuple[<(cname, "c{i}"), '
                f"(pop, {1000 * (i + 1)})>])"
            )
        return s

    def test_session_analyze_and_stats(self, session):
        result = session.analyze("cities")
        assert result.kind == "analyze"
        stats = session.stats("cities")
        assert set(stats) == {"cities_rep"}
        d = stats["cities_rep"]
        assert d["row_count"] == 8
        assert d["key_attr"] == "pop"
        assert "histogram" in d["attributes"]["pop"]

    def test_stats_before_analyze_is_empty(self, session):
        assert session.stats("cities") == {}
