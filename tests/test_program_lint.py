"""Program static analysis (progpass): every PRG code with spans, the
``Session.check`` / ``connect(precheck=...)`` surface on both transports,
and lint-report transport parity.

The precheck acceptance criterion is asserted literally: a rejected
program must leave *zero* ``mvcc.*`` telemetry deltas and zero WAL
residue — the server never starts a transaction for it.
"""

from __future__ import annotations

import json
import os
import warnings

import pytest

from repro.api import connect
from repro.errors import LintError
from repro.lint import LintReport, lint_program
from repro.server import start_server
from repro.server.wire import decode_lint_report, encode_lint_report
from repro.system.sos_system import build_relational_system

SCHEMA = """\
type city = tuple(<(cname, string), (pop, int)>)
type town = tuple(<(tname, string), (tpop, int)>)
create cities : rel(city)
create towns : rel(town)
"""


@pytest.fixture
def db():
    system = build_relational_system()
    system.run(SCHEMA)
    return system.database


def codes(report: LintReport) -> dict:
    out: dict = {}
    for d in report:
        out.setdefault(d.code, []).append(d)
    return out


class TestProgramCodes:
    """One seeded bad program per PRG code, with span assertions."""

    def test_prg000_parse_error_spans_original_line(self, db):
        report = lint_program(db, "query cities\nquery )broken(\n")
        found = codes(report)["PRG000"]
        assert found[0].line == 2

    def test_prg000_type_error(self, db):
        report = lint_program(db, 'query cities select[cname > 3]')
        assert "PRG000" in codes(report)

    def test_prg001_use_before_create(self, db):
        program = "query newrel\ncreate newrel : rel(city)\n"
        d = codes(lint_program(db, program))["PRG001"][0]
        assert d.subject == "newrel"
        assert (d.line, d.column) == (1, 7)

    def test_prg002_use_after_delete(self, db):
        program = "delete cities\nquery cities\n"
        d = codes(lint_program(db, program))["PRG002"][0]
        assert d.subject == "cities"
        assert (d.line, d.column) == (2, 7)

    def test_prg003_duplicate_create(self, db):
        program = "create cities : rel(city)"
        d = codes(lint_program(db, program))["PRG003"][0]
        assert d.subject == "cities"
        assert (d.line, d.column) == (1, 8)

    def test_prg004_dead_store(self, db):
        program = (
            "create counts : int\n"
            "update counts := 1\n"
            "update counts := 2\n"
            "query counts\n"
        )
        d = codes(lint_program(db, program))["PRG004"][0]
        assert d.subject == "counts"
        assert d.line == 2  # anchored at the overwritten write

    def test_prg004_created_never_used(self, db):
        program = "create scratch : rel(city)\ndelete scratch\n"
        d = codes(lint_program(db, program))["PRG004"][0]
        assert d.subject == "scratch"
        assert d.line == 2

    def test_prg005_conflicting_writes_in_atomic_program(self, db):
        program = (
            "create counts : int\n"
            "update counts := 1\n"
            "update counts := 2\n"
            "query counts\n"
        )
        report = lint_program(db, program, atomic=True)
        d = codes(report)["PRG005"][0]
        assert d.subject == "counts"
        assert "PRG004" not in codes(report)

    def test_prg005_not_fired_when_write_is_read(self, db):
        program = (
            "create counts : int\n"
            "update counts := 1\n"
            "update counts := counts + 1\n"
            "query counts\n"
        )
        report = lint_program(db, program, atomic=True)
        assert "PRG005" not in codes(report)

    def test_prg006_mutations_outside_atomic(self, db):
        program = "create a : int\nupdate a := 1\nquery a\n"
        report = lint_program(db, program)
        assert "PRG006" in codes(report)
        assert "PRG006" not in codes(lint_program(db, program, atomic=True))

    def test_prg006_not_fired_for_single_mutation(self, db):
        assert "PRG006" not in codes(lint_program(db, "create a : int"))

    def test_prg007_join_without_equatable_pair(self, db):
        program = "analyze\nquery cities towns join[pop > tpop]"
        d = codes(lint_program(db, program))["PRG007"][0]
        assert d.line == 2
        assert d.column > 1  # anchored at the join keyword, not the line

    def test_prg007_equijoin_is_clean(self, db):
        program = "analyze\nquery cities towns join[pop = tpop]"
        assert "PRG007" not in codes(lint_program(db, program))

    def test_prg008_query_without_statistics(self, db):
        d = codes(lint_program(db, "query cities"))["PRG008"][0]
        assert d.subject == "cities"
        assert d.severity == "info"

    def test_prg008_silenced_by_program_analyze(self, db):
        program = "analyze cities\nquery cities"
        assert "PRG008" not in codes(lint_program(db, program))

    def test_inline_suppression(self, db):
        program = (
            "-- lint: disable=PRG008\n"
            "query cities\n"
        )
        assert "PRG008" not in codes(lint_program(db, program))

    def test_renderers_carry_spans(self, db):
        report = lint_program(db, "query cities", source="demo.sos")
        assert "demo.sos:1:7: info: PRG008 [cities]:" in report.render_text()
        payload = json.loads(report.render_json())
        (d,) = payload["diagnostics"]
        assert (d["line"], d["column"]) == (1, 7)
        assert d["source"] == "demo.sos"


class TestSessionCheck:
    def test_local_check_returns_report_without_executing(self):
        session = connect()
        session.run(SCHEMA, atomic=True)
        report = session.check("delete cities\nquery cities")
        assert [d.code for d in report.errors] == ["PRG002"]
        # Nothing executed: cities still exists.
        assert "cities" in session.database.objects

    def test_precheck_strict_rejects_before_execution(self):
        session = connect(precheck="strict")
        session.run(SCHEMA, atomic=True)
        with pytest.raises(LintError) as err:
            session.run("delete cities\nquery cities")
        assert err.value.report is not None
        assert "cities" in session.database.objects

    def test_precheck_warn_runs_and_warns(self):
        session = connect(precheck="warn")
        session.run(SCHEMA, atomic=True)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            # Two mutations without atomic=True: PRG006 warns, then runs.
            session.run("create a : int\nupdate a := 1\nquery a")
        assert "a" in session.database.objects
        assert any("PRG006" in str(w.message) for w in caught)

    def test_precheck_warn_is_silent_on_a_clean_select(self):
        session = connect(precheck="warn")
        session.run(
            "type city = tuple(<(cname, string), (pop, int)>)\n"
            "create cities : rel(city)\n"
            "create cities_rep : btree(city, pop, int)\n"
            "update rep := insert(rep, cities, cities_rep)\n"
            + "".join(
                f'update cities := insert(cities, mktuple[<(cname, "c{i}"), '
                f"(pop, {1000 + i})>])\n"
                for i in range(60)
            ),
            atomic=True,
        )
        session.run_one("analyze cities")
        text = "query cities select[pop >= 1000]"
        assert len(session.check(text)) == 0
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert len(session.run_one(text).value) == 60
        assert caught == []

    def test_precheck_validation(self):
        with pytest.raises(Exception):
            connect(precheck="bogus")


class TestNetworkPrecheck:
    def test_strict_rejects_before_any_transaction(self, tmp_path):
        """The acceptance criterion: a rejected program spends no MVCC
        transaction (zero ``mvcc.*`` counter deltas) and no WAL frame."""
        data_dir = str(tmp_path)
        with start_server(data_dir=data_dir) as handle:
            session = connect(handle.address, precheck="strict")
            session.run(SCHEMA, atomic=True)
            before = session.server_metrics()["counters"]
            wal_before = _wal_bytes(data_dir)
            with pytest.raises(LintError) as err:
                session.run("delete cities\nquery cities")
            assert [d.code for d in err.value.report.errors] == ["PRG002"]
            after = session.server_metrics()["counters"]
            deltas = {
                name: after.get(name, 0) - before.get(name, 0)
                for name in set(before) | set(after)
                if name.startswith("mvcc.")
                and after.get(name, 0) != before.get(name, 0)
            }
            assert deltas == {}
            assert _wal_bytes(data_dir) == wal_before
            # cities still exists: re-creating it is a duplicate create.
            probe = session.check("create cities : rel(city)")
            assert [d.code for d in probe.errors] == ["PRG003"]
            session.disconnect()

    def test_warn_mode_still_executes(self):
        with start_server() as handle:
            session = connect(handle.address, precheck="warn")
            session.run(SCHEMA, atomic=True)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                session.run("create a : int\nupdate a := 1\nquery a")
            assert any("PRG006" in str(w.message) for w in caught)
            # It still executed: a second create is now a duplicate.
            probe = session.check("create a : int")
            assert [d.code for d in probe.errors] == ["PRG003"]
            session.disconnect()

    def test_network_check_matches_local(self):
        program = "delete cities\nquery cities\nquery towns"
        local = connect()
        local.run(SCHEMA, atomic=True)
        with start_server() as handle:
            remote = connect(handle.address)
            remote.run(SCHEMA, atomic=True)
            over_wire = remote.check(program)
            remote.disconnect()
        in_process = local.check(program)
        assert [d.as_dict() for d in over_wire] == [
            d.as_dict() for d in in_process
        ]


def _wal_bytes(data_dir: str) -> int:
    return sum(
        os.path.getsize(os.path.join(data_dir, name))
        for name in os.listdir(data_dir)
        if name.startswith("wal")
    )


class TestTransportParity:
    """A LintReport round-trips identically through the wire codecs."""

    def _report(self, db) -> LintReport:
        # Multi-line spans + a suppressed diagnostic: the suppression
        # comment removes PRG008 before the report ever crosses the wire.
        program = (
            "create scratch\n"
            "    : rel(city)\n"
            "delete scratch\n"
            "-- lint: disable=PRG008\n"
            "query cities\n"
            "query towns\n"
        )
        return lint_program(db, program, source="parity.sos")

    def test_round_trip_is_identical(self, db):
        report = self._report(db)
        assert len(report)  # the fixture must actually carry findings
        decoded = decode_lint_report(encode_lint_report(report))
        assert [d.as_dict() for d in decoded] == [
            d.as_dict() for d in report
        ]
        assert decoded.render_text() == report.render_text()
        assert decoded.render_json() == report.render_json()

    def test_empty_fields_stay_empty_strings(self):
        from repro.lint import Diagnostic

        report = LintReport([Diagnostic("PRG004", "dead store")])
        (decoded,) = decode_lint_report(encode_lint_report(report))
        # Not None: Diagnostic's empty-string defaults survive the wire.
        assert decoded.source == ""
        assert decoded.subject == ""
