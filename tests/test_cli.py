"""The command-line front end (python -m repro)."""

import subprocess
import sys
import textwrap

import pytest


def run_cli(args, stdin=""):
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        input=stdin,
        capture_output=True,
        text=True,
        timeout=60,
    )


@pytest.fixture()
def program_file(tmp_path):
    path = tmp_path / "program.sos"
    path.write_text(
        textwrap.dedent(
            """
            type city = tuple(<(cname, string), (pop, int)>)
            create cities : rel(city)
            create cities_rep : btree(city, pop, int)
            update rep := insert(rep, cities, cities_rep)
            update cities := insert(cities, mktuple[<(cname, "Berlin"), (pop, 3500000)>])
            query cities select[pop >= 1000000]
            """
        )
    )
    return path


class TestFileExecution:
    def test_program_runs_and_translates(self, program_file):
        result = run_cli([str(program_file)])
        assert result.returncode == 0, result.stderr
        assert "=> update cities_rep := insert(cities_rep" in result.stdout
        assert "Berlin" in result.stdout
        assert "(1 row(s))" in result.stdout

    def test_model_mode(self, tmp_path):
        path = tmp_path / "m.sos"
        path.write_text(
            "type t = tuple(<(a, int)>)\n"
            "create r : rel(t)\n"
            "update r := insert(r, mktuple[<(a, 7)>])\n"
            "query r select[a = 7]\n"
        )
        result = run_cli(["--model", str(path)])
        assert result.returncode == 0, result.stderr
        assert "=>" not in result.stdout  # no translation at model level
        assert "(1 row(s))" in result.stdout

    def test_error_reported(self, tmp_path):
        path = tmp_path / "bad.sos"
        path.write_text("query nonsense select[x > 1]\n")
        result = run_cli([str(path)])
        assert result.returncode == 1
        assert "error:" in result.stderr

    def test_error_carries_statement_index_and_snippet(self, tmp_path):
        path = tmp_path / "bad.sos"
        path.write_text(
            "type t = tuple(<(a, int)>)\n"
            "create r : rel(t)\n"
            "update ghost := insert(ghost, mktuple[<(a, 1)>])\n"
        )
        result = run_cli(["--model", str(path)])
        assert result.returncode == 1
        assert "statement 3" in result.stderr
        assert "in: update ghost := insert(ghost, mktuple[<(a, 1)>])" in result.stderr

    def test_error_phase_reported(self, tmp_path):
        path = tmp_path / "bad.sos"
        path.write_text('query 1 + "s"\n')
        result = run_cli(["--model", str(path)])
        assert result.returncode == 1
        assert "(typecheck)" in result.stderr

    def test_statements_before_error_keep_their_effect(self, tmp_path):
        """Per-statement atomicity: the dump written after a clean run of
        the same prefix equals what the failed run left behind."""
        path = tmp_path / "partial.sos"
        path.write_text(
            "type t = tuple(<(a, int)>)\n"
            "create r : srel(t)\n"
            "update r := insert(r, mktuple[<(a, 1)>])\n"
        )
        dump = tmp_path / "state.sos"
        result = run_cli(["--dump", str(dump), str(path)])
        assert result.returncode == 0, result.stderr
        assert "insert" in dump.read_text()

    def test_max_steps_flag(self, tmp_path):
        path = tmp_path / "p.sos"
        path.write_text("query 1 + 2 * 3 + 4 * 5\n")
        result = run_cli(["--model", "--max-steps", "3", str(path)])
        assert result.returncode == 1
        assert "step budget" in result.stderr
        result = run_cli(["--model", "--max-steps", "100000", str(path)])
        assert result.returncode == 0

    def test_max_depth_flag(self, tmp_path):
        path = tmp_path / "p.sos"
        path.write_text("query 1 + (2 + (3 + (4 + 5)))\n")
        result = run_cli(["--model", "--max-depth", "2", str(path)])
        assert result.returncode == 1
        assert "recursion-depth" in result.stderr

    def test_bad_max_steps_value(self, tmp_path):
        path = tmp_path / "p.sos"
        path.write_text("query 1\n")
        result = run_cli(["--max-steps", "many", str(path)])
        assert result.returncode == 2


class TestRepl:
    def test_query_and_quit(self):
        result = run_cli(["--model"], stdin="query 1 + 2 * 3\n\n\\q\n")
        assert result.returncode == 0
        assert "7" in result.stdout

    def test_multiline_statement(self):
        stdin = (
            "type t = tuple(<(a, int)>)\n"
            "create r : rel(t)\n"
            "query r\n"
            "   select[a > 0]\n"
            "\n"
            "\\q\n"
        )
        result = run_cli(["--model"], stdin=stdin)
        assert result.returncode == 0
        assert "(0 row(s))" in result.stdout

    def test_objects_command(self):
        stdin = "type t = tuple(<(a, int)>)\ncreate r : rel(t)\n\n\\objects\n\\q\n"
        result = run_cli(["--model"], stdin=stdin)
        assert "r : rel" in result.stdout

    def test_error_does_not_kill_repl(self):
        stdin = "query ghost\n\nquery 1 + 1\n\n\\q\n"
        result = run_cli(["--model"], stdin=stdin)
        assert "error:" in result.stdout
        assert "2" in result.stdout


class TestStatsAndTraces:
    STDIN_SCHEMA = (
        "type t = tuple(<(a, int)>)\n"
        "create r : rel(t)\n"
        "create r_rep : btree(t, a, int)\n"
        "update rep := insert(rep, r, r_rep)\n"
        "update r := insert(r, mktuple[<(a, 7)>])\n"
        "update r := insert(r, mktuple[<(a, 9)>])\n"
        "\n"
    )

    def test_analyze_statement_reports_summary(self, tmp_path):
        path = tmp_path / "p.sos"
        path.write_text(self.STDIN_SCHEMA + "analyze r\n")
        result = run_cli([str(path)])
        assert result.returncode == 0, result.stderr
        assert "analyzed r_rep: 2 row(s)" in result.stdout

    def test_stats_command(self):
        stdin = self.STDIN_SCHEMA + "analyze r\n\n\\stats r\n\\q\n"
        result = run_cli([], stdin=stdin)
        assert result.returncode == 0, result.stderr
        assert "r_rep: 2 row(s)" in result.stdout
        assert "a [key]: distinct=2 min=7 max=9" in result.stdout

    def test_stats_before_analyze_hints(self):
        stdin = self.STDIN_SCHEMA + "\\stats r\n\\q\n"
        result = run_cli([], stdin=stdin)
        assert "no statistics for r (run: analyze r)" in result.stdout

    def test_trace_json_written_for_file_run(self, tmp_path, program_file):
        import json

        trace = tmp_path / "trace.json"
        result = run_cli(["--trace-json", str(trace), str(program_file)])
        assert result.returncode == 0, result.stderr
        assert f"trace written to {trace}" in result.stdout
        doc = json.loads(trace.read_text())
        names = {e["name"] for e in doc["traceEvents"]}
        assert "statement" in names
        assert {e["ph"] for e in doc["traceEvents"]} <= {"B", "E", "i"}

    def test_trace_json_written_on_repl_quit(self, tmp_path):
        import json

        trace = tmp_path / "trace.json"
        result = run_cli(
            ["--trace-json", str(trace)], stdin="query 1 + 2\n\n\\q\n"
        )
        assert result.returncode == 0, result.stderr
        assert json.loads(trace.read_text())["traceEvents"]

    def test_trace_json_flag_needs_value(self):
        result = run_cli(["--trace-json"])
        assert result.returncode == 2

    def test_explain_reports_estimate_basis(self):
        stdin = (
            self.STDIN_SCHEMA
            + "analyze r\n\n\\explain r select[a >= 8]\n\\q\n"
        )
        result = run_cli([], stdin=stdin)
        assert result.returncode == 0, result.stderr
        assert "est:" in result.stdout
        assert "stats_hit=" in result.stdout

    def test_explain_analyze_reports_cardinality(self):
        stdin = (
            self.STDIN_SCHEMA
            + "analyze r\n\n\\explain+ r select[a >= 8]\n\\q\n"
        )
        result = run_cli([], stdin=stdin)
        assert result.returncode == 0, result.stderr
        assert "card:" in result.stdout
        assert "q=" in result.stdout


class TestDurableMode:
    def test_file_run_persists_and_reopens(self, tmp_path, program_file):
        data_dir = tmp_path / "db"
        first = run_cli(["--data-dir", str(data_dir), str(program_file)])
        assert first.returncode == 0, first.stderr
        assert f"-- durable mode: {data_dir} (epoch 0, 0 statement(s) replayed)" in first.stdout
        # reopen: the program's five mutating statements replay, the
        # query (not logged) does not
        again = tmp_path / "again.sos"
        again.write_text("query cities select[pop >= 1000000]\n")
        second = run_cli(["--data-dir", str(data_dir), str(again)])
        assert second.returncode == 0, second.stderr
        assert "5 statement(s) replayed" in second.stdout
        assert "(1 row(s))" in second.stdout

    def test_repl_checkpoint_command(self, tmp_path):
        data_dir = tmp_path / "db"
        result = run_cli(
            ["--data-dir", str(data_dir)],
            stdin="create n : int\nupdate n := 41\n\\checkpoint\n\\q\n",
        )
        assert result.returncode == 0, result.stderr
        assert "checkpoint written (epoch 1)" in result.stdout
        assert (data_dir / "checkpoint-1.sos").exists()
        reopened = run_cli(
            ["--data-dir", str(data_dir)], stdin="query n + 1\n\\q\n"
        )
        assert reopened.returncode == 0, reopened.stderr
        assert "epoch 1, 0 statement(s) replayed" in reopened.stdout
        assert "42" in reopened.stdout

    def test_data_dir_rejects_model_mode(self, tmp_path):
        result = run_cli(["--model", "--data-dir", str(tmp_path / "db")])
        assert result.returncode != 0
        assert "data-dir" in result.stderr

    def test_corrupt_checkpoint_reported_as_error(self, tmp_path):
        data_dir = tmp_path / "db"
        data_dir.mkdir()
        (data_dir / "checkpoint-1.sos").write_text("not a checkpoint\n")
        result = run_cli(["--data-dir", str(data_dir)], stdin="\\q\n")
        assert result.returncode == 2
        assert "sos-checkpoint" in result.stderr


class TestLintCommand:
    """python -m repro lint — static analysis from the command line."""

    BAD_SPEC = textwrap.dedent(
        """\
        kinds IDENT, DATA, TUPLE, REL

        type constructors
            -> IDENT                  ident
            -> DATA                   int, bool
            (ident x DATA)+ -> TUPLE  tuple
            TUPLE -> REL              rel

        operators
            forall rel: rel(tuple) in REL.
                rel x rel -> rel      pair    syntax _ #
        """
    )

    def test_bundled_models_lint_clean(self):
        result = run_cli(["lint", "--strict"])
        assert result.returncode == 0, result.stdout + result.stderr
        assert "clean" in result.stdout

    def test_bad_spec_file_reported_with_span(self, tmp_path):
        path = tmp_path / "bad.sos"
        path.write_text(self.BAD_SPEC)
        result = run_cli(["lint", "--strict", str(path)])
        assert result.returncode == 2
        assert f"{path}:11:9: error: SOS006 [pair]:" in result.stdout

    def test_errors_fail_without_strict_too(self, tmp_path):
        path = tmp_path / "bad.sos"
        path.write_text(self.BAD_SPEC)
        result = run_cli(["lint", str(path)])
        assert result.returncode == 2
        assert "SOS006" in result.stdout

    def test_json_output(self, tmp_path):
        import json

        path = tmp_path / "bad.sos"
        path.write_text(self.BAD_SPEC)
        result = run_cli(["lint", "--json", str(path)])
        payload = json.loads(result.stdout)
        assert payload["ok"] is False
        codes = {d["code"] for d in payload["diagnostics"]}
        assert "SOS006" in codes

    def test_suppression_honored(self, tmp_path):
        path = tmp_path / "bad.sos"
        path.write_text(
            self.BAD_SPEC.replace(
                "rel x rel -> rel      pair    syntax _ #",
                "rel x rel -> rel      pair    syntax _ #"
                "  -- lint: disable=SOS006,SOS010",
            )
        )
        result = run_cli(["lint", "--strict", str(path)])
        assert result.returncode == 0, result.stdout

    def test_unreadable_file(self, tmp_path):
        result = run_cli(["lint", str(tmp_path / "missing.sos")])
        assert result.returncode == 3
        assert "cannot read" in result.stderr

    def test_unknown_option(self):
        result = run_cli(["lint", "--bogus"])
        assert result.returncode == 3
        assert "unknown lint option" in result.stderr

    def test_warnings_only_exit_code(self, tmp_path):
        # SOS010 (missing docs) is info; SOS003 (shadowed signature) warns.
        path = tmp_path / "warn.sos"
        path.write_text(
            textwrap.dedent(
                """\
                kinds IDENT, DATA

                type constructors
                    -> DATA    int

                operators
                    int x int -> int    plus    syntax _ + _
                    int x int -> int    plus    syntax _ + _
                """
            )
        )
        result = run_cli(["lint", str(path)])
        assert result.returncode in (1, 2)
        if result.returncode == 1:
            # warnings-only: --strict must promote to the failing code
            strict = run_cli(["lint", "--strict", str(path)])
            assert strict.returncode == 2

    def test_codes_registry(self):
        result = run_cli(["lint", "--codes"])
        assert result.returncode == 0
        for code in ("SOS001", "RUL001", "PRG001", "ENG001"):
            assert code in result.stdout

    def test_codes_registry_json(self):
        import json

        result = run_cli(["lint", "--codes", "--json"])
        payload = json.loads(result.stdout)
        codes = {entry["code"] for entry in payload}
        from repro.lint import CODES

        assert codes == set(CODES)

    def test_program_lint_bad_program(self, tmp_path):
        path = tmp_path / "prog.sos"
        path.write_text("query nonexistent\n")
        result = run_cli(["lint", "--program", str(path)])
        assert result.returncode == 2
        assert "PRG000" in result.stdout

    def test_program_lint_clean_program(self, tmp_path):
        path = tmp_path / "prog.sos"
        path.write_text(
            "create r : rel(tuple(<(a, int)>))\n"
            "analyze r\n"
            "query r\n"
        )
        result = run_cli(["lint", "--program", str(path), "--atomic"])
        assert result.returncode == 0, result.stdout

    def test_self_lint_clean(self):
        result = run_cli(["lint", "--self"])
        assert result.returncode == 0, result.stdout


def test_startup_does_not_import_networkx():
    # Only the graph model uses networkx, and it imports it on first use.
    probe = "import sys, repro.__main__; print('networkx' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=60
    )
    assert result.stdout.strip() == "False", result.stderr
