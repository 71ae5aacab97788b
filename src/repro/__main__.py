"""Command-line front end: run programs or an interactive session.

Usage::

    python -m repro                      # interactive REPL (full system)
    python -m repro program.sos          # execute a program file
    python -m repro --model program.sos  # model-level execution, no optimizer
    python -m repro --trace ...          # per-statement metrics + rule trace
    python -m repro --trace-json T.json  # export tracer events as a Chrome trace
    python -m repro --max-steps N ...    # arm the evaluation step budget
    python -m repro --max-depth N ...    # arm the recursion-depth limit
    python -m repro --data-dir DIR ...   # durable database (WAL + recovery)
    python -m repro --group-commit N ... # fsync every Nth commit (with --data-dir)
    python -m repro lint                 # static analysis of bundled models + rules
    python -m repro lint --strict        # also fail (exit 2) on warnings
    python -m repro lint --json F.sos    # lint spec files, JSON report
    python -m repro lint --program F.sos # static program analysis (PRG codes)
    python -m repro lint --self          # engine concurrency self-lint (ENG codes)
    python -m repro lint --codes         # print the diagnostic-code registry
    python -m repro serve --data-dir DIR # multi-session server (MVCC + group commit)
    python -m repro serve --metrics-port P --slow-query-ms MS  # telemetry endpoints
    python -m repro top repro://H:P      # live terminal monitor over a server

The REPL accepts the six statement forms; a statement ends at the end of a
line unless continued by indentation on the following lines (same rule as
program files).  ``\\q`` quits, ``\\objects`` lists objects, ``\\types``
lists named types, ``\\explain Q`` shows the plan for a query and
``\\explain+ Q`` also executes it, reporting real tuple counts, storage
accesses and per-phase timings (EXPLAIN ANALYZE); ``\\stats NAME`` prints
the statistics catalog entries behind an object (run ``analyze`` first);
``\\checkpoint`` snapshots a durable session and truncates its log
(``--data-dir`` mode, see docs/DURABILITY.md).

Statements execute atomically: a failed statement reports its index, phase
and source snippet, and leaves the database exactly as it was before —
a file keeps the effects of the statements before the failing one, the REPL
simply continues with the next input.
"""

from __future__ import annotations

import sys

from repro.api import connect
from repro.core.types import format_type
from repro.errors import SOSError


def _print_metrics(metrics, timings, indent: str = "   ") -> None:
    """Render an ExecutionMetrics + timings block (``--trace`` output)."""
    if timings:
        parts = ", ".join(
            f"{k} {v * 1000:.2f}ms"
            for k, v in timings.items()
            if k != "total"
        )
        print(f"{indent}time:  {timings.get('total', 0) * 1000:.2f}ms ({parts})")
    if metrics is None:
        return
    for op, slot in sorted(metrics.operators.items()):
        flow = f"out={slot['out']}"
        if slot["in"]:
            flow += f" in={slot['in']}"
        print(f"{indent}op:    {op:<14} {flow}")
    for name, value in sorted(metrics.counters.items()):
        print(f"{indent}count: {name:<22} {value}")
    if metrics.io:
        print(
            f"{indent}io:    reads={metrics.io.get('reads', 0)} "
            f"writes={metrics.io.get('writes', 0)}"
        )


def _print_result(result, trace: bool = False) -> None:
    generated = getattr(result, "generated_statement", lambda: None)()
    if generated:
        print(f"=> {generated}")
    if result.kind == "query":
        value = result.value
        rows = getattr(value, "rows", value)
        if isinstance(rows, list):
            for row in rows:
                print("  ", row)
            print(f"  ({len(rows)} row(s))")
        else:
            print("  ", value)
    if result.kind == "analyze" and isinstance(result.value, dict):
        for name, info in result.value.items():
            print(
                f"   analyzed {name}: {info['rows']} row(s), "
                f"{info['attributes']} attribute(s), "
                f"{info['histograms']} histogram(s)"
            )
    if trace:
        _print_metrics(result.metrics, result.timings)


def _print_error(exc: SOSError, stream) -> None:
    """One line of error plus, for statement errors, the source snippet.

    A wrapped :class:`~repro.errors.StatementError` message already leads
    with ``statement N (phase):``; the snippet line shows *what* failed
    without making the user count statements in the file.
    """
    print(f"error: {exc}", file=stream)
    snippet = getattr(exc, "snippet", lambda: None)()
    if snippet:
        print(f"  in: {snippet}", file=stream)


def _make_runner(
    model_only: bool,
    limits: tuple[int | None, int | None],
    trace: bool = False,
    trace_json: str | None = None,
    data_dir: str | None = None,
    group_commit: int = 1,
):
    runner = connect(
        "model" if model_only else "relational",
        trace=trace or None,
        data_dir=data_dir,
        group_commit=group_commit,
    )
    if data_dir is not None:
        manager = runner.durability
        print(
            f"-- durable mode: {data_dir} (epoch {manager.epoch}, "
            f"{manager.replayed_statements} statement(s) replayed)"
        )
    exporter = None
    if trace_json is not None:
        from repro.observe import ChromeTraceExporter

        exporter = ChromeTraceExporter()
        runner.subscribe(exporter)
    max_steps, max_depth = limits
    if max_steps is not None or max_depth is not None:
        runner.database.set_resource_limits(max_steps, max_depth)
    return runner, exporter


def _write_trace(exporter, trace_json: str | None) -> None:
    if exporter is None or trace_json is None:
        return
    exporter.write(trace_json)
    print(f"-- trace written to {trace_json} ({len(exporter.events)} event(s))")


def run_file(
    path: str,
    model_only: bool,
    dump_to: str | None = None,
    limits: tuple[int | None, int | None] = (None, None),
    trace: bool = False,
    trace_json: str | None = None,
    data_dir: str | None = None,
    group_commit: int = 1,
) -> int:
    try:
        runner, exporter = _make_runner(
            model_only, limits, trace, trace_json, data_dir, group_commit
        )
    except SOSError as exc:
        _print_error(exc, sys.stderr)
        return 2
    try:
        with open(path) as f:
            source = f.read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        for result in runner.run(source):
            _print_result(result, trace=trace)
    except SOSError as exc:
        _print_error(exc, sys.stderr)
        _write_trace(exporter, trace_json)
        runner.close()
        return 1
    if dump_to is not None:
        with open(dump_to, "w") as out:
            out.write(runner.dump())
        print(f"-- state dumped to {dump_to}")
    _write_trace(exporter, trace_json)
    runner.close()
    return 0


def _explain(runner, query: str, analyze: bool) -> None:
    try:
        info = runner.explain(query, analyze=analyze)
    except SOSError as exc:
        print(f"error: {exc}")
        return
    print(f"   level: {info['level']}")
    print(f"   plan:  {info['plan']}")
    print(f"   rules: {', '.join(info['fired']) or '(none)'}")
    print(f"   cost:  {info['estimated_cost']:.1f}")
    if info.get("cost_counters"):
        parts = ", ".join(
            f"{k.removeprefix('cost.')}={v}"
            for k, v in sorted(info["cost_counters"].items())
        )
        print(f"   est:   {parts}")
    if not info["translated"]:
        print("   (already at the representation level; identity plan)")
    if analyze:
        print(f"   rows:  {info['rows']}")
        for op, card in sorted(info.get("cardinality", {}).items()):
            print(
                f"   card:  {op:<14} est={card['estimated']} "
                f"act={card['actual']} q={card['q_error']}"
            )
        from repro.observe import ExecutionMetrics

        metrics = ExecutionMetrics()
        metrics.operators = info["metrics"]["operators"]
        metrics.counters = info["metrics"]["counters"]
        metrics.io = info["metrics"]["io"]
        _print_metrics(metrics, info["timings"])


def _print_stats(runner, name: str) -> None:
    try:
        entries = runner.stats(name)
    except SOSError as exc:
        print(f"error: {exc}")
        return
    if not entries:
        print(f"   no statistics for {name} (run: analyze {name})")
        return
    for obj, d in entries.items():
        stale = " (stale)" if d["stale"] else ""
        print(
            f"   {obj}: {d['row_count']} row(s), "
            f"analyzed at {d['analyzed_rows']}{stale}"
        )
        if d.get("structure"):
            shape = ", ".join(f"{k}={v}" for k, v in d["structure"].items())
            print(f"     structure: {shape}")
        for attr, a in d["attributes"].items():
            key = " [key]" if attr == d.get("key_attr") else ""
            hist = a.get("histogram")
            buckets = f", {hist['buckets']} bucket(s)" if hist else ""
            print(
                f"     {attr}{key}: distinct={a['distinct']} "
                f"min={a['min']} max={a['max']}{buckets}"
            )
        for pred, sel in d.get("observed", {}).items():
            print(f"     observed {sel:.3f} for {pred}")


def repl(
    model_only: bool,
    limits: tuple[int | None, int | None] = (None, None),
    trace: bool = False,
    trace_json: str | None = None,
    data_dir: str | None = None,
    group_commit: int = 1,
) -> int:
    try:
        runner, exporter = _make_runner(
            model_only, limits, trace, trace_json, data_dir, group_commit
        )
    except SOSError as exc:
        _print_error(exc, sys.stderr)
        return 2
    database = runner.database
    print("second-order signature system — \\q to quit")
    buffer: list[str] = []

    def flush() -> None:
        """Execute the buffered multi-line statement, if any."""
        if not buffer:
            return
        pending = "\n".join(buffer)
        buffer.clear()
        try:
            for result in runner.run(pending):
                _print_result(result, trace=trace)
        except SOSError as exc:
            _print_error(exc, sys.stdout)

    while True:
        try:
            prompt = "... " if buffer else "sos> "
            line = input(prompt)
        except EOFError:
            # finish a statement still being typed before exiting
            flush()
            print()
            _write_trace(exporter, trace_json)
            runner.close()
            return 0
        except KeyboardInterrupt:
            print()
            _write_trace(exporter, trace_json)
            runner.close()
            return 0
        if line.strip() == "\\q":
            flush()
            _write_trace(exporter, trace_json)
            runner.close()
            return 0
        if line.strip() == "\\checkpoint":
            flush()
            if not runner.durable:
                print("   not a durable session (start with --data-dir DIR)")
                continue
            try:
                epoch = runner.checkpoint()
                print(f"   checkpoint written (epoch {epoch})")
            except SOSError as exc:
                print(f"error: {exc}")
            continue
        if line.strip() == "\\objects":
            for obj in database.objects.values():
                print("  ", obj)
            continue
        if line.strip() == "\\types":
            for name, t in database.aliases.items():
                print(f"   {name} = {format_type(t)}")
            continue
        if line.strip() == "\\ops":
            from repro.spec import describe_signature

            print(describe_signature(database.sos))
            continue
        if line.strip().startswith("\\explain+ ") and not model_only:
            _explain(runner, line.strip()[len("\\explain+ ") :], analyze=True)
            continue
        if line.strip().startswith("\\explain ") and not model_only:
            _explain(runner, line.strip()[len("\\explain ") :], analyze=False)
            continue
        if line.strip().startswith("\\stats "):
            _print_stats(runner, line.strip()[len("\\stats ") :].strip())
            continue
        # Indented lines continue the buffered statement; an unindented or
        # empty line first executes what is buffered.
        if buffer and line[:1].isspace() and line.strip():
            buffer.append(line)
            continue
        flush()
        if line.strip():
            buffer.append(line)


def _take_option(argv: list[str], name: str) -> tuple[str | None, list[str], bool]:
    """Extract ``name VALUE`` from argv.  Returns (value, rest, ok)."""
    if name not in argv:
        return None, argv, True
    index = argv.index(name)
    if index + 1 >= len(argv):
        print(f"error: {name} needs a value", file=sys.stderr)
        return None, argv, False
    value = argv[index + 1]
    return value, argv[:index] + argv[index + 2 :], True


def _lint_exit(report, strict: bool) -> int:
    """The documented exit contract: 0 = clean (info-only counts as
    clean), 1 = warnings only, 2 = errors.  ``--strict`` promotes
    warnings to the failing exit code."""
    if report.errors:
        return 2
    if report.warnings:
        return 2 if strict else 1
    return 0


def _print_codes(as_json: bool) -> None:
    """``lint --codes``: the full diagnostic-code registry."""
    from repro.lint import CODES

    if as_json:
        import json

        print(
            json.dumps(
                [
                    {"code": code, "severity": severity, "summary": summary}
                    for code, (severity, summary) in sorted(CODES.items())
                ],
                indent=2,
            )
        )
        return
    for code, (severity, summary) in sorted(CODES.items()):
        print(f"{code}  {severity:<5}  {summary}")


def run_lint(argv: list[str]) -> int:
    """``python -m repro lint [--strict] [--json] [files...]``,
    ``lint --program FILE [--atomic]``, ``lint --self``, ``lint --codes``.

    Without other options, lints every bundled model signature, the full
    relational system signature, and the standard rule set against it.
    With files, each is parsed as specification text and linted
    (``SOS...`` codes).  ``--program`` statically analyzes a whole SOS
    program against the relational system's signature and catalog without
    executing it (``PRG...`` codes; ``--atomic`` analyzes it as one
    atomic transaction).  ``--self`` runs the engine concurrency
    self-lint over the installed ``repro`` package (``ENG...`` codes).
    ``--codes`` prints the diagnostic-code registry and exits.

    Exit codes: 0 = clean, 1 = warnings only, 2 = errors (``--strict``
    also fails on warnings), 3 = usage or I/O error.
    """
    strict = "--strict" in argv
    as_json = "--json" in argv
    self_lint = "--self" in argv
    codes_only = "--codes" in argv
    atomic = "--atomic" in argv
    argv = [
        a
        for a in argv
        if a not in ("--strict", "--json", "--self", "--codes", "--atomic")
    ]
    program, argv, ok = _take_option(argv, "--program")
    if not ok:
        return 3
    unknown = [a for a in argv if a.startswith("-")]
    if unknown:
        print(f"error: unknown lint option(s): {', '.join(unknown)}",
              file=sys.stderr)
        return 3
    if codes_only:
        _print_codes(as_json)
        return 0
    from repro.lint import LintReport, lint_database, lint_signature, lint_spec

    files = [a for a in argv if not a.startswith("-")]
    report = LintReport()
    if self_lint:
        from repro.lint import lint_engine

        report.extend(lint_engine())
    elif program is not None:
        try:
            with open(program, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            print(f"error: cannot read {program}: {exc}", file=sys.stderr)
            return 3
        from repro.lint import lint_program
        from repro.system.sos_system import build_relational_system

        system = build_relational_system()
        report.extend(
            lint_program(
                system.database, text, atomic=atomic, source=program
            )
        )
    elif files:
        for path in files:
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    text = handle.read()
            except OSError as exc:
                print(f"error: cannot read {path}: {exc}", file=sys.stderr)
                return 3
            report.extend(lint_spec(text, source=path))
    else:
        from repro.models import (
            complex_object_model,
            graph_model,
            nested_relational_model,
            relational_model,
        )
        from repro.optimizer.standard_rules import standard_optimizer
        from repro.system.sos_system import build_relational_system

        for name, factory in (
            ("models/relational", relational_model),
            ("models/nested", nested_relational_model),
            ("models/complex_objects", complex_object_model),
            ("models/graph", graph_model),
        ):
            sos, _ = factory()
            report.extend(lint_signature(sos, source=name))
        system = build_relational_system()
        report.extend(
            lint_database(
                system.database,
                standard_optimizer(),
                source="system/relational",
            )
        )
    print(report.render_json() if as_json else report.render_text())
    return _lint_exit(report, strict)


def run_serve(argv: list[str]) -> int:
    """``python -m repro serve --data-dir DIR [--host H] [--port P]
    [--group-commit N] [--checkpoint-interval N] [--metrics-port P]
    [--slow-query-ms MS] [--slow-query-log FILE] [--max-connections N]
    [--statement-timeout-ms MS]``.

    Serves one durable database to any number of concurrent client
    sessions (``connect("repro://host:port")``) with snapshot isolation,
    first-committer-wins conflicts, and cross-client group commit.
    ``--data-dir`` may be omitted for a shared in-memory database (gone
    when the server exits).  ``--group-commit`` defaults to 8 here —
    batching fsyncs across clients is the point of a server.
    ``--metrics-port`` additionally serves the process-wide telemetry
    registry as a Prometheus text exposition page on the same loop;
    ``--slow-query-ms`` arms the slow-query log (JSON lines to
    ``--slow-query-log``, or kept in memory for the ``metrics`` op).
    ``--max-connections`` sheds excess connections with a retryable busy
    error; ``--statement-timeout-ms`` cancels statements that evaluate
    past the deadline.  SIGTERM drains gracefully: in-flight commits
    finish durably, idle transactions roll back, then exit 0.
    """
    data_dir, argv, ok = _take_option(argv, "--data-dir")
    if not ok:
        return 2
    host, argv, ok = _take_option(argv, "--host")
    if not ok:
        return 2
    raw_port, argv, ok = _take_option(argv, "--port")
    if not ok:
        return 2
    raw_group, argv, ok = _take_option(argv, "--group-commit")
    if not ok:
        return 2
    raw_interval, argv, ok = _take_option(argv, "--checkpoint-interval")
    if not ok:
        return 2
    raw_metrics_port, argv, ok = _take_option(argv, "--metrics-port")
    if not ok:
        return 2
    raw_slow_ms, argv, ok = _take_option(argv, "--slow-query-ms")
    if not ok:
        return 2
    slow_query_log, argv, ok = _take_option(argv, "--slow-query-log")
    if not ok:
        return 2
    raw_max_conns, argv, ok = _take_option(argv, "--max-connections")
    if not ok:
        return 2
    raw_stmt_timeout, argv, ok = _take_option(argv, "--statement-timeout-ms")
    if not ok:
        return 2
    try:
        port = int(raw_port) if raw_port is not None else None
        group_commit = int(raw_group) if raw_group is not None else 8
        interval = int(raw_interval) if raw_interval is not None else None
        metrics_port = (
            int(raw_metrics_port) if raw_metrics_port is not None else None
        )
        slow_query_ms = float(raw_slow_ms) if raw_slow_ms is not None else None
        max_connections = (
            int(raw_max_conns) if raw_max_conns is not None else None
        )
        statement_timeout_ms = (
            float(raw_stmt_timeout) if raw_stmt_timeout is not None else None
        )
    except ValueError:
        print("error: --port / --group-commit / --checkpoint-interval / "
              "--metrics-port / --max-connections need integers "
              "(--slow-query-ms / --statement-timeout-ms a number)",
              file=sys.stderr)
        return 2
    if argv:
        print(f"error: unknown serve argument(s): {', '.join(argv)}",
              file=sys.stderr)
        return 2
    import asyncio

    from repro.server import DEFAULT_PORT, serve

    try:
        asyncio.run(
            serve(
                host if host is not None else "127.0.0.1",
                port if port is not None else DEFAULT_PORT,
                data_dir=data_dir,
                group_commit=group_commit,
                checkpoint_interval=interval,
                metrics_port=metrics_port,
                slow_query_ms=slow_query_ms,
                slow_query_log=slow_query_log,
                max_connections=max_connections,
                statement_timeout_ms=statement_timeout_ms,
            )
        )
    except KeyboardInterrupt:
        print("\n-- server stopped")
    except SOSError as exc:
        _print_error(exc, sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def run_top(argv: list[str]) -> int:
    """``python -m repro top repro://host:port [--interval S]
    [--count N] [--once]``.

    A live terminal monitor over the server's telemetry registry: polls
    the ``metrics`` wire op and renders sessions, transactions,
    commit/conflict totals, WAL throughput, group-commit batching and
    latency percentiles.  ``--once`` prints a single snapshot (no screen
    clearing) — the scriptable form.
    """
    once = "--once" in argv
    argv = [a for a in argv if a != "--once"]
    raw_interval, argv, ok = _take_option(argv, "--interval")
    if not ok:
        return 2
    raw_count, argv, ok = _take_option(argv, "--count")
    if not ok:
        return 2
    try:
        interval = float(raw_interval) if raw_interval is not None else 2.0
        count = int(raw_count) if raw_count is not None else None
    except ValueError:
        print("error: --interval needs a number, --count an integer",
              file=sys.stderr)
        return 2
    targets = [a for a in argv if not a.startswith("-")]
    leftover = [a for a in argv if a.startswith("-")]
    if leftover or len(targets) != 1:
        print("usage: python -m repro top repro://host:port "
              "[--interval S] [--count N] [--once]", file=sys.stderr)
        return 2
    if once:
        count = 1
    import time as _time

    from repro import observe
    from repro.api import connect
    from repro.errors import ProtocolError

    try:
        db = connect(targets[0])
    except SOSError as exc:
        _print_error(exc, sys.stderr)
        return 2
    previous = None
    ticks = 0
    try:
        while True:
            try:
                snapshot = db.server_metrics()
            except ProtocolError as exc:
                print(f"server went away: {exc}", file=sys.stderr)
                return 1
            screen = observe.render_top(
                snapshot, previous, interval, address=targets[0]
            )
            if count != 1:
                print("\x1b[2J\x1b[H", end="")  # clear, home
            print(screen, end="", flush=True)
            previous = snapshot
            ticks += 1
            if count is not None and ticks >= count:
                return 0
            _time.sleep(interval)
    except KeyboardInterrupt:
        print()
        return 0
    finally:
        try:
            db.disconnect()
        except Exception:
            pass


def main(argv: list[str]) -> int:
    if argv and argv[0] == "lint":
        return run_lint(argv[1:])
    if argv and argv[0] == "serve":
        return run_serve(argv[1:])
    if argv and argv[0] == "top":
        return run_top(argv[1:])
    model_only = "--model" in argv
    trace = "--trace" in argv
    dump_to, argv, ok = _take_option(argv, "--dump")
    if not ok:
        return 2
    trace_json, argv, ok = _take_option(argv, "--trace-json")
    if not ok:
        return 2
    data_dir, argv, ok = _take_option(argv, "--data-dir")
    if not ok:
        return 2
    raw_group, argv, ok = _take_option(argv, "--group-commit")
    if not ok:
        return 2
    try:
        group_commit = int(raw_group) if raw_group is not None else 1
    except ValueError:
        print(
            f"error: --group-commit needs an integer, got {raw_group!r}",
            file=sys.stderr,
        )
        return 2
    if data_dir is not None and model_only:
        print("error: --data-dir needs the full system (drop --model)",
              file=sys.stderr)
        return 2
    limits = []
    for flag in ("--max-steps", "--max-depth"):
        raw, argv, ok = _take_option(argv, flag)
        if not ok:
            return 2
        try:
            limits.append(int(raw) if raw is not None else None)
        except ValueError:
            print(f"error: {flag} needs an integer, got {raw!r}", file=sys.stderr)
            return 2
    max_steps, max_depth = limits
    files = [a for a in argv if not a.startswith("-")]
    if files:
        return run_file(
            files[0], model_only, dump_to, (max_steps, max_depth), trace,
            trace_json, data_dir, group_commit,
        )
    return repl(
        model_only, (max_steps, max_depth), trace, trace_json, data_dir,
        group_commit,
    )


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
