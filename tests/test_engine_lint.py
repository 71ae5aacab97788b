"""Engine concurrency self-lint (enginepass): each ENG code on synthetic
sources, the Python-comment suppression semantics, and — the acceptance
criterion — a clean run over the real ``src/repro`` tree.
"""

from __future__ import annotations

import textwrap

from repro.lint import lint_engine, lint_engine_source
from repro.lint.enginepass import scan_python_suppressions

DECLARED = {"mvcc.commits", "server.statements"}
SITES = {"wal.append", "mvcc.commit"}


def run(source: str):
    return lint_engine_source(
        textwrap.dedent(source),
        "synthetic.py",
        declared_metrics=set(DECLARED),
        fault_sites=set(SITES),
    )


def codes(report) -> list[str]:
    return [d.code for d in report]


class TestENG001:
    ENGINE = """\
        import threading

        class Engine:
            def __init__(self):
                self._lock = threading.RLock()
                self.versions = {}
                self.open_transactions = 0

            def bad(self, name):
                self.versions[name] = 1
                self.open_transactions += 1
                self.versions.pop(name, None)

            def good(self, name):
                with self._lock:
                    self.versions[name] = 1
                    self.open_transactions += 1
        """

    def test_unlocked_mutations_flagged(self):
        report = run(self.ENGINE)
        assert codes(report) == ["ENG001", "ENG001", "ENG001"]
        assert {d.subject for d in report} == {
            "versions",
            "open_transactions",
        }

    def test_init_is_exempt(self):
        report = run(self.ENGINE)
        assert all(d.line > 7 for d in report)

    def test_class_without_lock_not_checked(self):
        report = run(
            """\
            class Plain:
                def __init__(self):
                    self.versions = {}

                def mutate(self):
                    self.versions["x"] = 1
            """
        )
        assert codes(report) == []

    def test_nested_function_does_not_inherit_lock_scope(self):
        report = run(
            """\
            import threading

            class Engine:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.versions = {}

                def outer(self):
                    with self._lock:
                        def callback():
                            self.versions["x"] = 1
                        return callback
            """
        )
        assert codes(report) == ["ENG001"]


class TestENG002:
    def test_blocking_call_under_lock(self):
        report = run(
            """\
            import threading, time, os

            class Engine:
                def __init__(self):
                    self._lock = threading.Lock()

                def commit(self, fd):
                    with self._lock:
                        time.sleep(0.1)
                        os.fsync(fd)
            """
        )
        assert codes(report) == ["ENG002", "ENG002"]
        assert {d.subject for d in report} == {"sleep", "fsync"}

    def test_blocking_call_outside_lock_is_fine(self):
        report = run(
            """\
            import time

            def pause():
                time.sleep(0.1)
            """
        )
        assert codes(report) == []


class TestENG003:
    def test_sync_engine_call_in_coroutine(self):
        report = run(
            """\
            class Server:
                async def handle(self, request):
                    return self.engine.run_one(request)
            """
        )
        assert codes(report) == ["ENG003"]

    def test_to_thread_wrapped_call_is_fine(self):
        report = run(
            """\
            import asyncio

            class Server:
                async def handle(self, request):
                    return await asyncio.to_thread(
                        self.engine.run_one, request
                    )
            """
        )
        assert codes(report) == []

    def test_blocking_call_in_coroutine(self):
        report = run(
            """\
            import time

            async def handler():
                time.sleep(1)
            """
        )
        assert codes(report) == ["ENG003"]

    def test_asyncio_sleep_is_not_blocking(self):
        report = run(
            """\
            import asyncio

            async def handler():
                await asyncio.sleep(1)
            """
        )
        assert codes(report) == []


class TestENG004:
    def test_await_under_sync_lock(self):
        report = run(
            """\
            import threading

            class Engine:
                def __init__(self):
                    self._lock = threading.Lock()

                async def bad(self):
                    with self._lock:
                        await self.flush()
            """
        )
        assert "ENG004" in codes(report)

    def test_async_with_is_fine(self):
        report = run(
            """\
            class Engine:
                def __init__(self):
                    self._alock = make_async_lock()

                async def good(self):
                    async with self._alock:
                        await self.flush()
            """
        )
        assert "ENG004" not in codes(report)


class TestENG005:
    def test_undeclared_metric_flagged(self):
        report = run(
            """\
            from repro import observe

            def record():
                observe.count("mvcc.commits")
                observe.count("mvcc.surprises")
                observe.incr("btree.node_reads")  # statement scope only
            """
        )
        assert codes(report) == ["ENG005"]
        assert report.diagnostics[0].subject == "mvcc.surprises"

    def test_dynamic_names_skipped(self):
        report = run(
            """\
            from repro import observe

            def record(kind):
                observe.count(f"mvcc.{kind}")
            """
        )
        assert codes(report) == []


class TestENG006:
    def test_unregistered_site_flagged(self):
        report = run(
            """\
            from repro.testing.faults import fault_point

            def mutate():
                fault_point("wal.append")
                fault_point("btree.vanish")
            """
        )
        assert codes(report) == ["ENG006"]
        assert report.diagnostics[0].subject == "btree.vanish"


class TestENG007:
    def test_tuple_value_built_below_the_api_flagged(self):
        report = run(
            """\
            from repro.core.algebra import TupleValue

            def project(schema, row):
                return TupleValue(schema, (row[0],))

            def fast(schema, row):
                tv = object.__new__(TupleValue)
                tv.schema, tv.values = schema, row
                return tv
            """
        )
        assert codes(report) == ["ENG007", "ENG007"]
        assert report.diagnostics[0].subject == "TupleValue"

    def test_boundary_functions_may_build_views(self):
        source = """\
            def view(t, value):
                def row(values):
                    return TupleValue(t, values)
                return row(value)

            def concat(t, a, b):
                return TupleValue(t, a.values + b.values)
            """
        inside = lint_engine_source(textwrap.dedent(source), "repro/core/algebra.py")
        assert codes(inside) == ["ENG007"]  # concat is not a boundary function
        assert inside.diagnostics[0].line == 7
        elsewhere = run(source)  # the same names in another module
        assert codes(elsewhere) == ["ENG007", "ENG007"]

    def test_type_tests_are_not_builds(self):
        report = run(
            """\
            def carrier(value):
                if isinstance(value, TupleValue) or value.__class__ is TupleValue:
                    return value.values
                return value
            """
        )
        assert codes(report) == []


class TestSuppressions:
    def test_trailing_comment_suppresses_own_line(self):
        report = run(
            """\
            import threading

            class Engine:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.versions = {}

                def audited(self):
                    self.versions["x"] = 1  # lint: disable=ENG001 -- held by caller
            """
        )
        assert codes(report) == []

    def test_standalone_comment_block_suppresses_next_code_line(self):
        report = run(
            """\
            import threading

            class Engine:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.versions = {}

                def audited(self):
                    # lint: disable=ENG001 -- audited: the only caller is
                    # commit(), which already holds self._lock.
                    self.versions["x"] = 1
            """
        )
        assert codes(report) == []

    def test_disable_file(self):
        report = run(
            """\
            # lint: disable-file=ENG001
            import threading

            class Engine:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.versions = {}

                def a(self):
                    self.versions["x"] = 1

                def b(self):
                    self.versions["y"] = 2
            """
        )
        assert codes(report) == []

    def test_scan_semantics(self):
        file_wide, by_line = scan_python_suppressions(
            "x = 1  # lint: disable=ENG002\n"
            "# lint: disable=ENG001\n"
            "# more justification\n"
            "y = 2\n"
            "# lint: disable-file=ENG006\n"
        )
        assert file_wide == {"ENG006"}
        assert by_line[1] == {"ENG002"}
        assert by_line[4] == {"ENG001"}


class TestRealTree:
    def test_src_repro_is_clean(self):
        """Every true positive is fixed and every audited false positive
        annotated — the ``lint --self`` acceptance criterion."""
        report = lint_engine()
        assert codes(report) == [], report.render_text()

    def test_real_tree_scan_covers_the_server(self):
        # The walk really visits the concurrency-critical modules: the
        # self-lint proves discipline, not absence of coverage.
        from repro.lint.enginepass import _declared_metrics
        import ast
        import os
        import repro

        root = os.path.dirname(repro.__file__)
        with open(os.path.join(root, "server", "net.py")) as handle:
            declared = _declared_metrics(ast.parse(handle.read()))
        assert "mvcc.commits" in declared
