"""Engine self-lint (enginepass): the project's concurrency discipline, checked.

The concurrent server (MVCC engine + asyncio socket loop + WAL) rests on
hand-maintained invariants no runtime test reliably exercises: shared
MVCC state is only touched under the engine lock, nothing blocks while
holding it, nothing blocks the event loop, every telemetry metric is
pre-declared, every fault site is registered.  :func:`lint_engine`
encodes those rules as an AST analysis over ``src/repro`` itself and
reports violations with the same :class:`~repro.lint.diagnostics.Diagnostic`
machinery user-facing passes use — the ``ENG...`` codes:

``ENG001``  mutation of MVCC shared state outside ``with self._lock``
``ENG002``  blocking call (``fsync``/``sleep``/socket I/O) under the lock
``ENG003``  blocking or synchronous-engine call on the event-loop thread
``ENG004``  ``await`` while holding a synchronous lock
``ENG005``  telemetry metric fed but never pre-declared
``ENG006``  ``fault_point`` site not registered in ``repro.testing.faults``
``ENG007``  a :class:`~repro.core.algebra.TupleValue` built outside the
            boundary functions that make the API's views of carriers

Audited exceptions carry an inline Python comment::

    self.metrics[name] += 1  # lint: disable=ENG001 -- callers hold the lock

with the same own-line / standalone-line / ``disable-file`` semantics as
the ``--`` spec-comment suppressions.  Run it as
``python -m repro lint --self``; CI treats findings as build failures.
"""

from __future__ import annotations

import ast
import os
import re
from typing import Iterable, Optional

from repro.lint.diagnostics import Diagnostic, LintReport

__all__ = ["lint_engine", "lint_engine_source"]


# Attributes that make up MVCC / registry shared state.  Touching one of
# these on ``self`` in a lock-owning class outside a lock scope is ENG001.
GUARDED_ATTRS = frozenset(
    {
        "versions",
        "alias_versions",
        "commit_version",
        "open_transactions",
        "metrics",
        "counters",
        "gauges",
        "histograms",
        "_sessions",
        "_entries",
        "_journal",
    }
)

#: Method calls that mutate a container in place.
_MUTATORS = frozenset(
    {
        "append",
        "add",
        "clear",
        "discard",
        "extend",
        "insert",
        "move_to_end",
        "pop",
        "popitem",
        "remove",
        "setdefault",
        "update",
    }
)

#: Terminal attribute names whose call blocks the calling thread.
_BLOCKING_ATTRS = frozenset(
    {
        "sleep",
        "fsync",
        "flush",
        "recv",
        "sendall",
        "accept",
        "connect",
        "create_connection",
    }
)

#: Synchronous engine entry points that must be ``to_thread``-wrapped on
#: the event loop (journal bookkeeping lookups are cheap and excluded).
_ENGINE_HEAVY = frozenset(
    {
        "run",
        "run_one",
        "query",
        "execute",
        "commit",
        "rollback",
        "checkpoint",
        "dump",
        "lint",
        "check",
        "session",
        "close",
        "begin",
    }
)

#: Where a ``TupleValue`` may be built: below the API a tuple value is its
#: carrier, a plain Python tuple, and a view is made only where a value
#: leaves the system or arrives at a client (``view`` and its per-type
#: helper) or is made by hand (``make_tuple``).
VIEW_BOUNDARY = {
    "repro/core/algebra.py": frozenset({"view", "_viewer"}),
    "repro/models/relational.py": frozenset({"make_tuple"}),
}

_SUPPRESS_RE = re.compile(
    r"#\s*lint:\s*(disable|disable-file)\s*=\s*([A-Z0-9,\s]+)"
)


def scan_python_suppressions(text: str) -> tuple[set[str], dict[int, set[str]]]:
    """``# lint: disable=ENGnnn`` comments, with the spec-comment semantics:
    a trailing comment suppresses its own line; a standalone comment
    suppresses the next *code* line (justifications may continue over
    further ``#`` lines); ``disable-file`` the whole file."""
    file_wide: set[str] = set()
    by_line: dict[int, set[str]] = {}
    pending: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        m = _SUPPRESS_RE.search(raw)
        if m is not None:
            codes = {c.strip() for c in m.group(2).split(",") if c.strip()}
            if m.group(1) == "disable-file":
                file_wide |= codes
                continue
            by_line.setdefault(lineno, set()).update(codes)
            if stripped.startswith("#"):
                pending |= codes
                continue
        if pending:
            if stripped.startswith("#"):
                continue  # the justification block keeps going
            by_line.setdefault(lineno, set()).update(pending)
            pending = set()
    return file_wide, by_line


# ---------------------------------------------------------------------------
# Small AST helpers
# ---------------------------------------------------------------------------


def _attr_chain(node: ast.AST) -> list[str]:
    """``self.engine._lock`` -> ``["self", "engine", "_lock"]`` (empty list
    when the expression is not a plain name/attribute chain)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return parts
    return []


def _is_lock_expr(node: ast.AST) -> bool:
    chain = _attr_chain(node)
    return bool(chain) and chain[-1].lstrip("_").endswith("lock")


def _with_holds_lock(node: ast.With | ast.AsyncWith) -> bool:
    return any(_is_lock_expr(item.context_expr) for item in node.items)


def _self_attr(node: ast.AST) -> Optional[str]:
    """The attribute name when ``node`` is exactly ``self.<attr>``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _guarded_target(node: ast.AST) -> Optional[str]:
    """The guarded attribute a store/del target touches, if any.

    Catches ``self.attr = ...``, ``self.attr += ...``,
    ``self.attr[k] = ...`` and ``del self.attr[k]``.
    """
    if isinstance(node, ast.Subscript):
        node = node.value
    attr = _self_attr(node)
    if attr is not None and attr in GUARDED_ATTRS:
        return attr
    return None


def _call_string_arg(node: ast.Call) -> Optional[str]:
    if node.args and isinstance(node.args[0], ast.Constant):
        value = node.args[0].value
        if isinstance(value, str):
            return value
    return None


def _collect_strings(node: ast.AST) -> Iterable[str]:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            yield sub.value


# ---------------------------------------------------------------------------
# Per-file visitor
# ---------------------------------------------------------------------------


class _FileLint(ast.NodeVisitor):
    """All seven checks over one module, one traversal.

    The visitor threads four pieces of lexical context: whether the
    current statement is inside a ``with <lock>`` scope (``lock_depth``),
    whether the enclosing function is a coroutine (``async_depth``),
    whether the enclosing class owns an engine lock (``lock_class``), and
    the names of the enclosing functions (``functions``).
    """

    def __init__(
        self,
        source_name: str,
        declared_metrics: set[str],
        fault_sites: set[str],
    ):
        self.source_name = source_name
        self.declared_metrics = declared_metrics
        self.fault_sites = fault_sites
        self.findings: list[Diagnostic] = []
        self.lock_depth = 0
        self.async_depth = 0
        self.lock_class = False
        self.in_init = False
        self.functions: list[str] = []
        path = source_name.replace(os.sep, "/")
        self.view_boundary = next(
            (names for module, names in VIEW_BOUNDARY.items() if path.endswith(module)),
            frozenset(),
        )

    # ------------------------------------------------------------ reporting

    def add(self, code: str, message: str, node: ast.AST, subject: str = "") -> None:
        self.findings.append(
            Diagnostic(
                code,
                message,
                source=self.source_name,
                subject=subject,
                line=getattr(node, "lineno", None),
                column=getattr(node, "col_offset", -1) + 1 or None,
            )
        )

    # ------------------------------------------------------------- scoping

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        outer = self.lock_class
        self.lock_class = self._owns_lock(node)
        self.generic_visit(node)
        self.lock_class = outer

    @staticmethod
    def _owns_lock(node: ast.ClassDef) -> bool:
        """True when the class's ``__init__`` assigns a ``self.*lock``
        attribute — the marker of a lock-owning (engine-like) class."""
        for item in node.body:
            if isinstance(item, ast.FunctionDef) and item.name == "__init__":
                for sub in ast.walk(item):
                    if isinstance(sub, ast.Assign):
                        for target in sub.targets:
                            attr = _self_attr(target)
                            if attr is not None and attr.lstrip("_").endswith(
                                "lock"
                            ):
                                return True
        return False

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        outer_async, outer_lock = self.async_depth, self.lock_depth
        outer_init = self.in_init
        # A nested ``def`` runs on whatever thread calls it, and lock
        # scopes do not extend into it lexically.
        self.async_depth = 0
        self.lock_depth = 0
        self.in_init = node.name == "__init__"
        self.functions.append(node.name)
        self.generic_visit(node)
        self.functions.pop()
        self.async_depth, self.lock_depth = outer_async, outer_lock
        self.in_init = outer_init

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        outer_async, outer_lock = self.async_depth, self.lock_depth
        outer_init = self.in_init
        self.async_depth = 1
        self.lock_depth = 0
        self.in_init = False
        self.functions.append(node.name)
        self.generic_visit(node)
        self.functions.pop()
        self.async_depth, self.lock_depth = outer_async, outer_lock
        self.in_init = outer_init

    def _visit_with(self, node: ast.With | ast.AsyncWith) -> None:
        held = _with_holds_lock(node) and not isinstance(node, ast.AsyncWith)
        if held:
            self.lock_depth += 1
        self.generic_visit(node)
        if held:
            self.lock_depth -= 1

    visit_With = _visit_with
    visit_AsyncWith = _visit_with

    # -------------------------------------------------------------- ENG001

    def _check_store(self, target: ast.AST, node: ast.AST) -> None:
        if not self.lock_class or self.in_init or self.lock_depth:
            return
        attr = _guarded_target(target)
        if attr is not None:
            self.add(
                "ENG001",
                f"self.{attr} is MVCC shared state; mutate it inside "
                "`with self._lock` (or annotate an audited call path)",
                node,
                subject=attr,
            )

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_store(target, node)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_store(node.target, node)
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            self._check_store(target, node)
        self.generic_visit(node)

    # ------------------------------------------------------ ENG004 / await

    def visit_Await(self, node: ast.Await) -> None:
        if self.lock_depth:
            self.add(
                "ENG004",
                "await while holding a synchronous lock: every other "
                "thread (and this event loop) blocks until the coroutine "
                "resumes",
                node,
            )
        self.generic_visit(node)

    # ----------------------------------------------------------- ENG00 2/3/5/6

    def visit_Call(self, node: ast.Call) -> None:
        chain = _attr_chain(node.func)
        terminal = chain[-1] if chain else ""

        # ENG001 (mutator-method form): self.<guarded>.append(...)
        if (
            self.lock_class
            and not self.in_init
            and not self.lock_depth
            and terminal in _MUTATORS
            and isinstance(node.func, ast.Attribute)
        ):
            attr = _self_attr(node.func.value)
            if attr is None and isinstance(node.func.value, ast.Subscript):
                attr = _self_attr(node.func.value.value)
            if attr is not None and attr in GUARDED_ATTRS:
                self.add(
                    "ENG001",
                    f"self.{attr}.{terminal}() mutates MVCC shared state; "
                    "call it inside `with self._lock`",
                    node,
                    subject=attr,
                )

        # ``asyncio.sleep`` (and friends) are awaitables, not thread blocks.
        blocking = (
            terminal in _BLOCKING_ATTRS
            and len(chain) > 1
            and chain[0] != "asyncio"
        ) or chain == ["open"]
        if blocking and self.lock_depth:
            self.add(
                "ENG002",
                f"blocking call {'.'.join(chain)}() while holding the "
                "engine lock stalls every session on the server",
                node,
                subject=terminal,
            )
        if self.async_depth:
            if blocking and terminal != "flush":
                self.add(
                    "ENG003",
                    f"blocking call {'.'.join(chain)}() on the event-loop "
                    "thread freezes all connections; use asyncio.to_thread",
                    node,
                    subject=terminal,
                )
            elif (
                "engine" in chain[:-1]
                and terminal in _ENGINE_HEAVY
            ):
                self.add(
                    "ENG003",
                    f"synchronous engine call {'.'.join(chain)}() on the "
                    "event-loop thread; wrap it in asyncio.to_thread",
                    node,
                    subject=terminal,
                )

        # ENG005: process-scope producers must feed pre-declared families.
        if (
            len(chain) == 2
            and chain[0] == "observe"
            and terminal in ("count", "gauge", "sample")
        ):
            name = _call_string_arg(node)
            if name is not None and name not in self.declared_metrics:
                self.add(
                    "ENG005",
                    f"metric {name!r} is fed here but never pre-declared; "
                    "add it to CORE_METRIC_FAMILIES so renderers list it "
                    "from startup",
                    node,
                    subject=name,
                )

        # ENG006: fault sites must be registered.
        if terminal == "fault_point":
            site = _call_string_arg(node)
            if site is not None and site not in self.fault_sites:
                self.add(
                    "ENG006",
                    f"fault site {site!r} is injected here but not "
                    "registered in repro.testing.faults.FAULT_SITES, so "
                    "no test can arm it",
                    node,
                    subject=site,
                )

        # ENG007: a TupleValue is built (called, or handed as the class to
        # ``object.__new__``/``partial``) only inside the view boundary.
        builds_view = terminal == "TupleValue" or (
            bool(node.args) and (_attr_chain(node.args[0]) or [""])[-1] == "TupleValue"
        )
        if builds_view and not self.view_boundary.intersection(self.functions):
            self.add(
                "ENG007",
                "TupleValue built below the API: a tuple value there is its "
                "carrier, a plain tuple; views are made only by "
                "algebra.view and relational.make_tuple",
                node,
                subject="TupleValue",
            )

        self.generic_visit(node)


# ---------------------------------------------------------------------------
# Declared-metrics collection
# ---------------------------------------------------------------------------


def _declared_metrics(tree: ast.AST) -> set[str]:
    """Metric names a module pre-declares: string literals inside any
    ``*METRIC_FAMILIES`` assignment and inside any ``declare(...)`` call."""
    declared: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id.endswith(
                    "METRIC_FAMILIES"
                ):
                    declared.update(_collect_strings(node.value))
        elif isinstance(node, ast.Call):
            chain = _attr_chain(node.func)
            if chain and chain[-1] == "declare":
                for arg in list(node.args) + [kw.value for kw in node.keywords]:
                    declared.update(_collect_strings(arg))
    return declared


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def lint_engine_source(
    text: str,
    source: str = "<module>",
    *,
    declared_metrics: Optional[set[str]] = None,
    fault_sites: Optional[set[str]] = None,
) -> LintReport:
    """Run every ENG check over one module's source text (unit-test entry
    point; :func:`lint_engine` drives it over the whole package)."""
    if declared_metrics is None or fault_sites is None:
        from repro.testing.faults import FAULT_SITES

        if fault_sites is None:
            fault_sites = set(FAULT_SITES)
        if declared_metrics is None:
            declared_metrics = _declared_metrics(ast.parse(text))
    try:
        tree = ast.parse(text)
    except SyntaxError as exc:
        return LintReport(
            [
                Diagnostic(
                    "ENG001",
                    f"file does not parse: {exc.msg}",
                    source=source,
                    line=exc.lineno,
                    column=exc.offset,
                )
            ]
        )
    visitor = _FileLint(source, declared_metrics, fault_sites)
    visitor.visit(tree)
    file_wide, by_line = scan_python_suppressions(text)
    report = LintReport(visitor.findings)
    kept = [
        d
        for d in report.suppress(file_wide)
        if d.line is None or d.code not in by_line.get(d.line, ())
    ]
    return LintReport(kept)


def lint_engine(root: Optional[str] = None) -> LintReport:
    """Self-lint the ``repro`` package tree rooted at ``root`` (defaults
    to the installed package directory).  Returns one sorted report whose
    diagnostic sources are paths like ``repro/server/mvcc.py``."""
    from repro.testing.faults import FAULT_SITES

    if root is None:
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    base = os.path.dirname(root.rstrip(os.sep))
    sources: dict[str, str] = {}
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for filename in sorted(filenames):
            if not filename.endswith(".py"):
                continue
            path = os.path.join(dirpath, filename)
            rel = os.path.relpath(path, base).replace(os.sep, "/")
            with open(path, encoding="utf-8") as handle:
                sources[rel] = handle.read()
    declared: set[str] = set()
    for text in sources.values():
        try:
            declared |= _declared_metrics(ast.parse(text))
        except SyntaxError:
            continue
    report = LintReport()
    for rel, text in sources.items():
        report.extend(
            lint_engine_source(
                text,
                rel,
                declared_metrics=declared,
                fault_sites=set(FAULT_SITES),
            )
        )
    return report.sorted()
