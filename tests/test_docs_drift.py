"""The code tables in docs/STATIC_ANALYSIS.md must match the registry
behind ``python -m repro lint --codes`` — same codes, same severities —
and every repository path the prose documents cite must exist.  CI runs
this as part of the lint gate, so the documents cannot drift.
"""

from __future__ import annotations

import pathlib
import re

from repro.lint.diagnostics import CODES

DOC = pathlib.Path(__file__).resolve().parent.parent / "docs" / "STATIC_ANALYSIS.md"

ROW = re.compile(r"^\|\s*([A-Z]{3}\d{3})\s*\|\s*(error|warn|info)\s*\|")


def documented() -> dict[str, str]:
    rows = {}
    for line in DOC.read_text().splitlines():
        m = ROW.match(line)
        if m:
            rows[m.group(1)] = m.group(2)
    return rows


def test_every_registered_code_is_documented():
    missing = sorted(set(CODES) - set(documented()))
    assert missing == [], f"codes missing from docs/STATIC_ANALYSIS.md: {missing}"


def test_no_documented_code_is_unregistered():
    stale = sorted(set(documented()) - set(CODES))
    assert stale == [], f"docs table lists unknown codes: {stale}"


def test_documented_severities_match_registry():
    mismatches = {
        code: (sev, CODES[code][0])
        for code, sev in documented().items()
        if code in CODES and sev != CODES[code][0]
    }
    assert mismatches == {}, f"severity drift (docs, registry): {mismatches}"


ROOT = DOC.parent.parent

#: The prose documents whose repository paths must resolve.
PROSE = ("README.md", "DESIGN.md", "EXPERIMENTS.md", "docs/*.md")

#: A repository path in prose: one of the tracked top-level trees, then
#: path characters, ending on a name character or a glob star (so a
#: trailing full stop or a ``:line`` suffix is not part of it).
REPO_PATH = re.compile(
    r"(?<![\w./-])((?:tests|benchmarks|examples|src/repro|docs)/[\w./*-]*[\w*])"
)


def cited_paths() -> dict[str, list[str]]:
    cited: dict[str, list[str]] = {}
    for pattern in PROSE:
        for doc in sorted(ROOT.glob(pattern)):
            for lineno, line in enumerate(doc.read_text().splitlines(), 1):
                for m in REPO_PATH.finditer(line):
                    where = f"{doc.relative_to(ROOT)}:{lineno}"
                    cited.setdefault(m.group(1), []).append(where)
    return cited


def test_every_cited_repository_path_exists():
    stale = {
        path: where
        for path, where in cited_paths().items()
        if not any(ROOT.glob(path))
    }
    assert stale == {}, f"documents cite paths that do not exist: {stale}"
