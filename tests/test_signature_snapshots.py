"""Golden text of the bundled signatures and optimizer rules.

Each snapshot under ``tests/snapshots/`` is the exact text a bundled
artifact renders to: ``describe_signature`` of every bundled model, ``str``
of every rule of the standard and cost-based optimizers, and the
``lint_optimizer`` report of both.  A change to how types, patterns or
rules are represented must leave all of them byte-identical; CI runs this
file in the lint job beside the code-registry drift check.

After an intended change to the rendered text, regenerate the files with
``PYTHONPATH=src python tests/test_signature_snapshots.py`` and review the
diff.
"""

from __future__ import annotations

import pathlib

import pytest

SNAPSHOTS = pathlib.Path(__file__).resolve().parent / "snapshots"


def _describe(factory_path: str) -> str:
    import importlib

    from repro.spec import describe_signature

    module, _, name = factory_path.rpartition(".")
    sos, _ = getattr(importlib.import_module(module), name)()
    return describe_signature(sos)


def _optimizer(name: str):
    from repro.optimizer import standard_rules

    return getattr(standard_rules, name)()


def _rules(name: str) -> str:
    lines = []
    for step in _optimizer(name).steps:
        for rule in step.rules:
            lines.append(f"[{step.name}] {rule}")
    return "\n".join(lines)


def _lint(name: str) -> str:
    from repro.lint import database_catalogs, lint_optimizer
    from repro.system.sos_system import build_relational_system

    db = build_relational_system().database
    report = lint_optimizer(
        _optimizer(name), db.sos, catalogs=database_catalogs(db), source=name
    )
    return report.render_text()


CASES = {
    "describe_relational": lambda: _describe("repro.models.relational.relational_model"),
    "describe_representation": lambda: _describe(
        "repro.rep.model.representation_model"
    ),
    "describe_graph": lambda: _describe("repro.models.graph.graph_model"),
    "describe_nested_relational": lambda: _describe(
        "repro.models.nested.nested_relational_model"
    ),
    "describe_complex_object": lambda: _describe(
        "repro.models.complex_objects.complex_object_model"
    ),
    "rules_standard_optimizer": lambda: _rules("standard_optimizer"),
    "rules_cost_based_optimizer": lambda: _rules("cost_based_optimizer"),
    "lint_standard_optimizer": lambda: _lint("standard_optimizer"),
    "lint_cost_based_optimizer": lambda: _lint("cost_based_optimizer"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_rendered_text_matches_snapshot(name):
    expected = (SNAPSHOTS / f"{name}.txt").read_text(encoding="utf-8")
    assert CASES[name]() + "\n" == expected


if __name__ == "__main__":
    SNAPSHOTS.mkdir(exist_ok=True)
    for case, render in sorted(CASES.items()):
        (SNAPSHOTS / f"{case}.txt").write_text(render() + "\n", encoding="utf-8")
        print(f"wrote {case}.txt")
