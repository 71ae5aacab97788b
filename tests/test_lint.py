"""The static analyzer (repro.lint): spec pass, rule pass, suppressions.

The seeded ``BAD_SPEC`` fixture packs one instance of each signature
defect; the rule fixtures each trigger exactly one ``RUL`` code against
the real relational signature.  The load-bearing test is
``test_standard_rules_lint_clean``: every bundled optimization rule is
statically proven type-preserving.
"""

import json

import pytest

from repro.api import connect
from repro.core.patterns import PVar
from repro.core.types import TypeApp
from repro.core.terms import Apply, Fun, Literal, Var
from repro.errors import CatalogError, LintError
from repro.lint import (
    CODES,
    Diagnostic,
    LintReport,
    database_catalogs,
    lint_database,
    lint_rules,
    lint_spec,
    scan_suppressions,
)
from repro.optimizer.conditions import CatalogCondition, TypeCondition
from repro.optimizer.engine import Optimizer, OptimizerStep
from repro.optimizer.rules import RewriteRule, rule_vars
from repro.optimizer.termmatch import RuleVar

BAD_SPEC = """\
kinds IDENT, DATA, TUPLE, REL, REP, GHOST

type constructors
    -> IDENT                        ident
    -> DATA                         int, bool
    (ident x DATA)+ -> TUPLE        tuple
    TUPLE -> REL                    rel
    TUPLE -> REP                    srel
    TUPLE -> REP                    relrep

subtypes
    srel(tuple) < relrep(tuple)
    relrep(tuple) < srel(tuple)

operators
    forall rel: rel(tuple) in REL.
        rel x (tuple -> bool) -> rel   select    syntax _ #[ _ ]
        rel x (tuple -> bool) -> rel   select    syntax _ #[ _ ]
    forall g in GHOST.
        g -> g                         ghost
    forall rel: nope(tuple) in REL.
        rel -> rel                     badpat
    forall rel: rel(tuple) in REL.
        rel x rel -> rel               pair      syntax _ #
        rel -> rel                     shadow    syntax _ #
        rel -> bool                    shadow    syntax _ #
        rel x tuple ~> bool            badinsert
        rel -> rel                     twosyntax  syntax _ #
        rel x rel -> rel               twosyntax  syntax _ # _
"""

REP_SPEC = """\
kinds IDENT, DATA, TUPLE, STREAM, REP, ORPHK

type constructors
    -> IDENT  ident
    -> DATA   int, bool
    (ident x DATA)+ -> TUPLE  tuple
    TUPLE -> STREAM  stream
    TUPLE -> REP  usedrep
    TUPLE -> ORPHK  orphanrep

operators
    forall r: usedrep(tuple) in REP.
        r -> stream(tuple)  feed  syntax _ #
"""


def _line_of(text: str, needle: str) -> int:
    for i, line in enumerate(text.splitlines(), start=1):
        if needle in line:
            return i
    raise AssertionError(f"{needle!r} not in fixture")


def _by_code(report: LintReport) -> dict:
    out = {}
    for d in report:
        out.setdefault(d.code, []).append(d)
    return out


class TestSpecPass:
    def test_bad_spec_fires_every_code(self):
        report = lint_spec(BAD_SPEC, source="bad.sos")
        codes = {d.code for d in report}
        assert codes == {
            "SOS001", "SOS002", "SOS003", "SOS004", "SOS005",
            "SOS006", "SOS007", "SOS009", "SOS010",
        }
        assert not report.ok

    def test_spans_point_at_declarations(self):
        report = lint_spec(BAD_SPEC, source="bad.sos")
        found = _by_code(report)
        # The duplicate is the *second* select spec.
        dup_line = [
            i for i, line in enumerate(BAD_SPEC.splitlines(), start=1)
            if "select" in line
        ][-1]
        assert found["SOS002"][0].span == (dup_line, 9)
        assert found["SOS001"][0].span == (_line_of(BAD_SPEC, "ghost"), 9)
        assert found["SOS004"][0].span == (_line_of(BAD_SPEC, "badpat"), 9)
        assert found["SOS006"][0].span == (_line_of(BAD_SPEC, "pair"), 9)
        # The cycle is reported on the edge that closes it.
        assert found["SOS007"][0].line == _line_of(BAD_SPEC, "relrep(tuple) <")
        assert found["SOS009"][0].span == (_line_of(BAD_SPEC, "badinsert"), 9)

    def test_subjects_name_the_operator(self):
        report = lint_spec(BAD_SPEC, source="bad.sos")
        found = _by_code(report)
        assert found["SOS002"][0].subject == "select"
        assert found["SOS003"][0].subject == "shadow"
        assert found["SOS005"][0].subject == "twosyntax"
        assert found["SOS009"][0].subject == "badinsert"

    def test_parse_failure_is_sos000_with_span(self):
        report = lint_spec(
            "kinds A\n\ntype constructors\n    nonsense -> A  x",
            source="broken.sos",
        )
        (diag,) = list(report)
        assert diag.code == "SOS000"
        assert diag.severity == "error"
        assert diag.span == (4, 5)
        assert not report.ok

    def test_unreachable_rep_constructor(self):
        report = lint_spec(REP_SPEC, source="rep.sos", level="rep")
        subjects = {d.subject for d in report if d.code == "SOS008"}
        assert "orphanrep" in subjects
        assert "usedrep" not in subjects
        (orphan,) = [
            d for d in report
            if d.code == "SOS008" and d.subject == "orphanrep"
        ]
        assert orphan.line == _line_of(REP_SPEC, "orphanrep")

    def test_subtype_path_makes_rep_reachable(self):
        linked = REP_SPEC.replace(
            "operators",
            "subtypes\n    orphanrep(tuple) < usedrep(tuple)\n\noperators",
        )
        report = lint_spec(linked, source="rep.sos", level="rep")
        subjects = {d.subject for d in report if d.code == "SOS008"}
        assert "orphanrep" not in subjects

    def test_text_rendering(self):
        report = lint_spec(BAD_SPEC, source="bad.sos")
        text = report.render_text()
        assert "bad.sos:" in text
        assert "error: SOS002 [select]:" in text
        assert "error(s)" in text

    def test_json_rendering(self):
        report = lint_spec(BAD_SPEC, source="bad.sos")
        payload = json.loads(report.render_json())
        assert payload["ok"] is False
        assert payload["errors"] == len(report.errors)
        codes = {d["code"] for d in payload["diagnostics"]}
        assert "SOS007" in codes
        sos2 = next(
            d for d in payload["diagnostics"] if d["code"] == "SOS002"
        )
        assert sos2["line"] is not None and sos2["column"] == 9

    def test_bundled_models_are_clean(self):
        from repro.models.complex_objects import complex_object_model
        from repro.models.graph import graph_model
        from repro.models.nested import nested_relational_model
        from repro.models.relational import relational_model

        from repro.lint import lint_signature

        for factory in (
            relational_model,
            nested_relational_model,
            complex_object_model,
            graph_model,
        ):
            sos = factory()[0]
            report = lint_signature(sos, source=factory.__name__)
            assert len(report) == 0, report.render_text()


REP1 = RuleVar("rep1", type_pattern=TypeApp("srel", (PVar("tuple1"),)))
REL1 = RuleVar("rel1", type_pattern=TypeApp("rel", (PVar("tuple1"),)))


@pytest.fixture()
def db(system):
    return system.database


def _codes_for(rules, db):
    report = lint_rules(
        rules, db.sos, catalogs=database_catalogs(db), source="<test>"
    )
    return report, {d.code for d in report}


class TestRulePass:
    def test_rul001_unbound_rhs_variable(self, db):
        rule = RewriteRule(
            "unbound_rhs",
            rule_vars(REP1, RuleVar("other")),
            Apply("feed", (Var("rep1"),)),
            Var("other"),
        )
        report, codes = _codes_for([rule], db)
        assert codes == {"RUL001"}
        assert "other" in report.errors[0].message

    def test_rul002_unbound_condition_variable(self, db):
        rule = RewriteRule(
            "unbound_cond",
            rule_vars(REP1),
            Apply("feed", (Var("rep1"),)),
            Var("rep1"),
            (TypeCondition("ghost", TypeApp("relrep", (PVar("t"),))),),
        )
        _, codes = _codes_for([rule], db)
        assert codes == {"RUL002"}

    def test_rul003_dead_rule(self, db):
        rule = RewriteRule(
            "dead",
            rule_vars(REL1),
            Apply("no_such_op", (Var("rel1"),)),
            Var("rel1"),
        )
        _, codes = _codes_for([rule], db)
        # A dead rule is only reported dead, not additionally untypeable.
        assert codes == {"RUL003"}

    def test_rul004_type_changing_rewrite(self, db):
        """select(rel, true) => count(feed(rep)) drops a relation to an
        int — the symbolic check catches it without running a query."""
        rule = RewriteRule(
            "drop_to_count",
            rule_vars(REL1),
            Apply(
                "select",
                (Var("rel1"), Fun((("t1", PVar("tuple1")),), Literal(True))),
            ),
            Apply("count", (Apply("feed", (Var("rep1"),)),)),
            (
                CatalogCondition("rep", ("rel1", "rep1")),
                TypeCondition(
                    "rep1", TypeApp("relrep", (PVar("tuple1"),)), subtype_ok=True
                ),
            ),
        )
        report, codes = _codes_for([rule], db)
        assert codes == {"RUL004"}
        assert "rel" in report.errors[0].message
        assert "int" in report.errors[0].message

    def test_rul005_unknown_catalog(self, db):
        rule = RewriteRule(
            "nocat",
            rule_vars(REP1),
            Apply("feed", (Var("rep1"),)),
            Var("rep1"),
            (CatalogCondition("mystery", ("rep1", "r")),),
        )
        report, codes = _codes_for([rule], db)
        assert codes == {"RUL005"}
        assert report.ok  # warning, not error

    def test_rul006_direct_loop(self, db):
        forward = RewriteRule(
            "loop_a", rule_vars(REP1), Apply("feed", (Var("rep1"),)), Var("rep1")
        )
        backward = RewriteRule(
            "loop_b", rule_vars(REP1), Var("rep1"), Apply("feed", (Var("rep1"),))
        )
        report, codes = _codes_for([forward, backward], db)
        assert codes == {"RUL006"}
        assert "loop_a" in report.warnings[0].message
        assert "loop_b" in report.warnings[0].message

    def test_rul008_lhs_fails_symbolic_typecheck(self, db):
        rule = RewriteRule(
            "bad_lhs",
            rule_vars(REL1),
            Apply("count", (Var("rel1"),)),  # count consumes streams
            Literal(0),
        )
        _, codes = _codes_for([rule], db)
        assert codes == {"RUL008"}

    def test_rul004_checks_every_instance_of_a_type_variable(self, db):
        """The RHS compares the indexed attribute with an int literal: that
        typechecks only when ``dtype`` is int, the one instance a synthetic
        tuple would try.  With ``dtype`` a metavariable it is flagged."""

        def select_eq(value):
            pred = Apply("=", (Apply("attr", (Var("t1"),)), value))
            return Apply("select", (Var("rel1"), Fun((("t1", PVar("tuple1")),), pred)))

        attr = RuleVar("attr", fun_args=(PVar("tuple1"),), fun_result=PVar("dtype"))
        rule = RewriteRule(
            "constant_zero",
            rule_vars(REL1, attr, RuleVar("c1")),
            select_eq(Var("c1")),
            select_eq(Literal(0)),
        )
        report, codes = _codes_for([rule], db)
        assert codes == {"RUL004"}
        assert "RHS does not typecheck" in report.errors[0].message

    def test_representation_change_is_type_preserving(self, db):
        """rel(t) => srel(t) keeps the content schema; no RUL004."""
        rule = RewriteRule(
            "to_rep",
            rule_vars(REL1),
            Apply("feed", (Var("rep1"),)),
            Var("rep1"),
            (
                CatalogCondition("rep", ("rel1", "rep1")),
                TypeCondition(
                    "rep1", TypeApp("relrep", (PVar("tuple1"),)), subtype_ok=True
                ),
            ),
        )
        report, _ = _codes_for([rule], db)
        assert len(report) == 0, report.render_text()

    def test_standard_rules_lint_clean(self, system):
        """Every bundled optimization rule is statically proven
        type-preserving (and binds every variable it uses)."""
        report = lint_database(
            system.database, system.optimizer, source="standard"
        )
        assert len(report) == 0, report.render_text()


class TestSuppressions:
    def test_scan_trailing_and_standalone(self):
        text = (
            "line one\n"
            "bad decl  -- lint: disable=SOS002\n"
            "-- lint: disable=SOS009,SOS010\n"
            "the next line\n"
        )
        file_wide, by_line = scan_suppressions(text)
        assert file_wide == set()
        assert by_line[2] == {"SOS002"}
        # A standalone comment suppresses its own line and the next.
        assert by_line[3] == by_line[4] == {"SOS009", "SOS010"}

    def test_scan_file_wide(self):
        file_wide, by_line = scan_suppressions("-- lint: disable-file=SOS010\n")
        assert file_wide == {"SOS010"}
        assert 1 not in by_line

    def test_inline_suppression_drops_diagnostic(self):
        suppressed = BAD_SPEC.replace(
            "rel x tuple ~> bool            badinsert",
            "rel x tuple ~> bool            badinsert"
            "  -- lint: disable=SOS009",
        )
        report = lint_spec(suppressed, source="bad.sos")
        assert "SOS009" not in {d.code for d in report}
        assert "SOS002" in {d.code for d in report}  # others unaffected

    def test_file_wide_suppression(self):
        suppressed = "-- lint: disable-file=SOS010\n" + BAD_SPEC
        report = lint_spec(suppressed, source="bad.sos")
        assert "SOS010" not in {d.code for d in report}

    def test_report_suppress_by_code(self):
        report = LintReport(
            [Diagnostic("SOS010", "x"), Diagnostic("SOS002", "y")]
        )
        kept = report.suppress(codes=["SOS010"])
        assert [d.code for d in kept] == ["SOS002"]


class TestDiagnostics:
    def test_every_code_has_severity_and_summary(self):
        for code, (severity, summary) in CODES.items():
            assert severity in ("error", "warn", "info")
            assert summary

    def test_default_severity_from_table(self):
        assert Diagnostic("RUL004", "m").severity == "error"
        assert Diagnostic("RUL006", "m").severity == "warn"
        assert Diagnostic("SOS010", "m").severity == "info"

    def test_render_shape(self):
        diag = Diagnostic(
            "SOS002", "dup", source="f.sos", subject="op", line=3, column=9
        )
        assert diag.render() == "f.sos:3:9: error: SOS002 [op]: dup"

    def test_sorted_puts_errors_first(self):
        report = LintReport(
            [Diagnostic("SOS010", "i"), Diagnostic("SOS002", "e")]
        )
        assert [d.code for d in report.sorted()] == ["SOS002", "SOS010"]


def _broken_optimizer():
    rule = RewriteRule(
        "drop_type",
        rule_vars(REL1),
        Apply(
            "select",
            (Var("rel1"), Fun((("t1", PVar("tuple1")),), Literal(True))),
        ),
        Apply("count", (Apply("feed", (Var("rep1"),)),)),
        (
            CatalogCondition("rep", ("rel1", "rep1")),
            TypeCondition(
                "rep1", TypeApp("relrep", (PVar("tuple1"),)), subtype_ok=True
            ),
        ),
    )
    return Optimizer([OptimizerStep("broken", [rule])])


class TestSessionIntegration:
    def test_session_lint_clean(self):
        report = connect().lint()
        assert len(report) == 0, report.render_text()

    def test_connect_strict_accepts_standard_stack(self):
        session = connect(lint="strict")
        assert session.query("1 + 1").value == 2

    def test_connect_strict_rejects_broken_optimizer(self):
        with pytest.raises(LintError) as exc:
            connect(optimizer=_broken_optimizer(), lint="strict")
        assert "RUL004" in str(exc.value)
        report = exc.value.report
        assert report is not None and not report.ok

    def test_connect_warn_emits_warnings(self):
        with pytest.warns(UserWarning, match="RUL004"):
            connect(optimizer=_broken_optimizer(), lint="warn")

    def test_connect_rejects_bad_lint_mode(self):
        with pytest.raises(CatalogError):
            connect(lint="pedantic")

    def test_model_session_lints_signature_only(self):
        report = connect(model="model").lint()
        assert report.ok
