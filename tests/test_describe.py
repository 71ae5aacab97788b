"""Signature introspection: describe_signature renders the paper layout."""

import pytest

from repro.models.relational import relational_model
from repro.spec import describe_operator, describe_signature, parse_spec


@pytest.fixture()
def sos():
    return relational_model()[0]


class TestDescribe:
    def test_kinds_line(self, sos):
        text = describe_signature(sos)
        assert text.startswith("kinds ")
        assert "REL" in text.splitlines()[0]

    def test_constructor_lines(self, sos):
        text = describe_signature(sos)
        assert "-> DATA" in text
        assert "TUPLE -> REL   rel" in text

    def test_operator_lines(self, sos):
        text = describe_signature(sos)
        assert "forall rel: rel(tuple) in REL." in text
        assert str(sos.operators("select")[0].quantifiers[0]) == (
            "forall rel: rel(tuple) in REL"
        )
        assert "syntax _ #[ _ ]" in text
        assert "attribute access" in text

    def test_update_arrow(self, sos):
        spec = sos.operators("insert")[0]
        assert "~>" in describe_operator(spec)

    def test_type_operator_result(self, sos):
        spec = sos.operators("join")[0]
        assert "join: REL" in describe_operator(spec)

    def test_level_filter(self):
        from repro.rep.model import representation_model

        sos, _ = representation_model()
        rep_only = describe_signature(sos, level="rep")
        assert "search_join" in rep_only
        assert "mktuple" not in rep_only  # hybrid

    def test_description_reparses(self, sos):
        """The rendered constant constructors and simple operators round-trip
        through the spec parser (smoke-level: the spec loads without error)."""
        spec_text = """
kinds IDENT, DATA, TUPLE, REL

type constructors
    -> IDENT   ident
    -> DATA    int, real, string, bool
    (ident x DATA)+ -> TUPLE   tuple
    TUPLE -> REL   rel

operators
    forall rel: rel(tuple) in REL.
        rel x (tuple -> bool) -> rel   select   syntax _ #[ _ ]
"""
        reparsed = parse_spec(spec_text)
        rendered = describe_signature(reparsed)
        assert "select" in rendered
