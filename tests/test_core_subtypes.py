"""Subtype specifications (paper Section 4)."""

import pytest

from repro.core.patterns import PVar, instantiate_pattern, match_type
from repro.core.subtypes import SubtypeRelation, SubtypeRule
from repro.core.terms import walk_terms
from repro.core.types import Sym, Type, TypeApp, tuple_type, walk_type
from repro.errors import SpecificationError

INT = TypeApp("int")
CITY = tuple_type([("name", TypeApp("string")), ("pop", INT)])

BTREE_CITY = TypeApp("btree", (CITY, Sym("pop"), INT))
SREL_CITY = TypeApp("srel", (CITY,))
RELREP_CITY = TypeApp("relrep", (CITY,))


@pytest.fixture()
def relation():
    rel = SubtypeRelation()
    rel.add(
        SubtypeRule(
            TypeApp("btree", (PVar("tuple"), PVar("a"), PVar("d"))),
            TypeApp("relrep", (PVar("tuple"),)),
        )
    )
    rel.add(SubtypeRule(TypeApp("srel", (PVar("tuple"),)), TypeApp("relrep", (PVar("tuple"),))))
    return rel


class TestRules:
    def test_right_side_variables_must_be_bound(self):
        with pytest.raises(SpecificationError):
            SubtypeRule(TypeApp("a", (PVar("x"),)), TypeApp("b", (PVar("y"),)))


class TestRelation:
    def test_btree_is_relrep(self, relation):
        assert relation.is_subtype(BTREE_CITY, RELREP_CITY)

    def test_srel_is_relrep(self, relation):
        assert relation.is_subtype(SREL_CITY, RELREP_CITY)

    def test_reflexive(self, relation):
        assert relation.is_subtype(CITY, CITY)

    def test_not_symmetric(self, relation):
        assert not relation.is_subtype(RELREP_CITY, BTREE_CITY)

    def test_tuple_argument_must_agree(self, relation):
        other = TypeApp("relrep", (tuple_type([("x", INT)]),))
        assert not relation.is_subtype(BTREE_CITY, other)

    def test_supertypes_include_self(self, relation):
        sups = relation.supertypes(BTREE_CITY)
        assert BTREE_CITY in sups
        assert RELREP_CITY in sups

    def test_transitivity(self):
        rel = SubtypeRelation(
            [
                SubtypeRule(TypeApp("a", (PVar("t"),)), TypeApp("b", (PVar("t"),))),
                SubtypeRule(TypeApp("b", (PVar("t"),)), TypeApp("c", (PVar("t"),))),
            ]
        )
        assert rel.is_subtype(TypeApp("a", (INT,)), TypeApp("c", (INT,)))

    def test_cyclic_rules_terminate(self):
        rel = SubtypeRelation(
            [
                SubtypeRule(TypeApp("a", (PVar("t"),)), TypeApp("b", (PVar("t"),))),
                SubtypeRule(TypeApp("b", (PVar("t"),)), TypeApp("a", (PVar("t"),))),
            ]
        )
        assert rel.is_subtype(TypeApp("a", (INT,)), TypeApp("b", (INT,)))
        assert rel.is_subtype(TypeApp("b", (INT,)), TypeApp("a", (INT,)))


def _fresh_closure(rules, t):
    """The supertypes of ``t`` straight from the rules, no table."""
    seen, frontier = [t], [t]
    while frontier:
        current = frontier.pop()
        for rule in rules:
            bindings = match_type(rule.sub, current)
            if bindings is None:
                continue
            sup = instantiate_pattern(rule.sup, bindings)
            if isinstance(sup, Type) and sup not in seen:
                seen.append(sup)
                frontier.append(sup)
    return seen


class TestClosureTable:
    QUERIES = (
        "cities select[pop >= 5000]",
        "cities select[pop > 100] states join[center inside region]",
        "cities_rep feed filter[pop > 10] count",
        "states_rep feed count",
    )

    def _bundled_types(self, system):
        db = system.database
        found = [obj.type for obj in db.objects.values()]
        found += list(db.aliases.values())
        city = db.aliases["city"]
        found += [TypeApp("srel", (city,)), TypeApp("tidrel", (city,))]
        for query in self.QUERIES:
            result = system.run_one("query " + query)
            for term in (result.term, result.translated_term or result.term):
                found += [n.type for n in walk_terms(term) if n.type is not None]
        types = []
        for t in found:
            for part in walk_type(t):
                if isinstance(part, Type) and part not in types:
                    types.append(part)
        return types

    def test_table_equals_a_fresh_closure_for_every_type(self, loaded_system):
        subtypes = loaded_system.database.sos.subtypes
        types = self._bundled_types(loaded_system)
        assert any(len(subtypes.supertypes(t)) > 1 for t in types)
        for t in types:
            closure = subtypes.supertypes(t)
            assert subtypes.supertypes(t) is closure  # read from the table
            assert closure[0] == t
            fresh = _fresh_closure(subtypes.rules, t)
            assert len(closure) == len(fresh) and set(closure) == set(fresh)

    def test_wildcards_never_enter_the_table(self, relation):
        """A type with metavariables in it, as the rule lint checks with,
        has its closure computed but never kept."""
        open_btree = TypeApp("btree", (PVar("t"), Sym("pop"), INT))
        assert relation.supertypes(PVar("t")) == (PVar("t"),)
        assert len(relation.supertypes(open_btree)) == 2
        assert open_btree not in relation._closures
        assert relation.is_subtype(BTREE_CITY, RELREP_CITY)
        assert not any(
            isinstance(part, PVar)
            for key in relation._closures
            for part in walk_type(key)
        )

    def test_add_clears_the_table(self, relation):
        assert relation.supertypes(TypeApp("a", (INT,))) == (TypeApp("a", (INT,)),)
        relation.add(SubtypeRule(TypeApp("a", (PVar("t"),)), TypeApp("b", (PVar("t"),))))
        assert relation.is_subtype(TypeApp("a", (INT,)), TypeApp("b", (INT,)))
