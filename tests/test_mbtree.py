"""Multi-attribute B-trees with prefix queries.

Section 4 mentions them ("ordered first by one attribute, then for equal
values by a second attribute ... together with a query operator specifying
values for a prefix of the attributes") but omits the definitions for lack
of space; this is that definition, and its tests.
"""

import pytest

from repro.core.types import TypeApp
from repro.errors import NoMatchingOperator, TypeFormationError
from repro.storage import BTree
from repro.storage.io import PageManager


@pytest.fixture()
def session(system):
    system.run(
        """
type person = tuple(<(country, string), (town, string), (age, int)>)
create people_idx : mbtree(person, <(country, string), (town, string)>)
"""
    )
    rows = [
        ("DE", "Hagen", 30),
        ("DE", "Hagen", 40),
        ("DE", "Berlin", 25),
        ("FR", "Lyon", 35),
        ("FR", "Paris", 28),
        ("CH", "Zurich", 50),
    ]
    for country, town, age in rows:
        system.run_one(
            f'update people_idx := insert(people_idx, mktuple[<(country, "{country}"), '
            f'(town, "{town}"), (age, {age})>])'
        )
    return system


class TestTypeSystem:
    def test_well_formed(self, system):
        system.run("type t = tuple(<(a, string), (b, int)>)")
        t = system.make_parser().parse_type(
            "mbtree(t, <(a, string), (b, int)>)"
        )
        system.database.sos.type_system.check_type(t)

    def test_unknown_attribute_rejected(self, system):
        system.run("type t = tuple(<(a, string), (b, int)>)")
        bad = system.make_parser().parse_type(
            "mbtree(t, <(ghost, string)>)"
        )
        with pytest.raises(TypeFormationError):
            system.database.sos.type_system.check_type(bad)

    def test_wrong_dtype_rejected(self, system):
        system.run("type t = tuple(<(a, string), (b, int)>)")
        bad = system.make_parser().parse_type("mbtree(t, <(a, int)>)")
        with pytest.raises(TypeFormationError):
            system.database.sos.type_system.check_type(bad)

    def test_duplicate_key_attr_rejected(self, system):
        system.run("type t = tuple(<(a, string), (b, int)>)")
        bad = system.make_parser().parse_type(
            "mbtree(t, <(a, string), (a, string)>)"
        )
        with pytest.raises(TypeFormationError):
            system.database.sos.type_system.check_type(bad)

    def test_subtype_of_relrep(self, session):
        t = session.database.objects["people_idx"].type
        tuple_t = t.args[0]
        assert session.database.sos.subtypes.is_subtype(
            t, TypeApp("relrep", (tuple_t,))
        )


class TestQueries:
    def test_scan_is_lexicographic(self, session):
        r = session.run_one("query people_idx feed")
        keys = [(t.attr("country"), t.attr("town")) for t in r.value]
        assert keys == sorted(keys)

    def test_prefix_one_attribute(self, session):
        r = session.run_one('query people_idx prefix[<"DE">]')
        assert sorted(t.attr("town") for t in r.value) == ["Berlin", "Hagen", "Hagen"]

    def test_prefix_two_attributes(self, session):
        r = session.run_one('query people_idx prefix[<"DE", "Hagen">]')
        assert sorted(t.attr("age") for t in r.value) == [30, 40]

    def test_prefix_no_match(self, session):
        r = session.run_one('query people_idx prefix[<"XX">]')
        assert r.value == []

    def test_prefix_feeds_into_streams(self, session):
        r = session.run_one('query people_idx prefix[<"FR">] filter[age > 30] count')
        assert r.value == 1

    def test_prefix_wrong_type_rejected(self, session):
        with pytest.raises(NoMatchingOperator):
            session.run_one("query people_idx prefix[<42>]")

    def test_prefix_too_long_rejected(self, session):
        with pytest.raises(NoMatchingOperator):
            session.run_one('query people_idx prefix[<"DE", "Hagen", "x">]')


class TestStoragePrefix:
    def test_matches_reference(self):
        import random

        rng = random.Random(4)
        bt = BTree(key=lambda t: (t[0], t[1]), order=4, pages=PageManager())
        items = [(rng.randrange(8), rng.randrange(8), i) for i in range(300)]
        for t in items:
            bt.insert(t)
        for a in range(8):
            assert sorted(bt.prefix_search((a,))) == sorted(
                t for t in items if t[0] == a
            )
            for b in range(8):
                assert sorted(bt.prefix_search((a, b))) == sorted(
                    t for t in items if t[0] == a and t[1] == b
                )

    def test_empty_prefix_scans_all(self):
        bt = BTree(key=lambda t: (t[0],), order=4, pages=PageManager())
        for i in range(10):
            bt.insert((i,))
        assert len(list(bt.prefix_search(()))) == 10
