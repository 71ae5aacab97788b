"""Secondary indexes over TID relations in the rep model (Section 6)."""

import pytest

from repro.errors import NoMatchingOperator, TypeFormationError
from repro.storage.io import GLOBAL_PAGES


@pytest.fixture()
def session(system):
    system.run(
        """
type item = tuple(<(sku, string), (price, int)>)
create heap : tidrel(item)
"""
    )
    heap = system.database.objects["heap"].value
    from repro.models.relational import make_tuple

    item_t = system.database.aliases["item"]
    for i in range(200):
        heap.insert(make_tuple(item_t, sku=f"sku{i:03d}", price=i * 3))
    system.run_one("create idx : sindex(item, price, int)")
    system.run_one("update idx := build_index(heap, price)")
    return system


class TestTypeSystem:
    def test_sindex_type_checked(self, system):
        system.run("type t = tuple(<(a, int)>)")
        parser = system.make_parser()
        system.database.sos.type_system.check_type(
            parser.parse_type("sindex(t, a, int)")
        )
        with pytest.raises(TypeFormationError):
            system.database.sos.type_system.check_type(
                parser.parse_type("sindex(t, ghost, int)")
            )

    def test_build_index_result_type(self, session):
        obj = session.database.objects["idx"]
        assert obj.type.constructor == "sindex"
        assert obj.value is not None


class TestQueries:
    def test_sindex_range(self, session):
        r = session.run_one("query idx sindex_range[30, 45]")
        assert sorted(t.attr("price") for t in r.value) == [30, 33, 36, 39, 42, 45]

    def test_sindex_exact(self, session):
        r = session.run_one("query idx sindex_exact[99]")
        assert [t.attr("sku") for t in r.value] == ["sku033"]

    def test_halfrange_with_bottom(self, session):
        r = session.run_one("query idx sindex_range[bottom, 9] count")
        assert r.value == 4  # 0, 3, 6, 9

    def test_composes_with_streams(self, session):
        r = session.run_one('query idx sindex_range[0, 30] filter[sku != "sku005"] count')
        assert r.value == 10

    def test_wrong_key_type_rejected(self, session):
        with pytest.raises(NoMatchingOperator):
            session.run_one('query idx sindex_range["a", "b"]')

    def test_matches_heap_scan(self, session):
        via_index = session.run_one("query idx sindex_range[60, 120]")
        via_scan = session.run_one(
            "query heap feed filter[fun (i: item) i price >= 60 and i price <= 120]"
        )
        a = sorted(t.attr("sku") for t in via_index.value)
        b = sorted(t.attr("sku") for t in via_scan.value)
        assert a == b


class TestUnclusteredCost:
    def test_each_hit_costs_a_heap_fetch(self, session):
        """The unclustered access pattern: one page read per matching
        tuple, on top of the index descent."""
        before = GLOBAL_PAGES.stats.snapshot()
        r = session.run_one("query idx sindex_range[0, 597] count")
        reads = GLOBAL_PAGES.stats.delta(before).reads
        assert r.value == 200
        assert reads >= 200  # at least one heap fetch per hit

        before = GLOBAL_PAGES.stats.snapshot()
        session.run_one("query heap feed count")
        scan_reads = GLOBAL_PAGES.stats.delta(before).reads
        # A full scan reads each heap page once — far fewer than 200.
        assert scan_reads < 20
