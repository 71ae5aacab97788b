"""Dump/restore: persistence through the language itself."""

import pytest

from repro.system import dump_program, build_relational_system, restore_program


class TestDumpRestore:
    def test_roundtrip_rebuilds_everything(self, loaded_system):
        text = dump_program(loaded_system.database)
        fresh = build_relational_system()
        restore_program(fresh, text)

        # named types
        assert fresh.database.aliases.keys() == loaded_system.database.aliases.keys()
        # objects
        assert set(fresh.database.objects) == set(loaded_system.database.objects)
        # structure contents
        old_bt = loaded_system.database.objects["cities_rep"].value
        new_bt = fresh.database.objects["cities_rep"].value
        assert sorted(t.attr("cname") for t in old_bt.scan()) == sorted(
            t.attr("cname") for t in new_bt.scan()
        )
        # catalog rows
        assert (
            fresh.database.objects["rep"].value.rows
            == loaded_system.database.objects["rep"].value.rows
        )

    def test_restored_system_answers_queries_identically(self, loaded_system):
        text = dump_program(loaded_system.database)
        fresh = build_relational_system()
        restore_program(fresh, text)
        for query in (
            "query cities select[pop >= 5000]",
            "query cities states join[center inside region]",
        ):
            a = loaded_system.run_one(query)
            b = fresh.run_one(query)
            ka = sorted(t.attr("cname") for t in a.value)
            kb = sorted(t.attr("cname") for t in b.value)
            assert ka == kb

    def test_polygons_round_trip(self, loaded_system):
        text = dump_program(loaded_system.database)
        fresh = build_relational_system()
        restore_program(fresh, text)
        old_lsd = loaded_system.database.objects["states_rep"].value
        new_lsd = fresh.database.objects["states_rep"].value
        old_regions = sorted(str(t.attr("region")) for t in old_lsd.scan())
        new_regions = sorted(str(t.attr("region")) for t in new_lsd.scan())
        assert old_regions == new_regions

    def test_dump_is_readable_program_text(self, loaded_system):
        text = dump_program(loaded_system.database)
        assert text.startswith("-- database dump")
        assert "type city = tuple(<(cname, string)" in text
        assert "create cities : rel(city)" in text
        assert "update rep := insert(rep, cities, cities_rep)" in text
        assert 'mktuple[<(cname, "c0")' in text

    def test_scalar_and_tuple_objects(self, system):
        system.run(
            """
type t = tuple(<(a, int), (flag, bool)>)
create one : t
"""
        )
        from repro.core.algebra import TupleValue

        system.database.set_value(
            "one", TupleValue(system.database.aliases["t"], (7, True))
        )
        text = dump_program(system.database)
        fresh = build_relational_system()
        restore_program(fresh, text)
        restored = fresh.database.objects["one"].value
        assert restored.attr("a") == 7
        assert restored.attr("flag") is True


class TestDumpProperty:
    def test_random_data_roundtrips(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        @given(
            st.lists(
                st.tuples(
                    st.text(
                        alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=8
                    ),
                    st.integers(-10**6, 10**6),
                    st.floats(-100, 100, allow_nan=False),
                    st.booleans(),
                ),
                max_size=15,
            )
        )
        @settings(max_examples=20, deadline=None)
        def check(rows):
            system = build_relational_system()
            system.run(
                """
type row = tuple(<(s, string), (i, int), (r, real), (b, bool)>)
create data : srel(row)
"""
            )
            from repro.models.relational import make_tuple

            srel = system.database.objects["data"].value
            row_t = system.database.aliases["row"]
            for s, i, r, b in rows:
                srel.append(make_tuple(row_t, s=s, i=i, r=r, b=b))
            text = dump_program(system.database)
            fresh = build_relational_system()
            restore_program(fresh, text)
            restored = fresh.database.objects["data"].value
            assert sorted(map(repr, restored.scan())) == sorted(
                map(repr, srel.scan())
            )

        check()


class TestUndumpableValues:
    def test_function_valued_objects_become_notes(self):
        from repro.system import build_model_interpreter

        interp = build_model_interpreter()
        interp.run(
            """
type t = tuple(<(a, int)>)
create r : rel(t)
create v : (-> rel(t))
update v := fun () r select[a > 0]
"""
        )
        text = dump_program(interp.database)
        assert "-- note: function-valued object v is not dumped" in text

    def test_graph_values_become_notes(self):
        from repro.catalog import Database
        from repro.models.graph import graph_model
        from repro.system import SOSSystem

        sos, algebra = graph_model()
        interp = SOSSystem(Database(sos, algebra))
        interp.run(
            """
type n = tuple(<(a, int)>)
create g : graph(n, n)
"""
        )
        text = dump_program(interp.database)
        assert "no program representation" in text


class TestBoolLiterals:
    def test_true_false_in_expressions(self, system):
        assert system.run_one("query true").value is True
        assert system.run_one("query false and true").value is False
        assert system.run_one("query not(false)").value is True

    def test_bool_in_mktuple(self, system):
        r = system.run_one("query mktuple[<(ok, true)>]")
        assert r.value.attr("ok") is True


class TestAllStructuresRoundTrip:
    """One database holding every storage structure — BTree, LSDTree, SRel,
    TidRelation and a SecondaryIndex — plus statistics, dumped and restored
    twice: the round trip is exact and re-restoring is idempotent (the
    second restore's ``create`` statements are skipped, not errors)."""

    @pytest.fixture()
    def full_system(self, system):
        system.run(
            """
type item = tuple(<(sku, string), (price, int)>)
type spot = tuple(<(tag, string), (region, rect)>)
create bt : btree(item, price, int)
create lsd : lsdtree(spot, fun (s: spot) s region)
create sr : srel(item)
create heap : tidrel(item)
create idx : sindex(item, price, int)
create items : rel(item)
update rep := insert(rep, items, bt)
"""
        )
        for i in range(12):
            t = f'mktuple[<(sku, "sku{i:03d}"), (price, {i * 5})>]'
            system.run_one(f"update bt := insert(bt, {t})")
            system.run_one(f"update heap := insert(heap, {t})")
        for i in range(4):
            system.run_one(
                f'update sr := insert(sr, mktuple[<(sku, "s{i}"), (price, {i})>])'
            )
            system.run_one(
                f"update lsd := insert(lsd, mktuple[<(tag, \"t{i}\"), "
                f"(region, box({i}.0, 0.0, {i + 1}.0, 1.0))>])"
            )
        system.run_one("update idx := build_index(heap, price)")
        system.run_one("analyze bt, heap, sr")
        return system

    def test_roundtrip_is_exact_over_every_structure(self, full_system):
        text = dump_program(full_system.database)
        fresh = build_relational_system()
        restore_program(fresh, text)
        assert dump_program(fresh.database) == text
        # the rebuilt secondary index answers point lookups over the
        # rebuilt heap (it indexes the restored structure, not a copy)
        r = fresh.run_one("query idx sindex_exact[25]")
        assert [t.attr("sku") for t in r.value] == ["sku005"]
        # statistics were recreated by the dump's analyze statement
        assert set(fresh.database.stats.entries) >= {"bt", "heap", "sr"}

    def test_restore_is_idempotent(self, full_system):
        text = dump_program(full_system.database)
        fresh = build_relational_system()
        restore_program(fresh, text)
        restore_program(fresh, text)  # replays data, skips existing creates
        # inserts replayed twice double the heap, but nothing errors and
        # the catalog stays consistent
        assert set(fresh.database.objects) == set(full_system.database.objects)

    def test_dump_is_deterministic(self, full_system):
        assert dump_program(full_system.database) == dump_program(
            full_system.database
        )

    def test_rep_catalog_create_round_trips(self, full_system):
        text = dump_program(full_system.database)
        assert "create rep : " in text
        fresh = build_relational_system()  # pre-creates rep itself
        restore_program(fresh, text)
        assert (
            fresh.database.objects["rep"].value.rows
            == full_system.database.objects["rep"].value.rows
        )


INDEXED_HEAP = """
type item = tuple(<(sku, string), (price, int)>)
create heap : tidrel(item)
create idx : sindex(item, price, int)
update heap := insert(heap, mktuple[<(sku, "a"), (price, 1)>])
update idx := build_index(heap, price)
update heap := insert(heap, mktuple[<(sku, "b"), (price, 2)>])
"""


class TestSecondaryIndexAfterHeapWrite:
    """A write to the heap after ``build_index`` replaces the heap instance
    the index holds by a copy; the dump must still name the index's base,
    in process and under MVCC."""

    @pytest.mark.parametrize("runner", ["system", "engine"])
    def test_dump_names_build_index_over_the_heap(self, runner):
        if runner == "system":
            system = build_relational_system()
            system.run(INDEXED_HEAP)
            text = dump_program(system.database)
        else:
            from repro.server import MVCCEngine

            engine = MVCCEngine()
            engine.session().run(INDEXED_HEAP)
            text = engine.dump()
        assert "update idx := build_index(heap, price)" in text
        fresh = build_relational_system()
        restore_program(fresh, text)
        for price, sku in ((1, "a"), (2, "b")):
            r = fresh.run_one(f"query idx sindex_exact[{price}]")
            assert [t.attr("sku") for t in r.value] == [sku]
