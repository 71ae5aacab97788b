"""Page-manager accounting and signature merging."""

import pytest

from repro.core.sos import SecondOrderSignature
from repro.errors import SpecificationError
from repro.models.relational import relational_model
from repro.rep.model import representation_model
from repro.storage.io import IOStats, PageManager


class TestPageManager:
    def test_allocation_and_counters(self):
        pm = PageManager()
        a = pm.allocate()
        b = pm.allocate()
        assert a != b
        pm.read(a)
        pm.read(a)
        pm.write(b)
        assert pm.stats.reads == 2
        assert pm.stats.writes == 1
        assert pm.stats.total == 3
        assert pm.stats.pages_allocated == 2

    def test_free(self):
        pm = PageManager()
        page = pm.allocate()
        pm.free(page)
        assert pm.stats.pages_allocated == 0

    def test_measure_context(self):
        pm = PageManager()
        page = pm.allocate()
        pm.read(page)
        with pm.measure() as m:
            pm.read(page)
            pm.write(page)
        assert m.delta.reads == 1
        assert m.delta.writes == 1
        # measurement does not disturb the running totals
        assert pm.stats.reads == 2

    def test_snapshot_delta(self):
        stats = IOStats(reads=5, writes=2, pages_allocated=1)
        later = IOStats(reads=9, writes=2, pages_allocated=2)
        delta = later.delta(stats)
        assert (delta.reads, delta.writes, delta.pages_allocated) == (4, 0, 1)

    def test_reset(self):
        stats = IOStats(reads=5)
        stats.reset()
        assert stats.total == 0


class TestSignatureMerge:
    def test_merging_model_and_rep_signatures(self):
        model_sos, _ = relational_model()
        rep_sos, _ = representation_model()
        merged = model_sos.merge(rep_sos)
        # shared hybrid constructors unify; level-specific ones coexist
        assert len(merged.type_system.overloads("tuple")) == 1
        assert merged.type_system.has_constructor("rel")
        assert merged.type_system.has_constructor("btree")
        # operators from both sides are present
        assert merged.is_operator("select")
        assert merged.is_operator("feed")
        # subtypes carried over
        from repro.core.types import Sym, TypeApp, tuple_type

        city = tuple_type([("pop", TypeApp("int"))])
        assert merged.subtypes.is_subtype(
            TypeApp("btree", (city, Sym("pop"), TypeApp("int"))),
            TypeApp("relrep", (city,)),
        )
        # extra kind memberships survive the merge
        assert merged.type_system.has_kind(TypeApp("int"), "ORD")

    def test_conflicting_constructor_rejected(self):
        a = SecondOrderSignature()
        b = SecondOrderSignature()
        from repro.core.constructors import TypeConstructor
        from repro.core.types import PVar

        ka = a.type_system.add_kind("K")
        kb = b.type_system.add_kind("K")
        other = b.type_system.add_kind("OTHER")
        a.type_system.add_constructor(TypeConstructor("c", (PVar("", ka),), ka))
        b.type_system.add_constructor(TypeConstructor("c", (PVar("", other),), kb))
        with pytest.raises(SpecificationError):
            a.merge(b)

    def test_merged_typechecking_works(self):
        model_sos, model_alg = relational_model()
        rep_sos, _ = representation_model()
        merged = model_sos.merge(rep_sos)
        from repro.core.typecheck import TypeChecker
        from repro.core.types import Sym, TypeApp, rel_type, tuple_type
        from repro.core.terms import Apply, Var

        city = tuple_type([("pop", TypeApp("int"))])
        objects = {
            "cities": rel_type(city),
            "cities_rep": TypeApp("btree", (city, Sym("pop"), TypeApp("int"))),
        }
        tc = TypeChecker(merged, object_types=objects.get)
        term = tc.check(Apply("feed", (Var("cities_rep"),)))
        assert term.type == TypeApp("stream", (city,))
