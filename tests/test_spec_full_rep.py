"""The complete Section 4 representation specification, loaded from text.

This is the strongest form of the paper's extensibility claim: the *entire*
representation level — constructors with dependent specs, subtype order,
stream and search operators — is a specification string; only the algebra
(implementation functions, type operators, constructor constraints) is
attached by name.  The resulting system answers the paper's spatial join.
"""

import pytest

from repro.catalog import Database
from repro.core.algebra import SecondOrderAlgebra
from repro.core.constructors import ConstructorSpec
from repro.core.sos import SignatureBuilder
from repro.models.base import add_base_level, register_base_carriers
from repro.rep import model as repm
from repro.spec import parse_spec
from repro.system import SOSSystem

REP_SPEC = """
kinds ORD, STREAM, SREL, BTREE, LSDTREE, RELREP

type constructors
    TUPLE -> STREAM                                stream
    TUPLE -> SREL                                  srel
    TUPLE -> RELREP                                relrep
    tuple: TUPLE x ident x ORD -> BTREE            btree
    tuple: TUPLE x (tuple -> ORD) -> BTREE         btree
    tuple: TUPLE x (tuple -> rect) -> LSDTREE      lsdtree

subtypes
    srel(tuple) < relrep(tuple)
    btree(tuple, attrname, dtype) < relrep(tuple)
    btree(tuple, f) < relrep(tuple)
    lsdtree(tuple, f) < relrep(tuple)

operators
    forall relrep: relrep(tuple) in RELREP.
        relrep -> stream(tuple)                      feed           syntax _ #
    forall stream: stream(tuple) in STREAM.
        stream x (tuple -> bool) -> stream           filter         syntax _ #[ _ ]
        stream -> srel(tuple)                        collect        syntax _ #
        stream -> int                                count          syntax _ #
    forall stream1: stream(tuple1) in STREAM. forall stream2: stream(tuple2) in STREAM.
        stream1 x (tuple1 -> stream2) -> s: STREAM   search_join    syntax _ _ #
    forall btree: btree(tuple, attrname, dtype) in BTREE.
        btree x dtype x dtype -> stream(tuple)       range          syntax _ #[ _, _ ]
        -> btree                                     empty
        btree x tuple ~> btree                       insert
    forall lsdtree: lsdtree(tuple, f) in LSDTREE.
        lsdtree x point -> stream(tuple)             point_search   syntax _ _ #
        -> lsdtree                                   empty
        lsdtree x tuple ~> lsdtree                   insert
    forall ord in ORD.
        -> ord                                       bottom, top
"""

from repro.storage import BOTTOM_KEY, TOP_KEY

IMPLS = {
    "feed": repm._feed_impl,
    "filter": repm._filter_impl,
    "collect": repm._collect_impl,
    "count": repm._count_impl,
    "search_join": repm._search_join_impl,
    "range": repm._range_impl,
    "point_search": repm._point_search_impl,
    "empty": repm._new_structure,
    "insert": repm._insert_struct_impl,
    "bottom": lambda ctx: BOTTOM_KEY,
    "top": lambda ctx: TOP_KEY,
}

TYPE_OPERATORS = {"search_join": repm._search_join_type}

CONSTRUCTOR_SPECS = {
    ("btree", 3): ConstructorSpec(
        "(attrname, dtype) must name a component of the tuple type",
        repm._btree_attr_spec_check,
    )
}


@pytest.fixture()
def interp():
    builder = SignatureBuilder()
    add_base_level(builder)
    parse_spec(
        REP_SPEC,
        builder=builder,
        impls=IMPLS,
        type_operators=TYPE_OPERATORS,
        constructor_specs=CONSTRUCTOR_SPECS,
        level="rep",
    )
    builder.kind_member("int", "ORD")
    builder.kind_member("string", "ORD")
    sos = builder.build()
    algebra = SecondOrderAlgebra(sos)
    register_base_carriers(algebra)
    repm.register_rep_carriers(algebra)
    return SOSSystem(Database(sos, algebra))


@pytest.fixture()
def loaded(interp):
    interp.run(
        """
type city = tuple(<(cname, string), (center, point), (pop, int)>)
type state = tuple(<(sname, string), (region, pgon)>)
create cities_rep : btree(city, pop, int)
create states_rep : lsdtree(state, fun (s: state) bbox(s region))
"""
    )
    for i in range(4):
        interp.run_one(
            "update states_rep := insert(states_rep, "
            f'mktuple[<(sname, "s{i}"), (region, region_box({i * 25}, 0, {i * 25 + 25}, 100))>])'
        )
    for i in range(12):
        interp.run_one(
            "update cities_rep := insert(cities_rep, "
            f'mktuple[<(cname, "c{i}"), (center, pt({i * 8 + 2}, 50)), (pop, {i * 100})>])'
        )
    return interp


class TestSpecLoadedRepSystem:
    def test_both_btree_variants_loaded(self, interp):
        assert len(interp.database.sos.type_system.overloads("btree")) == 2

    def test_constructor_spec_applies_to_attr_variant_only(self, interp):
        parser = interp.make_parser()
        interp.run("type t = tuple(<(a, int)>)")
        from repro.errors import TypeFormationError

        with pytest.raises(TypeFormationError):
            interp.database.sos.type_system.check_type(
                parser.parse_type("btree(t, ghost, int)")
            )
        interp.database.sos.type_system.check_type(
            parser.parse_type("btree(t, fun (x: t) x a)")
        )

    def test_feed_filter_count(self, loaded):
        r = loaded.run_one("query cities_rep feed filter[pop >= 500] count")
        assert r.value == 7

    def test_range_with_constants(self, loaded):
        r = loaded.run_one("query cities_rep range[bottom, 300] count")
        assert r.value == 4

    def test_spatial_join_through_text_spec(self, loaded):
        r = loaded.run_one(
            """
query cities_rep feed
      fun (c: city) states_rep (c center) point_search
                    filter[fun (s: state) c center inside s region]
      search_join count
"""
        )
        # 12 cities; the one at x = 50 sits on a shared state boundary and
        # matches both neighbours (boundary counts as inside), hence 13.
        assert r.value == 13
