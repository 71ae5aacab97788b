"""The representation model: type system and execution algebra (Section 4).

Type system (on top of the hybrid base level)::

    kinds ORD, STREAM, SREL, TIDREL, BTREE, LSDTREE, RELREP
    type constructors
        TUPLE -> STREAM                          stream
        TUPLE -> SREL                            srel
        TUPLE -> TIDREL                          tidrel
        TUPLE -> RELREP                          relrep
        TUPLE x ident x ORD -> BTREE             btree     (attr variant)
        TUPLE x (tuple -> ORD) -> BTREE          btree     (function variant)
        TUPLE x (tuple -> rect) -> LSDTREE       lsdtree
    subtypes
        srel(tuple) < relrep(tuple)      tidrel(tuple) < relrep(tuple)
        btree(...)  < relrep(tuple)      lsdtree(...)  < relrep(tuple)

plus ``int``/``string`` also belonging to ``ORD``.  The constructor spec of
the attr-variant B-tree requires ``(attrname, dtype)`` to name an actual
component of the tuple type, exactly as in the paper.

Operators: ``feed``, ``filter``, ``project``, ``replace``, ``collect``,
``range``, ``exact``, ``point_search``, ``overlap_search``, ``search_join``,
``head``, ``count``, the polymorphic constants ``bottom`` / ``top``, and the
structure update functions of Section 6 (``insert``, ``stream_insert``,
``delete``, ``modify``, ``re_insert`` on B-trees; inserts and deletes on the
other structures).
"""

from __future__ import annotations

from operator import itemgetter

from repro.core.algebra import Closure, SecondOrderAlgebra, Stream
from repro.core.constructors import ConstructorSpec
from repro.core.operators import Quantifier, TypeOperator
from repro.core.sorts import ListSort
from repro.core.sos import SecondOrderSignature, SignatureBuilder
from repro.core.types import (
    FunType,
    PBind,
    PVar,
    ProductType,
    Sym,
    TermArg,
    Type,
    TypeApp,
    attr_index,
    attr_type,
    attrs_of,
    concat_tuple_types,
    format_type,
)
from repro.errors import ExecutionError
from repro.models.base import IDENT_T, add_base_level, register_base_carriers
from repro.models.common import BOOL, INT
from repro.rep import streams as st
from repro.storage import BOTTOM_KEY, TOP_KEY, BTree, LSDTree, SRel, TidRelation

RECT_T = TypeApp("rect")
POINT_T = TypeApp("point")

STREAM_PATTERN = TypeApp("stream", (PVar("tuple"),))
RELREP_PATTERN = TypeApp("relrep", (PVar("tuple"),))
BTREE3_PATTERN = TypeApp("btree", (PVar("tuple"), PVar("attrname"), PVar("dtype")))
LSD_PATTERN = TypeApp("lsdtree", (PVar("tuple"), PVar("f")))


# ---------------------------------------------------------------------------
# Key functions from structure types
# ---------------------------------------------------------------------------


def tuple_attr_getter(tuple_t: Type, name: str):
    """A key function reading one attribute (attr-variant B-tree): the
    component of a tuple carrier at the attribute's position."""
    return itemgetter(attr_index(tuple_t, name)[0])


def structure_key(ctx, rep_type: TypeApp):
    """The key function of a B-tree / LSD-tree type.

    For ``btree(tuple, attrname, dtype)`` this is an attribute getter; for
    the function variants the embedded (typechecked) lambda term becomes a
    closure over the evaluator.
    """
    args = rep_type.args
    if rep_type.constructor == "btree" and len(args) == 3:
        assert isinstance(args[1], Sym)
        return tuple_attr_getter(args[0], args[1].name)
    term_arg = args[1]
    if not isinstance(term_arg, TermArg):
        raise ExecutionError(
            f"{format_type(rep_type)} has no usable key function"
        )
    return Closure(term_arg.term, {}, ctx.evaluator)


def _new_structure(ctx):
    """Build an empty representation structure from the expected type."""
    t = ctx.result_type
    assert isinstance(t, TypeApp)
    if t.constructor == "btree":
        structure = BTree(key=structure_key(ctx, t))
    elif t.constructor == "mbtree":
        structure = BTree(key=mbtree_key(t), name="mbtree")
    elif t.constructor == "lsdtree":
        structure = LSDTree(key=structure_key(ctx, t))
    elif t.constructor == "tidrel":
        structure = TidRelation()
    elif t.constructor == "srel":
        structure = SRel()
    else:
        raise ExecutionError(f"cannot create a structure of type {format_type(t)}")
    structure.rep_type = t
    structure.tuple_type = t.args[0]
    return structure


# ---------------------------------------------------------------------------
# Type operators
# ---------------------------------------------------------------------------


def _search_join_type(type_system, binds, descriptors) -> Type:
    out = concat_tuple_types(binds["tuple1"], binds["tuple2"])
    return TypeApp("stream", (out,))


def _project_type(type_system, binds, descriptors) -> Type:
    pairs = descriptors[1]
    attrs = []
    for sym, fn_type in pairs:
        attrs.append((sym.name, fn_type.result))
    names = [a for a, _ in attrs]
    if len(set(names)) != len(names):
        raise ValueError("duplicate attribute names in project")
    from repro.core.types import tuple_type as make_tuple_type

    return TypeApp("stream", (make_tuple_type(attrs),))


def _replace_post_check(type_system, binds, descriptors):
    attr = descriptors[1]
    fn_type = descriptors[2]
    tup = binds["tuple"]
    expected = attr_type(tup, attr.name)
    if expected is None:
        return f"tuple type {format_type(tup)} has no attribute {attr.name}"
    if fn_type.result != expected:
        return (
            f"value function yields {format_type(fn_type.result)}, attribute "
            f"{attr.name} has type {format_type(expected)}"
        )
    return None


# ---------------------------------------------------------------------------
# Operator implementations
# ---------------------------------------------------------------------------


def _feed_impl(ctx, rep) -> Stream:
    return st.feed(ctx.result_type.args[0], rep.scan())


def _filter_impl(ctx, stream: Stream, pred) -> Stream:
    return st.filter_stream(stream, pred)


def _project_impl(ctx, stream: Stream, fields: list) -> Stream:
    return st.project_stream(ctx.result_type.args[0], stream, fields)


def _replace_impl(ctx, stream: Stream, attr: Sym, fn) -> Stream:
    return st.replace_stream(stream, attr.name, fn)


def _collect_impl(ctx, stream: Stream) -> SRel:
    srel = SRel(stream)
    srel.rep_type = ctx.result_type
    srel.tuple_type = ctx.result_type.args[0]
    return srel


def _head_impl(ctx, stream: Stream, n: int) -> Stream:
    return st.head_stream(stream, n)


def _count_impl(ctx, stream: Stream) -> int:
    return sum(1 for _ in stream)


def _attr_getter(ctx, attr: Sym, binding: str = "tuple"):
    """The key function of attribute ``attr`` of the tuple type bound to
    ``binding`` during typechecking."""
    return tuple_attr_getter(ctx.binding_type(binding), attr.name)


def _sortby_impl(ctx, stream: Stream, attr: Sym) -> Stream:
    return st.sort_stream(stream, _attr_getter(ctx, attr))


def _rdup_impl(ctx, stream: Stream) -> Stream:
    return st.rdup_stream(stream)


def _sortby_post_check(type_system, binds, descriptors):
    attr = descriptors[1]
    tup = binds["tuple"]
    if attr_type(tup, attr.name) is None:
        return f"tuple type {format_type(tup)} has no attribute {attr.name}"
    return None


def _agg_value_type(type_system, binds, descriptors):
    """Result type of min/max/sum: the type of the aggregated attribute."""
    attr = descriptors[1]
    tup = binds["tuple"]
    dtype = attr_type(tup, attr.name)
    if dtype is None:
        raise ValueError(f"tuple type has no attribute {attr.name}")
    return dtype


def _aggregate(fn, empty_error):
    def impl(ctx, stream: Stream, attr: Sym):
        values = list(map(_attr_getter(ctx, attr), stream))
        if not values:
            raise ExecutionError(empty_error)
        return fn(values)

    return impl


def _groupby_type(type_system, binds, descriptors) -> Type:
    """Result type of groupby: the grouping attribute plus one attribute
    per aggregate function."""
    tup = binds["tuple"]
    attr = descriptors[1]
    key_type = attr_type(tup, attr.name)
    if key_type is None:
        raise ValueError(f"tuple type has no attribute {attr.name}")
    attrs = [(attr.name, key_type)]
    for sym, fn_type in descriptors[2]:
        if sym.name == attr.name or sym.name in {a for a, _ in attrs}:
            raise ValueError(f"duplicate attribute {sym.name} in groupby")
        attrs.append((sym.name, fn_type.result))
    from repro.core.types import tuple_type as make_tuple_type

    return TypeApp("stream", (make_tuple_type(attrs),))


def _groupby_impl(ctx, stream: Stream, attr: Sym, aggregates: list) -> Stream:
    """Group by one attribute; each aggregate function receives the group's
    tuples as a fresh stream — a genuinely second-order operand."""
    out_tuple = ctx.result_type.args[0]
    tuple_t = ctx.binding_type("tuple")
    groups: dict = {}
    order: list = []
    get = _attr_getter(ctx, attr)
    for t in stream:
        key = get(t)
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(t)

    def gen():
        for key in order:
            values = [key]
            for _, fn in aggregates:
                values.append(fn(Stream(tuple_t, iter(groups[key]))))
            yield tuple(values)

    return Stream(out_tuple, gen())


def _avg_impl(ctx, stream: Stream, attr: Sym) -> float:
    values = list(map(_attr_getter(ctx, attr), stream))
    if not values:
        raise ExecutionError("avg over an empty stream")
    return sum(values) / len(values)


def _range_impl(ctx, btree: BTree, low, high) -> Stream:
    return st.feed(ctx.result_type.args[0], btree.range_search(low, high))


def _exact_impl(ctx, btree: BTree, key) -> Stream:
    return st.feed(ctx.result_type.args[0], btree.exact_search(key))


def _point_search_impl(ctx, lsd: LSDTree, p) -> Stream:
    return st.feed(ctx.result_type.args[0], lsd.point_search(p))


def _overlap_search_impl(ctx, lsd: LSDTree, r) -> Stream:
    return st.feed(ctx.result_type.args[0], lsd.overlap_search(r))


def _search_join_impl(ctx, outer: Stream, inner_fn) -> Stream:
    return st.search_join_stream(ctx.result_type.args[0], outer, inner_fn)


def _merge_join_impl(ctx, left: Stream, right: Stream, a1: Sym, a2: Sym) -> Stream:
    return st.merge_join_stream(
        ctx.result_type.args[0],
        left,
        right,
        _attr_getter(ctx, a1, "tuple1"),
        _attr_getter(ctx, a2, "tuple2"),
    )


def _hash_join_impl(ctx, left: Stream, right: Stream, a1: Sym, a2: Sym) -> Stream:
    return st.hash_join_stream(
        ctx.result_type.args[0],
        left,
        right,
        _attr_getter(ctx, a1, "tuple1"),
        _attr_getter(ctx, a2, "tuple2"),
    )


def _merge_join_post_check(type_system, binds, descriptors):
    """Both join attributes must exist and have the same (ordered) type."""
    a1, a2 = descriptors[2], descriptors[3]
    t1 = attr_type(binds["tuple1"], a1.name)
    t2 = attr_type(binds["tuple2"], a2.name)
    if t1 is None:
        return f"left tuple type has no attribute {a1.name}"
    if t2 is None:
        return f"right tuple type has no attribute {a2.name}"
    if t1 != t2:
        return (
            f"join attributes differ: {a1.name}: {format_type(t1)} vs "
            f"{a2.name}: {format_type(t2)}"
        )
    return None


def _insert_struct_impl(ctx, structure, t):
    structure.insert(t)
    return structure


def _stream_insert_impl(ctx, structure, stream: Stream):
    structure.stream_insert(stream)
    return structure


def _delete_struct_impl(ctx, structure, stream: Stream):
    structure.delete_tuples(stream)
    return structure


def _wrap_stream_fn(fn, tuple_t):
    """Adapt a closure over streams to the iterator interface the storage
    layer exposes."""

    def wrapped(iterator):
        return fn(Stream(tuple_t, iterator))

    return wrapped


def _modify_struct_impl(ctx, btree: BTree, stream: Stream, fn):
    tuple_t = ctx.binding_type("tuple")
    btree.modify_tuples(stream, _wrap_stream_fn(fn, tuple_t))
    return btree


def _re_insert_struct_impl(ctx, btree: BTree, stream: Stream, fn):
    tuple_t = ctx.binding_type("tuple")
    btree.re_insert_tuples(stream, _wrap_stream_fn(fn, tuple_t))
    return btree


# ---------------------------------------------------------------------------
# Signature assembly
# ---------------------------------------------------------------------------


def _mbtree_spec_check(ts, args):
    """Each (attrname, dtype) pair must name a component of the tuple."""
    tup, keys = args
    from repro.core.types import ArgList, ArgTuple

    if not isinstance(keys, ArgList):
        return "key list expected"
    seen = set()
    for item in keys.items:
        if not (isinstance(item, ArgTuple) and len(item.items) == 2):
            return "key list entries must be (attrname, dtype) pairs"
        sym, dtype = item.items
        expected = attr_type(tup, sym.name)
        if expected is None:
            return f"tuple type has no attribute {sym.name}"
        if expected != dtype:
            return (
                f"attribute {sym.name} has type {format_type(expected)}, "
                f"not {format_type(dtype)}"
            )
        if sym.name in seen:
            return f"duplicate key attribute {sym.name}"
        seen.add(sym.name)
    return None


def mbtree_key(rep_type: TypeApp):
    """The composite (lexicographic) key function of an ``mbtree`` type."""
    from repro.core.types import ArgList

    keys = rep_type.args[1]
    assert isinstance(keys, ArgList)
    tuple_t = rep_type.args[0]
    attrs = attrs_of(tuple_t)
    indices = []
    for item in keys.items:
        sym = item.items[0]
        indices.append(next(i for i, (a, _) in enumerate(attrs) if a == sym.name))

    def key(t):
        return tuple([t[i] for i in indices])

    return key


def _prefix_post_check(type_system, binds, descriptors):
    """The prefix values must match the leading key attribute types."""
    from repro.core.types import ArgList

    mb = binds.get("mbtree")
    values = descriptors[1]
    if not isinstance(mb, TypeApp):
        return "mbtree binding missing"
    keys = mb.args[1]
    assert isinstance(keys, ArgList)
    if len(values) > len(keys.items):
        return (
            f"prefix has {len(values)} value(s), the index has only "
            f"{len(keys.items)} key attribute(s)"
        )
    for i, value_type in enumerate(values):
        declared = keys.items[i].items[1]
        if value_type != declared:
            return (
                f"prefix component {i + 1} has type {format_type(value_type)}, "
                f"key attribute expects {format_type(declared)}"
            )
    return None


def _prefix_impl(ctx, mbtree, values: list) -> Stream:
    return st.feed(ctx.result_type.args[0], mbtree.prefix_search(tuple(values)))


def _btree_attr_spec_check(ts, args):
    tup, sym, dtype = args
    expected = attr_type(tup, sym.name)
    if expected is None:
        return f"tuple type has no attribute {sym.name}"
    if expected != dtype:
        return (
            f"attribute {sym.name} has type {format_type(expected)}, "
            f"not {format_type(dtype)}"
        )
    return None


# ---------------------------------------------------------------------------
# Secondary indexes over TID relations (Section 6: "accessing tuples through
# a sequence of tuple identifiers delivered from a secondary index")
# ---------------------------------------------------------------------------


def _sindex_type(type_system, binds, descriptors) -> Type:
    """Result type of ``build_index``: sindex(tuple, attrname, dtype)."""
    tup = binds["tuple"]
    attr = descriptors[1]
    dtype = attr_type(tup, attr.name)
    if dtype is None:
        raise ValueError(f"tuple type has no attribute {attr.name}")
    return TypeApp("sindex", (tup, attr, dtype))


def _build_index_impl(ctx, base, attr: Sym):
    from repro.storage.tidrel import SecondaryIndex

    index = SecondaryIndex(
        base, key=tuple_attr_getter(base.tuple_type, attr.name)
    )
    index.build()
    index.rep_type = ctx.result_type
    index.tuple_type = base.tuple_type
    return index


def _sindex_range_impl(ctx, index, low, high) -> Stream:
    return st.feed(ctx.result_type.args[0], index.fetch_range(low, high))


def _sindex_exact_impl(ctx, index, value) -> Stream:
    return st.feed(ctx.result_type.args[0], index.fetch_range(value, value))


def add_representation_level(builder: SignatureBuilder) -> None:
    """Install the representation level on top of the base level."""
    tup = builder.kind("TUPLE")
    data = builder.kind("DATA")
    ord_kind = builder.kind("ORD")
    stream_k, srel_k, tidrel_k, btree_k, lsd_k, relrep_k = builder.kinds(
        "STREAM", "SREL", "TIDREL", "BTREE", "LSDTREE", "RELREP"
    )
    builder.kind_member("int", ord_kind)
    builder.kind_member("string", ord_kind)
    builder.kind_member("real", ord_kind)

    builder.constructor("stream", [PVar("", tup)], stream_k, level="rep")
    builder.constructor("srel", [PVar("", tup)], srel_k, level="rep")
    builder.constructor("tidrel", [PVar("", tup)], tidrel_k, level="rep")
    builder.constructor("relrep", [PVar("", tup)], relrep_k, level="rep")
    builder.constructor(
        "btree",
        [PBind("tuple", PVar("", tup)), IDENT_T, PVar("", ord_kind)],
        btree_k,
        spec=ConstructorSpec(
            "(attrname, dtype) must name a component of the tuple type",
            _btree_attr_spec_check,
        ),
        level="rep",
    )
    builder.constructor(
        "btree",
        [
            PBind("tuple", PVar("", tup)),
            FunType((PVar("tuple"),), PVar("", ord_kind)),
        ],
        btree_k,
        level="rep",
    )
    builder.constructor(
        "lsdtree",
        [
            PBind("tuple", PVar("", tup)),
            FunType((PVar("tuple"),), RECT_T),
        ],
        lsd_k,
        level="rep",
    )
    # Multi-attribute B-tree (Section 4 mentions it "for lack of space"):
    # lexicographic ordering over a list of (attrname, dtype) key pairs.
    mbtree_k = builder.kind("MBTREE")
    builder.constructor(
        "mbtree",
        [
            PBind("tuple", PVar("", tup)),
            ListSort(ProductType((IDENT_T, PVar("", ord_kind)))),
        ],
        mbtree_k,
        spec=ConstructorSpec(
            "every (attrname, dtype) must name a component of the tuple",
            _mbtree_spec_check,
        ),
        level="rep",
    )

    # subtypes: every concrete representation is a relrep
    builder.subtype(TypeApp("srel", (PVar("tuple"),)), TypeApp("relrep", (PVar("tuple"),)))
    builder.subtype(TypeApp("tidrel", (PVar("tuple"),)), TypeApp("relrep", (PVar("tuple"),)))
    builder.subtype(BTREE3_PATTERN, TypeApp("relrep", (PVar("tuple"),)))
    builder.subtype(
        TypeApp("btree", (PVar("tuple"), PVar("f"))), TypeApp("relrep", (PVar("tuple"),))
    )
    builder.subtype(LSD_PATTERN, TypeApp("relrep", (PVar("tuple"),)))
    builder.subtype(
        TypeApp("mbtree", (PVar("tuple"), PVar("keys"))),
        TypeApp("relrep", (PVar("tuple"),)),
    )

    # Secondary indexes: access paths over TID relations, not relreps.
    sindex_k = builder.kind("SINDEX")
    builder.constructor(
        "sindex",
        [PBind("tuple", PVar("", tup)), IDENT_T, PVar("", ord_kind)],
        sindex_k,
        spec=ConstructorSpec(
            "(attrname, dtype) must name a component of the tuple type",
            _btree_attr_spec_check,
        ),
        level="rep",
    )

    _add_stream_operators(builder, stream_k, relrep_k, srel_k, data)
    _add_search_operators(builder, btree_k, lsd_k, ord_kind)
    _add_mbtree_operators(builder, mbtree_k, data, stream_k)
    _add_sindex_operators(builder, sindex_k, tidrel_k)
    _add_structure_updates(builder, btree_k, lsd_k, tidrel_k, srel_k, stream_k)


def _add_sindex_operators(builder, sindex_k, tidrel_k) -> None:
    sindex_q = Quantifier(
        "sindex",
        sindex_k,
        TypeApp("sindex", (PVar("tuple"), PVar("attrname"), PVar("dtype"))),
    )
    builder.op(
        "build_index",
        quantifiers=(Quantifier("tidrel", tidrel_k, TypeApp("tidrel", (PVar("tuple"),))),),
        args=(PVar("tidrel"), IDENT_T),
        result=TypeOperator("build_index", sindex_k, _sindex_type),
        impl=_build_index_impl,
        level="rep",
        doc="build a secondary B-tree index over a TID relation",
    )
    builder.op(
        "sindex_range",
        quantifiers=(sindex_q,),
        args=(PVar("sindex"), PVar("dtype"), PVar("dtype")),
        result=STREAM_PATTERN,
        syntax="_ #[ _, _ ]",
        impl=_sindex_range_impl,
        level="rep",
        doc="range query via TIDs: each hit costs one heap page fetch",
    )
    builder.op(
        "sindex_exact",
        quantifiers=(sindex_q,),
        args=(PVar("sindex"), PVar("dtype")),
        result=STREAM_PATTERN,
        syntax="_ #[ _ ]",
        impl=_sindex_exact_impl,
        level="rep",
        doc="exact-match query via TIDs",
    )


def _add_mbtree_operators(builder, mbtree_k, data, stream_k) -> None:
    mbtree_q = Quantifier(
        "mbtree", mbtree_k, TypeApp("mbtree", (PVar("tuple"), PVar("keys")))
    )
    builder.op(
        "prefix",
        quantifiers=(mbtree_q,),
        args=(PVar("mbtree"), ListSort(PVar("", data))),
        result=STREAM_PATTERN,
        syntax="_ #[ _ ]",
        impl=_prefix_impl,
        post_check=_prefix_post_check,
        level="rep",
        doc="multi-attribute prefix query: fix values for a prefix of the "
        "key attributes",
    )
    builder.op(
        "empty",
        quantifiers=(mbtree_q,),
        args=(),
        result=PVar("mbtree"),
        impl=_new_structure,
        level="rep",
        doc="an empty multi-attribute B-tree of the expected type",
    )
    builder.op(
        "insert",
        quantifiers=(mbtree_q,),
        args=(PVar("mbtree"), PVar("tuple")),
        result=PVar("mbtree"),
        impl=_insert_struct_impl,
        is_update=True,
        level="rep",
        doc="insert one tuple into a multi-attribute B-tree",
    )
    builder.op(
        "stream_insert",
        quantifiers=(mbtree_q,),
        args=(PVar("mbtree"), STREAM_PATTERN),
        result=PVar("mbtree"),
        impl=_stream_insert_impl,
        is_update=True,
        level="rep",
        doc="bulk insert into a multi-attribute B-tree",
    )


def _add_stream_operators(builder, stream_k, relrep_k, srel_k, data) -> None:
    stream_q = Quantifier("stream", stream_k, STREAM_PATTERN)
    builder.op(
        "feed",
        quantifiers=(Quantifier("relrep", relrep_k, RELREP_PATTERN),),
        args=(PVar("relrep"),),
        result=STREAM_PATTERN,
        syntax="_ #",
        impl=_feed_impl,
        level="rep",
        doc="stream the tuples of any relation representation",
    )
    builder.op(
        "filter",
        quantifiers=(stream_q,),
        args=(PVar("stream"), FunType((PVar("tuple"),), BOOL)),
        result=PVar("stream"),
        syntax="_ #[ _ ]",
        impl=_filter_impl,
        inline="Stream({0}.tuple_type, filter({1}, {0}))",
        level="rep",
        doc="keep stream tuples satisfying the condition",
    )
    builder.op(
        "project",
        quantifiers=(stream_q,),
        args=(
            PVar("stream"),
            ListSort(
                ProductType(
                    (IDENT_T, FunType((PVar("tuple"),), PVar("", data)))
                )
            ),
        ),
        result=TypeOperator("project", stream_k, _project_type),
        syntax="_ #[ _ ]",
        impl=_project_impl,
        level="rep",
        doc="generalized projection: each output attribute is computed by "
        "a function (an old attribute name also works)",
    )
    builder.op(
        "replace",
        quantifiers=(stream_q,),
        args=(
            PVar("stream"),
            IDENT_T,
            FunType((PVar("tuple"),), PVar("", data)),
        ),
        result=PVar("stream"),
        syntax="_ #[ _, _ ]",
        impl=_replace_impl,
        post_check=_replace_post_check,
        level="rep",
        doc="replace one attribute value in every tuple",
    )
    builder.op(
        "collect",
        quantifiers=(stream_q,),
        args=(PVar("stream"),),
        result=TypeApp("srel", (PVar("tuple"),)),
        syntax="_ #",
        impl=_collect_impl,
        level="rep",
        doc="materialize a stream into a temporary relation",
    )
    builder.op(
        "head",
        quantifiers=(stream_q,),
        args=(PVar("stream"), INT),
        result=PVar("stream"),
        syntax="_ #[ _ ]",
        impl=_head_impl,
        level="rep",
        doc="the first n tuples of a stream",
    )
    builder.op(
        "count",
        quantifiers=(stream_q,),
        args=(PVar("stream"),),
        result=INT,
        syntax="_ #",
        impl=_count_impl,
        level="rep",
        doc="number of tuples in a stream",
    )
    builder.op(
        "sortby",
        quantifiers=(stream_q,),
        args=(PVar("stream"), IDENT_T),
        result=PVar("stream"),
        syntax="_ #[ _ ]",
        impl=_sortby_impl,
        post_check=_sortby_post_check,
        level="rep",
        doc="sort by one attribute (a pipeline breaker)",
    )
    builder.op(
        "rdup",
        quantifiers=(stream_q,),
        args=(PVar("stream"),),
        result=PVar("stream"),
        syntax="_ #",
        impl=_rdup_impl,
        level="rep",
        doc="remove adjacent duplicates (use after sortby)",
    )
    for name, fn in (("min_of", min), ("max_of", max), ("sum_of", sum)):
        builder.op(
            name,
            quantifiers=(stream_q,),
            args=(PVar("stream"), IDENT_T),
            result=TypeOperator(name, builder.kind("DATA"), _agg_value_type),
            syntax="_ #[ _ ]",
            impl=_aggregate(fn, f"{name} over an empty stream"),
            level="rep",
            doc=f"{name.split('_')[0]} of one attribute over a stream",
        )
    builder.op(
        "avg_of",
        quantifiers=(stream_q,),
        args=(PVar("stream"), IDENT_T),
        result=TypeApp("real"),
        syntax="_ #[ _ ]",
        impl=_avg_impl,
        post_check=_sortby_post_check,
        level="rep",
        doc="average of one attribute over a stream",
    )
    builder.op(
        "search_join",
        quantifiers=(
            Quantifier("stream1", stream_k, TypeApp("stream", (PVar("tuple1"),))),
            Quantifier("stream2", stream_k, TypeApp("stream", (PVar("tuple2"),))),
        ),
        args=(
            PVar("stream1"),
            FunType((PVar("tuple1"),), PVar("stream2")),
        ),
        result=TypeOperator("search_join", stream_k, _search_join_type),
        syntax="_ _ #",
        impl=_search_join_impl,
        level="rep",
        doc="general search join: the second argument maps each outer tuple "
        "to a stream of matching inner tuples (scan, filter or index probe)",
    )
    builder.op(
        "groupby",
        quantifiers=(stream_q,),
        args=(
            PVar("stream"),
            IDENT_T,
            ListSort(
                ProductType((IDENT_T, FunType((STREAM_PATTERN,), PVar("", data))))
            ),
        ),
        result=TypeOperator("groupby", stream_k, _groupby_type),
        syntax="_ #[ _, _ ]",
        impl=_groupby_impl,
        level="rep",
        doc="group by one attribute; each (name, fn) aggregate receives the "
        "group's tuples as a stream",
    )
    builder.op(
        "merge_join",
        quantifiers=(
            Quantifier("stream1", stream_k, TypeApp("stream", (PVar("tuple1"),))),
            Quantifier("stream2", stream_k, TypeApp("stream", (PVar("tuple2"),))),
        ),
        args=(
            PVar("stream1"),
            PVar("stream2"),
            IDENT_T,
            IDENT_T,
        ),
        result=TypeOperator("merge_join", stream_k, _search_join_type),
        syntax="_ _ #[ _, _ ]",
        impl=_merge_join_impl,
        post_check=_merge_join_post_check,
        level="rep",
        doc="sort-merge equi-join on one attribute per side (materializes "
        "and sorts both inputs)",
    )
    builder.op(
        "hash_join",
        quantifiers=(
            Quantifier("stream1", stream_k, TypeApp("stream", (PVar("tuple1"),))),
            Quantifier("stream2", stream_k, TypeApp("stream", (PVar("tuple2"),))),
        ),
        args=(
            PVar("stream1"),
            PVar("stream2"),
            IDENT_T,
            IDENT_T,
        ),
        result=TypeOperator("hash_join", stream_k, _search_join_type),
        syntax="_ _ #[ _, _ ]",
        impl=_hash_join_impl,
        post_check=_merge_join_post_check,
        level="rep",
        doc="hash equi-join: build on the right input, probe with the left",
    )


def _add_search_operators(builder, btree_k, lsd_k, ord_kind) -> None:
    btree3_q = Quantifier("btree", btree_k, BTREE3_PATTERN)
    lsd_q = Quantifier("lsdtree", lsd_k, LSD_PATTERN)
    builder.op(
        "range",
        quantifiers=(btree3_q,),
        args=(PVar("btree"), PVar("dtype"), PVar("dtype")),
        result=STREAM_PATTERN,
        syntax="_ #[ _, _ ]",
        impl=_range_impl,
        inline="Stream({elem}, {0}.range_search({1}, {2}))",
        level="rep",
        doc="B-tree range query; bottom/top open the ends (halfranges)",
    )
    builder.op(
        "exact",
        quantifiers=(btree3_q,),
        args=(PVar("btree"), PVar("dtype")),
        result=STREAM_PATTERN,
        syntax="_ #[ _ ]",
        impl=_exact_impl,
        inline="Stream({elem}, {0}.exact_search({1}))",
        level="rep",
        doc="B-tree exact-match query",
    )
    builder.op(
        "point_search",
        quantifiers=(lsd_q,),
        args=(PVar("lsdtree"), POINT_T),
        result=STREAM_PATTERN,
        syntax="_ _ #",
        impl=_point_search_impl,
        inline="Stream({elem}, {0}.point_search({1}))",
        level="rep",
        doc="all tuples whose rectangle contains the query point",
    )
    builder.op(
        "overlap_search",
        quantifiers=(lsd_q,),
        args=(PVar("lsdtree"), RECT_T),
        result=STREAM_PATTERN,
        syntax="_ _ #",
        impl=_overlap_search_impl,
        level="rep",
        doc="all tuples whose rectangle overlaps the query rectangle",
    )
    for name, sentinel in (("bottom", BOTTOM_KEY), ("top", TOP_KEY)):
        builder.op(
            name,
            quantifiers=(Quantifier("ord", ord_kind),),
            args=(),
            result=PVar("ord"),
            impl=(lambda s: lambda ctx: s)(sentinel),
            level="rep",
            doc=f"the {name} element of any ordered domain",
        )


def _add_structure_updates(builder, btree_k, lsd_k, tidrel_k, srel_k, stream_k) -> None:
    btree3_q = Quantifier("btree", btree_k, BTREE3_PATTERN)
    btree2_q = Quantifier(
        "btree", btree_k, TypeApp("btree", (PVar("tuple"), PVar("f")))
    )
    lsd_q = Quantifier("lsdtree", lsd_k, LSD_PATTERN)
    tidrel_q = Quantifier("tidrel", tidrel_k, TypeApp("tidrel", (PVar("tuple"),)))
    srel_q = Quantifier("srel", srel_k, TypeApp("srel", (PVar("tuple"),)))
    stream_fun = FunType((STREAM_PATTERN,), STREAM_PATTERN)

    for quantifier, var in (
        (btree3_q, "btree"),
        (btree2_q, "btree"),
        (lsd_q, "lsdtree"),
        (tidrel_q, "tidrel"),
        (srel_q, "srel"),
    ):
        builder.op(
            "empty",
            quantifiers=(quantifier,),
            args=(),
            result=PVar(var),
            impl=_new_structure,
            level="rep",
            doc=f"an empty {var} structure of the expected type",
        )
        builder.op(
            "insert",
            quantifiers=(quantifier,),
            args=(PVar(var), PVar("tuple")),
            result=PVar(var),
            impl=_insert_struct_impl,
            is_update=True,
            level="rep",
            doc=f"insert one tuple into a {var}",
        )
        builder.op(
            "stream_insert",
            quantifiers=(quantifier,),
            args=(PVar(var), STREAM_PATTERN),
            result=PVar(var),
            impl=_stream_insert_impl,
            is_update=True,
            level="rep",
            doc=f"insert every tuple of a stream into a {var}",
        )

    for quantifier, var in ((btree3_q, "btree"), (btree2_q, "btree"), (lsd_q, "lsdtree")):
        builder.op(
            "delete",
            quantifiers=(quantifier,),
            args=(PVar(var), STREAM_PATTERN),
            result=PVar(var),
            impl=_delete_struct_impl,
            is_update=True,
            level="rep",
            doc=f"delete every tuple of the stream from the {var} (the "
            "stream normally comes from a search on the same structure)",
        )

    for quantifier in (btree3_q, btree2_q):
        builder.op(
            "modify",
            quantifiers=(quantifier,),
            args=(PVar("btree"), STREAM_PATTERN, stream_fun),
            result=PVar("btree"),
            impl=_modify_struct_impl,
            is_update=True,
            level="rep",
            doc="modify the streamed tuples in situ (keys must not change)",
        )
        builder.op(
            "re_insert",
            quantifiers=(quantifier,),
            args=(PVar("btree"), STREAM_PATTERN, stream_fun),
            result=PVar("btree"),
            impl=_re_insert_struct_impl,
            is_update=True,
            level="rep",
            doc="key update: delete each streamed tuple and reinsert its "
            "modified version at the new key position",
        )


# ---------------------------------------------------------------------------
# Carriers
# ---------------------------------------------------------------------------


def _typed_instance(cls):
    def check(algebra, value, t):
        if not isinstance(value, cls):
            return False
        declared = getattr(value, "rep_type", None)
        return declared is None or declared == t

    return check


def register_rep_carriers(algebra: SecondOrderAlgebra) -> None:
    algebra.register_carrier(
        "stream",
        lambda alg, v, t: isinstance(v, Stream) and v.tuple_type == t.args[0],
    )
    algebra.register_carrier("srel", _typed_instance(SRel))
    algebra.register_carrier("tidrel", _typed_instance(TidRelation))
    algebra.register_carrier("btree", _typed_instance(BTree))
    algebra.register_carrier("mbtree", _typed_instance(BTree))
    algebra.register_carrier("lsdtree", _typed_instance(LSDTree))
    from repro.storage.tidrel import SecondaryIndex

    algebra.register_carrier("sindex", _typed_instance(SecondaryIndex))


def representation_model() -> tuple[SecondOrderSignature, SecondOrderAlgebra]:
    """A standalone representation-level signature and algebra (base + rep)."""
    builder = SignatureBuilder()
    add_base_level(builder)
    add_representation_level(builder)
    sos = builder.build()
    algebra = SecondOrderAlgebra(sos)
    register_base_carriers(algebra)
    register_rep_carriers(algebra)
    return sos, algebra
