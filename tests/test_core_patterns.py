"""Type pattern matching — reproduces Figure 1 of the paper (E7).

A pattern is a type term with some subtrees cut off and replaced by
variables (``PVar``) and some internal nodes labelled by variables
(``PBind``).  The property tests check that definition directly on types
built from the relational and representation constructors.
"""

import itertools

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.patterns import (
    PBind,
    PVar,
    instantiate_pattern,
    match_type,
    pattern_variables,
)
from repro.core.types import (
    ArgList,
    ArgTuple,
    FunType,
    Lit,
    Sym,
    TypeApp,
    tuple_type,
    walk_type,
)

INT = TypeApp("int")
STRING = TypeApp("string")

PERSON = tuple_type([("name", STRING), ("age", INT)])
STREAM_PERSON = TypeApp("stream", (PERSON,))


class TestFigure1:
    """The term tree / pattern of the paper's Figure 1."""

    FIG1 = PBind(
        "stream",
        TypeApp("stream", (PBind("tuple", TypeApp("tuple", (PVar("list"),))),)),
    )

    def test_pattern_matches_and_binds_all_variables(self):
        bindings = match_type(self.FIG1, STREAM_PERSON)
        assert bindings is not None
        assert bindings["stream"] == STREAM_PERSON
        assert bindings["tuple"] == PERSON
        assert bindings["list"] == PERSON.args[0]

    def test_bound_list_holds_the_attribute_pairs(self):
        bindings = match_type(self.FIG1, STREAM_PERSON)
        pairs = bindings["list"]
        assert isinstance(pairs, ArgList)
        assert pairs.items[0] == ArgTuple((Sym("name"), STRING))

    def test_wrong_outer_constructor_fails(self):
        assert match_type(self.FIG1, TypeApp("srel", (PERSON,))) is None

    def test_inner_node_must_be_tuple(self):
        assert match_type(self.FIG1, TypeApp("stream", (INT,))) is None


class TestMatching:
    def test_pvar_binds_anything(self):
        assert match_type(PVar("x"), INT) == {"x": INT}

    def test_nonlinear_pattern_requires_equal(self):
        # union: rel+ -> rel relies on repeated variables matching equally
        pattern = TypeApp("pair", (PVar("x"), PVar("x")))
        ok = TypeApp("pair", (INT, INT))
        bad = TypeApp("pair", (INT, STRING))
        assert match_type(pattern, ok) is not None
        assert match_type(pattern, bad) is None

    def test_existing_bindings_are_respected(self):
        assert match_type(PVar("x"), INT, {"x": STRING}) is None
        assert match_type(PVar("x"), INT, {"x": INT}) == {"x": INT}

    def test_input_bindings_not_mutated(self):
        seed = {}
        match_type(PVar("x"), INT, seed)
        assert seed == {}

    def test_symbols_and_literals_match_themselves(self):
        assert match_type(Sym("pop"), Sym("pop")) is not None
        assert match_type(Sym("pop"), Sym("name")) is None
        assert match_type(Lit(4), Lit(4)) is not None
        assert match_type(Lit(4), Lit(5)) is None

    def test_function_type_pattern(self):
        pattern = FunType((PVar("a"),), PVar("r"))
        t = FunType((PERSON,), TypeApp("bool"))
        bindings = match_type(pattern, t)
        assert bindings == {"a": PERSON, "r": TypeApp("bool")}

    def test_variables_below_lists_and_tuples(self):
        pattern = TypeApp("tuple", (ArgList((ArgTuple((Sym("name"), PVar("t"))), PVar("rest"))),))
        bindings = match_type(pattern, PERSON)
        assert bindings == {"t": STRING, "rest": ArgTuple((Sym("age"), INT))}

    def test_arity_mismatch(self):
        assert match_type(TypeApp("rel", (PVar("t"),)), TypeApp("rel", ())) is None


class TestInstantiation:
    def test_roundtrip(self):
        pattern = TypeApp("rel", (PVar("t"),))
        t = TypeApp("rel", (PERSON,))
        bindings = match_type(pattern, t)
        assert instantiate_pattern(pattern, bindings) == t

    def test_subtype_rule_shape(self):
        # btree(tuple, attr, dtype) instantiated as relrep(tuple)
        bindings = match_type(
            TypeApp("btree", (PVar("tuple"), PVar("a"), PVar("d"))),
            TypeApp("btree", (PERSON, Sym("age"), INT)),
        )
        sup = instantiate_pattern(TypeApp("relrep", (PVar("tuple"),)), bindings)
        assert sup == TypeApp("relrep", (PERSON,))

    def test_unbound_variable_raises(self):
        with pytest.raises(KeyError):
            instantiate_pattern(PVar("nope"), {})

    def test_subtrees_without_variables_are_shared(self):
        pattern = TypeApp("rel", (PERSON,))
        assert instantiate_pattern(pattern, {}) is pattern


class TestPatternVariables:
    def test_collects_all(self):
        pattern = PBind(
            "s", TypeApp("stream", (PBind("t", TypeApp("tuple", (PVar("l"),))),))
        )
        assert pattern_variables(pattern) == {"s", "t", "l"}


# ---------------------------------------------------------------------------
# Figure 1's definition as a property
# ---------------------------------------------------------------------------

ATOMS = [TypeApp(n) for n in ("int", "real", "string", "bool", "point", "pgon")]
ATTRS = ["name", "pop", "area", "center"]


@st.composite
def model_types(draw):
    """A type built from the relational and representation constructors."""
    attrs = draw(
        st.lists(st.sampled_from(ATTRS), min_size=1, max_size=3, unique=True)
    )
    tup = tuple_type([(a, draw(st.sampled_from(ATOMS))) for a in attrs])
    key = draw(st.sampled_from(attrs))
    key_type = dict(_pairs(tup))[key]
    return draw(
        st.sampled_from(
            [
                tup,
                TypeApp("rel", (tup,)),
                TypeApp("srel", (tup,)),
                TypeApp("tidrel", (tup,)),
                TypeApp("stream", (tup,)),
                TypeApp("relrep", (tup,)),
                TypeApp("btree", (tup, Sym(key), key_type)),
                FunType((tup,), key_type),
                TypeApp("string", (Lit(len(attrs)),)),
            ]
        )
    )


def _pairs(tup):
    return [(item.items[0].name, item.items[1]) for item in tup.args[0].items]


def _children(t):
    if isinstance(t, TypeApp):
        return t.args
    if isinstance(t, (ArgList, ArgTuple)):
        return t.items
    if isinstance(t, FunType):
        return t.args + (t.result,)
    return ()


def _paths(t, path=()):
    """The position of every node of ``t``, pre-order."""
    yield path
    for i, child in enumerate(_children(t)):
        yield from _paths(child, path + (i,))


def _at(t, path):
    for i in path:
        t = _children(t)[i]
    return t


def _replace(t, path, new):
    if not path:
        return new
    children = list(_children(t))
    children[path[0]] = _replace(children[path[0]], path[1:], new)
    return _rebuild(t, children)


def _rebuild(t, children):
    if isinstance(t, TypeApp):
        return TypeApp(t.constructor, tuple(children))
    if isinstance(t, (ArgList, ArgTuple)):
        return type(t)(tuple(children))
    if isinstance(t, FunType):
        return FunType(tuple(children[:-1]), children[-1])
    return t


@st.composite
def type_and_pattern(draw):
    """A type, and a pattern of it: random subtrees cut off to fresh
    ``PVar``s and random internal nodes labelled with fresh ``PBind``s.
    Also returns the subtree each cut replaced."""
    t = draw(model_types())
    fresh = itertools.count()
    cuts = {}

    def cut(node, top):
        choice = draw(st.sampled_from(["keep", "keep", "cut", "label"]))
        if choice == "cut" and not top:
            name = f"v{next(fresh)}"
            cuts[name] = node
            return PVar(name)
        inner = _rebuild(node, [cut(c, False) for c in _children(node)])
        if choice == "label" and _children(node):
            return PBind(f"b{next(fresh)}", inner)
        return inner

    return t, cut(t, True), cuts


def _rename_first_constructor(p):
    """``p`` with the constructor of its first constructor node (pre-order)
    replaced by one no type uses."""
    done = False

    def go(node):
        nonlocal done
        if isinstance(node, PBind):
            return PBind(node.name, go(node.pattern))
        if isinstance(node, TypeApp) and not done:
            done = True
            return TypeApp(node.constructor + "_x", node.args)
        return _rebuild(node, [go(c) for c in _children(node)])

    return go(p), done


class TestFigure1Property:
    @settings(max_examples=150, deadline=None)
    @given(type_and_pattern())
    def test_match_binds_every_variable(self, case):
        t, p, cuts = case
        bindings = match_type(p, t)
        assert bindings is not None
        assert set(bindings) == pattern_variables(p)
        for name, subtree in cuts.items():
            assert bindings[name] == subtree

    @settings(max_examples=150, deadline=None)
    @given(type_and_pattern())
    def test_instantiation_rebuilds_the_type(self, case):
        t, p, _ = case
        assert instantiate_pattern(p, match_type(p, t)) == t

    @settings(max_examples=150, deadline=None)
    @given(model_types(), st.data())
    def test_repeated_variable_matches_only_equal_subtrees(self, t, data):
        # Cut two disjoint subtrees to the same variable.
        paths = list(_paths(t))[1:]
        first = data.draw(st.sampled_from(paths))
        disjoint = [q for q in paths if q[: len(first)] != first and first[: len(q)] != q]
        assume(disjoint)
        second = data.draw(st.sampled_from(disjoint))
        repeated = _replace(_replace(t, first, PVar("x")), second, PVar("x"))
        matched = match_type(repeated, t)
        assert (matched is not None) == (_at(t, first) == _at(t, second))

    @settings(max_examples=150, deadline=None)
    @given(type_and_pattern())
    def test_changing_one_constructor_fails(self, case):
        t, p, _ = case
        changed, found = _rename_first_constructor(p)
        assume(found)
        assert match_type(changed, t) is None

    @settings(max_examples=150, deadline=None)
    @given(type_and_pattern(), st.data())
    def test_unbound_variable_is_named(self, case, data):
        t, p, cuts = case
        assume(cuts)
        missing = data.draw(st.sampled_from(sorted(cuts)))
        bindings = {name: sub for name, sub in cuts.items() if name != missing}
        with pytest.raises(KeyError, match=f"variable: {missing}'"):
            instantiate_pattern(p, bindings)

    def test_no_variables_matches_only_itself(self):
        for t in walk_type(STREAM_PERSON):
            assert match_type(t, t) == {}
        assert match_type(PERSON, tuple_type([("name", STRING), ("age", STRING)])) is None
