"""First-order unification of type terms with metavariables."""

from repro.core.kinds import Kind
from repro.core.patterns import match_into
from repro.core.types import FunType, PBind, PVar, Sym, TypeApp, tuple_type
from repro.core.unify import fresh_var, match_unify, resolve, substitute, unify

INT = TypeApp("int")
BOOL = TypeApp("bool")
CITY = tuple_type([("name", TypeApp("string")), ("pop", INT)])


def rel(t):
    return TypeApp("rel", (t,))


class TestUnify:
    def test_binds_a_flexible_variable_either_side(self):
        subst = {}
        x, y = fresh_var(subst), fresh_var(subst)
        assert unify(rel(x), rel(CITY), subst)
        assert unify(INT, y, subst)
        assert resolve(x, subst) == CITY and resolve(y, subst) == INT

    def test_rigid_variable_unifies_only_with_itself(self):
        subst = {}
        assert unify(PVar("tuple1"), PVar("tuple1"), subst)
        assert not unify(PVar("tuple1"), CITY, subst)
        assert not unify(PVar("tuple1"), PVar("tuple2"), subst)
        x = fresh_var(subst)
        assert unify(x, PVar("tuple1"), subst)
        assert substitute(rel(x), subst) == rel(PVar("tuple1"))

    def test_occurs_check(self):
        subst = {}
        x = fresh_var(subst)
        assert not unify(x, rel(x), subst)
        y = fresh_var(subst)
        assert unify(y, rel(INT), subst)
        assert not unify(x, FunType((x,), BOOL), subst)

    def test_chains_substitute_to_any_depth(self):
        subst = {}
        x, y = fresh_var(subst), fresh_var(subst)
        assert unify(x, FunType((y,), BOOL), subst)
        assert unify(y, rel(CITY), subst)
        assert substitute(x, subst) == FunType((rel(CITY),), BOOL)

    def test_mismatch(self):
        subst = {}
        x = fresh_var(subst)
        assert not unify(rel(x), TypeApp("stream", (CITY,)), subst)
        assert not unify(FunType((INT,), BOOL), FunType((INT, INT), BOOL), subst)


class TestMatchUnify:
    def test_is_matching_on_a_ground_type(self):
        pattern = PBind("rel", rel(PBind("tuple", TypeApp("tuple", (PVar("list"),)))))
        for t in (rel(CITY), TypeApp("stream", (CITY,)), rel(INT)):
            matched, unified = {}, {}
            assert match_into(pattern, t, matched) == match_unify(pattern, t, unified, {})
            assert matched == unified

    def test_flexible_operand_takes_the_pattern_shape(self):
        subst = {}
        operand = fresh_var(subst)
        binds = {}
        assert match_unify(rel(PVar("tuple")), operand, binds, subst)
        tuple_var = binds["tuple"]
        assert tuple_var.name in subst
        assert substitute(operand, subst) == rel(tuple_var)
        # A later operand fixes the fresh variable by unification.
        assert match_unify(PVar("tuple"), CITY, binds, subst)
        assert substitute(operand, subst) == rel(CITY)

    def test_bound_pattern_variable_unifies(self):
        subst = {}
        x = fresh_var(subst)
        binds = {"data": x}
        assert match_unify(PVar("data"), INT, binds, subst)
        assert resolve(x, subst) == INT
        assert not match_unify(PVar("data"), BOOL, binds, subst)

    def test_anonymous_variable_binds_nothing_and_is_checked(self):
        data = Kind("DATA")
        seen = []

        def check(var, t, binds):
            seen.append((var.kind, t))
            return t == INT

        binds = {}
        pattern = FunType((PVar("", data), PVar("", data)), PVar("", data))
        assert match_unify(pattern, FunType((INT, INT), INT), binds, {}, check)
        assert binds == {} and len(seen) == 3
        assert not match_into(pattern, FunType((INT, BOOL), INT), {}, check)

    def test_symbols_match_themselves(self):
        pattern = TypeApp("btree", (PVar("t"), PVar("a"), INT))
        binds = {}
        assert match_unify(pattern, TypeApp("btree", (CITY, Sym("pop"), INT)), binds, {})
        assert binds == {"t": CITY, "a": Sym("pop")}
