"""Term pattern matching for rules (Section 5 machinery)."""

import pytest

from repro.core.patterns import PVar
from repro.core.terms import Apply, Fun, Literal, Var, same_term
from repro.core.typecheck import TypeChecker
from repro.core.types import FunType, TypeApp, rel_type, tuple_type
from repro.models.relational import relational_model
from repro.optimizer.termmatch import (
    MatchState,
    RuleVar,
    instantiate,
    match_pattern,
)

INT = TypeApp("int")
STRING = TypeApp("string")
CITY = tuple_type([("cname", STRING), ("pop", INT)])
CITIES = rel_type(CITY)


@pytest.fixture()
def env():
    sos, _ = relational_model()
    tc = TypeChecker(sos, object_types={"cities": CITIES}.get)
    return sos, tc


def checked_select(tc, op=">", value=1000):
    return tc.check(
        Apply(
            "select",
            (
                Var("cities"),
                Fun(
                    (("t", CITY),),
                    Apply(op, (Apply("pop", (Var("t"),)), Literal(value))),
                ),
            ),
        )
    )


SELECT_PATTERN = Apply(
    "select",
    (
        Var("rel1"),
        Fun(
            (("t1", PVar("tuple1")),),
            Apply(">", (Apply("attr", (Var("t1"),)), Var("c1"))),
        ),
    ),
)

SELECT_VARS = {
    "rel1": RuleVar("rel1", type_pattern=TypeApp("rel", (PVar("tuple1"),))),
    "attr": RuleVar("attr", fun_args=(PVar("tuple1"),), fun_result=PVar("dtype")),
    "c1": RuleVar("c1"),
}


class TestMatching:
    def test_select_shape_matches(self, env):
        sos, tc = env
        subject = checked_select(tc)
        state = match_pattern(SELECT_PATTERN, subject, SELECT_VARS, MatchState(), sos)
        assert state is not None
        assert state.tbinds["tuple1"] == CITY
        assert state.op_name("attr") == "pop"
        assert same_term(state.vbinds["c1"], Literal(1000))
        assert same_term(state.vbinds["rel1"], Var("cities"))

    def test_operator_variable_functionality_checked(self, env):
        sos, tc = env
        # cname has result string; attr requires dtype consistent within the
        # match — still fine on its own, so construct a mismatch via c1.
        subject = tc.check(
            Apply(
                "select",
                (
                    Var("cities"),
                    Fun(
                        (("t", CITY),),
                        Apply(">", (Apply("cname", (Var("t"),)), Literal("x"))),
                    ),
                ),
            )
        )
        state = match_pattern(SELECT_PATTERN, subject, SELECT_VARS, MatchState(), sos)
        assert state is not None
        assert state.tbinds["dtype"] == STRING

    def test_different_comparison_op_fails(self, env):
        sos, tc = env
        subject = checked_select(tc, op="<")
        assert match_pattern(SELECT_PATTERN, subject, SELECT_VARS, MatchState(), sos) is None

    def test_alpha_renaming_of_lambda_params(self, env):
        sos, tc = env
        subject = tc.check(
            Apply(
                "select",
                (
                    Var("cities"),
                    Fun(
                        (("zz", CITY),),
                        Apply(">", (Apply("pop", (Var("zz"),)), Literal(5))),
                    ),
                ),
            )
        )
        state = match_pattern(SELECT_PATTERN, subject, SELECT_VARS, MatchState(), sos)
        assert state is not None

    def test_kind_constraint(self, env):
        sos, tc = env
        variables = {"x": RuleVar("x", kind=sos.type_system.kind("REL"))}
        subject = tc.check(Var("cities"))
        assert match_pattern(Var("x"), subject, variables, MatchState(), sos) is not None
        lit = tc.check(Literal(5))
        assert match_pattern(Var("x"), lit, variables, MatchState(), sos) is None

    def test_nonlinear_term_variable(self, env):
        sos, tc = env
        variables = {"x": RuleVar("x")}
        pattern = Apply("+", (Var("x"), Var("x")))
        same = tc.check(Apply("+", (Literal(1), Literal(1))))
        diff = tc.check(Apply("+", (Literal(1), Literal(2))))
        assert match_pattern(pattern, same, variables, MatchState(), sos) is not None
        assert match_pattern(pattern, diff, variables, MatchState(), sos) is None

    def test_concrete_literal_in_pattern(self, env):
        sos, tc = env
        pattern = Apply("+", (Var("x"), Literal(1)))
        variables = {"x": RuleVar("x")}
        ok = tc.check(Apply("+", (Literal(5), Literal(1))))
        bad = tc.check(Apply("+", (Literal(5), Literal(2))))
        assert match_pattern(pattern, ok, variables, MatchState(), sos) is not None
        assert match_pattern(pattern, bad, variables, MatchState(), sos) is None


class TestVariablesBelowFunctionTypes:
    """Rule type variables match and instantiate below function, list and
    tuple types, not only below constructor applications."""

    def test_operator_variable_with_function_result(self, env):
        sos, _ = env
        # An operator whose result is a function over cities; the matcher
        # reads only the subject's annotations.
        owner = tuple_type([("oname", STRING)])
        subject = Apply(
            "score", (Var("o", type=owner),), type=FunType((CITY,), INT)
        )
        variables = {
            "f": RuleVar(
                "f",
                fun_args=(PVar("owner"),),
                fun_result=FunType((PVar("tuple1"),), INT),
            ),
            "x": RuleVar("x"),
        }
        pattern = Apply("f", (Var("x"),))
        state = match_pattern(pattern, subject, variables, MatchState(), sos)
        assert state is not None
        assert state.op_name("f") == "score"
        assert state.tbinds["tuple1"] == CITY
        assert state.tbinds["owner"] == owner
        variables["f"] = RuleVar(
            "f", fun_args=(PVar("owner"),), fun_result=FunType((PVar("tuple1"),), STRING)
        )
        assert match_pattern(pattern, subject, variables, MatchState(), sos) is None

    def test_lambda_parameter_with_function_type(self, env):
        sos, tc = env
        subject = tc.check(Fun((("h", FunType((CITY,), INT)),), Var("h")))
        pattern = Fun((("g", FunType((PVar("tuple1"),), PVar("dtype"))),), Var("g"))
        state = match_pattern(pattern, subject, {}, MatchState(), sos)
        assert state is not None
        assert state.tbinds == {"tuple1": CITY, "dtype": INT}
        built = instantiate(pattern, state)
        assert built.params[0][1] == FunType((CITY,), INT)


class TestInstantiation:
    def test_rhs_substitutes_everything(self, env):
        sos, tc = env
        subject = checked_select(tc)
        state = match_pattern(SELECT_PATTERN, subject, SELECT_VARS, MatchState(), sos)
        # bind rep object as a condition would
        rep = Var("cities_rep")
        state.vbinds["bt1"] = rep
        rhs = Apply(
            "filter",
            (
                Apply("range", (Var("bt1"), Var("c1"), Var("top"))),
                Fun(
                    (("t1", PVar("tuple1")),),
                    Apply(">", (Apply("attr", (Var("t1"),)), Var("c1"))),
                ),
            ),
        )
        built = instantiate(rhs, state)
        assert built.op == "filter"
        ranged = built.args[0]
        assert same_term(ranged.args[0], Var("cities_rep"))
        assert same_term(ranged.args[1], Literal(1000))
        fun = built.args[1]
        assert fun.params[0][1] == CITY  # type variable resolved
        assert fun.body.args[0].op == "pop"  # operator variable resolved

    def test_nested_typevar_in_param_type(self, env):
        sos, tc = env
        state = MatchState(tbinds={"tuple1": CITY})
        template = Fun((("s", TypeApp("stream", (PVar("tuple1"),))),), Var("s"))
        built = instantiate(template, state)
        assert built.params[0][1] == TypeApp("stream", (CITY,))
