"""Edge cases across the stack: shadowing, redefinition, odd-but-legal input."""

import pytest

from repro.errors import CatalogError, NoMatchingOperator, TypeCheckError


class TestShadowing:
    def test_lambda_param_shadows_object(self, loaded_system):
        """A parameter named like an object wins inside the lambda body."""
        r = loaded_system.run_one(
            "query cities_rep feed filter[fun (cities: city) cities pop >= 0] count"
        )
        assert r.value == 40

    def test_nested_lambdas_shadow(self, loaded_system):
        r = loaded_system.run_one(
            "query cities_rep feed "
            "fun (c: city) states_rep feed "
            "filter[fun (c: state) c sname != \"zzz\"] "
            "search_join count"
        )
        # inner c shadows outer c; every city pairs with every state
        assert r.value == 40 * 5

    def test_attribute_named_like_operator_resolves_in_brackets(self, system):
        # an attribute called 'count' — access must still work via a lambda
        system.run(
            """
type odd = tuple(<(count, int)>)
create r : srel(odd)
"""
        )
        from repro.models.relational import make_tuple

        system.database.objects["r"].value.append(
            make_tuple(system.database.aliases["odd"], count=5)
        )
        r = system.run_one("query r feed filter[fun (o: odd) o count > 1]")
        assert len(r.value) == 1


class TestRedefinition:
    def test_type_alias_redefinition_replaces(self, system):
        system.run("type t = tuple(<(a, int)>)")
        system.run("type t = tuple(<(b, string)>)")
        stmt = system.make_parser().parse_type("t")
        from repro.core.types import attrs_of

        assert attrs_of(stmt)[0][0] == "b"

    def test_drop_then_recreate(self, system):
        system.run("type t = tuple(<(a, int)>)")
        system.run_one("create r : srel(t)")
        system.run_one("delete r")
        system.run_one("create r : srel(t)")
        assert system.run_one("query r feed count").value == 0

    def test_drop_unknown_object(self, system):
        with pytest.raises(CatalogError):
            system.run_one("delete ghost")


class TestOddButLegal:
    def test_empty_relation_queries(self, system):
        system.run("type t = tuple(<(a, int)>)\ncreate r : srel(t)")
        assert system.run_one("query r feed count").value == 0
        assert system.run_one("query r feed filter[a > 0] count").value == 0
        assert system.run_one("query r feed sortby[a] count").value == 0

    def test_single_attribute_tuple(self, system):
        r = system.run_one("query mktuple[<(only, 1)>]")
        assert r.value.attr("only") == 1

    def test_deeply_nested_arithmetic(self, system):
        r = system.run_one("query ((((1 + 2)) * ((3))) - 4)")
        assert r.value == 5

    def test_unary_chain_of_postfix(self, loaded_system):
        r = loaded_system.run_one(
            "query cities_rep feed collect feed collect feed count"
        )
        assert r.value == 40

    def test_string_with_escapes_roundtrip(self, system):
        r = system.run_one(r'query "a\"b"')
        assert r.value == 'a"b'

    def test_comparison_chains_need_parens(self, system):
        # a < b < c is not chained; it parses as (a < b) < c and fails on
        # bool < int — the typechecker reports it cleanly.
        with pytest.raises(NoMatchingOperator):
            system.run_one("query 1 < 2 < 3")


class TestViewEdgeCases:
    def test_wrong_arity_view_body_rejected(self):
        from repro.system import build_model_interpreter

        interp = build_model_interpreter()
        interp.run("type t = tuple(<(a, int)>)\ncreate v : (-> rel(t))")
        with pytest.raises(TypeCheckError):
            interp.run_one("update v := fun (x: int) x")

    def test_view_of_wrong_result_type_rejected(self):
        from repro.system import build_model_interpreter

        interp = build_model_interpreter()
        interp.run("type t = tuple(<(a, int)>)\ncreate v : (-> rel(t))")
        with pytest.raises(TypeCheckError):
            interp.run_one("update v := fun () 42")
