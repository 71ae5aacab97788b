"""Unit shapes of the structural cost model."""

import pytest

from repro.optimizer.cost import MODEL_OP_PENALTY, estimate


@pytest.fixture()
def db(loaded_system):
    return loaded_system.database


def plan(loaded_system, text):
    statement = loaded_system.make_parser().parse_statement(
        "query " + text
    )
    return loaded_system.database.typechecker.check(statement.expr)


class TestShapes:
    def test_feed_cost_equals_size(self, loaded_system, db):
        assert estimate(plan(loaded_system, "cities_rep feed"), db) == 40.0

    def test_filter_adds_per_tuple_cost(self, loaded_system, db):
        feed = estimate(plan(loaded_system, "cities_rep feed"), db)
        filtered = estimate(
            plan(loaded_system, "cities_rep feed filter[pop >= 1]"), db
        )
        assert filtered > feed

    def test_head_caps_cost(self, loaded_system, db):
        full = estimate(plan(loaded_system, "cities_rep feed collect"), db)
        headed = estimate(
            plan(loaded_system, "cities_rep feed head[3] collect"), db
        )
        assert headed < full

    def test_exact_cheaper_than_range(self, loaded_system, db):
        exact = estimate(plan(loaded_system, "cities_rep exact[5]"), db)
        ranged = estimate(plan(loaded_system, "cities_rep range[0, 5]"), db)
        assert exact < ranged

    def test_hash_join_cheaper_than_merge_join(self, loaded_system, db):
        merge = estimate(
            plan(
                loaded_system,
                "(cities_rep feed) (states_rep feed) merge_join[cname, sname]",
            ),
            db,
        )
        hashed = estimate(
            plan(
                loaded_system,
                "(cities_rep feed) (states_rep feed) hash_join[cname, sname]",
            ),
            db,
        )
        assert hashed < merge

    def test_search_join_multiplies_inner_cost(self, loaded_system, db):
        joined = estimate(
            plan(
                loaded_system,
                "cities_rep feed "
                "fun (c: city) states_rep feed filter[fun (s: state) c center inside s region] "
                "search_join",
            ),
            db,
        )
        single_inner = estimate(plan(loaded_system, "states_rep feed"), db)
        assert joined > 40 * single_inner  # 40 outer tuples

    def test_model_penalty_dominates(self, loaded_system, db):
        model = estimate(plan(loaded_system, "cities select[pop >= 1]"), db)
        assert model >= MODEL_OP_PENALTY

    def test_hybrid_arithmetic_is_cheap(self, loaded_system, db):
        assert estimate(plan(loaded_system, "1 + 2 * 3"), db) < 10
