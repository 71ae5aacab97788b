"""B5 — front-end throughput: lexing, parsing, typechecking (Section 2.3).

The generic syntax-pattern-driven parser and the pattern-matching
typechecker are the components the paper proposes to generate from
specifications; this measures their cost per statement.
"""

import pytest

from benchmarks.helpers import build_spatial_system

QUERIES = {
    "simple_select": "query cities select[pop >= 500000]",
    "spatial_join": "query cities states join[center inside region]",
    "deep_pipeline": (
        "query cities_rep feed filter[pop >= 100] "
        "project[<(n, cname), (k, fun (c: city) c pop div 1000)>] head[10] count"
    ),
    "explicit_lambda": (
        "query cities select[fun (c: city) c pop >= 500000 and c cname != \"x\"]"
    ),
}


@pytest.fixture(scope="module")
def system():
    return build_spatial_system(n_cities=10, n_states=4)


@pytest.mark.parametrize("name", list(QUERIES))
def test_parse(benchmark, system, name):
    text = QUERIES[name]
    parser = system.make_parser()
    benchmark(lambda: parser.parse_statement(text))


@pytest.mark.parametrize("name", list(QUERIES))
def test_parse_and_typecheck(benchmark, system, name):
    text = QUERIES[name]

    def run():
        statement = system.make_parser().parse_statement(text)
        return system.database.typechecker.check(statement.expr)

    checked = run()
    assert checked.type is not None
    benchmark(run)
