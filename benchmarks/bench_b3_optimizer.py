"""B3 — cost of the rule-based optimizer itself (Section 5).

Measures the full front-end pipeline (parse + typecheck + optimize) per
statement, without execution, and reports rules tried/fired.  Expected
shape: translation adds a bounded, milliseconds-scale overhead per
statement, independent of data size.
"""

import pytest

from benchmarks.helpers import MODEL_JOIN, build_spatial_system, selection_query


@pytest.fixture(scope="module")
def system():
    return build_spatial_system(n_cities=50, n_states=16)


def _pipeline(system, text):
    statement = system.make_parser().parse_statement(text)
    term = system.database.typechecker.check(statement.expr)
    return system.optimizer.optimize(term, system.database)


def test_optimize_indexed_selection(benchmark, system):
    text = selection_query(0.01)
    result = _pipeline(system, text)
    benchmark.extra_info["rules_fired"] = result.fired
    benchmark.extra_info["rules_tried"] = result.tried
    benchmark(lambda: _pipeline(system, text))


def test_optimize_spatial_join(benchmark, system):
    result = _pipeline(system, MODEL_JOIN)
    benchmark.extra_info["rules_fired"] = result.fired
    benchmark.extra_info["rules_tried"] = result.tried
    benchmark(lambda: _pipeline(system, MODEL_JOIN))


def test_optimize_scan_fallback(benchmark, system):
    text = 'query cities select[cname = "c1"]'
    result = _pipeline(system, text)
    assert result.fired == ["select_scan"]
    benchmark(lambda: _pipeline(system, text))


def test_optimizer_overhead_is_data_independent(system):
    """Optimization must not look at the data, only at types and catalogs."""
    small = build_spatial_system(n_cities=10, n_states=4)
    import time

    def measure(sys_):
        start = time.perf_counter()
        for _ in range(20):
            _pipeline(sys_, MODEL_JOIN)
        return time.perf_counter() - start

    t_small = measure(small)
    t_large = measure(system)
    assert t_large < t_small * 3  # same order of magnitude
