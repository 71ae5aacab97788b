"""E1 — type-system operations: well-formedness checking and pattern
matching throughput (the operations behind every typecheck)."""

import pytest

from repro.core.patterns import PBind, PVar, match_type
from repro.core.types import TypeApp, rel_type, tuple_type
from repro.models.relational import relational_model

INT = TypeApp("int")
STRING = TypeApp("string")


def wide_tuple(width: int):
    return tuple_type([(f"a{i}", INT if i % 2 else STRING) for i in range(width)])


@pytest.fixture(scope="module")
def ts():
    sos, _ = relational_model()
    return sos.type_system


@pytest.mark.parametrize("width", [2, 16, 64])
def test_check_type(benchmark, ts, width):
    t = rel_type(wide_tuple(width))
    ts.check_type(t)  # warm validity
    benchmark(lambda: ts.check_type(t))


def test_check_type_rejects(benchmark, ts):
    bad = TypeApp("rel", (INT,))

    def run():
        from repro.errors import TypeFormationError

        try:
            ts.check_type(bad)
        except TypeFormationError:
            return True
        return False

    assert run()
    benchmark(run)


FIG1 = PBind("stream", TypeApp("stream", (PBind("tuple", TypeApp("tuple", (PVar("list"),))),)))


@pytest.mark.parametrize("width", [2, 16, 64])
def test_figure1_pattern_match(benchmark, width):
    subject = TypeApp("stream", (wide_tuple(width),))
    assert match_type(FIG1, subject) is not None
    benchmark(lambda: match_type(FIG1, subject))
