"""Stream combinators and pipelining semantics.

The combinators work below the API, on tuple carriers: a row of ``ROW`` is
the plain tuple ``(k, v)``."""

import pytest

from repro.core.types import TypeApp, tuple_type
from repro.errors import ExecutionError
from repro.rep import streams as st

INT = TypeApp("int")
ROW = tuple_type([("k", INT), ("v", INT)])
K, V = 0, 1  # attribute positions in ROW


def rows(n):
    return [(i, i * 10) for i in range(n)]


def stream_of(n):
    return st.feed(ROW, iter(rows(n)))


class TestCombinators:
    def test_filter(self):
        out = st.filter_stream(stream_of(10), lambda t: t[K] >= 7)
        assert [t[K] for t in out] == [7, 8, 9]

    def test_project(self):
        out_t = tuple_type([("twice", INT)])
        out = st.project_stream(
            out_t, stream_of(3), [("twice", lambda t: t[V] * 2)]
        )
        assert list(out) == [(0,), (20,), (40,)]

    def test_replace(self):
        out = st.replace_stream(stream_of(3), "v", lambda t: -t[K])
        assert list(out) == [(0, 0), (1, -1), (2, -2)]

    def test_head(self):
        assert len(list(st.head_stream(stream_of(100), 5))) == 5

    def test_concat(self):
        out = st.concat_streams(ROW, [stream_of(2), stream_of(3)])
        assert len(list(out)) == 5

    def test_search_join(self):
        out_t = tuple_type([("k", INT), ("v", INT), ("k2", INT), ("v2", INT)])
        inner_t = tuple_type([("k2", INT), ("v2", INT)])

        def inner(t):
            return st.feed(inner_t, iter([(t[K], t[K])]))

        out = st.search_join_stream(out_t, stream_of(3), inner)
        assert list(out) == [(0, 0, 0, 0), (1, 10, 1, 1), (2, 20, 2, 2)]


class TestPipelining:
    def test_lazy_evaluation(self):
        """Stream operators must not consume their input eagerly."""
        consumed = []

        def source():
            for i in range(1000):
                consumed.append(i)
                yield (i, i)

        pipeline = st.head_stream(
            st.filter_stream(st.feed(ROW, source()), lambda t: t[K] % 2 == 0),
            3,
        )
        assert [t[K] for t in pipeline] == [0, 2, 4]
        # Only a prefix of the source was pulled.
        assert len(consumed) <= 6

    def test_streams_are_one_shot(self):
        s = stream_of(3)
        list(s)
        with pytest.raises(ExecutionError):
            list(s)
