"""Stream combinators: the pipelined execution primitives of Section 4.

These are plain functions over :class:`~repro.core.algebra.Stream` values;
the operator specifications in :mod:`repro.rep.model` delegate to them.  A
tuple in a stream is its carrier, a plain Python tuple, so concatenation is
``+`` and attribute ``i`` is ``t[i]``.
Keeping them separate makes the pipelining ablation benchmark (B6) possible:
the same plan can run fully pipelined or with materialization barriers.
"""

from __future__ import annotations

from itertools import islice
from typing import Callable, Iterable

from repro.core.algebra import Stream
from repro.core.types import Type, attr_index
from repro import observe


def feed(tuple_type: Type, source: Iterable) -> Stream:
    """A stream over any iterable of tuples (relation representations
    expose ``scan()``)."""
    return Stream(tuple_type, iter(source))


def filter_stream(stream: Stream, predicate: Callable) -> Stream:
    """Keep the tuples satisfying the predicate."""
    if observe.ENABLED and (sink := observe.active()) is not None:
        # Count the input side too: filter is the one pipeline operator
        # whose in/out ratio (the observed selectivity) matters on its own.
        source = sink.count_in("filter", iter(stream))
        return Stream(stream.tuple_type, (t for t in source if predicate(t)))
    return Stream(stream.tuple_type, (t for t in stream if predicate(t)))


def project_stream(
    out_tuple: Type, stream: Stream, fields: list[tuple[object, Callable]]
) -> Stream:
    """Generalized projection: each output attribute is computed by a
    function of the input tuple (paper: realizes extend/replace-style
    operators of [GüZC89] / [AbB88])."""
    functions = [fn for _, fn in fields]
    return Stream(
        out_tuple, (tuple([fn(t) for fn in functions]) for t in stream)
    )


def replace_stream(stream: Stream, attr: str, fn: Callable) -> Stream:
    """Replace one attribute value in every tuple."""
    i = attr_index(stream.tuple_type, attr)[0]
    return Stream(
        stream.tuple_type, (t[:i] + (fn(t),) + t[i + 1 :] for t in stream)
    )


def head_stream(stream: Stream, n: int) -> Stream:
    """The first ``n`` tuples."""
    return Stream(stream.tuple_type, islice(iter(stream), n))


def concat_streams(tuple_type: Type, streams: list[Stream]) -> Stream:
    """All tuples of several streams of the same type, in order."""

    def gen():
        for s in streams:
            yield from s

    return Stream(tuple_type, gen())


def sort_stream(stream: Stream, key: Callable) -> Stream:
    """Sort (materializes internally — a pipeline breaker)."""
    rows = sorted(stream, key=key)
    if observe.ENABLED:
        observe.incr("sort.rows", len(rows))
    return Stream(stream.tuple_type, iter(rows))


def rdup_stream(stream: Stream) -> Stream:
    """Remove *adjacent* duplicates — cheap after a sort, as in classic
    duplicate elimination."""

    def gen():
        previous = object()
        for t in stream:
            if t != previous:
                yield t
            previous = t

    return Stream(stream.tuple_type, gen())


def hash_join_stream(
    out_tuple: Type,
    left: Stream,
    right: Stream,
    left_key: Callable,
    right_key: Callable,
) -> Stream:
    """Classic hash equi-join: build a hash table on the right input, probe
    with the left — one pass over each side."""

    def gen():
        table: dict = {}
        rows = 0
        for r in right:
            table.setdefault(right_key(r), []).append(r)
            rows += 1
        if observe.ENABLED:
            observe.incr("hash_join.build_rows", rows)
        for l in left:
            for r in table.get(left_key(l), ()):
                yield l + r

    return Stream(out_tuple, gen())


def merge_join_stream(
    out_tuple: Type,
    left: Stream,
    right: Stream,
    left_key: Callable,
    right_key: Callable,
) -> Stream:
    """Sort-merge equi-join: both inputs are materialized, sorted on their
    keys and merged; equal-key groups produce their cross product."""

    def gen():
        lrows = sorted(left, key=left_key)
        rrows = sorted(right, key=right_key)
        if observe.ENABLED:
            observe.incr("merge_join.sorted_rows", len(lrows) + len(rrows))
        i = j = 0
        while i < len(lrows) and j < len(rrows):
            lk = left_key(lrows[i])
            rk = right_key(rrows[j])
            if lk < rk:
                i += 1
            elif rk < lk:
                j += 1
            else:
                # gather both equal-key groups
                i_end = i
                while i_end < len(lrows) and left_key(lrows[i_end]) == lk:
                    i_end += 1
                j_end = j
                while j_end < len(rrows) and right_key(rrows[j_end]) == lk:
                    j_end += 1
                for li in range(i, i_end):
                    for rj in range(j, j_end):
                        yield lrows[li] + rrows[rj]
                i, j = i_end, j_end

    return Stream(out_tuple, gen())


def search_join_stream(out_tuple: Type, outer: Stream, inner_fn: Callable) -> Stream:
    """The search join of Section 4: for each outer tuple, ``inner_fn``
    yields a stream of matching inner tuples; pairs are concatenated into
    the output stream.  Whether the inner side scans, filters or probes an
    index is entirely up to the function — that is the point of the
    operator."""

    def gen():
        for t1 in outer:
            if not observe.ENABLED:
                for t2 in inner_fn(t1):
                    yield t1 + t2
                continue
            # One probe per outer tuple: how often the inner search
            # method (scan, filter, or index probe) was invoked — plus
            # the distribution of rows each probe returned (fan-out
            # skew is what distinguishes a good index probe from a
            # degenerate one).
            observe.incr("search_join.probes")
            rows = 0
            for t2 in inner_fn(t1):
                rows += 1
                yield t1 + t2
            observe.record("search_join.probe_rows", rows)

    return Stream(out_tuple, gen())
