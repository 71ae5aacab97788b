"""The generator's Python model: the oracle every result is checked against.

The program under test only ever sees statement text.  Each generator
keeps the state its statements imply in plain dicts and lists, computes
the expected answer of every read *before* the statement runs, and
:func:`matches` compares the two as multisets of rows — never against a
second run of the engine.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

ITEM_TYPE = "type item = tuple(<(k, int), (name, string), (grp, int)>)"
GROUPS = 10


@dataclass(slots=True)
class Op:
    """One closed-loop operation: a statement, or the body of one explicit
    transaction (timed begin -> commit acknowledgement, counted once)."""

    kind: str
    sources: tuple[str, ...]
    mutating: bool
    #: ``None`` checks success only, an ``int`` a count result, a sorted
    #: list the rows of the answer.
    expect: object = None
    #: Attributes the answer is projected on before comparing (joins carry
    #: geometry values that have no order).
    attrs: Optional[tuple[str, ...]] = None


def rows_of(value, attrs: Optional[Sequence[str]] = None) -> list[tuple]:
    if attrs is None:
        return sorted(t.values for t in value)
    return sorted(tuple(t.attr(a) for a in attrs) for t in value)


def matches(op: Op, value) -> bool:
    if op.expect is None:
        return True
    if isinstance(op.expect, int):
        return value == op.expect
    return isinstance(value, list) and rows_of(value, op.attrs) == op.expect


# ---------------------------------------------------------------------------
# Keyed relations: items(k, name, grp) behind a B-tree on k
# ---------------------------------------------------------------------------


def keyed_schema(rel: str) -> list[str]:
    return [
        f"create {rel} : rel(item)",
        f"create {rel}_rep : btree(item, k, int)",
        f"update rep := insert(rep, {rel}, {rel}_rep)",
    ]


def insert_stmt(rel: str, row: tuple) -> str:
    k, name, grp = row
    return (
        f"update {rel} := insert({rel}, "
        f'mktuple[<(k, {k}), (name, "{name}"), (grp, {grp})>])'
    )


class KeyedModel:
    """What one ``items`` relation must contain: rows by key, keys sorted."""

    def __init__(self, rel: str):
        self.rel = rel
        self.rows: dict[int, tuple] = {}
        self.keys: list[int] = []

    def preload(self, n: int, rng: random.Random) -> list[tuple]:
        """``n`` rows on the even keys; odd keys stay free for inserts."""
        rows = [(2 * i, f"n{i}", rng.randrange(GROUPS)) for i in range(n)]
        for row in rows:
            self.rows[row[0]] = row
        self.keys = [row[0] for row in rows]
        return rows

    def insert(self, row: tuple) -> None:
        self.rows[row[0]] = row
        bisect.insort(self.keys, row[0])

    def delete(self, k: int) -> None:
        del self.rows[k]
        self.keys.pop(bisect.bisect_left(self.keys, k))

    def point(self, k: int) -> list[tuple]:
        row = self.rows.get(k)
        return [] if row is None else [row]

    def span(self, start: int, width: int) -> tuple[int, int, list[tuple]]:
        """The key bounds and rows of ``width`` consecutive rows."""
        keys = self.keys[start:start + width]
        return keys[0], keys[-1], [self.rows[k] for k in keys]

    def sorted_rows(self) -> list[tuple]:
        return [self.rows[k] for k in self.keys]

    def feed_op(self) -> Op:
        """The whole stored relation against the whole model."""
        return Op(
            "verify", (f"query {self.rel}_rep feed",), False, self.sorted_rows()
        )


def keyed_ops(
    rng: random.Random,
    mix: Sequence[tuple[str, float]],
    reads: KeyedModel,
    writes: KeyedModel,
    own: list[int],
) -> Iterator[Op]:
    """An endless statement stream over ``mix`` (op class, share).

    ``reads`` answers ``point`` / ``range20`` / ``range200``; ``writes``
    takes ``insert`` / ``delete`` / ``txn`` and answers ``point_own``.
    ``own`` lists the keys of ``writes`` this caller may delete; a delete
    with nothing to delete becomes an insert, so the sequence depends on
    the seed alone.
    """
    kinds = [kind for kind, _ in mix]
    weights = [share for _, share in mix]
    # Odd keys, half of them between the preloaded even ones.
    slots = 2 * len(writes.keys) or 1 << 20

    def fresh_row() -> tuple:
        while True:
            k = 2 * rng.randrange(slots) + 1
            if k not in writes.rows:
                return (k, f"w{k}", rng.randrange(GROUPS))

    def insert() -> str:
        row = fresh_row()
        writes.insert(row)
        own.append(row[0])
        return insert_stmt(writes.rel, row)

    def delete() -> str:
        i = rng.randrange(len(own))
        own[i], own[-1] = own[-1], own[i]
        k = own.pop()
        writes.delete(k)
        return f"update {writes.rel} := delete({writes.rel}, k = {k})"

    while True:
        kind = rng.choices(kinds, weights)[0]
        if kind == "delete" and not own:
            kind = "insert"
        if kind == "point":
            k = rng.choice(reads.keys)
            yield Op(kind, (f"query {reads.rel} select[k = {k}]",), False,
                     reads.point(k))
        elif kind in ("range20", "range200"):
            width = int(kind[5:])
            start = rng.randrange(max(1, len(reads.keys) - width + 1))
            lo, hi, rows = reads.span(start, width)
            yield Op(
                kind,
                (f"query {reads.rel} select[k >= {lo} and k <= {hi}]",),
                False, rows,
            )
        elif kind == "point_own":
            k = rng.choice(own) if own else 1
            yield Op(kind, (f"query {writes.rel} select[k = {k}]",), False,
                     writes.point(k))
        elif kind == "insert":
            yield Op(kind, (insert(),), True)
        elif kind == "delete":
            yield Op(kind, (delete(),), True)
        elif kind == "txn":
            # Two in, two out: the relation's size stays level, so the
            # checkpoint and recovery cost do not depend on run length.
            body = [insert(), insert()]
            body += [delete() for _ in range(min(2, len(own)))]
            yield Op(kind, tuple(body), True)
        else:
            raise ValueError(f"unknown op class {kind!r}")


# ---------------------------------------------------------------------------
# Analytic data: scan / equi-join / spatial join / bulk update
# ---------------------------------------------------------------------------

ANALYTIC_SCHEMA = [
    ITEM_TYPE,
    "type order = tuple(<(oid, int), (cust, int)>)",
    "type customer = tuple(<(cid, int), (cname, string)>)",
    "type city = tuple(<(cname, string), (center, point), (pop, int)>)",
    "type state = tuple(<(sname, string), (region, pgon)>)",
    *keyed_schema("items"),
    "create orders : rel(order)",
    "create customers : rel(customer)",
    "create orders_rep : srel(order)",
    "create customers_rep : btree(customer, cid, int)",
    "update rep := insert(rep, orders, orders_rep)",
    "update rep := insert(rep, customers, customers_rep)",
    "create cities : rel(city)",
    "create states : rel(state)",
    "create cities_rep : btree(city, pop, int)",
    "create states_rep : lsdtree(state, fun (s: state) bbox(s region))",
    "update rep := insert(rep, cities, cities_rep)",
    "update rep := insert(rep, states, states_rep)",
]

ANALYTIC_CLASSES = ("scan", "equijoin", "spatial_join", "bulk_update")
WORLD = 1000.0


class AnalyticModel:
    """The analytic tables as Python rows, plus the expected join answers
    (computed from the rows, once — the joins' inputs never change)."""

    def __init__(self, rng: random.Random, sizes: dict[str, int]):
        n_items, n_orders = sizes["items"], sizes["orders"]
        n_customers, n_cities = sizes["customers"], sizes["cities"]
        self.grid = int(sizes["states"] ** 0.5)
        self.items = [
            [k, f"n{k}", rng.randrange(GROUPS)] for k in range(n_items)
        ]
        self.by_grp: list[list[list]] = [[] for _ in range(GROUPS)]
        for row in self.items:
            self.by_grp[row[2]].append(row)
        self.orders = [
            (oid, rng.randrange(n_customers)) for oid in range(n_orders)
        ]
        self.customers = [(cid, f"c{cid}") for cid in range(n_customers)]
        self.cities = [
            (f"c{i}", rng.uniform(0, WORLD), rng.uniform(0, WORLD),
             rng.randrange(1_000_000))
            for i in range(n_cities)
        ]
        self.cell = WORLD / self.grid
        self.equijoin_rows = sorted(
            (oid, cust, cust, f"c{cust}") for oid, cust in self.orders
        )
        self.spatial_rows = sorted(
            (name, self.state_of(x, y)) for name, x, y, _ in self.cities
        )
        self._tag = 0

    def state_of(self, x: float, y: float) -> str:
        gx = min(int(x / self.cell), self.grid - 1)
        gy = min(int(y / self.cell), self.grid - 1)
        return f"s{gy * self.grid + gx}"

    def states(self) -> Iterator[tuple[str, float, float, float, float]]:
        for gy in range(self.grid):
            for gx in range(self.grid):
                yield (
                    f"s{gy * self.grid + gx}",
                    gx * self.cell, gy * self.cell,
                    (gx + 1) * self.cell, (gy + 1) * self.cell,
                )

    def feed_op(self) -> Op:
        return Op(
            "verify", ("query items_rep feed",), False,
            sorted(tuple(row) for row in self.items),
        )

    def op(self, kind: str, rng: random.Random) -> Op:
        if kind == "scan":
            g = rng.randrange(GROUPS)
            return Op(
                kind, (f"query items_rep feed filter[grp = {g}] count",),
                False, len(self.by_grp[g]),
            )
        if kind == "equijoin":
            return Op(
                kind, ("query orders customers join[cust = cid]",), False,
                self.equijoin_rows,
            )
        if kind == "spatial_join":
            return Op(
                kind, ("query cities states join[center inside region]",),
                False, self.spatial_rows, ("cname", "sname"),
            )
        if kind == "bulk_update":
            g = rng.randrange(GROUPS)
            self._tag += 1
            name = f"m{self._tag}"
            for row in self.by_grp[g]:
                row[1] = name
            return Op(
                kind,
                (f'update items := modify(items, grp = {g}, name, "{name}")',),
                True,
            )
        raise ValueError(f"unknown statement class {kind!r}")


def analytic_ops(rng: random.Random, model: AnalyticModel) -> Iterator[Op]:
    """The four statement classes round-robin, so every class has the same
    number of repetitions whenever a run stops on a cycle boundary."""
    while True:
        for kind in ANALYTIC_CLASSES:
            yield model.op(kind, rng)
