"""Shared fixtures: models, systems, and small datasets."""

from __future__ import annotations

import random

import pytest

from repro.api import connect
from repro.core.types import TypeApp, rel_type, tuple_type
from repro.models.relational import make_relation, relational_model

INT = TypeApp("int")
STRING = TypeApp("string")
BOOL = TypeApp("bool")
POINT = TypeApp("point")
PGON = TypeApp("pgon")


@pytest.fixture(scope="session")
def city_type():
    return tuple_type([("name", STRING), ("pop", INT), ("country", STRING)])


@pytest.fixture(scope="session")
def city_rel_type(city_type):
    return rel_type(city_type)


@pytest.fixture()
def rel_model():
    """A fresh relational model (signature, algebra)."""
    return relational_model()


@pytest.fixture()
def system():
    """A fresh full relational system with the standard optimizer.

    The raw :class:`SOSSystem` (not the :class:`repro.api.Session` facade),
    so tests can poke at ``.optimizer`` and ``.make_parser()`` directly.
    """
    return connect().system


@pytest.fixture()
def loaded_system(system):
    """A system with the paper's cities/states schema, representations,
    catalog entries and a small deterministic dataset."""
    system.run(
        """
type city = tuple(<(cname, string), (center, point), (pop, int)>)
type state = tuple(<(sname, string), (region, pgon)>)
create cities : rel(city)
create states : rel(state)
create cities_rep : btree(city, pop, int)
create states_rep : lsdtree(state, fun (s: state) bbox(s region))
update rep := insert(rep, cities, cities_rep)
update rep := insert(rep, states, states_rep)
"""
    )
    rng = random.Random(7)
    for i in range(5):
        system.run_one(
            f'update states := insert(states, mktuple[<(sname, "s{i}"), '
            f"(region, region_box({i * 20}, 0, {i * 20 + 20}, 100))>])"
        )
    for i in range(40):
        x = round(rng.uniform(0, 100), 1)
        y = round(rng.uniform(0, 100), 1)
        pop = rng.randrange(10_000)
        system.run_one(
            f'update cities := insert(cities, mktuple[<(cname, "c{i}"), '
            f"(center, pt({x}, {y})), (pop, {pop})>])"
        )
    return system


def sample_cities(city_type, n=6):
    rows = [
        {"name": "Berlin", "pop": 3_500_000, "country": "Germany"},
        {"name": "Paris", "pop": 2_100_000, "country": "France"},
        {"name": "Hagen", "pop": 210_000, "country": "Germany"},
        {"name": "Lyon", "pop": 520_000, "country": "France"},
        {"name": "Zurich", "pop": 400_000, "country": "Switzerland"},
        {"name": "Munich", "pop": 1_500_000, "country": "Germany"},
    ]
    return rows[:n]


@pytest.fixture()
def cities_relation(city_type, city_rel_type):
    return make_relation(city_rel_type, sample_cities(city_type))
