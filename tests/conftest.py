from __future__ import annotations

import math

import pytest

from ywalk import (
    builtin_cartan,
    compute_s_sets,
    compute_t_sets,
    run_walk,
    validate_cartan,
)
from ywalk.verify import G2_WORD

# Bourbaki labelling of E_n: the chain 1-3-4-5-...-n with node 2 on node 4
E_EDGES = ((1, 3), (3, 4), (2, 4), (4, 5), (5, 6), (6, 7), (7, 8))


def finite_type_cartan(name):
    """Bourbaki-labelled Cartan data of a finite type named like "b3", "e7"."""
    kind, rank = name[0], int(name[1:])
    if kind == "g":
        return builtin_cartan("g2")
    chain = [(i, i + 1) for i in range(1, rank)]
    edges = {"d": chain[:-1] + [(rank - 2, rank)], "e": E_EDGES[: rank - 1]}
    a = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
    for i, j in edges.get(kind, chain):
        a[i - 1][j - 1] = a[j - 1][i - 1] = -1
    d = [1] * rank
    if kind in "bcf":
        # the double bond, as (short node, long node), and the long nodes
        short, long = {"b": (rank, rank - 1), "c": (rank - 1, rank), "f": (3, 2)}[kind]
        long_nodes = {"b": range(1, rank), "c": (rank,), "f": (1, 2)}[kind]
        a[short - 1][long - 1] = -2
        d = [2 if k in long_nodes else 1 for k in range(1, rank + 1)]
    return validate_cartan(a, d)


@pytest.fixture(scope="session")
def finite_type():
    return finite_type_cartan


@pytest.fixture(scope="session")
def g2():
    return builtin_cartan("g2")


@pytest.fixture(scope="session")
def a1():
    return builtin_cartan("a1")


@pytest.fixture(scope="session")
def a2():
    return builtin_cartan("a2")


@pytest.fixture(scope="session")
def b2():
    return finite_type_cartan("b2")


@pytest.fixture(scope="session")
def b3():
    return finite_type_cartan("b3")


@pytest.fixture(scope="session")
def f4():
    return finite_type_cartan("f4")


@pytest.fixture(scope="session")
def e6():
    return finite_type_cartan("e6")


@pytest.fixture(scope="session")
def e8():
    return finite_type_cartan("e8")


@pytest.fixture(scope="session")
def g2_reports(g2):
    return [run_walk(g2, G2_WORD, i, 8) for i in (1, 2)]


@pytest.fixture(scope="session")
def g2_t_sets(g2_reports):
    return compute_t_sets(g2_reports)


@pytest.fixture(scope="session")
def g2_s_sets(g2, g2_t_sets):
    return compute_s_sets(g2_t_sets, g2)


@pytest.fixture(scope="session")
def largest_printable_power():
    """(base, limit) -> the largest m with base^m < 10^limit, the largest
    power of base that prints in at most limit digits."""

    def largest(base, limit):
        m = int(limit / math.log10(base))
        while base ** (m + 1) < 10**limit:
            m += 1
        while base**m >= 10**limit:
            m -= 1
        return m

    return largest
