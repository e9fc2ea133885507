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


def simply_laced(rank, edges):
    a = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
    for i, j in edges:
        a[i - 1][j - 1] = a[j - 1][i - 1] = -1
    return validate_cartan(a, [1] * rank)


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
    return validate_cartan(((2, -1), (-2, 2)), (2, 1))


@pytest.fixture(scope="session")
def b3():
    return validate_cartan(((2, -1, 0), (-1, 2, -1), (0, -2, 2)), (2, 2, 1))


@pytest.fixture(scope="session")
def f4():
    return validate_cartan(
        ((2, -1, 0, 0), (-1, 2, -1, 0), (0, -2, 2, -1), (0, 0, -1, 2)), (2, 2, 1, 1)
    )


@pytest.fixture(scope="session")
def e6():
    return simply_laced(6, E_EDGES[:5])


@pytest.fixture(scope="session")
def e8():
    return simply_laced(8, E_EDGES)


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
