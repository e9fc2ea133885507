"""The T and S tables of every finite type against tests/tables_atlas.json."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import finite_type_cartan
from make_tables_atlas import GOLDEN, ORDER, TYPES, tables
from ywalk import GaussianRational, TensorFactor, check_cyclicity, cli, weyl_longest

ATLAS = json.loads(GOLDEN.read_text())


def test_atlas_covers_every_type():
    assert ATLAS["order"] == ORDER
    assert sorted(ATLAS["types"]) == sorted(TYPES)


@pytest.mark.parametrize("name", TYPES)
def test_tables_match_atlas(name):
    assert tables(name) == ATLAS["types"][name]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(TYPES), st.data())
def test_restricted_s_sets_are_the_atlas_sets_at_their_nodes(name, data):
    # cyclicity walks only the fundamentals of its factors' nodes: S(b, c)
    # reads the walk of omega_b alone
    cartan = finite_type_cartan(name)
    nodes = data.draw(st.sets(st.integers(1, cartan.rank), min_size=1, max_size=3))
    _, s_sets = cli._sset_tables(cartan, weyl_longest(cartan), ORDER, nodes)
    got = {f"{s.b},{s.c}": [str(v) for v in s.values] for s in s_sets}
    atlas = ATLAS["types"][name]["s"]
    assert got == {k: v for k, v in atlas.items() if int(k.split(",")[0]) in nodes}
    # every pair of those nodes has its S set, so the unset-pair ValueError
    # of check_cyclicity cannot fire on factors at those nodes
    factors = [TensorFactor(b, GaussianRational(k)) for k, b in enumerate(nodes)]
    check_cyclicity(factors, s_sets, "irr")
