"""The T and S tables of every finite type against tests/tables_atlas.json."""

from __future__ import annotations

import json

import pytest

from make_tables_atlas import GOLDEN, ORDER, TYPES, tables

ATLAS = json.loads(GOLDEN.read_text())


def test_atlas_covers_every_type():
    assert ATLAS["order"] == ORDER
    assert sorted(ATLAS["types"]) == sorted(TYPES)


@pytest.mark.parametrize("name", TYPES)
def test_tables_match_atlas(name):
    assert tables(name) == ATLAS["types"][name]
