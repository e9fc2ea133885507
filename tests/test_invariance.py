"""T and S tables that depend on neither the reduced word nor the node labels.

These are observed invariants of the walk, not theorems the code proves.
Random reduced words of the longest element come from the rho-descent of
``weyl_longest`` with a random negative coordinate reflected at each step
instead of the smallest; the seeds are fixed below.  A relabelling
sigma of the nodes (new node k is old node sigma(k)) must carry S(b, c)
to S(sigma(b), sigma(c)), and T(b, c) likewise.
"""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import finite_type_cartan
from make_tables_atlas import GOLDEN, TYPES
from test_cli import _write_algebra
from ywalk import walk
from ywalk.cli import main
from ywalk.cyclicity import compute_s_sets, compute_t_sets, format_root
from ywalk.rootsystem import (
    PathExponents,
    is_reduced_word_of_longest,
    reflect,
    validate_cartan,
    weyl_longest,
)
from ywalk.walk import CrosscheckError, run_walk

ORDER = 8
WORDS_PER_TYPE = 5
# random.Random(seed) draws the words of each type
WORD_SEEDS = {"a5": 1, "b3": 2, "c4": 3, "d5": 4, "e6": 5, "f4": 6}
# new node k is old node PERMUTATIONS[name][k - 1]
PERMUTATIONS = {
    "a5": (4, 3, 1, 5, 2),
    "b3": (3, 1, 2),
    "c4": (2, 4, 1, 3),
    "d5": (5, 3, 4, 2, 1),
    "e6": (1, 5, 2, 4, 6, 3),
    "f4": (4, 3, 2, 1),
    "g2": (2, 1),
}


def random_longest_word(cartan, rng: random.Random) -> tuple[int, ...]:
    """A reduced word of w0: rho-descent from -rho that reflects a random
    negative coordinate at each step."""
    v = (-1,) * cartan.rank
    word = []
    while any(x < 0 for x in v):
        i = rng.choice([k for k, x in enumerate(v, start=1) if x < 0])
        word.append(i)
        v = reflect(cartan, i, v)
    return tuple(word)


def tables(cartan, word):
    """({(b, c): T roots}, {(b, c): S values}) from the walks on word."""
    reports = [run_walk(cartan, word, b, ORDER) for b in range(1, cartan.rank + 1)]
    t_sets = compute_t_sets(reports)
    s_sets = compute_s_sets(t_sets, cartan)
    return {(t.b, t.c): t.roots for t in t_sets}, {(s.b, s.c): s.values for s in s_sets}


def check_word_independence(name):
    cartan = finite_type_cartan(name)
    lex = weyl_longest(cartan)
    want = tables(cartan, lex)
    rng = random.Random(WORD_SEEDS[name])
    words = [random_longest_word(cartan, rng) for _ in range(WORDS_PER_TYPE)]
    assert any(word != lex for word in words)
    for word in words:
        assert is_reduced_word_of_longest(cartan, word), word
        assert tables(cartan, word) == want, f"{name} on {word}"


@pytest.mark.parametrize("name", sorted(WORD_SEEDS))
def test_tables_do_not_depend_on_the_reduced_word(name):
    check_word_independence(name)


def test_g2_tables_agree_on_both_reduced_words(g2):
    words = {weyl_longest(g2), (2, 1, 2, 1, 2, 1)}
    assert len(words) == 2
    assert all(is_reduced_word_of_longest(g2, w) for w in words)
    assert tables(g2, (1, 2, 1, 2, 1, 2)) == tables(g2, (2, 1, 2, 1, 2, 1))


@pytest.mark.parametrize("name", sorted(PERMUTATIONS))
def test_tables_permute_with_the_node_labels(name):
    cartan = finite_type_cartan(name)
    sigma = PERMUTATIONS[name]
    assert sorted(sigma) == list(range(1, cartan.rank + 1))
    relabelled = validate_cartan(
        [[cartan.aij(i, j) for j in sigma] for i in sigma],
        [cartan.di(i) for i in sigma],
    )
    want_t, want_s = tables(cartan, weyl_longest(cartan))
    got_t, got_s = tables(relabelled, weyl_longest(relabelled))
    nodes = range(1, cartan.rank + 1)
    pairs = [(b, c) for b in nodes for c in nodes]
    assert got_s == {(b, c): want_s[sigma[b - 1], sigma[c - 1]] for b, c in pairs}
    assert got_t == {(b, c): want_t[sigma[b - 1], sigma[c - 1]] for b, c in pairs}


# (blocks, sigma): new node k of the direct sum is node sigma(k) of the
# block-diagonal sum, whose blocks hold nodes 1..r_1, r_1 + 1..r_1 + r_2
REDUCIBLE_CASES = ((("a1", "a1"), (1, 2)), (("a2", "a1"), (3, 1, 2)))


def direct_sum(names, sigma):
    """(cartan, blocks, place): the relabelled direct sum of the named
    types, and per new node k the pair (block index, node in that block)."""
    blocks = [finite_type_cartan(name) for name in names]
    old = [(k, i) for k, block in enumerate(blocks) for i in range(1, block.rank + 1)]
    place = [old[p - 1] for p in sigma]

    def entry(x, y):
        return blocks[x[0]].aij(x[1], y[1]) if x[0] == y[0] else 0

    cartan = validate_cartan(
        [[entry(x, y) for y in place] for x in place],
        [blocks[k].di(i) for k, i in place],
    )
    return cartan, blocks, place


@pytest.mark.parametrize("names, sigma", REDUCIBLE_CASES)
def test_reducible_tables_are_the_tables_of_their_blocks(
    capsys, tmp_path, names, sigma
):
    cartan, blocks, place = direct_sum(names, sigma)
    nodes = range(1, cartan.rank + 1)
    word = weyl_longest(cartan)
    t_sets = compute_t_sets(run_walk(cartan, word, b, ORDER) for b in nodes)
    s_sets = compute_s_sets(t_sets, cartan)
    # every pair once, in (b, c) order, also where node c never acts
    pairs = [(b, c) for b in nodes for c in nodes]
    assert [(t.b, t.c) for t in t_sets] == pairs
    assert [(s.b, s.c) for s in s_sets] == pairs
    alone = [tables(block, weyl_longest(block)) for block in blocks]
    empty = 0
    for t, s in zip(t_sets, s_sets):
        (k, i), (l, j) = place[t.b - 1], place[t.c - 1]
        if k == l:
            assert alone[k][0][i, j] and alone[k][1][i, j]
            assert (t.roots, s.values) == (alone[k][0][i, j], alone[k][1][i, j])
        else:
            assert (t.roots, s.values) == ((), ())
            empty += 1
    assert empty == cartan.rank**2 - sum(block.rank**2 for block in blocks)
    # the command line prints the same sets, and a cross-component pair
    # of factors has no forbidden difference
    algebra = _write_algebra(tmp_path / "sum.alg", cartan)
    assert main(["tables", "--algebra", algebra, "--format", "json"]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert results["s_sets"] == [
        {"b": s.b, "c": s.c, "values": [str(v) for v in s.values]} for s in s_sets
    ]
    first, second = (next(k for k in nodes if place[k - 1][0] == x) for x in (0, 1))
    # differences +-1, which lie in S(c, c) for every node c of A1 and A2
    factors = f"{first}:0,{second}:1"
    argv = ["cyclicity", "--algebra", algebra, "--factors", factors]
    assert main([*argv, "--mode", "irr"]) == 0
    capsys.readouterr()


ATLAS = json.loads(GOLDEN.read_text())["types"]
MAX_SUM_RANK = 12


@st.composite
def relabelled_sums(draw):
    """(names, sigma): 2 or 3 atlas types of total rank at most 12 and a
    relabelling of the nodes of their direct sum."""
    names = [draw(st.sampled_from(TYPES))]
    for _ in range(draw(st.integers(2, 3)) - 1):
        room = MAX_SUM_RANK - sum(int(name[1:]) for name in names)
        fits = [name for name in TYPES if int(name[1:]) <= room]
        if fits:
            names.append(draw(st.sampled_from(fits)))
    rank = sum(int(name[1:]) for name in names)
    return names, tuple(draw(st.permutations(range(1, rank + 1))))


@settings(max_examples=30, deadline=None)
@given(relabelled_sums())
def test_direct_sums_print_the_atlas_tables_of_their_blocks(case):
    names, sigma = case
    cartan, _, place = direct_sum(names, sigma)
    nodes = range(1, cartan.rank + 1)
    word = weyl_longest(cartan)
    t_sets = compute_t_sets(run_walk(cartan, word, b, ORDER) for b in nodes)
    s_sets = compute_s_sets(t_sets, cartan)
    pairs = [(b, c) for b in nodes for c in nodes]
    assert [(t.b, t.c) for t in t_sets] == pairs
    assert [(s.b, s.c) for s in s_sets] == pairs
    for t, s in zip(t_sets, s_sets):
        (k, i), (l, j) = place[t.b - 1], place[t.c - 1]
        printed = [format_root(*r) for r in t.roots], [str(v) for v in s.values]
        if k == l:
            atlas = ATLAS[names[k]]
            want = atlas["t"][f"{i},{j}"], atlas["s"][f"{i},{j}"]
        else:
            want = [], []
        assert printed == want, f"{names} under {sigma}: (b, c) = {(t.b, t.c)}"


def _exponents_from_the_left_end(cartan, word, fundamental):
    """path_exponents with m_j read off s_{r_{j-1}}..s_{r_1}(omega), from the
    wrong end of the word."""
    current = cartan.fundamental(fundamental)
    exps = []
    for r in word:
        exps.append(current[r - 1])
        current = reflect(cartan, r, current)
    return PathExponents(fundamental, tuple(word), tuple(exps))


# Where w0 = -1 (B3, C4, F4, G2), exponents read from the left end of a word
# are those of its reversal, which is also a reduced word of w0, so the
# walk stays consistent and the tables stay right: no test can see it there.
# On A5, D5 and E6 the walk's own crosschecks raise, on the lex-least word
# already.
@pytest.mark.parametrize("name", ("a5", "d5", "e6"))
def test_exponents_from_the_wrong_end_fail_word_independence(monkeypatch, name):
    monkeypatch.setattr(walk, "path_exponents", _exponents_from_the_left_end)
    with pytest.raises((AssertionError, CrosscheckError)):
        check_word_independence(name)
