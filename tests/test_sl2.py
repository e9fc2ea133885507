"""Evaluation-module oracle: generator actions and identity checks."""

from __future__ import annotations

from fractions import Fraction as F
from itertools import product

import pytest

from ywalk import sl2
from ywalk.cli import main
from ywalk.exact import UniPoly
from ywalk.sl2 import (
    Operator,
    check_relations,
    extremal_series_check,
    operator,
    series_from_poly_ratio,
    symmetrized_insertion_check,
)
from ywalk.verify import SAMPLE_A

KINDS = ("x+", "x-", "h")


def dense(op: Operator, dim: int) -> list[list[F]]:
    """The matrix of a weighted shift: column s holds the image of w_s."""
    rows = [[F(0)] * dim for _ in range(dim)]
    for s, w in enumerate(op.weights):
        if w:
            rows[s + op.shift][s] = w
    return rows


def dense_product(x: list[list[F]], y: list[list[F]]) -> list[list[F]]:
    n = len(x)
    return [
        [sum(x[r][k] * y[k][c] for k in range(n)) for c in range(n)] for r in range(n)
    ]


def dense_commutator(x: list[list[F]], y: list[list[F]]) -> list[list[F]]:
    xy, yx = dense_product(x, y), dense_product(y, x)
    return [[p - q for p, q in zip(rp, rq)] for rp, rq in zip(xy, yx)]


def test_act_raising_example():
    # x+_1 w_1 = (1+a) * 2 * w_2 on V_2(a)
    for a in SAMPLE_A:
        op = operator(2, a, "x+", 1)
        assert op.shift == 1
        assert op.weights[1] == (1 + a) * 2


def test_act_h0_is_weight_grading():
    # substituting k=0 collapses the diagonal action to 2s - m
    for m in (1, 2, 3):
        op = operator(m, F(5, 3), "h", 0)
        assert op == Operator(0, tuple(F(2 * s - m) for s in range(m + 1)))


def test_act_lowering_kills_bottom():
    for k in range(4):
        assert operator(3, F(1), "x-", k).weights[0] == 0
    assert operator(3, F(1), "x+", 2).weights[3] == 0


def test_generator_label_validation():
    with pytest.raises(ValueError, match="kind"):
        operator(1, F(0), "y", 0)
    with pytest.raises(ValueError, match="non-negative"):
        operator(1, F(0), "h", -1)
    with pytest.raises(ValueError, match="positive"):
        operator(0, F(0), "h", 0)
    # an integer a is read as an exact rational
    assert all(type(w) is F for w in operator(2, 1, "x+", 3).weights)


def test_h_matrices_commute():
    report = check_relations(2, F(1, 2), max_level=2)
    assert report.ok


def test_commutator_gives_h():
    # [x+_1, x-_2] = h_3 checked directly on V_3(1/2)
    xp, xm, h3 = (
        dense(operator(3, F(1, 2), kind, k), 4)
        for kind, k in (("x+", 1), ("x-", 2), ("h", 3))
    )
    assert dense_commutator(xp, xm) == h3


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("a", SAMPLE_A[2:])
def test_composition_matches_dense_product(m, a):
    gens = [(kind, k) for kind in KINDS for k in range(4)]
    for g1, g2 in product(gens, repeat=2):
        x, y = operator(m, a, *g1), operator(m, a, *g2)
        composed = sl2._compose(x, y)
        assert composed.shift == x.shift + y.shift
        assert dense(composed, m + 1) == dense_product(
            dense(x, m + 1), dense(y, m + 1)
        ), (g1, g2)


def test_adding_operators_of_different_shifts_raises():
    xp, h = (operator(2, F(1), kind, 1) for kind in ("x+", "h"))
    assert sl2._add(xp, xp).shift == 1
    with pytest.raises(ValueError, match="shifts"):
        sl2._add(xp, h)


def _one_weight_off(kind, level, m, s):
    """sl2._operator with the weight at w_s of the generator kind_level on
    V_m raised by 1."""
    real = sl2._operator

    def mutated(m_, a, kind_, k):
        op = real(m_, a, kind_, k)
        if (m_, kind_, k) != (m, kind, level):
            return op
        weights = list(op.weights)
        weights[s] += 1
        return Operator(op.shift, tuple(weights))

    return mutated


def test_relations_catch_one_raising_weight_off(monkeypatch, capsys):
    monkeypatch.setattr(sl2, "_operator", _one_weight_off("x+", 2, 3, 1))
    assert not check_relations(3, F(5, 3), max_level=3).ok
    assert check_relations(2, F(5, 3), max_level=3).ok
    assert main(["verify", "--suite", "sl2", "--format", "text"]) == 3
    lines = capsys.readouterr().out.splitlines()
    assert any(line.startswith("FAIL") and "relations m=3" in line for line in lines)


def test_symmetrized_insertion_catch_one_lowering_weight_off(monkeypatch):
    monkeypatch.setattr(sl2, "_operator", _one_weight_off("x-", 1, 3, 2))
    report = symmetrized_insertion_check(3, F(1), 1)
    assert not report.ok
    assert report.failures[0].startswith("symmetrized insertion mismatch")
    assert symmetrized_insertion_check(3, F(1), 2).ok


def test_extremal_series_catch_one_h_weight_off(monkeypatch):
    monkeypatch.setattr(sl2, "_operator", _one_weight_off("h", 1, 2, 2))
    report = extremal_series_check(2, F(1), order=8)
    assert not report.ok
    assert report.failures[0].startswith("highest-vector series mismatch")


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("a", SAMPLE_A)
def test_all_relation_families(m, a):
    report = check_relations(m, a, max_level=3)
    assert report.ok, report.failures[:3]


def test_symmetrized_insertion_level_zero_counts():
    # with k=0 every insertion is x-_0, so the factor is just m
    for m in (1, 2, 3, 4):
        report = symmetrized_insertion_check(m, F(5, 3), 0)
        assert report.ok


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("a", SAMPLE_A)
@pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
def test_symmetrized_insertion_grid(m, a, k):
    assert symmetrized_insertion_check(m, a, k).ok


def test_symmetrized_insertion_short_node_instance():
    # V_3 centered at a-1/2 has root string a-1/2, a+1/2, a+3/2, whose
    # first power sum is 3a + 3/2
    for a in SAMPLE_A:
        assert symmetrized_insertion_check(3, a - F(1, 2), 1).ok
        assert sum(a - F(1, 2) + t for t in range(3)) == 3 * a + F(3, 2)


def test_extremal_series_v1_lowest():
    # V_1(b): h_k eigenvalue on w_0 is -b^k, summing to (u-(b+1))/(u-b)
    b = F(5, 3)
    h = [operator(1, b, "h", k) for k in range(8)]
    coeffs = [F(1)] + [op.weights[0] for op in h]
    expected = series_from_poly_ratio(
        UniPoly.from_roots([b + 1]), UniPoly.from_roots([b]), 8
    )
    assert coeffs == expected
    for k in range(8):
        assert coeffs[k + 1] == -(b**k)


def test_extremal_series_highest_telescopes():
    # V_m(a) highest vector series collapses to (u-(a-1))/(u-(a+m-1))
    m, a = 3, F(1)
    h = [operator(m, a, "h", k) for k in range(8)]
    coeffs = [F(1)] + [op.weights[m] for op in h]
    expected = series_from_poly_ratio(
        UniPoly.from_roots([a - 1]), UniPoly.from_roots([a + m - 1]), 8
    )
    assert coeffs == expected


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("a", SAMPLE_A)
def test_extremal_series_grid(m, a):
    assert extremal_series_check(m, a, order=8).ok
