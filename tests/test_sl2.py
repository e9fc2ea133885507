"""Evaluation-module oracle: generator actions and identity checks."""

from __future__ import annotations

from fractions import Fraction as F

import pytest

from ywalk.exact import ParamSeries, UniPoly, series_from_poly_ratio
from ywalk.sl2 import (
    EvalModule,
    GeneratorLabel,
    act,
    check_relations,
    extremal_series_check,
    symmetrized_insertion_check,
)
from ywalk.verify import SAMPLE_A


def test_act_raising_example():
    for a in SAMPLE_A:
        mod = EvalModule(2, a)
        out = act(mod, GeneratorLabel("x+", 1), mod.basis_vector(1))
        assert out == tuple((1 + a) * 2 * c for c in mod.basis_vector(2))


def test_act_h0_is_weight_grading():
    # substituting k=0 collapses the diagonal action to 2s - m
    for m in (1, 2, 3):
        mod = EvalModule(m, F(5, 3))
        for s in range(m + 1):
            out = act(mod, GeneratorLabel("h", 0), mod.basis_vector(s))
            assert out == tuple((2 * s - m) * c for c in mod.basis_vector(s))


def test_act_lowering_kills_bottom():
    mod = EvalModule(3, F(1))
    for k in range(4):
        assert all(
            c == 0 for c in act(mod, GeneratorLabel("x-", k), mod.basis_vector(0))
        )
    assert all(c == 0 for c in act(mod, GeneratorLabel("x+", 2), mod.highest()))


def test_generator_label_validation():
    with pytest.raises(ValueError):
        GeneratorLabel("y", 0)
    with pytest.raises(ValueError):
        GeneratorLabel("h", -1)
    mod = EvalModule(1, F(0), max_level=2)
    with pytest.raises(ValueError):
        mod.matrix(GeneratorLabel("x+", 3))


def test_h_matrices_commute():
    report = check_relations(2, F(1, 2), max_level=2)
    assert report.ok


def test_commutator_gives_h():
    # [x+_1, x-_2] = h_3 checked directly on V_3(1/2)
    mod = EvalModule(3, F(1, 2))
    xp = mod.matrix(GeneratorLabel("x+", 1))
    xm = mod.matrix(GeneratorLabel("x-", 2))
    h3 = mod.matrix(GeneratorLabel("h", 3))
    n = mod.dim
    comm = tuple(
        tuple(
            sum(xp[r][k] * xm[k][c] - xm[r][k] * xp[k][c] for k in range(n))
            for c in range(n)
        )
        for r in range(n)
    )
    assert comm == h3


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
    mod = EvalModule(1, b, max_level=8)
    coeffs = [F(1)] + [mod.matrix(GeneratorLabel("h", k))[0][0] for k in range(8)]
    expected = series_from_poly_ratio(
        UniPoly.from_roots([b + 1]), UniPoly.from_roots([b]), 8
    )
    assert ParamSeries(coeffs, order=8) == expected
    for k in range(8):
        assert coeffs[k + 1] == -(b**k)


def test_extremal_series_highest_telescopes():
    # V_m(a) highest vector series collapses to (u-(a-1))/(u-(a+m-1))
    m, a = 3, F(1)
    mod = EvalModule(m, a, max_level=8)
    coeffs = [F(1)] + [mod.matrix(GeneratorLabel("h", k))[m][m] for k in range(8)]
    expected = series_from_poly_ratio(
        UniPoly.from_roots([a - 1]), UniPoly.from_roots([a + m - 1]), 8
    )
    assert ParamSeries(coeffs, order=8) == expected


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("a", SAMPLE_A)
def test_extremal_series_grid(m, a):
    assert extremal_series_check(m, a, order=8).ok
