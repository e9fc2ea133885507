"""Series transport along extremal paths: steps, anchors, full tables."""

from __future__ import annotations

from fractions import Fraction as F

import pytest

from ywalk import walk
from ywalk.cli import main
from ywalk.exact import (
    A,
    ParamPoly,
    ParamSeries,
    PowerSums,
    UniPoly,
    series_exp,
    series_from_poly_ratio,
    series_log,
    series_rescale,
)
from ywalk.sl2 import EvalModule, GeneratorLabel
from ywalk.walk import (
    CrosscheckError,
    apply_step,
    extract_step_poly,
    init_walk,
    run_walk,
    solve_power_sums,
)
from ywalk.verify import G2_WORD, SAMPLE_A

# application order of (node, exponent) for the two flagship walks
STEPS_W1 = ((2, 0), (1, 1), (2, 3), (1, 2), (2, 3), (1, 1))
STEPS_W2 = ((2, 1), (1, 1), (2, 2), (1, 1), (2, 1), (1, 0))


def drive(g2, fundamental, steps):
    state = init_walk(g2, fundamental, 8)
    for node, m in steps:
        _, sums = extract_step_poly(state, node, m)
        apply_step(state, node, m, sums)
    return state


def test_init_walk_series(g2):
    state = init_walk(g2, 1, 8)
    expected = series_log(
        series_from_poly_ratio(UniPoly.from_roots([A - 3]), UniPoly.from_roots([A]), 8)
    )
    assert state.series[0] == expected
    assert state.series[1] == ParamSeries.zero(8)
    assert state.coefficient(1, 0) == ParamPoly.const(3)  # d_1 * weight coord
    state2 = init_walk(g2, 2, 8)
    assert state2.series[0] == ParamSeries.zero(8)
    assert state2.coefficient(2, 0) == ParamPoly.const(1)


def test_first_extractions(g2):
    state = init_walk(g2, 1, 8)
    extract_at_1 = extract_step_poly(state, 1, 1)[0]
    assert extract_at_1 == UniPoly.from_roots([A / 3])  # rescaled by d_1 = 3
    state = init_walk(g2, 2, 8)
    assert extract_step_poly(state, 2, 1)[0] == UniPoly.from_roots([A])


def test_second_walk_reaches_half_shifted_root(g2):
    state = init_walk(g2, 2, 8)
    _, sums = extract_step_poly(state, 2, 1)
    apply_step(state, 2, 1, sums)
    poly, _ = extract_step_poly(state, 1, 1)
    assert poly == UniPoly.from_roots([A / 3 + F(1, 2)])


def test_zero_exponent_step_needs_a_zero_series(g2):
    state = init_walk(g2, 1, 8)
    _bump(state, 2, 3)
    with pytest.raises(CrosscheckError):
        extract_step_poly(state, 2, 0)


def test_zero_exponent_step_is_inert(g2):
    state = init_walk(g2, 1, 8)
    before = list(state.series)
    poly, sums = extract_step_poly(state, 2, 0)
    assert poly == UniPoly.one()
    assert sums.degree == 0
    apply_step(state, 2, 0, sums)
    assert state.series == before


def test_transport_anchors(g2):
    # after x-_1 then (x-_2)^3 on the top vector of the first fundamental:
    state = drive(g2, 1, STEPS_W1[:3])
    assert state.coefficient(1, 1) == 6 * A
    assert state.coefficient(1, 2) == 6 * A * A + 6
    # rescaled commuting generator at the long node: exp picks up 2a/3 + 2
    h_tilde = series_exp(series_rescale(state.series[0], 3))
    assert h_tilde.coeff(2) == 2 * A / 3 + 2
    # one more long-node step: short-node h_{2,1} lands on 3(a + 7/2)
    state = drive(g2, 1, STEPS_W1[:4])
    h2 = series_exp(state.series[1])
    assert h2.coeff(2) == 3 * (A + F(7, 2))


def test_weight_bookkeeping_along_walk(g2):
    state = init_walk(g2, 1, 8)
    for node, m in STEPS_W1:
        _, sums = extract_step_poly(state, node, m)
        apply_step(state, node, m, sums)
        for i in (1, 2):
            assert state.coefficient(i, 0) == ParamPoly.const(
                g2.di(i) * state.weight[i - 1]
            )
    assert state.weight == (-1, 0)  # lowest weight of the first fundamental


def test_reextraction_after_step_sees_the_same_roots(g2):
    # post-step the node series is the lowest-vector image of the same
    # polynomial: solving with the negated shift recovers the power sums
    state = init_walk(g2, 1, 8)
    for node, m in STEPS_W1:
        _, sums = extract_step_poly(state, node, m)
        recorded = [sums.p(k) for k in range(m + 1)]
        apply_step(state, node, m, sums)
        if m:
            again = solve_power_sums(state.series[node - 1], -g2.di(node), m)
            assert again == recorded


def test_run_walk_first_fundamental(g2):
    report = run_walk(g2, G2_WORD, 1, 8)
    assert report.exponents == (1, 3, 2, 3, 1, 0)
    polys = [rec.poly for rec in report.rows()]
    assert polys == [
        UniPoly.from_roots([A / 3]),
        UniPoly.from_roots([A - F(1, 2), A + F(1, 2), A + F(3, 2)]),
        UniPoly.from_roots([(A + 1) / 3, (A + 2) / 3]),
        UniPoly.from_roots([A + F(3, 2), A + F(5, 2), A + F(7, 2)]),
        UniPoly.from_roots([(A + 3) / 3]),
    ]
    assert all(rec.crosscheck_ok for rec in report.rows())


def test_run_walk_second_fundamental(g2):
    report = run_walk(g2, G2_WORD, 2, 8)
    assert report.exponents == (0, 1, 1, 2, 1, 1)
    polys = [rec.poly for rec in report.rows()]
    assert polys == [
        UniPoly.from_roots([A]),
        UniPoly.from_roots([A / 3 + F(1, 2)]),
        UniPoly.from_roots([A + 2, A + 3]),
        UniPoly.from_roots([A / 3 + F(7, 6)]),
        UniPoly.from_roots([A + 5]),
    ]
    assert all(rec.crosscheck_ok for rec in report.rows())


def test_run_walk_rank_one(a1):
    report = run_walk(a1, (1,), 1, 8)
    rows = report.rows()
    assert len(rows) == 1
    assert rows[0].poly == UniPoly.from_roots([A])


def test_rank_one_series_agree_with_matrix_module(a1):
    for a_val in SAMPLE_A:
        state = init_walk(a1, 1, 8)
        mod = EvalModule(1, a_val, max_level=8)

        def matrix_series(s):
            coeffs = [F(1)] + [
                mod.matrix(GeneratorLabel("h", k))[s][s] for k in range(8)
            ]
            return series_log(ParamSeries(coeffs, order=8))

        assert state.series[0].evaluate_param(a_val) == matrix_series(1)
        _, sums = extract_step_poly(state, 1, 1)
        apply_step(state, 1, 1, sums)
        assert state.series[0].evaluate_param(a_val) == matrix_series(0)


def test_run_walk_alternate_reduced_word(g2):
    # the other reduced word also walks cleanly through all crosschecks
    report = run_walk(g2, (2, 1, 2, 1, 2, 1), 1, 8)
    assert all(rec.crosscheck_ok for rec in report.rows())
    assert sum(rec.exponent for rec in report.rows()) == sum(report.exponents)


def test_run_walk_order_too_small(g2):
    with pytest.raises(ValueError):
        run_walk(g2, G2_WORD, 1, 4)  # needs max exponent + 2 = 5


def test_run_walk_rejects_bad_word(g2):
    with pytest.raises(ValueError):
        run_walk(g2, (1, 2, 1), 1, 8)


def test_extract_needs_enough_order(g2):
    state = init_walk(g2, 1, 3)
    state.series[1] = ParamSeries([0, 3, 0, 0], order=3)
    with pytest.raises(ValueError):
        extract_step_poly(state, 2, 3)


def test_apply_step_requires_extended_sums(g2):
    state = init_walk(g2, 1, 8)
    with pytest.raises(ValueError):
        apply_step(state, 1, 1, PowerSums(1, (A,)))  # not extended to order


# ------------------------------------------------------- crosscheck mutations


def _bump(state, node, k):
    coeffs = list(state.series[node - 1].coeffs)
    coeffs[k] = coeffs[k] + 1
    state.series[node - 1] = ParamSeries(coeffs, order=state.order)


def _off_by_one_transport(k):
    """apply_step whose delta at the acting node is off by one at u^{-k}."""
    original = walk.apply_step

    def corrupted(state, node, m, p):
        original(state, node, m, p)
        if m:
            _bump(state, node, k)
        return state

    return "apply_step", corrupted


def _corrupt_after_last_step():
    """apply_step that adds 1 at u^-5 of node 2 once the last step is done,
    after every per-step crosscheck that could see it."""
    original = walk.apply_step

    def corrupted(state, node, m, p):
        original(state, node, m, p)
        if state.cursor == len(G2_WORD):
            _bump(state, 2, 5)
        return state

    return "apply_step", corrupted


def _flipped_shift_solve():
    """solve_power_sums reading a highest-weight series with shift -d."""
    original = walk.solve_power_sums
    return "solve_power_sums", lambda lam, shift, m: original(lam, -shift, m)


MUTATIONS = {
    "transport u^-2": lambda: _off_by_one_transport(2),
    "transport u^-8": lambda: _off_by_one_transport(8),
    "solve shift sign": _flipped_shift_solve,
    "node 2 after the last step": _corrupt_after_last_step,
}


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
@pytest.mark.parametrize("fundamental", (1, 2))
def test_crosschecks_catch_mutations(g2, monkeypatch, mutation, fundamental):
    monkeypatch.setattr(walk, *MUTATIONS[mutation]())
    with pytest.raises(CrosscheckError):
        run_walk(g2, G2_WORD, fundamental, 8)


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_cli_reports_crosscheck_failure_as_exit_three(monkeypatch, capsys, mutation):
    monkeypatch.setattr(walk, *MUTATIONS[mutation]())
    assert main(["walk", "--weight", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "internal invariant violation" in captured.err
