"""Series transport along extremal paths: steps, anchors, full tables."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction as F
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ywalk import sl2, verify, walk
from ywalk.cli import main
from ywalk.cyclicity import compute_t_sets
from ywalk.exact import A, ParamPoly, UniPoly
from ywalk.rootsystem import CartanData, lowest_weight, path_exponents, weyl_longest
from ywalk.sl2 import (
    coefficient,
    extremal_series_check,
    operator,
    series_exp,
    series_from_poly_ratio,
    series_log,
    series_rescale,
)
from ywalk.walk import (
    CrosscheckError,
    WalkState,
    apply_step,
    init_walk,
    run_walk,
)
from ywalk.verify import G2_WORD, SAMPLE_A
from ywalk.verify import _lifted_series as lifted  # H_i(u) in a, via coefficient

from conftest import finite_type_cartan
from make_tables_atlas import TYPES
from test_exact import _split_reference, unscaled

# application order of (node, exponent) for the two flagship walks
STEPS_W1 = ((2, 0), (1, 1), (2, 3), (1, 2), (2, 3), (1, 1))
STEPS_W2 = ((2, 1), (1, 1), (2, 2), (1, 1), (2, 1), (1, 0))


def drive(g2, fundamental, steps):
    state = init_walk(g2, fundamental, 8)
    for node, m in steps:
        apply_step(state, node, m)
    return state


def test_init_walk_series(g2):
    state = init_walk(g2, 1, 8)
    expected = series_log(
        series_from_poly_ratio(UniPoly.from_roots([A - 3]), UniPoly.from_roots([A]), 8)
    )
    assert lifted(state, 1) == expected
    assert unscaled(state.series[0]) == [0] + [c.evaluate(0) for c in expected[1:]]
    assert state.series[1] == [0] * 9
    assert coefficient(state, 1, 0) == ParamPoly.const(3)  # d_1 * weight coord
    state2 = init_walk(g2, 2, 8)
    assert state2.series[0] == [0] * 9
    assert coefficient(state2, 2, 0) == ParamPoly.const(1)


def _snapshot(state):
    """Copies of the state's series, divisors and weight."""
    series = [list(s) for s in state.series]
    return series, [dict(x) for x in state.divisors], list(state.weight)


def test_first_extractions(g2):
    # the doubled unscaled roots 2 d beta at a = 0: the step polynomials are
    # u - a/3 (rescaled by d_1 = 3) and u - a
    state = init_walk(g2, 1, 8)
    assert apply_step(state, 1, 1) == (0,)
    state = init_walk(g2, 2, 8)
    assert apply_step(state, 2, 1) == (0,)


def test_second_walk_reaches_half_shifted_root(g2):
    # the step polynomial u - (a/3 + 1/2): beta = 1/2 at d_1 = 3, doubled 3
    state = init_walk(g2, 2, 8)
    apply_step(state, 2, 1)
    assert apply_step(state, 1, 1) == (3,)


def test_zero_exponent_step_needs_a_zero_series(g2):
    state = init_walk(g2, 1, 8)
    _bump(state, 2, 3)
    before = _snapshot(state)
    with pytest.raises(CrosscheckError):
        apply_step(state, 2, 0)
    assert _snapshot(state) == before


def test_zero_exponent_step_needs_an_empty_divisor(g2):
    state = init_walk(g2, 1, 8)
    state.divisors[1] = {-2: 1, 0: -1}
    before = _snapshot(state)
    with pytest.raises(CrosscheckError, match="node 2 divisor is nonzero at a zero"):
        apply_step(state, 2, 0)
    assert _snapshot(state) == before


@pytest.mark.parametrize(
    "divisor, m, message",
    [
        # the start divisor [-3] - [0] of node 1 (d = 3), doubled, negated
        ({-6: -1, 0: 1}, 1, "root 0 multiplicity -1"),
        # a pole at 3/2 with no zero 3 below it
        ({-6: 1, 0: -1, 3: -1}, 2, "not a highest-weight divisor"),
        ({-6: 1, 0: -1}, 2, "has 1 roots, not the exponent 2"),
        # moved by half a step: the series still has its root at 0
        ({-5: 1, 1: -1}, 1, "series is not a degree-1 highest-weight series"),
    ],
    ids=["negative", "not highest weight", "root count", "series"],
)
def test_extraction_checks_the_divisor(g2, divisor, m, message):
    state = init_walk(g2, 1, 8)
    state.divisors[0] = divisor
    before = _snapshot(state)
    with pytest.raises(CrosscheckError, match=f"node 1 .*{message}"):
        apply_step(state, 1, m)
    # every check runs before the transport, so a failed step moves nothing
    assert _snapshot(state) == before


def test_zero_exponent_step_is_inert(g2):
    state = init_walk(g2, 1, 8)
    before = _snapshot(state)
    assert apply_step(state, 2, 0) == ()
    assert _snapshot(state) == before


def test_transport_anchors(g2):
    # after x-_1 then (x-_2)^3 on the top vector of the first fundamental:
    state = drive(g2, 1, STEPS_W1[:3])
    assert coefficient(state, 1, 1) == 6 * A
    assert coefficient(state, 1, 2) == 6 * A * A + 6
    # rescaled commuting generator at the long node: exp picks up 2a/3 + 2
    h_tilde = series_exp(series_rescale(lifted(state, 1), 3))
    assert h_tilde[2] == 2 * A / 3 + 2
    # one more long-node step: short-node h_{2,1} lands on 3(a + 7/2)
    state = drive(g2, 1, STEPS_W1[:4])
    h2 = series_exp(lifted(state, 2))
    assert h2[2] == 3 * (A + F(7, 2))


def test_weight_bookkeeping_along_walk(g2):
    state = init_walk(g2, 1, 8)
    for node, m in STEPS_W1:
        apply_step(state, node, m)
        for i in (1, 2):
            assert coefficient(state, i, 0) == ParamPoly.const(
                g2.di(i) * state.weight[i - 1]
            )
    assert state.weight == [-1, 0]  # lowest weight of the first fundamental


def test_reextraction_after_step_sees_the_same_roots(g2):
    # post-step the node series is the lowest-vector image of the same
    # polynomial: solving with the negated shift recovers the power sums of
    # the unscaled roots r, returned doubled, and the node divisor is
    # sum_r ([r + d] - [r])
    state = init_walk(g2, 1, 8)
    for node, m in STEPS_W1:
        roots = apply_step(state, node, m)
        if m:
            d = g2.di(node)
            again = _ref_solve_power_sums(unscaled(state.series[node - 1]), -d, m)
            assert again == [sum(F(z, 2) ** k for z in roots) for k in range(m + 1)]
            assert state.divisors[node - 1] == _divisor(
                [(z + 2 * d, 1) for z in roots] + [(z, -1) for z in roots]
            )


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

        def module_series(s):
            h = [operator(1, a_val, "h", k).weights[s] for k in range(8)]
            return series_log([F(1)] + h)

        def walk_series():
            return [c.evaluate(a_val) for c in lifted(state, 1)]

        assert walk_series() == module_series(1)
        apply_step(state, 1, 1)
        assert walk_series() == module_series(0)


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


def test_walk_labels_are_ints_whatever_the_caller_passes(g2):
    class Label:
        def __index__(self):
            return 1

    want = run_walk(g2, G2_WORD, 1, 8)
    for label in (Label(), True):
        report = run_walk(g2, G2_WORD, label, 8)
        assert report == want
        assert type(report.fundamental) is int
        assert type(path_exponents(g2, G2_WORD, label).fundamental) is int
        assert all(type(t.b) is int for t in compute_t_sets([report]))
        assert init_walk(g2, label, 8) == init_walk(g2, 1, 8)


def test_extract_needs_enough_order(g2):
    state = init_walk(g2, 1, 3)
    state.series[1] = [0, 6, 0, 0]  # H_0 = 3
    with pytest.raises(ValueError):
        apply_step(state, 2, 3)


class _Products(NamedTuple):
    """Stand-in Cartan data for apply_step: d_i = 1 and a_{i,c} = products[i-1]
    at every c, so that d_i a_{i,c} takes each drawn value."""

    products: tuple

    @property
    def rank(self):
        return len(self.products)

    def di(self, i):
        return 1

    def aij(self, i, c):
        return self.products[i - 1]


def _docstring_transport(row, dai, p, order):
    """The node series after one step, term by term from apply_step's
    docstring, over Fraction."""
    out = list(row)
    for k in range(order):
        term = dai * p[k]
        for s in range(0, k - 1):
            if (k + s) % 2 == 0:
                term += (
                    F(1, 2 ** (k - s))
                    * F(dai) ** (k + 1 - s)
                    * F(math.comb(k + 1, s), k + 1)
                    * p[s]
                )
        out[k + 1] -= term
    return out


def _divisor(points):
    """The divisor of (doubled point, multiplicity) pairs, zeros dropped."""
    out = {}
    for z, mult in points:
        out[z] = out.get(z, 0) + mult
    return {z: mult for z, mult in out.items() if mult}


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=2, max_value=24), st.data())
def test_apply_step_matches_its_docstring_formula(order, data):
    # d_i a_{i,c} = 0 occurs on F4 and B2, where apply_step skips the node
    products = data.draw(
        st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=3)
    )
    m = data.draw(st.integers(min_value=1, max_value=order - 1))
    # node 1 holds the highest-weight divisor sum_r ([r - 1] - [r]) of m
    # half-integer roots r, given doubled, the other nodes any divisor
    roots = data.draw(st.lists(st.integers(-9, 9), min_size=m, max_size=m))
    p = [sum(F(z, 2) ** k for z in roots) for k in range(order + 1)]
    points = st.tuples(st.integers(-9, 9), st.integers(-2, 2))
    divisors = [_divisor([(z - 2, 1) for z in roots] + [(z, -1) for z in roots])] + [
        _divisor(data.draw(st.lists(points, max_size=4))) for _ in products[1:]
    ]
    # H_{i,0} = d_i times the weight coordinate, so the u^-1 entries are
    # integers; the state holds each series at its scale, k 2^k times u^{-k}.
    # Node 1 passes the highest-weight check: its series is -sum mult z^k
    # over its divisor, and its weight coordinate is m; the others are random
    weight = (m,) + data.draw(st.tuples(*(st.integers(-4, 4) for _ in products[1:])))
    tails = st.lists(st.integers(-99, 99), min_size=order - 1, max_size=order - 1)
    series = [
        [-sum(mult * z**k for z, mult in divisors[0].items()) for k in range(order + 1)]
    ] + [[0, 2 * w] + data.draw(tails) for w in weight[1:]]
    state = WalkState(
        _Products(tuple(products)),
        order,
        [list(r) for r in series],
        list(weight),
        [dict(x) for x in divisors],
    )
    assert apply_step(state, 1, m) == tuple(sorted(roots))
    for row, dai, got in zip(series, products, state.series):
        assert all(type(n) is int for n in got)
        assert unscaled(got) == _docstring_transport(unscaled(row), dai, p, order)
    assert state.weight == [w - m * a for w, a in zip(weight, products)]
    # D_i -= sum_r ([r - x/2] - [r + x/2]), x = d_i a_{i,1}, where d_i a_{i,1} != 0
    for before, x, got in zip(divisors, products, state.divisors):
        moved = [(z - x, -1) for z in roots] + [(z + x, 1) for z in roots]
        assert got == (_divisor(list(before.items()) + moved) if x else before)


# ------------------------------------------------------- crosscheck mutations


def _bump(state, node, k):
    """Add 1 to the stored u^{-k} entry: a fault of 1/(k 2^k) in H_node."""
    state.series[node - 1][k] += 1


def _off_by_one_transport(k=None):
    """apply_step whose delta at the acting node is off by one in the stored
    u^{-k} entry, or in the u^{-order} entry when k is None: there the fault
    is 1/(N 2^N), the smallest the walk's integers can hold, in the deepest
    coefficient any check reads."""
    original = walk.apply_step

    def corrupted(state, node, m):
        roots = original(state, node, m)
        if m:
            _bump(state, node, state.order if k is None else k)
        return roots

    return "apply_step", corrupted


def _corrupt_after_last_step():
    """apply_step that adds 1 at u^-5 of node 2 once the last step is done,
    after every per-step crosscheck that could see it."""
    original = walk.apply_step
    calls = 0

    def corrupted(state, node, m):
        nonlocal calls
        roots = original(state, node, m)
        calls += 1
        if calls == len(G2_WORD):
            _bump(state, 2, 5)
        return roots

    return "apply_step", corrupted


def _wrong_half_shift():
    """_move_divisor that moves every point by (x + 1)/2, not x/2."""
    original = walk._move_divisor
    return "_move_divisor", lambda divisor, roots, x: original(divisor, roots, x + 1)


def _wrong_last_acting_move():
    """_move_divisor that moves the acting node's divisor by (x + 1)/2 on the
    fifth positive step, the last of both G2 walks; the acting node is the
    one with x = 2 d > 0.  Nothing reads that divisor after the step, and
    the series does not depend on it."""
    original = walk._move_divisor
    calls = 0

    def corrupted(divisor, roots, x):
        nonlocal calls
        calls += x > 0
        original(divisor, roots, x + (calls == 5 and x > 0))

    return "_move_divisor", corrupted


MUTATIONS = {
    "transport u^-2": lambda: _off_by_one_transport(2),
    "transport u^-8": lambda: _off_by_one_transport(8),
    "transport u^-order": _off_by_one_transport,
    "divisor half-shift": _wrong_half_shift,
    "node 2 after the last step": _corrupt_after_last_step,
    "last acting divisor": _wrong_last_acting_move,
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


@pytest.mark.parametrize("order", (8, 20, 64))
def test_smallest_fault_names_its_coefficient_and_residual(
    g2, monkeypatch, capsys, order
):
    # the first positive step of the first G2 walk is step 5, x-_1 once
    monkeypatch.setattr(walk, *MUTATIONS["transport u^-order"]())
    message = (
        "lowest-vector crosscheck failed at step 5 (node 1, exponent 1); "
        f"u^-{order} coefficient off by {F(1, order << order)}"
    )
    with pytest.raises(CrosscheckError) as caught:
        run_walk(g2, G2_WORD, 1, order)
    assert str(caught.value) == message
    assert main(["walk", "--weight", "1", "--order", str(order)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"internal invariant violation: {message}\n"


def test_series_faults_name_their_first_coefficient(g2, monkeypatch):
    # the highest-weight check in apply_step, whose first difference
    # is at u^-2 (a fault of -2/(2 2^2)) and not at the later u^-4
    state = init_walk(g2, 1, 8)
    state.series[0][2] -= 2
    state.series[0][4] += 5
    with pytest.raises(CrosscheckError) as caught:
        apply_step(state, 1, 1)
    assert str(caught.value) == (
        "node 1 series is not a degree-1 highest-weight series; "
        "u^-2 coefficient off by -1/4"
    )
    # the end-of-walk check: the first G2 walk ends on node 1, so node 2
    # must carry the zero series, and the mutation adds 1/(5 2^5) at u^-5
    monkeypatch.setattr(walk, *MUTATIONS["node 2 after the last step"]())
    with pytest.raises(CrosscheckError) as caught:
        run_walk(g2, G2_WORD, 1, 8)
    assert str(caught.value) == (
        "node 2 series is not a lowest-vector series; u^-5 coefficient off by 1/160"
    )


# ------------------------------------------- the symbolic walk as reference
#
# The walk as it was written before it moved to a = 0: every coefficient a
# ParamPoly, the parameter carried symbolically through every step.  It is
# kept as it was, less its argument checks, with private copies of the exact
# helpers it used, so that it shares no arithmetic with the a = 0 walk it
# checks.  Its power sums and records are test-local tuples.


class _RefSums(NamedTuple):
    """p_1, p_2, ... of a root multiset of the given degree, in a."""

    degree: int
    values: tuple


class _RefRecord(NamedTuple):
    step: int
    node: int
    exponent: int
    poly: UniPoly
    power_sums: _RefSums
    crosscheck_ok: bool | None


def _ref_elementary_raw(m, values):
    e = [ParamPoly.const(1)]
    for k in range(1, m + 1):
        acc = ParamPoly()
        for i in range(1, k + 1):
            term = values[i - 1] * e[k - i]
            acc = acc + (term if i % 2 == 1 else -term)
        e.append(acc / k)
    return e[1:]


def _ref_newton_extend(m, values, top_index):
    if m == 0:
        return [ParamPoly() for _ in range(top_index)]
    e = _ref_elementary_raw(m, values)
    vals = list(values[:m])
    while len(vals) < top_index:
        k = len(vals) + 1
        acc = ParamPoly()
        for i in range(1, m + 1):
            prev = ParamPoly.const(m) if k - i == 0 else vals[k - i - 1]
            term = e[i - 1] * prev
            acc = acc + (term if i % 2 == 1 else -term)
        vals.append(acc)
    return vals


def _ref_power_sums_to_monic(p):
    m = p.degree
    e = _ref_elementary_raw(m, p.values)
    coeffs = [ParamPoly() for _ in range(m + 1)]
    coeffs[m] = ParamPoly.const(1)
    for k in range(1, m + 1):
        coeffs[m - k] = e[k - 1] if k % 2 == 0 else -e[k - 1]
    return UniPoly(coeffs)


def _ref_shift_log_series(p, shift, order):
    shift = F(shift)
    out = [ParamPoly()]
    for k in range(1, order + 1):
        acc = ParamPoly()
        for j in range(k):
            acc = acc + (math.comb(k, j) * (-shift) ** (k - j)) * _ref_p(p, j)
        out.append(acc / -k)
    return out


def _ref_zero(order):
    return [ParamPoly()] * (order + 1)


def _ref_p(p, k):
    """p_k of a _RefSums, with p_0 the root count."""
    return ParamPoly.const(p.degree) if k == 0 else p.values[k - 1]


@dataclass
class _RefState:
    cartan: CartanData
    order: int
    series: list
    weight: tuple


def _ref_solve_power_sums(lam, shift, m):
    shift = F(shift)
    p = [ParamPoly.const(m)]
    for k in range(1, m + 1):
        acc = (k + 1) * lam[k + 1]
        for s in range(k):
            acc = acc + math.comb(k + 1, s) * (-shift) ** (k + 1 - s) * p[s]
        p.append(acc / ((k + 1) * shift))
    return p


def _ref_extract_step_poly(state, node, m):
    d = state.cartan.di(node)
    if m == 0:
        if state.series[node - 1] != _ref_zero(state.order):
            raise CrosscheckError(f"node {node} series is nonzero at a zero exponent")
        return UniPoly.one(), _RefSums(0, tuple(ParamPoly() for _ in range(state.order)))
    p = _ref_solve_power_sums(state.series[node - 1], d, m)
    rescaled = _RefSums(m, tuple(p[k] / F(d) ** k for k in range(1, m + 1)))
    poly = _ref_power_sums_to_monic(rescaled)
    unscaled = _RefSums(m, tuple(_ref_newton_extend(m, p[1:], state.order)))
    if state.series[node - 1] != _ref_shift_log_series(unscaled, d, state.order):
        raise CrosscheckError(
            f"node {node} series is not a degree-{m} highest-weight series"
        )
    return poly, unscaled


def _ref_apply_step(state, node, m, p):
    if m == 0:
        return state
    c = node
    for i in range(1, state.cartan.rank + 1):
        dai = state.cartan.di(i) * state.cartan.aij(i, c)
        delta = [ParamPoly()]
        for k in range(state.order):
            term = dai * _ref_p(p, k)
            for s in range(0, k - 1):
                if (k + s) % 2 == 0:
                    term = term + (
                        F(dai) ** (k + 1 - s)
                        * F(math.comb(k + 1, s), (k + 1) * 2 ** (k - s))
                    ) * _ref_p(p, s)
            delta.append(term)
        old = state.series[i - 1]
        state.series[i - 1] = [x - y for x, y in zip(old, delta)]
    state.weight = tuple(
        w - m * state.cartan.aij(i, c) for i, w in enumerate(state.weight, start=1)
    )
    return state


def _symbolic_walk_reference(cartan, word, fundamental, order):
    """(records, states): the symbolic walk's _RefRecords and, after every
    step, its node series as coefficient lists."""
    exps = path_exponents(cartan, word, fundamental)
    series = [_ref_zero(order) for _ in range(cartan.rank)]
    series[fundamental - 1] = _ref_shift_log_series(
        _RefSums(1, tuple(A**k for k in range(1, order + 1))),
        cartan.di(fundamental),
        order,
    )
    state = _RefState(cartan, order, series, cartan.fundamental(fundamental))
    records, states = [], []
    checked = {}
    for j in range(len(exps.word), 0, -1):
        node = exps.word[j - 1]
        m = exps.exponents[j - 1]
        poly, sums = _ref_extract_step_poly(state, node, m)
        _ref_apply_step(state, node, m, sums)
        crosscheck = None
        if m > 0:
            expected = _ref_shift_log_series(sums, -cartan.di(node), order)
            checked = {node: expected}
            crosscheck = state.series[node - 1] == expected
            if not crosscheck:
                raise CrosscheckError(f"lowest-vector crosscheck failed at step {j}")
        records.append(_RefRecord(j, node, m, poly, sums, crosscheck))
        states.append(list(state.series))
    assert state.weight == lowest_weight(cartan, cartan.fundamental(fundamental))
    for i in range(1, cartan.rank + 1):
        assert state.series[i - 1] == checked.get(i, _ref_zero(order))
    return records, states


def _assert_matches_reference(cartan, word, fundamental, order):
    """run_walk and the step-by-step a = 0 state against the symbolic walk:
    records (poly, a = 0 power sums, flags), every stored series
    entry (the int k 2^k times the u^{-k} coefficient at a = 0) and every
    coefficient(i, k)."""
    ref_records, ref_states = _symbolic_walk_reference(cartan, word, fundamental, order)
    report = run_walk(cartan, word, fundamental, order)
    assert len(report.records) == len(ref_records)
    for got, want in zip(report.records, ref_records):
        assert (got.step, got.node, got.exponent) == want[:3], f"step {want.step}"
        assert got.poly == want.poly, f"step {want.step}: {got.poly} != {want.poly}"
        sums = want.power_sums
        unscaled = [got.rescale * beta for beta in got.roots]
        assert [sum(r**k for r in unscaled) for k in range(order + 1)] == [
            sums.degree,
            *(v.evaluate(0) for v in sums.values),
        ], f"step {want.step}: power sums at a = 0"
        assert got.crosscheck_ok == want.crosscheck_ok, f"step {want.step}: flag"
    state = init_walk(cartan, fundamental, order)
    for rec, ref_series in zip(report.records, ref_states):
        roots = apply_step(state, rec.node, rec.exponent)
        assert all(type(z) is int for z in roots), f"step {rec.step}: roots"
        assert tuple(F(z, 2 * rec.rescale) for z in roots) == rec.roots, (
            f"step {rec.step}: roots read"
        )
        for i in range(1, cartan.rank + 1):
            got, want = state.series[i - 1], ref_series[i - 1]
            assert all(type(n) is int for n in got), f"step {rec.step}: node {i}"
            assert got == [k * 2**k * c.evaluate(0) for k, c in enumerate(want)], (
                f"step {rec.step}: node {i} series at scale k 2^k"
            )
            for k in range(order):
                assert coefficient(state, i, k) == want[k + 1], (
                    f"step {rec.step}: H_{{{i},{k}}}"
                )
    return report


G2_WORDS = (G2_WORD, (2, 1, 2, 1, 2, 1))

# (algebra fixture, word or None for the lex-least word, fundamental, order)
WALK_CASES = (
    [("g2", w, b, n) for w in G2_WORDS for b in (1, 2) for n in (8, 20)]
    + [("f4", None, b, 8) for b in (1, 2, 3, 4)]
    + [("a1", None, 1, 8)]
    + [(name, None, b, 8) for name in ("a2", "b2") for b in (1, 2)]
)


def _case_id(case):
    name, word, b, n = case
    return f"{name}-{''.join(map(str, word)) if word else 'lex'}-w{b}-n{n}"


def _resolve(request, case):
    name, word, b, n = case
    cartan = request.getfixturevalue(name)
    return cartan, word or weyl_longest(cartan), b, n


@pytest.mark.parametrize("case", WALK_CASES, ids=_case_id)
def test_walk_matches_symbolic_reference(request, case):
    _assert_matches_reference(*_resolve(request, case))


def test_roots_are_read_once_per_positive_step(g2, f4, monkeypatch):
    real = walk._read_roots
    reads = []

    def counted(state, node, m):
        reads.append((node, m))
        return real(state, node, m)

    monkeypatch.setattr(walk, "_read_roots", counted)
    walks = [(g2, w, b) for w in G2_WORDS for b in (1, 2)]
    walks += [(f4, weyl_longest(f4), b) for b in (1, 2, 3, 4)]
    for cartan, word, fundamental in walks:
        reads.clear()
        report = run_walk(cartan, word, fundamental, 8)
        assert reads == [(rec.node, rec.exponent) for rec in report.rows()]


def test_a0_split_matches_split_reference(request):
    # the a = 0 split against the deg+1-specialization split, on every row
    for case in WALK_CASES:
        cartan, word, fundamental, order = _resolve(request, case)
        for rec in run_walk(cartan, word, fundamental, order).rows():
            slope = F(1, cartan.di(rec.node))
            found = [(slope, beta) for beta in rec.roots]
            assert found == _split_reference(rec.poly)


def _lift_with_one_binomial_off(p):
    """sl2._lift with C(3, 1) read as 4."""
    return [
        ParamPoly(
            (math.comb(k, i) + ((k, i) == (3, 1))) * p[k - i] for i in range(k + 1)
        )
        for k in range(len(p))
    ]


def test_lift_mutation_is_caught(g2, monkeypatch):
    monkeypatch.setattr(sl2, "_lift", _lift_with_one_binomial_off)
    with pytest.raises((AssertionError, ValueError)):
        _assert_matches_reference(g2, G2_WORD, 1, 8)
    with pytest.raises(AssertionError, match="disagrees with the matrix module"):
        verify._rank1_against_matrices()


def _shift_with_one_binomial_off(self, delta):
    """UniPoly.shift with C(2, 1) read as 3."""
    d = F(delta)
    out = [ParamPoly() for _ in range(self.degree + 1)]
    for k, ck in enumerate(self.coeffs):
        for j in range(k + 1):
            binomial = math.comb(k, j) + ((k, j) == (2, 1))
            out[j] = out[j] + ck * (binomial * d ** (k - j))
    return UniPoly(out)


def test_shift_mutation_is_caught(monkeypatch, capsys):
    assert main(["walk", "--weight", "1"]) == 0
    clean = capsys.readouterr().out
    monkeypatch.setattr(UniPoly, "shift", _shift_with_one_binomial_off)
    # the sl2 suite's extremal series check reads pi(u +- 1) through shift
    assert not extremal_series_check(2, 0).ok
    assert main(["verify", "--suite", "sl2"]) == 3
    failed = [line for line in capsys.readouterr().out.splitlines() if "FAIL" in line]
    assert len(failed) == 12
    assert all(line.startswith("FAIL extremal series m=") for line in failed)
    # the walk never shifts: its polynomials are built from their roots
    assert main(["walk", "--weight", "1"]) == 0
    assert capsys.readouterr().out == clean


def test_walk_and_t_sets_do_no_param_poly_arithmetic(g2, f4, monkeypatch):
    calls = []

    def counted(name):
        real = vars(ParamPoly)[name]

        def wrapper(self, other):
            calls.append(name)
            return real(self, other)

        return wrapper

    for name in ("__mul__", "__rmul__", "__add__", "__radd__"):
        monkeypatch.setattr(ParamPoly, name, counted(name))
    walks = [(g2, w, (1, 2)) for w in G2_WORDS] + [(f4, weyl_longest(f4), (1, 2, 3, 4))]
    for cartan, word, fundamentals in walks:
        reports = [run_walk(cartan, word, b, 8) for b in fundamentals]
        compute_t_sets(reports)
    assert calls == []
    # the counter sees the product that reading a record's poly builds
    reports[0].rows()[-1].poly
    assert calls


def test_walk_builds_only_the_record_roots_as_fractions(g2, f4, monkeypatch):
    # a step's roots stay ints from the divisor read to the transport; the
    # one Fraction per root is the record's beta
    built, arithmetic = [], []

    def counted(name):
        real = getattr(F, name)

        def wrapper(self, other):
            arithmetic.append(name)
            return real(self, other)

        return wrapper

    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__"):
        monkeypatch.setattr(F, name, counted(name))
    monkeypatch.setattr(walk, "Fraction", lambda *args: built.append(args) or F(*args))
    walks = [(g2, w, b) for w in G2_WORDS for b in (1, 2)]
    walks += [(f4, weyl_longest(f4), b) for b in (1, 2, 3, 4)]
    for cartan, word, fundamental in walks:
        built.clear()
        report = run_walk(cartan, word, fundamental, 8)
        assert len(built) == sum(rec.exponent for rec in report.rows())
    assert arithmetic == []


# ------------------------------------- the series and divisor walks agree


def _first_disagreement(cartan, word, fundamental, order):
    """Drive init_walk and apply_step along the path exponents of ``word``;
    the first (j, i) such that after step j node i's series is not the
    series of node i's divisor, or None when the two agree throughout."""
    exps = path_exponents(cartan, word, fundamental)
    state = init_walk(cartan, fundamental, order)
    for j in range(len(exps.word), 0, -1):
        apply_step(state, exps.word[j - 1], exps.exponents[j - 1])
        for i in range(1, cartan.rank + 1):
            if state.series[i - 1] != walk._divisor_series(state.divisors[i - 1], order):
                return j, i
    return None


@pytest.mark.parametrize(
    "name, order", [(name, 8) for name in TYPES] + [("g2", 64)], ids=str
)
def test_series_and_divisor_walks_agree_at_every_step(name, order):
    # every fundamental, on the lex-least word and its reversal (for G2 the
    # two reduced words); the series walk is the divisor walk's oracle
    cartan = finite_type_cartan(name)
    lex = weyl_longest(cartan)
    for word in (lex, lex[::-1]):
        for b in range(1, cartan.rank + 1):
            where = _first_disagreement(cartan, word, b, order)
            assert where is None, (
                f"word {word}: series and divisor differ at "
                f"(type, b, j, i) = {(name, b, *where)}"
            )


def test_a_neighbour_transport_fault_fails_at_its_step(g2, monkeypatch):
    # the weight x^3 C(3, 0) of Z_0 = m in N_3, off by one only where
    # x = d_i a_{i,c} < 0, i.e. at a neighbour of the acting node.  In the
    # first G2 walk the first positive step is step 5 (node 1), whose
    # neighbour node 2 has x = -3; the walk's own checks read node 2 only
    # when it acts, at step 4
    original = walk._weight_table

    def corrupted(x, n):
        table = original(x, n)
        if x < 0:
            table = table[:2] + ((table[2][0] + 1, *table[2][1:]),) + table[3:]
        return table

    monkeypatch.setattr(walk, "_weight_table", corrupted)
    assert _first_disagreement(g2, G2_WORD, 1, 8) == (5, 2)
