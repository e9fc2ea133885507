"""Eigenvalue-series transport along extremal-weight paths.

The walk starts at the top vector of a fundamental module, where the
commuting-family log-series H_i(u) at the starting node equals
log((u-(a-d_i))/(u-a)) and vanishes at every other node.  Processing the
reduced word from its right end, each step (node c, exponent m):

* extracts the degree-m associated polynomial of the current node-c
  restriction by solving the triangular Newton-type system that links the
  series coefficients to the power sums of the polynomial's roots, then

* pushes the series at every node across (x-_{c,0})^m using the closed
  commutator form [H_{i,k}, x-_{c,l}], under which a symmetrized level-s
  insertion contributes the s-th power sum of the step's unscaled roots.

Roots here are "unscaled": on the d_c-rescaled copy of the rank-1 algebra
at node c the associated polynomial has roots (unscaled roots)/d_c, and a
highest (resp. lowest) vector for that copy carries the series
log(pi(u+d_c)/pi(u)) (resp. log(pi(u-d_c)/pi(u))) built from the unscaled
monic pi.  The lowest-vector form is re-derived after every step from the
extracted roots and compared against the transported series; any mismatch
aborts the walk.

The parameter a enters only as a translation: the shift automorphism
x(u) -> x(u-b) of the Yangian sends V(a) to V(a+b) (Chari-Pressley, A Guide
to Quantum Groups, 1994, ch. 12), so the walk at a is the walk at a = 0
with every root moved by a.  The walk therefore runs on Fraction values at
a = 0 and keeps its StepRecords there.  A record's ``poly`` moves the row's
roots by a/d when it is read, and ``WalkState.coefficient`` lifts the
series coefficients through ``_lift``.

A record's ``roots``, read on first use like ``poly``, is the one place a
row is split.  Every row of finite-type data splits over the rationals: the
l-weights of a fundamental module are monomials with rational spectral
shifts (Frenkel-Mukhin, Comm. Math. Phys. 216, 2001).  So a row that does
not split is a walk fault.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .exact import (
    A,
    ParamPoly,
    UniPoly,
    _horner,
    _newton_extend,
    _rational_roots,
    power_sums_to_monic,
    shift_log_series,
)
from .rootsystem import CartanData, InputError, lowest_weight, path_exponents

__all__ = [
    "CrosscheckError",
    "WalkState",
    "StepRecord",
    "WalkReport",
    "init_walk",
    "solve_power_sums",
    "extract_step_poly",
    "apply_step",
    "run_walk",
]

DEFAULT_ORDER = 8


class CrosscheckError(RuntimeError):
    """An internal consistency check failed during a walk."""


def _lift(p: Sequence[Fraction]) -> list[ParamPoly]:
    """p_0..p_N of a root multiset at a = 0 as polynomials in a, once every
    root is moved by a: p_k(a) = sum_j C(k, j) a^{k-j} p_j."""
    return [
        ParamPoly(math.comb(k, i) * p[k - i] for i in range(k + 1))
        for k in range(len(p))
    ]


@dataclass
class WalkState:
    """Mutable per-walk state at a = 0: one H_i(u) log-series per node.

    series[i-1][k] is the u^{-k} coefficient of H_i(u), so series[i-1][k+1]
    is the eigenvalue of H_{i,k} on the current extremal vector at a = 0;
    the constant term is always zero.
    """

    cartan: CartanData
    fundamental: int
    order: int
    series: list[list[Fraction]]
    weight: tuple[int, ...]

    def coefficient(self, node: int, k: int) -> ParamPoly:
        """Eigenvalue of H_{node,k} on the current extremal vector, in a."""
        _check_node(self.cartan, node)
        # n times the u^{-n} coefficient of a log-ratio of monic polynomials
        # of equal degree is a signed power sum of their roots with count 0
        q = [n * c for n, c in enumerate(self.series[node - 1][: k + 2])]
        return _lift(q)[k + 1] / (k + 1)


@dataclass(frozen=True)
class StepRecord:
    """One processed path step and its extracted data, at a = 0."""

    step: int  # position j in the reduced word (1-based)
    node: int
    exponent: int
    row: tuple[Fraction, ...]  # monic row in u/d_node at a = 0, ascending
    rescale: int  # d_node
    power_sums: tuple[Fraction, ...]  # unscaled root power sums p_0..p_N at a = 0
    crosscheck_ok: bool | None  # None for zero-exponent steps

    @cached_property
    def poly(self) -> UniPoly:
        """The associated polynomial in u/d_node, in a: the row with every
        root moved by a/d_node, lifted on first read.

        Checked over the rationals at a = 1, where the row must have moved
        by exactly 1/d_node: pi_1(x + 1/d) = pi_0(x) at x = 0..m.
        """
        lifted = UniPoly(self.row).shift(-A / self.rescale)
        at_one = [c.evaluate(1) for c in lifted.coeffs]
        step = Fraction(1, self.rescale)
        for x in range(len(self.row)):
            if _horner(at_one, x + step) != _horner(self.row, x):
                raise CrosscheckError(
                    f"row at step {self.step} did not move by a/{self.rescale}"
                )
        return lifted

    @cached_property
    def roots(self) -> tuple[Fraction, ...]:
        """The roots beta of the row (in u/d_node, at a = 0), ascending with
        multiplicity; the associated polynomial's roots are a/d_node + beta.
        A row that does not split over the rationals raises CrosscheckError.
        """
        betas = _rational_roots(self.row)
        if betas is None:
            raise CrosscheckError(
                f"row at step {self.step} (node {self.node}, exponent "
                f"{self.exponent}) does not split over the rationals"
            )
        return tuple(betas)


@dataclass(frozen=True)
class WalkReport:
    """Full record of one extremal-path walk."""

    cartan: CartanData
    fundamental: int
    word: tuple[int, ...]
    exponents: tuple[int, ...]
    order: int
    records: tuple[StepRecord, ...]  # in application order (j = p down to 1)

    def rows(self) -> tuple[StepRecord, ...]:
        """Steps with positive exponent, i.e. the table rows."""
        return tuple(r for r in self.records if r.exponent > 0)


def init_walk(cartan: CartanData, fundamental: int, order: int = DEFAULT_ORDER) -> WalkState:
    """State at the top vector of the fundamental module with label
    ``fundamental``: H-series log((u-(a-d))/(u-a)) at that node, zero
    elsewhere.  An out-of-range label or an order below 2 raises InputError."""
    weight = cartan.fundamental(fundamental)
    if order < 2:
        raise InputError("series order must be at least 2")
    series = [[Fraction(0)] * (order + 1) for _ in range(cartan.rank)]
    # the single root a sits at 0
    series[fundamental - 1] = shift_log_series(
        [1] + [0] * (order - 1), cartan.di(fundamental), order
    )
    return WalkState(
        cartan=cartan,
        fundamental=fundamental,
        order=order,
        series=series,
        weight=weight,
    )


def _check_node(cartan: CartanData, node: int):
    """The step-level entry points take a node label in 1..rank."""
    if not 1 <= node <= cartan.rank:
        raise InputError(f"node {node} out of range 1..{cartan.rank}")


def _check_weight_bookkeeping(state: WalkState):
    # H_{i,0} must equal d_i times the i-th coordinate of the current weight
    for i in range(1, state.cartan.rank + 1):
        h0 = state.series[i - 1][1]
        if h0 != state.cartan.di(i) * state.weight[i - 1]:
            raise CrosscheckError(
                f"weight bookkeeping broken at node {i}: "
                f"H_0 = {h0}, weight {state.weight}"
            )


def solve_power_sums(lam: Sequence[Fraction], shift, m: int) -> list[Fraction]:
    """Solve (k+1) lam_{k+1} = -sum_{s<=k} C(k+1,s) (-shift)^{k+1-s} p_s for
    p_0..p_m, where lam_{k+1} is the u^{-k-1} coefficient and p_0 = m.

    With shift = +d this recovers the root power sums of a highest-weight
    series log(pi(u+d)/pi(u)); with shift = -d, those of a lowest-weight
    series log(pi(u-d)/pi(u)).
    """
    shift = Fraction(shift)
    if shift == 0:
        raise ValueError("shift must be nonzero")
    p = [Fraction(m)]
    for k in range(1, m + 1):
        acc = (k + 1) * lam[k + 1]
        for s in range(k):
            acc = acc + math.comb(k + 1, s) * (-shift) ** (k + 1 - s) * p[s]
        p.append(acc / ((k + 1) * shift))
    return p


def extract_step_poly(state: WalkState, node: int, m: int) -> list[Fraction]:
    """Power sums p_0..p_N (p_0 = m, N the series order) of the unscaled
    roots of the current node restriction's degree-m associated polynomial.

    Solves (k+1) H_k = -sum_{s=0}^{k} C(k+1,s) (-d)^{k+1-s} p_s for p_1..p_m
    and extends them through the truncation order.  The full series is then
    rebuilt from the extended power sums and compared against the state as
    a highest-weight consistency check.
    """
    _check_node(state.cartan, node)
    if m < 0:
        raise ValueError("step exponent must be non-negative")
    if m + 1 > state.order:
        raise ValueError(
            f"step degree {m} needs series order >= {m + 1}, have {state.order}"
        )
    if m == 0:
        # a zero weight coordinate at an extremal vector: the node
        # restriction is trivial, so its series must vanish
        if any(state.series[node - 1]):
            raise CrosscheckError(f"node {node} series is nonzero at a zero exponent")
        return [Fraction(0)] * (state.order + 1)
    d = state.cartan.di(node)
    p = solve_power_sums(state.series[node - 1], d, m)
    p = p[:1] + _newton_extend(m, p[1:], state.order)
    # highest-weight consistency: the node series must match the roots.
    if state.series[node - 1] != shift_log_series(p, d, state.order):
        raise CrosscheckError(
            f"node {node} series is not a degree-{m} highest-weight series"
        )
    return p


def apply_step(state: WalkState, node: int, m: int, p: Sequence[Fraction]) -> WalkState:
    """Transport every node's series across (x-_{node,0})^m.

    p must carry the step's unscaled root power sums p_0..p_N (p_0 = m)
    extended through the truncation order N; the update at node i and
    coefficient k subtracts

        d_i a_{i,node} p_k
        + sum_{0<=s<=k-2, k+s even} 2^{s-k} (d_i a_{i,node})^{k+1-s}
              C(k+1,s)/(k+1) p_s

    The p_k term is the s = k term of the sum.  With p_s = P_s/D over a
    common denominator D, (k+1) 2^k D times the update is the integer
    sum_{s<=k, k+s even} (d_i a_{i,node})^{k+1-s} C(k+1,s) 2^s P_s.
    """
    _check_node(state.cartan, node)
    if p[0] != m:
        raise ValueError("power-sum degree does not match the step exponent")
    if len(p) <= state.order:
        raise ValueError("power sums must be extended through the series order")
    if m == 0:
        return state
    c = node
    n = state.order
    den = math.lcm(*(x.denominator for x in p[:n]))
    # 2^s P_s
    scaled = [x.numerator * (den // x.denominator) << s for s, x in enumerate(p[:n])]
    for i in range(1, state.cartan.rank + 1):
        dai = state.cartan.di(i) * state.cartan.aij(i, c)
        if dai == 0:
            continue
        powers = [dai**e for e in range(n + 1)]
        row = state.series[i - 1]
        for k in range(n):
            acc = 0
            for s in range(k % 2, k + 1, 2):
                acc += powers[k + 1 - s] * math.comb(k + 1, s) * scaled[s]
            row[k + 1] -= Fraction(acc, (k + 1) * den << k)
    # weight drops by m * alpha_c; alpha_c has weight coordinates A[:, c]
    state.weight = tuple(
        w - m * state.cartan.aij(i, c)
        for i, w in enumerate(state.weight, start=1)
    )
    _check_weight_bookkeeping(state)
    return state


def _record(j: int, node: int, m: int, d: int, p, crosscheck) -> StepRecord:
    """The step's record: its power sums and its row in u/d, at a = 0."""
    row = power_sums_to_monic(m, [p[k] / Fraction(d) ** k for k in range(1, m + 1)])
    return StepRecord(
        step=j,
        node=node,
        exponent=m,
        row=tuple(row),
        rescale=d,
        power_sums=tuple(p),
        crosscheck_ok=crosscheck,
    )


def run_walk(
    cartan: CartanData,
    word,
    fundamental: int,
    order: int = DEFAULT_ORDER,
) -> WalkReport:
    """Walk the extremal path of one fundamental module.

    Steps are processed from the right end of the reduced word (the order
    in which the lowering operators act on the top vector).  After every
    positive step the transported node series is compared with the
    lowest-vector form rebuilt from the step's roots.  At the end the
    weight must be the lowest weight and every node series a lowest-vector
    series for that weight.  A mismatch raises CrosscheckError.  An order
    below the largest path exponent + 2 raises InputError.
    """
    exps = path_exponents(cartan, word, fundamental)
    max_m = max(exps.exponents) if exps.exponents else 0
    if order < max_m + 2:
        raise InputError(
            f"series order {order} too small; need at least {max_m + 2}"
        )
    state = init_walk(cartan, fundamental, order)
    _check_weight_bookkeeping(state)
    records: list[StepRecord] = []
    checked: dict[int, list[Fraction]] = {}  # {node: series} of the latest crosscheck
    for j in range(len(exps.word), 0, -1):
        node = exps.word[j - 1]
        m = exps.exponents[j - 1]
        p = extract_step_poly(state, node, m)
        apply_step(state, node, m, p)
        crosscheck: bool | None = None
        if m > 0:
            expected = shift_log_series(p, -cartan.di(node), order)
            checked = {node: expected}
            crosscheck = state.series[node - 1] == expected
            if not crosscheck:
                raise CrosscheckError(
                    f"lowest-vector crosscheck failed at step {j} "
                    f"(node {node}, exponent {m})"
                )
        records.append(_record(j, node, m, cartan.di(node), p, crosscheck))
    if state.weight != lowest_weight(cartan, cartan.fundamental(fundamental)):
        raise CrosscheckError(
            f"walk did not land on the lowest weight: ended at {state.weight}"
        )
    # the lowest weight w0(omega_i) = -omega_i* is nonzero only at the node
    # of the last positive step, whose series must be the one crosschecked
    # there; at every other node the lowest-vector series is zero
    for i in range(1, cartan.rank + 1):
        if state.series[i - 1] != checked.get(i, [0] * (order + 1)):
            raise CrosscheckError(f"node {i} series is not a lowest-vector series")
    return WalkReport(
        cartan=cartan,
        fundamental=fundamental,
        word=exps.word,
        exponents=exps.exponents,
        order=order,
        records=tuple(records),
    )
