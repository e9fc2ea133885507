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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .exact import (
    A,
    ParamPoly,
    ParamSeries,
    PowerSums,
    UniPoly,
    extend_power_sums,
    power_sums_to_monic,
    shift_log_series,
)
from .rootsystem import CartanData, lowest_weight, path_exponents

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


@dataclass
class WalkState:
    """Mutable per-walk state: one H_i(u) log-series per node.

    series[i-1] stores H_i(u) as a ParamSeries whose u^{-k-1} coefficient
    is the eigenvalue of H_{i,k} on the current extremal vector; the
    constant term is always zero.
    """

    cartan: CartanData
    fundamental: int
    order: int
    series: list[ParamSeries]
    weight: tuple[int, ...]
    cursor: int = 0  # number of path steps applied so far

    def coefficient(self, node: int, k: int) -> ParamPoly:
        """Eigenvalue of H_{node,k} on the current extremal vector."""
        return self.series[node - 1].coeff(k + 1)


@dataclass(frozen=True)
class StepRecord:
    """One processed path step and its extracted data."""

    step: int  # position j in the reduced word (1-based)
    node: int
    exponent: int
    poly: UniPoly  # associated polynomial in the rescaled variable u/d_node
    power_sums: PowerSums  # unscaled root power sums p_1..p_N
    crosscheck_ok: bool | None  # None for zero-exponent steps


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
    elsewhere."""
    if not 1 <= fundamental <= cartan.rank:
        raise ValueError(f"fundamental index {fundamental} out of range")
    if order < 2:
        raise ValueError("series order must be at least 2")
    series = [ParamSeries.zero(order) for _ in range(cartan.rank)]
    series[fundamental - 1] = shift_log_series(
        PowerSums.of_roots([A], order), cartan.di(fundamental), order
    )
    return WalkState(
        cartan=cartan,
        fundamental=fundamental,
        order=order,
        series=series,
        weight=cartan.fundamental(fundamental),
    )


def _check_weight_bookkeeping(state: WalkState):
    # H_{i,0} must equal d_i times the i-th coordinate of the current weight
    for i in range(1, state.cartan.rank + 1):
        expected = ParamPoly.const(state.cartan.di(i) * state.weight[i - 1])
        if state.coefficient(i, 0) != expected:
            raise CrosscheckError(
                f"weight bookkeeping broken at node {i}: "
                f"H_0 = {state.coefficient(i, 0)}, weight {state.weight}"
            )


def solve_power_sums(lam: ParamSeries, shift, m: int) -> list[ParamPoly]:
    """Solve (k+1) lam_k = -sum_{s<=k} C(k+1,s) (-shift)^{k+1-s} p_s for
    p_0..p_m, where lam_k is the u^{-k-1} coefficient and p_0 = m.

    With shift = +d this recovers the root power sums of a highest-weight
    series log(pi(u+d)/pi(u)); with shift = -d, those of a lowest-weight
    series log(pi(u-d)/pi(u)).
    """
    shift = Fraction(shift)
    if shift == 0:
        raise ValueError("shift must be nonzero")
    p: list[ParamPoly] = [ParamPoly.const(m)]
    for k in range(1, m + 1):
        acc = (k + 1) * lam.coeff(k + 1)
        for s in range(k):
            acc = acc + math.comb(k + 1, s) * (-shift) ** (k + 1 - s) * p[s]
        p.append(acc / ((k + 1) * shift))
    return p


def extract_step_poly(state: WalkState, node: int, m: int) -> tuple[UniPoly, PowerSums]:
    """Associated polynomial of the current node restriction, degree m.

    Solves (k+1) H_k = -sum_{s=0}^{k} C(k+1,s) (-d)^{k+1-s} p_s for the
    unscaled root power sums p_1..p_m (p_0 = m), forms the monic polynomial
    in the rescaled variable from p_k / d^k, and extends the unscaled sums
    through the truncation order.  The full series is then rebuilt from
    the extended power sums and compared against the state as a
    highest-weight consistency check.
    """
    if m < 0:
        raise ValueError("step exponent must be non-negative")
    if m + 1 > state.order:
        raise ValueError(
            f"step degree {m} needs series order >= {m + 1}, have {state.order}"
        )
    d = state.cartan.di(node)
    if m == 0:
        # a zero weight coordinate at an extremal vector: the node
        # restriction is trivial, so its series must vanish
        if state.series[node - 1] != ParamSeries.zero(state.order):
            raise CrosscheckError(f"node {node} series is nonzero at a zero exponent")
        return UniPoly.one(), PowerSums(0, tuple(ParamPoly() for _ in range(state.order)))
    p = solve_power_sums(state.series[node - 1], d, m)
    rescaled = PowerSums(m, tuple(p[k] / Fraction(d) ** k for k in range(1, m + 1)))
    poly = power_sums_to_monic(rescaled)
    unscaled = extend_power_sums(PowerSums(m, tuple(p[1:])), state.order)
    # highest-weight consistency: the node series must match the roots.
    if state.series[node - 1] != shift_log_series(unscaled, d, state.order):
        raise CrosscheckError(
            f"node {node} series is not a degree-{m} highest-weight series"
        )
    return poly, unscaled


def apply_step(state: WalkState, node: int, m: int, p: PowerSums) -> WalkState:
    """Transport every node's series across (x-_{node,0})^m.

    p must carry the step's unscaled root power sums extended through the
    truncation order; the update at node i and coefficient k subtracts

        d_i a_{i,node} p_k
        + sum_{0<=s<=k-2, k+s even} 2^{s-k} (d_i a_{i,node})^{k+1-s}
              C(k+1,s)/(k+1) p_s
    """
    if p.degree != m:
        raise ValueError("power-sum degree does not match the step exponent")
    if p.top_index < state.order:
        raise ValueError("power sums must be extended through the series order")
    state.cursor += 1
    if m == 0:
        return state
    c = node
    for i in range(1, state.cartan.rank + 1):
        dai = state.cartan.di(i) * state.cartan.aij(i, c)
        delta = [ParamPoly()]  # constant term of the H-series stays zero
        for k in range(state.order):
            term = dai * p.p(k)
            for s in range(0, k - 1):
                if (k + s) % 2 == 0:
                    term = term + (
                        Fraction(dai) ** (k + 1 - s)
                        * Fraction(math.comb(k + 1, s), (k + 1) * 2 ** (k - s))
                    ) * p.p(s)
            delta.append(term)
        state.series[i - 1] = state.series[i - 1] - ParamSeries(
            delta, order=state.order
        )
    # weight drops by m * alpha_c; alpha_c has weight coordinates A[:, c]
    state.weight = tuple(
        w - m * state.cartan.aij(i, c)
        for i, w in enumerate(state.weight, start=1)
    )
    _check_weight_bookkeeping(state)
    return state


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
    series for that weight.  A mismatch raises CrosscheckError.
    """
    exps = path_exponents(cartan, word, fundamental)
    max_m = max(exps.exponents) if exps.exponents else 0
    if order < max_m + 2:
        raise ValueError(
            f"series order {order} too small; need at least {max_m + 2}"
        )
    state = init_walk(cartan, fundamental, order)
    _check_weight_bookkeeping(state)
    records: list[StepRecord] = []
    checked: dict[int, ParamSeries] = {}  # {node: series} of the latest crosscheck
    for j in range(len(exps.word), 0, -1):
        node = exps.word[j - 1]
        m = exps.exponents[j - 1]
        poly, sums = extract_step_poly(state, node, m)
        apply_step(state, node, m, sums)
        crosscheck: bool | None = None
        if m > 0:
            expected = shift_log_series(sums, -cartan.di(node), order)
            checked = {node: expected}
            crosscheck = state.series[node - 1] == expected
            if not crosscheck:
                raise CrosscheckError(
                    f"lowest-vector crosscheck failed at step {j} "
                    f"(node {node}, exponent {m})"
                )
        records.append(
            StepRecord(
                step=j,
                node=node,
                exponent=m,
                poly=poly,
                power_sums=sums,
                crosscheck_ok=crosscheck,
            )
        )
    if state.weight != lowest_weight(cartan, cartan.fundamental(fundamental)):
        raise CrosscheckError(
            f"walk did not land on the lowest weight: ended at {state.weight}"
        )
    # the lowest weight w0(omega_i) = -omega_i* is nonzero only at the node
    # of the last positive step, whose series must be the one crosschecked
    # there; at every other node the lowest-vector series is zero
    for i in range(1, cartan.rank + 1):
        if state.series[i - 1] != checked.get(i, ParamSeries.zero(order)):
            raise CrosscheckError(f"node {i} series is not a lowest-vector series")
    return WalkReport(
        cartan=cartan,
        fundamental=fundamental,
        word=exps.word,
        exponents=exps.exponents,
        order=order,
        records=tuple(records),
    )
