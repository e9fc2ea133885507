"""Eigenvalue-series transport along extremal-weight paths, with the
divisor of every node's l-weight kept beside its series.

The walk starts at the top vector of a fundamental module, where the
commuting-family log-series H_i(u) at the starting node equals
log((u-(a-d_i))/(u-a)) and vanishes at every other node.  At every vector
the walk visits, exp H_i(u) is a ratio of monic polynomials: the extremal
l-weight of Frenkel-Mukhin (Comm. Math. Phys. 216, 2001), moved along the
word by the braid-group action on l-weights (Chari, IMRN 2002).  So the
walk also keeps, per node, the divisor of exp H_i(u) at a = 0: each zero
with its multiplicity, and each pole with minus its multiplicity.  Every
point is a half-integer and is stored doubled, as an int.  The walk starts
from [-d_b] - [0] at its node b.  Processing the reduced word from its
right end, each step (node c, exponent m):

* reads the step's unscaled roots off the node-c divisor, once; it must be
  the highest-weight divisor sum_r ([r - d_c] - [r]): the root y has
  multiplicity R(y) = -sum_{j>=0} D_c(y + j d_c), and R >= 0 with sum m;
  the node-c series must be the series of that divisor of the roots read,
  so the series is the crosscheck of the divisor; then

* passes once over c and its neighbours, the nodes with a_{i,c} != 0 (no
  other node changes): pushes each series across (x-_{c,0})^m by the
  closed commutator form [H_{i,k}, x-_{c,l}], where a symmetrized level-s
  insertion contributes the s-th power sum of the same roots; moves each
  divisor by D_i -= sum_r ([r - x/2] - [r + x/2]), x = d_i a_{i,c}; and
  lowers w_i by m a_{i,c}, re-checking H_{i,0} = d_i w_i.

``apply_step`` is that step, the one step entry point: it returns the
roots it read as the doubled ints 2r, the form the divisors hold.

Roots here are "unscaled": on the d_c-rescaled copy of the rank-1 algebra
at node c the associated polynomial has roots (unscaled roots)/d_c.  A
highest (resp. lowest) vector for that copy carries the divisor
sum_r ([r - d_c] - [r]) (resp. sum_r ([r + d_c] - [r])).  Every series
check is one ``_check_series`` call against such a divisor; after every
step the lowest-vector divisor of the step's roots is checked against the
transported series.  A mismatch aborts the walk, naming the first
coefficient that differs and its exact residual.

Every series is kept over its fixed denominators, as integers: the walk
stores N_k = k 2^k times the u^{-k} coefficient.  Both the transport and
every expected series are integer sums at that scale (k 2^k times the
coefficient is -sum mult z^k over the doubled points z of a divisor), so
each check compares ints, and no Fraction is built per coefficient.

The parameter a enters only as a translation: the shift automorphism
x(u) -> x(u-b) of the Yangian sends V(a) to V(a+b) (Chari-Pressley, A Guide
to Quantum Groups, 1994, ch. 12), so the walk at a is the walk at a = 0
with every root moved by a.  The walk therefore runs at a = 0 and keeps
its StepRecords there.  A record holds the step's roots beta = r/d_c in
u/d_c, the only Fractions a step builds; its ``poly`` is the product
prod (u - a/d_c - beta), built from them when it is read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import mul
from typing import Sequence

from .exact import A, UniPoly
from .rootsystem import CartanData, InputError, _as_int, lowest_weight, path_exponents

__all__ = [
    "CrosscheckError",
    "WalkState",
    "StepRecord",
    "WalkReport",
    "init_walk",
    "apply_step",
    "run_walk",
]

DEFAULT_ORDER = 8


class CrosscheckError(RuntimeError):
    """An internal consistency check failed during a walk."""


@dataclass
class WalkState:
    """Mutable per-walk state at a = 0: one H_i(u) log-series and one
    divisor of exp H_i(u) per node.

    series[i-1][k] is the int N_k = k 2^k times the u^{-k} coefficient of
    H_i(u), so N_{k+1} / ((k+1) 2^{k+1}) is the eigenvalue of H_{i,k} on
    the current extremal vector at a = 0; N_0 is always zero.
    ``sl2.coefficient`` reads these values as polynomials in a.
    divisors[i-1] maps 2z to the multiplicity of z (zeros positive, poles
    negative) and holds no zero multiplicity.
    """

    cartan: CartanData
    order: int
    series: list[list[int]]
    weight: list[int]
    divisors: list[dict[int, int]]


@dataclass(frozen=True)
class StepRecord:
    """One processed path step and its extracted data, at a = 0."""

    step: int  # position j in the reduced word (1-based)
    node: int
    exponent: int
    roots: tuple[Fraction, ...]  # step roots beta in u/d_node at a = 0, ascending
    rescale: int  # d_node
    crosscheck_ok: bool | None  # None for zero-exponent steps

    @cached_property
    def poly(self) -> UniPoly:
        """The associated polynomial in u/d_node, in a: the monic product
        prod (u - a/d_node - beta) over the roots, built on first read."""
        return UniPoly.from_roots(A / self.rescale + beta for beta in self.roots)


@dataclass(frozen=True)
class WalkReport:
    """Full record of one extremal-path walk."""

    cartan: CartanData
    fundamental: int
    word: tuple[int, ...]
    exponents: tuple[int, ...]
    records: tuple[StepRecord, ...]  # in application order (j = p down to 1)

    def rows(self) -> tuple[StepRecord, ...]:
        """Steps with positive exponent, i.e. the table rows."""
        return tuple(r for r in self.records if r.exponent > 0)


def init_walk(cartan: CartanData, fundamental: int, order: int = DEFAULT_ORDER) -> WalkState:
    """State at the top vector of the fundamental module with label
    ``fundamental``: H-series log((u-(a-d))/(u-a)) and divisor [-d] - [0]
    at that node, zero elsewhere.  A label outside 1..rank, or an order
    that is not an integer of at least 2, raises InputError."""
    fundamental = _as_int(fundamental, "fundamental index")
    weight = list(cartan.fundamental(fundamental))
    order = _as_int(order, "series order")
    if order < 2:
        raise InputError("series order must be at least 2")
    d = cartan.di(fundamental)
    series = [[0] * (order + 1) for _ in range(cartan.rank)]
    divisors: list[dict[int, int]] = [{} for _ in range(cartan.rank)]
    # the single root a sits at 0
    divisors[fundamental - 1] = {-2 * d: 1, 0: -1}
    series[fundamental - 1] = _divisor_series(divisors[fundamental - 1], order)
    return WalkState(
        cartan=cartan,
        order=order,
        series=series,
        weight=weight,
        divisors=divisors,
    )


def _check_node(cartan: CartanData, node: int) -> int:
    """``apply_step`` takes an integer node label in 1..rank."""
    node = _as_int(node, "node label")
    if not 1 <= node <= cartan.rank:
        raise InputError(f"node {node} out of range 1..{cartan.rank}")
    return node


def _check_weight(state: WalkState, i: int):
    # H_{i,0} = N_1 / 2 must equal d_i times the i-th weight coordinate
    n1 = state.series[i - 1][1]
    if n1 != 2 * state.cartan.di(i) * state.weight[i - 1]:
        raise CrosscheckError(
            f"weight bookkeeping broken at node {i}: "
            f"H_0 = {Fraction(n1, 2)}, weight {tuple(state.weight)}"
        )


def _check_series(state: WalkState, i: int, divisor: dict[int, int], failure: str):
    """Node i's series must be the series of ``divisor``; otherwise
    CrosscheckError with ``failure``, the first index k >= 1 where they
    differ (N_0 is zero on both) and the exact residual (got - want) /
    (k 2^k) of the u^{-k} coefficient."""
    got = state.series[i - 1]
    want = _divisor_series(divisor, state.order)
    if got != want:
        k = next(k for k, (x, y) in enumerate(zip(got, want)) if x != y)
        raise CrosscheckError(
            f"{failure}; u^-{k} coefficient off by {Fraction(got[k] - want[k], k << k)}"
        )


def _read_roots(state: WalkState, node: int, m: int) -> tuple[int, ...]:
    """The step's unscaled roots r, doubled and ascending with multiplicity,
    read off the node's divisor D, which must be sum_r ([r - d] - [r]).

    The root y has multiplicity R(y) = -sum_{j>=0} D(y + j d), summed down
    each class of points 2d apart.  CrosscheckError unless R >= 0, R
    vanishes below each class (so D has that form) and sum R = m.
    """
    divisor = state.divisors[node - 1]
    gap = 2 * state.cartan.di(node)
    classes: dict[int, list[int]] = {}
    for z in divisor:
        classes.setdefault(z % gap, []).append(z)
    roots: list[int] = []
    for points in classes.values():
        low, y, mult = min(points), max(points), 0
        while y >= low:
            mult -= divisor.get(y, 0)
            if mult < 0:
                raise CrosscheckError(
                    f"node {node} divisor gives root {Fraction(y, 2)} "
                    f"multiplicity {mult}"
                )
            roots += [y] * mult
            y -= gap
        if mult:
            raise CrosscheckError(
                f"node {node} divisor is not a highest-weight divisor"
            )
    if len(roots) != m:
        raise CrosscheckError(
            f"node {node} divisor has {len(roots)} roots, not the exponent {m}"
        )
    return tuple(sorted(roots))


def _divisor_series(divisor: dict[int, int], order: int) -> list[int]:
    """u^0..u^-order coefficients of log prod (u - z/2)^mult over a divisor
    of degree 0, given by doubled points z, at the walk's scale: k 2^k
    times the u^{-k} coefficient is -sum mult z^k."""
    points = list(divisor)
    terms = list(divisor.values())
    out = [0]
    for k in range(1, order + 1):
        terms = [t * z for t, z in zip(terms, points)]
        out.append(-sum(terms))
    return out


def _root_divisor(roots: Sequence[int], shift: int) -> dict[int, int]:
    """sum_r ([r + shift/2] - [r]) for the doubled roots 2r."""
    divisor: dict[int, int] = {}
    for z in roots:
        for point, change in ((z + shift, 1), (z, -1)):
            divisor[point] = divisor.get(point, 0) + change
    return {z: mult for z, mult in divisor.items() if mult}


def _move_divisor(divisor: dict[int, int], roots: Sequence[int], x: int):
    """D -= sum_r ([r - x/2] - [r + x/2]) for the doubled roots 2r."""
    for z in roots:
        for point, change in ((z - x, -1), (z + x, 1)):
            mult = divisor.get(point, 0) + change
            if mult:
                divisor[point] = mult
            else:
                del divisor[point]


@lru_cache(maxsize=16)
def _weight_table(x: int, n: int) -> tuple[tuple[int, ...], ...]:
    """Per k < n, the transport's integer weights x^{k+1-s} C(k+1, s) of
    Z_s over s = k mod 2, k mod 2 + 2, .., k, for x = d_i a_{i,c} (see
    ``apply_step``).  A walk meets only a few values of x, so nearly every
    step reuses a table; one holds about n^2/4 ints."""
    return tuple(
        tuple(x ** (k + 1 - s) * math.comb(k + 1, s) for s in range(k % 2, k + 1, 2))
        for k in range(n)
    )


def apply_step(state: WalkState, node: int, m: int) -> tuple[int, ...]:
    """One step, in place: read the step's roots off the node's divisor
    (see ``_read_roots``), check that the node series is the
    highest-weight series log(pi(u+d)/pi(u)) of the roots read through
    order N, then, at each node i with a_{i,node} != 0, transport the
    series and divisor across (x-_{node,0})^m, lower w_i by m a_{i,node}
    and check H_{i,0} = d_i w_i.  At m = 0 the node's series and divisor
    must vanish instead, and nothing moves.  A failed root read or series
    check raises CrosscheckError before the state changes; a node label
    that is not an integer in 1..rank, a negative or non-integer m, or
    m + 1 above the series order raises InputError.

    Returns the roots read as ``WalkState.divisors`` holds its points:
    the doubled unscaled roots 2r, r = d beta, ascending with
    multiplicity; () at m = 0.

    With p_s the s-th power sum of the unscaled roots (p_0 = m), the
    update at node i and coefficient k subtracts

        d_i a_{i,node} p_k
        + sum_{0<=s<=k-2, k+s even} 2^{s-k} (d_i a_{i,node})^{k+1-s}
              C(k+1,s)/(k+1) p_s

    The p_k term is the s = k term of the sum.  With Z_s = 2^s p_s the
    power sums of the doubled roots, (k+1) 2^k times the update is the
    integer acc = sum_{s<=k, k+s even} (d_i a_{i,node})^{k+1-s}
    C(k+1,s) Z_s, so the stored N_{k+1} (see ``WalkState``) drops by 2 acc.

    The divisor at node i moves by D_i -= sum_r ([r - x/2] - [r + x/2]),
    x = d_i a_{i,node}, over the same roots r.
    """
    c = _check_node(state.cartan, node)
    m = _as_int(m, "step exponent")
    if m < 0:
        raise InputError("step exponent must be non-negative")
    n = state.order
    if m + 1 > n:
        raise InputError(f"step degree {m} needs series order >= {m + 1}, have {n}")
    if m == 0:
        # a zero weight coordinate at an extremal vector: the node
        # restriction is trivial, so its series and divisor must vanish
        if any(state.series[c - 1]):
            raise CrosscheckError(f"node {c} series is nonzero at a zero exponent")
        if state.divisors[c - 1]:
            raise CrosscheckError(f"node {c} divisor is nonzero at a zero exponent")
        return ()
    roots = _read_roots(state, c, m)
    # highest-weight consistency: the node series must match the roots.
    failure = f"node {c} series is not a degree-{m} highest-weight series"
    _check_series(state, c, _root_divisor(roots, -2 * state.cartan.di(c)), failure)
    # Z_0..Z_{n-1}, split by the parity of s
    sums = [m]
    powers = [1] * m
    for _ in range(1, n):
        powers = [x * z for x, z in zip(powers, roots)]
        sums.append(sum(powers))
    by_parity = (sums[0::2], sums[1::2])
    for i in range(1, state.cartan.rank + 1):
        a = state.cartan.aij(i, c)
        if a == 0:
            continue
        dai = state.cartan.di(i) * a
        series = state.series[i - 1]
        for k, weights in enumerate(_weight_table(dai, n)):
            # acc pairs the weights with Z_s, s = k mod 2, k mod 2 + 2, .., k
            series[k + 1] -= 2 * sum(map(mul, weights, by_parity[k % 2]))
        _move_divisor(state.divisors[i - 1], roots, dai)
        # weight drops by m * alpha_c; alpha_c has weight coordinates A[:, c]
        state.weight[i - 1] -= m * a
        _check_weight(state, i)
    return roots


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
    lowest-vector series of the step's roots.  At the end the weight must
    be the lowest weight, the last acting node must carry the lowest-vector
    divisor sum_r ([r + d] - [r]) of its last roots and that divisor's
    series, and every other node an empty divisor and a zero series.  A
    mismatch raises CrosscheckError.  An order below the largest
    path exponent + 2 raises InputError.
    """
    order = _as_int(order, "series order")
    exps = path_exponents(cartan, word, fundamental)
    fundamental = exps.fundamental  # an int, whatever the caller passed
    max_m = max(exps.exponents) if exps.exponents else 0
    if order < max_m + 2:
        raise InputError(
            f"series order {order} too small; need at least {max_m + 2}"
        )
    state = init_walk(cartan, fundamental, order)
    for i in range(1, cartan.rank + 1):
        _check_weight(state, i)
    records: list[StepRecord] = []
    last_node, lowest = 0, {}  # the last positive step's node and lowest divisor
    for j in range(len(exps.word), 0, -1):
        node = exps.word[j - 1]
        m = exps.exponents[j - 1]
        d = cartan.di(node)
        roots = apply_step(state, node, m)
        if m > 0:
            last_node, lowest = node, _root_divisor(roots, 2 * d)
            failure = (
                f"lowest-vector crosscheck failed at step {j} "
                f"(node {node}, exponent {m})"
            )
            _check_series(state, node, lowest, failure)
        beta = tuple(Fraction(z, 2 * d) for z in roots)
        records.append(StepRecord(j, node, m, beta, d, True if m > 0 else None))
    if tuple(state.weight) != lowest_weight(cartan, cartan.fundamental(fundamental)):
        raise CrosscheckError(
            f"walk did not land on the lowest weight: ended at {tuple(state.weight)}"
        )
    # the lowest weight w0(omega_i) = -omega_i* is nonzero only at the node
    # of the last positive step, whose divisor must still be the lowest
    # divisor of that step's roots; every other divisor is empty
    for i in range(1, cartan.rank + 1):
        divisor = lowest if i == last_node else {}
        failure = f"node {i} series is not a lowest-vector series"
        _check_series(state, i, divisor, failure)
        if state.divisors[i - 1] != divisor:
            raise CrosscheckError(f"node {i} divisor is not a lowest-vector divisor")
    return WalkReport(
        cartan=cartan,
        fundamental=fundamental,
        word=exps.word,
        exponents=exps.exponents,
        records=tuple(records),
    )
