"""The independent oracle: rank-1 modules, truncated-series arithmetic, and
the lift of a walk state to polynomials in a.

The (m+1)-dimensional module V_m(a) carries generator actions

    x+_k w_s = (s+a)^k (s+1) w_{s+1}
    x-_k w_s = (s+a-1)^k (m-s+1) w_{s-1}
    h_k  w_s = ((s+a-1)^k s (m-s+1) - (s+a)^k (s+1)(m-s)) w_s

on the basis w_0..w_m, with a an exact rational.  Each generator is a
weighted shift, an :class:`Operator`, read through :func:`operator`;
compositions of generators are weighted shifts too, so every operator
identity is checked exactly on their weights.  The reports returned by the
check functions either confirm an identity or carry the first violation
found.

A truncated series in ``u^{-1}`` is a plain coefficient list whose entry k
multiplies ``u^{-k}``, so its truncation order is its length minus one;
every series helper here is exact through that order and takes lists of
Fractions or of ``ParamPoly`` values.  :func:`coefficient` reads a walk
state's integer series back as eigenvalues in a.  The engine modules
(``exact``, ``rootsystem``, ``walk``, ``cyclicity``) import nothing from
here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, partial
from operator import index
from typing import NamedTuple, Sequence

from .exact import ParamPoly, UniPoly
from .rootsystem import InputError

__all__ = [
    "Operator",
    "CheckReport",
    "operator",
    "check_relations",
    "symmetrized_insertion_check",
    "extremal_series_check",
    "series_from_poly_ratio",
    "series_log",
    "series_exp",
    "series_rescale",
    "coefficient",
]


class Operator(NamedTuple):
    """The weighted shift w_s -> weights[s] * w_{s+shift} on w_0..w_m.

    A weight whose image would leave the basis is 0.
    """

    shift: int
    weights: tuple[Fraction, ...]


def _checked(m: int, a, level: int = 0) -> Fraction:
    """The evaluation point of V_m(a) as a Fraction, once m and the
    generator level are known to be in range."""
    if m < 1:
        raise ValueError("m must be positive")
    if level < 0:
        raise ValueError("generator level must be non-negative")
    return Fraction(a)


def operator(m: int, a, kind: str, level: int) -> Operator:
    """The generator kind_level (kind in {'x+', 'x-', 'h'}) on V_m(a)."""
    if kind not in ("x+", "x-", "h"):
        raise ValueError(f"unknown generator kind {kind!r}")
    return _operator(m, _checked(m, a, level), kind, level)


@lru_cache(maxsize=None)
def _operator(m: int, a: Fraction, kind: str, k: int) -> Operator:
    zero = Fraction(0)
    if kind == "x+":
        weights = ((s + a) ** k * (s + 1) if s < m else zero for s in range(m + 1))
        return Operator(1, tuple(weights))
    if kind == "x-":
        weights = (
            (s + a - 1) ** k * (m - s + 1) if s > 0 else zero for s in range(m + 1)
        )
        return Operator(-1, tuple(weights))
    weights = (
        (s + a - 1) ** k * s * (m - s + 1) - (s + a) ** k * (s + 1) * (m - s)
        for s in range(m + 1)
    )
    return Operator(0, tuple(weights))


def _compose(x: Operator, y: Operator) -> Operator:
    """x after y: w_s -> y_s w_{s+dy} -> x_{s+dy} y_s w_{s+dy+dx}."""
    weights = (x.weights[s + y.shift] * w if w else w for s, w in enumerate(y.weights))
    return Operator(x.shift + y.shift, tuple(weights))


def _add(x: Operator, y: Operator, sign: int = 1) -> Operator:
    if x.shift != y.shift:
        raise ValueError(f"cannot add operators of shifts {x.shift} and {y.shift}")
    weights = (p + sign * q for p, q in zip(x.weights, y.weights))
    return Operator(x.shift, tuple(weights))


def _scale(x: Operator, c: Fraction) -> Operator:
    return Operator(x.shift, tuple(w * c for w in x.weights))


def _commutator(x: Operator, y: Operator) -> Operator:
    return _add(_compose(x, y), _compose(y, x), sign=-1)


def _residual(lhs: Operator, rhs: Operator) -> str:
    return f"residual {_add(lhs, rhs, sign=-1)}"


@dataclass
class CheckReport:
    """Outcome of an oracle check; ok=True means no violation found."""

    ok: bool = True
    failures: list[str] = field(default_factory=list)

    def record(self, message: str):
        self.ok = False
        self.failures.append(message)


def check_relations(m: int, a, max_level: int = 3) -> CheckReport:
    """Verify the five rank-1 defining-relation families on V_m(a).

    All identities are checked as exact operator equations for generator
    levels r, s up to max_level (h levels reach 2*max_level through the
    [x+_r, x-_s] = h_{r+s} family).
    """
    a = _checked(m, a)
    report = CheckReport()
    h, xp, xm = (partial(_operator, m, a, kind) for kind in ("h", "x+", "x-"))
    for r in range(max_level + 1):
        for s in range(max_level + 1):
            comm = _commutator(h(r), h(s))
            if any(comm.weights):
                report.record(f"[h_{r}, h_{s}] != 0: residual {comm}")
    for s in range(max_level + 1):
        for sign, x in ((1, xp), (-1, xm)):
            lhs = _commutator(h(0), x(s))
            rhs = _scale(x(s), Fraction(2 * sign))
            if lhs != rhs:
                report.record(
                    f"[h_0, x{'+' if sign > 0 else '-'}_{s}] != ±2x_{s}: "
                    + _residual(lhs, rhs)
                )
    for r in range(max_level + 1):
        for s in range(max_level + 1):
            lhs = _commutator(xp(r), xm(s))
            if lhs != h(r + s):
                report.record(
                    f"[x+_{r}, x-_{s}] != h_{r + s}: " + _residual(lhs, h(r + s))
                )
    # families 4 and 5: [y_{r+1}, x_s] - [y_r, x_{s+1}] = ±(y_r x_s + x_s y_r)
    # with y = h and y = x
    for family in (4, 5):
        for r in range(max_level + 1):
            for s in range(max_level + 1):
                for sign, x in ((1, xp), (-1, xm)):
                    y = h if family == 4 else x
                    lhs = _add(
                        _commutator(y(r + 1), x(s)),
                        _commutator(y(r), x(s + 1)),
                        sign=-1,
                    )
                    anti = _add(_compose(y(r), x(s)), _compose(x(s), y(r)))
                    rhs = _scale(anti, Fraction(sign))
                    if lhs != rhs:
                        report.record(
                            f"family-{family} identity fails at r={r}, s={s}, "
                            f"sign={sign:+d}: " + _residual(lhs, rhs)
                        )
    return report


def symmetrized_insertion_check(m: int, a, k: int) -> CheckReport:
    """Check that one level-k lowering generator inserted in all positions of
    (x-_0)^m acts on the highest vector as the k-th power sum of the root
    string a, a+1, ..., a+m-1.

    Both sides are weighted shifts by -m, read at the highest vector w_m:
    the sum over t of (x-_0)^t x-_k (x-_0)^(m-1-t) against the power sum
    times (x-_0)^m.
    """
    a = _checked(m, a, k)
    report = CheckReport()
    x0 = _operator(m, a, "x-", 0)
    xk = _operator(m, a, "x-", k)
    lowered = [Operator(0, (Fraction(1),) * (m + 1))]
    for _ in range(m):
        lowered.append(_compose(x0, lowered[-1]))
    lhs = sum(
        _compose(lowered[t], _compose(xk, lowered[m - 1 - t])).weights[m]
        for t in range(m)
    )
    power_sum = sum((a + t - 1) ** k for t in range(1, m + 1))
    bottom = lowered[m].weights[m]
    rhs = power_sum * bottom
    if bottom == 0:
        report.record("(x-_0)^m annihilated the highest vector")
    if lhs != rhs:
        report.record(
            f"symmetrized insertion mismatch at m={m}, a={a}, k={k}: "
            f"lhs={lhs}, rhs={rhs}"
        )
    return report


def extremal_series_check(m: int, a, order: int = 8) -> CheckReport:
    """Compare the h(u) eigenvalue series 1 + sum_k (h_k eigenvalue) u^{-k-1}
    of the highest and lowest basis vectors with the polynomial-ratio forms
    pi(u+1)/pi(u) and pi(u-1)/pi(u), pi(u) = prod_t (u - (a+t))."""
    a = _checked(m, a)
    report = CheckReport()
    pi = UniPoly.from_roots(a + t for t in range(m))
    for name, s, shift in (("highest", m, 1), ("lowest", 0, -1)):
        got = [Fraction(1), *(_operator(m, a, "h", k).weights[s] for k in range(order))]
        expected = series_from_poly_ratio(pi.shift(shift), pi, order)
        if got != expected:
            report.record(
                f"{name}-vector series mismatch on V_{m}({a}): "
                f"{[str(c) for c in got]} vs {[str(c) for c in expected]}"
            )
    return report


def series_from_poly_ratio(num: UniPoly, den: UniPoly, order: int) -> list:
    """Coefficients of num/den at u^0..u^-order, exact.

    Both polynomials must be monic of equal degree g in ``u``, so the
    series has constant term 1.  With p(u)/u^g = sum_j p_{g-j} u^{-j} for
    both, the quotient q solves q_k = num_{g-k} - sum_{1<=j<=k} den_{g-j} q_{k-j}.
    """
    if num.degree != den.degree:
        raise ValueError(
            f"degree mismatch: numerator {num.degree}, denominator {den.degree}"
        )
    if not (num.monic and den.monic):
        raise ValueError("both numerator and denominator must be monic in u")
    g = num.degree
    out: list = []
    for k in range(order + 1):
        acc = num.coeff(g - k)
        for j in range(1, min(k, g) + 1):
            acc = acc - den.coeff(g - j) * out[k - j]
        out.append(acc)
    return out


def series_log(s: Sequence) -> list:
    """Formal logarithm of the series with coefficients s (s[k] at u^-k),
    whose constant term must be 1; the result has the same length.

    Uses L' = S'/S, i.e. k l_k = k s_k - sum_{1<=j<k} j l_j s_{k-j}, which
    is quadratic in the order.
    """
    if s[0] != 1:
        raise ValueError("series_log requires constant term 1")
    kl = [0]  # kl[k] = k * l_k
    for k in range(1, len(s)):
        acc = k * s[k]
        for j in range(1, k):
            if kl[j] and s[k - j]:
                acc = acc - kl[j] * s[k - j]
        kl.append(acc)
    return [0] + [kl[k] * Fraction(1, k) for k in range(1, len(s))]


def series_exp(s: Sequence) -> list:
    """Formal exponential of the series with coefficients s, whose
    constant term must be 0; the result has the same length.

    Uses E' = L'E, i.e. k e_k = sum_{1<=j<=k} j l_j e_{k-j}, which is
    quadratic in the order.
    """
    if s[0] != 0:
        raise ValueError("series_exp requires constant term 0")
    jl = [j * c for j, c in enumerate(s)]
    out: list = [1]
    for k in range(1, len(s)):
        acc = 0
        for j in range(1, k + 1):
            if jl[j] and out[k - j]:
                acc = acc + jl[j] * out[k - j]
        out.append(acc * Fraction(1, k))
    return out


def series_rescale(s: Sequence, d) -> list:
    """Substitute ``u -> d*u``: the ``u^{-k}`` coefficient picks up ``d^{-k}``."""
    if not isinstance(d, (int, Fraction)):
        raise TypeError(f"expected an exact rational, got {d!r}")
    d = Fraction(d)
    if d == 0:
        raise ValueError("rescale factor must be nonzero")
    return [c * d**-k for k, c in enumerate(s)]


def _lift(p: Sequence[Fraction]) -> list[ParamPoly]:
    """p_0..p_N of a root multiset at a = 0 as polynomials in a, once every
    root is moved by a: p_k(a) = sum_j C(k, j) a^{k-j} p_j."""
    return [
        ParamPoly(math.comb(k, i) * p[k - i] for i in range(k + 1))
        for k in range(len(p))
    ]


def _as_index(value, what: str) -> int:
    try:
        return index(value)
    except TypeError:
        raise InputError(f"{what} must be an integer, not {value!r}") from None


def coefficient(state, node: int, k: int) -> ParamPoly:
    """Eigenvalue of H_{node,k} on the current extremal vector of a
    ``walk.WalkState``, in a; node is an integer in 1..rank and k an
    integer in 0..order-1, otherwise InputError."""
    node = _as_index(node, "node label")
    if not 1 <= node <= state.cartan.rank:
        raise InputError(f"node {node} out of range 1..{state.cartan.rank}")
    k = _as_index(k, "coefficient index")
    if not 0 <= k < state.order:
        raise InputError(f"coefficient index {k} out of range 0..{state.order - 1}")
    # n times the u^{-n} coefficient of a log-ratio of monic polynomials
    # of equal degree is a signed power sum of their roots with count 0;
    # it is the stored N_n / 2^n
    q = [
        Fraction(c, 1 << n) for n, c in enumerate(state.series[node - 1][: k + 2])
    ]
    return _lift(q)[k + 1] / (k + 1)
