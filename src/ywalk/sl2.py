"""Explicit rank-1 evaluation modules used as an independent oracle.

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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, partial
from typing import NamedTuple

from .exact import UniPoly, series_from_poly_ratio

__all__ = [
    "Operator",
    "CheckReport",
    "operator",
    "check_relations",
    "symmetrized_insertion_check",
    "extremal_series_check",
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
