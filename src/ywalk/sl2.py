"""Explicit rank-1 evaluation modules used as an independent oracle.

The (m+1)-dimensional module V_m(a) carries generator actions

    x+_k w_s = (s+a)^k (s+1) w_{s+1}
    x-_k w_s = (s+a-1)^k (m-s+1) w_{s-1}
    h_k  w_s = ((s+a-1)^k s (m-s+1) - (s+a)^k (s+1)(m-s)) w_s

on the basis w_0..w_m, with a an exact rational.  Each generator is a
weighted shift, an :class:`Operator`; compositions of generators are
weighted shifts too, so every operator identity is checked exactly on
their weights.  The reports returned by the check functions either
confirm an identity or carry the first violation found.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .exact import UniPoly, series_from_poly_ratio

__all__ = [
    "GeneratorLabel",
    "EvalModule",
    "ModuleVector",
    "Operator",
    "CheckReport",
    "act",
    "check_relations",
    "symmetrized_insertion_check",
    "extremal_series_check",
]

ModuleVector = tuple[Fraction, ...]

DEFAULT_MAX_LEVEL = 8


class Operator(NamedTuple):
    """The weighted shift w_s -> weights[s] * w_{s+shift} on w_0..w_m.

    A weight whose image would leave the basis is 0.
    """

    shift: int
    weights: tuple[Fraction, ...]


@dataclass(frozen=True)
class GeneratorLabel:
    """One generator of the rank-1 algebra: kind in {'x+', 'x-', 'h'}."""

    kind: str
    level: int

    def __post_init__(self):
        if self.kind not in ("x+", "x-", "h"):
            raise ValueError(f"unknown generator kind {self.kind!r}")
        if self.level < 0:
            raise ValueError("generator level must be non-negative")


@dataclass(frozen=True)
class EvalModule:
    """The module V_m(a) with basis w_0..w_m."""

    m: int
    a: Fraction
    max_level: int = DEFAULT_MAX_LEVEL

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be positive")
        object.__setattr__(self, "a", Fraction(self.a))

    @property
    def dim(self) -> int:
        return self.m + 1

    def basis_vector(self, s: int) -> ModuleVector:
        return tuple(Fraction(1 if t == s else 0) for t in range(self.dim))

    def highest(self) -> ModuleVector:
        return self.basis_vector(self.m)

    def operator(self, g: GeneratorLabel) -> Operator:
        # h levels up to 2*max_level are needed by the [x+_r, x-_s] = h_{r+s}
        # relation check.
        limit = self.max_level * (2 if g.kind == "h" else 1)
        if g.level > limit:
            raise ValueError(f"level {g.level} exceeds configured bound {limit}")
        return _operator(self.m, self.a, g.kind, g.level)


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


def act(mod: EvalModule, g: GeneratorLabel, v: ModuleVector) -> ModuleVector:
    """Exact action of one generator on a coordinate vector."""
    shift, weights = mod.operator(g)
    out = [Fraction(0)] * mod.dim
    for s, w in enumerate(weights):
        if w:
            out[s + shift] += w * v[s]
    return tuple(out)


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
    mod = EvalModule(m, Fraction(a), max_level=max(max_level, DEFAULT_MAX_LEVEL))
    report = CheckReport()

    def h(k):
        return mod.operator(GeneratorLabel("h", k))

    def xp(k):
        return mod.operator(GeneratorLabel("x+", k))

    def xm(k):
        return mod.operator(GeneratorLabel("x-", k))

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
    string a, a+1, ..., a+m-1."""
    mod = EvalModule(m, Fraction(a))
    report = CheckReport()
    x0 = GeneratorLabel("x-", 0)
    xk = GeneratorLabel("x-", k)
    top = mod.highest()
    lhs = tuple(Fraction(0) for _ in range(mod.dim))
    for t in range(m):
        vec = top
        for _ in range(m - 1 - t):
            vec = act(mod, x0, vec)
        vec = act(mod, xk, vec)
        for _ in range(t):
            vec = act(mod, x0, vec)
        lhs = tuple(u + v for u, v in zip(lhs, vec))

    power_sum = sum((Fraction(a) + t - 1) ** k for t in range(1, m + 1))
    bottom = top
    for _ in range(m):
        bottom = act(mod, x0, bottom)
    rhs = tuple(power_sum * c for c in bottom)
    if all(c == 0 for c in bottom):
        report.record("(x-_0)^m annihilated the highest vector")
    if lhs != rhs:
        report.record(
            f"symmetrized insertion mismatch at m={m}, a={a}, k={k}: "
            f"lhs={lhs}, rhs={rhs}"
        )
    return report


def _eigen_series(mod: EvalModule, s: int, order: int) -> list[Fraction]:
    """Coefficients of 1 + sum_k (h_k eigenvalue on w_s) u^{-k-1}, truncated."""
    return [Fraction(1)] + [
        mod.operator(GeneratorLabel("h", k)).weights[s] for k in range(order)
    ]


def extremal_series_check(m: int, a, order: int = 8) -> CheckReport:
    """Compare the h(u) eigenvalue series of the highest and lowest basis
    vectors with the polynomial-ratio forms pi(u+1)/pi(u) and
    pi(u-1)/pi(u), pi(u) = prod_t (u - (a+t))."""
    mod = EvalModule(m, Fraction(a), max_level=max(order, DEFAULT_MAX_LEVEL))
    report = CheckReport()
    pi = UniPoly.from_roots(Fraction(a) + t for t in range(m))
    for name, s, shift in (("highest", m, 1), ("lowest", 0, -1)):
        got = _eigen_series(mod, s, order)
        expected = series_from_poly_ratio(pi.shift(shift), pi, order)
        if got != expected:
            report.record(
                f"{name}-vector series mismatch on V_{m}({a}): "
                f"{[str(c) for c in got]} vs {[str(c) for c in expected]}"
            )
    return report
