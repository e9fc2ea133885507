"""Explicit rank-1 evaluation modules used as a brute-force oracle.

The (m+1)-dimensional module V_m(a) carries generator actions

    x+_k w_s = (s+a)^k (s+1) w_{s+1}
    x-_k w_s = (s+a-1)^k (m-s+1) w_{s-1}
    h_k  w_s = ((s+a-1)^k s (m-s+1) - (s+a)^k (s+1)(m-s)) w_s

on the basis w_0..w_m, with a an exact rational.  Everything here is
computed as exact matrix identities; the reports returned by the check
functions either confirm an identity or carry the first violation found.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .exact import ParamSeries, UniPoly, series_from_poly_ratio

__all__ = [
    "GeneratorLabel",
    "EvalModule",
    "ModuleVector",
    "CheckReport",
    "act",
    "check_relations",
    "symmetrized_insertion_check",
    "extremal_series_check",
]

Matrix = tuple[tuple[Fraction, ...], ...]
ModuleVector = tuple[Fraction, ...]

DEFAULT_MAX_LEVEL = 8


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

    def matrix(self, g: GeneratorLabel) -> Matrix:
        # h levels up to 2*max_level are needed by the [x+_r, x-_s] = h_{r+s}
        # relation check.
        limit = self.max_level * (2 if g.kind == "h" else 1)
        if g.level > limit:
            raise ValueError(f"level {g.level} exceeds configured bound {limit}")
        return _matrix(self.m, self.a, g.kind, g.level)


@lru_cache(maxsize=None)
def _matrix(m: int, a: Fraction, kind: str, k: int) -> Matrix:
    dim = m + 1
    rows = [[Fraction(0)] * dim for _ in range(dim)]
    for s in range(dim):
        if kind == "x+" and s < m:
            rows[s + 1][s] = (s + a) ** k * (s + 1)
        elif kind == "x-" and s > 0:
            rows[s - 1][s] = (s + a - 1) ** k * (m - s + 1)
        elif kind == "h":
            rows[s][s] = (s + a - 1) ** k * s * (m - s + 1) - (s + a) ** k * (
                s + 1
            ) * (m - s)
    return tuple(tuple(row) for row in rows)


def act(mod: EvalModule, g: GeneratorLabel, v: ModuleVector) -> ModuleVector:
    """Exact action of one generator on a coordinate vector."""
    mat = mod.matrix(g)
    return tuple(
        sum((row[c] * v[c] for c in range(mod.dim)), Fraction(0)) for row in mat
    )


def _matmul(x: Matrix, y: Matrix) -> Matrix:
    n = len(x)
    return tuple(
        tuple(sum((x[r][k] * y[k][c] for k in range(n)), Fraction(0)) for c in range(n))
        for r in range(n)
    )


def _matadd(x: Matrix, y: Matrix, sign: int = 1) -> Matrix:
    return tuple(
        tuple(xc + sign * yc for xc, yc in zip(xr, yr)) for xr, yr in zip(x, y)
    )


def _commutator(x: Matrix, y: Matrix) -> Matrix:
    return _matadd(_matmul(x, y), _matmul(y, x), sign=-1)


def _is_zero(x: Matrix) -> bool:
    return all(c == 0 for row in x for c in row)


def _scale(x: Matrix, s: Fraction) -> Matrix:
    return tuple(tuple(c * s for c in row) for row in x)


def _residual(lhs: Matrix, rhs: Matrix) -> str:
    return f"residual {_matadd(lhs, rhs, sign=-1)}"


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

    All identities are checked as exact matrix equations for generator
    levels r, s up to max_level (h levels reach 2*max_level through the
    [x+_r, x-_s] = h_{r+s} family).
    """
    mod = EvalModule(m, Fraction(a), max_level=max(max_level, DEFAULT_MAX_LEVEL))
    report = CheckReport()

    def h(k):
        return mod.matrix(GeneratorLabel("h", k))

    def xp(k):
        return mod.matrix(GeneratorLabel("x+", k))

    def xm(k):
        return mod.matrix(GeneratorLabel("x-", k))

    for r in range(max_level + 1):
        for s in range(max_level + 1):
            comm = _commutator(h(r), h(s))
            if not _is_zero(comm):
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
    for r in range(max_level + 1):
        for s in range(max_level + 1):
            for sign, x in ((1, xp), (-1, xm)):
                lhs = _matadd(
                    _commutator(h(r + 1), x(s)), _commutator(h(r), x(s + 1)), sign=-1
                )
                anti = _matadd(_matmul(h(r), x(s)), _matmul(x(s), h(r)))
                rhs = _scale(anti, Fraction(sign))
                if lhs != rhs:
                    report.record(
                        f"family-4 identity fails at r={r}, s={s}, "
                        f"sign={sign:+d}: " + _residual(lhs, rhs)
                    )
    for r in range(max_level + 1):
        for s in range(max_level + 1):
            for sign, x in ((1, xp), (-1, xm)):
                lhs = _matadd(
                    _commutator(x(r + 1), x(s)), _commutator(x(r), x(s + 1)), sign=-1
                )
                anti = _matadd(_matmul(x(r), x(s)), _matmul(x(s), x(r)))
                rhs = _scale(anti, Fraction(sign))
                if lhs != rhs:
                    report.record(
                        f"family-5 identity fails at r={r}, s={s}, "
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


def _eigen_series(mod: EvalModule, s: int, order: int) -> ParamSeries:
    """Series 1 + sum_k (h_k eigenvalue on w_s) u^{-k-1}, truncated."""
    coeffs = [Fraction(1)]
    for k in range(order):
        mat = mod.matrix(GeneratorLabel("h", k))
        coeffs.append(mat[s][s])
    return ParamSeries(coeffs, order=order)


def extremal_series_check(m: int, a, order: int = 8) -> CheckReport:
    """Compare matrix-computed h(u) eigenvalue series on the highest and
    lowest basis vectors with the polynomial-ratio forms pi(u+1)/pi(u) and
    pi(u-1)/pi(u), pi(u) = prod_t (u - (a+t))."""
    mod = EvalModule(m, Fraction(a), max_level=max(order, DEFAULT_MAX_LEVEL))
    report = CheckReport()
    pi = UniPoly.from_roots(Fraction(a) + t for t in range(m))
    expected_top = series_from_poly_ratio(pi.shift(1), pi, order)
    expected_bottom = series_from_poly_ratio(pi.shift(-1), pi, order)
    got_top = _eigen_series(mod, m, order)
    got_bottom = _eigen_series(mod, 0, order)
    if got_top != expected_top:
        report.record(
            f"highest-vector series mismatch on V_{m}({a}): "
            f"{got_top} vs {expected_top}"
        )
    if got_bottom != expected_bottom:
        report.record(
            f"lowest-vector series mismatch on V_{m}({a}): "
            f"{got_bottom} vs {expected_bottom}"
        )
    return report
