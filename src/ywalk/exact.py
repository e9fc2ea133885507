"""Exact symbolic arithmetic over the rationals with one formal parameter.

Scalars are :class:`fractions.Fraction`, and :class:`GaussianRational`
pairs two of them as an exact complex number.  Polynomials in the formal
parameter ``a`` (:class:`ParamPoly`; :data:`A` is ``a`` itself) serve as
coefficients for polynomials (:class:`UniPoly`) in a second variable ``u``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

__all__ = [
    "GaussianRational",
    "ParamPoly",
    "UniPoly",
    "A",
]


def _frac(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {value!r}")


@dataclass(frozen=True)
class GaussianRational:
    """Complex number with exact rational real and imaginary parts."""

    re: Fraction
    im: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        object.__setattr__(self, "re", _frac(self.re))
        object.__setattr__(self, "im", _frac(self.im))

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        sign = "+" if self.im >= 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


class ParamPoly:
    """Polynomial in the formal parameter ``a`` with Fraction coefficients.

    Coefficients are stored ascending in powers of ``a`` with no trailing
    zeros; the zero polynomial has an empty coefficient tuple and degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [_frac(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def const(cls, value) -> "ParamPoly":
        return cls((_frac(value),))

    @property
    def degree(self) -> int:
        # -1 is the zero-polynomial sentinel
        return len(self.coeffs) - 1

    def coeff(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

    def evaluate(self, value) -> Fraction:
        x, acc = _frac(value), Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = ParamPoly.const(other)
        if not isinstance(other, ParamPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(("ParamPoly", self.coeffs))

    def __neg__(self) -> "ParamPoly":
        return ParamPoly(-c for c in self.coeffs)

    def __add__(self, other) -> "ParamPoly":
        other = _as_param_poly(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return ParamPoly(self.coeff(k) + other.coeff(k) for k in range(n))

    __radd__ = __add__

    def __sub__(self, other) -> "ParamPoly":
        return self + (-_as_param_poly(other))

    def __mul__(self, other) -> "ParamPoly":
        other = _as_param_poly(other)
        if not self.coeffs or not other.coeffs:
            return ParamPoly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, ci in enumerate(self.coeffs):
            for j, cj in enumerate(other.coeffs):
                out[i + j] += ci * cj
        return ParamPoly(out)

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "ParamPoly":
        s = _frac(scalar)
        return ParamPoly(c / s for c in self.coeffs)

    def __pow__(self, n: int) -> "ParamPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = ParamPoly.const(1)
        for _ in range(n):
            out = out * self
        return out

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts: list[str] = []
        for k in range(self.degree, -1, -1):
            c = self.coeff(k)
            if c == 0:
                continue
            mag = abs(c)
            if k == 0:
                body = str(mag)
            elif k == 1:
                body = "a" if mag == 1 else f"{mag}*a"
            else:
                body = f"a^{k}" if mag == 1 else f"{mag}*a^{k}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"ParamPoly({self})"


def _as_param_poly(value) -> ParamPoly:
    if isinstance(value, ParamPoly):
        return value
    return ParamPoly.const(_frac(value))


#: The formal parameter itself, for building polynomials as expressions.
A = ParamPoly((0, 1))


class UniPoly:
    """Polynomial in ``u`` whose coefficients are :class:`ParamPoly` values."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [_as_param_poly(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def one(cls) -> "UniPoly":
        return cls((ParamPoly.const(1),))

    @classmethod
    def from_roots(cls, roots: Iterable) -> "UniPoly":
        """Monic product of ``u - r`` over the given roots."""
        out = cls.one()
        for r in roots:
            out = out * cls((-_as_param_poly(r), ParamPoly.const(1)))
        return out

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == ParamPoly.const(1)

    def coeff(self, k: int) -> ParamPoly:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else ParamPoly()

    def __eq__(self, other) -> bool:
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(("UniPoly", self.coeffs))

    def __mul__(self, other: "UniPoly") -> "UniPoly":
        if not self.coeffs or not other.coeffs:
            return UniPoly()
        out = [ParamPoly()] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, ci in enumerate(self.coeffs):
            for j, cj in enumerate(other.coeffs):
                out[i + j] = out[i + j] + ci * cj
        return UniPoly(out)

    def shift(self, delta) -> "UniPoly":
        """Substitute ``u -> u + delta`` for an exact rational ``delta``;
        anything else raises TypeError."""
        d = _frac(delta)
        n = self.degree
        out = [ParamPoly() for _ in range(n + 1)]
        for k, ck in enumerate(self.coeffs):
            if not ck:
                continue
            for j in range(k + 1):
                out[j] = out[j] + ck * (math.comb(k, j) * d ** (k - j))
        return UniPoly(out)

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts: list[str] = []
        for k in range(self.degree, -1, -1):
            c = self.coeff(k)
            if not c:
                continue
            head = "" if k == self.degree and c == ParamPoly.const(1) else f"({c})"
            if k == 0:
                parts.append(head or "(1)")
            elif k == 1:
                parts.append(f"{head}*u" if head else "u")
            else:
                parts.append(f"{head}*u^{k}" if head else f"u^{k}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"UniPoly({self})"
