"""Cartan data, Weyl-group data, and the inversion roots of a reduced word.

Weights live in fundamental-weight coordinates throughout: the simple root
``alpha_j`` has coordinate vector equal to column j of the Cartan matrix,
and the simple reflection ``s_i`` sends a weight ``w`` to
``w - w[i] * alpha_i``.  Node indices are 1-based, matching the usual
Dynkin-diagram labelling.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, prod
from typing import Iterable, Sequence

__all__ = [
    "CartanData",
    "InputError",
    "InvalidCartanError",
    "PathExponents",
    "BUILTIN_ALGEBRAS",
    "validate_cartan",
    "builtin_cartan",
    "reflect",
    "weyl_order",
    "weyl_longest",
    "is_reduced_word_of_longest",
    "lowest_weight",
    "path_exponents",
    "positive_roots",
    "weyl_dim",
]

Weight = tuple[int, ...]
ReducedWord = tuple[int, ...]


class InputError(ValueError):
    """A caller's argument is out of range for a library entry point; the
    command line reports it as an input error (exit code 2)."""


class InvalidCartanError(InputError):
    """The supplied matrix/symmetrizer pair is not finite-type Cartan data."""


def _as_int(value, what: str, error: type[InputError] = InputError) -> int:
    """``value`` as an int, through ``operator.index``: a float, a Fraction
    or a string raises ``error`` instead of being truncated or parsed."""
    try:
        return operator.index(value)
    except TypeError:
        raise error(f"{what} must be an integer, not {value!r}") from None


@dataclass(frozen=True)
class CartanData:
    """Validated Cartan matrix with symmetrizers d_1..d_l."""

    rank: int
    a: tuple[tuple[int, ...], ...]
    d: tuple[int, ...]

    def aij(self, i: int, j: int) -> int:
        """Cartan matrix entry, 1-based."""
        return self.a[i - 1][j - 1]

    def di(self, i: int) -> int:
        """Symmetrizer entry, 1-based."""
        return self.d[i - 1]

    def fundamental(self, i: int) -> Weight:
        i = _as_int(i, "fundamental index")
        if not 1 <= i <= self.rank:
            raise InputError(f"fundamental index {i} out of range 1..{self.rank}")
        return tuple(1 if k == i - 1 else 0 for k in range(self.rank))


def validate_cartan(a: Sequence[Sequence[int]], d: Sequence[int]) -> CartanData:
    """Check finite-type Cartan axioms and return validated data.

    Requires: a_ii = 2, off-diagonal entries non-positive with matching
    zeros, positive coprime symmetrizers, D*A symmetric and positive
    definite.
    """
    rows = tuple(
        tuple(_as_int(x, "Cartan entry", InvalidCartanError) for x in row) for row in a
    )
    l = len(rows)
    if l == 0 or any(len(row) != l for row in rows):
        raise InvalidCartanError("Cartan matrix must be square and non-empty")
    ds = tuple(_as_int(x, "symmetrizer", InvalidCartanError) for x in d)
    if len(ds) != l:
        raise InvalidCartanError("symmetrizer length must equal the rank")
    if any(x <= 0 for x in ds):
        raise InvalidCartanError("symmetrizers must be positive integers")
    if gcd(*ds) != 1:
        raise InvalidCartanError("symmetrizers must be coprime as a set")
    for i in range(l):
        if rows[i][i] != 2:
            raise InvalidCartanError("diagonal Cartan entries must equal 2")
        for j in range(l):
            if i != j:
                if rows[i][j] > 0:
                    raise InvalidCartanError("off-diagonal entries must be <= 0")
                if (rows[i][j] == 0) != (rows[j][i] == 0):
                    raise InvalidCartanError("a_ij = 0 must imply a_ji = 0")
    sym = [[ds[i] * rows[i][j] for j in range(l)] for i in range(l)]
    for i in range(l):
        for j in range(l):
            if sym[i][j] != sym[j][i]:
                raise InvalidCartanError("D*A must be symmetric")
    # Sylvester: the symmetric D*A is positive definite iff every pivot of
    # its elimination without row exchanges is positive
    m = [[Fraction(x) for x in row] for row in sym]
    for k in range(l):
        if m[k][k] <= 0:
            raise InvalidCartanError("D*A must be positive definite (finite type)")
        for r in range(k + 1, l):
            if m[r][k] == 0:
                continue
            f = m[r][k] / m[k][k]
            for c in range(k + 1, l):
                m[r][c] -= f * m[k][c]
    return CartanData(rank=l, a=rows, d=ds)


BUILTIN_ALGEBRAS: dict[str, tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]] = {
    "a1": (((2,),), (1,)),
    "a2": (((2, -1), (-1, 2)), (1, 1)),
    "g2": (((2, -1), (-3, 2)), (3, 1)),
}


def builtin_cartan(name: str) -> CartanData:
    """Cartan data of a builtin algebra; an unknown name raises InputError."""
    key = name.lower()
    if key not in BUILTIN_ALGEBRAS:
        raise InputError(f"unknown builtin algebra {name!r}")
    a, d = BUILTIN_ALGEBRAS[key]
    return validate_cartan(a, d)


def reflect(cartan: CartanData, i: int, w: Sequence[int]) -> Weight:
    """s_i(w) = w - w[i] * alpha_i."""
    c = w[i - 1]
    return tuple(x - c * row[i - 1] for x, row in zip(w, cartan.a))


def weyl_order(cartan: CartanData) -> int:
    """|W| = prod over positive roots of (ht + 1)/ht (Kostant)."""
    total = Fraction(1)
    for root in positive_roots(cartan):
        total *= Fraction(sum(root) + 1, sum(root))
    if total.denominator != 1:
        raise ArithmeticError(f"Weyl group order {total} is not an integer")
    return int(total)


def weyl_longest(cartan: CartanData) -> ReducedWord:
    """Lexicographically least reduced word of the longest element w0.

    Coordinate i of w(rho) is negative exactly when s_i is a left descent
    of w.  Starting from w0(rho) = -rho and always reflecting the smallest
    negative coordinate therefore strips w0 letter by letter in lex-least
    order, until no coordinate is negative.  The descent is capped at
    2*rank^2 steps, at least |positive roots| for every finite type (E8:
    120 <= 128); data that is not of finite type never stops descending.
    """
    cap = 2 * cartan.rank**2
    v = (-1,) * cartan.rank
    word: list[int] = []
    while any(x < 0 for x in v):
        if len(word) == cap:
            raise InvalidCartanError("rho-descent does not end: not of finite type")
        i = next(k for k, x in enumerate(v, start=1) if x < 0)
        word.append(i)
        v = reflect(cartan, i, v)
    return tuple(word)


def _letters(word: Sequence[int]) -> ReducedWord:
    """``word`` as ints; () (never a word of w0) if it is not a sequence of ints."""
    try:
        return tuple(map(operator.index, reversed(word)))[::-1]
    except TypeError:
        return ()


@lru_cache(maxsize=8)  # an A_60 entry, 1,830 roots of 60 coordinates, is ~1 MB
def _inversions(cartan: CartanData, word: ReducedWord) -> tuple[Weight, ...] | None:
    """The inversion roots beta_j = s_{r_p}..s_{r_{j+1}}(alpha_{r_j}) of a
    reduced word r_1..r_p of w0, in simple-root coordinates, else None.
    The suffix u = s_{r_p}..s_{r_{j+1}} is kept as its columns u(alpha_k);
    u s_r subtracts a_{rk} times column r from column k.  A letter raises
    the length iff beta_j = u(alpha_{r_j}) is positive (coordinate sum > 0),
    and u = w0 at the end iff it sends every simple root negative."""
    l = cartan.rank
    cols = [tuple(int(j == k) for j in range(l)) for k in range(l)]
    betas: list[Weight] = []
    for r in reversed(word):
        if not 1 <= r <= l or sum(cols[r - 1]) <= 0:
            return None
        betas.append(cols[r - 1])
        for k, a_rk in enumerate(cartan.a[r - 1]):
            if a_rk:
                cols[k] = tuple(x - a_rk * y for x, y in zip(cols[k], betas[-1]))
    return tuple(reversed(betas)) if all(sum(col) < 0 for col in cols) else None


def is_reduced_word_of_longest(cartan: CartanData, word: Sequence[int]) -> bool:
    """Whether ``word`` is a reduced word of w0; a non-integer letter gives False."""
    return _inversions(cartan, _letters(word)) is not None


def lowest_weight(cartan: CartanData, weight: Sequence[int]) -> Weight:
    """The antidominant weight of the Weyl orbit of ``weight``, i.e.
    w0(weight) for dominant input, found by reflecting away positive
    coordinates (no reduced word involved).  Any integer weight of length
    rank is accepted; anything else raises InputError."""
    v = tuple(_as_int(x, "weight coordinate") for x in weight)
    if len(v) != cartan.rank:
        raise InputError("weight length must equal the rank")
    while any(x > 0 for x in v):
        i = next(k for k, x in enumerate(v, start=1) if x > 0)
        v = reflect(cartan, i, v)
    return v


@dataclass(frozen=True)
class PathExponents:
    """Exponents m_1..m_p of the extremal path for one fundamental weight."""

    fundamental: int
    word: ReducedWord
    exponents: tuple[int, ...]


def path_exponents(
    cartan: CartanData, word: Sequence[int], fundamental: int
) -> PathExponents:
    """Exponents m_j = <omega_b, beta_j^vee> = c_b(beta_j) * d_b / d_{r_j} on
    the inversion roots beta_j of ``word``, a reduced word of w0 (Bourbaki
    VI 1.6, Cor. 2): coordinate r_j of s_{r_{j+1}}..s_{r_p}(omega_b)."""
    letters = _letters(word)
    betas = _inversions(cartan, letters)
    if betas is None:
        raise InputError("word is not a reduced word of the longest element")
    fundamental = _as_int(fundamental, "fundamental index")
    b = cartan.fundamental(fundamental).index(1)
    exps = [divmod(v[b] * cartan.d[b], cartan.d[r - 1]) for r, v in zip(letters, betas)]
    if any(rest for _, rest in exps):
        raise ArithmeticError(f"path exponents (quotient, remainder): {exps}")
    return PathExponents(fundamental, letters, tuple(m for m, _ in exps))


def positive_roots(cartan: CartanData) -> list[tuple[int, ...]]:
    """The positive roots in simple-root coordinates: the longest word's inversions."""
    return sorted(_inversions(cartan, weyl_longest(cartan)))


def weyl_dim(cartan: CartanData, weight: Sequence[int]) -> int:
    """Dimension of the irreducible highest-weight module, via the Weyl
    dimension formula evaluated exactly."""
    lam = tuple(_as_int(x, "weight coordinate") for x in weight)
    if len(lam) != cartan.rank:
        raise InputError("weight length must equal the rank")
    if any(x < 0 for x in lam):
        raise InputError("weight must be dominant")
    [dim] = _weyl_dims(positive_roots(cartan), cartan.d, [lam])
    return dim


def _weyl_dims(
    roots: Sequence[Weight], d: Weight, weights: Iterable[Weight]
) -> list[int]:
    """Weyl dimension of each dominant weight: the product over the positive
    roots alpha of (lam + rho, alpha) / (rho, alpha), with
    (omega_i, alpha_j) = d_j delta_ij, as one exact division of integer
    products.  (rho, alpha) and its product are shared by all weights."""
    heights = [sum(c * dj for c, dj in zip(root, d)) for root in roots]
    den = prod(heights)
    dims = []
    for lam in weights:
        support = [(j, dj * m) for j, (dj, m) in enumerate(zip(d, lam)) if m]
        num = prod(
            h + sum(root[j] * w for j, w in support)
            for root, h in zip(roots, heights)
        )
        dim, rest = divmod(num, den)
        if rest:
            raise ArithmeticError(f"Weyl dimension {num}/{den} is not an integer")
        dims.append(dim)
    return dims
