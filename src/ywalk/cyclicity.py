"""Root collections, tensor-product cyclicity verdicts, and ordered products.

From completed walks this layer collects, per (source weight b, acting
node c), the symbolic roots of every step polynomial: the T set.  A walk
at a is the walk at a = 0 with every unscaled root moved by a, so each
root is a/d_c + beta with beta one of the record's ``roots`` (the step's
roots at a = 0, which the walk reads off its divisors), and the single
condition "spectral difference never lands one past a root" reduces to a
finite set of forbidden rational differences, the S set

    S(b, c) = { d_c * (1 + intercept) : a/d_c + intercept in T(b, c) }.

``format_root(slope, intercept)`` prints a T root as a polynomial in a,
for instance ``1/3*a + 2/3``; the CLI, ``verify`` and the tables atlas all
print T roots through it.

An ordered tensor product of fundamental modules is certified highest
weight when no ordered pair (i < j) of factors has difference
a_j - a_i in S(b_i, b_j), and certified irreducible when the same holds
for all ordered pairs.  These are sufficient conditions: a failed check
means "not certified", nothing stronger.
"""

from __future__ import annotations

import sys
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, NamedTuple, Sequence

from .exact import GaussianRational, ParamPoly
from .rootsystem import CartanData, InputError, _as_int, _weyl_dims, positive_roots
from .walk import WalkReport

__all__ = [
    "TSet",
    "SSet",
    "TensorFactor",
    "Violation",
    "CyclicityReport",
    "WeylModuleSpec",
    "DimensionReport",
    "compute_t_sets",
    "compute_s_sets",
    "format_root",
    "check_cyclicity",
    "build_ordered_product",
    "dimension_bound",
    "q_exponent_image",
    "MODE_HIGHEST_WEIGHT",
    "MODE_IRREDUCIBLE",
]

MODE_HIGHEST_WEIGHT = "highest-weight"
MODE_IRREDUCIBLE = "irreducible"

_MODE_ALIASES = {
    "hw": MODE_HIGHEST_WEIGHT,
    "highest-weight": MODE_HIGHEST_WEIGHT,
    "irr": MODE_IRREDUCIBLE,
    "irreducible": MODE_IRREDUCIBLE,
}


@dataclass(frozen=True)
class TSet:
    """Symbolic roots gathered from the walk of omega_b at acting node c."""

    b: int
    c: int
    roots: tuple[tuple[Fraction, Fraction], ...]  # (slope, intercept), sorted


def format_root(slope: Fraction, intercept: Fraction) -> str:
    """A T root slope*a + intercept as printed, e.g. ``1/3*a + 2/3``."""
    return str(ParamPoly((intercept, slope)))


@dataclass(frozen=True)
class SSet:
    """Forbidden spectral differences for the factor pair (b, c)."""

    b: int
    c: int
    values: tuple[Fraction, ...]  # sorted, duplicates collapsed


@dataclass(frozen=True)
class TensorFactor:
    """One fundamental factor: node label and exact spectral parameter."""

    node: int
    param: GaussianRational


class Violation(NamedTuple):
    """One ordered pair whose difference hits a forbidden value.

    A NamedTuple, built once per hit.  ``difference`` is the S value as a
    GaussianRational: one object per value of each S set, shared by every
    violation that hits it (it is frozen).
    """

    i: int  # 1-based factor positions
    j: int
    difference: GaussianRational
    s_value: Fraction


@dataclass(frozen=True)
class CyclicityReport:
    mode: str
    certified: bool
    violations: tuple[Violation, ...]


@dataclass(frozen=True)
class WeylModuleSpec:
    """An ordered tensor product realizing a pair of root multisets."""

    factors: tuple[TensorFactor, ...]
    weight: tuple[int, int]
    report: CyclicityReport


@dataclass(frozen=True)
class DimensionReport:
    weight: tuple[int, ...]
    fund_dims: tuple[int, ...]
    bound: int
    reference_fund_dims: tuple[int, ...]


def compute_t_sets(reports: Iterable[WalkReport]) -> list[TSet]:
    """Collect, for every (source fundamental, acting node) pair, the union
    of step-polynomial roots across the walk, deduplicated, as (1/d_c, beta)
    pairs sorted by beta.  Every node 1..rank gets its TSet, empty where it
    never acts.
    """
    out: list[TSet] = []
    for rep in reports:
        cartan = rep.cartan
        collected: dict[int, set[Fraction]] = {}
        for rec in rep.records:
            collected.setdefault(rec.node, set()).update(rec.roots)
        for c in range(1, cartan.rank + 1):
            slope = Fraction(1, cartan.di(c))
            roots = tuple((slope, beta) for beta in sorted(collected.get(c, ())))
            out.append(TSet(b=rep.fundamental, c=c, roots=roots))
    return out


def compute_s_sets(t_sets: Iterable[TSet], cartan: CartanData) -> list[SSet]:
    """Forbidden differences d_c*(1+intercept) per (b, c) pair."""
    out = []
    for t in t_sets:
        d = cartan.di(t.c)
        values = {d * (1 + intercept) for _, intercept in t.roots}
        out.append(SSet(b=t.b, c=t.c, values=tuple(sorted(values))))
    return out


def check_cyclicity(
    factors: Sequence[TensorFactor], s_sets: Iterable[SSet], mode: str
) -> CyclicityReport:
    """Test the ordered product against the forbidden-difference sets.

    Highest-weight mode checks ordered pairs i < j; irreducible mode checks
    all ordered pairs i != j.  A difference with nonzero imaginary part
    never matches (the sets are rational).

    The check runs on integers.  With L the lcm of the denominators of all
    S values, each s becomes the int p = s*L, and each factor's
    t = re*L = q + r/den (0 <= r < den, lowest terms) is split once.
    a_j - a_i = s holds exactly when factors i and j share the lattice
    class (r, den, im) and q_j = q_i + p.  The indexing pass counts each
    class's members and files the classes with two or more by node, then
    q.  A factor alone in its class has no partner and costs no lookup;
    for any other factor i, each node c of its class and each s in
    S(b_i, c), one int add and one int-keyed lookup finds every j with
    a_j - a_i = s.  The cost is the indexing pass, plus |S| lookups per
    factor that has a partner in its class, plus the violations reported,
    which come out ordered by (i, j).  A checked pair whose node pair has
    no S set raises ValueError, naming the first such pair in (i, j)
    order, whether or not its factors have partners.
    """
    canonical = _MODE_ALIASES.get(mode)
    if canonical is None:
        raise ValueError(f"unknown mode {mode!r}")
    highest_weight = canonical == MODE_HIGHEST_WEIGHT
    smap = {(s.b, s.c): s.values for s in s_sets}
    scale = lcm(*(v.denominator for values in smap.values() for v in values))
    # distinct values only: a value listed twice would hit its js twice
    steps = {
        key: [(int(v * scale), GaussianRational(v)) for v in dict.fromkeys(values)]
        for key, values in smap.items()
    }
    # per factor: its lattice class and its q; then the classes with more
    # than one member, indexed by node, then q
    placed: list[tuple[tuple[int, int, int, int], int]] = []
    members: dict[tuple[int, int, int, int], int] = {}
    for f in factors:
        re, im = f.param.re, f.param.im
        g = gcd(re.denominator, scale)  # t = re*scale is num/den in lowest terms
        num, den = re.numerator * (scale // g), re.denominator // g
        q, r = divmod(num, den)
        key = (r, den, im.numerator, im.denominator)
        members[key] = members.get(key, 0) + 1
        placed.append((key, q))
    at_class: dict[tuple[int, int, int, int], dict[int, dict[int, list[int]]]] = {}
    for j, (f, (key, q)) in enumerate(zip(factors, placed), start=1):
        if members[key] > 1:
            nodes = at_class.setdefault(key, {})
            nodes.setdefault(f.node, {}).setdefault(q, []).append(j)
    present = {f.node for f in factors}
    if any((b, c) not in steps for b in present for c in present):
        # some node pair has no S set: the first factor with a checked pair
        # on one raises, whether or not it has a partner
        at_node: dict[int, list[int]] = {}
        for j, f in enumerate(factors, start=1):
            at_node.setdefault(f.node, []).append(j)
        for i, fi in enumerate(factors, start=1):
            unset: tuple[int, int] | None = None  # smallest (first checked j, node c)
            for c, positions in at_node.items():
                if (fi.node, c) not in steps:
                    j = _first_checked(positions, i, highest_weight)
                    if j is not None and (unset is None or (j, c) < unset):
                        unset = (j, c)
            if unset is not None:
                raise ValueError(f"no S set for node pair {(fi.node, unset[1])}")
    violations: list[Violation] = []
    for i, (fi, (key, q)) in enumerate(zip(factors, placed), start=1):
        nodes = at_class.get(key)
        if nodes is None:  # alone in its class: no difference lands in S
            continue
        hits: list[Violation] = []
        for c, at_floor in nodes.items():
            for p, diff in steps.get((fi.node, c), ()):
                for j in at_floor.get(q + p, ()):
                    if j > i or (j != i and not highest_weight):
                        hits.append(Violation(i, j, diff, diff.re))
        # a_j - a_i is one value, so no j repeats and the sort compares
        # only (i, j), never the differences
        hits.sort()
        violations += hits
    return CyclicityReport(
        mode=canonical, certified=not violations, violations=tuple(violations)
    )


def _first_checked(positions: list[int], i: int, highest_weight: bool) -> int | None:
    """Smallest position in the ascending list that is paired with i."""
    if highest_weight:
        k = bisect_right(positions, i)
        return positions[k] if k < len(positions) else None
    if positions[0] != i:
        return positions[0]
    return positions[1] if len(positions) > 1 else None


def build_ordered_product(
    roots1: Sequence[GaussianRational],
    roots2: Sequence[GaussianRational],
    s_sets,
) -> WeylModuleSpec:
    """Order the combined root multiset by non-increasing real part and
    record the highest-weight verdict of the resulting product.

    Ties break by imaginary part (descending), then node (ascending), then
    input position; the result is independent of input permutation.

    The sort key of a root re + im*i is (fl(re), re, fl(im), im) with
    fl(x) = floor(x * 2^64), computed on ints from x's numerator and
    denominator.  fl is monotone, so the key orders exactly as (re, im)
    does: fl(x) < fl(y) implies x < y, and only where two floors are equal
    does the comparison reach the Fractions.  Most pairs are thus settled
    by one int comparison, and each key costs O(size of its own root),
    whatever the other roots' denominators are.
    """
    factors = [TensorFactor(1, r) for r in roots1] + [
        TensorFactor(2, r) for r in roots2
    ]
    # the list is already in node order, and a stable sort (reverse=True
    # included) keeps equal keys in that order
    factors.sort(key=_order_key, reverse=True)
    report = check_cyclicity(factors, s_sets, MODE_HIGHEST_WEIGHT)
    return WeylModuleSpec(
        factors=tuple(factors),
        weight=(len(roots1), len(roots2)),
        report=report,
    )


def _order_key(f: TensorFactor) -> tuple[int, Fraction, int, Fraction]:
    """Sort key of ``build_ordered_product``: (fl(re), re, fl(im), im)."""
    re, im = f.param.re, f.param.im
    return (
        (re.numerator << 64) // re.denominator,
        re,
        (im.numerator << 64) // im.denominator,
        im,
    )


def _digit_limit() -> int:
    """The interpreter's int-to-str digit limit, or CPython's default of
    4300 digits where the limit is off (0) or absent (before 3.10.7)."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300


def dimension_bound(
    weight: Sequence[int], fund_dims: Sequence[int], cartan: CartanData
) -> DimensionReport:
    """Product bound prod_i D_i^{m_i} for the module with weight
    (m_1..m_l), with the classical Weyl-formula fundamental dimensions
    reported alongside for reference.

    Out-of-range arguments raise InputError, and so does a product that
    could not be printed under the interpreter's int-to-str digit limit
    (CPython's default where the limit is off or absent).  Most such
    products are rejected before they are built: one has at least
    sum_i m_i (bit_length(D_i) - 1) + 1 bits, and 2^(b-1) >= 10^limit once
    b - 1 reaches the bit length of 10^limit.  The rest are compared with
    10^limit once built.
    """
    lam = tuple(_as_int(x, "weight coordinate") for x in weight)
    dims = tuple(_as_int(x, "fundamental dimension") for x in fund_dims)
    if len(lam) != cartan.rank or len(dims) != cartan.rank:
        raise InputError("weight and dimension tuples must match the rank")
    if any(x < 0 for x in lam):
        raise InputError("weight must be dominant")
    if any(x <= 0 for x in dims):
        raise InputError("fundamental dimensions must be positive")
    limit = _digit_limit()
    ceiling = 10**limit
    min_bits = sum(m * (d.bit_length() - 1) for d, m in zip(dims, lam)) + 1
    if min_bits - 1 >= ceiling.bit_length():
        raise InputError(
            f"dimension bound too large to print: at least {min_bits} bits, "
            f"more than {limit} digits"
        )
    bound = 1
    for d, m in zip(dims, lam):
        bound *= d**m
    if bound >= ceiling:
        raise InputError(
            f"dimension bound too large to print: more than {limit} digits"
        )
    fundamentals = (cartan.fundamental(i) for i in range(1, cartan.rank + 1))
    reference = tuple(_weyl_dims(positive_roots(cartan), cartan.d, fundamentals))
    return DimensionReport(
        weight=lam, fund_dims=dims, bound=bound, reference_fund_dims=reference
    )


def q_exponent_image(s: SSet) -> tuple[Fraction, ...]:
    """Exponents of the multiplicative image s -> q^{2s} of an S set."""
    return tuple(sorted(2 * v for v in s.values))
