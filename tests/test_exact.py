"""Exact-arithmetic layer: series ops against independent oracles."""

from __future__ import annotations

from fractions import Fraction as F

import math
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ywalk.exact import A, GaussianRational, ParamPoly, UniPoly
from ywalk.sl2 import series_exp, series_from_poly_ratio, series_log, series_rescale
from ywalk.walk import StepRecord, _divisor_series

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)
param_polys = st.lists(rationals, min_size=0, max_size=3).map(ParamPoly)


def unscaled(series) -> list:
    """The coefficients of a series the walk stores at its scale, where entry
    k is k 2^k times the u^{-k} coefficient (so entry 0 is zero)."""
    assert series[0] == 0
    return [F(0)] + [F(n, k << k) for k, n in enumerate(series[1:], start=1)]


def pad(coeffs, order: int) -> list:
    """A coefficient list extended with zeros to length order + 1."""
    return list(coeffs) + [ParamPoly()] * (order + 1 - len(coeffs))


def convolve(x: list, y: list) -> list:
    """Product of two series, truncated to the shorter one."""
    n = min(len(x), len(y))
    return [sum((x[i] * y[k - i] for i in range(k + 1)), ParamPoly()) for k in range(n)]


def plus_scaled(acc: list, s: list, c: F) -> list:
    """acc + c*s, coefficient by coefficient."""
    return [x + y * c for x, y in zip(acc, s)]


def log_by_powers(s: list) -> list:
    """Reference log: sum_k (-1)^{k+1} (s-1)^k / k, cubic in the order."""
    n = len(s) - 1
    x = [0, *s[1:]]  # s - 1
    out = pad([], n)
    power = pad([1], n)
    for k in range(1, n + 1):
        power = convolve(power, x)
        out = plus_scaled(out, power, F((-1) ** (k + 1), k))
    return out


def exp_by_powers(s: list) -> list:
    """Reference exp: sum_k s^k / k!, cubic in the order."""
    n = len(s) - 1
    out = pad([1], n)
    power = pad([1], n)
    fact = 1
    for k in range(1, n + 1):
        power = convolve(power, s)
        fact *= k
        out = plus_scaled(out, power, F(1, fact))
    return out


def at(q: UniPoly, a) -> list[F]:
    """Ascending coefficients of q with the parameter set to a."""
    return [c.evaluate(a) for c in q.coeffs]


def poly_tail(p: UniPoly, order: int) -> list:
    """p(u)/u^deg as a series in u^{-1}: the long-division oracle's basis."""
    return [p.coeff(p.degree - j) for j in range(order + 1)]


# ---------------------------------------------------------------- ParamPoly


def test_param_poly_basics():
    p = 3 * A + F(3, 2)
    assert p.coeff(0) == F(3, 2) and p.coeff(1) == 3
    assert p.degree == 1
    assert (p - p).degree == -1  # zero-polynomial sentinel
    assert ParamPoly((1, 0, 0)).degree == 0  # trailing zeros stripped
    assert p.evaluate(F(1, 2)) == 3
    assert str(p) == "3*a + 3/2"
    assert str(A * A - 1) == "a^2 - 1"
    assert str(ParamPoly()) == "0"


def test_param_poly_ring_ops():
    p, q = 2 * A + 1, A * A - 3
    assert (p * q).evaluate(5) == p.evaluate(5) * q.evaluate(5)
    assert (p + q).evaluate(-2) == p.evaluate(-2) + q.evaluate(-2)
    assert -(-p) == p
    assert p**3 == p * p * p


def test_uni_poly_from_roots_and_shift():
    quad = UniPoly.from_roots([2, 3])
    assert quad == UniPoly([6, -5, 1])
    # shift oracle: (u + d) substitution moves every root down by d
    assert quad.shift(1) == UniPoly.from_roots([1, 2])
    sym = UniPoly.from_roots([A, A + 2])
    assert sym.shift(-3) == UniPoly.from_roots([A + 3, A + 5])
    # the shift is by an exact rational only, never by a parameter
    with pytest.raises(TypeError):
        quad.shift(-A / 3)
    assert sym.monic
    assert not UniPoly([1, ParamPoly((0, 2))]).monic


def test_gaussian_rational():
    x = GaussianRational(F(1, 2), F(-2))
    y = GaussianRational(F(3), F(2))
    assert (x.re, x.im) == (F(1, 2), F(-2))
    assert GaussianRational(3).im == 0
    assert str(y) == "3+2i"
    assert str(GaussianRational(F(-1), F(2, 3))) == "-1+2/3i"
    assert str(x) == "1/2-2i"


# ----------------------------------------------------- series from ratio


def test_ratio_matches_long_division_oracle():
    num = UniPoly.from_roots([A + 3, ParamPoly.const(F(1, 2))])
    den = UniPoly.from_roots([A, A - 1])
    series = series_from_poly_ratio(num, den, 8)
    assert len(series) == 9
    assert convolve(series, poly_tail(den, 8)) == poly_tail(num, 8)


def test_ratio_frozen_example():
    # (u-(a+3))/(u-a) = 1 - 3u^-1 - 3a u^-2 - 3a^2 u^-3
    s = series_from_poly_ratio(UniPoly.from_roots([A + 3]), UniPoly.from_roots([A]), 3)
    assert s == [1, -3, -3 * A, -3 * A * A]


def test_ratio_identity_case():
    p = UniPoly.from_roots([A, 2])
    assert series_from_poly_ratio(p, p, 5) == pad([1], 5)


def test_ratio_short_root_eigenvalue_step():
    # (u-(a-3/2))/(u-(a+3/2)) = 1 + 3u^-1 + 3(a+3/2)u^-2 + ...
    s = series_from_poly_ratio(
        UniPoly.from_roots([A - F(3, 2)]), UniPoly.from_roots([A + F(3, 2)]), 2
    )
    assert s == [1, 3, 3 * A + F(9, 2)]


def test_ratio_errors():
    with pytest.raises(ValueError):
        series_from_poly_ratio(UniPoly.from_roots([A]), UniPoly.from_roots([A, 1]), 4)
    nonmonic = UniPoly([ParamPoly.const(1), ParamPoly.const(2)])
    with pytest.raises(ValueError):
        series_from_poly_ratio(nonmonic, UniPoly.from_roots([0]), 4)


# ------------------------------------------------------------- log and exp


def test_log_of_one_is_zero():
    assert series_log(pad([1], 6)) == pad([], 6)


@pytest.mark.parametrize("c", [ParamPoly.const(2), A, A - F(1, 2)])
def test_log_geometric_taylor_oracle(c):
    # log(1 - c u^-1) = -sum c^k / k u^-k
    s = pad([ParamPoly.const(1), -c], 6)
    expected = [ParamPoly()] + [-(c**k) / k for k in range(1, 7)]
    assert series_log(s) == expected


def test_log_low_order_pattern():
    # log coefficients: c1; c2 - c1^2/2; c3 - c1 c2 + c1^3/3
    c1, c2, c3 = A, A * A, A + 1
    s = [ParamPoly.const(1), c1, c2, c3]
    out = series_log(s)
    assert len(out) == 4
    assert out[1] == c1
    assert out[2] == c2 - c1 * c1 / 2
    assert out[3] == c3 - c1 * c2 + c1**3 / 3


def test_log_ratio_second_coefficient():
    # u^-2 coefficient of log((u-(a+5/2))/(u-(a-1/2))) is
    # ((a-1/2)^2 - (a+5/2)^2)/2 = -3a - 3
    s = series_log(
        series_from_poly_ratio(
            UniPoly.from_roots([A + F(5, 2)]), UniPoly.from_roots([A - F(1, 2)]), 4
        )
    )
    assert s[2] == ((A - F(1, 2)) ** 2 - (A + F(5, 2)) ** 2) / 2
    assert s[2] == -3 * A - 3


def test_log_requires_unit_constant_term():
    with pytest.raises(ValueError):
        series_log(pad([2, 1], 3))


def test_exp_of_zero_is_one():
    assert series_exp(pad([], 5)) == pad([1], 5)


def test_exp_low_order_pattern():
    s = [ParamPoly(), A, A - 2]
    out = series_exp(s)
    assert len(out) == 3
    assert out[1] == A
    assert out[2] == (A - 2) + A * A / 2


def test_exp_requires_zero_constant_term():
    with pytest.raises(ValueError):
        series_exp(pad([1], 3))


@settings(max_examples=40, deadline=None)
@given(st.lists(param_polys, min_size=1, max_size=5))
def test_exp_log_roundtrip(tail):
    s = [ParamPoly.const(1)] + tail
    assert series_exp(series_log(s)) == s


@settings(max_examples=40, deadline=None)
@given(st.lists(param_polys, min_size=1, max_size=5))
def test_log_exp_roundtrip(tail):
    s = [ParamPoly()] + tail
    assert series_log(series_exp(s)) == s


@settings(max_examples=40, deadline=None)
@given(st.lists(param_polys, min_size=1, max_size=8))
def test_log_recurrence_matches_power_expansion(tail):
    s = [ParamPoly.const(1)] + tail
    assert series_log(s) == log_by_powers(s)


@settings(max_examples=40, deadline=None)
@given(st.lists(param_polys, min_size=1, max_size=8))
def test_exp_recurrence_matches_power_expansion(tail):
    s = [ParamPoly()] + tail
    assert series_exp(s) == exp_by_powers(s)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(min_value=-9, max_value=9), max_size=4),
    st.integers(min_value=1, max_value=3),
    st.sampled_from([1, -1]),
    st.integers(min_value=1, max_value=12),
)
def test_divisor_series_matches_ratio_log(doubled, d, sign, order):
    # the divisor sum_r ([r - s] - [r]) of pi(u+s)/pi(u), s = +-d, against
    # the log of the polynomial ratio, for half-integer roots r at a = 0
    shift = sign * d
    pi = UniPoly.from_roots([F(z, 2) for z in doubled])
    expected = series_log(series_from_poly_ratio(pi.shift(shift), pi, order))
    divisor = {}
    for z in doubled:
        for point, mult in ((z - 2 * shift, 1), (z, -1)):
            divisor[point] = divisor.get(point, 0) + mult
    divisor = {z: mult for z, mult in divisor.items() if mult}
    got = _divisor_series(divisor, order)
    assert all(type(n) is int for n in got)
    assert unscaled(got) == [0] + [c.evaluate(0) for c in expected[1:]]


def test_shifted_ratio_log_coefficients_match_power_sum_oracle():
    # log(pi(u-d)/pi(u)) where pi has roots R: the numerator roots are R+d,
    # so the u^-(k+1) coefficient is (sum R^{k+1} - sum (R+d)^{k+1})/(k+1).
    for roots, d in (
        ([F(2), F(-1, 2), F(1, 3)], F(2)),
        ([A, A + 2], F(3)),
    ):
        pi = UniPoly.from_roots(roots)
        out = series_log(series_from_poly_ratio(pi.shift(-d), pi, 8))
        for k in range(8):
            rs = [ParamPoly.const(r) if isinstance(r, F) else r for r in roots]
            expected = sum(
                (r ** (k + 1) - (r + d) ** (k + 1) for r in rs), ParamPoly()
            ) / (k + 1)
            assert out[k + 1] == expected


# ------------------------------------------------------------------ rescale


def test_rescale_identity():
    s = [1, A, A * A]
    assert series_rescale(s, 1) == s


def test_rescale_scales_coefficients():
    s = [1, -3, 9]
    out = series_rescale(s, 3)
    assert out == [1, -1, 1]


def test_rescale_moves_roots():
    # h-series of root a at shift 3, rescaled by 3, equals the h-series of
    # root a/3 at shift 1 in the rescaled variable
    unscaled = series_from_poly_ratio(
        UniPoly.from_roots([A - 3]), UniPoly.from_roots([A]), 6
    )
    rescaled = series_from_poly_ratio(
        UniPoly.from_roots([A / 3 - 1]), UniPoly.from_roots([A / 3]), 6
    )
    assert series_rescale(unscaled, 3) == rescaled


def test_rescale_rejects_zero():
    with pytest.raises(ValueError):
        series_rescale(pad([1], 2), 0)


# ------------------------------------------------------------ affine roots


def roots_record(betas, d: int) -> StepRecord:
    """A hand-built walk record at step 1 with the given roots at a = 0."""
    return StepRecord(
        step=1,
        node=1,
        exponent=len(betas),
        roots=tuple(betas),
        rescale=d,
        crosscheck_ok=True,
    )


def _vieta_poly(betas, d: int) -> UniPoly:
    """prod (u - a/d - beta) written out by Vieta, without multiplying
    polynomials: its u^{m-k} coefficient is
    (-1)^k sum_j C(m-k+j, j) e_{k-j}(beta) (a/d)^j."""
    m = len(betas)
    e = [sum(math.prod(c) for c in combinations(betas, i)) for i in range(m + 1)]
    return UniPoly(
        ParamPoly(
            (-1) ** k * math.comb(m - k + j, j) * e[k - j] / F(d) ** j
            for j in range(k + 1)
        )
        for k in range(m, -1, -1)
    )


def test_roots_affine_paper_pair():
    # roots (a+1)/3 and (a+2)/3: u^2 - (2a/3 + 1) u + (a^2 + 3a + 2)/9
    constant, linear = ParamPoly((F(2, 9), F(1, 3), F(1, 9))), ParamPoly((-1, F(-2, 3)))
    poly = UniPoly([constant, linear, 1])
    assert _vieta_poly((F(1, 3), F(2, 3)), 3) == poly
    assert roots_record((F(1, 3), F(2, 3)), 3).poly == poly


def test_roots_affine_by_inspection():
    # u^2 - 2au + (a^2 - 1) = (u - (a-1))(u - (a+1))
    poly = UniPoly([A * A - 1, -2 * A, 1])
    assert roots_record((F(-1), F(1)), 1).poly == poly


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from((1, 2, 3)),
    st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=3), max_size=4),
)
def test_roots_affine_reexpansion_matches_input(d, intercepts):
    # walk rows have roots a/d + beta; the record's poly must be their
    # product in a, here expanded by Vieta
    betas = sorted(intercepts)
    assert roots_record(betas, d).poly == _vieta_poly(betas, d)


def _divisors_reference(n):
    """Positive divisors of n != 0, from its prime factorization."""
    n, primes = abs(n), {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            primes[p] = primes.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        primes[n] = 1
    return [
        math.prod(p**k for p, k in zip(primes, ks))
        for ks in product(*(range(e + 1) for e in primes.values()))
    ]


def _rational_roots_reference(coeffs):
    """Strip zero roots, then test every candidate n/q of the rational root
    theorem in lowest terms and divide each root out as often as it
    divides.  (q - n) must divide p(1) and (q + n) must divide p(-1) for
    an integer polynomial p, which skips most candidates before they are
    evaluated."""
    cs = [F(c) for c in coeffs]
    roots = []
    while len(cs) > 1 and cs[0] == 0:
        roots.append(F(0))
        cs = cs[1:]
    if len(cs) == 1:
        return roots
    scale = math.lcm(*(c.denominator for c in cs))
    ints = [int(c * scale) for c in cs]
    at_one, at_minus_one = sum(ints), sum(c * (-1) ** k for k, c in enumerate(ints))
    dens = _divisors_reference(ints[-1])
    for n in _divisors_reference(ints[0]):
        for q in dens:
            if math.gcd(n, q) != 1:
                continue
            for num in (n, -n):
                if (q - num and at_one % (q - num)) or (
                    q + num and at_minus_one % (q + num)
                ):
                    continue
                cand = F(num, q)
                while len(cs) > 1:
                    acc, quot = F(0), []
                    for c in reversed(cs):
                        acc = acc * cand + c
                        quot.append(acc)
                    if acc != 0:
                        break
                    roots.append(cand)
                    cs = quot[-2::-1]
    if len(cs) > 1:
        return None
    return sorted(roots)


class NoSplit(Exception):
    """The reference split found no rational-affine roots."""


def _split_reference(q):
    """Split every specialization at a = 0..deg(q), interpolate from the
    first two, verify by re-expansion."""
    if not q.monic:
        raise ValueError("roots_affine_in_param requires a monic polynomial")
    n = q.degree
    if n == 0:
        return []
    table = []
    for a0 in range(n + 1):
        rs = _rational_roots_reference(at(q, F(a0)))
        if rs is None:
            raise NoSplit(f"specialization a={a0} does not split")
        table.append(rs)
    candidates = [(r1 - r0, r0) for r0, r1 in zip(table[0], table[1])]
    rebuilt = UniPoly.from_roots(ParamPoly((beta, alpha)) for alpha, beta in candidates)
    if rebuilt != q:
        raise NoSplit("affine interpolation failed verification")
    return sorted(candidates)
