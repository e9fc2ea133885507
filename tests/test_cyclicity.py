"""T/S set derivation, cyclicity verdicts, ordered products, dimensions."""

from __future__ import annotations

import json
import math
import random
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ywalk import cyclicity, rootsystem, walk
from ywalk.cyclicity import (
    MODE_HIGHEST_WEIGHT,
    MODE_IRREDUCIBLE,
    SSet,
    TensorFactor,
    Violation,
    build_ordered_product,
    check_cyclicity,
    compute_s_sets,
    compute_t_sets,
    dimension_bound,
    q_exponent_image,
)
from ywalk.exact import GaussianRational, ParamPoly
from ywalk.rootsystem import InputError, weyl_longest
from ywalk.verify import EXPECTED_S, EXPECTED_T, G2_WORD
from ywalk.walk import CrosscheckError, run_walk


def gauss(re, im=0):
    return GaussianRational(F(re), F(im))


def test_t_sets_match_expected(g2, g2_reports):
    t_sets = {
        (t.b, t.c): tuple(str(ParamPoly((beta, alpha))) for alpha, beta in t.roots)
        for t in compute_t_sets(g2_reports)
    }
    assert t_sets == EXPECTED_T


def test_s_sets_match_expected(g2, g2_reports):
    s_sets = compute_s_sets(compute_t_sets(g2_reports), g2)
    assert {(s.b, s.c): s.values for s in s_sets} == EXPECTED_S
    for s in s_sets:
        assert all(v > 0 for v in s.values)


def test_rank_one_sets(a1):
    report = run_walk(a1, (1,), 1, 8)
    t_sets = compute_t_sets([report])
    assert t_sets[0].roots == ((F(1), F(0)),)
    s_sets = compute_s_sets(t_sets, a1)
    assert s_sets[0].values == (F(1),)


# ----------------------------------------- closed forms in types A and D


def _closed_form_s_set(kind, n, k, l):
    """S(k, l) of A_n or D_n (Bourbaki labels, spin nodes n - 1 and n),
    without a walk.  Under s -> q^{2s} these are the zeros of the
    normalized R-matrix denominators of the quantum affine algebra: type A
    is Akasaka-Kashiwara (Publ. RIMS 33, 1997), and the type D sets with at
    most one spin node are recalled from the same line of work.  The sets
    for two spin nodes are not cited: they are a fit to the walk's own S
    sets, {2s - 1 : s <= n/2} for k = l and {2s : s <= (n - 1)/2} for
    k != l, and this test only records that the fit keeps holding."""
    if kind == "a":
        top = min(k, l, n + 1 - k, n + 1 - l)
        return {F(abs(k - l) + 2 * s, 2) for s in range(1, top + 1)}
    spin = {n - 1, n}
    if k in spin and l in spin:
        if k == l:
            return {F(2 * s - 1) for s in range(1, n // 2 + 1)}
        return {F(2 * s) for s in range(1, (n - 1) // 2 + 1)}
    if k in spin or l in spin:
        m = l if k in spin else k
        return {F(n - m - 1 + 2 * s, 2) for s in range(1, m + 1)}
    return {
        value
        for s in range(1, min(k, l) + 1)
        for value in (F(abs(k - l) + 2 * s, 2), F(2 * n - 2 - k - l + 2 * s, 2))
    }


@pytest.mark.parametrize(
    "name", [f"a{n}" for n in range(2, 13)] + [f"d{n}" for n in range(4, 11)]
)
def test_type_a_and_d_s_sets_have_closed_forms(finite_type, name):
    # every ordered node pair, on the lex-least word
    cartan = finite_type(name)
    word = weyl_longest(cartan)
    reports = [run_walk(cartan, word, b, 8) for b in range(1, cartan.rank + 1)]
    s_sets = compute_s_sets(compute_t_sets(reports), cartan)
    assert len(s_sets) == cartan.rank**2
    for s in s_sets:
        want = _closed_form_s_set(name[0], cartan.rank, s.b, s.c)
        assert set(s.values) == want, f"{name} S({s.b},{s.c})"


def test_divisor_fault_stops_the_walk_before_t_sets(g2, monkeypatch):
    # a start divisor [0] - [-3] in place of [-3] - [0] gives the first
    # node-1 step a root of multiplicity -1: a walk fault, and no T set
    real = walk.init_walk

    def inverted(cartan, fundamental, order):
        state = real(cartan, fundamental, order)
        top = state.divisors[fundamental - 1]
        state.divisors[fundamental - 1] = {z: -mult for z, mult in top.items()}
        return state

    monkeypatch.setattr(walk, "init_walk", inverted)
    with pytest.raises(CrosscheckError, match="node 1 divisor gives root 0 multiplicity"):
        compute_t_sets([run_walk(g2, G2_WORD, 1, 8)])


def test_highest_weight_failing_pair(g2_s_sets):
    factors = [TensorFactor(1, gauss(0)), TensorFactor(1, gauss(3))]
    report = check_cyclicity(factors, g2_s_sets, "hw")
    assert report.mode == MODE_HIGHEST_WEIGHT
    assert not report.certified
    (violation,) = report.violations
    assert (violation.i, violation.j) == (1, 2)
    assert violation.s_value == 3


def test_highest_weight_passing_pair(g2_s_sets):
    factors = [TensorFactor(1, gauss(0)), TensorFactor(1, gauss(F(7, 2)))]
    assert check_cyclicity(factors, g2_s_sets, "hw").certified


def test_mode_comparison_on_reversed_pair(g2_s_sets):
    factors = [TensorFactor(1, gauss(3)), TensorFactor(1, gauss(0))]
    assert check_cyclicity(factors, g2_s_sets, "hw").certified
    irr = check_cyclicity(factors, g2_s_sets, "irr")
    assert irr.mode == MODE_IRREDUCIBLE
    assert not irr.certified
    (violation,) = irr.violations
    assert (violation.i, violation.j) == (2, 1)
    assert violation.difference == gauss(3)


def test_imaginary_difference_never_matches(g2_s_sets):
    factors = [TensorFactor(1, gauss(0)), TensorFactor(1, gauss(3, 1))]
    assert check_cyclicity(factors, g2_s_sets, "irr").certified


def test_mixed_node_pairs_use_their_own_sets(g2_s_sets):
    # 9/2 lies in S(2,1) and S(1,2) but not in S(1,1)
    factors = [TensorFactor(2, gauss(0)), TensorFactor(1, gauss(F(9, 2)))]
    assert not check_cyclicity(factors, g2_s_sets, "hw").certified
    factors = [TensorFactor(1, gauss(0)), TensorFactor(1, gauss(F(9, 2)))]
    assert check_cyclicity(factors, g2_s_sets, "hw").certified


def test_unknown_mode_rejected(g2_s_sets):
    with pytest.raises(ValueError):
        check_cyclicity([], g2_s_sets, "both")


def test_unknown_node_rejected(g2_s_sets):
    with pytest.raises(ValueError):
        check_cyclicity(
            [TensorFactor(3, gauss(0)), TensorFactor(1, gauss(1))],
            g2_s_sets,
            "hw",
        )


@settings(max_examples=80, deadline=None)
@given(
    st.one_of(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=2),
                st.fractions(min_value=-6, max_value=6, max_denominator=4),
                st.fractions(min_value=-2, max_value=2, max_denominator=2),
            ),
            max_size=5,
        ),
        # half-integer parameters hit the S sets often
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=2),
                st.integers(min_value=-12, max_value=12).map(lambda k: F(k, 2)),
                st.sampled_from((F(0), F(1))),
            ),
            max_size=10,
        ),
    ),
    st.fractions(min_value=-8, max_value=8, max_denominator=4),
    st.fractions(min_value=-3, max_value=3, max_denominator=2),
)
def test_common_shift_invariance(g2_s_sets, raw_factors, shift, shift_im):
    factors = [TensorFactor(n, gauss(re, im)) for n, re, im in raw_factors]
    shifted = [
        TensorFactor(f.node, gauss(f.param.re + shift, f.param.im + shift_im))
        for f in factors
    ]
    for mode in ("hw", "irr"):
        base = check_cyclicity(factors, g2_s_sets, mode)
        moved = check_cyclicity(shifted, g2_s_sets, mode)
        assert base.certified == moved.certified
        assert [(v.i, v.j, v.s_value) for v in base.violations] == [
            (v.i, v.j, v.s_value) for v in moved.violations
        ]


# ------------------------------------- indexed check vs the pair loop

_CHECKS_ALL_PAIRS = {
    "hw": False,
    "highest-weight": False,
    "irr": True,
    "irreducible": True,
}


def _pairwise_reference(factors, s_sets, mode):
    """The O(n^2) pair loop: difference every checked (i, j) in order."""
    smap = {(s.b, s.c): s for s in s_sets}
    all_pairs = _CHECKS_ALL_PAIRS[mode]
    out = []
    n = len(factors)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j or (not all_pairs and not i < j):
                continue
            fi, fj = factors[i - 1], factors[j - 1]
            key = (fi.node, fj.node)
            if key not in smap:
                raise ValueError(f"no S set for node pair {key}")
            diff = gauss(fj.param.re - fi.param.re, fj.param.im - fi.param.im)
            if diff.im == 0 and diff.re in smap[key].values:
                out.append((i, j, diff, diff.re))
    return out


def _violation_tuples(report):
    return [(v.i, v.j, v.difference, v.s_value) for v in report.violations]


def _outcome(check, factors, s_sets, mode):
    try:
        return "ok", check(factors, s_sets, mode)
    except ValueError as exc:
        return "raised", str(exc)


def _assert_matches_reference(s_sets, factors):
    """Both modes agree with the pair loop; returns how many raised."""
    raised = 0
    for mode in ("hw", "irr"):
        got = _outcome(check_cyclicity, factors, s_sets, mode)
        want = _outcome(_pairwise_reference, factors, s_sets, mode)
        if got[0] == "ok":
            report = got[1]
            assert report.certified == (not report.violations)
            assert all(isinstance(v.s_value, F) for v in report.violations)
            got = ("ok", _violation_tuples(report))
        assert got == want, (factors, mode)
        raised += got[0] == "raised"
    return raised


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=2),
            st.integers(min_value=-12, max_value=12),
            st.sampled_from((0, 1, -1)),
        ),
        max_size=12,
    ),
    st.sampled_from(sorted(_CHECKS_ALL_PAIRS)),
)
def test_indexed_check_matches_pairwise_reference(g2_s_sets, raw_factors, mode):
    factors = [TensorFactor(n, gauss(F(re, 2), im)) for n, re, im in raw_factors]
    report = check_cyclicity(factors, g2_s_sets, mode)
    expected = _pairwise_reference(factors, g2_s_sets, mode)
    assert _violation_tuples(report) == expected
    assert report.certified == (not expected)
    assert all(isinstance(v.s_value, F) for v in report.violations)


def test_repeated_s_values_report_each_pair_once():
    # SSet values are documented as deduplicated; a caller's table that
    # repeats one still gives one violation per pair
    s_sets = [SSet(1, 1, (F(3), F(3), F(4)))]
    factors = [TensorFactor(1, gauss(0)), TensorFactor(1, gauss(3))]
    for mode in ("hw", "irr"):
        report = check_cyclicity(factors, s_sets, mode)
        assert _violation_tuples(report) == [(1, 2, gauss(3), F(3))]


def test_partial_s_sets_raise_like_the_reference(g2_s_sets):
    # a node-3 factor has no S set on G2; a map without (2, 1) is partial
    # between nodes 1 and 2 as well
    partial = [s for s in g2_s_sets if (s.b, s.c) != (2, 1)]
    rng = random.Random(4242)
    raised = 0
    for _ in range(400):
        n = rng.randint(0, 7)
        factors = [
            TensorFactor(
                rng.choice((1, 1, 2, 2, 3)),
                gauss(F(rng.randint(-6, 6), 2), rng.choice((0, 0, 1))),
            )
            for _ in range(n)
        ]
        for s_sets in (g2_s_sets, partial):
            raised += _assert_matches_reference(s_sets, factors)
    assert raised > 100
    with pytest.raises(ValueError, match=r"no S set for node pair \(2, 3\)"):
        check_cyclicity(
            [TensorFactor(2, gauss(0)), TensorFactor(3, gauss(0)), TensorFactor(1, gauss(0))],
            g2_s_sets,
            "hw",
        )


def test_partnerless_factor_without_s_set_raises_like_the_reference(g2_s_sets):
    # with L = 2 the node-3 factor at 1/3 has t = 2/3, alone in its lattice
    # class, so no lookup runs for it; its node pairs have no S set all
    # the same, and a checked pair on one raises before any hit is found
    lone = TensorFactor(3, gauss(F(1, 3)))
    cases = {
        "first": ([lone, TensorFactor(1, gauss(0)), TensorFactor(1, gauss(3))], (3, 1)),
        "middle": ([TensorFactor(1, gauss(0)), lone, TensorFactor(1, gauss(3))], (1, 3)),
        "last": ([TensorFactor(2, gauss(0)), TensorFactor(2, gauss(1)), lone], (2, 3)),
    }
    for name, (factors, pair) in cases.items():
        for mode in ("hw", "irr"):
            got = _outcome(check_cyclicity, factors, g2_s_sets, mode)
            assert got == ("raised", f"no S set for node pair {pair}"), (name, mode)
            assert got == _outcome(_pairwise_reference, factors, g2_s_sets, mode)
    # alone, the node-3 factor is in no checked pair: nothing to raise
    for mode in ("hw", "irr"):
        assert check_cyclicity([lone], g2_s_sets, mode).certified


def test_violation_is_an_immutable_named_tuple():
    v = Violation(1, 2, gauss(3), F(3))
    assert Violation._fields == ("i", "j", "difference", "s_value")
    with pytest.raises(AttributeError):
        v.j = 3
    same = Violation(1, 2, gauss(3), F(3))
    assert v == same and hash(v) == hash(same)
    assert v != Violation(2, 1, gauss(3), F(3))
    assert repr(v) == (
        "Violation(i=1, j=2, difference=GaussianRational(re=Fraction(3, 1), "
        "im=Fraction(0, 1)), s_value=Fraction(3, 1))"
    )


def test_each_factors_hits_come_out_by_j(g2_s_sets):
    # factor 1 at 0 hits every later factor: node 1 at 3..6 (S(1,1)) and
    # node 2 at 1/2, 3/2, 9/2 (in S(1,2)), listed here in no order
    later = [(1, 6), (2, F(9, 2)), (1, 3), (2, F(1, 2)), (1, 5), (2, F(3, 2)), (1, 4)]
    factors = [TensorFactor(1, gauss(0))] + [TensorFactor(n, gauss(re)) for n, re in later]
    for mode in ("hw", "irr"):
        report = check_cyclicity(factors, g2_s_sets, mode)
        first = [v for v in report.violations if v.i == 1]
        assert [v.j for v in first] == list(range(2, 9))
        assert [(v.i, v.j) for v in report.violations] == sorted(
            (v.i, v.j) for v in report.violations
        )


# check_cyclicity turns every s into s*L, L the lcm of the S denominators,
# and finds a factor by its lattice class (r, den, im), its node and its
# floor q, where re*L = q + r/den; these cases sit on and just off that
# lattice

_S_VALUES = st.builds(F, st.integers(-24, 24), st.sampled_from((1, 2, 3, 4, 6)))
_RANDOM_S_TABLES = st.fixed_dictionaries(
    {(b, c): st.lists(_S_VALUES, max_size=3) for b in (1, 2) for c in (1, 2)}
)
_ATLAS = json.loads(Path(__file__).with_name("tables_atlas.json").read_text())
_F4_S_TABLE = {
    tuple(int(x) for x in key.split(",")): [F(v) for v in values]
    for key, values in _ATLAS["types"]["f4"]["s"].items()
}


@st.composite
def _lattice_cases(draw, s_tables):
    """S sets and factors with real parts of denominator 1..12 (negative
    ones too) and non-integer imaginary parts.  Some factors sit one value
    of their pair's S set away from an earlier factor (either way round),
    exactly or as a near miss: the same floor q of re*L, another r."""
    table = draw(s_tables)
    nodes = st.sampled_from(sorted({b for b, _ in table}))
    param = st.tuples(
        st.builds(F, st.integers(-36, 36), st.integers(1, 12)),
        st.sampled_from((F(0), F(1, 2), F(-1, 3), F(5, 4), F(-7, 6))),
    )
    factors = [
        TensorFactor(node, gauss(re, im))
        for node, (re, im) in draw(st.lists(st.tuples(nodes, param), max_size=8))
    ]
    scale = math.lcm(*(v.denominator for vs in table.values() for v in vs))
    for _ in range(draw(st.integers(0, 6)) if factors else 0):
        base = factors[draw(st.integers(0, len(factors) - 1))]
        node, below = draw(nodes), draw(st.booleans())
        values = table.get((base.node, node) if below else (node, base.node), ())
        if not values:
            continue
        re = base.param.re + draw(st.sampled_from(values)) * (1 if below else -1)
        t = re * scale
        den = t.denominator
        q, r = divmod(t.numerator, den)
        others = [x for x in range(1, den) if x != r and math.gcd(x, den) == 1]
        if others and draw(st.booleans()):
            # keep the floor of t, move its remainder
            re = (q + F(draw(st.sampled_from(others)), den)) / scale
        moved = TensorFactor(node, gauss(re, base.param.im))
        factors.insert(draw(st.integers(0, len(factors))), moved)
    s_sets = [SSet(b, c, tuple(sorted(set(vs)))) for (b, c), vs in table.items()]
    return s_sets, factors


@settings(max_examples=300, deadline=None)
@given(_lattice_cases(_RANDOM_S_TABLES))
def test_lattice_classes_match_pairwise_reference(case):
    _assert_matches_reference(*case)


@settings(max_examples=150, deadline=None)
@given(_lattice_cases(st.just(_F4_S_TABLE)))
def test_lattice_classes_match_pairwise_reference_on_f4_atlas_sets(case):
    _assert_matches_reference(*case)


def test_long_structured_list(g2_s_sets):
    # parameters 100k sit far apart from every S value (all below 7)
    factors = [TensorFactor(1 + k % 2, gauss(100 * k)) for k in range(5000)]
    for mode in ("hw", "irr"):
        assert check_cyclicity(factors, g2_s_sets, mode).certified
    # factor 3001 (node 1) now sits 3 in S(1,1) above factor 1001 (node 1)
    factors[3000] = TensorFactor(1, gauss(100 * 1000 + 3))
    for mode in ("hw", "irr"):
        report = check_cyclicity(factors, g2_s_sets, mode)
        assert _violation_tuples(report) == [(1001, 3001, gauss(3), F(3))]


def test_ordered_product_example(g2_s_sets):
    spec = build_ordered_product([gauss(0), gauss(4)], [gauss(2)], g2_s_sets)
    assert [(f.node, f.param) for f in spec.factors] == [
        (1, gauss(4)),
        (2, gauss(2)),
        (1, gauss(0)),
    ]
    assert spec.weight == (2, 1)
    assert spec.report.certified


def test_ordered_product_empty(g2_s_sets):
    spec = build_ordered_product([], [], g2_s_sets)
    assert spec.factors == ()
    assert spec.report.certified


def test_ordered_product_cross_node_tie(g2_s_sets):
    spec = build_ordered_product([gauss(2)], [gauss(2)], g2_s_sets)
    assert [f.node for f in spec.factors] == [1, 2]


def test_ordered_product_input_permutation_invariance(g2_s_sets):
    roots1 = [gauss(0), gauss(4), gauss(4, -1)]
    roots2 = [gauss(2), gauss(F(1, 2))]
    spec = build_ordered_product(roots1, roots2, g2_s_sets)
    rng = random.Random(7)
    for _ in range(10):
        shuffled1 = roots1[:]
        shuffled2 = roots2[:]
        rng.shuffle(shuffled1)
        rng.shuffle(shuffled2)
        again = build_ordered_product(shuffled1, shuffled2, g2_s_sets)
        assert again.factors == spec.factors


def _assert_negated_key_order(roots, m1, s_sets):
    """build_ordered_product on roots[:m1], roots[m1:] orders as the key
    (-re, -im, node), input position breaking ties; every root is its own
    object, so its id tracks its input position.  Returns that order."""
    spec = build_ordered_product(roots[:m1], roots[m1:], s_sets)
    tagged = [TensorFactor(1 + (k >= m1), r) for k, r in enumerate(roots)]
    want = sorted(tagged, key=lambda f: (-f.param.re, -f.param.im, f.node))
    assert [(f.node, id(f.param)) for f in spec.factors] == [
        (f.node, id(f.param)) for f in want
    ]
    return want


def test_ordered_product_order_matches_negated_key(g2_s_sets):
    rng = random.Random(314)
    seen = {"re tie, im differs": 0, "full tie across nodes": 0, "repeated root": 0}
    for _ in range(300):
        total = rng.randint(0, 12)
        m1 = rng.randint(0, total)
        roots = [
            gauss(F(rng.choice((-2, -1, 0, 1, 3)), 2), F(rng.choice((-1, 0, 1)), 3))
            for _ in range(total)
        ]
        want = _assert_negated_key_order(roots, m1, g2_s_sets)
        for a, b in zip(want, want[1:]):
            if a.param.re == b.param.re and a.param.im != b.param.im:
                seen["re tie, im differs"] += 1
            elif a.param == b.param and a.node != b.node:
                seen["full tie across nodes"] += 1
            elif a.param == b.param:
                seen["repeated root"] += 1
    assert all(count > 50 for count in seen.values()), seen


def test_ordered_product_order_where_the_floors_collide(g2_s_sets):
    # the sort key starts with floor(x * 2^64) of re and of im; these roots
    # differ only past their first 64 fractional bits (1/3 and
    # 1/3 + 2^-70), are negative, or have numerators far past float range
    # (10^400 / 7), so equal floors must fall back to the exact parts
    def floor64(x):
        return math.floor(x * 2**64)

    tiny = F(1, 2**70)
    bases = (F(1, 3), F(-1, 3), F(0), F(10**400, 7), -F(10**400, 7))
    rng = random.Random(2718)
    seen = {"re floors tie": 0, "im floors tie": 0, "huge": 0, "negative re and im": 0}
    for _ in range(300):
        near = rng.sample(bases, 2)
        total = rng.randint(0, 12)
        m1 = rng.randint(0, total)
        roots = [
            gauss(
                rng.choice(near) + rng.choice((0, tiny, -tiny, 3 * tiny)),
                rng.choice(near) + rng.choice((0, tiny, -tiny)),
            )
            for _ in range(total)
        ]
        want = _assert_negated_key_order(roots, m1, g2_s_sets)
        for a, b in zip(want, want[1:]):
            (ra, ia), (rb, ib) = (a.param.re, a.param.im), (b.param.re, b.param.im)
            if ra != rb and floor64(ra) == floor64(rb):
                seen["re floors tie"] += 1
            elif ra == rb and ia != ib and floor64(ia) == floor64(ib):
                seen["im floors tie"] += 1
        seen["huge"] += any(abs(r.re.numerator) >= 10**400 for r in roots)
        seen["negative re and im"] += any(r.re < 0 and r.im < 0 for r in roots)
    assert all(count > 50 for count in seen.values()), seen


def test_random_multisets_always_certify(g2_s_sets):
    rng = random.Random(20240817)
    for _ in range(100):
        total = rng.randint(0, 6)
        m1 = rng.randint(0, total)
        def draw():
            return gauss(
                F(rng.randint(-12, 12), rng.randint(1, 4)),
                F(rng.randint(-4, 4), rng.randint(1, 2)),
            )
        roots1 = [draw() for _ in range(m1)]
        roots2 = [draw() for _ in range(total - m1)]
        spec = build_ordered_product(roots1, roots2, g2_s_sets)
        assert spec.report.certified, (roots1, roots2, spec.factors)


def test_dimension_bound(g2):
    report = dimension_bound((0, 0), (14, 7), g2)
    assert report.bound == 1
    report = dimension_bound((2, 0), (15, 7), g2)
    assert report.bound == 225
    assert report.reference_fund_dims == (14, 7)
    with pytest.raises(ValueError):
        dimension_bound((-1, 0), (14, 7), g2)
    with pytest.raises(ValueError):
        dimension_bound((1, 0), (0, 7), g2)


def test_dimension_bound_reads_the_positive_roots_once(finite_type, monkeypatch):
    f4 = finite_type("f4")
    calls = []
    real = rootsystem.positive_roots

    def counted(cartan):
        calls.append(cartan)
        return real(cartan)

    # every module that may look the name up, whether or not it imports it
    for mod in (rootsystem, cyclicity):
        monkeypatch.setattr(mod, "positive_roots", counted, raising=False)
    report = dimension_bound((1, 0, 0, 1), (52, 1274, 273, 26), f4)
    assert report.reference_fund_dims == (52, 1274, 273, 26)
    assert len(calls) == 1


def test_dimension_bound_past_the_digit_limit_is_never_built(g2):
    limit = sys.get_int_max_str_digits()
    # 16^m = 2^(4m), and 2^(4m) < 10^limit exactly when 4m < bit_length(10^limit)
    m = ((10**limit).bit_length() - 1) // 4
    assert len(str(dimension_bound((m, 0), (16, 1), g2).bound)) <= limit
    with pytest.raises(ValueError, match="too large to print"):
        dimension_bound((m + 1, 0), (16, 1), g2)


def test_dimension_bound_at_the_exact_digit_limit(g2, largest_printable_power):
    # 15^m has 3m + 1 bits at least, so the bit-length pre-check passes
    # both m and m + 1; the exact comparison with 10^limit decides
    limit = sys.get_int_max_str_digits() or 4300
    m = largest_printable_power(15, limit)
    if limit == 4300:
        assert m == 3656
    assert len(str(dimension_bound((m, 0), (15, 7), g2).bound)) <= limit
    with pytest.raises(InputError, match="too large to print"):
        dimension_bound((m + 1, 0), (15, 7), g2)


def test_q_exponent_image_diagonal(g2, g2_s_sets):
    images = {(s.b, s.c): q_exponent_image(s) for s in g2_s_sets}
    assert images[(1, 1)] == (F(6), F(8), F(10), F(12))
    assert images[(2, 2)] == (F(2), F(6), F(8), F(12))
