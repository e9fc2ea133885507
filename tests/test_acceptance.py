"""Acceptance criteria, one test per criterion.

All arithmetic is exact, so every comparison below is an equality at zero
tolerance.  Each test prints one PASS line on success (run with ``-s`` to
see them; a failure surfaces through pytest as usual).
"""

from __future__ import annotations

import contextlib
import io
import random
from fractions import Fraction as F

from ywalk.cli import main
from ywalk.cyclicity import (
    build_ordered_product,
    compute_s_sets,
    compute_t_sets,
    q_exponent_image,
)
from ywalk.exact import A, GaussianRational, UniPoly
from ywalk.rootsystem import path_exponents, weyl_dim, weyl_longest, weyl_order
from ywalk.sl2 import (
    check_relations,
    coefficient,
    extremal_series_check,
    series_exp,
    symmetrized_insertion_check,
)
from ywalk.verify import EXPECTED_Q_DIAGONAL, EXPECTED_S, G2_WORD, SAMPLE_A
from ywalk.walk import apply_step, init_walk, run_walk


def _report(number: int, description: str):
    print(f"ACCEPTANCE {number}: PASS — {description}")


def _quiet_main(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return main(argv)


def test_criterion_1_first_fundamental_table(g2):
    report = run_walk(g2, G2_WORD, 1, 8)
    expected = [
        UniPoly.from_roots([A / 3]),
        UniPoly.from_roots([A - F(1, 2), A + F(1, 2), A + F(3, 2)]),
        UniPoly.from_roots([(A + 1) / 3, (A + 2) / 3]),
        UniPoly.from_roots([A + F(3, 2), A + F(5, 2), A + F(7, 2)]),
        UniPoly.from_roots([(A + 3) / 3]),
    ]
    assert [rec.poly for rec in report.rows()] == expected
    assert _quiet_main(["walk", "--weight", "1"]) == 0
    _report(1, "walk weight 1 reproduces all 5 rows exactly")


def test_criterion_2_second_fundamental_table(g2):
    report = run_walk(g2, G2_WORD, 2, 8)
    expected = [
        UniPoly.from_roots([A]),
        UniPoly.from_roots([A / 3 + F(1, 2)]),
        UniPoly.from_roots([A + 2, A + 3]),
        UniPoly.from_roots([A / 3 + F(7, 6)]),
        UniPoly.from_roots([A + 5]),
    ]
    assert [rec.poly for rec in report.rows()] == expected
    assert _quiet_main(["walk", "--weight", "2"]) == 0
    _report(2, "walk weight 2 reproduces all 5 rows exactly")


def test_criterion_3_t_and_s_sets(g2, g2_reports):
    t_sets = {(t.b, t.c): t.roots for t in compute_t_sets(g2_reports)}
    assert t_sets == {
        (1, 1): tuple((F(1, 3), F(n, 3)) for n in (0, 1, 2, 3)),
        (1, 2): tuple((F(1), F(n, 2)) for n in (-1, 1, 3, 5, 7)),
        (2, 1): ((F(1, 3), F(1, 2)), (F(1, 3), F(7, 6))),
        (2, 2): tuple((F(1), F(n)) for n in (0, 2, 3, 5)),
    }
    s_sets = compute_s_sets(compute_t_sets(g2_reports), g2)
    assert {(s.b, s.c): s.values for s in s_sets} == EXPECTED_S
    _report(3, "tables reproduce the four T sets and four S sets exactly")


def test_criterion_4_lowest_vector_crosschecks(g2):
    for weight in (1, 2):
        report = run_walk(g2, G2_WORD, weight, 8)
        rows = report.rows()
        assert len(rows) == 5
        assert all(rec.crosscheck_ok for rec in rows)
    _report(4, "lowest-vector crosscheck passes after every nonzero step, N=8")


def test_criterion_5_intermediate_anchors(g2):
    state = init_walk(g2, 1, 8)
    for node, m in ((2, 0), (1, 1), (2, 3)):
        apply_step(state, node, m)
    assert coefficient(state, 1, 1) == 6 * A
    assert coefficient(state, 1, 2) == 6 * A * A + 6
    apply_step(state, 1, 2)
    h2 = [0] + [coefficient(state, 2, k) for k in range(8)]
    assert series_exp(h2)[2] == 3 * (A + F(7, 2))
    _report(5, "anchors 6a, 6a^2+6 and 3(a+7/2) hit exactly")


def test_criterion_6_defining_relations():
    for m in (1, 2, 3, 4):
        for a in SAMPLE_A:
            report = check_relations(m, a, max_level=3)
            assert report.ok, report.failures[:3]
    _report(6, "all five relation families hold on the sample grid")


def test_criterion_7_symmetrized_insertions():
    for m in (1, 2, 3, 4):
        for a in SAMPLE_A:
            for k in range(5):
                assert symmetrized_insertion_check(m, a, k).ok
            assert extremal_series_check(m, a, order=8).ok
    _report(7, "symmetrized insertions equal the power-sum formula")


def test_criterion_8_root_system_facts(g2):
    assert weyl_order(g2) == 12
    assert len(weyl_longest(g2)) == 6
    assert path_exponents(g2, G2_WORD, 1).exponents == (1, 3, 2, 3, 1, 0)
    assert path_exponents(g2, G2_WORD, 2).exponents == (0, 1, 1, 2, 1, 1)
    assert weyl_dim(g2, (0, 1)) == 7
    assert weyl_dim(g2, (1, 0)) == 14
    _report(8, "Weyl group order, word length, exponents and dimensions match")


def test_criterion_9_ordering_and_exit_codes(g2_s_sets):
    rng = random.Random(20240817)
    for _ in range(100):
        total = rng.randint(0, 6)
        m1 = rng.randint(0, total)

        def draw():
            return GaussianRational(
                F(rng.randint(-12, 12), rng.randint(1, 4)),
                F(rng.randint(-4, 4), rng.randint(1, 2)),
            )

        roots1 = [draw() for _ in range(m1)]
        roots2 = [draw() for _ in range(total - m1)]
        spec = build_ordered_product(roots1, roots2, g2_s_sets)
        assert spec.report.certified
    assert _quiet_main(["cyclicity", "--factors", "1:0,1:7/2", "--mode", "hw"]) == 0
    assert _quiet_main(["cyclicity", "--factors", "1:0,1:3", "--mode", "hw"]) == 1
    assert _quiet_main(["cyclicity", "--factors", "1:3,1:0", "--mode", "hw"]) == 0
    assert _quiet_main(["cyclicity", "--factors", "1:3,1:0", "--mode", "irr"]) == 1
    _report(9, "100 random orderings certify; exit codes 0/1 as specified")


def test_criterion_10_q_correspondence(g2_s_sets):
    images = {(s.b, s.c): q_exponent_image(s) for s in g2_s_sets}
    assert {key: images[key] for key in EXPECTED_Q_DIAGONAL} == EXPECTED_Q_DIAGONAL
    _report(10, "s -> q^{2s} maps diagonal S sets onto the quantum-loop sets")
