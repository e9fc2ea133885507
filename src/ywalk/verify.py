"""Self-check suites surfaced through the ``verify`` CLI subcommand.

Three suites: ``sl2`` exercises the explicit rank-1 modules (defining
relations, symmetrized insertions, extremal series); ``walk`` replays the
rank-2 flagship walks with their per-step crosschecks and pins the
intermediate eigenvalues they must pass through; ``tables`` freezes the
expected root and difference sets.  ``all`` runs everything.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cyclicity import compute_s_sets, compute_t_sets, format_root, q_exponent_image
from .exact import ParamPoly
from .rootsystem import (
    InputError,
    builtin_cartan,
    path_exponents,
    weyl_dim,
    weyl_longest,
    weyl_order,
)
from .sl2 import (
    _operator,
    check_relations,
    coefficient,
    extremal_series_check,
    series_exp,
    series_log,
    series_rescale,
    symmetrized_insertion_check,
)
from .walk import CrosscheckError, apply_step, init_walk, run_walk

__all__ = [
    "CheckResult",
    "SUITES",
    "run_suite",
    "SAMPLE_A",
    "G2_WORD",
    "EXPECTED_T",
    "EXPECTED_S",
    "EXPECTED_Q_DIAGONAL",
]

# The pinned G2 data: sample evaluation points, the flagship reduced word and
# its tables.  Tests and the CLI read them from here.
SAMPLE_A = (Fraction(0), Fraction(1), Fraction(-2), Fraction(5, 3))

G2_WORD = (1, 2, 1, 2, 1, 2)

EXPECTED_T = {
    (1, 1): ("1/3*a", "1/3*a + 1/3", "1/3*a + 2/3", "1/3*a + 1"),
    (1, 2): ("a - 1/2", "a + 1/2", "a + 3/2", "a + 5/2", "a + 7/2"),
    (2, 1): ("1/3*a + 1/2", "1/3*a + 7/6"),
    (2, 2): ("a", "a + 2", "a + 3", "a + 5"),
}
EXPECTED_S = {
    (1, 1): (Fraction(3), Fraction(4), Fraction(5), Fraction(6)),
    (1, 2): (
        Fraction(1, 2),
        Fraction(3, 2),
        Fraction(5, 2),
        Fraction(7, 2),
        Fraction(9, 2),
    ),
    (2, 1): (Fraction(9, 2), Fraction(13, 2)),
    (2, 2): (Fraction(1), Fraction(3), Fraction(4), Fraction(6)),
}
EXPECTED_Q_DIAGONAL = {
    (1, 1): (Fraction(6), Fraction(8), Fraction(10), Fraction(12)),
    (2, 2): (Fraction(2), Fraction(6), Fraction(8), Fraction(12)),
}


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


def _require(ok: bool, message: str):
    """Fail the running check; unlike assert, this holds under python -O."""
    if not ok:
        raise AssertionError(message)


def _check(name: str, fn) -> CheckResult:
    """Run one check.  Any exception is its FAIL and the other checks still
    run: verify's inputs are constants, so every exception is an internal
    fault.  A failed requirement, a walk fault or an InputError reads as its
    message, any other exception as its repr, which names its type."""
    try:
        fn()
    except (AssertionError, CrosscheckError, InputError) as exc:
        return CheckResult(name, False, str(exc))
    except Exception as exc:
        return CheckResult(name, False, repr(exc))
    return CheckResult(name, True)


def _reported(fn, *args, shown=None, **kwargs):
    """A check that fails with the first ``shown`` failures of fn's report."""

    def check():
        report = fn(*args, **kwargs)
        _require(report.ok, "; ".join(report.failures[:shown]))

    return check


def _suite_sl2() -> list[CheckResult]:
    grid = [(m, a) for m in range(1, 5) for a in SAMPLE_A]
    cases = [
        (f"relations m={m} a={a}",
         _reported(check_relations, m, a, max_level=3, shown=3))
        for m, a in grid
    ]
    cases += [
        (f"symmetrized insertion m={m} a={a} k={k}",
         _reported(symmetrized_insertion_check, m, a, k))
        for m, a in grid
        for k in range(5)
    ]
    cases += [
        (f"extremal series m={m} a={a}",
         _reported(extremal_series_check, m, a, order=8))
        for m, a in grid
    ]
    return [_check(name, check) for name, check in cases]


def _lifted_series(state, node: int) -> list[ParamPoly]:
    """Coefficients of H_node(u) of a walk state, as polynomials in a."""
    return [ParamPoly()] + [coefficient(state, node, k) for k in range(state.order)]


def _rank1_against_matrices():
    """The A1 walk at every sample a against the explicit evaluation module."""
    a1 = builtin_cartan("a1")

    def module_log_series(a_val, s):
        # V_1(a) at fixed sample points needs none of operator()'s checks
        h = (_operator(1, a_val, "h", k).weights[s] for k in range(8))
        return series_log([Fraction(1), *h])

    def walk_series_at(state, a_val):
        return [c.evaluate(a_val) for c in _lifted_series(state, 1)]

    for a_val in SAMPLE_A:
        state = init_walk(a1, 1, 8)
        _require(
            walk_series_at(state, a_val) == module_log_series(a_val, 1),
            "top-vector series disagrees with the matrix module",
        )
        apply_step(state, 1, 1)
        _require(
            walk_series_at(state, a_val) == module_log_series(a_val, 0),
            "bottom-vector series disagrees with the matrix module",
        )


def _suite_walk() -> list[CheckResult]:
    g2 = builtin_cartan("g2")

    def crosschecked(weight):
        report = run_walk(g2, G2_WORD, weight, 8)
        _require(all(r.crosscheck_ok for r in report.rows()), "crosscheck failed")
        _require(len(report.rows()) == 5, "expected 5 table rows")

    def anchors():
        state = init_walk(g2, 1, 8)
        for node, m in ((2, 0), (1, 1), (2, 3)):
            apply_step(state, node, m)
        _require(coefficient(state, 1, 1) == ParamPoly((0, 6)), "H_{1,1} != 6a")
        _require(coefficient(state, 1, 2) == ParamPoly((6, 0, 6)), "H_{1,2} != 6a^2+6")
        rescaled = series_exp(series_rescale(_lifted_series(state, 1), 3))
        _require(
            rescaled[2] == ParamPoly((2, Fraction(2, 3))),
            "rescaled h_1 coefficient != 2a/3 + 2",
        )
        apply_step(state, 1, 2)
        h2 = series_exp(_lifted_series(state, 2))
        _require(h2[2] == ParamPoly((Fraction(21, 2), 3)), "h_{2,1} != 3a + 21/2")

    return [
        _check("walk weight 1 crosschecks", lambda: crosschecked(1)),
        _check("walk weight 2 crosschecks", lambda: crosschecked(2)),
        _check("intermediate eigenvalue anchors", anchors),
        _check("rank-1 walk matches matrix modules", _rank1_against_matrices),
    ]


def _suite_tables() -> list[CheckResult]:
    g2 = builtin_cartan("g2")

    def tables():
        reports = [run_walk(g2, G2_WORD, i, 8) for i in (1, 2)]
        t_sets = compute_t_sets(reports)
        s_sets = compute_s_sets(t_sets, g2)
        for t in t_sets:
            shown = tuple(format_root(*r) for r in t.roots)
            _require(shown == EXPECTED_T[(t.b, t.c)], f"T({t.b},{t.c}) = {shown}")
        for s in s_sets:
            _require(s.values == EXPECTED_S[(s.b, s.c)], f"S({s.b},{s.c}) = {s.values}")
            _require(all(v > 0 for v in s.values), "S values must be positive")
        for s in s_sets:
            if s.b == s.c:
                _require(
                    q_exponent_image(s) == EXPECTED_Q_DIAGONAL[(s.b, s.c)],
                    f"q image of S({s.b},{s.b}) unexpected",
                )

    def root_data():
        _require(
            weyl_order(g2) == 12 and weyl_longest(g2) == G2_WORD,
            "longest-element data changed",
        )
        for b, exps in ((1, (1, 3, 2, 3, 1, 0)), (2, (0, 1, 1, 2, 1, 1))):
            found = path_exponents(g2, G2_WORD, b).exponents
            _require(found == exps, f"weight {b} path exponents {found}")
        _require(
            weyl_dim(g2, (1, 0)) == 14 and weyl_dim(g2, (0, 1)) == 7,
            "fundamental Weyl dimensions changed",
        )

    return [
        _check("flagship T/S tables and q-images", tables),
        _check("root-system fixtures", root_data),
    ]


SUITES = {
    "sl2": _suite_sl2,
    "walk": _suite_walk,
    "tables": _suite_tables,
}


def run_suite(name: str) -> list[CheckResult]:
    if name == "all":
        return [check for suite in SUITES.values() for check in suite()]
    if name not in SUITES:
        raise InputError(f"unknown suite {name!r}")
    return SUITES[name]()
