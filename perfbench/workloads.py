"""Workload inputs and operations.

Every input is drawn from ``random.Random`` seeded with the workload seed
and the pass index, so a seed fixes a run's inputs and no two passes of a
run repeat one.  The sizes that set each workload's cost (series order,
Weyl-group rank, factor counts, subcommand mix) are fixed; the seed only
moves parameter values and order.  ywalk is imported inside setup(),
after the set-up clock has started, and reached through its modules at
call time so that traced runs see the wrapped functions.  The goldens are
check data, not inputs, so ops() loads them, after set-up.
"""

from __future__ import annotations

import io
import random
import traceback
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import oracle

WORKLOADS = ("g2-deep", "f4-tables", "cyclicity-long", "cli-oneshot")

G2_WORDS = ((1, 2, 1, 2, 1, 2), (2, 1, 2, 1, 2, 1))
G2_DEEP_ORDER = 20

F4_CARTAN = ([[2, -1, 0, 0], [-1, 2, -1, 0], [0, -2, 2, -1], [0, 0, -1, 2]], [2, 2, 1, 1])
F4_WORD = (1, 2, 1, 3, 2, 1, 3, 2, 3, 4, 3, 2, 1, 3, 2, 3, 4, 3, 2, 1, 3, 2, 3, 4)  # lex-least
F4_ORDER = 8

# Factor counts of the check_cyclicity lists, each drawn once sparse and
# once dense; the mode alternates hw, irr along the sizes.
CYCLICITY_SIZES = (200, 260, 320, 380, 440, 500)
ORDERED_PRODUCT_SIZES = (200, 300, 400, 500)

# Inputs ywalk must reject with exit 2 but, at the seed commit, crash on
# with ZeroDivisionError (exit 1 and a traceback).  Run only in traced
# runs and reported as cli.contract_breaks; see perfbench/README.md.
CONTRACT_PROBES = (
    ["cyclicity", "--factors", "1:1/0", "--format", "json"],
    ["weyl-module", "--pi1", "1/0", "--format", "json"],
)


def rng_for(workload: str, seed: int, pass_index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{pass_index}")


def rows_key(rows):
    return [[r.step, r.node, r.exponent, str(r.poly)] for r in rows]


# --------------------------------------------------------------- set-up


def setup(workload: str) -> dict:
    """Import ywalk and build the workload's fixed inputs: what setup_s times."""
    import ywalk

    ctx = {"y": ywalk}
    if workload == "g2-deep":
        ctx["cartan"] = ywalk.builtin_cartan("g2")
    elif workload == "f4-tables":
        ctx["cartan"] = ywalk.validate_cartan(*F4_CARTAN)
    elif workload == "cyclicity-long":
        g2 = ywalk.builtin_cartan("g2")
        reports = [ywalk.run_walk(g2, G2_WORDS[0], b, 8) for b in (1, 2)]
        s_sets = ywalk.compute_s_sets(ywalk.compute_t_sets(reports), g2)
        ctx["s_sets"] = s_sets
    elif workload == "cli-oneshot":
        import ywalk.cli  # noqa: F401  (what `python -m ywalk` imports)
    return ctx


# ------------------------------------------------------------ operations
#
# ops() returns [(label, thunk, check)]: thunk() is the timed call and
# check(result) returns None or the reason the result is wrong.


def ops(workload: str, ctx: dict, rng: random.Random) -> list:
    return {
        "g2-deep": _g2_deep,
        "f4-tables": _f4_tables,
        "cyclicity-long": _cyclicity_long,
        "cli-oneshot": _cli_in_process,
    }[workload](ctx, rng)


def _g2_deep(ctx, rng):
    y, g2 = ctx["y"], ctx["cartan"]
    rows8 = oracle.load_golden("g2_rows_order8.json")
    pairs = [(w, b) for w in G2_WORDS for b in (1, 2)]
    rng.shuffle(pairs)

    def check(report, word, b):
        rows = report.rows()
        if not all(r.crosscheck_ok for r in rows):
            return "crosscheck flag not set"
        if rows_key(rows) != rows8[f"{','.join(map(str, word))}/{b}"]:
            return "rows differ from the order-8 rows"
        try:
            found = oracle.g2_s_from_rows(rows, b)
        except AssertionError as exc:
            return str(exc)
        return None if all(found[k] == oracle.G2_S[k] for k in found) else "S sets differ from PAPER.md"

    return [
        ("run_walk", lambda w=w, b=b: y.run_walk(g2, w, b, G2_DEEP_ORDER),
         lambda rep, w=w, b=b: check(rep, w, b))
        for w, b in pairs
    ]


def _f4_tables(ctx, rng):
    y, f4 = ctx["y"], ctx["cartan"]
    golden = oracle.load_golden("f4_tables.json")
    words = [F4_WORD, tuple(reversed(F4_WORD))]
    rng.shuffle(words)
    tables = []

    def walk(word, b, reports):
        exps = y.path_exponents(f4, word, b)
        reports[b] = y.run_walk(f4, word, b, F4_ORDER)
        return exps, reports[b]

    def check_walk(result, word, b):
        exps, report = result
        want = golden["walks"][f"{','.join(map(str, word))}/{b}"]
        if list(exps.exponents) != want["exponents"]:
            return "path exponents differ from the golden"
        return None if rows_key(report.rows()) == want["rows"] else "rows differ from the golden"

    def build(reports):
        t_sets = y.compute_t_sets([reports[b] for b in sorted(reports)])
        return t_sets, y.compute_s_sets(t_sets, f4)

    def check_tables(result):
        t_sets, s_sets = result
        got = {
            "t": [[t.b, t.c, [[str(s), str(i)] for s, i in t.roots]] for t in t_sets],
            "s": [[s.b, s.c, [str(v) for v in s.values]] for s in s_sets],
        }
        tables.append(got)
        if got != golden["tables"]:
            return "T/S sets differ from the golden"
        return None if got == tables[0] else "the two words disagree"

    out = []
    for word in words:
        reports = {}
        fundamentals = [1, 2, 3, 4]
        rng.shuffle(fundamentals)
        for b in fundamentals:
            out.append(("walk", lambda w=word, b=b, r=reports: walk(w, b, r),
                        lambda res, w=word, b=b: check_walk(res, w, b)))
        out.append(("tables", lambda r=reports: build(r), check_tables))
    return out


def _factor_tuples(rng, n: int, dense: bool):
    """(node, re, im): dense lists sit on a half-integer lattice narrow
    enough that many differences land in S; sparse lists are generic
    Gaussian rationals, which almost never do."""
    out = []
    for _ in range(n):
        node = rng.randint(1, 2)
        if dense:
            out.append((node, Fraction(rng.randint(0, 40), 2), Fraction(0)))
        else:
            out.append((node, Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 97)),
                        Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 97))))
    return out


def _cyclicity_long(ctx, rng):
    y, s_sets = ctx["y"], ctx["s_sets"]
    s_ok = {(s.b, s.c): frozenset(s.values) for s in s_sets} == oracle.G2_S

    def gaussian(re_, im):
        return y.GaussianRational(re_, im)

    def check_report(report, tuples, mode):
        if not s_ok:
            return "set-up S sets differ from PAPER.md"
        want = oracle.violations(tuples, mode)
        got = {(v.i, v.j, v.s_value) for v in report.violations}
        if any(v.difference != gaussian(v.s_value, Fraction(0)) for v in report.violations):
            return "a violation whose difference is not its S value"
        if got != want or len(got) != len(report.violations):
            return f"{len(report.violations)} violations, oracle has {len(want)}"
        if report.mode != oracle.MODE_PAIRS[mode] or report.certified != (not want):
            return "verdict differs from the oracle"
        return None

    out = []
    for k, n in enumerate(CYCLICITY_SIZES):
        mode = ("hw", "irr")[k % 2]
        for dense in (False, True):
            tuples = _factor_tuples(rng, n, dense)
            factors = [y.TensorFactor(node, gaussian(r, i)) for node, r, i in tuples]
            out.append((
                f"check_cyclicity.{mode}",
                lambda f=factors, m=mode: y.check_cyclicity(f, s_sets, m),
                lambda rep, t=tuples, m=mode: check_report(rep, t, m),
            ))
    for k, n in enumerate(ORDERED_PRODUCT_SIZES):
        tuples = _factor_tuples(rng, n, dense=k % 2 == 1)
        split = rng.randint(n // 4, 3 * n // 4)
        roots = [(r, i) for _, r, i in tuples]
        r1 = [gaussian(r, i) for r, i in roots[:split]]
        r2 = [gaussian(r, i) for r, i in roots[split:]]

        def check_product(spec, roots=roots, split=split):
            want = oracle.ordered_product(roots[:split], roots[split:])
            got = [(f.node, f.param.re, f.param.im) for f in spec.factors]
            if got != want:
                return "factor order differs from the oracle"
            certified = not oracle.violations(want, "hw")
            return None if spec.report.certified == certified else "verdict differs from the oracle"

        out.append((
            "build_ordered_product",
            lambda a=r1, b=r2: y.build_ordered_product(a, b, s_sets),
            check_product,
        ))
    return out


# ------------------------------------------------------------------ CLI


def _half(rng, lo: int, hi: int) -> str:
    return str(Fraction(rng.randint(2 * lo, 2 * hi), 2))


def _param(rng) -> str:
    """Mostly half-integers in a range where S differences occur; now and
    then a Gaussian rational, whose differences are rarely real."""
    if rng.random() < 0.8:
        return _half(rng, -6, 12)
    re_ = Fraction(rng.randint(-20, 20), rng.randint(1, 6))
    im = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 4))
    return oracle.format_param(re_, im)


FIXED_ARGV = (
    ["tables"],
    ["tables", "--word", "2,1,2,1,2,1"],
    ["walk", "--weight", "1"],
    ["walk", "--weight", "2"],
    ["path"],
    ["path", "--weight", "2"],
    ["verify", "--suite", "tables"],
    ["verify", "--suite", "all"],
)


def cli_queries(rng: random.Random) -> list[dict]:
    """One pass of the CLI mix: 10 cyclicity, 6 weyl-module, 2 malformed,
    2 dim and the 8 fixed-argv queries, shuffled."""
    out = []
    for k in range(10):
        factors = [[rng.randint(1, 2), _param(rng)] for _ in range(rng.randint(3, 8))]
        mode = ("hw", "irr")[k % 2]
        spec = ",".join(f"{n}:{p}" for n, p in factors)
        out.append({"kind": "cyclicity", "factors": factors, "mode": mode,
                    "argv": ["cyclicity", "--factors", spec, "--mode", mode]})
    for k in range(6):
        pi1 = [_half(rng, -4, 8) for _ in range(rng.randint(1, 3))]
        pi2 = [_half(rng, -4, 8) for _ in range(rng.randint(1, 3))]
        q = {"kind": "weyl-module", "pi1": pi1, "pi2": pi2,
             "argv": ["weyl-module", f"--pi1={','.join(pi1)}", f"--pi2={','.join(pi2)}"]}
        if k % 2:
            q["fund_dims"] = [14, 7]
            q["argv"] += ["--fund-dims", "14,7"]
        out.append(q)
    bad = rng.randint(1, 9)
    out.append({"kind": "malformed", "argv": ["cyclicity", "--factors", f"1:{bad}/,2:1"]})
    out.append({"kind": "malformed", "argv": ["weyl-module", "--pi1", f"{bad}x", "--pi2", "1"]})
    for _ in range(2):
        w = [rng.randint(0, 4), rng.randint(0, 4)]
        dims = [rng.choice([14, 15]), 7]
        out.append({"kind": "dim", "weights": w, "fund_dims": dims,
                    "argv": ["dim", "--weights", f"{w[0]},{w[1]}", "--fund-dims", f"{dims[0]},{dims[1]}"]})
    for argv in FIXED_ARGV:
        out.append({"kind": "fixed", "argv": list(argv)})
    for q in out:
        q["argv"] = q["argv"] + ["--format", "json"]
    rng.shuffle(out)
    return out


def call_main(main, argv) -> tuple[int, str, str]:
    """ywalk.cli.main in process, as `python -m ywalk` would run it: an
    escaping exception prints a traceback and exits 1."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except Exception:
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()


def _cli_in_process(ctx, rng):
    cli = ctx["y"].cli
    fixed = oracle.load_golden("cli_stdout.json")
    return [
        (q["argv"][0],
         lambda q=q: call_main(cli.main, q["argv"]),
         lambda res, q=q: oracle.check_cli(q, *res, fixed))
        for q in cli_queries(rng)
    ]
