"""Reference answers the benchmark checks ywalk's outputs against.

Nothing here imports ywalk: the pinned G2 tables come from the paper, the
pair check is the benchmark's own, and ywalk objects are only read (their
coefficient tuples), never asked to compute.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from pathlib import Path

GOLDENS = Path(__file__).resolve().parent / "goldens"

G2_D = {1: 3, 2: 1}

# S(b, c) for G2 as printed in PAPER.md.
G2_S = {
    (1, 1): frozenset(Fraction(v) for v in (3, 4, 5, 6)),
    (1, 2): frozenset(Fraction(v, 2) for v in (1, 3, 5, 7, 9)),
    (2, 1): frozenset(Fraction(v, 2) for v in (9, 13)),
    (2, 2): frozenset(Fraction(v) for v in (1, 3, 4, 6)),
}

MODE_PAIRS = {"hw": "highest-weight", "irr": "irreducible"}


def load_golden(name: str):
    return json.loads((GOLDENS / name).read_text())


# ---------------------------------------------------------------- pair check


def violations(factors, mode: str, s_sets=G2_S) -> set[tuple[int, int, Fraction]]:
    """(i, j, s) for every ordered pair the mode checks, 1-based, whose
    difference a_j - a_i is real and lies in S(b_i, b_j).

    ``factors`` is a sequence of (node, re, im) with Fraction parts.  The
    earlier factors are indexed by (node, re, im), so the cost is
    n * |S| lookups rather than n^2 differences.
    """
    at: dict[tuple[int, Fraction, Fraction], list[int]] = {}
    for pos, (node, re_, im) in enumerate(factors, start=1):
        at.setdefault((node, re_, im), []).append(pos)
    nodes = sorted({node for node, _, _ in factors})
    out = set()
    for j, (node_j, re_j, im_j) in enumerate(factors, start=1):
        for node_i in nodes:
            for s in s_sets[(node_i, node_j)]:
                for i in at.get((node_i, re_j - s, im_j), ()):
                    if i != j and (mode == "irr" or i < j):
                        out.add((i, j, s))
    return out


def ordered_product(roots1, roots2):
    """Factors (node, re, im) in the order build_ordered_product promises:
    non-increasing real part, then imaginary part descending, then node,
    then input position."""
    factors = [(1, re_, im) for re_, im in roots1] + [(2, re_, im) for re_, im in roots2]
    return sorted(factors, key=lambda f: (-f[1], -f[2], f[0]))


# ------------------------------------------------------- G2 S sets from rows


def _poly_mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _specialize(row_poly, a: Fraction) -> list[Fraction]:
    """Ascending coefficients of a ywalk UniPoly at the parameter value a."""
    coeffs = []
    for c in row_poly.coeffs:
        acc = Fraction(0)
        for k in reversed(c.coeffs):
            acc = acc * a + k
        coeffs.append(acc)
    return coeffs


def _shift(p: list[Fraction], t: Fraction) -> list[Fraction]:
    """Coefficients of p(x - t)."""
    out = [p[-1]]
    for c in reversed(p[:-1]):
        out = _poly_mul(out, [-t, Fraction(1)])
        out[0] += c
    return out


def _deflate(p: list[Fraction], r: Fraction) -> list[Fraction] | None:
    """p / (x - r) when r is a root, else None."""
    quot = [Fraction(0)] * (len(p) - 1)
    acc = Fraction(0)
    for k in range(len(p) - 1, 0, -1):
        acc = acc * r + p[k]
        quot[k - 1] = acc
    return quot if acc * r + p[0] == 0 else None


def g2_s_from_rows(rows, fundamental: int) -> dict[tuple[int, int], frozenset]:
    """S(fundamental, c) rebuilt from a walk's table rows.

    Each row polynomial is in the rescaled variable u/d_c, and its roots
    must be a/d_c + beta with beta drawn from the pinned T set, the beta
    that S(b, c) = d_c (1 + beta) implies.  The row is split over those
    candidates at a = 0, and at every a = 0..deg it must equal the a = 0
    polynomial shifted by a/d_c, which pins the slope of every root.
    """
    found: dict[tuple[int, int], set] = {(fundamental, c): set() for c in G2_D}
    for rec in rows:
        d = G2_D[rec.node]
        key = (fundamental, rec.node)
        base = _specialize(rec.poly, Fraction(0))
        for a in range(1, len(base)):
            if _specialize(rec.poly, Fraction(a)) != _shift(base, Fraction(a, d)):
                raise AssertionError(f"row at step {rec.step}: roots not a/{d} + const")
        rest = base
        for s in sorted(G2_S[key]):
            beta = s / d - 1
            while len(rest) > 1 and (q := _deflate(rest, beta)) is not None:
                rest = q
                found[key].add(s)
        if len(rest) != 1:
            raise AssertionError(f"row at step {rec.step}: a root outside T{key}")
    return {k: frozenset(v) for k, v in found.items()}


# ------------------------------------------------------------- CLI answers

_GAUSSIAN = re.compile(r"^(-?\d+(?:/\d+)?)(?:([+-]\d+(?:/\d+)?)i)?$")


def parse_param(text: str) -> tuple[Fraction, Fraction]:
    m = _GAUSSIAN.match(text)
    if not m:
        raise ValueError(f"not a Gaussian rational: {text!r}")
    return Fraction(m.group(1)), Fraction(m.group(2) or 0)


def format_param(re_: Fraction, im: Fraction) -> str:
    if im == 0:
        return str(re_)
    return f"{re_}{'+' if im >= 0 else '-'}{abs(im)}i"


def expected_cli(query) -> tuple[int, object]:
    """Exit code and the results the CLI must print for a generated query.

    ``query`` is a dict made by workloads.cli_queries; fixed-argv queries
    are compared byte for byte elsewhere.
    """
    kind = query["kind"]
    if kind == "malformed":
        return 2, None
    if kind == "cyclicity":
        factors = [(n, *parse_param(p)) for n, p in query["factors"]]
        found = violations(factors, query["mode"])
        results = {
            "mode": MODE_PAIRS[query["mode"]],
            "verdict": "not certified" if found else "certified",
            "violations": sorted((i, j, s) for i, j, s in found),
        }
        return (1 if found else 0), results
    if kind == "weyl-module":
        roots1 = [parse_param(p) for p in query["pi1"]]
        roots2 = [parse_param(p) for p in query["pi2"]]
        ordered = ordered_product(roots1, roots2)
        certified = not violations(ordered, "hw")
        dims = query.get("fund_dims")
        results = {
            "weight": [len(roots1), len(roots2)],
            "factors": [{"node": n, "param": format_param(r, i)} for n, r, i in ordered],
            "verdict": "certified" if certified else "not certified",
            "dimension_bound": dims[0] ** len(roots1) * dims[1] ** len(roots2) if dims else None,
            "fund_dims": dims,
            "reference_fund_dims": [14, 7] if dims else None,
        }
        return (0 if certified else 1), results
    if kind == "dim":
        w, dims = query["weights"], query["fund_dims"]
        results = {
            "weight": w,
            "fund_dims": dims,
            "bound": dims[0] ** w[0] * dims[1] ** w[1],
            "reference_fund_dims": [14, 7],
        }
        return 0, results
    raise ValueError(f"no oracle for query kind {kind!r}")


def check_cli(query, code: int, stdout: str, stderr: str, fixed_stdout: dict) -> str | None:
    """None when the query's outcome matches the exit-code contract and the
    oracle, else a one-line reason."""
    if "Traceback" in stderr:
        return f"traceback: {stderr.strip().splitlines()[-1]}"
    if query["kind"] == "fixed":
        want = fixed_stdout[" ".join(query["argv"])]
        if code != 0:
            return f"exit {code}, expected 0"
        return None if stdout == want else "stdout differs from the seed golden"
    want_code, want = expected_cli(query)
    if code != want_code:
        return f"exit {code}, expected {want_code}"
    if want is None:
        return None if not stdout and stderr.startswith("error: ") else "malformed input not reported"
    got = json.loads(stdout)["results"]
    if query["kind"] == "cyclicity":
        found = got["violations"]
        if any(parse_param(v["difference"]) != (Fraction(v["s_value"]), 0) for v in found):
            return "a violation whose difference is not its S value"
        got = dict(got, violations=sorted(
            (v["i"], v["j"], Fraction(v["s_value"])) for v in found
        ))
    return None if got == want else "results differ from the oracle"
