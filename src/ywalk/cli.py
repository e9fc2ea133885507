"""Command-line surface: walks, tables, cyclicity checks, ordered products.

Each subcommand takes only the options its handler reads, out of algebra,
reduced word, truncation order and output format; one it does not read is
fixed at its default (``verify`` always runs its pinned G2 and A1 data at
order 8).  ``_dispatch`` resolves the algebra and word once, hands them to
the subcommand's handler, and wraps the handler's inputs and results in
one envelope with stable field names; ``--format json`` prints it
verbatim, ``--format text`` renders the same data for reading.  Exit
codes: 0 success, 1 condition not certified, 2 input error, 3 internal
invariant violation or any other internal fault.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from pathlib import Path

from . import __version__
from .cyclicity import (
    TensorFactor,
    build_ordered_product,
    check_cyclicity,
    compute_s_sets,
    compute_t_sets,
    dimension_bound,
    format_root,
)
from .exact import GaussianRational
from .rootsystem import (
    BUILTIN_ALGEBRAS,
    CartanData,
    InputError,
    InvalidCartanError,
    builtin_cartan,
    is_reduced_word_of_longest,
    path_exponents,
    validate_cartan,
    weyl_longest,
)
from .verify import G2_WORD, SUITES, run_suite
from .walk import DEFAULT_ORDER, CrosscheckError, run_walk

__all__ = ["main", "parse_factors", "parse_gaussian"]

EXIT_OK = 0
EXIT_NOT_CERTIFIED = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3

# accepted --order range: the walk cost grows steeply with the order, so
# the ceiling keeps every query bounded
MIN_ORDER = 2
MAX_ORDER = 64

# accepted --factors length: the violation list grows with the square of it
MAX_FACTORS = 256

_INTEGER = r"-?\d+"
_INTEGER_RE = re.compile(_INTEGER)
_RATIONAL = rf"{_INTEGER}(?:/\d+)?"
_GAUSSIAN_RE = re.compile(rf"^({_RATIONAL})(?:([+-]\d+(?:/\d+)?)i)?$")

# the flagship table word; outputs for anything else are experimental
_CERTIFIED = {("g2", G2_WORD), ("a1", (1,))}


def parse_gaussian(text: str) -> GaussianRational:
    """Parse ``[-]p[/q][(+|-)r[/s]i]`` into an exact Gaussian rational."""
    match = _GAUSSIAN_RE.match(text.strip())
    if not match:
        raise InputError(f"malformed rational parameter {text!r}")
    re_part, im_part = match.groups()
    try:
        return GaussianRational(
            Fraction(re_part), Fraction(im_part) if im_part else Fraction(0)
        )
    except ZeroDivisionError:
        raise InputError(f"zero denominator in parameter {text!r}") from None
    except ValueError as exc:  # an integer past the str-conversion digit limit
        raise InputError(f"bad parameter: {exc}") from None


def _parse_int(text: str) -> int:
    """A decimal integer ``[-]digits``, whitespace around it ignored; any
    other spelling ``int`` takes (``1_0``, ``+1``) raises ValueError."""
    text = text.strip()
    if not _INTEGER_RE.fullmatch(text):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def parse_factors(spec: str, rank: int) -> list[TensorFactor]:
    """Parse comma-separated ``node:param`` tokens, at most MAX_FACTORS of
    them; whitespace is ignored."""
    tokens = spec.split(",")
    if len(tokens) > MAX_FACTORS:
        raise InputError(f"{len(tokens)} factors listed; at most {MAX_FACTORS}")
    factors = []
    for token in tokens:
        token = token.strip()
        if not token:
            raise InputError("empty factor token")
        node_text, _, param_text = token.partition(":")
        if not param_text:
            raise InputError(f"factor {token!r} is not of the form node:param")
        try:
            node = _parse_int(node_text)
        except ValueError:
            raise InputError(f"bad node index {node_text!r}") from None
        if not 1 <= node <= rank:
            raise InputError(f"node {node} out of range 1..{rank}")
        factors.append(TensorFactor(node, parse_gaussian(param_text)))
    return factors


def _parse_root_list(spec: str) -> list[GaussianRational]:
    spec = spec.strip()
    if not spec:
        return []
    return [parse_gaussian(token) for token in spec.split(",")]


def _parse_int_list(spec: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(_parse_int(tok) for tok in spec.split(","))
    except ValueError:
        raise InputError(f"bad {what} list {spec!r}") from None


def _load_custom_algebra(path: Path) -> tuple[CartanData, tuple[int, ...] | None]:
    """Declarative algebra file: ``row`` lines for the Cartan matrix, one
    ``diag`` line for the symmetrizers, optional ``word`` line."""
    rows: list[list[int]] = []
    diag: list[int] | None = None
    word: tuple[int, ...] | None = None
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read algebra file: {exc}") from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        keyword, *fields = line.split()
        try:
            values = [_parse_int(f) for f in fields]
        except ValueError:
            raise InputError(f"{path}:{lineno}: non-integer entry") from None
        if keyword == "row":
            rows.append(values)
        elif keyword == "diag":
            diag = values
        elif keyword == "word":
            word = tuple(values)
        else:
            raise InputError(f"{path}:{lineno}: unknown keyword {keyword!r}")
    if not rows or diag is None:
        raise InputError(f"{path}: need 'row' lines and one 'diag' line")
    try:
        cartan = validate_cartan(rows, diag)
    except InvalidCartanError as exc:
        raise InputError(f"{path}: {exc}") from None
    return cartan, word


def _load_algebra(args) -> tuple[str, CartanData, tuple[int, ...]]:
    """Resolve --algebra/--word into (label, cartan, word)."""
    name = args.algebra.lower()
    file_word: tuple[int, ...] | None = None
    if name in BUILTIN_ALGEBRAS:
        label = name
        cartan = builtin_cartan(name)
    else:
        path = Path(args.algebra)
        try:
            found = path.exists()
        except OSError:  # e.g. a name too long for the file system
            found = False
        if not found:
            raise InputError(
                f"unknown algebra {args.algebra!r} (not builtin, not a file)"
            )
        cartan, file_word = _load_custom_algebra(path)
        label = f"custom:{path.name}"
    if args.word is not None:
        word = _parse_int_list(args.word, "word")
    elif file_word is not None:
        word = file_word
    else:
        word = weyl_longest(cartan)
    if not is_reduced_word_of_longest(cartan, word):
        raise InputError(f"word {word} is not a reduced word of the longest element")
    return label, cartan, word


def _fund_dims(args) -> tuple[int, ...] | None:
    if args.fund_dims is None:
        return None
    return _parse_int_list(args.fund_dims, "fundamental-dimension")


def _walk_rows(report) -> list[dict]:
    rows = []
    for rec in report.rows():
        slope = Fraction(1, rec.rescale)
        rows.append(
            {
                "step": rec.step,
                "node": rec.node,
                "exponent": rec.exponent,
                "rescale": rec.rescale,
                "polynomial": str(rec.poly),
                "roots": [format_root(slope, beta) for beta in rec.roots],
                "crosscheck": rec.crosscheck_ok,
            }
        )
    return rows


def _sset_tables(cartan: CartanData, word, order: int, nodes):
    """T and S sets from the walks of the fundamentals ``nodes``: S(b, c)
    reads only the walk of omega_b, so they give every S(b, c), b in nodes."""
    reports = [run_walk(cartan, word, i, order) for i in sorted(nodes)]
    t_sets = compute_t_sets(reports)
    return t_sets, compute_s_sets(t_sets, cartan)


def _cmd_path(args, cartan: CartanData, word) -> tuple[int, dict, dict]:
    weights = (
        [args.weight] if args.weight is not None else list(range(1, cartan.rank + 1))
    )
    results = {
        "word": list(word),
        "paths": [
            {
                "weight": i,
                "exponents": list(path_exponents(cartan, word, i).exponents),
            }
            for i in weights
        ],
    }
    return EXIT_OK, {"weight": args.weight}, results


def _cmd_walk(args, cartan: CartanData, word) -> tuple[int, dict, dict]:
    report = run_walk(cartan, word, args.weight, args.order)
    results = {
        "word": list(word),
        "weight": args.weight,
        "variable_note": "polynomials are in the rescaled variable u/d(node)",
        "rows": _walk_rows(report),
    }
    return EXIT_OK, {"weight": args.weight}, results


def _cmd_tables(args, cartan: CartanData, word) -> tuple[int, dict, dict]:
    t_sets, s_sets = _sset_tables(cartan, word, args.order, range(1, cartan.rank + 1))
    results = {
        "word": list(word),
        "t_sets": [
            {"b": t.b, "c": t.c, "roots": [format_root(*r) for r in t.roots]}
            for t in t_sets
        ],
        "s_sets": [
            {"b": s.b, "c": s.c, "values": [str(v) for v in s.values]}
            for s in s_sets
        ],
    }
    return EXIT_OK, {}, results


def _cmd_cyclicity(args, cartan: CartanData, word) -> tuple[int, dict, dict]:
    factors = parse_factors(args.factors, cartan.rank)
    # every pair of present nodes gets its S sets, so no pair is unset
    nodes = {f.node for f in factors}
    _, s_sets = _sset_tables(cartan, word, args.order, nodes)
    report = check_cyclicity(factors, s_sets, args.mode)
    results = {
        "mode": report.mode,
        "verdict": "certified" if report.certified else "not certified",
        "violations": [
            {
                "i": v.i,
                "j": v.j,
                "difference": str(v.difference),
                "s_value": str(v.s_value),
            }
            for v in report.violations
        ],
    }
    inputs = {
        "factors": [
            {"node": f.node, "param": str(f.param)} for f in factors
        ],
        "mode": args.mode,
    }
    return (EXIT_OK if report.certified else EXIT_NOT_CERTIFIED), inputs, results


def _cmd_weyl_module(args, cartan: CartanData, word) -> tuple[int, dict, dict]:
    if cartan.rank != 2:
        raise InputError("weyl-module expects a rank-2 algebra")
    roots1 = _parse_root_list(args.pi1)
    roots2 = _parse_root_list(args.pi2)
    _, s_sets = _sset_tables(cartan, word, args.order, (1, 2))
    spec = build_ordered_product(roots1, roots2, s_sets)
    dims = _fund_dims(args)
    dim_report = (
        dimension_bound(spec.weight, dims, cartan) if dims is not None else None
    )
    results = {
        "weight": list(spec.weight),
        "factors": [
            {"node": f.node, "param": str(f.param)} for f in spec.factors
        ],
        "verdict": "certified" if spec.report.certified else "not certified",
        "dimension_bound": dim_report.bound if dim_report else None,
        "fund_dims": list(dims) if dims else None,
        "reference_fund_dims": (
            list(dim_report.reference_fund_dims) if dim_report else None
        ),
    }
    inputs = {
        "pi1_roots": [str(r) for r in roots1],
        "pi2_roots": [str(r) for r in roots2],
    }
    return (EXIT_OK if spec.report.certified else EXIT_NOT_CERTIFIED), inputs, results


def _cmd_dim(args, cartan: CartanData, word) -> tuple[int, dict, dict]:
    weight = _parse_int_list(args.weights, "weight")
    dims = _fund_dims(args)
    if dims is None:
        raise InputError("dim needs --fund-dims")
    report = dimension_bound(weight, dims, cartan)
    results = {
        "weight": list(report.weight),
        "fund_dims": list(report.fund_dims),
        "bound": report.bound,
        "reference_fund_dims": list(report.reference_fund_dims),
    }
    return EXIT_OK, {"weights": args.weights}, results


def _cmd_verify(args, cartan: CartanData, word) -> tuple[int, dict, dict]:
    checks = run_suite(args.suite)
    results = {
        "suite": args.suite,
        "ok": all(c.ok for c in checks),
        "checks": [
            {"name": c.name, "ok": c.ok, "detail": c.detail} for c in checks
        ],
    }
    return (EXIT_OK if results["ok"] else EXIT_INTERNAL), {"suite": args.suite}, results


_HANDLERS = {
    "path": _cmd_path,
    "walk": _cmd_walk,
    "tables": _cmd_tables,
    "cyclicity": _cmd_cyclicity,
    "weyl-module": _cmd_weyl_module,
    "dim": _cmd_dim,
    "verify": _cmd_verify,
}


def _render_text(env: dict) -> str:
    lines = [
        f"command: {env['command']}   algebra: {env['algebra']}   "
        f"order: {env['order']}   engine: {env['engine_version']}"
    ]
    if env["experimental"]:
        lines.append("note: experimental output (outside the certified cases)")
    results = env["results"]
    command = env["command"]
    if command == "path":
        lines.append("word: " + " ".join(str(r) for r in results["word"]))
        for entry in results["paths"]:
            exps = " ".join(str(m) for m in entry["exponents"])
            lines.append(f"weight {entry['weight']} exponents: {exps}")
    elif command == "walk":
        lines.append("word: " + " ".join(str(r) for r in results["word"]))
        lines.append(f"weight: {results['weight']}")
        lines.append(results["variable_note"])
        header = f"{'step':>4} {'node':>4} {'exp':>3} {'rescale':>7}  polynomial / roots"
        lines.append(header)
        for row in results["rows"]:
            roots = ", ".join(row["roots"])
            lines.append(
                f"{row['step']:>4} {row['node']:>4} {row['exponent']:>3} "
                f"{row['rescale']:>7}  {row['polynomial']}"
            )
            # a failed crosscheck aborts the walk, so every printed row passed
            lines.append(f"{'':>26}roots: {roots}   crosscheck: ok")
    elif command == "tables":
        lines.append("word: " + " ".join(str(r) for r in results["word"]))
        for t in results["t_sets"]:
            lines.append(f"T({t['b']},{t['c']}) = {{{', '.join(t['roots'])}}}")
        for s in results["s_sets"]:
            lines.append(f"S({s['b']},{s['c']}) = {{{', '.join(s['values'])}}}")
    elif command == "cyclicity":
        factors = ", ".join(
            f"{f['node']}:{f['param']}" for f in env["inputs"]["factors"]
        )
        lines.append(f"factors: {factors}")
        lines.append(f"mode: {results['mode']}")
        lines.append(f"verdict: {results['verdict']}")
        for v in results["violations"]:
            lines.append(
                f"violation: pair ({v['i']},{v['j']}) difference {v['difference']}"
                f" in S, value {v['s_value']}"
            )
    elif command == "weyl-module":
        lines.append(f"weight: {tuple(results['weight'])}")
        factors = ", ".join(
            f"{f['node']}:{f['param']}" for f in results["factors"]
        )
        lines.append(f"ordered factors: {factors}")
        lines.append(f"highest-weight verdict: {results['verdict']}")
        if results["dimension_bound"] is not None:
            lines.append(
                f"dimension bound: {results['dimension_bound']} "
                f"(fund dims {results['fund_dims']})"
            )
            lines.append(
                "reference simple-Lie fundamental dims: "
                f"{results['reference_fund_dims']}"
            )
        else:
            lines.append("dimension bound: not computed (no fund_dims supplied)")
    elif command == "dim":
        lines.append(f"weight: {tuple(results['weight'])}")
        lines.append(f"fund dims: {tuple(results['fund_dims'])}")
        lines.append(f"bound: {results['bound']}")
        lines.append(
            f"reference simple-Lie fundamental dims: {results['reference_fund_dims']}"
        )
    elif command == "verify":
        for check in results["checks"]:
            status = "PASS" if check["ok"] else "FAIL"
            detail = f"  ({check['detail']})" if check["detail"] else ""
            lines.append(f"{status} {check['name']}{detail}")
        passed = sum(1 for c in results["checks"] if c["ok"])
        lines.append(
            f"suite {results['suite']}: {passed}/{len(results['checks'])} passed"
        )
    return "\n".join(lines)


_SHARED_OPTIONS = {
    "algebra": dict(
        default="g2",
        help="builtin name (g2, a1, a2) or path to a declarative algebra file",
    ),
    "word": dict(
        default=None, help="comma-separated reduced word of the longest element"
    ),
    "order": dict(
        type=int,
        default=DEFAULT_ORDER,
        help=f"series truncation order, {MIN_ORDER}..{MAX_ORDER} (default 8)",
    ),
}


def _add_shared(parser: argparse.ArgumentParser, *names: str):
    """Add the shared options a subcommand reads, then --format.  One it
    does not read is fixed at its default, so ``_dispatch`` still sees it."""
    for name, spec in _SHARED_OPTIONS.items():
        if name in names:
            parser.add_argument(f"--{name}", **spec)
        else:
            parser.set_defaults(**{name: spec["default"]})
    parser.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )


class _SubcommandParser(argparse.ArgumentParser):
    """A subcommand's parser, which reports an option it does not take
    itself, under its own usage line.  argparse would hand the option back
    to the top-level parser, whose usage lists no subcommand options."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ywalk",
        description="Exact engine for extremal-path associated polynomials, "
        "tensor-product cyclicity sets, and ordered Weyl-module products.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(
        dest="command", required=True, parser_class=_SubcommandParser
    )

    p = sub.add_parser("path", help="reduced word and path exponents")
    p.add_argument("--weight", type=int, default=None)
    _add_shared(p, "algebra", "word")

    p = sub.add_parser("walk", help="per-step associated polynomials")
    p.add_argument("--weight", type=int, required=True)
    _add_shared(p, "algebra", "word", "order")

    p = sub.add_parser("tables", help="T and S sets for all node pairs")
    _add_shared(p, "algebra", "word", "order")

    p = sub.add_parser("cyclicity", help="check an ordered tensor product")
    p.add_argument(
        "--factors", required=True, help='comma-separated node:param, e.g. "1:0,2:5/2"'
    )
    p.add_argument("--mode", choices=("hw", "irr"), default="hw")
    _add_shared(p, "algebra", "word", "order")

    p = sub.add_parser(
        "weyl-module", help="ordered product realizing two root multisets"
    )
    p.add_argument("--pi1", default="", help="comma-separated roots for node 1")
    p.add_argument("--pi2", default="", help="comma-separated roots for node 2")
    p.add_argument("--fund-dims", default=None, help="comma-separated dimensions")
    _add_shared(p, "algebra", "word", "order")

    p = sub.add_parser("dim", help="product dimension bound")
    p.add_argument("--weights", required=True, help="comma-separated m_1,..,m_l")
    p.add_argument("--fund-dims", default=None, help="comma-separated dimensions")
    _add_shared(p, "algebra")

    p = sub.add_parser("verify", help="run the self-check suites")
    p.add_argument("--suite", choices=("all", *SUITES), default="all")
    _add_shared(p)

    return parser


def _dispatch(args) -> int:
    try:
        if not MIN_ORDER <= args.order <= MAX_ORDER:
            raise InputError(f"--order {args.order} outside {MIN_ORDER}..{MAX_ORDER}")
        label, cartan, word = _load_algebra(args)
        code, inputs, results = _HANDLERS[args.command](args, cartan, word)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except CrosscheckError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    env = {
        "command": args.command,
        "algebra": label,
        "engine_version": __version__,
        "order": args.order,
        "experimental": (label, word) not in _CERTIFIED,
        "inputs": inputs,
        "results": results,
    }
    if args.format == "json":
        print(json.dumps(env, indent=2, sort_keys=True))
    else:
        print(_render_text(env))
    return code


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _dispatch(args)
    except Exception as exc:
        # anything unforeseen is an internal fault, never "not certified"
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL
