"""Command-line surface: parsing, envelopes, exit codes, format parity."""

from __future__ import annotations

import io
import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ywalk import (
    InputError,
    InvalidCartanError,
    builtin_cartan,
    cli,
    lowest_weight,
    path_exponents,
    validate_cartan,
    verify,
    walk,
    weyl_dim,
)
from ywalk.cli import MAX_FACTORS, main, parse_factors, parse_gaussian
from ywalk.cyclicity import TensorFactor, check_cyclicity, dimension_bound
from ywalk.exact import GaussianRational
from ywalk.rootsystem import is_reduced_word_of_longest
from ywalk.sl2 import coefficient
from ywalk.verify import EXPECTED_S, EXPECTED_T, G2_WORD, run_suite
from ywalk.walk import apply_step, init_walk, run_walk


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv, "--format", "json")
    return code, json.loads(out)


# ------------------------------------------------------------------ parsing


def test_parse_gaussian_forms():
    assert parse_gaussian("3/2") == GaussianRational(F(3, 2))
    assert parse_gaussian("-1+2/3i") == GaussianRational(F(-1), F(2, 3))
    assert parse_gaussian("0-1i") == GaussianRational(F(0), F(-1))
    assert parse_gaussian("4-1/2i") == GaussianRational(F(4), F(-1, 2))


@pytest.mark.parametrize("bad", ["", "i", "1+", "1i", "3/2+2", "one", "1//2"])
def test_parse_gaussian_rejects(bad):
    with pytest.raises(InputError):
        parse_gaussian(bad)


def test_parse_factors():
    factors = parse_factors("1:3/2, 2:-1+2/3i", rank=2)
    assert [(f.node, f.param) for f in factors] == [
        (1, GaussianRational(F(3, 2))),
        (2, GaussianRational(F(-1), F(2, 3))),
    ]


def test_parse_factors_node_range():
    with pytest.raises(InputError):
        parse_factors("3:0", rank=2)
    with pytest.raises(InputError):
        parse_factors("1:0,,2:1", rank=2)
    with pytest.raises(InputError):
        parse_factors("1", rank=2)


def test_gaussian_str_roundtrips_through_parser():
    for value in (
        GaussianRational(F(3, 2)),
        GaussianRational(F(-1), F(2, 3)),
        GaussianRational(F(0), F(-5)),
    ):
        assert parse_gaussian(str(value)) == value


# ------------------------------------------------------------ command runs


def test_walk_command_rows(capsys):
    code, env = run_json(capsys, "walk", "--weight", "1")
    assert code == 0
    assert env["command"] == "walk"
    assert env["algebra"] == "g2"
    assert env["experimental"] is False
    rows = env["results"]["rows"]
    assert [row["exponent"] for row in rows] == [1, 3, 2, 3, 1]
    assert [row["node"] for row in rows] == [1, 2, 1, 2, 1]
    assert rows[0]["roots"] == ["1/3*a"]
    assert rows[3]["roots"] == ["a + 3/2", "a + 5/2", "a + 7/2"]
    assert all(row["crosscheck"] for row in rows)


def test_tables_command(capsys):
    code, env = run_json(capsys, "tables")
    assert code == 0
    t_sets = {(t["b"], t["c"]): tuple(t["roots"]) for t in env["results"]["t_sets"]}
    assert t_sets == EXPECTED_T
    s_sets = {(s["b"], s["c"]): s["values"] for s in env["results"]["s_sets"]}
    assert s_sets == {bc: [str(v) for v in values] for bc, values in EXPECTED_S.items()}


def test_path_command(capsys):
    code, env = run_json(capsys, "path")
    assert code == 0
    paths = {p["weight"]: p["exponents"] for p in env["results"]["paths"]}
    assert paths[1] == [1, 3, 2, 3, 1, 0]
    assert paths[2] == [0, 1, 1, 2, 1, 1]


def test_cyclicity_exit_codes(capsys):
    code, env = run_json(capsys, "cyclicity", "--factors", "1:0,1:7/2", "--mode", "hw")
    assert code == 0 and env["results"]["verdict"] == "certified"
    code, env = run_json(capsys, "cyclicity", "--factors", "1:0,1:3", "--mode", "hw")
    assert code == 1 and env["results"]["verdict"] == "not certified"
    assert env["results"]["violations"] == [
        {"i": 1, "j": 2, "difference": "3", "s_value": "3"}
    ]
    code, _ = run_json(capsys, "cyclicity", "--factors", "1:3,1:0", "--mode", "hw")
    assert code == 0
    code, _ = run_json(capsys, "cyclicity", "--factors", "1:3,1:0", "--mode", "irr")
    assert code == 1


def test_weyl_module_command(capsys):
    code, env = run_json(
        capsys, "weyl-module", "--pi1", "0,4", "--pi2", "2", "--fund-dims", "14,7"
    )
    assert code == 0
    results = env["results"]
    assert results["weight"] == [2, 1]
    assert [f["param"] for f in results["factors"]] == ["4", "2", "0"]
    assert results["dimension_bound"] == 14**2 * 7
    assert results["reference_fund_dims"] == [14, 7]


def test_verify_command(capsys):
    code, env = run_json(capsys, "verify", "--suite", "tables")
    assert code == 0
    assert env["results"]["ok"] is True
    assert all(check["ok"] for check in env["results"]["checks"])


def test_verify_fails_a_corrupted_table_under_optimize():
    # python -O strips assert statements; the checks must still fail
    script = (
        "import sys\n"
        "from ywalk import cli, verify\n"
        "verify.EXPECTED_S[(1, 1)] = ()\n"
        "sys.exit(cli.main(['verify', '--suite', 'tables']))\n"
    )
    result = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 3
    assert "FAIL flagship T/S tables and q-images" in result.stdout
    assert "suite tables: 1/2 passed" in result.stdout


# the three verify checks that call run_walk
_RUN_WALK_CHECKS = (
    "walk weight 1 crosschecks",
    "walk weight 2 crosschecks",
    "flagship T/S tables and q-images",
)


def _verify_with_run_walk_raising(capsys, monkeypatch, exc):
    """``verify --suite all`` with ``verify.run_walk`` raising exc: the exit
    code and the detail of each failed check, by name."""

    def broken_walk(*args, **kwargs):
        raise exc

    monkeypatch.setattr(verify, "run_walk", broken_walk)
    code, env = run_json(capsys, "verify", "--suite", "all")
    checks = env["results"]["checks"]
    # every check is listed: 112 sl2 checks, 4 walk checks, 2 tables checks
    assert len({c["name"] for c in checks}) == 118
    return code, {c["name"]: c["detail"] for c in checks if not c["ok"]}


def test_verify_lists_a_walk_fault_as_failed_checks(capsys, monkeypatch):
    message = "lowest-vector crosscheck failed at step 3"
    code, failed = _verify_with_run_walk_raising(
        capsys, monkeypatch, walk.CrosscheckError(message)
    )
    assert code == 3
    assert failed == dict.fromkeys(_RUN_WALK_CHECKS, message)


def test_verify_lists_an_input_error_as_failed_checks(capsys, monkeypatch):
    # verify's inputs are constants: an InputError inside a check is an
    # internal fault (exit 3), not a user error (exit 2)
    message = "series order 8 too small; need at least 9"
    code, failed = _verify_with_run_walk_raising(
        capsys, monkeypatch, InputError(message)
    )
    assert code == 3
    assert failed == dict.fromkeys(_RUN_WALK_CHECKS, message)


def test_verify_lists_an_unexpected_exception_as_failed_checks(capsys, monkeypatch):
    # any other exception fails its own check only, shown by its repr
    code, failed = _verify_with_run_walk_raising(
        capsys, monkeypatch, ZeroDivisionError("division by zero")
    )
    assert code == 3
    assert failed == dict.fromkeys(
        _RUN_WALK_CHECKS, "ZeroDivisionError('division by zero')"
    )


# ---------------------------------------------------------------- errors


def test_input_errors_exit_two(capsys):
    assert main(["cyclicity", "--factors", "3:0"]) == 2
    assert main(["cyclicity", "--factors", "1:zzz"]) == 2
    assert main(["walk", "--weight", "5"]) == 2
    assert main(["walk", "--weight", "1", "--word", "1,2,1"]) == 2
    assert main(["walk", "--weight", "1", "--order", "3"]) == 2
    assert main(["path", "--algebra", "nosuch"]) == 2
    assert main(["path", "--word", ""]) == 2
    assert main(["path", "--word", "1_2,1,2,1,2,1"]) == 2
    assert main(["dim", "--weights", "1,0", "--fund-dims", ""]) == 2
    assert main(["dim", "--weights", "1_0,0", "--fund-dims", "14,7"]) == 2
    assert main(["dim", "--weights", "+1,0", "--fund-dims", "14,7"]) == 2
    assert main(["cyclicity", "--factors", "1_0:0"]) == 2
    capsys.readouterr()


def test_zero_denominator_factor_exits_two(capsys):
    assert main(["cyclicity", "--factors", "1:1/0"]) == 2
    assert "zero denominator" in capsys.readouterr().err


def test_zero_denominator_root_exits_two(capsys):
    assert main(["weyl-module", "--pi1", "1/0"]) == 2
    assert "zero denominator" in capsys.readouterr().err


def test_dimension_bound_with_the_digit_limit_off_exits_two(capsys):
    # with the limit off, CPython's default of 4300 digits is the ceiling;
    # the weight-10^5 case fails fast where that ceiling is missing, before
    # 14^(10^12) would be built
    setter = getattr(sys, "set_int_max_str_digits", None)
    old = sys.get_int_max_str_digits() if setter else None
    if setter:
        setter(0)
    try:
        for weight in ("100000", "1000000000000"):
            argv = ["dim", "--weights", f"{weight},0", "--fund-dims", "14,7"]
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            [line] = captured.err.splitlines()
            assert line.startswith("error: ") and "too large to print" in line
    finally:
        if setter:
            setter(old)


@pytest.mark.parametrize("limit_off", [False, True], ids=["limit-on", "limit-off"])
def test_dimension_bound_at_the_exact_digit_limit_exits_two(
    capsys, largest_printable_power, limit_off
):
    # 15^m and 15^(m+1) both pass the bit-length pre-check; only the exact
    # comparison with 10^limit tells them apart
    setter = getattr(sys, "set_int_max_str_digits", None)
    old = sys.get_int_max_str_digits() if setter else None
    if setter and limit_off:
        setter(0)
    try:
        limit = (sys.get_int_max_str_digits() if setter else 0) or 4300
        m = largest_printable_power(15, limit)
        code, out = run_cli(capsys, "dim", "--weights", f"{m},0", "--fund-dims", "15,7")
        assert code == 0 and f"bound: {15**m}\n" in out
        assert main(["dim", "--weights", f"{m + 1},0", "--fund-dims", "15,7"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: dimension bound too large to print: more than {limit} digits"
        ]
    finally:
        if setter:
            setter(old)


def test_library_input_checks_raise_input_error(g2, g2_s_sets):
    assert issubclass(InvalidCartanError, InputError)
    state = init_walk(g2, 2, 8)
    checks = {
        "fundamental index": lambda: g2.fundamental(3),
        "word not reduced": lambda: path_exponents(g2, (1, 1), 1),
        "order too small": lambda: run_walk(g2, G2_WORD, 1, 4),
        "dimension length": lambda: dimension_bound((1, 0), (14,), g2),
        "weight not dominant": lambda: dimension_bound((-1, 0), (14, 7), g2),
        "dimension not positive": lambda: dimension_bound((1, 0), (0, 7), g2),
        "bound past the bit length": lambda: dimension_bound((10**12, 0), (14, 7), g2),
        "unknown suite": lambda: run_suite("nosuch"),
        "Weyl weight length": lambda: weyl_dim(g2, (1,)),
        "Weyl weight not dominant": lambda: weyl_dim(g2, (-1, 0)),
        "lowest weight length 1": lambda: lowest_weight(g2, (1,)),
        "lowest weight length 3": lambda: lowest_weight(g2, (1, 0, 0)),
        "walk fundamental index": lambda: init_walk(g2, 3),
        "walk series order": lambda: init_walk(g2, 1, 1),
        "unknown builtin algebra": lambda: builtin_cartan("e8"),
        "step node 0": lambda: apply_step(state, 0, 1),
        "step node 3": lambda: apply_step(state, 3, 1),
        "step exponent negative": lambda: apply_step(state, 1, -1),
        "step degree past the order": lambda: apply_step(state, 1, 8),
        "eigenvalue node 0": lambda: coefficient(state, 0, 1),
        "eigenvalue node 3": lambda: coefficient(state, 3, 1),
        # a non-integer is rejected, not truncated
        "fundamental index 1.5": lambda: g2.fundamental(1.5),
        "path fundamental 1.5": lambda: path_exponents(g2, G2_WORD, 1.5),
        "word letter 1.0": lambda: path_exponents(g2, (1.0, 2, 1, 2, 1, 2), 1),
        "Weyl weight 1.7": lambda: weyl_dim(g2, (1.7, 0)),
        "lowest weight 1.5": lambda: lowest_weight(g2, (1.5, 0)),
        "weight coordinate 1.5": lambda: dimension_bound((1.5, 0), (14, 7), g2),
        "dimension 7.0": lambda: dimension_bound((1, 0), (14, 7.0), g2),
        "walk fundamental 1.5": lambda: run_walk(g2, G2_WORD, 1.5),
        "walk word letter 1.0": lambda: run_walk(g2, (1.0, 2, 1, 2, 1, 2), 1),
        "walk series order 8.5": lambda: run_walk(g2, G2_WORD, 1, 8.5),
        "init series order 8.0": lambda: init_walk(g2, 1, 8.0),
        "init fundamental 1.0": lambda: init_walk(g2, 1.0),
        "step node 1.5": lambda: apply_step(state, 1.5, 1),
        "step exponent 1.0": lambda: apply_step(state, 2, 1.0),
        "eigenvalue node 1.0": lambda: coefficient(state, 1.0, 1),
        "eigenvalue index past the order": lambda: coefficient(state, 1, 8),
        "eigenvalue index 1.5": lambda: coefficient(state, 1, 1.5),
        "eigenvalue index negative": lambda: coefficient(state, 1, -3),
    }
    for name, check in checks.items():
        try:
            check()
        except InputError:
            continue
        pytest.fail(f"{name}: no InputError")
    # a non-integer Cartan entry or symmetrizer is not Cartan data
    for a, d in (([[2, -1.5], [-1, 2]], [1, 1]), ([[2, -1], [-1, 2]], [1.0, 1])):
        with pytest.raises(InvalidCartanError, match="must be an integer"):
            validate_cartan(a, d)
    assert not is_reduced_word_of_longest(g2, (1.0, 2, 1, 2, 1, 2))
    # an S-set table without a node pair is an internal fault (exit 3)
    factors = [TensorFactor(node, GaussianRational(F(0))) for node in (1, 3)]
    with pytest.raises(ValueError, match="no S set for node pair") as info:
        check_cyclicity(factors, g2_s_sets, "hw")
    assert not isinstance(info.value, InputError)


def test_argparse_usage_error_exits_two(capsys):
    assert main(["walk"]) == 2  # missing required --weight
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--suite", "tables", "--algebra", "a2"],
        ["verify", "--suite", "tables", "--word", "2,1,2,1,2,1"],
        ["verify", "--suite", "tables", "--order", "20"],
        ["path", "--order", "20"],
        ["dim", "--weights", "1,0", "--fund-dims", "14,7", "--word", "1,2,1,2,1,2"],
        ["dim", "--weights", "1,0", "--fund-dims", "14,7", "--order", "20"],
        ["tables", "--config", "x.json"],
    ],
    ids=" ".join,
)
def test_option_a_subcommand_does_not_read_exits_two(capsys, argv):
    # the subcommand's own parser reports it, with the options it does take
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"usage: ywalk {argv[0]} [-h] ")
    assert captured.err.endswith(
        f"ywalk {argv[0]}: error: unrecognized arguments: {' '.join(argv[-2:])}\n"
    )


@pytest.mark.parametrize("order", ["200000000", "1", "65"])
def test_order_outside_range_exits_two(capsys, monkeypatch, order):
    def no_walk(*args, **kwargs):
        raise AssertionError("a walk started")

    monkeypatch.setattr(cli, "run_walk", no_walk)
    assert main(["walk", "--weight", "1", "--order", order]) == 2
    assert "outside 2..64" in capsys.readouterr().err


def test_order_ceiling_is_accepted(capsys):
    code, env = run_json(
        capsys, "walk", "--algebra", "a1", "--weight", "1", "--order", "64"
    )
    assert code == 0
    assert env["order"] == 64


def test_unexpected_exception_exits_three(capsys, monkeypatch):
    def broken_walk(*args, **kwargs):
        raise ZeroDivisionError("division by zero")

    monkeypatch.setattr(cli, "run_walk", broken_walk)
    assert main(["walk", "--weight", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert captured.err.splitlines() == [
        "internal error: ZeroDivisionError('division by zero')"
    ]


# inputs that used to reach exit 2 only through a blanket ValueError mapping
def _order_below_max_exponent(tmp_path):
    return ["walk", "--weight", "1", "--order", "4"], "need at least 5"


def _integer_past_digit_limit(tmp_path):
    return ["cyclicity", "--factors", "1:" + "7" * 5000], "bad parameter"


def _undecodable_algebra_file(tmp_path):
    algebra = tmp_path / "bad.alg"
    algebra.write_bytes(b"row 2 \xff\xfe\n")
    return ["path", "--algebra", str(algebra)], "cannot read algebra file"


def _bound_past_digit_limit(tmp_path):
    return ["dim", "--weights", "5000,0", "--fund-dims", "14,7"], "too large to print"


def _bound_rejected_before_it_is_built(tmp_path):
    # 14^(10^12) has about 3.8 * 10^12 bits; building it would not finish
    weights = f"{10**12},0"
    return ["dim", "--weights", weights, "--fund-dims", "14,7"], "too large to print"


def _weyl_module_bound_past_digit_limit(tmp_path):
    pi1 = ",".join(["0"] * 5000)
    return ["weyl-module", "--pi1", pi1, "--fund-dims", "14,7"], "too large to print"


def _algebra_name_too_long(tmp_path):
    return ["path", "--algebra", "x" * 5000], "unknown algebra"


# an explicitly empty list is malformed, not absent
def _empty_word(tmp_path):
    return ["path", "--word", ""], "bad word list ''"


def _empty_fund_dims(tmp_path):
    return ["weyl-module", "--pi1", "0", "--fund-dims", ""], "bad fundamental-dimension list"


# integer fields take [-]digits only, not every spelling Python's int() reads
def _underscore_in_weight(tmp_path):
    return ["dim", "--weights", "1_0,0", "--fund-dims", "14,7"], "bad weight list"


def _underscore_in_word(tmp_path):
    return ["path", "--word", "1_2,1,2,1,2,1"], "bad word list"


def _plus_sign_in_fund_dims(tmp_path):
    return ["dim", "--weights", "1,0", "--fund-dims", "+14,7"], "bad fundamental-dimension"


def _plus_sign_in_node_label(tmp_path):
    return ["cyclicity", "--factors", "+1:0,2:0"], "bad node index '+1'"


def _underscore_in_algebra_file(tmp_path):
    algebra = tmp_path / "g2.alg"
    algebra.write_text("row 2 -1\nrow -3 2\ndiag 3 1\nword 1_2 1 2 1 2 1\n")
    return ["path", "--algebra", str(algebra)], "non-integer entry"


@pytest.mark.parametrize(
    "case",
    [
        _order_below_max_exponent,
        _integer_past_digit_limit,
        _undecodable_algebra_file,
        _bound_past_digit_limit,
        _bound_rejected_before_it_is_built,
        _weyl_module_bound_past_digit_limit,
        _algebra_name_too_long,
        _empty_word,
        _empty_fund_dims,
        _underscore_in_weight,
        _underscore_in_word,
        _plus_sign_in_fund_dims,
        _plus_sign_in_node_label,
        _underscore_in_algebra_file,
    ],
)
def test_input_cases_exit_two_with_one_line(capsys, tmp_path, case):
    argv, message = case(tmp_path)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("error: ") and message in line


def _reader_drops_a_root(monkeypatch):
    real = walk._read_roots
    monkeypatch.setattr(
        walk, "_read_roots", lambda state, node, m: real(state, node, m)[1:]
    )


def _one_point_off_by_half(monkeypatch):
    # after every divisor move, the highest point goes up by half a unit
    real = walk._move_divisor

    def moved(divisor, roots, x):
        real(divisor, roots, x)
        if divisor:
            top = max(divisor)
            divisor[top + 1] = divisor.pop(top)

    monkeypatch.setattr(walk, "_move_divisor", moved)


@pytest.mark.parametrize(
    "argv",
    [
        ["walk", "--weight", "1"],
        ["tables"],
        ["cyclicity", "--factors", "1:0,2:1"],
    ],
    ids=lambda argv: argv[0],
)
@pytest.mark.parametrize(
    "fault",
    [_reader_drops_a_root, _one_point_off_by_half],
    ids=["dropped root", "half-shift"],
)
def test_divisor_fault_exits_three(capsys, monkeypatch, fault, argv):
    # a divisor that disagrees with its series is a walk fault
    fault(monkeypatch)
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("internal invariant violation: node ")


def test_dropped_s_set_exits_three(capsys, monkeypatch):
    real = cli.compute_s_sets

    def without_2_2(t_sets, cartan):
        return [s for s in real(t_sets, cartan) if (s.b, s.c) != (2, 2)]

    monkeypatch.setattr(cli, "compute_s_sets", without_2_2)
    assert main(["cyclicity", "--factors", "2:0,2:1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert captured.err.splitlines() == [
        "internal error: ValueError('no S set for node pair (2, 2)')"
    ]


# ----------------------------------------------------- exit-code contract

_PARAMS = st.one_of(
    st.fractions(min_value=-20, max_value=20, max_denominator=4).map(str),
    st.builds(
        lambda re, im: str(GaussianRational(re, im)),
        st.fractions(min_value=-9, max_value=9, max_denominator=2),
        st.fractions(min_value=-2, max_value=2, max_denominator=2),
    ),
    st.text(alphabet="0123456789/+-i ", max_size=8),
    st.text(max_size=6),
)
_FACTORS = st.one_of(
    st.lists(
        st.tuples(st.integers(min_value=-1, max_value=4), _PARAMS).map(
            lambda t: f"{t[0]}:{t[1]}"
        ),
        min_size=1,
        max_size=8,
    ).map(",".join),
    st.text(alphabet="0123456789/+-i:, x", max_size=24),
)
_ROOTS = st.one_of(st.lists(_PARAMS, max_size=6).map(",".join), st.text(max_size=12))
_ORDERS = st.one_of(
    st.integers(min_value=-100, max_value=100),
    st.integers(min_value=-(10**30), max_value=10**30),
).map(str)
_ARGV = st.one_of(
    st.builds(
        lambda f, mode: ["cyclicity", f"--factors={f}", "--mode", mode],
        _FACTORS,
        st.sampled_from(("hw", "irr")),
    ),
    st.builds(lambda p1, p2: ["weyl-module", f"--pi1={p1}", f"--pi2={p2}"], _ROOTS, _ROOTS),
    st.builds(lambda order: ["tables", f"--order={order}"], _ORDERS),
)


@pytest.fixture(scope="session")
def g2_tables(g2_t_sets, g2_s_sets):
    return g2_t_sets, g2_s_sets


@settings(max_examples=100, deadline=None)
@given(_ARGV, st.sampled_from(("text", "json")))
def test_exit_code_contract_holds_under_fuzzing(g2_tables, argv, fmt):
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_sset_tables", lambda cartan, word, order: g2_tables)
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv + ["--format", fmt])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    assert len(err.getvalue().splitlines()) <= 1
    if code == 2:
        assert out.getvalue() == ""


@st.composite
def _fuzzed_algebra_argv(draw):
    """A random algebra file of 1-4 nodes (off-diagonal entries 0..-4,
    symmetrizers 1..3; most are not Cartan data) and one subcommand on it."""
    n = draw(st.integers(min_value=1, max_value=4))
    entry = st.sampled_from((0, -1, -2, -3, -4))
    rows = [[2 if i == j else draw(entry) for j in range(n)] for i in range(n)]
    d = draw(st.lists(st.sampled_from((1, 2, 3)), min_size=n, max_size=n))
    text = "".join("row " + " ".join(map(str, row)) + "\n" for row in rows)
    text += "diag " + " ".join(map(str, d)) + "\n"
    node = st.integers(min_value=1, max_value=n)
    command = draw(st.sampled_from(("tables", "path", "dim", "cyclicity")))
    if command == "path":
        args = ["--weight", str(draw(node))]
    elif command == "dim":
        small = st.lists(st.integers(min_value=0, max_value=2), min_size=n, max_size=n)
        dims = st.lists(st.integers(min_value=1, max_value=30), min_size=n, max_size=n)
        args = ["--weights", ",".join(map(str, draw(small)))]
        args += ["--fund-dims", ",".join(map(str, draw(dims)))]
    elif command == "cyclicity":
        factor = st.tuples(node, st.integers(min_value=-8, max_value=8))
        factors = draw(st.lists(factor, min_size=1, max_size=6))
        args = ["--factors", ",".join(f"{c}:{k}/2" for c, k in factors)]
        args += ["--mode", draw(st.sampled_from(("hw", "irr")))]
    else:
        args = []
    return text, [command, *args]


@settings(max_examples=300, deadline=2000)
@given(_fuzzed_algebra_argv(), st.sampled_from(("text", "json")))
def test_fuzzed_algebra_files_keep_the_exit_code_contract(tmp_path_factory, case, fmt):
    # the real engine on each accepted file: no stubbed tables
    text, argv = case
    algebra = tmp_path_factory.getbasetemp() / "fuzzed.alg"
    algebra.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([*argv, "--algebra", str(algebra), "--format", fmt])
    assert code in ((0, 1, 2) if argv[0] == "cyclicity" else (0, 2)), err.getvalue()
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert out.getvalue() == ""


def test_a40_path_through_main(capsys, tmp_path):
    rows = [[2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(40)] for i in range(40)]
    algebra = _write_algebra(tmp_path / "a40.alg", validate_cartan(rows, [1] * 40))
    code, env = run_json(capsys, "path", "--algebra", algebra, "--weight", "1")
    assert code == 0
    assert len(env["results"]["word"]) == 40 * 41 // 2
    assert len(env["results"]["paths"][0]["exponents"]) == 820


def test_long_factor_list(capsys):
    # a list at the --factors ceiling is checked in full: the last factor
    # sits 3 in S(1,1) above the first (the library itself takes longer
    # lists, see test_long_structured_list)
    spec = ",".join(f"{1 + k % 2}:{100 * k}" for k in range(MAX_FACTORS - 1))
    code, env = run_json(capsys, "cyclicity", "--factors", spec, "--mode", "irr")
    assert code == 0 and env["results"]["violations"] == []
    spec += ",1:3"
    code, env = run_json(capsys, "cyclicity", "--factors", spec, "--mode", "irr")
    assert code == 1
    assert env["results"]["violations"] == [
        {"i": 1, "j": MAX_FACTORS, "difference": "3", "s_value": "3"}
    ]


def test_factor_list_past_the_ceiling_exits_two(capsys, monkeypatch):
    def no_check(*args, **kwargs):
        raise AssertionError("a cyclicity check started")

    monkeypatch.setattr(cli, "check_cyclicity", no_check)
    # dense: each 1:0 / 1:3 pair is a violation, so the list would grow as n^2
    spec = ",".join(["1:0", "1:3"] * (MAX_FACTORS // 2) + ["1:0"])
    assert main(["cyclicity", "--factors", spec, "--mode", "irr"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: {MAX_FACTORS + 1} factors listed; at most {MAX_FACTORS}"
    ]


# ------------------------------------------------- formats and determinism


def test_json_output_is_deterministic(capsys):
    _, first = run_cli(capsys, "tables", "--format", "json")
    _, second = run_cli(capsys, "tables", "--format", "json")
    assert first == second


def test_text_and_json_carry_the_same_data(capsys):
    _, env = run_json(capsys, "walk", "--weight", "2")
    _, text = run_cli(capsys, "walk", "--weight", "2")
    for row in env["results"]["rows"]:
        assert row["polynomial"] in text
        for root in row["roots"]:
            assert root in text
    _, env = run_json(capsys, "tables")
    _, text = run_cli(capsys, "tables")
    for s in env["results"]["s_sets"]:
        assert f"S({s['b']},{s['c']})" in text
        for value in s["values"]:
            assert value in text


def test_experimental_flag(capsys):
    _, env = run_json(capsys, "tables")
    assert env["experimental"] is False
    _, env = run_json(capsys, "tables", "--algebra", "a2")
    assert env["experimental"] is True
    _, env = run_json(capsys, "walk", "--weight", "1", "--word", "2,1,2,1,2,1")
    assert env["experimental"] is True


def test_custom_algebra_file(capsys, tmp_path):
    algebra = tmp_path / "g2.alg"
    algebra.write_text(
        "# flagship data\n"
        "row 2 -1\n"
        "row -3 2\n"
        "diag 3 1\n"
        "word 1 2 1 2 1 2\n"
    )
    code, env = run_json(capsys, "tables", "--algebra", str(algebra))
    assert code == 0
    assert env["algebra"] == "custom:g2.alg"
    assert env["experimental"] is True
    s_sets = {(s["b"], s["c"]): s["values"] for s in env["results"]["s_sets"]}
    assert s_sets[(1, 1)] == ["3", "4", "5", "6"]


def test_custom_algebra_rejects_bad_file(capsys, tmp_path):
    bad = tmp_path / "bad.alg"
    bad.write_text("row 2 -1\nrow -1 2\ndiag 3 1\n")  # DA not symmetric
    assert main(["tables", "--algebra", str(bad)]) == 2
    capsys.readouterr()


def _write_algebra(path, cartan):
    rows = "".join("row " + " ".join(map(str, row)) + "\n" for row in cartan.a)
    path.write_text(rows + "diag " + " ".join(map(str, cartan.d)) + "\n")
    return str(path)


@pytest.mark.parametrize("name, length", [("e6", 36), ("e8", 120)])
def test_exceptional_algebra_files_path(capsys, tmp_path, request, name, length):
    algebra = _write_algebra(tmp_path / f"{name}.alg", request.getfixturevalue(name))
    code, env = run_json(capsys, "path", "--algebra", algebra, "--weight", "1")
    assert code == 0
    assert len(env["results"]["word"]) == length
    assert len(env["results"]["paths"][0]["exponents"]) == length


def test_e6_walk_crosschecks(capsys, tmp_path, e6):
    algebra = _write_algebra(tmp_path / "e6.alg", e6)
    code, env = run_json(capsys, "walk", "--algebra", algebra, "--weight", "1")
    assert code == 0
    rows = env["results"]["rows"]
    assert rows and all(row["crosscheck"] is True for row in rows)


def test_a1_tables(capsys):
    code, env = run_json(capsys, "tables", "--algebra", "a1")
    assert code == 0
    assert env["experimental"] is False
    assert env["results"]["s_sets"] == [{"b": 1, "c": 1, "values": ["1"]}]


def test_console_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "ywalk", "path", "--algebra", "a1"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0
    assert "exponents: 1" in result.stdout
