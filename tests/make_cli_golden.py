"""Write tests/cli_golden.json: stdout, stderr and exit code of ``ywalk`` runs.

The runs cover every subcommand in text and JSON, G2 on both reduced
words, a1, a2, an F4 algebra file, input errors that exit 2 (an option
the subcommand does not take among them), and ``<command> --help`` for
every subcommand (at COLUMNS=80, so the option lists are pinned too).
Each run calls ``ywalk.cli.main`` in-process from a scratch directory
holding the input files below, so file names stay relative and no
absolute path is stored.

Run from the repository root:

    PYTHONPATH=src python tests/make_cli_golden.py

The file is a regression net for the command layer: a change that moves
a byte of it must say why.
"""

from __future__ import annotations

import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from conftest import finite_type_cartan
from ywalk import cli

GOLDEN = Path(__file__).with_name("cli_golden.json")
COLUMNS = "80"
COMMANDS = ("path", "walk", "tables", "cyclicity", "weyl-module", "dim", "verify")


def _algebra_file(name: str) -> str:
    cartan = finite_type_cartan(name)
    rows = "".join("row " + " ".join(map(str, row)) + "\n" for row in cartan.a)
    return rows + "diag " + " ".join(map(str, cartan.d)) + "\n"


def write_inputs(directory: Path):
    """The algebra files the runs name, written into directory."""
    (directory / "f4.alg").write_text(_algebra_file("f4"))
    (directory / "bad.alg").write_text("row 2 -1\nrow -3 2\nrank 2\n")


# queries printed in both formats
_BOTH_FORMATS = [
    ["path"],
    ["path", "--weight", "2"],
    ["walk", "--weight", "1"],
    ["walk", "--weight", "2"],
    ["tables"],
    ["cyclicity", "--factors", "1:0,1:7/2"],
    ["cyclicity", "--factors", "1:0,1:3,2:5/2-1i", "--mode", "irr"],
    ["weyl-module", "--pi1", "0,4", "--pi2", "2", "--fund-dims", "14,7"],
    ["weyl-module", "--pi1", "0", "--pi2", "1/2"],
    ["dim", "--weights", "2,1", "--fund-dims", "15,7"],
    ["verify", "--suite", "all"],
    ["tables", "--word", "2,1,2,1,2,1"],
    ["walk", "--weight", "1", "--word", "2,1,2,1,2,1"],
    ["walk", "--weight", "2", "--order", "20"],
    ["tables", "--algebra", "a1"],
    ["walk", "--algebra", "a1", "--weight", "1"],
    ["tables", "--algebra", "a2"],
    ["cyclicity", "--algebra", "a2", "--factors", "1:0,2:1,1:2"],
    ["path", "--algebra", "f4.alg", "--weight", "3"],
]

_TEXT_ONLY = [
    ["tables", "--order", "20"],
    ["tables", "--algebra", "f4.alg"],
    ["verify", "--suite", "walk"],
    ["verify", "--suite", "tables"],
    ["dim", "--algebra", "f4.alg", "--weights", "1,0,0,1",
     "--fund-dims", "52,1274,273,26"],
    ["--version"],
]

# each exits 2
_INPUT_ERRORS = [
    ["cyclicity", "--factors", "3:0"],
    ["cyclicity", "--factors", "1:zzz"],
    ["cyclicity", "--factors", "1:1/0"],
    ["cyclicity", "--factors", "1:0,,2:1"],
    ["walk", "--weight", "5"],
    ["walk", "--weight", "1", "--word", "1,2,1"],
    ["walk", "--weight", "1", "--word", "1,x"],
    ["walk", "--weight", "1", "--order", "4"],
    ["walk", "--weight", "1", "--order", "65"],
    ["path", "--algebra", "nosuch"],
    ["path", "--algebra", "bad.alg"],
    ["weyl-module", "--algebra", "a1", "--pi1", "0"],
    ["dim", "--weights", "2,0"],
    ["dim", "--weights=-1,0", "--fund-dims", "14,7"],
    ["walk", "--format", "json"],  # --weight missing
    # an option the subcommand does not read, one run per subcommand
    ["path", "--order", "20"],
    ["walk", "--weight", "1", "--config", "x.json"],
    ["tables", "--config", "x.json"],
    ["cyclicity", "--factors", "1:0", "--config", "x.json"],
    ["weyl-module", "--pi1", "0", "--config", "x.json"],
    ["dim", "--weights", "2,0", "--fund-dims", "15,7", "--word", "2,1,2,1,2,1"],
    ["verify", "--suite", "tables", "--algebra", "a2"],
]


def argvs() -> list[list[str]]:
    """Every argument list of the golden, in order."""
    out = []
    for argv in _BOTH_FORMATS:
        out += [argv, argv + ["--format", "json"]]
    out += _TEXT_ONLY + _INPUT_ERRORS
    out += [[command, "--help"] for command in COMMANDS]
    return out


def run(argv: list[str]) -> dict:
    """One in-process run; the caller sets the directory and COLUMNS."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    return {"argv": argv, "code": code, "stdout": out.getvalue(),
            "stderr": err.getvalue()}


def main():
    os.environ["COLUMNS"] = COLUMNS
    with tempfile.TemporaryDirectory() as scratch:
        write_inputs(Path(scratch))
        os.chdir(scratch)
        cases = [run(argv) for argv in argvs()]
        os.chdir(GOLDEN.parent)
    lines = (json.dumps(case, separators=(",", ":"), sort_keys=True) for case in cases)
    GOLDEN.write_text("[\n" + ",\n".join(lines) + "\n]\n")


if __name__ == "__main__":
    main()
