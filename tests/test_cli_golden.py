"""Every run of tests/cli_golden.json, byte for byte: stdout, stderr, exit code."""

from __future__ import annotations

import json

import pytest

from make_cli_golden import COLUMNS, GOLDEN, argvs, run, write_inputs

CASES = json.loads(GOLDEN.read_text())


def test_golden_covers_every_run():
    assert [case["argv"] for case in CASES] == argvs()


@pytest.mark.parametrize("case", CASES, ids=[" ".join(c["argv"]) for c in CASES])
def test_cli_run_matches_golden(case, tmp_path, monkeypatch):
    write_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", COLUMNS)
    assert run(case["argv"]) == case
