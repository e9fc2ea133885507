"""Write perfbench/goldens/ from the ywalk in ./src.

    python3 perfbench/record_goldens.py

The goldens pin outputs of the commit that defined the benchmark; the
benchmark never calls this.  Re-record only in a change that means to
alter those outputs, and say so in that change.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
sys.path.insert(0, str(SRC))

import ywalk  # noqa: E402

import workloads  # noqa: E402


def write(name, data):
    (BENCH / "goldens" / name).write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def main():
    g2 = ywalk.builtin_cartan("g2")
    write("g2_rows_order8.json", {
        f"{','.join(map(str, w))}/{b}": workloads.rows_key(ywalk.run_walk(g2, w, b, 8).rows())
        for w in workloads.G2_WORDS for b in (1, 2)
    })

    f4 = ywalk.validate_cartan(*workloads.F4_CARTAN)
    word = workloads.F4_WORD
    reports = [ywalk.run_walk(f4, word, b, workloads.F4_ORDER) for b in (1, 2, 3, 4)]
    t_sets = ywalk.compute_t_sets(reports)
    s_sets = ywalk.compute_s_sets(t_sets, f4)
    walks = {}
    for w in (word, tuple(reversed(word))):
        for b in (1, 2, 3, 4):
            walks[f"{','.join(map(str, w))}/{b}"] = {
                "exponents": list(ywalk.path_exponents(f4, w, b).exponents),
                "rows": workloads.rows_key(ywalk.run_walk(f4, w, b, workloads.F4_ORDER).rows()),
            }
    write("f4_tables.json", {
        "walks": walks,
        "tables": {
            "t": [[t.b, t.c, [[str(s), str(i)] for s, i in t.roots]] for t in t_sets],
            "s": [[s.b, s.c, [str(v) for v in s.values]] for s in s_sets],
        },
    })

    env = dict(os.environ, PYTHONPATH=str(SRC))
    stdout = {}
    for argv in workloads.FIXED_ARGV:
        argv = [*argv, "--format", "json"]
        proc = subprocess.run([sys.executable, "-m", "ywalk", *argv], env=env,
                              capture_output=True, text=True, check=True)
        stdout[" ".join(argv)] = proc.stdout
    write("cli_stdout.json", stdout)


if __name__ == "__main__":
    main()
