"""Write tests/tables_atlas.json: the T and S tables of every finite type.

For each type below (Bourbaki labels, from ``conftest.finite_type_cartan``)
the walks of all fundamentals run at order 8 on the lex-least reduced word
of the longest element.  The T roots and S values are stored as strings,
exactly as ``ywalk tables --format json`` prints them, keyed by "b,c".

Run from the repository root:

    PYTHONPATH=src python tests/make_tables_atlas.py

The file is a regression net, not an oracle: a change that moves a pinned
value must say why.
"""

from __future__ import annotations

import json
from pathlib import Path

from conftest import finite_type_cartan
from ywalk import compute_s_sets, compute_t_sets, format_root, run_walk, weyl_longest

ORDER = 8
TYPES = (
    [f"a{n}" for n in range(2, 9)]
    + [f"b{n}" for n in range(2, 7)]
    + [f"c{n}" for n in range(3, 7)]
    + [f"d{n}" for n in range(4, 9)]
    + ["e6", "e7", "e8", "f4", "g2"]
)
GOLDEN = Path(__file__).with_name("tables_atlas.json")


def tables(name: str) -> dict:
    """The word and the T and S tables of one finite type."""
    cartan = finite_type_cartan(name)
    word = weyl_longest(cartan)
    reports = [run_walk(cartan, word, b, ORDER) for b in range(1, cartan.rank + 1)]
    t_sets = compute_t_sets(reports)
    return {
        "word": list(word),
        "t": {
            f"{t.b},{t.c}": [format_root(*r) for r in t.roots]
            for t in t_sets
        },
        "s": {
            f"{s.b},{s.c}": [str(v) for v in s.values]
            for s in compute_s_sets(t_sets, cartan)
        },
    }


def main():
    atlas = {"order": ORDER, "types": {name: tables(name) for name in TYPES}}
    GOLDEN.write_text(json.dumps(atlas, separators=(",", ":"), sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
