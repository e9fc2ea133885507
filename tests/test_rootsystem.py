"""Cartan validation, rho-descent Weyl data, the inversion sweep, path
exponents, dimension formula."""

from __future__ import annotations

import ast
import os
import random
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

from conftest import finite_type_cartan
from make_tables_atlas import TYPES as ATLAS_TYPES
from test_cli import _write_algebra
from test_invariance import WORD_SEEDS, WORDS_PER_TYPE, random_longest_word
from ywalk import cyclicity, rootsystem
from ywalk.cli import main
from ywalk.rootsystem import (
    CartanData,
    InputError,
    InvalidCartanError,
    is_reduced_word_of_longest,
    lowest_weight,
    path_exponents,
    positive_roots,
    reflect,
    validate_cartan,
    weyl_dim,
    weyl_longest,
    weyl_order,
)
from ywalk.verify import G2_WORD
from ywalk.walk import run_walk

G2_REDUCED_WORDS = ((1, 2, 1, 2, 1, 2), (2, 1, 2, 1, 2, 1))


def test_validate_g2():
    data = validate_cartan(((2, -1), (-3, 2)), (3, 1))
    assert data.rank == 2
    assert data.aij(2, 1) == -3
    assert data.di(1) == 3


def test_validate_a1():
    assert validate_cartan(((2,),), (1,)).rank == 1


@pytest.mark.parametrize(
    "a, d",
    [
        (((2, -1), (-1, 2)), (3, 1)),  # DA asymmetric for this D
        (((2, -2), (-2, 2)), (1, 1)),  # affine: not positive definite
        (((1, -1), (-1, 2)), (1, 1)),  # diagonal entry not 2
        (((2, 0), (-1, 2)), (1, 1)),  # zero pattern not symmetric
        (((2, -1), (-1, 2)), (2, 2)),  # symmetrizers not coprime
        (((2, -1), (-1, 2)), (1, 0)),  # non-positive symmetrizer
    ],
)
def test_validate_rejects(a, d):
    with pytest.raises(InvalidCartanError):
        validate_cartan(a, d)


def test_weyl_longest_g2(g2):
    word = weyl_longest(g2)
    assert weyl_order(g2) == 12
    assert len(word) == 6
    assert word == G2_WORD
    # w0 = -identity for this root system
    for i in (1, 2):
        assert lowest_weight(g2, g2.fundamental(i)) == tuple(
            -x for x in g2.fundamental(i)
        )


def test_weyl_longest_a1(a1):
    assert weyl_order(a1) == 2
    assert weyl_longest(a1) == (1,)


def test_weyl_longest_a2(a2):
    word = weyl_longest(a2)
    assert weyl_order(a2) == 6  # symmetric group on 3 letters
    assert len(word) == 3
    assert word == (1, 2, 1)  # lexicographically least reduced word


def test_simple_reflections_are_involutions(g2, a2):
    for cartan in (g2, a2):
        for i in (1, 2):
            for j in (1, 2):
                fund = cartan.fundamental(j)
                assert reflect(cartan, i, reflect(cartan, i, fund)) == fund


def test_w0_is_antidominant(g2, a2):
    for cartan in (g2, a2):
        word = weyl_longest(cartan)
        for i in range(1, cartan.rank + 1):
            image = lowest_weight(cartan, cartan.fundamental(i))
            assert all(x <= 0 for x in image)
            # the same weight as w0(omega_i) read off the longest word
            applied = cartan.fundamental(i)
            for r in reversed(word):
                applied = reflect(cartan, r, applied)
            assert image == applied


def test_path_exponents_g2(g2):
    assert path_exponents(g2, G2_WORD, 1).exponents == (1, 3, 2, 3, 1, 0)
    assert path_exponents(g2, G2_WORD, 2).exponents == (0, 1, 1, 2, 1, 1)


def test_path_exponents_a1(a1):
    assert path_exponents(a1, (1,), 1).exponents == (1,)


def test_path_exponents_rejects_non_reduced_word(g2):
    with pytest.raises(ValueError):
        path_exponents(g2, (1, 1, 2, 1, 2, 2), 1)
    with pytest.raises(ValueError):
        path_exponents(g2, (1, 2, 1), 1)


def test_exponent_drops_close_the_orbit(g2):
    # sum_j m_j alpha_{r_j} must equal omega_i - w0(omega_i)
    for word in G2_REDUCED_WORDS:
        for i in (1, 2):
            exps = path_exponents(g2, word, i).exponents
            assert all(m >= 0 for m in exps)
            drop = [0, 0]
            for r, m in zip(word, exps):
                for row in range(2):
                    drop[row] += m * g2.aij(row + 1, r)
            fund = g2.fundamental(i)
            image = lowest_weight(g2, fund)
            assert tuple(drop) == tuple(f - w for f, w in zip(fund, image))


def test_reduced_words_of_g2_longest(g2):
    # exhaustive over words of the right length, letters 0 and 3 out of range
    words = [
        w for w in product(range(4), repeat=6) if is_reduced_word_of_longest(g2, w)
    ]
    assert set(words) == set(G2_REDUCED_WORDS)


def test_positive_root_count(g2, a1, a2):
    assert len(positive_roots(g2)) == 6
    assert len(positive_roots(a1)) == 1
    assert len(positive_roots(a2)) == 3


def _positive_roots_reference(cartan):
    """Breadth-first closure of the simple roots under the simple
    reflections, then the positive half: a search over the whole root
    system, independent of any reduced word."""
    l = cartan.rank

    def reflect_root(v, i):
        pairing = sum(cartan.a[i][j] * v[j] for j in range(l))
        return tuple(v[j] - (pairing if j == i else 0) for j in range(l))

    roots = {tuple(1 if j == i else 0 for j in range(l)) for i in range(l)}
    frontier = list(roots)
    while frontier:
        nxt = []
        for v in frontier:
            for i in range(l):
                w = reflect_root(v, i)
                if w not in roots:
                    roots.add(w)
                    nxt.append(w)
        frontier = nxt
    return sorted(v for v in roots if all(c >= 0 for c in v))


# |positive roots|: n(n+1)/2 in type A_n, n^2 in B_n and C_n, n(n-1) in D_n
POSITIVE_ROOT_COUNTS = {
    **{f"a{n}": n * (n + 1) // 2 for n in range(1, 9)},
    **{f"b{n}": n * n for n in range(2, 5)},
    **{f"c{n}": n * n for n in range(2, 5)},
    **{f"d{n}": n * (n - 1) for n in range(4, 8)},
    "e6": 36, "e7": 63, "e8": 120, "f4": 24, "g2": 6,
}


@pytest.mark.parametrize("name", sorted(POSITIVE_ROOT_COUNTS))
def test_positive_roots_match_the_root_system_search(finite_type, name):
    cartan = finite_type(name)
    roots = positive_roots(cartan)
    assert roots == _positive_roots_reference(cartan)
    assert len(roots) == POSITIVE_ROOT_COUNTS[name]


def test_positive_roots_reject_affine_data():
    # A_1^(1), built without validation: the longest word does not exist
    affine = CartanData(2, ((2, -2), (-2, 2)), (1, 1))
    with pytest.raises(InvalidCartanError):
        positive_roots(affine)


def test_weyl_dim_g2(g2):
    assert weyl_dim(g2, (0, 1)) == 7
    assert weyl_dim(g2, (1, 0)) == 14
    assert weyl_dim(g2, (0, 0)) == 1
    assert weyl_dim(g2, (1, 1)) == 64


def test_weyl_dim_a1(a1):
    for m in range(6):
        assert weyl_dim(a1, (m,)) == m + 1


def test_weyl_dim_a2(a2):
    # dim V(a, b) = (a+1)(b+1)(a+b+2)/2
    for a in range(3):
        for b in range(3):
            assert weyl_dim(a2, (a, b)) == (a + 1) * (b + 1) * (a + b + 2) // 2


def test_weyl_dim_rejects_non_dominant(g2):
    with pytest.raises(ValueError):
        weyl_dim(g2, (-1, 0))


def test_broken_weyl_invariants_raise_without_assert(g2, monkeypatch, capsys):
    # (lam + rho, alpha) = 3 over (rho, alpha) = 2: not an integer dimension
    with pytest.raises(ArithmeticError, match="Weyl dimension 3/2"):
        rootsystem._weyl_dims([(1, 1)], (1, 1), [(1, 0)])
    monkeypatch.setattr(rootsystem, "positive_roots", lambda cartan: [(1, 1)])
    with pytest.raises(ArithmeticError, match="Weyl group order 3/2"):
        weyl_order(g2)
    # not an InputError: the command line reports an internal fault, exit 3
    monkeypatch.setattr(cyclicity, "positive_roots", lambda cartan: [(1, 1)])
    assert main(["dim", "--weights", "1,1", "--fund-dims", "14,7"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: ArithmeticError(")


def test_library_has_no_assert_statements():
    # python -O strips assert, so no invariant of the library may rest on one
    for path in sorted(Path(rootsystem.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        asserts = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert asserts == [], f"{path.name}: assert at lines {asserts}"


# The engine computes every answer; the oracle side (sl2 and the verify
# suites, and cli, which runs them) checks the engine from outside.
ENGINE = {"exact", "rootsystem", "walk", "cyclicity"}
ORACLE_SIDE = {"sl2", "verify", "cli"}


def _package_imports(tree):
    """(module, name, line) per name a ywalk module imports from a sibling;
    name is None where the sibling module itself is imported."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1:
                base = node.module
            elif node.level == 0 and (node.module or "").startswith("ywalk"):
                base = node.module.partition(".")[2] or None
            else:
                continue
            for alias in node.names:
                if base is None:
                    yield alias.name, None, node.lineno
                else:
                    yield base, alias.name, node.lineno
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("ywalk."):
                    yield alias.name.split(".")[1], None, node.lineno


def test_engine_and_oracle_modules_keep_their_boundary():
    package = Path(rootsystem.__file__).parent
    assert ENGINE | ORACLE_SIDE <= {path.stem for path in package.glob("*.py")}
    faults = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        imports = list(_package_imports(tree))
        if path.stem in ENGINE:
            # (a) the engine reads nothing from the oracle side
            faults += [
                f"{path.name}:{line} imports from {module}"
                for module, _, line in imports
                if module in ORACLE_SIDE
            ]
        if path.stem in ORACLE_SIDE:
            # (b) the oracle side reads only the engine's public names
            faults += [
                f"{path.name}:{line} imports {module}.{name}"
                for module, name, line in imports
                if module in ENGINE and name and name.startswith("_")
            ]
            whole = {module for module, name, _ in imports if name is None}
            faults += [
                f"{path.name}:{node.lineno} reads {node.value.id}.{node.attr}"
                for node in ast.walk(tree)
                if isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in whole & ENGINE
                and node.attr.startswith("_")
            ]
    assert faults == []
    # (c) importing the library loads neither the verify suites nor the CLI
    script = "import sys, ywalk; print(sorted(m for m in sys.modules if m.startswith('ywalk')))"
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=60,
        env=dict(os.environ, PYTHONPATH=str(package.parent)),
    )
    assert result.returncode == 0, result.stderr
    assert not {"ywalk.verify", "ywalk.cli"} & set(ast.literal_eval(result.stdout))


# ---------------------------------------------------- rho-descent, pinned data


def test_weyl_longest_f4_lex_least(f4):
    assert weyl_longest(f4) == (
        1, 2, 1, 3, 2, 1, 3, 2, 3, 4, 3, 2, 1, 3, 2, 3, 4, 3, 2, 1, 3, 2, 3, 4
    )


def test_weyl_order_literals(b3, f4, e6, e8):
    assert weyl_order(b3) == 48
    assert weyl_order(f4) == 1152
    assert weyl_order(e6) == 51_840
    assert weyl_order(e8) == 696_729_600


def test_e6_lowest_weight_is_not_minus_the_weight(e6):
    # w0 != -1 on E6: it swaps omega_1 and omega_6
    assert lowest_weight(e6, e6.fundamental(1)) == (0, 0, 0, 0, 0, -1)


def test_e8_longest_word_is_reduced(e8):
    word = weyl_longest(e8)
    assert len(word) == 120
    assert is_reduced_word_of_longest(e8, word)
    # the same prefix with any other last letter is a different element
    assert not is_reduced_word_of_longest(e8, word[:-1] + (word[-1] % 8 + 1,))


def _chain(rank):
    return [
        [2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(rank)]
        for i in range(rank)
    ]


def test_validate_large_rank():
    assert validate_cartan(_chain(40), [1] * 40).rank == 40
    # A_38 followed by the affine block of A_1^(1): only the last pivot fails
    a = _chain(40)
    a[37][38] = a[38][37] = 0
    a[38][39] = a[39][38] = -2
    with pytest.raises(InvalidCartanError, match="positive definite"):
        validate_cartan(a, [1] * 40)


# ------------------------------------------------ descent-sign reduced words


def _reduced_reference(cartan, word, n_positive):
    """The length-plus-image rule: n_positive = |positive roots| letters in
    range that send rho to -rho."""
    if len(word) != n_positive:
        return False
    if any(not 1 <= r <= cartan.rank for r in word):
        return False
    v = (1,) * cartan.rank
    for r in reversed(word):
        v = reflect(cartan, r, v)
    return v == (-1,) * cartan.rank


@pytest.mark.parametrize("name, reduced", [("a1", 1), ("a2", 2), ("b2", 2), ("g2", 2)])
def test_descent_signs_match_the_length_and_image_rule(request, name, reduced):
    # every word over {0..rank+1} (letters 0 and rank+1 out of range) at
    # lengths |positive roots| - 1 .. |positive roots| + 2; only the sign
    # test rejects a word of length + 2 that still sends rho to -rho
    cartan = request.getfixturevalue(name)
    n = len(_positive_roots_reference(cartan))
    accepted = 0
    for length in range(n - 1, n + 3):
        for word in product(range(cartan.rank + 2), repeat=length):
            expected = _reduced_reference(cartan, word, n)
            assert is_reduced_word_of_longest(cartan, word) == expected, word
            accepted += expected
    assert accepted == reduced


def test_words_and_walks_enumerate_no_roots(monkeypatch, g2, f4):
    def no_enumeration(cartan):
        raise AssertionError("positive_roots was called")

    monkeypatch.setattr(rootsystem, "positive_roots", no_enumeration)
    for cartan in (g2, f4):
        word = weyl_longest(cartan)
        assert is_reduced_word_of_longest(cartan, word)
        for i in range(1, cartan.rank + 1):
            exps = path_exponents(cartan, word, i)
            report = run_walk(cartan, word, i, 8)
            assert report.exponents == exps.exponents


# ------------------------------------------------------- the inversion sweep


def _path_exponents_reference(cartan, word, fundamental):
    """m_j = coordinate r_j of s_{r_{j+1}}..s_{r_p}(omega_b), by reflecting
    omega_b letter by letter from the right end of the word."""
    current = cartan.fundamental(fundamental)
    exps = [0] * len(word)
    for j in range(len(word), 0, -1):
        r = word[j - 1]
        exps[j - 1] = current[r - 1]
        current = reflect(cartan, r, current)
    return tuple(exps)


def _sweep_words(name):
    cartan = finite_type_cartan(name)
    word = weyl_longest(cartan)
    words = [word, word[::-1]]
    if name in WORD_SEEDS:
        rng = random.Random(WORD_SEEDS[name])
        words += [random_longest_word(cartan, rng) for _ in range(WORDS_PER_TYPE)]
    return cartan, words


@pytest.mark.parametrize("name", ATLAS_TYPES)
def test_path_exponents_match_the_reflection_reference(name):
    cartan, words = _sweep_words(name)
    for word in words:
        for b in range(1, cartan.rank + 1):
            want = _path_exponents_reference(cartan, word, b)
            assert path_exponents(cartan, word, b).exponents == want, (word, b)


def test_word_forms_read_the_same_sweep(g2):
    word = list(G2_WORD)
    first = path_exponents(g2, word, 1)
    assert first == path_exponents(g2, G2_WORD, 1)
    assert first.word == G2_WORD
    # the sweep is cached on the letters as a tuple, not on the caller's list
    word[:] = G2_REDUCED_WORDS[1]
    fresh = path_exponents(g2, word, 1)
    assert fresh.word == G2_REDUCED_WORDS[1]
    assert fresh.exponents == _path_exponents_reference(g2, word, 1)
    assert fresh.exponents != first.exponents
    word[0] = 1
    assert not is_reduced_word_of_longest(g2, word)
    with pytest.raises(InputError, match="not a reduced word"):
        path_exponents(g2, word, 1)
    # a word that is not a sequence is rejected, as is a non-integer letter
    with pytest.raises(InputError, match="not a reduced word"):
        path_exponents(g2, (r for r in G2_WORD), 1)
    assert not is_reduced_word_of_longest(g2, (r for r in G2_WORD))


def test_a_broken_exponent_invariant_raises_without_assert(g2, monkeypatch, capsys):
    # beta = alpha_2 read at a letter 1 gives m = 1 * d_2 / d_1 = 1/3
    monkeypatch.setattr(rootsystem, "_inversions", lambda cartan, word: ((0, 1),) * 6)
    with pytest.raises(ArithmeticError, match="path exponents"):
        path_exponents(g2, G2_WORD, 2)
    assert main(["path", "--weight", "2"]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("internal error: ArithmeticError(")


def test_one_sweep_serves_a_whole_tables_query(capsys, tmp_path, e8):
    algebra = _write_algebra(tmp_path / "e8.alg", e8)
    rootsystem._inversions.cache_clear()
    assert main(["tables", "--algebra", algebra, "--format", "json"]) == 0
    capsys.readouterr()
    info = rootsystem._inversions.cache_info()
    # the word check misses; the walk of each of the 8 fundamentals hits
    assert info.misses == 1
    assert info.hits >= 8


def test_weyl_longest_rejects_affine_data():
    # A_1^(1), built without validation: rho-descent never ends
    affine = CartanData(2, ((2, -2), (-2, 2)), (1, 1))
    with pytest.raises(InvalidCartanError):
        weyl_longest(affine)
