"""The window-independent hook count and bead reduction against their
brute-force routes, over every small member and fundamental-domain
multicharge, at the default window and at four times it."""

import ast
import os
import random
import subprocess
import sys
from itertools import combinations_with_replacement
from pathlib import Path

import pytest

import cycloschur
from cycloschur.abacus import (
    active_beads,
    charged_hooks_direct,
    count_divisible_hooks,
    default_window,
    multi_beta,
)
from cycloschur.partitions import enumerate_multipartitions, parse_multipartition
from cycloschur.weights import bead_state, core, terminal_core, uglov_weight

SEEDS = (0, 1, 2)


def fundamental_charges(l: int, e: int):
    """Sorted multicharges with 0 = s_0 <= ... <= s_{l-1} <= e."""
    for rest in combinations_with_replacement(range(e + 1), l - 1):
        yield (0, *rest)


@pytest.mark.parametrize("e", [2, 3, 4])
@pytest.mark.parametrize("l", [1, 2, 3])
def test_fast_paths_match_brute_force(l, e):
    for n in range(8):
        for index, mp in enumerate(enumerate_multipartitions(l, n)):
            for s in fundamental_charges(l, e):
                hooks = charged_hooks_direct(mp, s)
                divisible = sum(mult for v, mult in hooks.items if v % e == 0)
                m = default_window(mp, s)
                # the move-by-move reduction in a random order, one seed per member
                rng = random.Random(SEEDS[index % len(SEEDS)])
                moves = uglov_weight(mp, s, e, m, rng=rng)
                results = []
                for window in (m, 4 * m):
                    cfg = multi_beta(mp, s, window)
                    assert count_divisible_hooks(cfg, e) == divisible, (mp, s, window)
                    result = core(mp, s, e, window)
                    assert result.weight == moves, (mp, s, window)
                    results.append(result)
                assert results[0] == results[1], (mp, s)


@pytest.mark.parametrize("e", [2, 3, 4])
@pytest.mark.parametrize("l", [1, 2, 3])
def test_floor_class_totals_match_core(l, e):
    # the scan's route: the class totals and potential of whole runners
    # packed from the window floor, against core and the move-by-move
    # reduction
    for n in range(7):
        for index, mp in enumerate(enumerate_multipartitions(l, n)):
            for s in fundamental_charges(l, e):
                m = default_window(mp, s)
                rng = random.Random(SEEDS[index % len(SEEDS)])
                moves = uglov_weight(mp, s, e, m, rng=rng)
                for window in (m, 4 * m):
                    totals, start = bead_state(multi_beta(mp, s, window).runners, e)
                    result = terminal_core(totals, start, 1 - window, l, e)
                    assert result == core(mp, s, e, window), (mp, s, window)
                    assert result.weight == moves, (mp, s, window)


def test_active_beads():
    # runners 2|1|1.1 at charges (0,1,2): the lowest gaps are 0, 1 and 1
    cfg = multi_beta(parse_multipartition("2|1|1.1"), (0, 1, 2), 3)
    assert active_beads(cfg) == (0, ((2,), (2, 0), (3, 2, 0)))
    # the same answer at any window
    wide = multi_beta(parse_multipartition("2|1|1.1"), (0, 1, 2), 30)
    assert active_beads(wide) == active_beads(cfg)
    empty = multi_beta(parse_multipartition("0|0"), (1, 1), 4)
    assert active_beads(empty) == (2, ((), ()))
    assert count_divisible_hooks(empty, 2) == 0


def test_invariant_checks_survive_optimize():
    # python -O strips assert statements; the rank check must still fire
    script = (
        "import sys\n"
        "import cycloschur.abacus as ab\n"
        "from cycloschur.partitions import parse_multipartition\n"
        "assert False, 'asserts must be off'\n"
        "cfg = ab.multi_beta(parse_multipartition('3.1|2.1.1'), (0, 2))\n"
        "real = ab._delta\n"
        "ab._delta = lambda runner, m, x: real(runner, m, x) + 1\n"
        "try:\n"
        "    ab.charged_hooks_abacus(cfg)\n"
        "except ArithmeticError as exc:\n"
        "    print('raised', sys.flags.optimize)\n"
    )
    src = str(Path(cycloschur.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["raised", "1"]


def test_src_has_no_assert_statements():
    # python -O strips assert statements, so no runtime invariant may rely on one
    package = Path(cycloschur.__file__).resolve().parent
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not lines, (path.name, lines)
