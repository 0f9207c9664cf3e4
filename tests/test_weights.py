import random
from itertools import combinations_with_replacement

import pytest

from cycloschur.abacus import count_divisible_hooks, default_window, multi_beta
from cycloschur.partitions import (
    Multipartition,
    Partition,
    enumerate_multipartitions,
    hooks_multiset,
    parse_multipartition,
    partitions_of,
)
from cycloschur.weights import (
    bead_state,
    bgo_check,
    core,
    ecore_abacus,
    ecore_classical,
    fayers_weight,
    key_core,
    normalized_instance,
    residue_vector,
    residue_weight,
    terminal_core,
    uglov_weight,
)

RANK8_PAIR = parse_multipartition("2.1.1|2.1.1")  # charges (0,2), e=3


def _residues_by_node_sweep(mp, charges, e):
    counts = [0] * e
    for a, comp in enumerate(mp):
        for i, part in enumerate(comp, start=1):
            for j in range(1, part + 1):
                counts[(j - i + charges[a]) % e] += 1
    return tuple(counts)


def test_residue_vector_examples():
    assert residue_vector(Multipartition([(1,), ()]), (0, 0), 2) == (1, 0)
    assert residue_vector(Multipartition([(), ()]), (0, 0), 2) == (0, 0)
    rv = residue_vector(RANK8_PAIR, (0, 2), 3)
    assert rv == _residues_by_node_sweep(RANK8_PAIR, (0, 2), 3) == (3, 3, 2)
    assert sum(rv) == RANK8_PAIR.rank


def test_residue_vector_matches_node_sweep():
    for l in (1, 2):
        for n in range(0, 5):
            for mp in enumerate_multipartitions(l, n):
                for e in (2, 3):
                    for s in combinations_with_replacement(range(e), l):
                        assert residue_vector(mp, s, e) == (
                            _residues_by_node_sweep(mp, s, e)
                        )


def test_residue_vector_validation():
    with pytest.raises(ValueError):
        residue_vector(RANK8_PAIR, (0, 2), 1)
    with pytest.raises(ValueError):
        residue_vector(RANK8_PAIR, (0,), 2)
    with pytest.raises(ValueError, match="at least two counts"):
        residue_weight((1,), (0,))
    with pytest.raises(ValueError, match="nonnegative"):
        residue_weight((1, -1, 0), (0,))


def test_fayers_weight_examples():
    assert fayers_weight(Multipartition([(), ()]), (0, 0), 2) == 0
    assert fayers_weight(Multipartition([(1,), ()]), (0, 0), 2) == 1
    assert fayers_weight(RANK8_PAIR, (0, 2), 3) == 4


def test_uglov_weight_examples():
    assert uglov_weight(Multipartition([(), (), ()]), (0, 1, 2), 2) == 0
    assert uglov_weight(RANK8_PAIR, (0, 2), 3, 4) == 4
    assert uglov_weight(Multipartition([(), (1,)]), (0, 0), 2) == 1


def test_uglov_weight_preconditions():
    with pytest.raises(ValueError):
        uglov_weight(RANK8_PAIR, (2, 0), 3)  # unsorted
    with pytest.raises(ValueError):
        uglov_weight(RANK8_PAIR, (0, 4), 3)  # spread > e
    with pytest.raises(ValueError):
        uglov_weight(RANK8_PAIR, (0, 2), 1)
    with pytest.raises(ValueError):
        uglov_weight(RANK8_PAIR, (0, 2), 3, 3)  # window too small for (2,1,1)


def test_core_known_reduction():
    result = core(RANK8_PAIR, (0, 2), 3, 4)
    assert result.core == Multipartition([(2,), ()])
    assert result.weight == 4
    assert result.charges == (0, 2)
    # the terminal state has weight zero
    assert uglov_weight(result.core, result.charges, 3) == 0
    assert result.to_json() == {"core": "2|0", "charges": [0, 2], "weight": 4}


def test_core_fixed_points():
    assert core(Multipartition([(), ()]), (0, 0), 2).weight == 0
    for l in (1, 2):
        for n in range(0, 5):
            for mp in enumerate_multipartitions(l, n):
                for e in (2, 3):
                    for s in combinations_with_replacement(range(e), l):
                        result = core(mp, s, e)
                        again = core(result.core, result.charges, e)
                        assert again.weight == 0
                        assert again.core == result.core


def test_core_rank_never_grows():
    # the drop equals e * weight only at level 1; higher levels just shrink
    for n in range(0, 6):
        for mp in enumerate_multipartitions(2, n):
            result = core(mp, (0, 1), 2)
            assert result.core.rank <= mp.rank
    for n in range(0, 8):
        for mp in enumerate_multipartitions(1, n):
            result = core(mp, (0,), 3)
            assert mp.rank - result.core.rank == 3 * result.weight


def test_window_independence():
    for l in (1, 2, 3):
        for n in range(0, 5):
            for mp in enumerate_multipartitions(l, n):
                for e in (2, 3):
                    s = tuple(sorted(k % e for k in range(l)))
                    base = default_window(mp, s)
                    ref = core(mp, s, e, base)
                    for m in (base + 1, base + 4):
                        other = core(mp, s, e, m)
                        assert other.weight == ref.weight
                        assert other.core == ref.core


def test_strategy_independence():
    instances = [
        (RANK8_PAIR, (0, 2), 3),
        (parse_multipartition("3.1|2.1.1"), (0, 2), 2),
        (parse_multipartition("2|1|1.1"), (0, 1, 2), 2),
    ]
    for l in (2, 3):
        for n in range(0, 6 - l):
            for mp in enumerate_multipartitions(l, n):
                instances.append((mp, tuple(k % 2 for k in range(l)), 2))
    for mp, s, e in instances:
        s = tuple(sorted(s))
        expected = uglov_weight(mp, s, e)
        for seed in range(20):
            assert uglov_weight(mp, s, e, rng=random.Random(seed)) == expected


def test_ecore_classical_examples():
    for e in (2, 3, 4):
        assert ecore_classical(Partition((e,)), e) == (Partition(()), 1)
    assert ecore_classical(Partition((1, 1)), 2) == (Partition(()), 1)
    assert ecore_classical(Partition(()), 3) == (Partition(()), 0)


def test_ecore_routes_agree():
    for n in range(0, 11):
        for p in partitions_of(n):
            for e in (2, 3, 4, 5):
                classical = ecore_classical(p, e)
                beads = ecore_abacus(p, e)
                assert classical == beads, (p, e)
                assert (p.rank - classical[0].rank) == e * classical[1]


def test_level_one_consistency():
    for n in range(0, 11):
        for p in partitions_of(n):
            for e in (2, 3, 4, 5):
                weight = ecore_classical(p, e)[1]
                mp = Multipartition([p])
                assert weight == fayers_weight(mp, (0,), e)
                divisible = sum(
                    mult for v, mult in hooks_multiset(p).items() if v % e == 0
                )
                assert weight == divisible


def test_bgo_check():
    assert bgo_check(Partition(()), 3)
    for e in (2, 3, 4, 5, 6):
        assert bgo_check(Partition((5, 4, 2, 1, 1)), e)
    for n in range(0, 11):
        for p in partitions_of(n):
            for e in (2, 3, 4, 5):
                assert bgo_check(p, e)


def test_bgo_negative_control_at_level_two():
    from cycloschur.abacus import charged_hooks_direct

    lam_hooks = charged_hooks_direct(RANK8_PAIR, (0, 2))
    mu = parse_multipartition("2|0")
    mu_hooks = charged_hooks_direct(mu, (0, 2))
    assert mu_hooks.multiplicity(-2) == 1
    assert -2 not in lam_hooks


def test_proxy_block_key_examples():
    a = residue_vector(Multipartition([(1,), ()]), (0, 0), 2)
    b = residue_vector(Multipartition([(), (1,)]), (0, 0), 2)
    assert a == b
    c = residue_vector(Multipartition([(2,), ()]), (0, 0), 2)
    d = residue_vector(Multipartition([(1, 1), ()]), (0, 0), 2)
    assert c == d


def test_proxy_blocks_have_constant_weight_and_defect():
    from cycloschur.schur import defect_integer

    for l in (1, 2):
        for n in range(0, 6):
            for e in (2, 3):
                for s in combinations_with_replacement(range(e), l):
                    by_key = {}
                    for mp in enumerate_multipartitions(l, n):
                        key = residue_vector(mp, s, e)
                        by_key.setdefault(key, set()).add(
                            (fayers_weight(mp, s, e), defect_integer(mp, s, e))
                        )
                    assert all(len(v) == 1 for v in by_key.values())


def test_defect_zero_singletons_at_level_one():
    for n in range(0, 11):
        for e in (2, 3, 4, 5):
            by_key = {}
            for p in partitions_of(n):
                mp = Multipartition([p])
                by_key.setdefault(residue_vector(mp, (0,), e), []).append(mp)
            for members in by_key.values():
                if any(fayers_weight(mp, (0,), e) == 0 for mp in members):
                    assert len(members) == 1


def _random_instance(rng):
    l = rng.randint(1, 4)
    n = rng.randint(0, 8)
    e = rng.randint(2, 6)
    base = rng.randint(-5, 5)
    s = tuple(sorted(base + rng.randint(0, e) for _ in range(l)))
    comps = []
    remaining = n
    for a in range(l):
        k = rng.randint(0, remaining) if a < l - 1 else remaining
        remaining -= k
        parts = []
        while k:
            part = rng.randint(1, k)
            parts.append(part)
            k -= part
        comps.append(tuple(sorted(parts, reverse=True)))
    return Multipartition(comps), s, e


def test_three_way_equality_on_random_instances():
    # beyond the exhaustive grid: level 4, negative charges, and the
    # fundamental-domain boundary spread s_last = s_first + e
    from cycloschur.schur import defect_integer

    rng = random.Random(20240831)
    checked = 0
    while checked < 600:
        mp, s, e = _random_instance(rng)
        if s[-1] > s[0] + e:
            continue
        m = default_window(mp, s) + rng.randint(0, 3)
        fw = fayers_weight(mp, s, e)
        assert fw == uglov_weight(mp, s, e, m)
        assert fw == defect_integer(mp, s, e)
        assert fw == count_divisible_hooks(multi_beta(mp, s, m), e)
        checked += 1


def test_normalized_instance():
    mp = parse_multipartition("2|1|1.1")
    mp2, norm = normalized_instance(mp, (5, 1, 0), 3)
    assert norm == (0, 1, 2)
    # component with charge 0 sorts first, 1 second, 5 = 2 mod 3 last
    assert mp2 == parse_multipartition("1.1|1|2")
    # weights agree with the original residue computation
    assert fayers_weight(mp2, norm, 3) == fayers_weight(mp, (5, 1, 0), 3)


def test_potential_moves_rejects_a_potential_it_cannot_reach():
    # each transfer lowers the potential by exactly e: from the start
    # potential of RANK8_PAIR its weight, from the terminal one none, and
    # neither a start off by 1 nor one below the terminal is reachable
    charges, e = (0, 2), 3
    m = default_window(RANK8_PAIR, charges)
    totals, start = bead_state(multi_beta(RANK8_PAIR, charges, m).runners, e)
    result = terminal_core(totals, start, 1 - m, 2, e)
    assert result == core(RANK8_PAIR, charges, e, m)
    assert result.weight > 0
    terminal = start - e * result.weight
    assert terminal_core(totals, terminal, 1 - m, 2, e) == result._replace(weight=0)
    for bad in (start + 1, start - 1, terminal - e):
        with pytest.raises(ArithmeticError):
            terminal_core(totals, bad, 1 - m, 2, e)


@pytest.mark.parametrize("e", [2, 3, 4])
@pytest.mark.parametrize("l", [1, 2, 3])
def test_key_and_rank_fix_the_inputs_of_the_reduction(l, e):
    # the scan reduces each block key, which also fixes the rank: every
    # member of the scan grids, at the scan window and at four times it,
    # must have the core of its key
    for charges in combinations_with_replacement(range(e), l):
        for n in range(7):
            m = n + max(charges) + 1
            for mp in enumerate_multipartitions(l, n):
                key = residue_vector(mp, charges, e)
                for window in (m, 4 * m):
                    expected = core(mp, charges, e, window)
                    assert key_core(key, charges, window) == expected, (mp, charges, window)
