import random
from itertools import combinations_with_replacement

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cycloschur.abacus import (
    BetaConfig,
    bead_hooks,
    beta_numbers,
    charged_hooks_abacus,
    charged_hooks_direct,
    count_divisible_hooks,
    count_zero_hooks,
    default_window,
    hook_table,
    in_fundamental_domain,
    multi_beta,
    n_k,
    normalize_multicharge,
    partition_from_beta,
    render_abacus,
    zero_membership,
)
from cycloschur.partitions import (
    Multipartition,
    Partition,
    enumerate_multipartitions,
    parse_multipartition,
    partitions_of,
)

FIRST = parse_multipartition("2|1|1.1")          # charges (0,1,2)
SECOND = parse_multipartition("3.1|2.1.1")       # charges (0,2)


def first_cfg():
    return multi_beta(FIRST, (0, 1, 2), 3)


def second_cfg():
    return multi_beta(SECOND, (0, 2), 3)


def test_beta_numbers_examples():
    assert beta_numbers(Partition((5, 4, 2, 1, 1)), 0, 6) == (5, 3, 0, -2, -3, -5)
    assert beta_numbers(Partition(()), 0, 3) == (0, -1, -2)
    assert beta_numbers(Partition((1, 1)), 2, 3) == (3, 2, 0, -1, -2)


def test_beta_numbers_window_errors():
    with pytest.raises(ValueError):
        beta_numbers(Partition((5, 4, 2, 1, 1)), 0, 5)
    with pytest.raises(ValueError):
        beta_numbers(Partition(()), -3, 3)
    with pytest.raises(ValueError):
        beta_numbers(Partition((1,)), 0, 0)


def test_multi_beta_examples():
    assert first_cfg().runners == ((2, -1, -2), (2, 0, -1, -2), (3, 2, 0, -1, -2))
    assert second_cfg().runners == ((3, 0, -2), (4, 2, 1, -1, -2))
    empty = multi_beta(Multipartition([(), ()]), (0, 0), 2)
    assert empty.runners == ((0, -1), (0, -1))


def test_beta_config_validation():
    with pytest.raises(ValueError):
        BetaConfig(((2, -1),), (0,), 3)  # wrong bead count
    with pytest.raises(ValueError):
        BetaConfig(((2, -1, 0),), (0,), 3)  # not decreasing
    with pytest.raises(ValueError):
        BetaConfig(((2, 0, -1),), (0,), 3)  # wrong floor


def test_partition_from_beta_examples():
    assert partition_from_beta((5, 3, 0, -2, -3, -5), 6) == (Partition((5, 4, 2, 1, 1)), 0)
    assert partition_from_beta((0, -1, -2), 3) == (Partition(()), 0)
    assert partition_from_beta((3, 2, 0, -1, -2), 3) == (Partition((1, 1)), 2)
    with pytest.raises(ValueError):
        partition_from_beta((3, 0, -1), 3)


def test_partition_from_beta_rejects_a_repeated_bead():
    # with the check weakened to `<`, Partition still rejects the tuple,
    # but as not weakly decreasing: the message tells the checks apart
    with pytest.raises(ValueError, match="strictly decreasing"):
        partition_from_beta((3, 3, 0, -1, -2), 3)


@given(
    st.lists(st.integers(1, 7), max_size=5).map(
        lambda xs: Partition(sorted(xs, reverse=True))
    ),
    st.integers(-3, 3),
    st.integers(0, 4),
)
def test_beta_round_trip(p, s, extra):
    m = len(p) + max(0, -s) + 1 + extra
    assert partition_from_beta(beta_numbers(p, s, m), m) == (p, s)


def test_beta_round_trip_exhaustive():
    for n in range(0, 11):
        for p in partitions_of(n):
            for s in range(-3, 4):
                for m in range(1, 13):
                    if m + s < 1 or p.part(max(m + s, 1)) != 0 or m + s <= len(p):
                        continue
                    assert partition_from_beta(beta_numbers(p, s, m), m) == (p, s)


def test_charged_hooks_direct_known_multisets():
    assert charged_hooks_direct(SECOND, (0, 2)).elements() == (
        -2, 0, 0, 1, 1, 1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 5,
    )
    assert charged_hooks_direct(FIRST, (0, 1, 2)).elements() == (
        -2, -1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 3,
    )
    empty = Multipartition([(), (), ()])
    assert charged_hooks_direct(empty, (0, 5, 1)).elements() == ()


def test_charged_hooks_formatting():
    assert charged_hooks_direct(SECOND, (0, 2)).formatted() == (
        "-2^1 0^2 1^4 2^3 3^3 4^2 5^1"
    )


def test_bead_hooks_known_contributions():
    cfg = second_cfg()
    assert sorted(bead_hooks(cfg, 0, 3, 0) + bead_hooks(cfg, 0, 3, 1)) == sorted(
        [4, 2, 1, 3, 0, -2]
    )
    cfg1 = first_cfg()
    assert sorted(bead_hooks(cfg1, 2, 3, 0) + bead_hooks(cfg1, 2, 3, 1) + bead_hooks(cfg1, 2, 3, 2)) == [2, 2, 3]
    with pytest.raises(ValueError):
        bead_hooks(cfg, 0, 7, 0)


def test_cardinality():
    with_diag = charged_hooks_direct(SECOND, (0, 2), include_diagonal=True)
    without = charged_hooks_direct(SECOND, (0, 2), include_diagonal=False)
    n, l = SECOND.rank, SECOND.level
    assert with_diag.total == n * l
    assert without.total == n * (l - 1)


def sweep_instances(max_l=3, max_n=4, es=(2, 3)):
    for l in range(1, max_l + 1):
        for n in range(0, max_n + 1):
            for mp in enumerate_multipartitions(l, n):
                for e in es:
                    for s in combinations_with_replacement(range(e), l):
                        yield mp, s, e


def test_abacus_equals_direct_on_sweep():
    for mp, s, e in sweep_instances():
        cfg = multi_beta(mp, s)
        for diag in (True, False):
            assert (
                charged_hooks_abacus(cfg, diag).items
                == charged_hooks_direct(mp, s, diag).items
            )


def test_window_independence_of_hook_multisets():
    for mp, s, e in sweep_instances(max_l=3, max_n=4, es=(2,)):
        base = default_window(mp, s)
        reference = charged_hooks_abacus(multi_beta(mp, s, base)).items
        for m in (base + 1, base + 3):
            assert charged_hooks_abacus(multi_beta(mp, s, m)).items == reference


def test_zero_membership_examples():
    cfg = second_cfg()
    assert zero_membership(cfg, 1, 0, 4) is False
    assert zero_membership(cfg, 0, 1, 0) is True
    assert zero_membership(cfg, 1, 1, 4) is False
    nested = first_cfg()  # runners are nested, condition (i) always fails
    for c, runner in enumerate(nested.runners):
        for x in runner:
            for c2 in range(c, 3):
                assert zero_membership(nested, c, c2, x) is False
    with pytest.raises(ValueError):
        zero_membership(cfg, 0, 1, 99)


def test_zero_membership_matches_bead_hooks():
    for mp, s, e in sweep_instances(max_l=3, max_n=4, es=(2,)):
        cfg = multi_beta(mp, s)
        for c1, runner in enumerate(cfg.runners):
            for x in runner:
                for c2 in range(cfg.level):
                    assert zero_membership(cfg, c1, c2, x) == (
                        0 in bead_hooks(cfg, c1, x, c2)
                    )


def test_n_k_examples():
    cfg = first_cfg()
    assert n_k(cfg, 2, 3, 1, 2) == 3
    assert n_k(cfg, 2, 3, 1, 3) == 1
    # nested runners have vanishing k=0 terms
    for c, runner in enumerate(cfg.runners):
        for x in runner:
            assert n_k(cfg, c, x, 0) == 0
    with pytest.raises(ValueError):
        n_k(cfg, 0, 99, 0)
    with pytest.raises(ValueError):
        n_k(cfg, 0, 2, 1)  # k > 0 needs e


def test_count_zero_hooks_examples():
    assert count_zero_hooks(second_cfg()) == 2
    assert count_zero_hooks(first_cfg()) == 0
    empty = multi_beta(Multipartition([(), ()]), (0, 0), 2)
    assert count_zero_hooks(empty) == 0
    unsorted_cfg = multi_beta(Multipartition([(), ()]), (2, 0), 3)
    with pytest.raises(ValueError):
        count_zero_hooks(unsorted_cfg)


def test_count_zero_matches_multiplicity_of_zero():
    for mp, s, e in sweep_instances(max_l=3, max_n=4, es=(2,)):
        cfg = multi_beta(mp, s)
        assert count_zero_hooks(cfg) == charged_hooks_direct(mp, s).multiplicity(0)


def test_count_divisible_examples():
    assert count_divisible_hooks(first_cfg(), 2) == 6
    assert count_divisible_hooks(first_cfg(), 3) == 1
    assert count_divisible_hooks(first_cfg(), 5) == 0
    assert count_divisible_hooks(second_cfg(), 2) == 8
    with pytest.raises(ValueError):
        count_divisible_hooks(second_cfg(), 1)
    outside = multi_beta(Multipartition([(), ()]), (0, 4), 5)
    with pytest.raises(ValueError):
        count_divisible_hooks(outside, 3)


def test_count_divisible_matches_multiset():
    for mp, s, e in sweep_instances(max_l=3, max_n=4, es=(2, 3, 4, 5)):
        cfg = multi_beta(mp, s)
        expected = sum(
            mult
            for v, mult in charged_hooks_direct(mp, s).items
            if v % e == 0
        )
        assert count_divisible_hooks(cfg, e) == expected


def test_hook_table_matches_the_recurrence():
    # P[i] counts the gaps at i - e, i - 2e, ... and Q[i] adds the gap at
    # i, written out position by position on random runners given by all
    # their beads at or above base, a packed run from base up among them;
    # the first two runners are empty, the second with no gap at all
    rng = random.Random(11)
    cases = [((), -3, 3, 2, -4), ((), -3, 3, 2, 3)]
    for _ in range(400):
        e, base = rng.randint(2, 6), rng.randint(-8, 2)
        top = base + rng.randint(0, 20)
        full = rng.randint(base - 1, top)
        beads = sorted(rng.sample(range(full + 1, top + 1), rng.randint(0, top - full)))
        cases.append((tuple(reversed(beads)), base, top, e, full))
    for beads, base, top, e, full in cases:
        packed = range(base, full + 1)
        occupied = set(beads).union(packed)
        gap = [int(base + i not in occupied) for i in range(top - base + 1)]
        p = [sum(gap[j] for j in range(i - e, -1, -e)) for i in range(len(gap))]
        q = [pi + g for pi, g in zip(p, gap)]
        assert hook_table(sorted(occupied, reverse=True), base, top, e) == (p, q), (
            beads, base, top, e, full
        )


def test_in_fundamental_domain():
    assert in_fundamental_domain((0, 2), 3)
    assert in_fundamental_domain((0, 3), 3)
    assert not in_fundamental_domain((0, 4), 3)
    assert not in_fundamental_domain((2, 0), 3)
    assert in_fundamental_domain((5,), 2)


def test_normalize_multicharge():
    assert normalize_multicharge((0, 2), 3) == ((0, 2), (0, 1))
    assert normalize_multicharge((5, 1), 3) == ((1, 2), (1, 0))
    assert normalize_multicharge((0, 0, 0), 4) == ((0, 0, 0), (0, 1, 2))
    norm, perm = normalize_multicharge((7, -2, 3), 4)
    assert norm == (2, 3, 3)
    assert sorted(perm) == [0, 1, 2]
    assert perm[1] == 0  # -2 mod 4 = 2 sorts first


def test_render_abacus():
    empty = render_abacus(multi_beta(Multipartition([()]), (0,), 3))
    rows = empty.splitlines()
    assert len(rows) == 2  # one runner plus the label row
    assert "|" in rows[0]
    beads = render_abacus(multi_beta(Multipartition([Partition((5, 4, 2, 1, 1))]), (0,), 6))
    bead_row, label_row = beads.splitlines()
    width = max(len("-5"), len("7"))
    cells = [bead_row[k : k + width].strip() for k in range(0, len(bead_row), width + 1)]
    labels = [label_row[k : k + width].strip() for k in range(0, len(label_row), width + 1)]
    positions = {int(lab) for lab, cell in zip(labels, cells) if cell == "*"}
    assert positions == {5, 3, 0, -2, -3, -5}
    stacked = render_abacus(first_cfg())
    assert len(stacked.splitlines()) == 4  # three runners on top of the labels
