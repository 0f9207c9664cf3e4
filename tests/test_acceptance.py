"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  Every tolerance is exact: all quantities are
integers or exact multisets, so each assertion is equality.
"""

from itertools import combinations_with_replacement, product

import pytest

import cycloschur as cs
from cycloschur.scanning import scan


def report(criterion, text):
    print(f"ACCEPTANCE {criterion} PASS: {text}")


FIRST = cs.parse_multipartition("2|1|1.1")        # charges (0,1,2), window 3
SECOND = cs.parse_multipartition("3.1|2.1.1")     # charges (0,2), window 3
PAIR = cs.parse_multipartition("2.1.1|2.1.1")     # charges (0,2), e = 3
PAIR_CORE = cs.parse_multipartition("2|0")


def grid():
    for l in (1, 2, 3):
        for n in range(0, 7):
            mps = list(cs.enumerate_multipartitions(l, n))
            for e in (2, 3, 4):
                for s in combinations_with_replacement(range(e), l):
                    yield l, n, e, s, mps


def test_criterion_1_beta_numbers():
    assert cs.beta_numbers(cs.Partition((5, 4, 2, 1, 1)), 0, 6) == (5, 3, 0, -2, -3, -5)
    assert cs.multi_beta(FIRST, (0, 1, 2), 3).runners == (
        (2, -1, -2),
        (2, 0, -1, -2),
        (3, 2, 0, -1, -2),
    )
    assert cs.multi_beta(SECOND, (0, 2), 3).runners == (
        (3, 0, -2),
        (4, 2, 1, -1, -2),
    )
    report(1, "pinned beta-number tuples reproduced byte for byte")


def test_criterion_2_charged_hook_multisets():
    assert cs.charged_hooks_direct(SECOND, (0, 2)).elements() == (
        -2, 0, 0, 1, 1, 1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 5,
    )
    assert cs.charged_hooks_direct(FIRST, (0, 1, 2)).elements() == (
        -2, -1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 3,
    )
    lam_hooks = cs.charged_hooks_direct(PAIR, (0, 2))
    assert lam_hooks.elements() == (
        -1, -1, 0, 1, 1, 1, 1, 2, 2, 2, 3, 3, 4, 4, 4, 6,
    )
    mu_hooks = cs.charged_hooks_direct(PAIR_CORE, (0, 2))
    assert mu_hooks.elements() == (-2, -1, 1, 2)
    assert -2 in mu_hooks and -2 not in lam_hooks
    report(2, "pinned hook multisets match, including the -2 negative control")


def test_criterion_3_pinned_counts():
    second = cs.multi_beta(SECOND, (0, 2), 3)
    assert cs.count_zero_hooks(second) == 2
    assert cs.count_divisible_hooks(second, 2) == 8
    first = cs.multi_beta(FIRST, (0, 1, 2), 3)
    assert cs.count_zero_hooks(first) == 0
    assert cs.count_divisible_hooks(first, 2) == 6
    assert cs.count_divisible_hooks(first, 3) == 1
    for e in (4, 5, 6, 7):
        assert cs.count_divisible_hooks(first, e) == 0
    assert cs.n_k(first, 2, 3, 1, 2) == 3
    assert cs.n_k(first, 2, 3, 1, 3) == 1
    report(3, "zero/even/mod-3 counts and the bead counting terms match")


def test_criterion_4_core_of_rank8_pair():
    result = cs.core(PAIR, (0, 2), 3)
    assert result.core == PAIR_CORE
    assert result.weight == 4
    multiples = sum(
        mult
        for v, mult in cs.charged_hooks_direct(PAIR, (0, 2)).items
        if v % 3 == 0
    )
    assert multiples == 4 == result.weight
    report(4, "core 2|0 with weight 4, matching the multiple-of-3 count")


def test_criterion_5_general_defect_example():
    mp = cs.parse_multipartition("2|0|0")
    at_eta3 = cs.CycloSpec(3, (0, 0, 1), 1, cs.RootOfUnity(12, 4))
    at_eta3_sq = cs.CycloSpec(3, (0, 0, 1), 1, cs.RootOfUnity(12, 8))
    assert cs.defect_general(mp, at_eta3) == 2
    assert cs.defect_general(mp, at_eta3_sq) == 0
    report(5, "level-3 example gives defect 2 at the order-3 root and 0 at its square")


def test_criterion_6_three_way_equality():
    checked = 0
    for l, n, e, s, mps in grid():
        m = n + max(s, default=0) + 1
        for mp in mps:
            fw = cs.fayers_weight(mp, s, e)
            uw = cs.uglov_weight(mp, s, e, m)
            di = cs.defect_integer(mp, s, e)
            nk = cs.count_divisible_hooks(cs.multi_beta(mp, s, m), e)
            assert fw == uw == di == nk, (mp, s, e, fw, uw, di, nk)
            checked += 1
    report(6, f"residue weight = reduction weight = defect = hook count on {checked} instances")


def test_criterion_7_scan_block_invariance():
    runs = violations = 0
    for l in (1, 2, 3):
        for n in range(0, 7):
            for e in (2, 3, 4):
                for s in combinations_with_replacement(range(e), l):
                    result = scan(l, n, e, s)
                    violations += result.violations
                    runs += 1
    assert violations == 0
    report(7, f"scan reports zero violations over {runs} grid points")


def test_criterion_8_oracle_equivalences():
    hook_checks = 0
    for l, n, e, s, mps in grid():
        for mp in mps:
            cfg = cs.multi_beta(mp, s)
            assert (
                cs.charged_hooks_abacus(cfg).items
                == cs.charged_hooks_direct(mp, s).items
            )
            hook_checks += 1

    poly_checks = 0
    for l in (1, 2, 3):
        for n in range(0, 6):
            for mp in cs.enumerate_multipartitions(l, n):
                for e in (2, 3):
                    for s in combinations_with_replacement(range(2 * e), l):
                        try:
                            poly = cs.specialize_integer(mp, s)
                        except cs.BadSpecialisationError:
                            continue
                        assert cs.nu_phi(poly, e) == cs.defect_integer(mp, s, e)
                        assert cs.defect_integer(mp, s, 1) == mp.rank * (l - 1)
                        poly_checks += 1

    for n in range(0, 11):
        for p in cs.partitions_of(n):
            for e in (2, 3, 4, 5):
                assert cs.ecore_classical(p, e) == cs.ecore_abacus(p, e)
    report(
        8,
        f"hook multisets agree on {hook_checks} instances, factor rule matches the "
        f"polynomial valuation on {poly_checks} good instances, both core routes agree",
    )


def test_criterion_9_core_hook_containment():
    for n in range(0, 11):
        for p in cs.partitions_of(n):
            for e in (2, 3, 4, 5):
                assert cs.bgo_check(p, e)
    lam_hooks = cs.charged_hooks_direct(PAIR, (0, 2))
    mu_hooks = cs.charged_hooks_direct(PAIR_CORE, (0, 2))
    assert mu_hooks.multiplicity(-2) == 1 and -2 not in lam_hooks
    report(9, "hook containment holds for partitions and fails on the level-2 pair")


def test_criterion_10_shift_and_package_suites():
    defect_checks = poly_checks = 0
    for p, d in [(1, 1), (2, 1), (3, 1), (4, 1), (1, 2), (2, 2), (1, 3), (1, 4)]:
        level = p * d
        for n in range(0, 5):
            for mp in cs.enumerate_multipartitions(level, n):
                shifted = cs.sigma(mp, d)
                for e in (2, 3):
                    for base in product(range(e), repeat=d):
                        s = tuple(base[k % d] for k in range(level))
                        assert cs.defect_integer(mp, s, e) == cs.defect_integer(
                            shifted, s, e
                        )
                        defect_checks += 1
                        try:
                            assert cs.sigma_schur_invariance(mp, d, p, s)
                            poly_checks += 1
                        except cs.BadSpecialisationError:
                            continue
    assert poly_checks > 0

    block_classes = 0
    for d in (1, 2):
        for l in (1, 2):
            level = d * l
            for n in range(0, 6):
                for e in (2, 3):
                    for s in combinations_with_replacement(range(e), l):
                        by_key = {}
                        for mp in cs.enumerate_multipartitions(level, n):
                            key = cs.yokonuma_block_key(mp, d, l, s, e)
                            by_key.setdefault(key, set()).add(
                                cs.yokonuma_defect(mp, d, l, s, e)
                            )
                        assert all(len(v) == 1 for v in by_key.values())
                        block_classes += len(by_key)
    report(
        10,
        f"shift invariance on {defect_checks} defects / {poly_checks} expanded Schur "
        f"elements; package defect constant on {block_classes} key classes",
    )
