from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cycloschur.partitions import (
    Multipartition,
    Partition,
    count_multipartitions,
    enumerate_multipartitions,
    format_multipartition,
    generalized_hook,
    hooks_multiset,
    n_invariant,
    parse_multicharge,
    parse_multipartition,
    partition_numbers,
    partitions_of,
    rank_vectors,
)

partitions = st.lists(st.integers(1, 8), max_size=6).map(
    lambda xs: Partition(sorted(xs, reverse=True))
)


def test_partition_normalisation_and_validation():
    assert Partition((3, 1, 0, 0)) == (3, 1)
    assert Partition(()).rank == 0
    assert Partition((2, 2, 1)).rank == 5
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, -1))


def test_part_reads_zero_beyond_length():
    p = Partition((3, 1))
    assert [p.part(i) for i in (1, 2, 3, 10)] == [3, 1, 0, 0]
    with pytest.raises(IndexError):
        p.part(0)


def test_conjugate_examples():
    assert Partition(()).conjugate() == ()
    assert Partition((5, 4, 2, 1, 1)).conjugate() == (5, 3, 2, 2, 1)
    assert Partition((3,)).conjugate() == (1, 1, 1)


@given(partitions)
def test_conjugate_is_an_involution(p):
    assert p.conjugate().conjugate() == p


def test_conjugate_involution_exhaustive():
    for n in range(0, 13):
        for p in partitions_of(n):
            assert p.conjugate().conjugate() == p


def test_partitions_of_are_valid_and_strictly_descending():
    # the results skip the checks of Partition(), so each must pass them,
    # and the counts are the partition numbers, by parts at most k
    numbers = [1] + [0] * 25
    for k in range(1, 26):
        for n in range(k, 26):
            numbers[n] += numbers[n - k]
    assert numbers[25] == 1958
    for n in range(26):
        parts = partitions_of(n)
        for p in parts:
            assert type(p) is Partition and Partition(p) == p and sum(p) == n
        assert all(a > b for a, b in zip(parts, parts[1:])), n
        assert len(parts) == numbers[n]


def test_n_invariant_formulas_agree_exhaustive():
    for n in range(0, 13):
        for p in partitions_of(n):
            conj = p.conjugate()
            assert n_invariant(p) == sum(c * (c - 1) // 2 for c in conj)


def test_generalized_hook_examples():
    lam = Partition((5, 4, 2, 1, 1))
    assert generalized_hook(lam, lam, 1, 1) == 9
    for n in range(1, 7):
        lam = Partition((n,))
        for j in range(1, n + 1):
            assert generalized_hook(lam, Partition(()), 1, j) == n - j
    one = Partition((1,))
    assert generalized_hook(one, one, 1, 1) == 1
    with pytest.raises(ValueError):
        generalized_hook(Partition((2,)), one, 1, 3)


def _hook_by_box_counting(p, i, j):
    # arm + leg + 1 counted directly in the diagram
    arm = p.part(i) - j
    leg = sum(1 for r in range(i + 1, len(p) + 1) if p.part(r) >= j)
    return arm + leg + 1


def test_classical_hook_equals_box_count():
    for n in range(0, 11):
        for p in partitions_of(n):
            for i, j in p.nodes():
                assert generalized_hook(p, p, i, j) == _hook_by_box_counting(p, i, j)


def test_hooks_multiset_examples():
    assert hooks_multiset(Partition(())) == Counter()
    assert hooks_multiset(Partition((2,))) == Counter({2: 1, 1: 1})
    assert hooks_multiset(Partition((2, 1))) == Counter({3: 1, 1: 2})


def test_n_invariant_examples():
    assert n_invariant(Partition(())) == 0
    assert n_invariant(Partition((5, 4, 2, 1, 1))) == 15
    for k in range(1, 8):
        assert n_invariant(Partition((1,) * k)) == k * (k - 1) // 2


@given(partitions)
def test_n_invariant_column_formula(p):
    # sum of binomial(conjugate part, 2) must agree with the row formula
    assert n_invariant(p) == sum(c * (c - 1) // 2 for c in p.conjugate())


def test_bar_examples():
    assert Multipartition([(2,), (1,), (1, 1)]).bar() == (2, 1, 1, 1)
    assert Multipartition([(3, 1), (2, 1, 1)]).bar() == (3, 2, 1, 1, 1)
    assert Multipartition([(), (), ()]).bar() == ()


def test_multipartition_nodes_and_rank():
    mp = Multipartition([(2,), (), (1, 1)])
    assert mp.level == 3
    assert mp.rank == 4


def test_enumeration_small_cases():
    assert list(enumerate_multipartitions(1, 0)) == [Multipartition([()])]
    two_one = [format_multipartition(mp) for mp in enumerate_multipartitions(2, 1)]
    assert two_one == ["1|0", "0|1"]
    two_two = [format_multipartition(mp) for mp in enumerate_multipartitions(2, 2)]
    assert two_two == ["2|0", "1.1|0", "1|1", "0|2", "0|1.1"]


def _count_by_dp(l, n):
    # partition counts by the part-size dp, then an l-fold convolution
    p = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            p[total] += p[total - part]
    counts = p[:]
    for _ in range(l - 1):
        counts = [
            sum(counts[k] * p[t - k] for k in range(t + 1)) for t in range(n + 1)
        ]
    return counts[n]


def test_enumeration_count_matches_dp():
    for l in range(1, 5):
        for n in range(0, 9):
            got = sum(1 for _ in enumerate_multipartitions(l, n))
            assert got == _count_by_dp(l, n), (l, n)


def test_partition_numbers_count_the_listed_partitions():
    try:
        assert partition_numbers(40) == [len(partitions_of(k)) for k in range(41)]
    finally:
        # the listed partitions of every rank up to 40 are not kept
        partitions_of.cache_clear()
    assert partition_numbers(0) == [1]
    with pytest.raises(ValueError):
        partition_numbers(-1)


def test_count_multipartitions_matches_enumeration():
    for l in range(1, 5):
        for n in range(0, 11):
            got = count_multipartitions(l, n)
            assert got == sum(1 for _ in enumerate_multipartitions(l, n)), (l, n)


def test_enumeration_has_no_duplicates():
    for l in (1, 2, 3):
        for n in range(0, 6):
            seen = list(enumerate_multipartitions(l, n))
            assert len(seen) == len(set(seen))
            assert all(mp.rank == n and mp.level == l for mp in seen)


def test_grammar_round_trip():
    for text in ["3.1|2.1.1", "2|0|1.1", "0", "0|0", "1"]:
        mp = parse_multipartition(text)
        assert format_multipartition(mp) == text
    assert parse_multipartition("3.1|2.1.1") == Multipartition([(3, 1), (2, 1, 1)])
    assert parse_multipartition("2|0|1.1") == Multipartition([(2,), (), (1, 1)])


def test_grammar_rejects_malformed_input():
    for text in ["", "1.2", "2.0", "a|b", "2,1", "|", "1||2"]:
        with pytest.raises(ValueError):
            parse_multipartition(text)


def test_multicharge_grammar():
    assert parse_multicharge("0,2") == (0, 2)
    assert parse_multicharge("-1,3") == (-1, 3)
    with pytest.raises(ValueError):
        parse_multicharge("")
    with pytest.raises(ValueError):
        parse_multicharge("1,x")


def test_rank_vectors_order_matches_enumeration():
    assert list(rank_vectors(2, 2)) == [(2, 0), (1, 1), (0, 2)]
    for l in range(1, 4):
        for n in range(6):
            ranks = [tuple(c.rank for c in mp) for mp in enumerate_multipartitions(l, n)]
            assert list(dict.fromkeys(ranks)) == list(rank_vectors(n, l)), (l, n)
