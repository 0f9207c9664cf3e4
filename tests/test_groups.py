from itertools import combinations_with_replacement, product

import pytest

from cycloschur.groups import (
    glpn_defect,
    orbit,
    packages,
    short_orbits,
    sigma,
    sigma_schur_invariance,
    yokonuma_block_key,
    yokonuma_defect,
)
from cycloschur.partitions import (
    enumerate_multipartitions,
    format_multipartition,
    parse_multipartition,
)
from cycloschur.schur import (
    BadSpecialisationError,
    CycloSpec,
    RootOfUnity,
    defect_general,
    defect_integer,
    nu_phi,
    specialize_integer,
)


def test_sigma_examples():
    mp = parse_multipartition("1|2")
    assert sigma(mp, 2) == mp  # p = 1
    assert sigma(mp, 1) == parse_multipartition("2|1")
    four = parse_multipartition("1|2|3|4")
    assert sigma(four, 2) == parse_multipartition("3|4|1|2")
    with pytest.raises(ValueError):
        sigma(four, 3)


def test_sigma_has_order_p():
    for mp in enumerate_multipartitions(4, 3):
        for d in (1, 2):
            p = mp.level // d
            current = mp
            for _ in range(p):
                current = sigma(current, d)
            assert current == mp


def test_orbit_examples():
    symmetric = parse_multipartition("1|1")
    assert orbit(symmetric, 1, 2) == 1
    skew = parse_multipartition("1|0")
    assert orbit(skew, 1, 2) == 2
    with pytest.raises(ValueError):
        orbit(skew, 1, 3)


def test_orbit_stabilizer_product():
    for d, p in [(1, 2), (1, 3), (2, 2), (1, 4)]:
        for n in range(0, 4):
            for mp in enumerate_multipartitions(d * p, n):
                assert p % orbit(mp, d, p) == 0


def test_orbit_of_component_texts_matches_sigma():
    # the CSV passes the member text, its component texts joined by "|";
    # the reference walks sigma until it returns
    for d, p in [(1, 2), (1, 3), (2, 2), (1, 4), (2, 3)]:
        for n in range(0, 4):
            for mp in enumerate_multipartitions(d * p, n):
                size, current = 1, sigma(mp, d)
                while current != mp:
                    size, current = size + 1, sigma(current, d)
                assert orbit(format_multipartition(mp), d, p) == size
                assert orbit(mp, d, p) == size


def test_orbit_of_member_text_matches_other_forms():
    # the text and the Multipartition give one size, also with empty
    # components, which are written "0"
    for d, p in [(1, 1), (1, 2), (1, 3), (2, 2), (1, 4), (2, 3), (3, 2), (1, 5), (1, 6), (6, 1)]:
        for n in range(0, 4):
            for mp in enumerate_multipartitions(d * p, n):
                text = format_multipartition(mp)
                size = orbit(text, d, p)
                assert size == orbit(mp, d, p)
    assert orbit("0|0|0|0", 1, 4) == 1
    assert orbit("1|0|1|0", 1, 4) == 2
    assert orbit("1|0|0|1|0|0", 1, 6) == 3
    assert orbit("1|0|0|1|0|0", 3, 2) == 1
    assert orbit("1|0|0|0|0|0", 2, 3) == 3


@pytest.mark.parametrize("p", [1, 2, 3, 4, 6])
@pytest.mark.parametrize("d", [1, 2])
def test_short_orbits_lists_every_member_with_an_orbit_below_p(d, p):
    # ranks 0 to 4 give every prime of p (2 and 3) a rank it divides and
    # one it does not
    for n in range(5):
        texts = map(format_multipartition, enumerate_multipartitions(d * p, n))
        expected = {m: orbit(m, d, p) for m in texts if orbit(m, d, p) < p}
        assert short_orbits(d * p, n, d, p) == expected


def test_short_orbits_of_rank_zero_and_of_a_rank_no_prime_divides():
    assert short_orbits(4, 0, 1, 4) == {"0|0|0|0": 1}
    assert short_orbits(6, 0, 2, 3) == {"0|0|0|0|0|0": 1}
    assert short_orbits(2, 0, 2, 1) == {}
    # 5 is prime to 6, so every member of rank 5 has orbit size 6
    assert short_orbits(6, 5, 1, 6) == {}
    assert all(orbit(mp, 1, 6) == 6 for mp in enumerate_multipartitions(6, 5))
    with pytest.raises(ValueError):
        short_orbits(5, 2, 2, 2)


@pytest.mark.parametrize(
    "mp, d, p",
    [("1|0", 1, 3), ("1|0|1", 2, 2), ("1", 1, 2), ("1|0", 0, 2), ("0", 0, 1), ("1|0", 2, 0), ("", 1, 1)],
)
def test_orbit_rejects_a_level_other_than_p_times_d(mp, d, p):
    with pytest.raises(ValueError):
        orbit(mp, d, p)
    if mp:
        with pytest.raises(ValueError):
            orbit(parse_multipartition(mp), d, p)


def test_glpn_defect_reduces_to_general_at_p1():
    eta = RootOfUnity(12, 4)
    for mp in enumerate_multipartitions(2, 3):
        spec = CycloSpec(2, (0, 1), 1, eta)
        assert glpn_defect(mp, 2, 1, spec) == defect_general(mp, spec)


def test_glpn_defect_requires_periodic_charges():
    eta = RootOfUnity(12, 4)
    mp = parse_multipartition("1|1")
    spec = CycloSpec(2, (0, 1), 1, eta)
    with pytest.raises(ValueError):
        glpn_defect(mp, 1, 2, spec)
    ok = CycloSpec(2, (1, 1), 1, eta)
    assert glpn_defect(mp, 1, 2, ok) == glpn_defect(sigma(mp, 1), 1, 2, ok)


def test_glpn_defect_sigma_invariant():
    eta = RootOfUnity(12, 4)
    for d, p in [(1, 2), (2, 2), (1, 4)]:
        level = d * p
        for n in range(0, 4):
            for mp in enumerate_multipartitions(level, n):
                for base in product(range(2), repeat=d):
                    charges = tuple(base[k % d] for k in range(level))
                    spec = CycloSpec(level, charges, 1, eta)
                    assert glpn_defect(mp, d, p, spec) == glpn_defect(
                        sigma(mp, d), d, p, spec
                    )


def test_glpn_integer_route_cross_check():
    # d=1, p=2: all-equal charges; the general path with an all-zero
    # twist must agree with the factor rule and the polynomial oracle
    e = 2
    eta = RootOfUnity(2 * e, 2)  # order 2, ambient divisible by the level
    mp = parse_multipartition("1|1")
    spec = CycloSpec(2, (0, 0), 1, eta, twist=(0, 0))
    value = glpn_defect(mp, 1, 2, spec)
    assert value == defect_integer(mp, (0, 0), e)
    assert value == nu_phi(specialize_integer(mp, (0, 0)), e)


def test_sigma_schur_invariance_small_sweep():
    checked = 0
    for d, p in [(1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 2), (1, 4), (4, 1)]:
        level = d * p
        for n in range(0, 5):
            for mp in enumerate_multipartitions(level, n):
                for e in (2, 3):
                    for base in product(range(e), repeat=d):
                        charges = tuple(base[k % d] for k in range(level))
                        try:
                            assert sigma_schur_invariance(mp, d, p, charges)
                            checked += 1
                        except BadSpecialisationError:
                            continue
    assert checked > 100


def test_sigma_schur_invariance_rejects_aperiodic():
    with pytest.raises(ValueError):
        sigma_schur_invariance(parse_multipartition("1|1"), 1, 2, (0, 1))


def test_packages():
    mp = parse_multipartition("1|2|3|4")
    assert packages(mp, 2) == (
        parse_multipartition("1|2"),
        parse_multipartition("3|4"),
    )
    with pytest.raises(ValueError):
        packages(mp, 3)


def test_yokonuma_defect_examples():
    # d = 1 degenerates to the plain defect
    mp = parse_multipartition("2|1.1")
    assert yokonuma_defect(mp, 1, 2, (0, 1), 2) == defect_integer(mp, (0, 1), 2)
    # all boxes in one package
    loaded = parse_multipartition("2.1|0")
    assert yokonuma_defect(loaded, 2, 1, (0,), 2) == defect_integer(
        parse_multipartition("2.1"), (0,), 2
    )
    # classical 2-weights of (2) and (1,1) are each 1
    assert yokonuma_defect(parse_multipartition("2|1.1"), 2, 1, (0,), 2) == 2
    with pytest.raises(ValueError):
        yokonuma_defect(mp, 2, 2, (0, 0), 2)


def test_yokonuma_block_key_examples():
    a = parse_multipartition("2|1.1")
    b = parse_multipartition("1.1|2")
    ka = yokonuma_block_key(a, 2, 1, (0,), 2)
    kb = yokonuma_block_key(b, 2, 1, (0,), 2)
    assert ka == kb  # (2) and (1,1) share residues {0,1} at e=2
    assert yokonuma_block_key(a, 2, 1, (0,), 2) == yokonuma_block_key(
        a, 2, 1, (0,), 2
    )
    swapped = parse_multipartition("2|0")
    assert yokonuma_block_key(swapped, 2, 1, (0,), 2) != yokonuma_block_key(
        parse_multipartition("0|2"), 2, 1, (0,), 2
    )


def test_yokonuma_block_invariance():
    for d in (1, 2):
        for l in (1, 2):
            level = d * l
            for n in range(0, 6):
                for e in (2, 3):
                    for s in combinations_with_replacement(range(e), l):
                        by_key = {}
                        for mp in enumerate_multipartitions(level, n):
                            key = yokonuma_block_key(mp, d, l, s, e)
                            by_key.setdefault(key, set()).add(
                                yokonuma_defect(mp, d, l, s, e)
                            )
                        assert all(len(v) == 1 for v in by_key.values())
