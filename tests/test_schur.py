import math
import random
import time
from fractions import Fraction
from itertools import combinations_with_replacement, product
from operator import getitem

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cycloschur import schur
from cycloschur.abacus import charged_hooks_direct
from cycloschur.partitions import (
    Multipartition,
    enumerate_multipartitions,
    parse_multipartition,
    partitions_of,
)
from cycloschur.schur import (
    BadSpecialisationError,
    CycloSpec,
    LaurentPoly,
    RootOfUnity,
    _mobius_split,
    _pack,
    _unpack,
    class_multicharge,
    column_tables,
    cyclotomic_poly,
    defect_general,
    defect_integer,
    dipper_mathas_classes,
    nu_phi,
    q_integer,
    schur_factors,
    semisimple_check,
    specialize_integer,
)

ONE = LaurentPoly({0: 1})


def test_laurent_basic_arithmetic():
    y_minus = LaurentPoly({1: 1, 0: -1})
    y_plus = LaurentPoly({1: 1, 0: 1})
    assert y_minus * y_plus == LaurentPoly({2: 1, 0: -1})
    with pytest.raises(TypeError):
        LaurentPoly({-2: Fraction(1, 2)})
    assert (y_plus * y_plus) == LaurentPoly({2: 1, 1: 2, 0: 1})


def test_laurent_zero_handling():
    zero = LaurentPoly()
    assert zero.is_zero
    assert LaurentPoly({3: 0}).is_zero
    with pytest.raises(ValueError):
        zero.span
    assert str(zero) == "0"


def test_laurent_exact_divide():
    y2_minus = LaurentPoly({2: 1, 0: -1})
    y_minus = LaurentPoly({1: 1, 0: -1})
    assert y2_minus.exact_divide(y_minus) == LaurentPoly({1: 1, 0: 1})
    with pytest.raises(ValueError):
        LaurentPoly({3: 1, 0: -1}).exact_divide(LaurentPoly({1: 1, 0: 1}))
    with pytest.raises(ZeroDivisionError):
        ONE.exact_divide(LaurentPoly())
    # laurent shifts divide out exactly
    shifted = LaurentPoly({-1: 1, -3: -1})
    assert shifted.exact_divide(LaurentPoly({-2: 1})) == LaurentPoly({1: 1, -1: -1})
    # the quotient y/2 is not integral
    with pytest.raises(ValueError):
        LaurentPoly({1: 1}).exact_divide(LaurentPoly({0: 2}))


coeff = st.integers(-4, 4)
laurents = st.dictionaries(st.integers(-4, 4), coeff, max_size=5).map(LaurentPoly)


@given(laurents, laurents)
def test_laurent_product_divides_back(p, q):
    if q.is_zero:
        return
    assert (p * q).exact_divide(q) == p


def _balanced(words):
    half = 1 << 64 * words - 1
    return st.lists(st.integers(-half, half - 1), min_size=1, max_size=6)


@given(st.integers(1, 3).flatmap(lambda words: st.tuples(st.just(words), _balanced(words))))
@example((1, [-(1 << 63), (1 << 63) - 1, -1, 0, 1]))
@example((2, [(1 << 127) - 1, -(1 << 127), -(1 << 64), 1 << 64, (1 << 63) - 1, 1 << 63]))
def test_pack_reads_back_as_balanced_digits(case):
    words, coeffs = case
    x = _pack(coeffs, words)
    assert x == sum(c << 64 * words * i for i, c in enumerate(coeffs))
    assert _unpack(x, words, len(coeffs)) == coeffs


def test_unpack_refuses_a_number_without_balanced_digits():
    for words in (1, 2):
        half = 1 << 64 * words - 1
        # a top digit of B/2 or below -B/2, or more digits than asked for
        cases = ((half, 1), (-half - 1, 1), (half << 64 * words, 2), (1 << 64 * words * 3, 3))
        for x, length in cases:
            with pytest.raises(OverflowError):
                _unpack(x, words, length)
        assert _unpack(half - 1, words, 1) == [half - 1]
        assert _unpack(half, words, 2) == [-half, 1]


def _mobius(m):
    # (-1)^(number of primes) for squarefree m, else 0, by plain trial division
    sign, p = 1, 2
    while m > 1:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            sign = -sign
        p += 1
    return sign


def test_mobius_binomials_rebuild_cyclotomic_polynomials():
    for e in range(1, 37):
        divisors = [d for d in range(1, e + 1) if e % d == 0]
        up = {d for d in divisors if _mobius(e // d) == -1}
        down = {d for d in divisors if _mobius(e // d) == 1 and d < e}
        split_up, split_down, degree = _mobius_split(e)
        assert (set(split_up), set(split_down)) == (up, down), e
        assert len(split_up) == len(up) and len(split_down) == len(down)
        assert degree == _totient(e) == cyclotomic_poly(e).span
        rebuilt = LaurentPoly({e: 1, 0: -1})
        for d in down:
            rebuilt = rebuilt * LaurentPoly({d: 1, 0: -1})
        for d in up:
            rebuilt = rebuilt.exact_divide(LaurentPoly({d: 1, 0: -1}))
        assert rebuilt == cyclotomic_poly(e), e
    with pytest.raises(ValueError):
        _mobius_split(0)


def _count_exact_divisions(p, e):
    count = 0
    while True:
        try:
            p = p.exact_divide(cyclotomic_poly(e))
        except ValueError:
            return count
        count += 1


@given(
    laurents.filter(lambda p: not p.is_zero),
    st.sampled_from([1, 4, 8, 9, 12, 18, 36]) | st.integers(1, 36),
    st.integers(0, 3),
    st.lists(st.tuples(st.integers(1, 36), st.integers(1, 2)), max_size=3),
)
# Phi_12^16 stops the loop at its cap, span / phi(12) = 16, with no last
# division; the coefficient 2^70 starts the base at two words
@example(ONE, 12, 16, [])
@example(LaurentPoly({0: 1 << 70, 3: -1}), 12, 16, [])
@example(LaurentPoly({0: 1 << 70, 3: -1}), 2, 20, [])
def test_nu_phi_matches_repeated_exact_division(p, e, k, others):
    for _ in range(k):
        p = p * cyclotomic_poly(e)
    for d, j in others:
        for _ in range(j):
            p = p * cyclotomic_poly(d)
    assert nu_phi(p, e) == _count_exact_divisions(p, e), (p, e)


@given(laurents.filter(lambda p: not p.is_zero))
def test_nu_phi_counts_each_cyclotomic_factor(p):
    for e in range(1, 13):
        base = nu_phi(p, e)
        power = p
        for k in range(1, 4):
            power = power * cyclotomic_poly(e)
            assert nu_phi(power, e) == base + k, (p, e, k)


def test_laurent_serialisation():
    assert str(LaurentPoly({0: 1, -2: -1})) == "1 - y^-2"
    assert str(cyclotomic_poly(6)) == "y^2 - y + 1"


def test_cyclotomic_examples():
    assert cyclotomic_poly(1) == LaurentPoly({1: 1, 0: -1})
    assert cyclotomic_poly(2) == LaurentPoly({1: 1, 0: 1})
    assert cyclotomic_poly(6) == LaurentPoly({2: 1, 1: -1, 0: 1})
    with pytest.raises(ValueError):
        cyclotomic_poly(0)


def _totient(e):
    return sum(1 for k in range(1, e + 1) if math.gcd(k, e) == 1)


def test_cyclotomic_degree_and_product():
    for m in range(1, 61):
        assert cyclotomic_poly(m).span == _totient(m)
        prod = ONE
        for d in range(1, m + 1):
            if m % d == 0:
                prod = prod * cyclotomic_poly(d)
        assert prod == LaurentPoly({m: 1, 0: -1})


def test_cyclotomic_poly_of_a_composite_with_a_large_prime():
    # Phi_2p(y) = Phi_p(-y); dividing y^e - 1 by every Phi_d, d | e, d < e
    # took longer than a minute at this e
    start = time.perf_counter()
    phi = cyclotomic_poly(2 * 100003)
    assert time.perf_counter() - start < 10
    assert phi == LaurentPoly({k: (-1) ** k for k in range(100003)})


def test_nu_phi_examples():
    assert nu_phi(LaurentPoly({5: 1}), 3) == 0
    squared = cyclotomic_poly(2) * cyclotomic_poly(2) * cyclotomic_poly(1)
    assert nu_phi(squared, 2) == 2
    assert nu_phi(LaurentPoly({6: 1, 0: -1}), 3) == 1
    with pytest.raises(ValueError):
        nu_phi(LaurentPoly(), 2)
    # a bad e raises rather than reading as multiplicity 0
    with pytest.raises(ValueError):
        nu_phi(ONE, 0)


def test_nu_phi_builds_no_binomial_when_phi_e_is_wider(monkeypatch):
    def refuse(e, k):
        raise AssertionError(f"built Phi_{e}(2^{k})")

    p = cyclotomic_poly(7) * cyclotomic_poly(9)  # span 12
    monkeypatch.setattr(schur, "_phi_at", refuse)
    # phi(e) is 1000002, 1000002, 24 and 16: all wider than p
    for e in (2000006, 1000003, 35, 17):
        assert nu_phi(p, e) == 0
    # phi(13) = 12 fits, so that count divides
    with pytest.raises(AssertionError):
        nu_phi(p, 13)


def test_nu_phi_of_a_large_prime_e_returns_0_at_once(monkeypatch):
    # phi(e)^2 >= e/2 bounds the span, so e = 2^61 - 1 is never factored
    def refuse(e):
        raise AssertionError(f"factored {e}")

    p = cyclotomic_poly(7) * cyclotomic_poly(9)
    monkeypatch.setattr(schur, "_mobius_split", refuse)
    start = time.perf_counter()
    for e in (2**61 - 1, 10**18 + 3):
        assert nu_phi(p, e) == 0
    assert time.perf_counter() - start < 1
    with pytest.raises(ValueError):
        nu_phi(ONE, 0)


def test_nu_phi_widens_the_base_until_the_quotient_reads_back(monkeypatch):
    bases = []
    build = schur._phi_at
    monkeypatch.setattr(schur, "_phi_at", lambda e, k: bases.append(k) or build(e, k))
    a = (2**64 - 1) // 5
    cases = [
        # the quotient [1000]^8 has 1-norm 1000^8 > 2^79: it does not fit one word
        (LaurentPoly({1000: 1, 0: -1}), 8, 8),
        # [128]^8 reads back from one word, but (y - 1)^8 may grow it 2^8-fold
        (LaurentPoly({128: 1, 0: -1}), 8, 8),
        # at B = 2^64 the quotient a [5](B) has 5a = B - 1 and divides once more
        (LaurentPoly({5: a, 0: -a}), 1, 1),
    ]
    for factor, power, nu in cases:
        del bases[:]
        p = ONE
        for _ in range(power):
            p = p * factor
        assert nu_phi(p, 1) == nu, factor
        assert bases == [64, 128], factor
    # a quotient without balanced digits at 2^64 widens the base as well
    unpack = schur._unpack

    def overflow_at_one_word(x, words, length):
        if words == 1:
            raise OverflowError
        return unpack(x, words, length)

    monkeypatch.setattr(schur, "_unpack", overflow_at_one_word)
    del bases[:]
    assert nu_phi(cyclotomic_poly(3) * cyclotomic_poly(3), 3) == 2
    assert bases == [64, 128]


def test_q_integer():
    assert q_integer(1) == ONE
    assert q_integer(3) == LaurentPoly({0: 1, 1: 1, 2: 1})
    with pytest.raises(ValueError):
        q_integer(0)


def test_binomial_kernels_build_q_integers():
    y_minus = LaurentPoly({1: 1, 0: -1})
    row = ONE
    for h in range(1, 31):
        assert LaurentPoly({h: 1, 0: -1}).exact_divide(y_minus) == q_integer(h)
        # the packed route divides (y^h - 1) by (y - 1) for the last box of the row (h)
        next_row = specialize_integer(Multipartition([(h,)]), (0,))
        assert next_row == row * q_integer(h), h
        row = next_row


@given(st.integers(0, 12).flatmap(lambda n: st.sampled_from(partitions_of(n))))
@example(partitions_of(0)[0])
@example(partitions_of(12)[0])
def test_times_q_integer_is_a_product(lam):
    f = schur_factors(Multipartition([lam]))
    expected = LaurentPoly({f.q_exponent: f.sign})
    for h in f.q_integers:
        expected = expected * q_integer(h)
    assert specialize_integer(Multipartition([lam]), (0,)) == expected


def test_times_q_integer_rejects_h_below_one():
    for h in (0, -2):
        with pytest.raises(ValueError):
            q_integer(h)


@given(st.integers(0, 2**32), st.integers(-12, 12))
@example(0, 0)
def test_times_binomial_is_a_product(seed, c):
    # an empty last component with charge c multiplies the Schur element by
    # (-1)^n and by y^(lam_i - i - j + 1 + s_a - c) - 1 for each box (i, j)
    # of each component a, negative exponents included
    rng = random.Random(seed)
    level = rng.randint(1, 3)
    mp = _random_multipartition(rng, level, rng.randint(0, 8))
    charges = tuple(40 * a for a in range(level))
    c += 40 * rng.randrange(level)
    wider = Multipartition(list(mp) + [()])
    hooks = [
        row - i - j + 1 + charges[a] - c
        for a, comp in enumerate(mp)
        for i, row in enumerate(comp, start=1)
        for j in range(1, row + 1)
    ]
    if 0 in hooks:
        with pytest.raises(BadSpecialisationError):
            specialize_integer(wider, charges + (c,))
        return
    shift = schur_factors(wider).q_exponent - schur_factors(mp).q_exponent
    expected = specialize_integer(mp, charges) * LaurentPoly({shift: (-1) ** mp.rank})
    for h in hooks:
        expected = expected * LaurentPoly({h: 1, 0: -1})
    assert specialize_integer(wider, charges + (c,)) == expected


def test_schur_factors_examples():
    single = schur_factors(parse_multipartition("1"))
    assert single.sign == 1
    assert single.q_exponent == 0
    assert single.q_integers == (1,)
    assert single.pair_factors == ()

    pair = schur_factors(parse_multipartition("1|0"))
    assert pair.sign == -1
    assert pair.q_exponent == 0
    assert pair.q_integers == (1,)
    assert pair.pair_factors == ((0, 0, 1),)
    assert pair.to_json() == {
        "sign": -1,
        "q_exp": 0,
        "qints": [1],
        "pairs": [[0, 0, 1]],
    }


def test_schur_factor_counts():
    for l in (1, 2, 3):
        for n in range(0, 5):
            for mp in enumerate_multipartitions(l, n):
                f = schur_factors(mp)
                assert len(f.q_integers) == n
                assert len(f.pair_factors) == n * (l - 1)
                assert all(h >= 1 for h in f.q_integers)
                assert f.sign == (-1) ** (n * (l - 1))


def test_specialize_integer_examples():
    assert specialize_integer(parse_multipartition("1"), (0,)) == ONE
    assert specialize_integer(parse_multipartition("1|0"), (0, 2)) == LaurentPoly(
        {0: 1, -2: -1}
    )
    with pytest.raises(BadSpecialisationError):
        specialize_integer(parse_multipartition("1|0"), (0, 0))


def _random_multipartition(rng, level, rank):
    sizes = [0] * level
    for _ in range(rank):
        sizes[rng.randrange(level)] += 1
    return Multipartition([rng.choice(partitions_of(size)) for size in sizes])


def _reference_expansion(mp, charges):
    f = schur_factors(mp)
    poly = LaurentPoly({f.q_exponent: f.sign})
    for h in f.q_integers:
        poly = poly * q_integer(h)
    for h, a, b in f.pair_factors:
        poly = poly * LaurentPoly({h + charges[a] - charges[b]: 1, 0: -1})
    return poly


def test_packed_expansion_matches_reference_product(monkeypatch):
    widths = []
    unpack = schur._unpack
    monkeypatch.setattr(
        schur, "_unpack", lambda x, words, length: widths.append(words) or unpack(x, words, length)
    )
    wide = parse_multipartition("3.2.1|2.2|3.1|1.1"), (0, 5, 11, 17)
    f = schur_factors(wide[0])
    # the a-priori bound 2^(#pairs) prod h, each h rounded up to a power of
    # two, needs 76 bits, so the base is two words wide
    bound = 1 << len(f.pair_factors) + sum(h.bit_length() for h in f.q_integers)
    assert bound.bit_length() == 76
    cases = [(Multipartition([()] * level), tuple(range(level))) for level in (1, 2, 4)]
    cases.append(wide)
    rng = random.Random(1806)
    for _ in range(120):
        level = rng.randint(1, 4)
        mp = _random_multipartition(rng, level, rng.randint(0, 16))
        cases.append((mp, tuple(rng.randint(-12, 12) for _ in range(level))))
    negative = zero = 0
    for mp, s in cases:
        hooks = [(h + s[a] - s[b], a, b) for h, a, b in schur_factors(mp).pair_factors]
        zeros = [(a, b) for ch, a, b in hooks if ch == 0]
        if zeros:
            zero += 1
            message = "^zero charged hook between components %d and %d$" % zeros[0]
            with pytest.raises(BadSpecialisationError, match=message):
                specialize_integer(mp, s)
            continue
        negative += any(ch < 0 for ch, _, _ in hooks)
        assert specialize_integer(mp, s) == _reference_expansion(mp, s), (mp, s)
        if (mp, s) == wide:
            assert widths[-1] == 2
    assert negative >= 20 and zero >= 20 and set(widths) == {1, 2}, (negative, zero, widths)


def test_defect_integer_known_values():
    assert defect_integer(parse_multipartition("3.1|2.1.1"), (0, 2), 2) == 8
    assert defect_integer(parse_multipartition("2|1|1.1"), (0, 1, 2), 3) == 1
    assert defect_integer(parse_multipartition("2.1.1|2.1.1"), (0, 2), 3) == 4


@pytest.mark.parametrize("e", [2, 3, 4, 5])
def test_column_count_matches_factor_and_hook_counts(e):
    # the column count of defect_integer against the e-divisible entries of
    # the factor lists and of the charged-hook multiset, negative charges included
    rng = random.Random(e)
    for l in (1, 2, 3):
        for n in range(7):
            for mp in enumerate_multipartitions(l, n):
                s = tuple(rng.randint(-7, 9) for _ in range(l))
                f = schur_factors(mp)
                factors = sum(1 for h in f.q_integers if h % e == 0) + sum(
                    1 for h, a, b in f.pair_factors if (h + s[a] - s[b]) % e == 0
                )
                hooks = sum(m for v, m in charged_hooks_direct(mp, s).items() if v % e == 0)
                assert defect_integer(mp, s, e) == factors == hooks, (mp, s, e)


@pytest.mark.parametrize("e", [2, 3, 4, 5])
def test_defect_from_column_tables(e):
    # tables built once per (partition, charge) and padded to any width at
    # least the widest component, summed as defect_integer sums them, give
    # the same count
    rng = random.Random(100 + e)
    for l in (1, 2, 3):
        for n in range(7):
            for mp in enumerate_multipartitions(l, n):
                s = tuple(rng.randint(-7, 9) for _ in range(l))
                width = max((comp[0] for comp in mp if comp), default=0) + rng.randint(0, 2)
                tables = [column_tables(comp, c, e, width) for comp, c in zip(mp, s)]
                hooks = sum(m for v, m in charged_hooks_direct(mp, s).items() if v % e == 0)
                value = sum(sum(map(getitem, r, v)) for r, _ in tables for _, v in tables)
                assert value == defect_integer(mp, s, e) == hooks, (mp, s, e, width)


def test_defect_large_e_vanishes():
    # with charges far enough apart no charged hook vanishes, so a prime
    # beyond every hook leaves nothing to count
    mp = parse_multipartition("3.1|2.1.1")
    assert defect_integer(mp, (0, 9), 97) == 0
    # zero charged hooks count as divisible for every e
    assert defect_integer(mp, (0, 2), 97) == 2


def test_defect_at_e_beyond_every_hook_counts_the_zero_hooks():
    # every charged hook lies in [-H, H], H = 2n - 1 + max(s) - min(s), so
    # defect_integer reads an e > H as H + 1; the count equals that of the
    # charged hooks at every e up to H + 3, clamped or not
    for l in (1, 2, 3):
        for n in range(4 if l == 3 else 5):
            for mp in enumerate_multipartitions(l, n):
                for s in product(range(-2, 3), repeat=l):
                    hooks = charged_hooks_direct(mp, s)
                    for e in range(2, 2 * n + max(s) - min(s) + 3):
                        count = sum(m for v, m in hooks.items() if v % e == 0)
                        assert defect_integer(mp, s, e) == count, (mp, s, e)
    # at e = 2^61 - 1 the tables have H + 1 = 13 slots, not e
    start = time.perf_counter()
    assert defect_integer(parse_multipartition("3.1|2"), (0, 1), 2**61 - 1) == 0
    assert time.perf_counter() - start < 1


def test_defect_e1_counts_nonzero_pair_hooks():
    for l in (2, 3):
        for n in range(0, 5):
            for mp in enumerate_multipartitions(l, n):
                s = tuple(9 * (a + 1) for a in range(l))  # far apart: all good
                assert defect_integer(mp, s, 1) == n * (l - 1)


def good_instances(max_l=3, max_n=5, es=(2, 3)):
    for l in range(1, max_l + 1):
        for n in range(0, max_n + 1):
            for mp in enumerate_multipartitions(l, n):
                for e in es:
                    for s in combinations_with_replacement(range(2 * e), l):
                        yield mp, s, e


def test_factor_rule_matches_polynomial_oracle():
    for mp, s, e in good_instances():
        try:
            poly = specialize_integer(mp, s)
        except BadSpecialisationError:
            continue
        assert defect_integer(mp, s, e) == nu_phi(poly, e), (mp, s, e)


def test_degree_bookkeeping():
    for mp, s, e in good_instances(max_l=2, max_n=4, es=(2,)):
        try:
            poly = specialize_integer(mp, s)
        except BadSpecialisationError:
            continue
        f = schur_factors(mp)
        expected = sum(h - 1 for h in f.q_integers) + sum(
            abs(h + s[a] - s[b]) for h, a, b in f.pair_factors
        )
        assert poly.span == expected


def test_difchoice_invariance():
    mp = parse_multipartition("2.1|1.1")
    for e in (2, 3, 4):
        base = defect_integer(mp, (0, 1), e)
        for shift_a in (0, e, 3 * e):
            for shift_b in (0, e, 2 * e):
                assert defect_integer(mp, (0 + shift_a, 1 + shift_b), e) == base


def test_root_of_unity():
    z = RootOfUnity(12, 4)
    assert z.element_order == 3
    assert RootOfUnity(12, -1).exponent == 11
    with pytest.raises(ValueError):
        RootOfUnity(0, 1)


def test_semisimple_check():
    # u of large order, parameters far apart
    xi = [RootOfUnity(35, 0), RootOfUnity(35, 1)]
    u = RootOfUnity(35, 7)  # order 5
    assert semisimple_check(xi, u, 4)
    assert not semisimple_check(xi, u, 5)  # q-integer [5] dies
    # xi_b = u * xi_a kills a pair factor as soon as n >= 2
    xi_bad = [RootOfUnity(35, 0), RootOfUnity(35, 7)]
    assert not semisimple_check(xi_bad, u, 2)
    assert semisimple_check(xi_bad, u, 1)
    with pytest.raises(ValueError):
        semisimple_check([RootOfUnity(6, 1)], u, 2)


def test_dipper_mathas_classes_examples():
    ambient = 12
    u = RootOfUnity(ambient, 4)
    same = [RootOfUnity(ambient, 2), RootOfUnity(ambient, 2)]
    assert dipper_mathas_classes(same, u, 3) == ((0, 1),)
    distinct = [RootOfUnity(ambient, 0), RootOfUnity(ambient, 3)]
    assert dipper_mathas_classes(distinct, RootOfUnity(ambient, 0), 3) == ((0,), (1,))
    assert dipper_mathas_classes(distinct, u, 3) == ((0,), (1,))
    linked = [RootOfUnity(ambient, 0), RootOfUnity(ambient, 8)]
    assert dipper_mathas_classes(linked, u, 3) == ((0, 1),)


def test_dipper_mathas_transitive_closure():
    # 0 -> 1 and 1 -> 2 need h=1 each; 0 -> 2 directly needs h=2 > n-1
    ambient = 100
    u = RootOfUnity(ambient, 1)
    xi = [RootOfUnity(ambient, 0), RootOfUnity(ambient, 1), RootOfUnity(ambient, 2)]
    assert dipper_mathas_classes(xi, u, 2) == ((0, 1, 2),)


def test_class_multicharge():
    u = RootOfUnity(12, 4)
    assert class_multicharge((0,), [RootOfUnity(12, 5)], u) == (0,)
    xi = [RootOfUnity(12, 0), RootOfUnity(12, 8)]
    assert class_multicharge((0, 1), xi, u) == (0, 2)
    with pytest.raises(ValueError):
        class_multicharge((0, 1), [RootOfUnity(12, 0), RootOfUnity(12, 3)], u)
    with pytest.raises(ValueError):
        class_multicharge((), xi, u)
    # u = 1 puts only equal parameters in one class, each with charge 0
    one = RootOfUnity(12, 0)
    assert class_multicharge((0, 1, 2), [RootOfUnity(12, 5)] * 3, one) == (0, 0, 0)


def test_cyclospec_validation():
    eta = RootOfUnity(12, 4)
    spec = CycloSpec(3, (0, 0, 1), 1, eta)
    assert spec.twist == (0, 1, 2)
    with pytest.raises(ValueError):
        CycloSpec(3, (0, 0), 1, eta)
    with pytest.raises(ValueError):
        CycloSpec(3, (0, 0, 1), 0, eta)
    with pytest.raises(ValueError):
        CycloSpec(5, (0,) * 5, 1, eta)  # 5 does not divide 12
    assert spec.u().exponent == 4
    assert spec.parameter(2).exponent == (2 * 4 + 1 * 4) % 12


def test_defect_general_remark_example():
    mp = parse_multipartition("2|0|0")
    at_eta3 = CycloSpec(3, (0, 0, 1), 1, RootOfUnity(12, 4))
    at_eta3_sq = CycloSpec(3, (0, 0, 1), 1, RootOfUnity(12, 8))
    assert defect_general(mp, at_eta3) == 2
    assert defect_general(mp, at_eta3_sq) == 0


def test_defect_general_semisimple_eta_gives_zero():
    # order-7 evaluation root, small hooks: nothing vanishes
    eta = RootOfUnity(14, 2)
    for mp in enumerate_multipartitions(2, 3):
        spec = CycloSpec(2, (0, 1), 1, eta)
        assert defect_general(mp, spec) == 0


def test_defect_general_integer_encoding_matches_defect_integer():
    # all-zero twist with eta of order e encodes plain integer multicharges
    for l in (1, 2, 3):
        for n in range(0, 5):
            mps = list(enumerate_multipartitions(l, n))
            for e in (2, 3):
                ambient = l * e
                eta = RootOfUnity(ambient, l)
                for s in combinations_with_replacement(range(e), l):
                    spec = CycloSpec(l, s, 1, eta, twist=(0,) * l)
                    for mp in mps:
                        f = schur_factors(mp)
                        if any(h + s[a] - s[b] == 0 for h, a, b in f.pair_factors):
                            with pytest.raises(BadSpecialisationError):
                                defect_general(mp, spec)
                            continue
                        assert defect_general(mp, spec) == defect_integer(mp, s, e)


def test_defect_general_splits_over_classes():
    # the defect is the sum over parameter classes of the class defect of
    # the restricted multipartition with its class multicharge
    specs = [
        # two singleton classes: the omega offset never lands in <u>
        CycloSpec(2, (0, 1), 1, RootOfUnity(12, 4)),
        CycloSpec(2, (0, 0), 1, RootOfUnity(12, 4)),
        # one joint class once n is large enough: u generates Z/6
        CycloSpec(2, (0, 1), 1, RootOfUnity(6, 1)),
        # level 3 at an order-4 root
        CycloSpec(3, (0, 1, 2), 1, RootOfUnity(12, 3)),
    ]
    # seeded random specs with u != 1 exercise q_exp and the twists; a
    # twist shared by two components can make a pair factor vanish
    rng = random.Random(2105)
    random_specs = []
    while len(random_specs) < 150:
        level = rng.randint(1, 3)
        ambient = level * rng.randint(1, 6)
        spec = CycloSpec(
            level,
            tuple(rng.randint(-4, 6) for _ in range(level)),
            rng.choice((1, -1, 2, -2, 3, -3)),
            RootOfUnity(ambient, rng.randrange(ambient)),
            twist=tuple(rng.randrange(level) for _ in range(level)),
        )
        if spec.u().exponent:
            random_specs.append(spec)
    cases = [(spec, n) for spec in specs for n in (2, 3, 4)]
    cases += [(spec, n) for spec in random_specs for n in range(5)]
    seen_joint = seen_split = False
    for spec, n in cases:
        xi = [spec.parameter(a) for a in range(spec.level)]
        u = spec.u()
        e = u.element_order
        classes = dipper_mathas_classes(xi, u, n)
        seen_joint |= any(len(c) > 1 for c in classes)
        seen_split |= len(classes) > 1
        class_charges = [class_multicharge(members, xi, u) for members in classes]
        for mp in enumerate_multipartitions(spec.level, n):
            try:
                expected = defect_general(mp, spec)
            except BadSpecialisationError:
                continue
            total = 0
            for members, charges in zip(classes, class_charges):
                sub = Multipartition([mp[a] for a in members])
                total += defect_integer(sub, charges, e)
            assert expected == total, (spec, mp)
    assert seen_joint and seen_split


def test_semisimple_implies_zero_defect():
    for l in (1, 2):
        for e_amb, t in ((22, 2), (26, 2)):
            if e_amb % l:
                continue
            eta = RootOfUnity(e_amb, t)
            for n in range(0, 5):
                charges = tuple(range(l))
                spec = CycloSpec(l, charges, 1, eta)
                xi = [spec.parameter(a) for a in range(l)]
                if not semisimple_check(xi, spec.u(), n):
                    continue
                for mp in enumerate_multipartitions(l, n):
                    assert defect_general(mp, spec) == 0
