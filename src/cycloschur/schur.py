"""Integer Laurent polynomials, cyclotomic polynomials, and the
factored form of Ariki-Koike Schur elements.

The Schur element attached to a multipartition of rank n and level l is
a signed monomial times a product of n q-integer factors [h]_q (h the
classical hook length of a box) and n(l-1) pair factors
q^h Q_a Q_b^{-1} - 1 (h the generalised hook length of a box of
component a against component b).  ``GenericSchurFactors`` keeps this
structure unexpanded; defects are read off the factors one by one,
while ``specialize_integer`` expands the product into an honest Laurent
polynomial as an independent oracle.  Under Q_a -> y^(s_a), q -> y every
factor has integer coefficients and every cyclotomic polynomial is
monic, so ``LaurentPoly`` keeps integer coefficients only.  The oracle
works on one int, the value at B = 2^k, 64 | k, whose balanced base-B
digits are the coefficients while these are below B/2 in size.
``specialize_integer`` multiplies by y^h - 1 as x = (x << k*h) - x,
divides by (B - 1)^n for the q-integers, and takes k from ||P||_1 <=
2^(#pairs) prod h < 2^(k-1), each h rounded up to a power of 2.  ``nu_phi``
counts the exact divisions J of P(B) by Phi_e(B) = prod_{d | e} (B^d -
1)^mu(e/d), J >= the multiplicity, and accepts J once the last quotient
Q' has ||Q'||_1 2^(J #(mu=+1)) + ||P||_1 2^(J #(mu=-1)) < 2^(k-1): then
Q' prod_{mu=+1} (y^d - 1)^J and P prod_{mu=-1} (y^d - 1)^J agree at B
with coefficients below B/2, so they are equal.  Else k grows by 64.

Roots of unity live in a single ambient cyclic group Z/NZ so that every
equality test is exact integer arithmetic.  A ``CycloSpec`` records a
one-variable specialisation: component a carries the twist
omega^(twist_a) (omega the fixed root of order `level`) times
y^(charges_a), q goes to y^(q_exp), and y is finally evaluated at a
root eta.  ``CycloSpec.parameter`` and ``CycloSpec.u`` are the only code
that evaluates these parameters.  ``defect_general`` computes the
multiplicity of the minimal polynomial of eta in the specialised Schur
element by testing each factor for vanishing at eta; a factor with zero
y-exponent and trivial twist vanishes identically, which is reported as
a bad specialisation.
"""

from __future__ import annotations

import math
import sys
from array import array
from functools import lru_cache
from itertools import count, repeat
from operator import add, getitem, index, lshift, mul, or_, sub
from typing import Iterable, NamedTuple, Sequence

from .partitions import Multipartition, column_lengths, n_invariant


class BadSpecialisationError(ValueError):
    """A specialisation that sends a Schur element to zero."""


class LaurentPoly:
    """A Laurent polynomial in one variable with integer coefficients,
    stored densely: ``coeffs[k]`` is the coefficient of y^(low + k), and
    both end entries are nonzero.  The zero polynomial has no entries.

    The constructor takes an exponent -> coefficient table; a coefficient
    that is not an integer raises TypeError."""

    __slots__ = ("low", "coeffs")

    def __init__(self, coeffs=None):
        table = {index(exp): index(c) for exp, c in (coeffs or {}).items() if index(c)}
        self.low = min(table, default=0)
        top = max(table, default=-1)
        self.coeffs = [table.get(exp, 0) for exp in range(self.low, top + 1)]

    @classmethod
    def _dense(cls, low: int, coeffs: list[int]) -> "LaurentPoly":
        # coeffs must be nonempty with nonzero end entries
        out = cls.__new__(cls)
        out.low, out.coeffs = low, coeffs
        return out

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        if isinstance(other, LaurentPoly):
            return self.low == other.low and self.coeffs == other.coeffs
        return NotImplemented

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return LaurentPoly()
        out = [0] * (len(a) + len(b) - 1)
        width = len(a)
        # cyclotomic polynomials are sparse: skip the zeros
        for j, c in enumerate(b):
            if c:
                out[j : j + width] = map(add, out[j : j + width], map(mul, a, repeat(c)))
        # Z is an integral domain, so the end entries stay nonzero
        return LaurentPoly._dense(self.low + other.low, out)

    @property
    def span(self) -> int:
        """The highest exponent minus the lowest; 0 for monomials."""
        if self.is_zero:
            raise ValueError("the zero polynomial has no degree")
        return len(self.coeffs) - 1

    def exact_divide(self, other: "LaurentPoly") -> "LaurentPoly":
        """Quotient self / other when it exists in the Laurent ring over
        the integers, by long division from the top; raises ValueError
        otherwise."""
        den = other.coeffs
        if not den:
            raise ZeroDivisionError("division by the zero polynomial")
        if not self.coeffs:
            return LaurentPoly()
        width = len(den)
        if len(self.coeffs) < width:
            raise ValueError("inexact division")
        num = list(self.coeffs)
        lead = den[-1]
        quot = [0] * (len(num) - width + 1)
        for k in range(len(quot) - 1, -1, -1):
            q, r = divmod(num[k + width - 1], lead)
            if r:
                raise ValueError("inexact division")
            if q:
                quot[k] = q
                num[k : k + width] = map(sub, num[k : k + width], map(mul, den, repeat(q)))
        if any(num[: width - 1]):
            raise ValueError("inexact division")
        # an exact quotient has nonzero ends: theirs times den's give self's
        return LaurentPoly._dense(self.low - other.low, quot)

    def __str__(self) -> str:
        text = ""
        for k in range(len(self.coeffs) - 1, -1, -1):
            c, exp = self.coeffs[k], self.low + k
            if c:
                var = "y" if exp == 1 else f"y^{exp}"
                body = str(abs(c)) if exp == 0 else var if abs(c) == 1 else f"{abs(c)}*{var}"
                if text:
                    text += (" - " if c < 0 else " + ") + body
                else:
                    text = ("-" if c < 0 else "") + body
        return text or "0"

    def __repr__(self) -> str:
        table = {self.low + k: c for k, c in enumerate(self.coeffs) if c}
        return f"LaurentPoly({table!r})"


def q_integer(h: int) -> LaurentPoly:
    """[h]_y = 1 + y + ... + y^(h-1)."""
    if h < 1:
        raise ValueError("q-integers are defined for h >= 1")
    return LaurentPoly({k: 1 for k in range(h)})


def _prime_divisors(e: int) -> list[int]:
    """The distinct primes of e >= 1 in ascending order, by trial division."""
    primes, rest, p = [], e, 2
    while rest > 1:
        if p * p > rest:
            p = rest
        if rest % p == 0:
            primes.append(p)
            while rest % p == 0:
                rest //= p
        p += 1
    return primes


@lru_cache(maxsize=None)
def cyclotomic_poly(e: int) -> LaurentPoly:
    """The e-th cyclotomic polynomial over the rationals, F_r(y) = Phi_r(y^s)
    for r the product of the distinct primes p of e and s = e/r, built from
    F_1 = y^s - 1 and F_pm(y) = F_m(y^p) / F_m(y), taking p in ascending order."""
    if e < 1:
        raise ValueError("e must be positive")
    primes = _prime_divisors(e)
    result = LaurentPoly({e // math.prod(primes): 1, 0: -1})
    for p in primes:
        spread = LaurentPoly({p * (result.low + i): c for i, c in enumerate(result.coeffs)})
        result = spread.exact_divide(result)
    return result


@lru_cache(maxsize=None)
def _mobius_split(e: int) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """Phi_e = prod_{d | e} (y^d - 1)^mu(e/d) as the d with mu(e/d) = -1, the
    d < e with mu(e/d) = +1, and phi(e) = sum mu(e/d) d; mu(e/d) != 0 only
    for e/d a product of distinct primes of e."""
    if e < 1:
        raise ValueError("e must be positive")
    mobius = {e: 1}
    for p in _prime_divisors(e):
        mobius.update({d // p: -mu for d, mu in mobius.items()})
    up = tuple(d for d, mu in mobius.items() if mu < 0)
    down = tuple(d for d, mu in mobius.items() if mu > 0 and d < e)
    return up, down, sum(mu * d for d, mu in mobius.items())


@lru_cache(maxsize=None)
def _phi_at(e: int, k: int) -> int:
    """Phi_e(2^k), from its Moebius binomials."""
    up, down, _ = _mobius_split(e)
    top, bottom = [math.prod((1 << k * d) - 1 for d in ds) for ds in ((e, *down), up)]
    return top // bottom


# array("Q", n.to_bytes(size, sys.byteorder))[::_ORDER] lists n's words lowest first
_ORDER, _MASK = (1 if sys.byteorder == "little" else -1), (1 << 64) - 1


def _pack(coeffs: Sequence[int], words: int) -> int:
    """sum c_i B^i at B = 2^(64 * words), for -B/2 <= c_i < B/2: the words of
    each c_i mod B, then B/2 added to each digit by flipping its top bit."""
    raw = array("Q", bytes(8 * words * len(coeffs)))
    for j in range(words):
        raw[j::words] = array("Q", [c >> 64 * j & _MASK for c in coeffs])
    tops = int.from_bytes((bytes(8 * words - 1) + b"\x80") * len(coeffs), "little")
    return (int.from_bytes(raw[::_ORDER].tobytes(), sys.byteorder) ^ tops) - tops


def _unpack(x: int, words: int, length: int) -> list[int]:
    """The `length` balanced base-B digits of x, -B/2 <= c_i < B/2 with
    B = 2^(64 * words), lowest first; OverflowError when x has none."""
    tops = int.from_bytes((bytes(8 * words - 1) + b"\x80") * length, "little")  # B/2 each
    raw = ((x + tops) ^ tops).to_bytes(8 * words * length, sys.byteorder)
    digits = array("q", raw)[::_ORDER][words - 1 :: words].tolist()
    low = array("Q", raw)[::_ORDER]
    for j in range(words - 2, -1, -1):
        digits = list(map(or_, map(lshift, digits, repeat(64)), low[j::words]))
    return digits


def nu_phi(p: LaurentPoly, e: int) -> int:
    """Multiplicity of the e-th cyclotomic polynomial in p, as in the module
    notes; 0, building no Phi_e(B), when p's span is below phi(e) = deg Phi_e."""
    if p.is_zero:
        raise ValueError("the zero polynomial has no valuation")
    # before the early return, so that a bad e raises instead of counting 0
    up, down, degree = _mobius_split(e)
    if p.span < degree:
        return 0
    norm = sum(map(abs, p.coeffs))
    for words in count(norm.bit_length() // 64 + 1):
        phi, x, times = _phi_at(e, 64 * words), _pack(p.coeffs, words), 0
        while times < p.span // degree and not x % phi:
            x, times = x // phi, times + 1
        try:
            left = sum(map(abs, _unpack(x, words, p.span - times * degree + 1)))
        except OverflowError:
            continue  # x has no such digits: the count overshot
        if (left << times * (len(down) + 1)) + (norm << times * len(up)) < 1 << 64 * words - 1:
            return times


class GenericSchurFactors(NamedTuple):
    """The factored Schur element: a sign, a power of q and two factor
    lists.  A rank-n level-l multipartition has n q-integer entries
    (classical hook lengths, all >= 1) and n(l-1) pair entries
    (h, a, b) standing for q^h Q_a Q_b^{-1} - 1."""

    sign: int
    q_exponent: int
    q_integers: tuple[int, ...]
    pair_factors: tuple[tuple[int, int, int], ...]

    def to_json(self) -> dict:
        return {
            "sign": self.sign,
            "q_exp": self.q_exponent,
            "qints": list(self.q_integers),
            "pairs": [list(p) for p in self.pair_factors],
        }


def schur_factors(mp: Multipartition) -> GenericSchurFactors:
    """The factored Schur element of a multipartition.

    The generalised hook lam_i - i + mu'_j - j + 1 of each box is read
    from the column lengths mu'_j of each component, counted once and
    padded with zeros to the widest component; boxes run row by row, as
    in ``Partition.nodes``.
    """
    n, level = mp.rank, mp.level
    sign = -1 if (n * (level - 1)) % 2 else 1
    width = max((comp[0] for comp in mp if comp), default=0)
    cols = [column_lengths(comp, width) for comp in mp]
    qints: list[int] = []
    pairs: list[tuple[int, int, int]] = []
    for a, comp in enumerate(mp):
        others = [(b, cols[b]) for b in range(level) if b != a]
        own = cols[a]
        for i, row in enumerate(comp, start=1):
            for j in range(row):
                arm = row - i - j
                qints.append(arm + own[j])
                for b, col in others:
                    pairs.append((arm + col[j], a, b))
    return GenericSchurFactors(sign, -n_invariant(mp.bar()), tuple(qints), tuple(pairs))


def specialize_integer(mp: Multipartition, charges: Sequence[int]) -> LaurentPoly:
    """Expand the Schur element under Q_a -> y^(s_a), q -> y.

    Every pair factor must have a nonzero charged hook h + s_a - s_b;
    otherwise the product vanishes and BadSpecialisationError is raised.
    """
    if len(charges) != mp.level:
        raise ValueError("multicharge length must equal the level")
    f = schur_factors(mp)
    sign, low, hooks = f.sign, f.q_exponent, list(f.q_integers)
    for h, a, b in f.pair_factors:
        ch = h + charges[a] - charges[b]
        if ch == 0:
            raise BadSpecialisationError(f"zero charged hook between components {a} and {b}")
        if ch < 0:  # y^ch - 1 = -y^ch (y^-ch - 1)
            sign, low, ch = -sign, low + ch, -ch
        hooks.append(ch)
    # ||P||_1 <= prod h * 2^#pairs <= 2^(sum of bit lengths of h + #pairs) < 2^(k-1)
    words = (len(f.pair_factors) + sum(h.bit_length() for h in f.q_integers) + 1) // 64 + 1
    x = sign
    for h in hooks:
        x = (x << 64 * words * h) - x
    x //= ((1 << 64 * words) - 1) ** len(f.q_integers)
    return LaurentPoly._dense(low, _unpack(x, words, sum(hooks) - len(f.q_integers) + 1))


def column_tables(p, s: int, e: int, width: int) -> tuple[list, list[int]]:
    """The tables ``defect_integer`` reads for the component p under the
    charge s (e >= 2), its column lengths padded to ``width``, at least the
    widest component: the prefix counts R[lam'_j] for j = 1..lam_1, and the
    shifts (j - 1 - lam'_j + s) mod e for j = 1..width."""
    cols = column_lengths(p, width)
    prefix = [(0,) * e]
    counts = [0] * e
    for i, part in enumerate(p, start=1):
        counts[(part - i + s) % e] += 1
        prefix.append(tuple(counts))
    rows = [prefix[k] for k in cols[: p[0]]] if p else []
    return rows, [(j - k + s) % e for j, k in enumerate(cols)]


def defect_integer(mp: Multipartition, charges: Sequence[int], e: int) -> int:
    """The e-defect from the factor structure.

    For e >= 2 it counts the factors whose (charged) hook is divisible
    by e, zero charged hooks included, column by column without listing
    the factors.  The box (i, j) of component a has the charged hook
    lam^a_i - i + lam^b'_j - j + 1 + s_a - s_b against component b
    (b = a gives its q-integer factor), which is divisible by e exactly
    when lam^a_i - i = j - 1 - lam^b'_j - s_a + s_b mod e.  With the
    row-residue prefix counts R_a[k][r] = #{i <= k : lam^a_i - i = r mod e}
    the defect is

        sum_a sum_b sum_{j=1}^{lam^a_1} R_a[lam^a'_j][(j - 1 - lam^b'_j - s_a + s_b) mod e].

    The code counts lam^a_i - i + s_a in R_a and indexes it by
    j - 1 - lam^b'_j + s_b, so that each charge enters once per component
    and not once per pair (a, b).

    For e = 1 the q-integer factors never contribute and the count is
    the number of pair factors with a nonzero charged hook, which is
    n(l-1) whenever the multicharge never produces a zero charged hook.
    """
    if e < 1:
        raise ValueError("e must be positive")
    if len(charges) != mp.level:
        raise ValueError("multicharge length must equal the level")
    if e == 1:
        f = schur_factors(mp)
        return sum(1 for h, a, b in f.pair_factors if h + charges[a] - charges[b] != 0)
    width = max((comp[0] for comp in mp if comp), default=0)
    tables = [column_tables(comp, s, e, width) for comp, s in zip(mp, charges)]
    return sum(sum(map(getitem, r, v)) for r, _ in tables for _, v in tables)


class _RootFields(NamedTuple):
    ambient: int
    exponent: int


class RootOfUnity(_RootFields):
    """zeta_N^t: the exponent t inside the cyclic group of order N,
    reduced mod N."""

    __slots__ = ()

    def __new__(cls, ambient, exponent):
        if ambient < 1:
            raise ValueError("ambient order must be positive")
        return super().__new__(cls, ambient, exponent % ambient)

    @classmethod
    def _make(cls, iterable):
        # so that _replace reduces the exponent too
        return cls(*iterable)

    @property
    def element_order(self) -> int:
        return self.ambient // math.gcd(self.ambient, self.exponent)


def _common_ambient(roots: Iterable[RootOfUnity], u: RootOfUnity) -> int:
    ambient = u.ambient
    for xi in roots:
        if xi.ambient != ambient:
            raise ValueError("mismatched ambient orders")
    return ambient


def semisimple_check(
    xi: Sequence[RootOfUnity], u: RootOfUnity, n: int
) -> bool:
    """Whether the rank-n algebra with parameters (xi_0..xi_{l-1}; u) is
    semisimple: no vanishing q-integer up to n and no relation
    u^h xi_a = xi_b with 0 <= a < b < l and |h| < n, that is, every
    ``dipper_mathas_classes`` class is a singleton."""
    classes = dipper_mathas_classes(xi, u, n)
    order = u.element_order
    return (order == 1 or order > n) and len(classes) == len(xi)


def dipper_mathas_classes(
    xi: Sequence[RootOfUnity], u: RootOfUnity, n: int
) -> tuple[tuple[int, ...], ...]:
    """The finest partition of the component indices such that parameters
    in different parts never differ by u^h with |h| < n: the connected
    components of that relation."""
    if n < 0:
        raise ValueError("rank must be nonnegative")
    ambient = _common_ambient(xi, u)
    parent = list(range(len(xi)))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a in range(len(xi)):
        for b in range(a + 1, len(xi)):
            delta = (xi[b].exponent - xi[a].exponent) % ambient
            if any(
                (u.exponent * h - delta) % ambient == 0 for h in range(-(n - 1), n)
            ):
                parent[find(a)] = find(b)
    groups: dict[int, list[int]] = {}
    for a in range(len(xi)):
        groups.setdefault(find(a), []).append(a)
    return tuple(tuple(sorted(g)) for g in sorted(groups.values(), key=min))


def class_multicharge(
    members: Sequence[int], xi: Sequence[RootOfUnity], u: RootOfUnity
) -> tuple[int, ...]:
    """Exponents s with xi_a / xi_{a_1} = u^(s_a) for the members of one
    parameter class, each reduced into [0, order(u)); the first member
    gets 0."""
    if not members:
        raise ValueError("a parameter class cannot be empty")
    ambient = _common_ambient((xi[a] for a in members), u)
    e = u.element_order
    g = math.gcd(u.exponent, ambient)
    base = xi[members[0]].exponent
    out = []
    for a in members:
        delta = (xi[a].exponent - base) % ambient
        if delta % g != 0:
            raise ValueError(f"component {a} is not in the class of {members[0]}")
        if e == 1:
            out.append(0)
        else:
            out.append(((delta // g) * pow(u.exponent // g, -1, e)) % e)
    return tuple(out)


class _SpecFields(NamedTuple):
    level: int
    charges: tuple[int, ...]
    q_exp: int
    eta: RootOfUnity
    twist: tuple[int, ...]


class CycloSpec(_SpecFields):
    """A one-variable specialisation of the level-l parameters.

    Component a is sent to omega^(twist_a) * y^(charges_a) where omega
    is the fixed root of order `level` inside Z/NZ, q is sent to
    y^(q_exp), and y is evaluated at `eta`.  The default twist
    (0, 1, ..., l-1) is the standard choice; an all-zero twist encodes
    plain integer-multicharge parameters.
    """

    __slots__ = ()

    def __new__(cls, level, charges, q_exp, eta, twist=None):
        if level < 1:
            raise ValueError("level must be at least 1")
        if len(charges) != level:
            raise ValueError("one charge per component required")
        if q_exp == 0:
            raise ValueError("the q-exponent must be nonzero")
        if eta.ambient % level != 0:
            raise ValueError("the level must divide the ambient order")
        if twist is None:
            twist = tuple(range(level))
        elif len(twist) != level:
            raise ValueError("one twist exponent per component required")
        return super().__new__(cls, level, charges, q_exp, eta, twist)

    @classmethod
    def _make(cls, iterable):
        # so that _replace runs the checks too
        return cls(*iterable)

    def parameter(self, a: int) -> RootOfUnity:
        """The specialised value of component a, evaluated at eta."""
        step = self.eta.ambient // self.level
        return RootOfUnity(
            self.eta.ambient,
            self.twist[a] * step + self.charges[a] * self.eta.exponent,
        )

    def u(self) -> RootOfUnity:
        """The specialised value of q, evaluated at eta."""
        return RootOfUnity(self.eta.ambient, self.q_exp * self.eta.exponent)


def defect_general(mp: Multipartition, spec: CycloSpec) -> int:
    """Multiplicity of the minimal polynomial of eta in the specialised
    Schur element, factor by factor, with u = ``spec.u()`` and
    xi_a = ``spec.parameter(a)``.

    A q-integer factor [h]_q contributes 1 when u != 1 and u^h = 1.  A
    pair factor (h, a, b) contributes 1 when u^h xi_a = xi_b.  If its
    y-exponent q_exp*h + r_a - r_b is 0 as well, the factor is 0 before
    y is evaluated, and the whole specialisation vanishes.
    """
    if mp.level != spec.level:
        raise ValueError("multipartition level must match the specialisation")
    u = spec.u()
    xi = [spec.parameter(a).exponent for a in range(spec.level)]
    f = schur_factors(mp)
    e = u.element_order
    total = sum(1 for h in f.q_integers if h % e == 0) if e > 1 else 0
    for h, a, b in f.pair_factors:
        if (u.exponent * h + xi[a] - xi[b]) % u.ambient == 0:
            if spec.q_exp * h + spec.charges[a] - spec.charges[b] == 0:
                raise BadSpecialisationError(
                    f"the pair factor of components {a} and {b} vanishes identically"
                )
            total += 1
    return total
