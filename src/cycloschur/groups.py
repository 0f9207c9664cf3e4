"""The package-shift action on multipartitions and the defect
bookkeeping it induces.

A level p*d multipartition splits into p packages of d consecutive
components; ``sigma`` cyclically moves the last package to the front.
Specialisations with d-periodic charges are invariant under this shift,
so the defect of a multipartition and of its shift agree, which is what
``glpn_defect`` relies on.

A level d*l multipartition also splits into d packages of l components;
its Schur element is a constant times the product of the package Schur
elements, so its defect is the sum of the package defects
(``yokonuma_defect``) and its block key is the tuple of package keys
(``yokonuma_block_key``).
"""

from __future__ import annotations

from math import gcd
from typing import Sequence

from .partitions import Multipartition, enumerate_multipartitions, format_multipartition
from .schur import (
    CycloSpec,
    _prime_divisors,
    defect_general,
    defect_integer,
    specialize_integer,
)
from .weights import residue_vector


def _check_shift(level: int, d: int, p: int, charges: Sequence[int] = ()) -> None:
    """The shift by d-packages acts on level p*d and fixes the
    specialisations whose charges repeat with period d."""
    if d < 1 or p < 1 or level != p * d:
        raise ValueError("level must equal p*d")
    if any(s != charges[k % d] for k, s in enumerate(charges)):
        raise ValueError("charges must repeat with period d")


def _check_size(level: int, size: int) -> None:
    if size < 1 or level % size != 0:
        raise ValueError("the package size must divide the level")


def sigma(mp: Multipartition, d: int) -> Multipartition:
    """Cyclic shift by one package of d components."""
    _check_size(mp.level, d)
    if mp.level == d:
        return mp
    return Multipartition(mp[-d:] + mp[:-d])


def orbit(mp: str | Multipartition, d: int, p: int) -> int:
    """The size of the orbit of mp under the shift by d-packages, for
    level p*d: the least number of package rotations that fixes mp, a
    divisor of p whose cofactor p // size is the order of the stabilizer.

    mp is a member text such as ``"2.1|0|2.1|0"`` or a ``Multipartition``.
    The size is read from the period of the text t = mp + "|".  Since t
    ends in "|", a character rotation that fixes t moves a whole number of
    components, so the least such rotation r, the first match of t in
    t + t after position 0, moves the least number c of components that
    fixes mp.  The shifts fixing mp are the multiples of c, and c divides
    the level p*d; the k-th power of the shift fixes mp exactly when c
    divides k*d, so the size is c // gcd(c, d), a divisor of p."""
    text = mp if isinstance(mp, str) else format_multipartition(mp)
    t = text + "|"
    # an empty text has no component, level 0
    _check_shift(t.count("|") if text else 0, d, p)
    c = t.count("|", 0, (t + t).find(t, 1))
    return c // gcd(c, d)


def short_orbits(level: int, rank: int, d: int, p: int) -> dict[str, int]:
    """The member texts of level p*d and the given rank whose orbit under
    the shift by d-packages is smaller than p, each mapped to its size by
    ``orbit``; every other member has orbit size p.

    An orbit smaller than p means that the shift by p/r packages fixes the
    member for some prime r of p, so the member is r copies of its first
    level/r components, of rank rank/r each.  The map is built from these
    r-fold repeats alone, for each prime r of p that divides the rank."""
    _check_shift(level, d, p)
    short = {}
    for r in _prime_divisors(p):
        if rank % r == 0:
            for x in enumerate_multipartitions(level // r, rank // r):
                text = "|".join([format_multipartition(x)] * r)
                short[text] = orbit(text, d, p)
    return short


def glpn_defect(mp: Multipartition, d: int, p: int, spec: CycloSpec) -> int:
    """Defect of the subalgebra constituents attached to mp: the Schur
    element is a nonzero rational multiple of the ambient one, so the
    defect is the ambient defect.  Requires d-periodic charges."""
    if spec.level != mp.level:
        raise ValueError("specialisation level must match the multipartition")
    _check_shift(mp.level, d, p, spec.charges)
    return defect_general(mp, spec)


def sigma_schur_invariance(
    mp: Multipartition, d: int, p: int, charges: Sequence[int]
) -> bool:
    """Whether the expanded integer-multicharge Schur elements of mp and
    of its shift agree; the multicharge must be d-periodic."""
    _check_shift(mp.level, d, p, charges)
    return specialize_integer(mp, charges) == specialize_integer(sigma(mp, d), charges)


def packages(mp: Multipartition, size: int) -> tuple[Multipartition, ...]:
    """Split mp into consecutive packages of the given size."""
    _check_size(mp.level, size)
    return tuple(Multipartition(mp[k : k + size]) for k in range(0, mp.level, size))


def _yokonuma_packages(
    mp: Multipartition, d: int, l: int, charges: Sequence[int]
) -> tuple[Multipartition, ...]:
    """The d packages of l components of a level d*l multipartition, each
    to be read with the same length-l multicharge."""
    if mp.level != d * l:
        raise ValueError("level must equal d*l")
    if len(charges) != l:
        raise ValueError("one charge per package component required")
    return packages(mp, l)


def yokonuma_defect(
    mp: Multipartition, d: int, l: int, charges: Sequence[int], e: int
) -> int:
    """Defect of a level d*l multipartition with the same length-l
    multicharge applied to every package: the sum of the package
    defects."""
    return sum(defect_integer(pkg, charges, e) for pkg in _yokonuma_packages(mp, d, l, charges))


def yokonuma_block_key(
    mp: Multipartition, d: int, l: int, charges: Sequence[int], e: int
) -> tuple[tuple[int, ...], ...]:
    """Per-package residue vectors; equal keys define the proxy block.
    Equal keys force equal package ranks, since a residue vector sums to
    the rank it was computed from."""
    return tuple(residue_vector(pkg, charges, e) for pkg in _yokonuma_packages(mp, d, l, charges))
