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

from .partitions import Multipartition, format_multipartition
from .schur import CycloSpec, defect_general, defect_integer, specialize_integer
from .weights import residue_vector


def sigma(mp: Multipartition, d: int) -> Multipartition:
    """Cyclic shift by one package of d components."""
    if d < 1 or mp.level % d != 0:
        raise ValueError("the package size must divide the level")
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
    if not text or d < 1 or p < 1 or t.count("|") != p * d:
        raise ValueError("level must equal p*d")
    c = t.count("|", 0, (t + t).find(t, 1))
    return c // gcd(c, d)


def _is_periodic(seq: Sequence, d: int) -> bool:
    return all(seq[k] == seq[k % d] for k in range(len(seq)))


def glpn_defect(mp: Multipartition, d: int, p: int, spec: CycloSpec) -> int:
    """Defect of the subalgebra constituents attached to mp: the Schur
    element is a nonzero rational multiple of the ambient one, so the
    defect is the ambient defect.  Requires d-periodic charges."""
    if p < 1 or mp.level != p * d:
        raise ValueError("level must equal p*d")
    if spec.level != mp.level:
        raise ValueError("specialisation level must match the multipartition")
    if not _is_periodic(spec.charges, d):
        raise ValueError("charges must repeat with period d")
    return defect_general(mp, spec)


def sigma_schur_invariance(
    mp: Multipartition, d: int, p: int, charges: Sequence[int]
) -> bool:
    """Whether the expanded integer-multicharge Schur elements of mp and
    of its shift agree; the multicharge must be d-periodic."""
    if p < 1 or mp.level != p * d:
        raise ValueError("level must equal p*d")
    if len(charges) != mp.level:
        raise ValueError("multicharge length must equal the level")
    if not _is_periodic(charges, d):
        raise ValueError("multicharge must repeat with period d")
    return specialize_integer(mp, charges) == specialize_integer(sigma(mp, d), charges)


def packages(mp: Multipartition, size: int) -> tuple[Multipartition, ...]:
    """Split mp into consecutive packages of the given size."""
    if size < 1 or mp.level % size != 0:
        raise ValueError("the package size must divide the level")
    return tuple(
        Multipartition(mp[k : k + size]) for k in range(0, mp.level, size)
    )


def yokonuma_defect(
    mp: Multipartition, d: int, l: int, charges: Sequence[int], e: int
) -> int:
    """Defect of a level d*l multipartition with the same length-l
    multicharge applied to every package: the sum of the package
    defects."""
    if mp.level != d * l:
        raise ValueError("level must equal d*l")
    if len(charges) != l:
        raise ValueError("one charge per package component required")
    return sum(defect_integer(pkg, charges, e) for pkg in packages(mp, l))


def yokonuma_block_key(
    mp: Multipartition, d: int, l: int, charges: Sequence[int], e: int
) -> tuple[tuple[int, ...], ...]:
    """Per-package residue vectors; equal keys define the proxy block.
    Equal keys force equal package ranks, since a residue vector sums to
    the rank it was computed from."""
    if mp.level != d * l:
        raise ValueError("level must equal d*l")
    if len(charges) != l:
        raise ValueError("one charge per package component required")
    return tuple(residue_vector(pkg, charges, e) for pkg in packages(mp, l))
