"""Weights, cores and residue vectors of charged multipartitions.

The residue of the box (a, i, j) is (j - i + s_a) mod e.  The weight of
a charged multipartition can be computed from its residue vector
(``residue_weight`` / ``fayers_weight``) or by reducing its abacus to a
terminal state (``core`` / ``uglov_weight``): while some bead of
component c-1 is missing from component c, transfer it across at the
same position (Step 1); once the components are nested, while some bead
x of the last component has position x - e free on the first component
and above the window floor, transfer it there (Step 3).  The number of
transfers is the weight and the terminal abacus is the core.  Neither
depends on the order in which eligible transfers are applied nor on the
window size; both facts are exercised by the test suite.

``core`` computes the terminal state without moving a bead.  Let b[y]
be the number of runners with a bead at y.  Step 1 only raises beads to
higher components at a fixed position, so after it the b[y] beads at y
sit on the top b[y] components, and Step 3 takes a bead from x to x - e
whenever b[x] >= 1 and b[x - e] < l.  The terminal state therefore packs
the beads of each residue class mod e from the bottom, l per position,
and the nested runners are read off the packed counts.  Every transfer
lowers the potential sum over beads (c, y) of (l*y - e*c) by exactly e,
so the weight is the potential of the start minus that of the terminal
state, over e.  Below the lowest gap of all runners every runner is full
and nothing moves.

The packing depends on the runners only through the bead counts per
residue class summed over them, the class totals, and the weight only
through their potential; ``bead_state`` reads both in one pass over the
beads, and is the one place that computes a potential.
``terminal_core`` packs the class totals from a base below which every
runner is full: it reads each component's terminal beads back as one
range of positions per class, then the core and its charges, and takes
the number of moves from the potential ``bead_state`` gives those
runners.  Each caller works out its own base.  ``core`` packs a
multipartition from the lowest gap of all runners
(``abacus.active_beads``).  ``key_core`` needs only the residue vector:
a rank-n member has no gap below min(charges) - n + 1, and adding a box
of residue r moves one bead from class r to class r + 1 and raises it
by one, so the class totals are those of the empty runners with the key
moved along, and the start potential is that of the empty runners plus
level times rank, the sum of the key.  The scan calls it once per key.
``uglov_weight`` keeps the move-by-move reduction, optionally in a
random order, as the independent cross-check.

The reduction requires the multicharge to lie in the fundamental domain
s_0 <= ... <= s_{l-1} <= s_0 + e.  ``normalized_instance`` brings an
arbitrary integer multicharge there by reducing mod e and sorting,
permuting the components of the multipartition accordingly.

Residue vectors double as block keys: block membership of the
specialised algebra is approximated by equality of residue vectors,
the finest purely combinatorial invariant computed here.  Members of
one key class provably share their weight; the scan harness checks
that they share their defect as well.
"""

from __future__ import annotations

import random
from typing import NamedTuple, Sequence

from .abacus import (
    active_beads,
    check_domain,
    multi_beta,
    normalize_multicharge,
)
from .partitions import (
    Multipartition,
    Partition,
    format_multipartition,
    generalized_hook,
    hooks_multiset,
)


def residue_counts(p: Partition, s: int, e: int) -> tuple[int, ...]:
    """Count the boxes of one component in each residue class
    (col - row + s) mod e."""
    if e < 2:
        raise ValueError("e must be at least 2")
    counts = [0] * e
    for i, part in enumerate(p, start=1):
        for j in range(1, part + 1):
            counts[(j - i + s) % e] += 1
    return tuple(counts)


def residue_vector(
    mp: Multipartition, charges: Sequence[int], e: int
) -> tuple[int, ...]:
    """Count the boxes of each residue class (col - row + s_a) mod e: the
    sum of the ``residue_counts`` of the components, one count per class;
    the proxy block key."""
    if len(charges) != mp.level:
        raise ValueError("multicharge length must equal the level")
    per_comp = [residue_counts(comp, s, e) for comp, s in zip(mp, charges)]
    return tuple(map(sum, zip(*per_comp)))


def residue_weight(counts: Sequence[int], charges: Sequence[int]) -> int:
    """The weight from the residue vector c = counts, one count per class
    mod e: sum_i c_{s_i} - (1/2) sum_{i mod e} (c_i - c_{i-1})^2."""
    c, e = counts, len(counts)
    if e < 2:
        raise ValueError("a residue vector needs at least two counts")
    if any(count < 0 for count in c):
        raise ValueError("counts must be nonnegative")
    total = sum(c[s % e] for s in charges)
    # even: the differences sum to 0, and d^2 = d mod 2 for each of them
    square = sum((c[i] - c[i - 1]) ** 2 for i in range(e))
    weight = total - square // 2
    if weight < 0:
        raise ArithmeticError("weight must be nonnegative")
    return weight


def fayers_weight(mp: Multipartition, charges: Sequence[int], e: int) -> int:
    """The weight from the residue vector of mp (``residue_weight``)."""
    return residue_weight(residue_vector(mp, charges, e), charges)


def _reduce_runners(
    runners: list[set], m: int, e: int, rng: random.Random | None = None
) -> int:
    """Run the bead reduction move by move, in place, and return the
    number of moves.

    Without an rng the first eligible move of the active step is taken;
    with one, a uniformly random eligible move.  This is the cross-check
    for ``core``, which never moves a bead.
    """
    floor = 1 - m
    level = len(runners)
    moves = 0
    while True:
        step1 = [
            (c, x)
            for c in range(1, level)
            for x in runners[c - 1]
            if x not in runners[c]
        ]
        if step1:
            c, x = step1[0] if rng is None else step1[rng.randrange(len(step1))]
            runners[c - 1].discard(x)
            runners[c].add(x)
            moves += 1
            continue
        step3 = [
            x
            for x in runners[level - 1]
            if x - e >= floor and x - e not in runners[0]
        ]
        if step3:
            x = step3[0] if rng is None else step3[rng.randrange(len(step3))]
            runners[level - 1].discard(x)
            runners[0].add(x - e)
            moves += 1
            continue
        return moves


def uglov_weight(
    mp: Multipartition,
    charges: Sequence[int],
    e: int,
    m: int | None = None,
    rng: random.Random | None = None,
) -> int:
    """The weight as the number of bead moves of the reduction, counted
    move by move; an rng randomises the order of the moves."""
    check_domain(charges, e)
    cfg = multi_beta(mp, charges, m)
    return _reduce_runners([set(r) for r in cfg.runners], cfg.m, e, rng)


class CoreResult(NamedTuple):
    """Terminal state of the reduction: the core multipartition, the
    terminal charges (bead counts change as beads cross runners), and
    the number of moves performed."""

    core: Multipartition
    charges: tuple[int, ...]
    weight: int

    def to_json(self) -> dict:
        return {
            "core": format_multipartition(self.core),
            "charges": list(self.charges),
            "weight": self.weight,
        }


def bead_state(runners: Sequence[Sequence[int]], e: int) -> tuple[tuple[int, ...], int]:
    """The bead counts per residue class mod e, summed over these runners
    in component order, and their potential: the sum over the beads y of
    runner c of level*y - e*c (see the module docstring)."""
    level = len(runners)
    totals = [0] * e
    potential = 0
    for c, runner in enumerate(runners):
        for x in runner:
            totals[x % e] += 1
        potential += level * sum(runner) - e * c * len(runner)
    return tuple(totals), potential


def terminal_core(
    totals: Sequence[int], start: int, base: int, level: int, e: int
) -> CoreResult:
    """The terminal state of the reduction from the class totals and the
    start potential of runners that are full below base: the totals[r]
    beads of each residue class r mod e packed from base upward, level
    per position, read back as the core and its charges, and the number
    of moves, (start - terminal potential) / e, with the terminal
    potential from ``bead_state`` (see the module docstring).  The t
    beads of class r fill t // level positions and put the rest on the
    top t mod level components, so component c holds the lowest
    t // level positions of class r at or above base, and one more when
    t mod level >= level - c."""
    runners: list[list[int]] = [[] for _ in range(level)]
    # low is the lowest position at or above base of its class
    for low in range(base, base + e):
        full, rest = divmod(totals[low % e], level)
        for c, runner in enumerate(runners):
            runner.extend(range(low, low + e * (full + (rest >= level - c)), e))
    moves, rest = divmod(start - bead_state(runners, e)[1], e)
    if rest or moves < 0:
        raise ArithmeticError("the reduction potential must fall by a multiple of e")
    # a runner with k beads at or above base has m + base - 1 more below
    # them, so its charge is k + base - 1
    comps, charges = [], []
    for xs in runners:
        xs.sort(reverse=True)
        s = len(xs) + base - 1
        comps.append(Partition(x + i - s for i, x in enumerate(xs)))
        charges.append(s)
    return CoreResult(Multipartition(comps), tuple(charges), moves)


def key_core(key: Sequence[int], charges: Sequence[int]) -> CoreResult:
    """The reduction of any multipartition with residue vector key, one
    count per class mod e = len(key), packed from base = min(charges) - n + 1
    with n = sum(key): no runner of a member of rank n has a gap below it."""
    e, n = len(key), sum(key)
    base = min(charges) - n + 1
    empty, potential = bead_state([range(s, base - 1, -1) for s in charges], e)
    # each box of residue r raises one bead by one, from class r to r + 1
    totals = [count - key[r] + key[r - 1] for r, count in enumerate(empty)]
    return terminal_core(totals, potential + len(charges) * n, base, len(charges), e)


def core(
    mp: Multipartition, charges: Sequence[int], e: int, m: int | None = None
) -> CoreResult:
    """Reduce to the terminal abacus at window m and read it back as a
    multipartition."""
    check_domain(charges, e)
    beta = multi_beta(mp, charges, m)
    g, beads = active_beads(beta)
    return terminal_core(*bead_state(beads, e), g, beta.level, e)


def _remove_rim_hook(p: Partition, i: int, j: int) -> Partition:
    # rows i..f-1 take the next row shortened by one; the foot row f is cut at j-1
    foot = sum(1 for q in p if q >= j)
    parts = list(p)
    for r in range(i, foot):
        parts[r - 1] = p.part(r + 1) - 1
    parts[foot - 1] = j - 1
    return Partition(parts)


def ecore_classical(p: Partition, e: int) -> tuple[Partition, int]:
    """Remove rim hooks of length e until none remain, always taking the
    topmost removable box; returns (core, number of hooks removed)."""
    if e < 2:
        raise ValueError("e must be at least 2")
    current = p
    removed = 0
    while True:
        target = None
        for i, j in current.nodes():
            if generalized_hook(current, current, i, j) == e:
                target = (i, j)
                break
        if target is None:
            return current, removed
        current = _remove_rim_hook(current, *target)
        removed += 1


def ecore_abacus(p: Partition, e: int) -> tuple[Partition, int]:
    """The e-core by sliding beads left by e on a single runner; the
    independent oracle for ``ecore_classical``."""
    result = core(Multipartition([p]), (0,), e)
    if result.charges != (0,):
        raise ArithmeticError("a single runner must keep its charge")
    return result.core[0], result.weight


def bgo_check(p: Partition, e: int) -> bool:
    """Whether the hook multiset of the e-core is contained in the hook
    multiset of p.  True for every partition; fails for the level > 1
    analogue, which is why it is only defined here for partitions."""
    return hooks_multiset(ecore_classical(p, e)[0]) <= hooks_multiset(p)


def normalized_instance(
    mp: Multipartition, charges: Sequence[int], e: int
) -> tuple[Multipartition, tuple[int, ...]]:
    """Reduce the multicharge mod e, sort it into the fundamental domain
    and permute the components of mp along with it."""
    norm, perm = normalize_multicharge(charges, e)
    comps: list = [None] * mp.level
    for old, new in enumerate(perm):
        comps[new] = mp[old]
    return Multipartition(comps), norm
