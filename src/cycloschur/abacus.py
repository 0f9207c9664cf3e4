"""Beta-numbers, stacked abaci and charged hook lengths.

The charge-s beta-numbers of a partition p in a window of size m are
beta_j = p_j - j + s + 1 for j = 1..m+s.  They are strictly decreasing,
the last one is 1-m, and every position strictly below 1-m counts as an
implicit bead.  Stacking the runners of all components of a
multipartition gives its abacus.

Charged hook lengths can be read off the abacus: a bead at position
beta with delta(beta) empty positions to its left on its own runner
contributes beta - y for each of the first delta(beta) empty positions
y of every runner, scanned left to right.  ``charged_hooks_direct``
computes the same multiset straight from the generalised hook lengths
shifted by the charge difference and serves as the brute-force oracle
for ``charged_hooks_abacus``.

``count_zero_hooks`` and ``count_divisible_hooks`` count, without
building the multiset, the charged hooks equal to 0 and divisible by e.
They require the multicharge to be sorted; ``count_divisible_hooks``
further requires it to lie in the fundamental domain
s_0 <= ... <= s_{l-1} <= s_0 + e.  It sums the counting terms of
``n_k`` from two lists per runner (``hook_table``): with gap_t(y) = 1
when runner t misses y, P_t(x) the number of gaps y <= x - e of t with
y = x mod e and Q_t(x) = P_t(x) + gap_t(x), the count is the sum over
runners c and t and beads x of c of Q_t(x) if c < t and P_t(x)
otherwise.  The lists span the lowest gap of all runners
(``active_beads``) to the highest bead, so the cost does not grow with
the window.
"""

from __future__ import annotations

from collections import Counter
from itertools import accumulate
from operator import gt
from typing import NamedTuple, Sequence

from .partitions import Multipartition, Partition, generalized_hook


def default_window(mp: Multipartition, charges: Sequence[int]) -> int:
    """A window size valid for every component: the longest column count
    plus the largest absolute charge plus one."""
    longest = max((len(c) for c in mp), default=0)
    swing = max((abs(s) for s in charges), default=0)
    return longest + swing + 1


def beta_numbers(p: Partition, s: int, m: int) -> tuple[int, ...]:
    """The tuple (beta_1, ..., beta_{m+s}) with beta_j = p_j - j + s + 1."""
    if m < 1:
        raise ValueError("window m must be positive")
    size = m + s
    if size < 1:
        raise ValueError(f"window m={m} too small for charge {s}")
    if len(p) >= size:
        raise ValueError(
            f"window m={m} too small: {p!r} still has a nonzero part in row {size}"
        )
    # rows past the last part are empty, so their beads are packed down to 1-m
    return tuple(part - j + s for j, part in enumerate(p)) + tuple(
        range(s - len(p), -m, -1)
    )


def partition_from_beta(x: Sequence[int], m: int) -> tuple[Partition, int]:
    """Inverse of ``beta_numbers``: recover (partition, charge) from a
    strictly decreasing tuple whose last entry is 1-m."""
    x = tuple(x)
    if m < 1:
        raise ValueError("window m must be positive")
    if not x:
        raise ValueError("empty beta tuple")
    if any(x[k] <= x[k + 1] for k in range(len(x) - 1)):
        raise ValueError(f"beta numbers must be strictly decreasing: {x}")
    if x[-1] != 1 - m:
        raise ValueError(f"last beta number must be {1 - m}, got {x[-1]}")
    s = len(x) - m
    return Partition(b + j - s - 1 for j, b in enumerate(x, start=1)), s


class _BetaFields(NamedTuple):
    runners: tuple[tuple[int, ...], ...]
    charges: tuple[int, ...]
    m: int


class BetaConfig(_BetaFields):
    """Per-component beta-numbers of a charged multipartition."""

    __slots__ = ()

    def __new__(cls, runners, charges, m):
        if m < 1:
            raise ValueError("window m must be positive")
        if len(runners) != len(charges):
            raise ValueError("one runner per charge required")
        if not runners:
            raise ValueError("at least one component required")
        floor = 1 - m
        for c, (runner, s) in enumerate(zip(runners, charges)):
            if len(runner) != m + s:
                raise ValueError(
                    f"component {c}: expected {m + s} beads, got {len(runner)}"
                )
            if not all(map(gt, runner, runner[1:])):
                raise ValueError(f"component {c}: beads must strictly decrease")
            if runner[-1] != floor:
                raise ValueError(f"component {c}: last bead must sit at {floor}")
        return super().__new__(cls, runners, charges, m)

    @classmethod
    def _make(cls, iterable):
        # so that _replace runs the checks too
        return cls(*iterable)

    @property
    def level(self) -> int:
        return len(self.runners)


def multi_beta(
    mp: Multipartition, charges: Sequence[int], m: int | None = None
) -> BetaConfig:
    """Componentwise beta-numbers of mp for the given multicharge."""
    if len(charges) != mp.level:
        raise ValueError("multicharge length must equal the level")
    if m is None:
        m = default_window(mp, charges)
    return BetaConfig(
        tuple(beta_numbers(comp, s, m) for comp, s in zip(mp, charges)),
        tuple(charges),
        m,
    )


class ChargedHooks(NamedTuple):
    """A multiset of charged hook lengths, stored as sorted
    (value, multiplicity) pairs."""

    items: tuple[tuple[int, int], ...]

    @classmethod
    def from_counter(cls, counts: Counter) -> "ChargedHooks":
        return cls(tuple(sorted((v, mult) for v, mult in counts.items() if mult)))

    @property
    def total(self) -> int:
        return sum(mult for _, mult in self.items)

    def multiplicity(self, value: int) -> int:
        return dict(self.items).get(value, 0)

    def __contains__(self, value: int) -> bool:
        return self.multiplicity(value) > 0

    def elements(self) -> tuple[int, ...]:
        """The multiset expanded into a sorted tuple."""
        return tuple(v for v, mult in self.items for _ in range(mult))

    def formatted(self) -> str:
        """Serialisation as 'value^multiplicity' pairs, e.g. '-2^1 0^2 1^4'."""
        return " ".join(f"{v}^{mult}" for v, mult in self.items)

    def __str__(self) -> str:
        return self.formatted()


def _delta(runner: Sequence[int], m: int, x: int) -> int:
    # empty positions strictly left of x and strictly above the full region
    below = sum(1 for y in runner if y < x)
    return x + m - 1 - below


def _gaps(beads: set, m: int, count: int) -> list[int]:
    # first `count` empty positions of a runner, scanning from 2-m upward
    gaps: list[int] = []
    pos = 2 - m
    while len(gaps) < count:
        if pos not in beads:
            gaps.append(pos)
        pos += 1
    return gaps


def bead_hooks(cfg: BetaConfig, comp: int, x: int, other: int) -> list[int]:
    """The contributions {x - y_d} of the bead x of `comp` against the first
    delta(x) gaps of the runner `other`."""
    if x not in cfg.runners[comp]:
        raise ValueError(f"{x} is not a bead of component {comp}")
    d = _delta(cfg.runners[comp], cfg.m, x)
    gaps = _gaps(set(cfg.runners[other]), cfg.m, d)
    return [x - y for y in gaps]


def charged_hooks_abacus(
    cfg: BetaConfig, include_diagonal: bool = True
) -> ChargedHooks:
    """The charged-hook multiset computed by the bead/gap procedure."""
    level = cfg.level
    bead_sets = [set(r) for r in cfg.runners]
    deltas = [
        {x: _delta(runner, cfg.m, x) for x in runner} for runner in cfg.runners
    ]
    dmax = max((d for per in deltas for d in per.values()), default=0)
    gap_lists = [_gaps(bs, cfg.m, dmax) for bs in bead_sets]

    counts: Counter = Counter()
    n = 0
    for a, runner in enumerate(cfg.runners):
        for x in runner:
            d = deltas[a][x]
            n += d
            if d == 0:
                continue
            for b in range(level):
                if not include_diagonal and b == a:
                    continue
                for k in range(d):
                    counts[x - gap_lists[b][k]] += 1
    # every bead contributes one hook per gap below it, so the deltas sum to the rank
    rank = sum(
        x + i - s
        for runner, s in zip(cfg.runners, cfg.charges)
        for i, x in enumerate(runner)
    )
    if n != rank:
        raise ArithmeticError(f"bead deltas sum to {n}, not to the rank {rank}")
    return ChargedHooks.from_counter(counts)


def charged_hooks_direct(
    mp: Multipartition, charges: Sequence[int], include_diagonal: bool = True
) -> ChargedHooks:
    """The charged-hook multiset computed box by box from the generalised
    hook lengths; the brute-force oracle for ``charged_hooks_abacus``."""
    if len(charges) != mp.level:
        raise ValueError("multicharge length must equal the level")
    counts: Counter = Counter()
    for a, comp in enumerate(mp):
        for i, j in comp.nodes():
            for b in range(mp.level):
                if not include_diagonal and b == a:
                    continue
                counts[generalized_hook(comp, mp[b], i, j) + charges[a] - charges[b]] += 1
    return ChargedHooks.from_counter(counts)


def zero_membership(cfg: BetaConfig, c1: int, c2: int, x: int) -> bool:
    """Whether the bead x of component c1 contributes a zero hook against
    component c2: x must be absent from c2 and have fewer beads below it
    on its own runner than on runner c2."""
    if x not in cfg.runners[c1]:
        raise ValueError(f"{x} is not a bead of component {c1}")
    if x in cfg.runners[c2]:
        return False
    below1 = sum(1 for y in cfg.runners[c1] if y < x)
    below2 = sum(1 for y in cfg.runners[c2] if y < x)
    return below1 < below2


def n_k(cfg: BetaConfig, c: int, x: int, k: int, e: int | None = None) -> int:
    """The counting term for the bead x of component c.

    k = 0 counts the later components missing x; k > 0 counts all
    components where x - ke is free and above the full region.
    """
    if x not in cfg.runners[c]:
        raise ValueError(f"{x} is not a bead of component {c}")
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k == 0:
        return sum(
            1 for t in range(c + 1, cfg.level) if x not in cfg.runners[t]
        )
    if e is None or e < 2:
        raise ValueError("e >= 2 required for k > 0")
    target = x - k * e
    if target <= -cfg.m:
        return 0
    return sum(1 for t in range(cfg.level) if target not in cfg.runners[t])


def _require_sorted(charges: Sequence[int]) -> None:
    if list(charges) != sorted(charges):
        raise ValueError("multicharge must be weakly increasing")


def in_fundamental_domain(charges: Sequence[int], e: int) -> bool:
    """Whether s_0 <= s_1 <= ... <= s_{l-1} <= s_0 + e."""
    s = list(charges)
    return s == sorted(s) and (not s or s[-1] <= s[0] + e)


def check_domain(charges: Sequence[int], e: int) -> None:
    """Raise unless e >= 2 and the charges lie in the fundamental domain."""
    if e < 2:
        raise ValueError("e must be at least 2")
    if not in_fundamental_domain(charges, e):
        raise ValueError("multicharge outside the fundamental domain")


def count_zero_hooks(cfg: BetaConfig) -> int:
    """Number of charged hook lengths equal to 0 (multicharge sorted)."""
    _require_sorted(cfg.charges)
    return sum(
        n_k(cfg, c, x, 0) for c, runner in enumerate(cfg.runners) for x in runner
    )


def _lowest_gap(runner: Sequence[int], s: int) -> int:
    i = 0
    while runner[i] + i != s:
        i += 1
    return runner[i] + 1


def active_beads(cfg: BetaConfig) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """The lowest gap g over all runners, and the beads of each runner
    at or above g.

    Every runner is full below g, so nothing there can move or count.
    On each runner beta_j + j falls to s + 1 exactly where the empty
    rows begin, so the runner's lowest gap is found by scanning only
    its nonempty rows, and the runner holds exactly s + 1 - g beads at
    or above g.  Neither step depends on the window.
    """
    g = min(_lowest_gap(r, s) for r, s in zip(cfg.runners, cfg.charges))
    return g, tuple(r[: s + 1 - g] for r, s in zip(cfg.runners, cfg.charges))


def hook_table(beads: Sequence[int], base: int, top: int, e: int) -> tuple:
    """The divisible-hook lists (P, Q), over the positions base to top, of
    a runner full below base whose beads at or above base are `beads`.

    P[i] is the number of gaps at base + i - e, base + i - 2e, ..., and
    Q[i] = P[i] + 1 at a gap and P[i] elsewhere.  Every runner whose beads
    are read against the lists must lie at or below top and be full below
    base.
    """
    size = top - base + 1
    if beads and not base <= min(beads) <= max(beads) <= top:
        raise ValueError(f"beads must lie in [{base}, {top}]")
    q = [1] * size
    for x in beads:
        q[x - base] = 0
    # Q[i] = gap(i) + Q[i - e]: a running sum along each residue class
    for r in range(min(e, size)):
        q[r::e] = accumulate(q[r::e])
    return [0] * min(e, size) + q[:-e], q


def count_divisible_hooks(cfg: BetaConfig, e: int) -> int:
    """Number of charged hook lengths divisible by e, diagonal included.

    The count is the sum of the terms ``n_k`` over all beads x and all
    k >= 0: Q_t(x) against each later runner t and P_t(x) against the
    others, from one ``hook_table`` per runner.  Below the lowest gap g
    of all runners every runner is full and every term vanishes, so the
    tables span g to the highest bead, and the cost grows with the rank
    and the charges, not with the window.
    """
    check_domain(cfg.charges, e)
    g, beads = active_beads(cfg)
    top = max((r[0] for r in beads if r), default=g - 1)
    tables = [hook_table(r, g, top, e) for r in beads]
    return sum(
        (q if c < t else p)[x - g]
        for c, runner in enumerate(beads)
        for t, (p, q) in enumerate(tables)
        for x in runner
    )


def normalize_multicharge(
    charges: Sequence[int], e: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Reduce each charge mod e and sort weakly increasing.

    Returns the sorted multicharge together with the permutation mapping
    old component indices to new ones, so component i of the original
    data becomes component perm[i] of the normalised one.
    """
    if e < 2:
        raise ValueError("e must be at least 2")
    reduced = [s % e for s in charges]
    order = sorted(range(len(reduced)), key=reduced.__getitem__)
    perm = [0] * len(reduced)
    for new, old in enumerate(order):
        perm[old] = new
    return tuple(reduced[old] for old in order), tuple(perm)


def render_abacus(cfg: BetaConfig) -> str:
    """ASCII picture of the abacus: one row per component with the last
    component on top, '*' for beads, '.' for gaps, a '|' marker between
    positions -1 and 0, and a row of position labels at the bottom."""
    lo = 1 - cfg.m
    hi = max([0, *(max(r) for r in cfg.runners)]) + 2
    width = max(len(str(lo)), len(str(hi)))

    def build(cells: list[str]) -> str:
        out = [cells[0]]
        for offset, cell in enumerate(cells[1:]):
            out.append("|" if lo + offset == -1 else " ")
            out.append(cell)
        return "".join(out)

    lines = []
    for c in range(cfg.level - 1, -1, -1):
        beads = set(cfg.runners[c])
        cells = [
            f"{'*' if pos in beads else '.':>{width}}" for pos in range(lo, hi + 1)
        ]
        lines.append(build(cells))
    lines.append(build([f"{pos:>{width}}" for pos in range(lo, hi + 1)]))
    return "\n".join(lines)
