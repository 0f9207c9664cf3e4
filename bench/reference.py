"""Independent combinatorics used to generate inputs and to check outputs.

Nothing here imports cycloschur: every quantity the benchmark checks the
program against is recomputed from the definitions.  A multipartition is
a tuple of partitions, a partition a tuple of positive parts in weakly
decreasing order.
"""

from __future__ import annotations

from itertools import product


def partitions(n: int, top: int | None = None) -> list[tuple[int, ...]]:
    """All partitions of n with parts at most `top`."""
    if n == 0:
        return [()]
    top = n if top is None else min(top, n)
    return [(k, *rest) for k in range(top, 0, -1) for rest in partitions(n - k, k)]


def multipartitions(l: int, n: int) -> list[tuple[tuple[int, ...], ...]]:
    """All l-component multipartitions of rank n, in no particular order."""
    out = []
    for ranks in product(range(n + 1), repeat=l):
        if sum(ranks) == n:
            out.extend(product(*(partitions(k) for k in ranks)))
    return out


def count_multipartitions(l: int, n: int) -> int:
    """The coefficient of x^n in P(x)^l, P the partition generating function."""
    p = [0] * (n + 1)
    p[0] = 1
    for part in range(1, n + 1):
        for k in range(part, n + 1):
            p[k] += p[k - part]
    series = [1] + [0] * n
    for _ in range(l):
        series = [sum(series[i] * p[k - i] for i in range(k + 1)) for k in range(n + 1)]
    return series[n]


def parse_mp(text: str) -> tuple[tuple[int, ...], ...]:
    """Read the '3.1|2.1.1' grammar; the empty component is '0'."""
    return tuple(
        () if comp == "0" else tuple(int(x) for x in comp.split("."))
        for comp in text.split("|")
    )


def format_mp(mp) -> str:
    return "|".join(".".join(map(str, comp)) if comp else "0" for comp in mp)


def boxes(mp):
    """(component, row, column) of every box, rows and columns from 1."""
    for a, comp in enumerate(mp):
        for i, part in enumerate(comp, start=1):
            for j in range(1, part + 1):
                yield a, i, j


def column_length(comp, j: int) -> int:
    return sum(1 for part in comp if part >= j)


def hook(lam, mu, i: int, j: int) -> int:
    """Hook of the box (i, j) of lam against the columns of mu."""
    return lam[i - 1] - i + column_length(mu, j) - j + 1


def schur_hooks(mp, charges):
    """The q-integer hooks and the charged hooks of the pair factors of
    the Schur element of mp under Q_a -> y^(s_a), q -> y."""
    qints, pairs = [], []
    for a, i, j in boxes(mp):
        qints.append(hook(mp[a], mp[a], i, j))
        for b in range(len(mp)):
            if b != a:
                pairs.append(hook(mp[a], mp[b], i, j) + charges[a] - charges[b])
    return qints, pairs


def has_zero_charged_hook(mp, charges) -> bool:
    return 0 in schur_hooks(mp, charges)[1]


def defect_from_hooks(mp, charges, e: int) -> int:
    """Factors of the Schur element whose (charged) hook e divides."""
    qints, pairs = schur_hooks(mp, charges)
    return sum(1 for h in qints if h % e == 0) + sum(1 for h in pairs if h % e == 0)


def residues(mp, charges, e: int) -> tuple[int, ...]:
    """Box counts per residue (col - row + s_a) mod e."""
    counts = [0] * e
    for a, i, j in boxes(mp):
        counts[(j - i + charges[a]) % e] += 1
    return tuple(counts)


def fayers_weight(counts, charges, e: int) -> int:
    """sum_i c_(s_i mod e) - (1/2) sum_i (c_i - c_(i-1))^2 (Fayers)."""
    square = sum((counts[i] - counts[i - 1]) ** 2 for i in range(e))
    return sum(counts[s % e] for s in charges) - square // 2


def orbit_size(mp, d: int) -> int:
    """Number of distinct cyclic shifts of mp by packages of d components."""
    seen, current = set(), tuple(mp)
    while current not in seen:
        seen.add(current)
        current = current[-d:] + current[:-d]
    return len(seen)
