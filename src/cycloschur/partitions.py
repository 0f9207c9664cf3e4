"""Partitions, multipartitions and Young-diagram combinatorics.

Conventions used throughout the package:

* components of a multipartition are indexed 0..l-1,
* rows and columns of a Young diagram are indexed from 1,
* a partition stores no trailing zeros; reading a part beyond the
  stored length yields 0.

The text grammar shared with the command line writes a multipartition
with components separated by ``|`` and parts separated by ``.``; the
empty component is written ``0``.  So ``3.1|2.1.1`` is ((3,1),(2,1,1))
and ``2|0|1.1`` is ((2),(),(1,1)).  A multicharge is comma separated,
e.g. ``0,2``.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from math import prod
from itertools import product
from typing import Iterable, Iterator


class Partition(tuple):
    """A weakly decreasing tuple of positive integers."""

    def __new__(cls, parts: Iterable[int] = ()):
        parts = tuple(int(p) for p in parts)
        while parts and parts[-1] == 0:
            parts = parts[:-1]
        for k, p in enumerate(parts):
            if p <= 0:
                raise ValueError(f"parts must be positive integers: {parts}")
            if k > 0 and parts[k - 1] < p:
                raise ValueError(f"parts must be weakly decreasing: {parts}")
        return super().__new__(cls, parts)

    @property
    def rank(self) -> int:
        return sum(self)

    def part(self, i: int) -> int:
        """The i-th part, 1-indexed; 0 beyond the stored length."""
        if i < 1:
            raise IndexError("row indices start at 1")
        return self[i - 1] if i <= len(self) else 0

    def conjugate(self) -> "Partition":
        """The transposed diagram: conjugate()[k-1] = #{i : p_i >= k}."""
        if not self:
            return self
        return Partition(column_lengths(self, self[0]))

    def nodes(self) -> Iterator[tuple[int, int]]:
        """All boxes (row, col), row by row."""
        for i, p in enumerate(self, start=1):
            for j in range(1, p + 1):
                yield i, j

    def __repr__(self) -> str:
        return f"Partition({tuple(self)})"


class Multipartition(tuple):
    """A tuple of l >= 1 partitions."""

    def __new__(cls, components: Iterable):
        comps = tuple(
            c if isinstance(c, Partition) else Partition(c) for c in components
        )
        if not comps:
            raise ValueError("a multipartition has at least one component")
        return super().__new__(cls, comps)

    @property
    def level(self) -> int:
        return len(self)

    @property
    def rank(self) -> int:
        return sum(c.rank for c in self)

    def bar(self) -> Partition:
        """All parts of all components reordered into a single partition."""
        # the sorted parts of valid components are valid: skip the checks
        return tuple.__new__(Partition, sorted((p for comp in self for p in comp), reverse=True))

    def __repr__(self) -> str:
        return f"Multipartition({', '.join(repr(tuple(c)) for c in self)})"


def column_lengths(p, width: int) -> list[int]:
    """The column lengths p'_1, ..., p'_width of the partition p, padded
    with zeros; width must be at least p_1.  Row i sets its p_i columns to
    i, so the cost is linear in |p| + width."""
    cols = [0] * width
    for i, part in enumerate(p, start=1):
        cols[:part] = [i] * part
    return cols


def generalized_hook(lam: Partition, mu: Partition, i: int, j: int) -> int:
    """Hook length of the box (i, j) of lam taken against the columns of mu:
    lam_i - i + mu'_j - j + 1.

    For mu = lam this is the classical hook length arm + leg + 1.
    """
    if i < 1 or not 1 <= j <= lam.part(i):
        raise ValueError(f"({i},{j}) is not a box of {lam!r}")
    mu_col = sum(1 for p in mu if p >= j)
    return lam.part(i) - i + mu_col - j + 1


def hooks_multiset(p: Partition) -> Counter:
    """Multiset of classical hook lengths of p, one entry per box."""
    return Counter(generalized_hook(p, p, i, j) for i, j in p.nodes())


def n_invariant(p: Partition) -> int:
    """sum_{i>=1} (i-1) p_i, the row-weighted size of the diagram."""
    return sum((i - 1) * part for i, part in enumerate(p, start=1))


@lru_cache(maxsize=None)
def partitions_of(n: int, max_part: int | None = None) -> tuple[Partition, ...]:
    """All partitions of n with parts bounded by max_part, in descending
    lexicographic order on the part tuples: (4) > (3,1) > (2,2) > ...
    """
    if n < 0:
        raise ValueError("rank must be nonnegative")
    if n == 0:
        return (Partition(),)
    top = n if max_part is None else min(max_part, n)
    # each result is valid by construction, so it skips the checks of
    # Partition.__new__
    new = tuple.__new__
    return tuple(
        new(Partition, (first,) + rest)
        for first in range(top, 0, -1)
        for rest in partitions_of(n - first, first)
    )


def rank_vectors(n: int, l: int) -> Iterator[tuple[int, ...]]:
    """The component ranks of the l-multipartitions of rank n: the weak
    compositions of n into l parts, in descending lexicographic order."""
    if l == 1:
        yield (n,)
        return
    for first in range(n, -1, -1):
        for rest in rank_vectors(n - first, l - 1):
            yield (first, *rest)


def enumerate_multipartitions(l: int, n: int) -> Iterator[Multipartition]:
    """Every l-component multipartition of rank n exactly once.

    The order is deterministic: component-rank vectors in descending
    lexicographic order, then within each rank vector the components run
    through ``partitions_of`` order with the leftmost component varying
    slowest.  For l=2, n=2 this gives 2|0, 1.1|0, 1|1, 0|2, 0|1.1.
    """
    if l < 1:
        raise ValueError("level must be at least 1")
    if n < 0:
        raise ValueError("rank must be nonnegative")
    for ranks in rank_vectors(n, l):
        for combo in product(*(partitions_of(k) for k in ranks)):
            yield Multipartition(combo)


def partition_numbers(n: int) -> list[int]:
    """The numbers of partitions of 0, 1, ..., n, counted one part size at
    a time: after the sizes 1, ..., q, counts[k] is the number of
    partitions of k into parts at most q.  Nothing is listed or cached."""
    if n < 0:
        raise ValueError("rank must be nonnegative")
    counts = [1] + [0] * n
    for q in range(1, n + 1):
        for k in range(q, n + 1):
            counts[k] += counts[k - q]
    return counts


def count_multipartitions(l: int, n: int) -> int:
    """The number of l-multipartitions of rank n, from the partition numbers."""
    if l < 1:
        raise ValueError("level must be at least 1")
    counts = partition_numbers(n)
    return sum(prod(map(counts.__getitem__, ranks)) for ranks in rank_vectors(n, l))


def format_partition(p: Partition) -> str:
    return ".".join(str(x) for x in p) if p else "0"


def format_multipartition(mp: Multipartition) -> str:
    return "|".join(format_partition(c) for c in mp)


def format_multicharge(s: Iterable[int]) -> str:
    return ",".join(str(x) for x in s)


def _integer(tok: str) -> bool:
    """Whether tok is an optional "-" and then ASCII digits; int() also
    takes "_", a "+" and the digits of other scripts."""
    digits = tok.removeprefix("-")
    return digits.isascii() and digits.isdigit()


def parse_partition(text: str) -> Partition:
    text = text.strip()
    if text == "0":
        return Partition()
    if not text:
        raise ValueError("empty partition component; write the empty component as '0'")
    toks = [tok.strip() for tok in text.split(".")]
    if not all(map(_integer, toks)):
        raise ValueError(f"bad partition {text!r}")
    parts = [int(tok) for tok in toks]
    if any(p <= 0 for p in parts):
        raise ValueError(f"bad partition {text!r}: parts must be positive")
    return Partition(parts)


def parse_multipartition(text: str) -> Multipartition:
    text = text.strip()
    if not text:
        raise ValueError("empty multipartition")
    return Multipartition(parse_partition(tok) for tok in text.split("|"))


def parse_multicharge(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        raise ValueError("empty multicharge")
    toks = [tok.strip() for tok in text.split(",")]
    if not all(map(_integer, toks)):
        raise ValueError(f"bad multicharge {text!r}")
    return tuple(map(int, toks))
