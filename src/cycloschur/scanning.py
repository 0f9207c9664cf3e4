"""The exhaustive scan and its report.

The scan enumerates all multipartitions of a given level and rank,
groups them by residue vector (the proxy block key) and checks four
routes to the weight of each block: the weight from residues, the
weight from the bead reduction, the defect read off the Schur factors
and the divisible-hook count.  The first two, the core and its charges
depend only on the key (see ``weights.class_totals`` and
``weights.start_potential``), so they are computed once per key, after
the enumeration.  Each member leaves its signature, its defect and
divisible-hook count, in its block, and one rule decides every block:
it is a violation if its members leave more than one signature, if the
four routes differ, or if another block has the same core and core
multicharge.

Each worker keeps one entry per (partition, charge) it uses, and makes
none it does not use: text, residue counts packed into one int, the
divisible-hook table of ``abacus.hook_table``, the column tables of
``schur.column_tables`` and the component's own pair term of both member
routes.  The first charge a worker meets a partition at gets a full
build, which gives ``hook_table`` only the row beads and the top of the
packed run.  The other charges get copies shifted from an entry already
made: raising the charge by t moves every bead up t places, so the hook
table's lists slide by t and the residue classes rotate by t, and a
copy sums its own pair terms again from its shifted tables.  The worker
keeps its entries in whole columns by rank and charge, in
``partitions_of`` order, which is how the walk reads them.  The worker
walks each rank vector of ``rank_vectors`` as nested loops over whole
columns, the leftmost component slowest as in
``enumerate_multipartitions``, and each level carries the
prefix sums of the components before it: text, packed residue key,
defect and hook count, and the cross-term tuples of the chosen entries.
A member adds only its last component: its own pair terms and, per
route, two cross terms with each earlier component.  The first member
of a block that a worker meets is also run through the member-level
routes (``schur.defect_integer`` and ``abacus.sum_hook_tables``) as a
second signature, so a fault of the nested sums leaves two.  A chunk of
the enumeration is a run of whole rank vectors, each walked whole, and
it unpacks its keys into tuples once per block.  The partial blocks are
merged in enumeration order, so the output is byte-identical for any
worker count.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from math import prod
from itertools import accumulate, count
from operator import getitem, lshift
from typing import NamedTuple

from . import abacus, schur, weights
from .partitions import (
    Multipartition,
    count_multipartitions,
    format_multicharge,
    format_multipartition,
    format_partition,
    parse_partition,
    partitions_of,
    rank_vectors,
)


def _fields_from_json(cls, obj: dict) -> dict:
    # JSON arrays come back as lists; every sequence field is a tuple
    return {
        name: tuple(value) if isinstance(value := obj[name], list) else value
        for name in cls._fields
    }


class BlockReport(NamedTuple):
    """One proxy block: key, members in enumeration order, the residue
    weight, the defect of its first member, and the core and core charges
    of its key.  ``violation`` is set when its members disagree on the
    defect or the divisible-hook count, when the four weight routes
    disagree, or when another block of the scan has the same core and
    core charges."""

    key: tuple[int, ...]
    members: tuple[str, ...]
    weight: int
    defect: int
    core: str
    core_charges: tuple[int, ...]
    violation: bool

    def to_json(self) -> dict:
        # tuples are written as JSON arrays, so nothing is copied
        return self._asdict()

    @classmethod
    def from_json(cls, obj: dict) -> "BlockReport":
        return cls(**_fields_from_json(cls, obj))


class ScanReport(NamedTuple):
    level: int
    rank: int
    e: int
    charges: tuple[int, ...]
    window: int
    blocks: tuple[BlockReport, ...]

    @property
    def violations(self) -> int:
        return sum(1 for b in self.blocks if b.violation)

    def to_json(self) -> dict:
        return {
            **self._asdict(),
            "blocks": [b.to_json() for b in self.blocks],
            "violations": self.violations,
        }

    def to_json_str(self) -> str:
        return json.dumps(self.to_json(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, obj: dict) -> "ScanReport":
        blocks = tuple(BlockReport.from_json(b) for b in obj["blocks"])
        return cls(**{**_fields_from_json(cls, obj), "blocks": blocks})

    @classmethod
    def from_json_str(cls, text: str) -> "ScanReport":
        return cls.from_json(json.loads(text))

    def to_text(self) -> str:
        lines = [
            f"scan l={self.level} n={self.rank} e={self.e} "
            f"charge={format_multicharge(self.charges)} window={self.window}"
        ]
        for idx, b in enumerate(self.blocks):
            mark = "  VIOLATION" if b.violation else ""
            lines.append(
                f"block {idx}: key={format_multicharge(b.key)} "
                f"size={len(b.members)} weight={b.weight} defect={b.defect} "
                f"core={b.core} core_charges={format_multicharge(b.core_charges)}"
                f"{mark}"
            )
            lines.append("  members: " + " ".join(b.members))
        lines.append(f"blocks={len(self.blocks)} violations={self.violations}")
        return "\n".join(lines)


class _Entry(NamedTuple):
    """Everything a member needs from one of its components under its
    charge, and that component's own pair terms of both routes.  The walk
    reads the fields up to ``cross``; ``hooks`` and ``tables`` feed the
    member-level routes and the shifted copies."""

    text: str
    key: int  # weights.residue_counts, packed by _pack
    defect: int  # the pair (c, c) of schur.defect_integer
    hook_count: int  # the pair (c, c) of abacus.sum_hook_tables
    # what the component reads against the earlier ones: the lowest gap,
    # the beads above it, the Q sums and lookup, the rows and the shifts
    gap: int
    above: tuple
    q_sums: list
    q_at: object
    rows: list
    shifts: list
    # what a later component reads against this one: the same with P
    cross: tuple
    hooks: tuple  # abacus.hook_table over the window
    tables: tuple  # schur.column_tables


def _pack(counts, bits: int) -> int:
    """The residue counts as one int, `bits` bits per class, so that
    adding packed keys adds the counts class by class."""
    return sum(map(lshift, counts, count(0, bits)))


def _record(text: str, key: int, hooks: tuple, tables: tuple) -> _Entry:
    """The entry with these tables, its own pair terms summed from them."""
    gap, above, (p_values, p_sums), (q_values, q_sums) = hooks
    rows, shifts = tables
    p_at = p_values.__getitem__
    return _Entry(
        text,
        key,
        sum(map(getitem, rows, shifts)),
        p_sums[gap] + sum(map(p_at, above)),
        gap,
        above,
        q_sums,
        q_values.__getitem__,
        rows,
        shifts,
        (gap, above, p_sums, p_at, rows, shifts),
        hooks,
        tables,
    )


def _component(p, s: int, e: int, m: int, width: int) -> _Entry:
    """The entry of the partition p under the charge s, built in full; the
    runner is given to ``abacus.hook_table`` by its row beads and the top
    of its packed run."""
    hooks = abacus.hook_table(
        [part - j + s for j, part in enumerate(p)], 1 - m, m - 1, e, full=s - len(p)
    )
    return _record(
        format_partition(p),
        _pack(weights.residue_counts(p, s, e), width.bit_length()),
        hooks,
        schur.column_tables(p, s, e, width),
    )


def _shift(entry: _Entry, t: int, e: int, width: int) -> _Entry:
    """The entry of the same partition under the charge raised by t, for
    |t| < e.  Every bead moves up t places in the fixed window: the P, Q
    and sums lists slide by t, a residue class r becomes r + t, so the
    residue counts and the row tuples rotate and each shift grows by t."""
    gap, above, (p, p_sums), (q, q_sums) = entry.hooks
    rows, shifts = entry.tables
    if t > 0:
        pad = [0] * t
        p, p_sums, q, q_sums = pad + p[:-t], pad + p_sums[:-t], pad + q[:-t], pad + q_sums[:-t]
    elif t < 0:
        # the runner's lowest gap lies above index u = -t, so the lists
        # lose only zeros at the bottom.  The u positions that come in at
        # the top are gaps, and as u < e the position one class step
        # below each is still in the old lists: P there is that Q, and Q
        # one more
        size, u = len(q), -t
        q_top = [q[i - e + u] + 1 if i >= e else 1 for i in range(size - u, size)]
        p_top = [x - 1 for x in q_top]
        p, q = p[u:] + p_top, q[u:] + q_top
        p_sums = p_sums[u:] + list(accumulate(p_top, initial=p_sums[-1]))[1:]
        q_sums = q_sums[u:] + list(accumulate(q_top, initial=q_sums[-1]))[1:]
    r, bits = t % e, width.bit_length()
    low = bits * (e - r)
    key = entry.key >> low | (entry.key & ((1 << low) - 1)) << (bits * r)
    turn = [*range(r, e), *range(r)]
    return _record(
        entry.text,
        key,
        (gap + t, tuple([x + t for x in above]), (p, p_sums), (q, q_sums)),
        ([row[-r:] + row[:-r] for row in rows], list(map(turn.__getitem__, shifts))),
    )


class _Chunk:
    """The per-chunk tables of a scan and its walk over the members.

    ``parts`` maps a rank and a charge to the entries of all partitions of
    that rank under that charge, in ``partitions_of`` order; the first
    charge at which the chunk meets a rank gets full builds and the others
    shifted copies.  ``blocks`` maps a packed residue key to (members,
    signatures); the signatures dict keeps each distinct (defect, hook
    count) pair once, in order of first appearance."""

    def __init__(self, n: int, e: int, charges: tuple, m: int):
        self.n, self.e, self.charges, self.m = n, e, charges, m
        self.parts: dict = {}
        self.blocks: dict = {}

    def run(self, vectors) -> dict:
        """Walk every member of these rank vectors in enumeration order,
        each vector whole, and unpack the keys into tuples once per
        block."""
        for ranks in vectors:
            self.walk([self.column(k, s) for k, s in zip(ranks, self.charges)], 0, "", 0, 0, 0, ())
        bits = self.n.bit_length()
        mask = (1 << bits) - 1
        return {
            tuple(key >> (r * bits) & mask for r in range(self.e)): block
            for key, block in self.blocks.items()
        }

    def column(self, k: int, s: int) -> list:
        """The entries of all partitions of k under the charge s, in
        ``partitions_of`` order: shifted from the column of another charge
        this chunk has made, or built in full if there is none."""
        col = self.parts.get((k, s))
        if col is None:
            made = next((base for base in self.charges if (k, base) in self.parts), None)
            if made is None:
                col = [_component(p, s, self.e, self.m, self.n) for p in partitions_of(k)]
            else:
                col = [_shift(entry, s - made, self.e, self.n) for entry in self.parts[k, made]]
            self.parts[k, s] = col
        return col

    def open_block(self, key: int, signature: tuple, text: str) -> tuple:
        """A new block from the first member the chunk meets, with that
        member's signature and, as a second one, its defect and hook count
        by the member-level routes over the entries of its components."""
        mp = Multipartition(parse_partition(t) for t in text.split("|"))
        entries = [
            self.parts[p.rank, s][partitions_of(p.rank).index(p)]
            for p, s in zip(mp, self.charges)
        ]
        checked = (
            schur.defect_integer(
                mp, self.charges, self.e, tables=[entry.tables for entry in entries]
            ),
            abacus.sum_hook_tables([entry.hooks for entry in entries]),
        )
        block = self.blocks[key] = ([], {signature: None, checked: None})
        return block

    def walk(self, cols, c, text, key, defect, hook_count, chosen):
        """The members below the components chosen before c, whose prefix
        sums are the other arguments and whose ``cross`` tuples are
        `chosen`.  Component c runs over its whole column and adds its own
        pair terms and, with each chosen component a, the pairs (a, c) and
        (c, a) of each route: rows of one against shifts of the other, and
        the beads of a against Q of c and those of c against P of a."""
        last = len(cols) - 1
        blocks = self.blocks
        for (t, k, d, h, gap_c, above_c, q_sums_c, q_c, rows_c, shifts_c,
             cross, _, _) in cols[c]:
            d += defect
            h += hook_count
            for gap_a, above_a, p_sums_a, p_a, rows_a, shifts_a in chosen:
                d += sum(map(getitem, rows_a, shifts_c)) + sum(map(getitem, rows_c, shifts_a))
                h += (
                    q_sums_c[gap_a] + sum(map(q_c, above_a))
                    + p_sums_a[gap_c] + sum(map(p_a, above_c))
                )
            k += key
            if c < last:
                self.walk(cols, c + 1, text + t + "|", k, d, h, chosen + (cross,))
                continue
            member = text + t
            members, signatures = blocks.get(k) or self.open_block(k, (d, h), member)
            signatures[d, h] = None
            members.append(member)


def _scan_chunk(args) -> dict:
    n, e, charges, m, vectors = args
    return _Chunk(n, e, charges, m).run(vectors)


def scan(l: int, n: int, e: int, charges, jobs: int = 1) -> ScanReport:
    """Group all level-l rank-n multipartitions by proxy block key and
    decide each block by the rule in the module docstring, reporting its
    defect from its first signature.  The multicharge is normalised into the
    fundamental domain first, and the abacus window is
    n + max(normalised charges) + 1.  The rank vectors are cut into at
    most k = min(jobs, ``os.cpu_count()``) contiguous runs: a vector whose
    first member has index i, counted from the partition numbers, goes
    whole to chunk i*k // members, and empty chunks are dropped.  A single
    chunk runs in this process, more run in a pool with one worker per
    chunk."""
    if l < 1:
        raise ValueError("level must be at least 1")
    if n < 0:
        raise ValueError("rank must be nonnegative")
    if e < 2:
        raise ValueError("e must be at least 2")
    if len(charges) != l:
        raise ValueError("multicharge length must equal the level")
    if jobs < 1:
        raise ValueError("jobs must be positive")
    norm, _ = abacus.normalize_multicharge(charges, e)
    m = n + max(norm) + 1

    # each rank vector goes whole to the chunk where its first member falls
    jobs = min(jobs, os.cpu_count() or 1)
    total, before = count_multipartitions(l, n), 0
    shares: list = [[] for _ in range(jobs)]
    for ranks in rank_vectors(n, l):
        shares[before * jobs // total].append(ranks)
        before += prod(len(partitions_of(k)) for k in ranks)
    chunks = [(n, e, norm, m, share) for share in shares if share]
    if len(chunks) == 1:
        partials = [_scan_chunk(chunks[0])]
    else:
        # imported here, so that a serial scan never loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
            partials = list(pool.map(_scan_chunk, chunks))

    # chunk order is enumeration order, so blocks keep their first
    # appearance and each block its first signature
    merged: dict = {}
    for part in partials:
        for key, (members, signatures) in part.items():
            all_members, all_signatures = merged.setdefault(key, (members, signatures))
            if all_members is not members:
                all_members.extend(members)
                all_signatures.update(signatures)
    # the weight routes and the core depend only on the key
    start = weights.start_potential(n, norm, e, m)
    cores = {}
    for key in merged:
        totals = weights.class_totals(key, norm, m)
        packed, terminal = weights.terminal_state(totals, 1 - m, l, e)
        core_mp, core_charges = weights.read_core(1 - m, packed, l)
        moves = weights.potential_moves(start, terminal, e)
        cores[key] = format_multipartition(core_mp), core_charges, moves
    shared = Counter(core[:2] for core in cores.values())
    blocks = []
    for key, (members, signatures) in merged.items():
        weight = weights.residue_weight(key, norm)
        defect, hooks = next(iter(signatures))
        core, core_charges, moves = cores[key]
        violation = (
            len(signatures) > 1
            or not weight == moves == defect == hooks
            or shared[core, core_charges] > 1
        )
        blocks.append(
            BlockReport(key, tuple(members), weight, defect, core, core_charges, violation)
        )
    return ScanReport(l, n, e, norm, m, tuple(blocks))
