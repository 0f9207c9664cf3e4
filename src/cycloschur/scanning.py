"""The exhaustive scan and its report.

The scan enumerates all multipartitions of a given level and rank,
groups them by residue vector (the proxy block key) and checks four
routes to the weight of each block: the weight from residues, the
weight from the bead reduction, the defect read off the Schur factors
and the divisible-hook count.  The first two, the core and its charges
depend only on the key and the rank (``weights.key_core``), so they are
computed once per key, after the enumeration.  Each member leaves its
signature, its defect and divisible-hook count, in its block.  After the
merge, the first member of each block is also run through the
member-level routes, ``schur.defect_integer``,
``abacus.count_divisible_hooks`` and ``weights.residue_vector``, once
per block: a second signature and a key that share no data with the
walk, so a fault of the entries or the walk leaves two signatures or a
wrong key.  One rule decides every block: it is a violation if it holds
more than one signature, if its first member's residue vector is not
its key, if the four routes differ, or if another block has the same
core and core multicharge.

Each worker builds its entries, one per (partition, charge), in one
depth-first pass per distinct charge (``_columns``), over the
partitions up to the largest rank its members give that charge; each
node adds one table term per row to its parent's sums.  An entry holds
the text, the packed residue counts and three ints in B-bit slots, laid
out by ``_Layout`` as n*e defect slots (column j < n, residue r < e)
and then 2m - 1 hook slots (window positions 1 - m to m - 1).  vp and
vq hold the prefix row-residue counts R[lam'_j][r] of
``schur.column_tables``, then the P and Q of ``abacus.hook_table``;
mask is all ones at (j, shift_j) and at the beads.  So each cross term,
one component's rows read at the other's shifts or its beads read
against the other's P or Q, is the slot sum of one AND.  The worker
walks each rank vector of ``rank_vectors`` as nested loops over whole
columns of entries, the leftmost component slowest as in
``enumerate_multipartitions``, and each level carries the text, the
key, the packed pair terms x of the components before it, the sum vps
of their vp, and their masks.  Component c adds (vps + vp_c) & mask_c,
its own pair (c, c) and every vp_a & mask_c at once, and vq_c & mask_a
for each earlier a.  A member's hook count is h = (x >> B n e) mod
(2^B - 1) and its defect x mod (2^B - 1) - h.  This is exact because
B = (T + 1).bit_length() for a bound T on the slot total of any member
(``_slot_bits``), so no slot carries.  A chunk of the enumeration is a
run of whole rank vectors, and ``_scan_chunk`` only builds its entries,
walks (``_walk``, once per rank vector) and groups: it returns its
blocks under their packed keys, which ``scan`` unpacks into tuples once
per block, after the merge.  The partial blocks are merged in
enumeration order, and every per-block decision is made once, in one
loop in the calling process, so the output is byte-identical for any
worker count, even when a route is faulty.

A worker process costs tens of milliseconds of CPU to start and to send
its blocks back, a member a few microseconds, so ``scan`` starts one
worker per M = ``_WORKER_MEMBERS`` = 2^15 members at most: it cuts the
rank vectors into k = min(jobs, CPU count, members // M) chunks, at
least one, and a single chunk runs in the calling process.  The rule
reads only the member count.  README.md gives the measured crossover
that M comes from.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from math import prod
from itertools import accumulate
from typing import NamedTuple

from . import abacus, schur, weights
from .partitions import (
    format_multicharge,
    format_multipartition,
    parse_multipartition,
    partition_numbers,
    rank_vectors,
)


class BlockReport(NamedTuple):
    """One proxy block: key, members in enumeration order, the residue
    weight, the defect of its first member, and the core and core charges
    of its key.  ``violation`` is set when its members disagree on the
    defect or the divisible-hook count, when its first member's residue
    vector is not the key, when the four weight routes disagree, or when
    another block of the scan has the same core and core charges."""

    key: tuple[int, ...]
    members: tuple[str, ...]
    weight: int
    defect: int
    core: str
    core_charges: tuple[int, ...]
    violation: bool


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
            # tuples are written as JSON arrays, so nothing is copied
            "blocks": [b._asdict() for b in self.blocks],
            "violations": self.violations,
        }

    def to_json_str(self) -> str:
        return json.dumps(self.to_json(), indent=2, sort_keys=True)

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


def _slot_bits(l: int, n: int, e: int, m: int) -> int:
    """The slot width B of the packed entries of a level-l rank-n scan in
    the window m > n: (T + 1).bit_length() for the bound

        T = l^2 (n + w (w // e + 1)),  w = 2m - 1,

    of the slot total of any member.  Each of the l^2 ordered pairs adds
    at most n to the defect slots, one R_a[lam'_j][r] <= lam'_j per column
    of a component of rank at most n, and at most w (w // e + 1) to the
    hook slots, one P or Q value per bead in the window, each counting
    the gaps of one class at or below a position.  So T < 2^B - 1, and no
    slot, of a member or of the sum of l entries (at most l max(n,
    w // e + 1) <= T), carries into the next."""
    if l < 1 or n < 0 or e < 2 or m <= n:
        raise ValueError("a packed layout needs l >= 1, n >= 0, e >= 2 and a window m > n")
    w = 2 * m - 1
    return (l * l * (n + w * (w // e + 1)) + 1).bit_length()


class _Layout:
    """The slots of a level-l rank-n scan in the window m: slot j*e + r is
    column j and residue r, slot n*e + y the window position 1 - m + y,
    from bit ``split`` = B n e on.  An entry sums one term per row, from
    the tables [part][y] of the row's bead y, and one term each from the
    tables of the lowest gap and of the charge."""

    def __init__(self, l: int, n: int, e: int, m: int):
        bits = self.bits = _slot_bits(l, n, e, m)
        self.n, self.e, self.m = n, e, m
        self.split = bits * n * e
        self.ones = ones = (1 << bits) - 1
        w, base, key_bits = 2 * m - 1, 1 - m, n.bit_length()

        def slot(x: int) -> int:
            return ones << bits * x

        # the defect region: rep[k] has a 1 in residue 0 of the columns
        # j < k, and run[c][k] fills the slot of residue j + c of them
        rep = list(accumulate((1 << bits * j * e for j in range(n)), initial=0))
        run = [
            list(accumulate((slot(j * e + (j + c) % e) for j in range(n)), initial=0))
            for c in range(e)
        ]
        # the hook region: comb[y] has a 1 at y, y + e, ... in the window,
        # and a gap at y adds comb[y + e] to P.  The gap table counts every
        # position from the lowest gap up as a gap, and each row's table
        # takes its bead back out.  Q is P plus a 1 at each gap
        comb = [0] * (w + e)
        for y in reversed(range(w)):
            comb[y] = comb[y + e] + (1 << bits * (n * e + y))
        self.gaps = list(accumulate(reversed(comb[e:]), initial=0))[::-1]
        self.units = sum(comb[:e])
        self.full = [((1 << bits * y) - 1) << self.split for y in range(w + 1)]
        self.free = [run[c][n] for c in range(e)]
        # a row of k boxes from residue r: runs[k][r], one count per box
        runs = [[0] * e]
        for k in range(n):
            runs.append([x + (1 << key_bits * ((r + k) % e)) for r, x in enumerate(runs[-1])])
        self.vp, self.mask, self.key = [], [], []
        for k in range(n + 1):
            # the row i (from 1) of part k whose bead sits at y has the
            # residue y + base - 1, counted in R by the columns j < k.  The
            # mask of the empty partition, free[s % e], has column j at
            # residue j + s, and the row moves its columns j < k from
            # j + c + 1 to j + c, where c = s - i = y + base - k - 1
            defect = [rep[k] << bits * ((y + base - 1) % e) for y in range(w)]
            self.vp.append([d - comb[y + e] for y, d in enumerate(defect)])
            self.mask.append(
                [
                    run[(y + base - k - 1) % e][k] - run[(y + base - k) % e][k] + slot(n * e + y)
                    for y in range(w)
                ]
            )
            # the row's boxes take the residues y + base - k, ..., y + base - 1
            self.key.append([runs[k][(y + base - k) % e] for y in range(w)])


def _columns(s: int, ranks, layout: _Layout) -> list:
    """The entries of the partitions of the given ranks under the charge
    s, in one depth-first pass over every partition of rank at most top =
    max(ranks): cols[k] lists those of rank k, in ``partitions_of`` order,
    each as (text, key, vp, vq, mask), for each k in ranks, and is None for
    the other k <= top.  The key packs ``weights.residue_counts``,
    n.bit_length() bits per class.  vp and vq hold the prefix row-residue
    counts R[lam'_j][r] of ``schur.column_tables`` in their defect slots,
    and the P and Q of ``abacus.hook_table`` over the window in their hook
    slots.  mask is all ones at (j, shift_j) for every column j < n and at
    every bead in the window.

    A node of the pass is a partition p, and its children are p with one
    more part q at most its last.  It carries its text and the sums over
    its rows of the tables vp, mask and key, so a child adds one term
    [q][y] to each sum, where y = q - len(p) + m - 1 + s is the window
    index of the new row's bead.  The window is full below the index
    s - len(p) + m, the lowest gap; that term, ``free`` and vq are added
    when the entry is emitted.  The stack pops the children in descending
    part order, so the preorder meets each rank's partitions in
    ``partitions_of`` order.  The lower ranks are walked even when they
    are not emitted, since they are the prefixes.  A stack, unlike a
    closure that calls itself, leaves no reference cycle to the garbage
    collector."""
    m, units, top = layout.m, layout.units, max(ranks)
    vp_rows, mask_rows, key_rows = layout.vp, layout.mask, layout.key
    # the gap terms of a partition of `depth` parts
    heads = [
        (layout.gaps[s - depth + m], layout.full[s - depth + m] + layout.free[s % layout.e])
        for depth in range(top + 1)
    ]
    names = [str(q) for q in range(top + 1)]
    cols: list = [[] if k in ranks else None for k in range(top + 1)]
    # a node: text, last part, rank, number of parts, and the row sums of
    # vp, mask and key
    stack = [("0", top, 0, 0, 0, 0, 0)]
    while stack:
        text, last, rank, depth, vp, mask, key = stack.pop()
        col = cols[rank]
        if col is not None:
            gap_vp, gap_mask = heads[depth]
            entry_vp, entry_mask = vp + gap_vp, mask + gap_mask
            col.append((text, key, entry_vp, entry_vp + (units & ~entry_mask), entry_mask))
        if rank == top:
            continue
        prefix = text + "." if depth else ""
        y = m - 1 + s - depth
        for q in range(1, min(last, top - rank) + 1):
            stack.append(
                (
                    prefix + names[q],
                    q,
                    rank + q,
                    depth + 1,
                    vp + vp_rows[q][q + y],
                    mask + mask_rows[q][q + y],
                    key + key_rows[q][q + y],
                )
            )
    return cols


def _walk(blocks, split, ones, cols, c, text, key, total, vps, masks) -> None:
    """Group into ``blocks`` the members below the components chosen
    before c, whose prefix sums are the packed pair terms `total`, the sum
    `vps` of their vp and their masks.  Component c adds its own term and,
    with each chosen component a, vp_a & mask_c, summed over a in one AND
    with its own vp_c & mask_c, and vq_c & mask_a.  The defect and hook
    count are read off mod 2^B - 1 = `ones`, the hook region from bit
    `split` on.  Unlike a closure that calls itself, this leaves no
    reference cycle."""
    last = len(cols) - 1
    for t, k, vp, vq, mask in cols[c]:
        v = vps + vp
        x = total + (v & mask)
        for mask_a in masks:
            x += vq & mask_a
        k += key
        if c < last:
            _walk(blocks, split, ones, cols, c + 1, text + t + "|", k, x, v, masks + (mask,))
            continue
        h = (x >> split) % ones
        d = x % ones - h
        members, signatures = blocks.get(k) or blocks.setdefault(k, ([], {}))
        signatures[d, h] = None
        members.append(text + t)


# M, the fewest members a worker process is started for (module docstring)
_WORKER_MEMBERS = 1 << 15


def _scan_chunk(args) -> dict:
    """Walk every member of the rank vectors of one chunk, args = (n, e,
    charges, m, vectors), in enumeration order, each vector whole, and
    return its blocks: a packed residue key maps to (members, signatures),
    and the signatures dict keeps each distinct (defect, hook count) pair
    once, in order of first appearance.  The entries of each distinct
    charge come from one ``_columns`` pass, up to the largest rank that
    the vectors give that charge."""
    n, e, charges, m, vectors = args
    layout = _Layout(len(charges), n, e, m)
    wanted: dict = {}
    for ranks in vectors:
        for k, s in zip(ranks, charges):
            wanted.setdefault(s, set()).add(k)
    columns = {s: _columns(s, ranks, layout) for s, ranks in wanted.items()}
    blocks: dict = {}
    for ranks in vectors:
        cols = [columns[s][k] for k, s in zip(ranks, charges)]
        _walk(blocks, layout.split, layout.ones, cols, 0, "", 0, 0, 0, ())
    return blocks


def scan(l: int, n: int, e: int, charges, jobs: int = 1) -> ScanReport:
    """Group all level-l rank-n multipartitions by proxy block key and
    decide each block by the rule in the module docstring, reporting its
    defect from its first signature.  The multicharge is normalised into the
    fundamental domain first, and the abacus window is
    n + max(normalised charges) + 1.  The rank vectors are cut into at
    most k contiguous runs, k = min(jobs, ``os.cpu_count()``, members //
    ``_WORKER_MEMBERS``) but at least 1, so that a worker is started only
    for every 2^15 members (see the module docstring): a vector whose
    first member has index i, counted from the partition numbers, goes
    whole to chunk i*k // members, and empty chunks are dropped.  A
    single chunk runs in this process and loads no pool, more run in a
    pool with one worker per chunk."""
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
    counts = partition_numbers(n)
    sizes = [(ranks, prod(map(counts.__getitem__, ranks))) for ranks in rank_vectors(n, l)]
    total, before = sum(size for _, size in sizes), 0
    k = max(1, min(jobs, os.cpu_count() or 1, total // _WORKER_MEMBERS))
    shares: list = [[] for _ in range(k)]
    for ranks, size in sizes:
        shares[before * k // total].append(ranks)
        before += size
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
    # the weight routes and the core depend only on the key, unpacked
    # here from n.bit_length() bits per class
    bits = n.bit_length()
    keys = [tuple(packed >> r * bits & (1 << bits) - 1 for r in range(e)) for packed in merged]
    cores = [weights.key_core(key, norm, m) for key in keys]
    shared = Counter(result[:2] for result in cores)
    blocks = []
    for key, result, (members, signatures) in zip(keys, cores, merged.values()):
        weight = weights.residue_weight(key, norm)
        defect, hooks = next(iter(signatures))
        # the member-level routes give the first member a second signature
        # and its own residue vector, which must be the key
        mp = parse_multipartition(members[0])
        beads = abacus.multi_beta(mp, norm)
        signatures[schur.defect_integer(mp, norm, e), abacus.count_divisible_hooks(beads, e)] = None
        violation = (
            len(signatures) > 1
            or weights.residue_vector(mp, norm, e) != key
            or not weight == result.weight == defect == hooks
            or shared[result[:2]] > 1
        )
        core = format_multipartition(result.core)
        blocks.append(
            BlockReport(key, tuple(members), weight, defect, core, result.charges, violation)
        )
    return ScanReport(l, n, e, norm, m, tuple(blocks))
