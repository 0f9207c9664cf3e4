"""The exhaustive scan and its report.

The scan enumerates all multipartitions of a given level and rank,
groups them by residue vector (the proxy block key) and computes four
routes per member: the weight from residues, the weight from the bead
reduction, the defect read off the Schur factors and the divisible-hook
count.  Each member leaves its signature, those four values with its
block's core and core multicharge and its own bead class totals, in its
block, and one rule decides every block: it is a violation if its
members leave more than one signature, if the four routes of its
signature differ, or if another block has the same core and core
multicharge.  Each worker builds, once per scan, an entry for every
(partition, charge) it meets (text, residue counts, the divisible-hook
table of ``abacus.hook_table``, the column tables of
``schur.defect_integer`` and the class summary of
``weights.bead_classes``; no beta-numbers are kept), assembles each
member from those tables and groups its members into blocks.  The
residue weight, the core, its charges and the terminal potential of the
reduction depend only on the block key, so a worker computes them once,
from the class totals of the first member of a block that it meets; a
member whose totals differ leaves a second signature.  The partial
blocks are merged in enumeration order, so the output is byte-identical
for any worker count.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from itertools import islice

from . import abacus, schur, weights
from .partitions import (
    count_multipartitions,
    enumerate_multipartitions,
    format_multicharge,
    format_multipartition,
    format_partition,
)


def _fields_to_json(report) -> dict:
    # tuples are written as JSON arrays, so nothing is copied
    return {f.name: getattr(report, f.name) for f in fields(report)}


def _fields_from_json(cls, obj: dict) -> dict:
    # JSON arrays come back as lists; every sequence field is a tuple
    return {
        f.name: tuple(value) if isinstance(value := obj[f.name], list) else value
        for f in fields(cls)
    }


@dataclass(frozen=True)
class BlockReport:
    """One proxy block: key, members in enumeration order, and the weight,
    defect, core and core charges of its first member.  ``violation`` is
    set when its members disagree on any of these or on the four defect
    computations, or when another block of the scan has the same core
    and core charges."""

    key: tuple[int, ...]
    members: tuple[str, ...]
    weight: int
    defect: int
    core: str
    core_charges: tuple[int, ...]
    violation: bool

    def to_json(self) -> dict:
        return _fields_to_json(self)

    @classmethod
    def from_json(cls, obj: dict) -> "BlockReport":
        return cls(**_fields_from_json(cls, obj))


@dataclass(frozen=True)
class ScanReport:
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
            **_fields_to_json(self),
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


def _component(p, s: int, e: int, m: int, width: int) -> tuple:
    # everything a member needs from one of its components under its charge
    beta = abacus.beta_numbers(p, s, m)
    return (
        format_partition(p),
        weights.residue_counts(p, s, e),
        abacus.hook_table(beta, 1 - m, m - 1, e),
        schur.column_tables(p, s, e, width),
        weights.bead_classes(beta, e),
    )


def _scan_chunk(args) -> dict:
    l, n, e, charges, m, start, stop = args
    # per-chunk tables, one entry per distinct (partition, charge) pair or
    # block key: parts holds each pair's component entry, blocks maps a
    # residue vector to (members, signatures, residue weight, core text,
    # core charges, terminal potential); the signatures dict keeps each
    # distinct member signature once, in order of first appearance
    parts: dict = {}
    blocks: dict = {}
    for mp in islice(enumerate_multipartitions(l, n), start, stop):
        comps = []
        for pair in zip(mp, charges):
            entry = parts.get(pair)
            if entry is None:
                entry = parts[pair] = _component(*pair, e, m, n)
            comps.append(entry)
        texts, counts, hooks, tables, summaries = zip(*comps)
        key = tuple(map(sum, zip(*counts)))
        totals = tuple(map(sum, zip(*[classes for classes, _, _ in summaries])))
        block = blocks.get(key)
        if block is None:
            packed, terminal = weights.terminal_state(totals, 1 - m, l, e)
            core_mp, core_charges = weights.read_core(1 - m, packed, l)
            block = blocks[key] = (
                [],
                {},
                weights.residue_weight(key, charges),
                format_multipartition(core_mp),
                core_charges,
                terminal,
            )
        members, signatures, weight, core_text, core_charges, terminal = block
        signature = (
            totals,
            weight,
            weights.reduction_moves(summaries, terminal, e),
            schur.defect_integer(mp, charges, e, tables=tables),
            abacus.sum_hook_tables(hooks),
            core_text,
            core_charges,
        )
        members.append("|".join(texts))
        signatures[signature] = None
    return blocks


def scan(l: int, n: int, e: int, charges, jobs: int = 1) -> ScanReport:
    """Group all level-l rank-n multipartitions by proxy block key and
    decide each block by the rule in the module docstring, reporting it
    from its first signature.  The multicharge is normalised into the
    fundamental domain first, and the abacus window is
    n + max(normalised charges) + 1.  The members are cut into at most
    ``jobs`` chunks, and at most ``os.cpu_count()``; a single chunk runs
    in this process, more run in a pool with one worker per chunk."""
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

    total = count_multipartitions(l, n)
    size = -(-total // min(jobs, os.cpu_count() or 1))
    chunks = [
        (l, n, e, norm, m, start, min(start + size, total))
        for start in range(0, total, size)
    ]
    if len(chunks) == 1:
        partials = [_scan_chunk(chunks[0])]
    else:
        with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
            partials = list(pool.map(_scan_chunk, chunks))

    # chunk order is enumeration order, so blocks keep their first
    # appearance and each block its first signature
    merged: dict = {}
    for part in partials:
        for key, (members, signatures, *_) in part.items():
            all_members, all_signatures = merged.setdefault(key, (members, signatures))
            if all_members is not members:
                all_members.extend(members)
                all_signatures.update(signatures)
    firsts = {key: next(iter(signatures)) for key, (_, signatures) in merged.items()}
    cores = Counter((core, core_charges) for *_, core, core_charges in firsts.values())
    blocks = []
    for key, (members, signatures) in merged.items():
        _, weight, moves, defect, hooks, core, core_charges = firsts[key]
        violation = (
            len(signatures) > 1
            or not weight == moves == defect == hooks
            or cores[core, core_charges] > 1
        )
        blocks.append(
            BlockReport(key, tuple(members), weight, defect, core, core_charges, violation)
        )
    return ScanReport(l, n, e, norm, m, tuple(blocks))
