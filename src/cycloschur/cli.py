"""Command line interface and the exhaustive scan harness.

Exit codes: 0 success (scan: no violation), 1 invariant violation,
2 malformed input, bad parameters or an I/O error, 3 bad
specialisation, 4 internal error (any other exception, reported in one
line on stderr).

The scan enumerates all multipartitions of a given level and rank,
groups them by residue vector (the proxy block key) and computes four
routes per member: the weight from residues, the weight from the bead
reduction, the defect read off the Schur factors and the divisible-hook
count.  Each member leaves its signature, those four values with its
core and core multicharge, in its block, and one rule decides every
block: it is a violation if its members leave more than one signature,
if the four routes of its signature differ, or if another block has the
same core and core multicharge.  Each worker builds, once per scan, an
entry for every (partition, charge) it meets (text, residue counts,
beta-numbers, the column tables of ``schur.defect_integer`` and the
class summary of ``weights.bead_classes``) and a core for every
class-totals vector, assembles each member from those tables and groups
its members into blocks.  The partial blocks are merged in enumeration
order, so the output is byte-identical for any worker count.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import islice

from . import abacus, groups, schur, weights
from .partitions import (
    count_multipartitions,
    enumerate_multipartitions,
    format_multicharge,
    format_multipartition,
    format_partition,
    parse_multicharge,
    parse_multipartition,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_BAD_SPECIALISATION = 3
EXIT_INTERNAL = 4


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
        return {
            "key": list(self.key),
            "members": list(self.members),
            "weight": self.weight,
            "defect": self.defect,
            "core": self.core,
            "core_charges": list(self.core_charges),
            "violation": self.violation,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "BlockReport":
        return cls(
            key=tuple(obj["key"]),
            members=tuple(obj["members"]),
            weight=obj["weight"],
            defect=obj["defect"],
            core=obj["core"],
            core_charges=tuple(obj["core_charges"]),
            violation=obj["violation"],
        )


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
            "level": self.level,
            "rank": self.rank,
            "e": self.e,
            "charges": list(self.charges),
            "window": self.window,
            "blocks": [b.to_json() for b in self.blocks],
            "violations": self.violations,
        }

    def to_json_str(self) -> str:
        return json.dumps(self.to_json(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, obj: dict) -> "ScanReport":
        return cls(
            level=obj["level"],
            rank=obj["rank"],
            e=obj["e"],
            charges=tuple(obj["charges"]),
            window=obj["window"],
            blocks=tuple(BlockReport.from_json(b) for b in obj["blocks"]),
        )

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
        beta,
        schur.column_tables(p, s, e, width),
        weights.bead_classes(beta, e),
    )


def _scan_chunk(args) -> dict:
    l, n, e, charges, m, start, stop = args
    # per-chunk tables, so that each (partition, charge) and each core is
    # built once: parts has one entry per partition of at most n and
    # charge, cores one per class-totals vector (one per block)
    parts: dict = {}
    cores: dict = {}
    # residue vector -> (members, signatures); the signatures dict keeps
    # each distinct member signature once, in order of first appearance
    blocks: dict = {}
    for mp in islice(enumerate_multipartitions(l, n), start, stop):
        comps = []
        for key in zip(mp, charges):
            entry = parts.get(key)
            if entry is None:
                entry = parts[key] = _component(*key, e, m, n)
            comps.append(entry)
        texts, counts, runners, tables, summaries = zip(*comps)
        rv = weights.ResidueVector(e, tuple(map(sum, zip(*counts))))
        cfg = abacus.BetaConfig(runners, charges, m)
        totals = tuple(map(sum, zip(*[classes for classes, _, _ in summaries])))
        core = cores.get(totals)
        if core is None:
            packed, terminal = weights.terminal_state(totals, 1 - m, l, e)
            core_mp, core_charges = weights.read_core(1 - m, packed, l)
            core = cores[totals] = (format_multipartition(core_mp), core_charges, terminal)
        core_text, core_charges, terminal = core
        signature = (
            weights.residue_weight(rv, charges),
            weights.reduction_moves(summaries, terminal, e),
            schur.defect_integer(mp, charges, e, tables=tables),
            abacus.count_divisible_hooks(cfg, e),
            core_text,
            core_charges,
        )
        members, signatures = blocks.setdefault(rv.counts, ([], {}))
        members.append("|".join(texts))
        signatures[signature] = None
    return blocks


def scan(l: int, n: int, e: int, charges, jobs: int = 1) -> ScanReport:
    """Group all level-l rank-n multipartitions by proxy block key and
    decide each block by the rule in the module docstring, reporting it
    from its first signature.  The multicharge is normalised into the
    fundamental domain first, and the abacus window is
    n + max(normalised charges) + 1.  The members are cut into at most
    ``jobs`` chunks; a single chunk runs in this process, more run in a
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

    total = count_multipartitions(l, n)
    size = -(-total // jobs)
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
        for key, (members, signatures) in part.items():
            all_members, all_signatures = merged.setdefault(key, (members, signatures))
            if all_members is not members:
                all_members.extend(members)
                all_signatures.update(signatures)
    firsts = {key: next(iter(signatures)) for key, (_, signatures) in merged.items()}
    cores = Counter((core, core_charges) for *_, core, core_charges in firsts.values())
    blocks = []
    for key, (members, signatures) in merged.items():
        weight, moves, defect, hooks, core, core_charges = firsts[key]
        violation = (
            len(signatures) > 1
            or not weight == moves == defect == hooks
            or cores[core, core_charges] > 1
        )
        blocks.append(
            BlockReport(key, tuple(members), weight, defect, core, core_charges, violation)
        )
    return ScanReport(l, n, e, norm, m, tuple(blocks))


def _check_packages(level: int, p: int | None) -> None:
    if p is not None and (p < 1 or level % p != 0):
        raise ValueError("p must divide the level")


def write_scan_csv(report: ScanReport, path: str, p: int | None = None) -> None:
    """Per-member CSV rows; with p given, each member's orbit size under
    the shift by (level/p)-packages is appended."""
    _check_packages(report.level, p)
    header = ["block_id", "residue_key", "multipartition", "weight", "defect", "core"]
    if p is not None:
        header.append("orbit_size")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for idx, b in enumerate(report.blocks):
            for member in b.members:
                row = [
                    idx,
                    format_multicharge(b.key),
                    member,
                    b.weight,
                    b.defect,
                    b.core,
                ]
                if p is not None:
                    comps = tuple(member.split("|"))
                    row.append(groups.orbit(comps, report.level // p, p).size)
                writer.writerow(row)


def _charges_for(args, level: int) -> tuple[int, ...]:
    if args.charge is None:
        return (0,) * level
    charges = parse_multicharge(args.charge)
    if len(charges) != level:
        raise ValueError(
            f"multicharge {args.charge!r} has length {len(charges)}, expected {level}"
        )
    return charges


def _parse_roots(text: str) -> schur.RootOfUnity:
    try:
        ambient, exponent = (int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise ValueError(f"bad --roots {text!r}: expected N,t") from exc
    return schur.RootOfUnity(ambient, exponent)


def _cmd_hooks(args) -> int:
    if args.mod is not None and args.mod < 1:
        raise ValueError("--mod must be positive")
    mp = parse_multipartition(args.multipartition)
    charges = _charges_for(args, mp.level)
    cfg = abacus.multi_beta(mp, charges, args.window)
    hooks = abacus.charged_hooks_abacus(cfg, include_diagonal=args.diagonal)
    print(f"H = {hooks.formatted()}")
    print(f"size = {hooks.total}")
    if args.mod is not None:
        count = sum(mult for v, mult in hooks.items if v % args.mod == 0)
        print(f"divisible by {args.mod}: {count}")
    return EXIT_OK


def _cmd_defect(args) -> int:
    mp = parse_multipartition(args.multipartition)
    if args.general:
        if args.roots is None or args.rcharges is None:
            raise ValueError("--general requires --roots and --rcharges")
        eta = _parse_roots(args.roots)
        rcharges = parse_multicharge(args.rcharges)
        spec = schur.CycloSpec(mp.level, rcharges, args.qexp, eta)
        value = schur.defect_general(mp, spec)
        if args.json:
            print(json.dumps({"defect": value}))
        else:
            print(value)
        return EXIT_OK
    if args.e is None:
        raise ValueError("--e is required without --general")
    charges = _charges_for(args, mp.level)
    if args.via_polynomial:
        value = schur.nu_phi(schur.specialize_integer(mp, charges), args.e)
    else:
        value = schur.defect_integer(mp, charges, args.e)
    if args.json:
        mp2, norm = weights.normalized_instance(mp, charges, args.e)
        cr = weights.core(mp2, norm, args.e)
        payload = {
            "defect": value,
            "weight": weights.fayers_weight(mp, charges, args.e),
            "core": format_multipartition(cr.core),
        }
        print(json.dumps(payload))
    else:
        print(value)
    return EXIT_OK


def _cmd_weight(args) -> int:
    mp = parse_multipartition(args.multipartition)
    charges = _charges_for(args, mp.level)
    fw = weights.fayers_weight(mp, charges, args.e)
    mp2, norm = weights.normalized_instance(mp, charges, args.e)
    uw = weights.uglov_weight(mp2, norm, args.e, args.window)
    if fw != uw:
        print(
            f"VIOLATION: residue weight {fw} != reduction weight {uw}",
            file=sys.stderr,
        )
        return EXIT_VIOLATION
    print(fw)
    return EXIT_OK


def _cmd_core(args) -> int:
    mp = parse_multipartition(args.multipartition)
    charges = _charges_for(args, mp.level)
    mp2, norm = weights.normalized_instance(mp, charges, args.e)
    result = weights.core(mp2, norm, args.e, args.window)
    if args.json:
        print(json.dumps(result.to_json()))
    else:
        print(f"core = {format_multipartition(result.core)}")
        print(f"charges = {format_multicharge(result.charges)}")
        print(f"weight = {result.weight}")
    return EXIT_OK


def _cmd_schur(args) -> int:
    mp = parse_multipartition(args.multipartition)
    if args.charge is not None:
        charges = _charges_for(args, mp.level)
        print(schur.specialize_integer(mp, charges))
    else:
        print(json.dumps(schur.schur_factors(mp).to_json()))
    return EXIT_OK


def _cmd_abacus(args) -> int:
    mp = parse_multipartition(args.multipartition)
    charges = _charges_for(args, mp.level)
    print(abacus.render_abacus(abacus.multi_beta(mp, charges, args.window)))
    return EXIT_OK


def _cmd_dm_classes(args) -> int:
    try:
        ambient = int(args.roots)
    except ValueError as exc:
        raise ValueError("--roots expects the ambient order N") from exc
    params = [
        schur.RootOfUnity(ambient, t) for t in parse_multicharge(args.params)
    ]
    u = schur.RootOfUnity(ambient, args.u)
    classes = schur.dipper_mathas_classes(params, u, args.n)
    print(json.dumps([list(c) for c in classes]))
    return EXIT_OK


def _cmd_yokonuma(args) -> int:
    mp = parse_multipartition(args.multipartition)
    if args.d * args.l != mp.level:
        raise ValueError("level must equal d*l")
    charges = _charges_for(args, args.l)
    value = groups.yokonuma_defect(mp, args.d, args.l, charges, args.e)
    key = groups.yokonuma_block_key(mp, args.d, args.l, charges, args.e)
    if args.json:
        print(
            json.dumps(
                {
                    "defect": value,
                    "key": [list(rv.counts) for rv in key],
                }
            )
        )
    else:
        print(f"defect = {value}")
        for idx, rv in enumerate(key):
            print(f"package {idx}: residues {format_multicharge(rv.counts)}")
    return EXIT_OK


def _cmd_glpn(args) -> int:
    mp = parse_multipartition(args.multipartition)
    if args.p * args.d != mp.level:
        raise ValueError("level must equal p*d")
    eta = _parse_roots(args.roots)
    rcharges = parse_multicharge(args.rcharges)
    if len(rcharges) != args.d:
        raise ValueError("--rcharges expects one charge per package component")
    tiled = tuple(rcharges[k % args.d] for k in range(mp.level))
    spec = schur.CycloSpec(mp.level, tiled, args.qexp, eta)
    orb = groups.orbit(mp, args.d, args.p)
    value = groups.glpn_defect(mp, args.d, args.p, spec)
    print(f"orbit size = {orb.size}")
    print(f"stabilizer = {orb.stabilizer}")
    print(f"defect = {value}")
    return EXIT_OK


def _cmd_scan(args) -> int:
    charges = _charges_for(args, args.l)
    _check_packages(args.l, args.p)
    report = scan(args.l, args.n, args.e, charges, args.jobs)
    # the files go first, so that a path that cannot be written leaves stdout empty
    if args.json is not None:
        with open(args.json, "w") as fh:
            fh.write(report.to_json_str() + "\n")
    if args.csv is not None:
        write_scan_csv(report, args.csv, args.p)
    print(report.to_text())
    return EXIT_VIOLATION if report.violations else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cycloschur",
        description="Charged-hook multisets, weights, cores and Schur-element "
        "defects of multipartitions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_mp(p):
        p.add_argument("multipartition", help="e.g. '3.1|2.1.1'")

    def add_charge(p):
        p.add_argument("--charge", help="comma-separated multicharge, e.g. '0,2'")

    def add_window(p):
        p.add_argument("--window", type=int, help="abacus window size m")

    p = sub.add_parser("hooks", help="charged-hook multiset")
    add_mp(p)
    add_charge(p)
    add_window(p)
    p.add_argument("--mod", type=int, help="also count hooks divisible by this")
    p.add_argument(
        "--diagonal",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="include the same-component hooks",
    )
    p.set_defaults(func=_cmd_hooks)

    p = sub.add_parser("defect", help="defect of a multipartition")
    add_mp(p)
    add_charge(p)
    p.add_argument("--e", type=int, help="order of the root of unity")
    p.add_argument("--general", action="store_true", help="root-of-unity parameters")
    p.add_argument("--roots", help="N,t for the evaluation root (with --general)")
    p.add_argument("--rcharges", help="y-exponents per component (with --general)")
    p.add_argument("--qexp", type=int, default=1, help="y-exponent of q")
    p.add_argument(
        "--via-polynomial",
        action="store_true",
        help="expand the Schur element and take the cyclotomic valuation",
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_defect)

    p = sub.add_parser("weight", help="weight of a charged multipartition")
    add_mp(p)
    add_charge(p)
    add_window(p)
    p.add_argument("--e", type=int, required=True)
    p.set_defaults(func=_cmd_weight)

    p = sub.add_parser("core", help="core of a charged multipartition")
    add_mp(p)
    add_charge(p)
    add_window(p)
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_core)

    p = sub.add_parser("schur", help="factored or expanded Schur element")
    add_mp(p)
    add_charge(p)
    p.set_defaults(func=_cmd_schur)

    p = sub.add_parser("abacus", help="render the abacus")
    add_mp(p)
    add_charge(p)
    add_window(p)
    p.set_defaults(func=_cmd_abacus)

    p = sub.add_parser("dm-classes", help="parameter classes")
    p.add_argument("--roots", required=True, help="ambient order N")
    p.add_argument("--params", required=True, help="exponents of the parameters")
    p.add_argument("--u", type=int, required=True, help="exponent of u")
    p.add_argument("--n", type=int, required=True, help="rank")
    p.set_defaults(func=_cmd_dm_classes)

    p = sub.add_parser("yokonuma", help="package-split defect and block key")
    add_mp(p)
    add_charge(p)
    p.add_argument("--d", type=int, required=True, help="number of packages")
    p.add_argument("--l", type=int, required=True, help="components per package")
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_yokonuma)

    p = sub.add_parser("glpn", help="shift-orbit data and defect")
    add_mp(p)
    p.add_argument("--d", type=int, required=True, help="package size")
    p.add_argument("--p", type=int, required=True, help="number of packages")
    p.add_argument("--roots", required=True, help="N,t for the evaluation root")
    p.add_argument("--rcharges", required=True, help="d charges, repeated per package")
    p.add_argument("--qexp", type=int, default=1)
    p.set_defaults(func=_cmd_glpn)

    p = sub.add_parser("scan", help="exhaustive block-invariance check")
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--e", type=int, required=True)
    add_charge(p)
    p.add_argument("--jobs", type=int, default=1, help="at most this many worker processes")
    p.add_argument("--csv", help="write per-member rows to this path")
    p.add_argument("--json", help="write the report to this path")
    p.add_argument("--p", type=int, help="add orbit sizes for this package count")
    p.set_defaults(func=_cmd_scan)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except schur.BadSpecialisationError as exc:
        print(f"bad specialisation: {exc}", file=sys.stderr)
        return EXIT_BAD_SPECIALISATION
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        # a fault of the program, not a counterexample: keep it off code 1
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
