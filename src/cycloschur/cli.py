"""Command line interface: argument parsing, file output and exit codes.

Exit codes: 0 success (scan: no violation), 1 invariant violation,
2 malformed input, bad parameters or an I/O error, 3 bad
specialisation, 4 internal error (any other exception, reported in one
line on stderr).  The scan itself and its report live in
``cycloschur.scanning``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import re
import sys

from . import abacus, groups, schur, weights
from .partitions import (
    format_multicharge,
    format_multipartition,
    parse_multicharge,
    parse_multipartition,
)
from .scanning import ScanReport, scan

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_BAD_SPECIALISATION = 3
EXIT_INTERNAL = 4


def _check_packages(level: int, p: int | None) -> None:
    if p is not None and (p < 1 or level % p != 0):
        raise ValueError("p must divide the level")


_NEEDS_QUOTING = re.compile('[,"\r\n]')


def _csv_fields(*values) -> str:
    """values as one CSV line without its terminator, quoted by the csv module."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="").writerow(values)
    return buf.getvalue()


def write_scan_csv(report: ScanReport, path: str, p: int | None = None) -> None:
    """Per-member CSV rows; with p given, each member's orbit size under
    the shift by (level/p)-packages is appended.

    The fixed columns of a block are formatted by the csv module once per
    block, and each member text goes between them as it is: the csv
    module writes a field raw unless it holds a comma, a quote, CR or LF,
    and a member holding one raises ValueError before the file is opened.
    The file is written one block at a time."""
    _check_packages(report.level, p)
    for idx, b in enumerate(report.blocks):
        if _NEEDS_QUOTING.search("".join(b.members)):
            raise ValueError(f"block {idx} has a member that the CSV would quote")
    header = ["block_id", "residue_key", "multipartition", "weight", "defect", "core"]
    if p is not None:
        header.append("orbit_size")
        d = report.level // p
    with open(path, "w", newline="") as fh:
        fh.write(_csv_fields(*header) + "\r\n")
        for idx, b in enumerate(report.blocks):
            head = _csv_fields(idx, format_multicharge(b.key)) + ","
            tail = "," + _csv_fields(b.weight, b.defect, b.core)
            if p is None:
                fh.writelines(f"{head}{m}{tail}\r\n" for m in b.members)
            else:
                fh.writelines(f"{head}{m}{tail},{groups.orbit(m, d, p)}\r\n" for m in b.members)


def _charges_for(args, level: int) -> tuple[int, ...]:
    if args.charge is None:
        return (0,) * level
    charges = parse_multicharge(args.charge)
    if len(charges) != level:
        raise ValueError(
            f"multicharge {args.charge!r} has length {len(charges)}, expected {level}"
        )
    return charges


def _spec_for(args, level: int, period: int) -> schur.CycloSpec:
    """The CycloSpec of --roots N,t, --qexp and the `period` charges of
    --rcharges repeated up to the level."""
    if args.roots is None or args.rcharges is None:
        raise ValueError("--roots and --rcharges go together")
    try:
        ambient, exponent = (int(tok) for tok in args.roots.split(","))
    except ValueError as exc:
        raise ValueError(f"bad --roots {args.roots!r}: expected N,t") from exc
    rcharges = parse_multicharge(args.rcharges)
    if len(rcharges) != period:
        raise ValueError(f"--rcharges expects {period} charges, got {len(rcharges)}")
    tiled = tuple(rcharges[k % period] for k in range(level))
    q_exp = 1 if args.qexp is None else args.qexp
    return schur.CycloSpec(level, tiled, q_exp, schur.RootOfUnity(ambient, exponent))


def _cmd_hooks(args) -> int:
    if args.mod is not None and args.mod < 1:
        raise ValueError("--mod must be positive")
    mp = parse_multipartition(args.multipartition)
    charges = _charges_for(args, mp.level)
    cfg = abacus.multi_beta(mp, charges)
    hooks = abacus.charged_hooks_abacus(cfg, include_diagonal=args.diagonal)
    print(f"H = {hooks.formatted()}")
    print(f"size = {hooks.total}")
    if args.mod is not None:
        count = sum(mult for v, mult in hooks.items if v % args.mod == 0)
        print(f"divisible by {args.mod}: {count}")
    return EXIT_OK


def _cmd_defect(args) -> int:
    mp = parse_multipartition(args.multipartition)
    if args.roots is not None or args.rcharges is not None:
        if args.e is not None or args.charge is not None or args.via_polynomial:
            raise ValueError("--roots excludes --e, --charge and --via-polynomial")
        value = schur.defect_general(mp, _spec_for(args, mp.level, mp.level))
        print(json.dumps({"defect": value}) if args.json else value)
        return EXIT_OK
    if args.e is None:
        raise ValueError("--e is required without --roots and --rcharges")
    if args.qexp is not None:
        # the integer route evaluates q at y itself
        raise ValueError("--qexp needs --roots and --rcharges")
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
    uw = weights.uglov_weight(mp2, norm, args.e)
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
    result = weights.core(mp2, norm, args.e)
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
        print(json.dumps({"defect": value, "key": key}))
    else:
        print(f"defect = {value}")
        for idx, counts in enumerate(key):
            print(f"package {idx}: residues {format_multicharge(counts)}")
    return EXIT_OK


def _cmd_glpn(args) -> int:
    mp = parse_multipartition(args.multipartition)
    if args.p * args.d != mp.level:
        raise ValueError("level must equal p*d")
    spec = _spec_for(args, mp.level, args.d)
    size = groups.orbit(mp, args.d, args.p)
    value = groups.glpn_defect(mp, args.d, args.p, spec)
    print(f"orbit size = {size}")
    print(f"stabilizer = {args.p // size}")
    print(f"defect = {value}")
    return EXIT_OK


def _cmd_scan(args) -> int:
    """Every output path is opened before the scan, in append mode, which
    creates a missing file and empties none.  If anything fails from then
    on (a path that cannot be opened, a write, a member the CSV refuses,
    the report on stdout), the files this command created are removed.
    The files go before stdout, so that a failure in them leaves stdout
    empty."""
    charges = _charges_for(args, args.l)
    if args.p is not None and args.csv is None:
        # orbit sizes go only to the CSV
        raise ValueError("--p needs --csv")
    _check_packages(args.l, args.p)
    paths = [path for path in (args.csv, args.json) if path is not None]
    if len(paths) == 2 and (
        os.path.realpath(args.csv) == os.path.realpath(args.json)
        # two hard links to one file have different real paths
        or all(map(os.path.exists, paths)) and os.path.samefile(*paths)
    ):
        raise ValueError("--csv and --json name the same file")
    created = [path for path in paths if not os.path.exists(path)]
    try:
        for path in paths:
            open(path, "a").close()
        report = scan(args.l, args.n, args.e, charges, args.jobs)
        # write_scan_csv refuses a member before it opens its file, so the
        # CSV goes first
        if args.csv is not None:
            write_scan_csv(report, args.csv, args.p)
        if args.json is not None:
            with open(args.json, "w") as fh:
                fh.write(report.to_json_str() + "\n")
        print(report.to_text())
        sys.stdout.flush()
    except BaseException:
        for path in created:
            with contextlib.suppress(OSError):
                os.remove(path)
        raise
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

    p = sub.add_parser("hooks", help="charged-hook multiset")
    add_mp(p)
    add_charge(p)
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
    p.add_argument("--roots", help="N,t: root-of-unity parameters evaluated at zeta_N^t")
    p.add_argument("--rcharges", help="y-exponents per component (with --roots)")
    p.add_argument("--qexp", type=int, help="y-exponent of q (with --roots; default 1)")
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
    p.add_argument("--e", type=int, required=True)
    p.set_defaults(func=_cmd_weight)

    p = sub.add_parser("core", help="core of a charged multipartition")
    add_mp(p)
    add_charge(p)
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
    p.add_argument("--window", type=int, help="abacus window size m")
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
    p.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="at most this many worker processes, at most the CPU count and at most"
        " one per 2^15 members, so fewer than 65,536 members run in this process;"
        " see README",
    )
    p.add_argument("--csv", help="write per-member rows to this path")
    p.add_argument("--json", help="write the report to this path")
    p.add_argument("--p", type=int, help="add orbit sizes for this package count")
    p.set_defaults(func=_cmd_scan)

    return parser


def _join_list_values(argv: list[str]) -> list[str]:
    """Write `--charge -1,1` as `--charge=-1,1`, for any `--option` written
    without `=` and abbreviations such as `--char` too, so that argparse
    does not read a value with a leading minus sign as an option."""
    out: list[str] = []
    for token in argv:
        if out and re.fullmatch(r"--[^=]+", out[-1]) and re.match(r"-\d", token):
            out[-1] = f"{out[-1]}={token}"
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    if sys.stdout is None:
        # Python runs with stdout closed, and print would drop the output
        print("error: standard output is closed", file=sys.stderr)
        return EXIT_USAGE
    try:
        args = build_parser().parse_args(_join_list_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        # argparse has printed its usage error (2) or its help (0)
        return exc.code
    try:
        code = args.func(args)
        # a write to stdout that fails is an I/O error of the command
        sys.stdout.flush()
        return code
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
    code = main()
    try:
        if sys.stdout is not None:
            sys.stdout.flush()
    except OSError:
        # main has reported the failed write, whose text is still buffered:
        # sent to devnull, it no longer fails the flush at exit (code 120)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    entrypoint()
