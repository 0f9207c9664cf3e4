"""Checks of the program's outputs against independent computations,
and the negative controls that show each check can fail.

Every check returns a list of failure strings, empty when the output is
right.  Only ``reference`` is used, never cycloschur.
"""

from __future__ import annotations

import copy
import csv
from fractions import Fraction

import reference as R


class Failures(list):
    """Failure strings, at most a few per check name."""

    def add(self, name: str, detail: str, limit: int = 3) -> None:
        if sum(1 for f in self if f.startswith(name + ":")) < limit:
            self.append(f"{name}: {detail}")

    def names(self) -> set[str]:
        return {f.split(":", 1)[0] for f in self}


def check_scan_report(rep: dict, level: int, rank: int, e: int, charges, sample) -> Failures:
    """A scan report against the theory and a recount of everything it
    claims; `sample` indexes the members, in report order, whose defect
    is recounted from hook lengths."""
    fails = Failures()
    norm = sorted(c % e for c in charges)
    if (rep["level"], rep["rank"], rep["e"]) != (level, rank, e):
        fails.add("grid", f"report is for {(rep['level'], rep['rank'], rep['e'])}")
    if list(rep["charges"]) != norm:
        fails.add("charges", f"{rep['charges']} is not the normalisation {norm} of {list(charges)}")
    if rep["violations"] != 0 or any(b["violation"] for b in rep["blocks"]):
        fails.add("violations", f"{rep['violations']} reported")
    members = [m for b in rep["blocks"] for m in b["members"]]
    expected = R.count_multipartitions(level, rank)
    if len(members) != expected:
        fails.add("member_count", f"{len(members)} members, P(x)^{level} gives {expected}")
    if len(set(members)) != len(members):
        fails.add("unique", "a member appears twice")
    keys = [tuple(b["key"]) for b in rep["blocks"]]
    if len(set(keys)) != len(keys):
        fails.add("block_keys", "two blocks share a key")
    block_of = []
    for idx, b in enumerate(rep["blocks"]):
        key = tuple(b["key"])
        fw = R.fayers_weight(key, norm, e)
        if not b["weight"] == b["defect"] == fw:
            fails.add("weight_defect", f"block {idx}: weight {b['weight']}, defect {b['defect']}, Fayers {fw}")
        core, cc = R.parse_mp(b["core"]), list(b["core_charges"])
        if R.fayers_weight(R.residues(core, cc, e), cc, e) != 0:
            fails.add("core", f"block {idx}: core {b['core']} has nonzero weight under {cc}")
        if sum(cc) != sum(norm):
            fails.add("core_charges", f"block {idx}: {cc} does not sum to {sum(norm)}")
        for text in b["members"]:
            mp = R.parse_mp(text)
            shape_ok = len(mp) == level and sum(map(sum, mp)) == rank and all(
                all(p > 0 for p in c) and list(c) == sorted(c, reverse=True) for c in mp
            )
            if not shape_ok:
                fails.add("member_shape", f"{text} is not a level-{level} multipartition of {rank}")
            elif R.residues(mp, norm, e) != key:
                fails.add("residue_key", f"{text} has residues {R.residues(mp, norm, e)}, block key {key}")
            block_of.append(b)
    for i in sample:
        if i >= len(members):
            continue
        own = R.defect_from_hooks(R.parse_mp(members[i]), norm, e)
        if own != block_of[i]["defect"]:
            fails.add("hook_recount", f"{members[i]}: {own} hooks divisible by {e}, defect {block_of[i]['defect']}")
    return fails


def check_scan_files(rep: dict, text: str, csv_path: str, p: int) -> Failures:
    """The text report and the CSV rows against the JSON report; each
    orbit size against a recount of the distinct shifts."""
    fails = Failures()
    lines = text.splitlines()
    tail = f"blocks={len(rep['blocks'])} violations={rep['violations']}"
    if not lines or not lines[0].startswith(f"scan l={rep['level']} n={rep['rank']} e={rep['e']}") or lines[-1] != tail:
        fails.add("text", f"text report does not open with the grid or end with {tail!r}")
    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    header = ["block_id", "residue_key", "multipartition", "weight", "defect", "core", "orbit_size"]
    if not rows or rows[0] != header:
        fails.add("csv_header", f"{rows[:1]}")
    expected = [
        [str(idx), ",".join(map(str, b["key"])), m, str(b["weight"]), str(b["defect"]), b["core"]]
        for idx, b in enumerate(rep["blocks"])
        for m in b["members"]
    ]
    body = rows[1:]
    if len(body) != len(expected):
        fails.add("csv_rows", f"{len(body)} rows for {len(expected)} members")
    d = rep["level"] // p
    for row, want in zip(body, expected):
        if row[:6] != want:
            fails.add("csv_rows", f"{row[:6]} != {want}")
        elif row[6] != str(R.orbit_size(R.parse_mp(row[2]), d)):
            fails.add("orbit_size", f"{row[2]}: {row[6]}, own count {R.orbit_size(R.parse_mp(row[2]), d)}")
    return fails


def parse_poly(text: str) -> dict[int, Fraction]:
    """Read the printed Laurent polynomial, e.g. '-2*y^3 + y - 1/2*y^-1'."""
    if text == "0":
        return {}
    toks = text.split(" ")
    terms = [("-", toks[0][1:]) if toks[0].startswith("-") else ("+", toks[0])]
    terms += list(zip(toks[1::2], toks[2::2]))
    out = {}
    for sign, body in terms:
        coef, _, var = body.rpartition("*") if "*" in body else (
            ("1", "", body) if body.startswith("y") else (body, "", "")
        )
        exp = 0 if not var else 1 if var == "y" else int(var[2:])
        out[exp] = Fraction(coef) * (-1 if sign == "-" else 1)
    return out


def check_oracle(rows: list, instances: list) -> Failures:
    fails = Failures()
    if len(rows) != len(instances):
        fails.add("oracle_rows", f"{len(rows)} results for {len(instances)} instances")
    for row, inst in zip(rows, instances):
        if row is None:
            continue
        mp, charges, e = R.parse_mp(inst["mp"]), inst["charges"], inst["e"]
        qints, pairs = R.schur_hooks(mp, charges)
        own = sum(1 for h in qints if h % e == 0) + sum(1 for h in pairs if h % e == 0)
        tag = f"{inst['mp']} s={charges} e={e}"
        if not row["nu_phi"] == row["defect"] == own:
            fails.add("nu_phi", f"{tag}: nu_phi {row['nu_phi']}, defect {row['defect']}, own count {own}")
        poly = parse_poly(row["poly"])
        if not poly or any(c.denominator != 1 for c in poly.values()):
            fails.add("integer", f"{tag}: {row['poly'][:60]}")
            continue
        lo, hi = min(poly), max(poly)
        if abs(poly[lo]) != 1 or abs(poly[hi]) != 1:
            fails.add("ends", f"{tag}: end coefficients {poly[lo]}, {poly[hi]}")
        span = sum(h - 1 for h in qints) + sum(abs(h) for h in pairs)
        if hi - lo != span:
            fails.add("span", f"{tag}: span {hi - lo}, factors give {span}")
        if len(set(charges)) == 1 and row["invariant"] is not True:
            fails.add("shift_invariance", f"{tag}: {row['invariant']}")
    return fails


def control_drop_member(rep: dict, check) -> bool:
    """Drop one member; the scan check must fail."""
    bad = copy.deepcopy(rep)
    block = max(bad["blocks"], key=lambda b: len(b["members"]))
    block["members"].pop()
    return "member_count" in check(bad).names()


def control_change_defect(rep: dict, check) -> bool:
    """Change one block's defect; the scan check must fail."""
    bad = copy.deepcopy(rep)
    bad["blocks"][len(bad["blocks"]) // 2]["defect"] += 1
    return "weight_defect" in check(bad).names()


def control_change_nu_phi(rows: list, check) -> bool:
    """Change one nu_phi; the oracle check must fail."""
    bad = copy.deepcopy(rows)
    row = next(r for r in bad if r is not None)
    row["nu_phi"] += 1
    return "nu_phi" in check(bad).names()
