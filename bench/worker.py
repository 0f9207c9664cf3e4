"""The workload process: imports cycloschur, runs rounds, saves outputs.

    python3 bench/worker.py MODE INPUTS OUTDIR [SECONDS]

MODE is ``setup`` (import, build the inputs, print ``ready``, exit),
``run`` (rounds until SECONDS of timed work) or ``trace`` (one untraced
and one traced round, plus the per-workload extras).  ``bench/run.py``
starts this script in a fresh process for every measurement; the
outputs it saves are checked there, by code that does not import
cycloschur.  Results go to OUTDIR/<workload>.<mode>.json.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import sys
import time

from cycloschur import abacus, cli, groups, schur, weights
from cycloschur.partitions import parse_multipartition

clock = time.perf_counter


def clear_caches() -> None:
    """Empty every lru_cache of the package, so each round starts as in a
    fresh process."""
    for name, module in list(sys.modules.items()):
        if name == "cycloschur" or name.startswith("cycloschur."):
            for value in list(vars(module).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def cpu_seconds() -> float:
    """User plus system CPU of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class ScanWide:
    """cli.scan for every sorted multicharge of the grid, in one process."""

    def __init__(self, spec, out):
        self.grid = (spec["level"], spec["rank"], spec["e"])
        self.charges = [tuple(c) for c in spec["charges"]]
        self.out = out

    def round(self, tag, jobs=1):
        l, n, e = self.grid
        t0 = clock()
        reports = [cli.scan(l, n, e, c, jobs=jobs) for c in self.charges]
        wall = clock() - t0
        members = sum(len(b.members) for r in reports for b in r.blocks)
        failed = sum(len(b.members) for r in reports for b in r.blocks if b.violation)
        return wall, reports, members, failed

    def save(self, reports) -> dict:
        paths = []
        for k, report in enumerate(reports):
            path = os.path.join(self.out, f"scan-wide.report{k}.json")
            with open(path, "w") as fh:
                fh.write(report.to_json_str() + "\n")
            paths.append(path)
        return {"reports": paths}

    @staticmethod
    def same(a, b) -> bool:
        return a == b


class ScanDeep:
    """``cycloschur scan`` through cli.main, with a process pool, JSON,
    CSV and orbit sizes."""

    def __init__(self, spec, out):
        self.spec = spec
        self.out = out
        a, b = spec["charges"]
        self.charge = f"--charge={a},{b}"

    def paths(self, tag):
        return {k: os.path.join(self.out, f"scan-deep.{tag}.{k}") for k in ("txt", "json", "csv")}

    def round(self, tag, jobs=None):
        s = self.spec
        paths = self.paths(tag)
        argv = [
            "scan", "--l", str(s["level"]), "--n", str(s["rank"]), "--e", str(s["e"]),
            self.charge, "--jobs", str(jobs or s["jobs"]),
            "--json", paths["json"], "--csv", paths["csv"], "--p", str(s["p"]),
        ]
        with open(paths["txt"], "w") as fh, contextlib.redirect_stdout(fh):
            t0 = clock()
            code = cli.main(argv)
            wall = clock() - t0
        with open(paths["json"]) as fh:
            report = json.load(fh)
        members = sum(len(b["members"]) for b in report["blocks"])
        output = {"code": code, "paths": paths}
        return wall, output, members, members if code else 0

    def save(self, output) -> dict:
        return output

    @staticmethod
    def same(a, b) -> bool:
        if a["code"] != b["code"]:
            return False
        for k, path in a["paths"].items():
            with open(path, "rb") as fa, open(b["paths"][k], "rb") as fb:
                if fa.read() != fb.read():
                    return False
        return True

    def members(self, output):
        with open(output["paths"]["json"]) as fh:
            report = json.load(fh)
        return [parse_multipartition(m) for b in report["blocks"] for m in b["members"]]


class Oracle:
    """Expansion and cyclotomic valuation per instance; d-periodic
    instances also go through the shift-invariance check."""

    def __init__(self, spec, out):
        self.out = out
        self.instances = [
            (
                parse_multipartition(inst["mp"]),
                tuple(inst["charges"]),
                inst["e"],
                len(set(inst["charges"])) == 1,
            )
            for inst in spec["instances"]
        ]

    def round(self, tag, jobs=1):
        results, failed = [], 0
        t0 = clock()
        for mp, charges, e, periodic in self.instances:
            try:
                poly = schur.specialize_integer(mp, charges)
                nu = schur.nu_phi(poly, e)
                defect = schur.defect_integer(mp, charges, e)
                inv = groups.sigma_schur_invariance(mp, 1, mp.level, charges) if periodic else None
            except ValueError:
                failed += 1
                results.append(None)
                continue
            results.append((nu, defect, poly, inv))
        wall = clock() - t0
        return wall, results, len(self.instances), failed

    def save(self, results) -> dict:
        rows = [
            None if r is None else {"nu_phi": r[0], "defect": r[1], "poly": str(r[2]), "invariant": r[3]}
            for r in results
        ]
        path = os.path.join(self.out, "oracle.results.json")
        with open(path, "w") as fh:
            json.dump(rows, fh)
        return {"results": path}

    @staticmethod
    def same(a, b) -> bool:
        return a == b


WORKLOADS = {"scan-wide": ScanWide, "scan-deep": ScanDeep, "oracle": Oracle}


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024


def run(work, seconds: float) -> dict:
    """Whole rounds until `seconds` of timed work.  Peak RSS is read after
    the first round, so that it does not depend on the round count."""
    walls, cpus, members, failed, mismatched = [], [], 0, 0, 0
    ref = saved = peak = None
    while not walls or sum(walls) < seconds:
        clear_caches()
        c0 = cpu_seconds()
        wall, output, count, bad = work.round("ref" if ref is None else "cur")
        cpus.append(cpu_seconds() - c0)
        walls.append(wall)
        members += count
        failed += bad
        if ref is None:
            peak = peak_rss_mb()
            ref, saved = output, work.save(output)
        elif not work.same(ref, output):
            mismatched += 1
    return {
        "rounds": len(walls),
        "walls": walls,
        "cpus": cpus,
        "members": members,
        "failed": failed,
        "mismatched_rounds": mismatched,
        "peak_rss_mb": peak,
        "outputs": saved,
    }


def window_sweep(work, ref, indices, e: int, passes: int = 3) -> dict:
    """Cost of core and count_divisible_hooks at the scan's default
    window and at four times it, on the same members."""
    members = work.members(ref)
    sample = [members[i] for i in indices]
    with open(ref["paths"]["json"]) as fh:
        report = json.load(fh)
    charges, m = tuple(report["charges"]), report["window"]
    out, answers = {}, {}
    for label, window in (("x1", m), ("x4", 4 * m)):
        cfgs = [abacus.multi_beta(mp, charges, window) for mp in sample]
        core_ns = count_ns = 0
        for _ in range(passes):
            t0 = time.perf_counter_ns()
            cores = [weights.core(mp, charges, e, window) for mp in sample]
            t1 = time.perf_counter_ns()
            counts = [abacus.count_divisible_hooks(cfg, e) for cfg in cfgs]
            t2 = time.perf_counter_ns()
            core_ns += t1 - t0
            count_ns += t2 - t1
        out[label] = (core_ns, count_ns)
        answers[label] = ([(c.core, c.charges, c.weight) for c in cores], counts)
    return {
        "core_window_ratio": out["x4"][0] / out["x1"][0],
        "count_divisible_hooks_window_ratio": out["x4"][1] / out["x1"][1],
        "window_independent": answers["x1"] == answers["x4"],
        "windows": [m, 4 * m],
        "sample": len(sample),
    }


def trace(work, name: str, spec: dict, out: str) -> dict:
    from spans import Tracer  # here, so that set-up time covers only the package

    clear_caches()
    wall_u, ref, members, failed = work.round("ref", jobs=1)
    saved = work.save(ref)
    result = {"untraced_wall": wall_u, "members": members, "attempted": members, "failed": failed}

    clear_caches()
    tracer = Tracer()
    tracer.install()
    try:
        wall_t, traced, count, bad = work.round("traced", jobs=1)
    finally:
        tracer.uninstall()
    info = getattr(schur.schur_factors, "cache_info", None)
    result["cache_entries"] = info().currsize if info else 0
    result["traced_wall"] = wall_t
    result["attempted"] += count
    result["failed"] += bad
    result["traced_same"] = work.same(ref, traced)
    result["layers"] = tracer.summary()
    spans = os.path.join(out, f"trace-{name}.csv.gz")
    tracer.write(spans)
    result["spans"] = spans
    result["span_count"] = len(tracer.start)

    if name == "scan-deep":
        clear_caches()
        wall_2, jobs2, count, bad = work.round("jobs2", jobs=spec["jobs"])
        result["attempted"] += count
        result["failed"] += bad
        result["jobs2_wall"] = wall_2
        result["jobs2_same"] = work.same(ref, jobs2)
        result["sweep"] = window_sweep(work, ref, spec["samples"][0][:64], spec["e"])
    result["outputs"] = saved
    return result


def main(argv: list[str]) -> int:
    mode, inputs_path, out = argv[:3]
    with open(inputs_path) as fh:
        spec = json.load(fh)
    name = spec["workload"]
    work = WORKLOADS[name](spec, out)
    print("ready", flush=True)
    if mode == "setup":
        return 0
    if mode == "run":
        result = run(work, float(argv[3]))
    else:
        result = trace(work, name, spec, out)
    with open(os.path.join(out, f"{name}.{mode}.json"), "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
