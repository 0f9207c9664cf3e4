"""Benchmark of cycloschur: exhaustive scans and the polynomial oracle.

    python3 bench/run.py --workload scan-wide --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src``.  Workloads are ``scan-wide``, ``scan-deep`` and ``oracle`` (see
bench/README.md).  With ``--trace 0`` the workload runs in a fresh
process for whole rounds until SECONDS of timed work, and the last line
of standard output is a JSON object with ``setup_s``, ``members_per_s``,
``cpu_s`` and ``peak_rss_mb``.  With ``--trace 1`` every workload runs
once untraced and once traced, each in a fresh process, and the line
carries the per-layer metrics instead.  Either way every output is
checked against independent computations (bench/checks.py), each
workload's negative control must make its check fail, and ``correct``
says whether all of that held.  Outputs and span files go to bench/out.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from functools import partial
from pathlib import Path

import checks
import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ["scan-wide", "scan-deep", "oracle"]
SETUP_SAMPLES = 9
TIMEOUT_S = 160


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def spawn(mode: str, inputs_path: Path, out: Path, seconds: int | None = None) -> float:
    """Run bench/worker.py in a fresh interpreter and return the seconds
    from its start until it had imported cycloschur and built its inputs."""
    # an unparsable CYCLOSCHUR_JOBS makes cli.build_parser raise before main's handler
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "CYCLOSCHUR_JOBS")}
    env["PYTHONPATH"] = str(SRC)
    cmd = [sys.executable, str(HERE / "worker.py"), mode, str(inputs_path), str(out)]
    if seconds is not None:
        cmd.append(str(seconds))
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, env=env, text=True)
    watchdog = threading.Timer(TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        proc.kill()
        proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"worker {mode} for {inputs_path.name} exited with {code}")
    return ready


def check_scan_wide(spec: dict, outputs: dict) -> checks.Failures:
    grid = (spec["level"], spec["rank"], spec["e"])
    fails, reps = checks.Failures(), []
    for path, charges, sample in zip(outputs["reports"], spec["charges"], spec["samples"]):
        with open(path) as fh:
            reps.append(json.load(fh))
        fails += checks.check_scan_report(reps[-1], *grid, charges, sample)
    if len(reps) != len(spec["charges"]):
        fails.add("scans", f"{len(reps)} reports for {len(spec['charges'])} multicharges")
    check = partial(checks.check_scan_report, level=grid[0], rank=grid[1], e=grid[2],
                    charges=spec["charges"][0], sample=[])
    if not checks.control_drop_member(reps[0], check):
        fails.add("control", "dropping one member went unnoticed")
    return fails


def check_scan_deep(spec: dict, outputs: dict) -> checks.Failures:
    grid = (spec["level"], spec["rank"], spec["e"])
    paths, fails = outputs["paths"], checks.Failures()
    if outputs["code"] != 0:
        fails.add("exit_code", f"scan exited with {outputs['code']}")
    with open(paths["json"]) as fh:
        rep = json.load(fh)
    with open(paths["txt"]) as fh:
        text = fh.read()
    fails += checks.check_scan_report(rep, *grid, spec["charges"], spec["samples"][0])
    fails += checks.check_scan_files(rep, text, paths["csv"], spec["p"])
    check = partial(checks.check_scan_report, level=grid[0], rank=grid[1], e=grid[2],
                    charges=spec["charges"], sample=[])
    if not checks.control_change_defect(rep, check):
        fails.add("control", "changing one block's defect went unnoticed")
    return fails


def check_oracle(spec: dict, outputs: dict) -> checks.Failures:
    with open(outputs["results"]) as fh:
        rows = json.load(fh)
    check = partial(checks.check_oracle, instances=spec["instances"])
    fails = check(rows)
    if not checks.control_change_nu_phi(rows, check):
        fails.add("control", "changing one nu_phi went unnoticed")
    return fails


# every check of a workload's saved outputs, then its negative control
CHECKS = {"scan-wide": check_scan_wide, "scan-deep": check_scan_deep, "oracle": check_oracle}


def prepare(name: str, seed: int, out: Path) -> tuple[dict, Path]:
    spec = inputs.make(name, seed)
    path = out / f"{name}.inputs.json"
    with open(path, "w") as fh:
        json.dump(spec, fh)
    return spec, path


def measure(name: str, seed: int, seconds: int, out: Path) -> dict:
    spec, path = prepare(name, seed, out)
    spawn("setup", path, out)  # compiles the bytecode caches; not counted
    setups = [spawn("setup", path, out) for _ in range(SETUP_SAMPLES)]
    setups.append(spawn("run", path, out, seconds))
    with open(out / f"{name}.run.json") as fh:
        res = json.load(fh)
    fails = CHECKS[name](spec, res["outputs"])
    if res["mismatched_rounds"]:
        fails.add("rounds", f"{res['mismatched_rounds']} rounds differ from the first")
    log(f"{name}: {res['rounds']} rounds, walls {[round(w, 3) for w in res['walls']]}")
    return {
        "correct": not fails,
        "failures": fails,
        "attempted": res["members"],
        "failed": res["failed"],
        "metrics": {
            "setup_s": (statistics.median(setups), "s"),
            "members_per_s": (res["members"] / sum(res["walls"]), "1/s"),
            "cpu_s": (sum(res["cpus"]) / res["rounds"], "s"),
            "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        },
    }


def per_call(row: dict | None, scale: float) -> float:
    return row["ns"] / row["calls"] / scale if row and row["calls"] else 0.0


def layer_metrics(res: dict, target: str) -> dict:
    """The per-layer metrics from the three traced workloads; each is
    taken on the workload whose end-to-end figures it should move."""
    wide, deep, orc = (res[w]["layers"] for w in WORKLOADS)
    members = {w: res[w]["members"] for w in WORKLOADS}
    scans = members["scan-wide"] + members["scan-deep"]

    def both(name):
        rows = [t.get(name, {"calls": 0, "ns": 0}) for t in (wide, deep)]
        return {"calls": sum(r["calls"] for r in rows), "ns": sum(r["ns"] for r in rows)}

    sf = wide.get("schur.schur_factors", {"calls": 0, "ns": 0})
    hits = sf.get("cache_hits", 0)
    # without an lru_cache every call is a cold one
    cold_ns, cold = (sf["miss_ns"], sf["cache_misses"]) if "miss_ns" in sf else (sf["ns"], sf["calls"])
    scan_self = sum(t["cli.scan"]["self_ns"] for t in (wide, deep) if "cli.scan" in t)
    enum_ns = deep.get("partitions.enumerate_multipartitions", {}).get("ns", 0)
    serialise = sum(
        deep.get(k, {}).get("ns", 0)
        for k in ("cli.to_text", "cli.to_json_str", "cli.write_scan_csv")
    )
    sweep = res["scan-deep"]["sweep"]
    return {
        "partitions.enumerate_us": (enum_ns / members["scan-deep"] / 1e3, "us"),
        "partitions.format_us": (per_call(wide.get("partitions.format_multipartition"), 1e3), "us"),
        "weights.residue_vector_us": (per_call(both("weights.residue_vector"), 1e3), "us"),
        "weights.residue_vector_calls_per_member": (both("weights.residue_vector")["calls"] / scans, "count"),
        "weights.fayers_weight_us": (per_call(wide.get("weights.fayers_weight"), 1e3), "us"),
        "weights.uglov_weight_us": (per_call(deep.get("weights.uglov_weight"), 1e3), "us"),
        "weights.core_us": (per_call(deep.get("weights.core"), 1e3), "us"),
        "weights.reductions_per_member": ((both("weights.uglov_weight")["calls"] + both("weights.core")["calls"]) / scans, "count"),
        "weights.core_window_ratio": (sweep["core_window_ratio"], "ratio"),
        "abacus.multi_beta_us": (per_call(both("abacus.multi_beta"), 1e3), "us"),
        "abacus.multi_beta_calls_per_member": (both("abacus.multi_beta")["calls"] / scans, "count"),
        "abacus.count_divisible_hooks_us": (per_call(deep.get("abacus.count_divisible_hooks"), 1e3), "us"),
        "abacus.count_divisible_hooks_window_ratio": (sweep["count_divisible_hooks_window_ratio"], "ratio"),
        "schur.schur_factors_us": (cold_ns / max(cold, 1) / 1e3, "us"),
        "schur.schur_factors_hit_ratio": (hits / max(sf["calls"], 1), "ratio"),
        "schur.schur_factors_calls": (sf["calls"], "count"),
        "schur.schur_factors_cache_entries": (res["scan-deep"]["cache_entries"], "count"),
        "schur.defect_integer_us": (per_call(both("schur.defect_integer"), 1e3), "us"),
        "schur.specialize_integer_ms": (per_call(orc.get("schur.specialize_integer"), 1e6), "ms"),
        "schur.nu_phi_ms": (per_call(orc.get("schur.nu_phi"), 1e6), "ms"),
        "groups.sigma_schur_invariance_ms": (per_call(orc.get("groups.sigma_schur_invariance"), 1e6), "ms"),
        "groups.orbit_us": (per_call(deep.get("groups.orbit"), 1e3), "us"),
        "cli.scan_self_us": (scan_self / scans / 1e3, "us"),
        "cli.serialise_ms": (serialise / max(deep.get("cli.main", {}).get("calls", 0), 1) / 1e6, "ms"),
        "cli.parallel_efficiency": (
            res["scan-deep"]["untraced_wall"] / (2 * res["scan-deep"]["jobs2_wall"]), "ratio"),
        "bench.trace_overhead": (res[target]["traced_wall"] / res[target]["untraced_wall"], "ratio"),
    }


def traced(target: str, seed: int, out: Path) -> dict:
    res, fails, attempted, failed = {}, checks.Failures(), 0, 0
    for name in WORKLOADS:
        spec, path = prepare(name, seed, out)
        spawn("trace", path, out)
        with open(out / f"{name}.trace.json") as fh:
            res[name] = r = json.load(fh)
        fails += CHECKS[name](spec, r["outputs"])
        if not r["traced_same"]:
            fails.add("traced", f"{name}: the traced round gave other outputs")
        if name == "scan-deep":
            if not r["jobs2_same"]:
                fails.add("jobs", "the report at jobs=2 differs from jobs=1 byte for byte")
            if not r["sweep"]["window_independent"]:
                fails.add("window", "core or divisible-hook count changed with the window")
        attempted += r["attempted"]
        failed += r["failed"]
        log(f"{name}: untraced {r['untraced_wall']:.3f} s, traced {r['traced_wall']:.3f} s, "
            f"{r['span_count']} spans in {r['spans']}")
    return {
        "correct": not fails,
        "failures": fails,
        "attempted": attempted,
        "failed": failed,
        "metrics": layer_metrics(res, target),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be positive")
    if not (SRC / "cycloschur" / "__init__.py").is_file():
        log(f"no cycloschur sources under {SRC}; run from a source checkout")
        return 2
    out = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    if args.trace:
        result = traced(args.workload, args.seed, out)
    else:
        result = measure(args.workload, args.seed, args.seconds, out)
    for f in result["failures"]:
        log(f"CHECK FAILED {f}")
    line = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }
    with open(out / "result.json", "w") as fh:
        json.dump({**line, "failures": result["failures"]}, fh, indent=1)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
