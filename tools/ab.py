"""Interleaved A/B runs of the benchmark between two git revisions.

    python3 tools/ab.py --parent REV --change REV --out BENCH_<n>.json
        [--workloads a,b] [--pairs 10] [--seed 1000]
        [--claim WORKLOAD:METRIC] [--traced WORKLOAD] [--note TEXT]

Each revision's committed tree is extracted with ``git archive`` into
``.bench_out/ab-<sha>/``, so uncommitted files never reach a run and
both sides run the benchmark code of their own revision.  For every
workload, pair i runs ``bench/run.py --trace 0`` on both trees for
BENCHMARK.json's ``run_seconds``, with the same workload seed
(``--seed`` + i), one run at a time, parent first on even i and change
first on odd i.  The record keeps every run's metrics
and correctness and, per end-to-end metric of ``BENCHMARK.json``, each
side's median and quartiles (``statistics.quantiles``, inclusive), the
pairs each side won, the parent's quartile spread relative to its
median, and whether the change's median is within the metric's bound.

``--claim`` adds the gain rule: every run is correct, the change fails no
more operations than the parent, it wins at least nine tenths of the
pairs run and its median beats the parent's by more than the parent's
quartile spread.  ``--traced`` adds one ``--trace 1`` run per side of
that workload (seed 0) with its per-layer metrics and self-time table.
Workload and metric names are checked against BENCHMARK.json before any
run starts.  The extracted trees are removed when the runs end.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def extract(sha: str) -> Path:
    """The committed tree of ``sha`` under .bench_out/ab-<sha>/."""
    dest = ROOT / ".bench_out" / f"ab-{sha[:12]}"
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", sha], cwd=ROOT, check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return dest


def run_bench(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One bench/run.py process: its JSON line, return code and, traced, its stderr table."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}, "stderr_tail": proc.stderr[-2000:]}
    result["returncode"] = proc.returncode
    if trace:
        result["table"] = [ln for ln in proc.stderr.splitlines() if not ln.startswith("trace written")]
    return result


def quartiles(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def metric_stats(pairs: list[dict], name: str, better: str, bound: float) -> dict:
    values = {side: [p[side]["metrics"][name]["value"] for p in pairs] for side in SIDES}
    sign = 1.0 if better == "lower" else -1.0
    diffs = [sign * (c - p) for p, c in zip(values["parent"], values["change"])]
    parent, change = quartiles(values["parent"]), quartiles(values["change"])
    ref = parent["median"]
    return {
        "parent": parent,
        "change": change,
        "change_wins": sum(d < 0 for d in diffs),
        "parent_wins": sum(d > 0 for d in diffs),
        "ties": sum(d == 0 for d in diffs),
        "pairs": len(pairs),
        "median_change_rel": (change["median"] - ref) / ref,
        "parent_iqr_rel": (parent["q3"] - parent["q1"]) / ref,
        "bound": bound,
        "within_bound": sign * (change["median"] - ref) <= bound * ref,
    }


def run_workload(trees: dict, workload: str, pairs: int, seconds: float, seed: int, metrics: list) -> dict:
    runs = []
    for i in range(pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {"seed": seed + i, "first": order[0]}
        for side in order:
            pair[side] = run_bench(trees[side], workload, seed + i, seconds, 0)
        runs.append(pair)
        wall = {s: pair[s]["metrics"].get("wall_s", {}).get("value") for s in SIDES}
        print(f"{workload} pair {i} seed {seed + i}: wall_s {wall}", file=sys.stderr, flush=True)
    ok = [p for p in runs if all(p[s]["returncode"] == 0 and p[s]["metrics"] for s in SIDES)]
    return {
        "pairs": runs,
        "stats": {m["name"]: metric_stats(ok, m["name"], m["better"], m["bound"]) for m in metrics} if ok else {},
        "all_correct": all(p[s]["correct"] and p[s]["returncode"] == 0 for p in runs for s in SIDES),
        "failed": {s: sum(p[s]["failed"] for p in runs) for s in SIDES},
    }


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": ".".join(map(str, sys.version_info[:3])),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpus": len(os.sched_getaffinity(0)),
        "blas": numpy.show_config(mode="dicts")["Build Dependencies"]["blas"],
        "blas_threads": "pinned by bench/run.py (BLAS_THREADS)",
    }


def claim(record: dict, spec: str) -> dict:
    """The gain rule on ``spec`` (WORKLOAD:METRIC): wins are counted against
    every pair run, and a claim with an incorrect run, or with more failed
    operations on the change than on the parent, is not met."""
    workload, metric = spec.split(":")
    w = record["workloads"][workload]
    s = w["stats"][metric]
    pairs = len(w["pairs"])
    spread = s["parent_iqr_rel"] * s["parent"]["median"]
    gain = s["parent"]["median"] - s["change"]["median"]
    return {
        "workload": workload,
        "metric": metric,
        "rule": (
            "every run correct, no more failed operations than the parent, the change wins at least 9 of "
            "10 pairs run and the median falls by more than the parent's quartile spread"
        ),
        "change_wins": s["change_wins"],
        "pairs": pairs,
        "all_correct": w["all_correct"],
        "failed": w["failed"],
        "median_change_rel": s["median_change_rel"],
        "parent_iqr_rel": s["parent_iqr_rel"],
        "met": (
            w["all_correct"]
            and w["failed"]["change"] <= w["failed"]["parent"]
            and s["change_wins"] >= math.ceil(0.9 * pairs)
            and gain > spread
        ),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--workloads", default="", help="comma-separated; default: every workload of BENCHMARK.json")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1000, help="pair i runs workload seed SEED + i")
    ap.add_argument("--claim", default="", help="WORKLOAD:METRIC the change claims a gain on")
    ap.add_argument("--traced", default="", help="a workload to run once per side with --trace 1")
    ap.add_argument("--note", default="")
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w for w in args.workloads.split(",") if w] or [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    if args.pairs < 1 or args.seed < 0:
        ap.error("--pairs must be positive and --seed non-negative")
    names = {w["name"] for w in bench["workloads"]}
    unknown = [w for w in workloads + [args.traced] if w and w not in names]
    if unknown:
        ap.error(f"unknown workload(s) {', '.join(unknown)}; BENCHMARK.json has {', '.join(sorted(names))}")
    if args.claim:
        workload, _, metric = args.claim.partition(":")
        if workload not in workloads or metric not in {m["name"] for m in bench["end_to_end"]}:
            ap.error(f"--claim {args.claim!r} must name a workload that runs and an end-to-end metric of BENCHMARK.json")
    shas = {side: git("rev-parse", "--verify", f"{rev}^{{commit}}") for side, rev in zip(SIDES, (args.parent, args.change))}
    trees = {}
    try:
        for side in SIDES:
            trees[side] = extract(shas[side])
        record = {
            "description": (
                f"Interleaved A/B runs of bench/run.py ({seconds:g} s per run, --trace 0) made by tools/ab.py, "
                f"{args.pairs} pairs per workload. Pair i uses workload seed {args.seed} + i on both sides, one run "
                "at a time, parent first on even i. Quartiles use statistics.quantiles(method='inclusive'); "
                "within_bound compares the change's median with the parent's median times (1 + bound). "
                + args.note
            ).strip(),
            "parent": {"commit": shas["parent"], "src_tree": git("rev-parse", f"{shas['parent']}:src")},
            "change": {"commit": shas["change"], "src_tree": git("rev-parse", f"{shas['change']}:src")},
            "environment": environment(),
            "workloads": {},
        }
        for w in workloads:
            record["workloads"][w] = run_workload(trees, w, args.pairs, seconds, args.seed, bench["end_to_end"])
        if args.claim:
            record["claim"] = claim(record, args.claim)
        if args.traced:
            record["traced"] = {
                "note": f"one --trace 1 run per side of {args.traced}, seed 0, {seconds:g} s, parent first",
                **{side: run_bench(trees[side], args.traced, 0, seconds, 1) for side in SIDES},
            }
    finally:
        for tree in trees.values():
            shutil.rmtree(tree, ignore_errors=True)
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
