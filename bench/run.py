"""End-to-end benchmark of nnkernels.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src``.  One process imports ``nnkernels`` once, builds the
workload's inputs from ``--seed``, then runs whole rounds of the
workload's operations until ``--seconds`` have passed.  Every output is
checked against an independent reference after the clock stops.  The
last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are ``setup_s`` (process start to the
first timed call), ``wall_s`` (wall time of a typical round: the sum
over operations of each one's median) and ``peak_rss_mb``.  With ``--trace 1`` every public
function of the package is wrapped and the per-layer metrics of
``tracing.PER_LAYER`` are reported instead; the spans are written to
``.bench_out/trace-<workload>-seed<N>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import tracing

_T0 = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
#: BLAS threads, capped at the CPUs this process may use
BLAS_THREADS = 1


def _process_age() -> float:
    """Seconds since this process started (Linux), else since this module loaded."""
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError, AttributeError):
        return time.perf_counter() - _T0


def _pin_blas_threads() -> int:
    threads = min(BLAS_THREADS, len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


def measure(ops, seconds: float, work_dir: str):
    """Whole rounds of ``ops`` until ``seconds`` have passed.

    Returns (seconds per call, one list per op; attempted; failed;
    correct).  Only the program calls are timed; reading outputs,
    checking them and removing each call's output directory happen after
    the clock stops.
    """
    times = [[] for _ in ops]
    attempted, failed, correct = 0, 0, True
    start = time.perf_counter()
    while not times[0] or time.perf_counter() - start < seconds:
        for op, op_times in zip(ops, times):
            out_dir = tempfile.mkdtemp(dir=work_dir, prefix=f"{op.name}-")
            attempted += 1
            try:
                t0 = time.perf_counter()
                try:
                    result = op.call(out_dir)
                finally:
                    op_times.append(time.perf_counter() - t0)
            except (Exception, SystemExit):
                failed += 1
                print(f"[{op.name}] failed:", file=sys.stderr)
                traceback.print_exc()
                shutil.rmtree(out_dir)
                continue
            try:
                op.verify(op.read(result, out_dir))
            except Exception as e:
                correct = False
                print(f"[{op.name}] wrong output: {type(e).__name__}: {e}", file=sys.stderr)
            finally:
                shutil.rmtree(out_dir)
    return times, attempted, failed, correct


def round_seconds(times) -> float:
    """A typical round: the sum over operations of each one's median time."""
    return sum(statistics.median(t) for t in times)


def _write_trace(tracer, path: Path, times: list) -> None:
    summary = tracer.summary()
    rounds = len(times[0])
    self_s = {name: s["self_s"] * tracing.per_round(s, rounds) for name, s in summary.items()}
    total = sum(self_s.values()) or 1.0
    with open(path, "w") as fh:
        json.dump(
            {
                "call_seconds": times,
                "functions": summary,
                "spans": [{"name": n, "parent": p, "start": a, "end": b, "work": w, "peak_mb": m}
                          for n, p, a, b, w, m in tracer.spans],
            },
            fh,
        )
    print(f"{'function':44s} {'calls/round':>11s} {'self s/round':>12s} {'share':>6s}", file=sys.stderr)
    for name, t in sorted(self_s.items(), key=lambda kv: -kv[1]):
        print(f"{name:44s} {summary[name]['calls'] / rounds:11.1f} {t:12.4f} {t / total:6.1%}", file=sys.stderr)
    print(f"trace written to {path}", file=sys.stderr)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, help="theory_sweep, langevin, mc_oracles or kernel_pipeline")
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if not (ROOT / "src" / "nnkernels" / "__init__.py").is_file():
        print(f"error: no nnkernels package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    threads = _pin_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    import workloads  # imports numpy, so only after the BLAS threads are pinned

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    OUT.mkdir(exist_ok=True)
    work_dir = tempfile.mkdtemp(dir=OUT, prefix=f"{args.workload}-")
    try:
        ops = workloads.build(args.workload, args.seed, work_dir)
        tracer = None
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
        setup_s = _process_age()
        times, attempted, failed, correct = measure(ops, args.seconds, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    wall_s = round_seconds(times)
    print(f"{args.workload} seed {args.seed}: {len(times[0])} rounds, blas threads {threads}, "
          f"round s {[round(sum(r), 3) for r in zip(*times)]}", file=sys.stderr)
    if tracer is None:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": wall_s, "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
        }
    else:
        _write_trace(tracer, OUT / f"trace-{args.workload}-seed{args.seed}.json", times)
        metrics = tracing.layer_metrics(tracer, len(times[0]), wall_s)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
