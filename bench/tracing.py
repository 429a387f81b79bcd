"""Spans around the program's public functions, recorded from outside it.

``Tracer.install`` wraps every public function of every ``nnkernels``
module at each module-level name bound to it, so a call made through
``from .kernels import ntk_kernel_2layer`` in another module is seen too.
Each call appends one span (name, parent, start, end, work, peak
allocation) to an in-memory list; nothing is written until the run ends.

A function's self time is its span time minus the time of the wrapped
calls inside it.  Work counts come from the call's arguments.  The peak
allocation of a function in ``PEAK_ALLOC`` is measured with tracemalloc
on its first call only; tracemalloc slows the call down, so that call is
left out of the function's times, which are averaged over its other calls.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
import tracemalloc
import types
from collections import defaultdict

PREFIX = "nnkernels."

#: work done by one call, read from its bound arguments (after the call)
WORK = {
    "curves.effective_ridge_solve": lambda a: len(a["lam"]),  # modes
    "empirical.langevin_train": lambda a: len(a["cfg"].seeds) * a["cfg"].steps,  # chain steps
    "kernels.empirical_kernel_mc": lambda a: a["samples"],
    "empirical.dataset_averaged_gpr_mc": lambda a: a["draws"],
    "dynamics.msrdj_mean_predictor": lambda a: a["grid"].steps,
    "textio.write_csv": lambda a: os.path.getsize(a["path"]),  # bytes
}
_EMPTY = {"calls": 0, "timed_calls": 0, "total_s": 0.0, "self_s": 0.0, "work": 0.0, "peak_mb": 0.0}
PEAK_ALLOC = {"kernels.empirical_kernel_mc", "dynamics.phi_kernels_mc", "curves.rg_flow"}

#: rate metric suffix -> factor turning self seconds per unit of work into its unit
_RATES = {"ns_per_mode": 1e9, "us_per_chain_step": 1e6, "ns_per_sample": 1e9, "ms_per_draw": 1e3, "ms_per_step": 1e3}

#: (metric name, unit, better); self_s and calls are per round
PER_LAYER = [
    ("curves.effective_ridge_solve.self_s", "s", "lower"),
    ("curves.effective_ridge_solve.calls", "count", "lower"),
    ("curves.effective_ridge_solve.ns_per_mode", "ns", "lower"),
    ("curves.solve_D.self_s", "s", "lower"),
    ("curves.ek_predict.self_s", "s", "lower"),
    ("curves.truncate_spectrum.self_s", "s", "lower"),
    ("feature.kernel_scaling_solve.self_s", "s", "lower"),
    ("feature.kernel_scaling_solve.ridge_solves_per_call", "count", "lower"),
    ("empirical.langevin_train.self_s", "s", "lower"),
    ("empirical.langevin_train.us_per_chain_step", "us", "lower"),
    ("empirical.suggest_step_size.self_s", "s", "lower"),
    ("kernels.empirical_kernel_mc.self_s", "s", "lower"),
    ("kernels.empirical_kernel_mc.ns_per_sample", "ns", "lower"),
    ("kernels.empirical_kernel_mc.peak_alloc_mb", "MB", "lower"),
    ("empirical.dataset_averaged_gpr_mc.self_s", "s", "lower"),
    ("empirical.dataset_averaged_gpr_mc.ms_per_draw", "ms", "lower"),
    ("dynamics.phi_kernels_mc.self_s", "s", "lower"),
    ("dynamics.phi_kernels_mc.peak_alloc_mb", "MB", "lower"),
    ("kernels.nngp_kernel.self_s", "s", "lower"),
    ("kernels.pair_expectation.self_s", "s", "lower"),
    ("kernels.pair_expectation.calls", "count", "lower"),
    ("kernels.ntk_kernel_2layer.self_s", "s", "lower"),
    ("spectral.eigendecompose.self_s", "s", "lower"),
    ("gpr.gpr_predict.self_s", "s", "lower"),
    ("dynamics.phi_kernels.self_s", "s", "lower"),
    ("dynamics.msrdj_mean_predictor.self_s", "s", "lower"),
    ("dynamics.msrdj_mean_predictor.ms_per_step", "ms", "lower"),
    ("curves.rg_flow.self_s", "s", "lower"),
    ("curves.rg_flow.peak_alloc_mb", "MB", "lower"),
    ("textio.write_csv.self_s", "s", "lower"),
    ("textio.write_csv.bytes", "B", "lower"),
    ("textio.write_csv.mb_per_s", "MB/s", "higher"),
    ("textio.write_kv.self_s", "s", "lower"),
    ("cli.run.self_s", "s", "lower"),
    ("traced.round_s", "s", "lower"),
]


class Tracer:
    def __init__(self) -> None:
        # [name, parent index, start, end, work, peak MB or None if not measured]
        self.spans: list[list] = []
        self._alloc_measured: set[str] = set()
        self._stack: list[int] = []
        self._bindings: list[tuple] = []

    def install(self) -> None:
        """Wrap every public nnkernels function at every module-level binding."""
        modules = [m for n, m in sys.modules.items() if n.startswith(PREFIX)]
        wrapped = {}
        for mod in modules:
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not isinstance(fn, types.FunctionType):
                    continue
                if not fn.__module__.startswith(PREFIX):
                    continue
                if fn not in wrapped:
                    wrapped[fn] = self._wrap(f"{fn.__module__[len(PREFIX):]}.{fn.__name__}", fn)
                self._bindings.append((mod, attr, fn))
                setattr(mod, attr, wrapped[fn])

    def uninstall(self) -> None:
        for mod, attr, fn in self._bindings:
            setattr(mod, attr, fn)
        self._bindings.clear()

    def _wrap(self, name: str, fn):
        work = WORK.get(name)
        signature = inspect.signature(fn) if work else None
        peak = name in PEAK_ALLOC
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            measure = peak and name not in self._alloc_measured and not tracemalloc.is_tracing()
            if measure:
                self._alloc_measured.add(name)
                tracemalloc.start()
            span[2] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
                if measure:
                    span[5] = tracemalloc.get_traced_memory()[1] / 1e6
                    tracemalloc.stop()
                if work:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    span[4] = float(work(bound.arguments))

        return traced

    def summary(self) -> dict:
        """Per function: calls, and over the timed calls span and self seconds and work; peak MB."""
        child = [0.0] * len(self.spans)
        for name, parent, t0, t1, _, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = defaultdict(lambda: dict(_EMPTY))
        for i, (name, _, t0, t1, work, peak) in enumerate(self.spans):
            s = out[name]
            s["calls"] += 1
            if peak is not None:
                s["peak_mb"] = peak
                continue
            s["timed_calls"] += 1
            s["total_s"] += t1 - t0
            s["self_s"] += (t1 - t0) - child[i]
            s["work"] += work
        return dict(out)

    def nested_calls(self, inner: str, outer: str) -> int:
        """Calls of ``inner`` made, at any depth, inside a call of ``outer``."""
        count = 0
        for name, parent, *_ in self.spans:
            if name != inner:
                continue
            while parent >= 0 and self.spans[parent][0] != outer:
                parent = self.spans[parent][1]
            count += parent >= 0
        return count


def per_round(s: dict, rounds: int) -> float:
    """Factor from a total over a function's timed calls to one round.

    Calls left out for allocation tracing count at the timed calls' mean.
    """
    return s["calls"] / s["timed_calls"] / rounds if s["timed_calls"] else 0.0


def layer_metrics(tracer: Tracer, rounds: int, traced_round_s: float) -> dict:
    """The PER_LAYER metrics of a traced run of ``rounds`` rounds."""
    stats = tracer.summary()
    out = {}
    for metric, unit, _ in PER_LAYER:
        fn, kind = metric.rsplit(".", 1)
        s = stats.get(fn, _EMPTY)
        scale = per_round(s, rounds)
        if metric == "traced.round_s":
            value = traced_round_s
        elif kind == "self_s":
            value = s["self_s"] * scale
        elif kind == "calls":
            value = s["calls"] / rounds
        elif kind in _RATES:
            value = _RATES[kind] * s["self_s"] / s["work"] if s["work"] else 0.0
        elif kind == "peak_alloc_mb":
            value = s["peak_mb"]
        elif kind == "bytes":
            value = s["work"] * scale
        elif kind == "mb_per_s":  # bytes over the whole call: formatting and the atomic write
            value = s["work"] / s["total_s"] / 1e6 if s["total_s"] else 0.0
        elif kind == "ridge_solves_per_call":
            value = tracer.nested_calls("curves.effective_ridge_solve", fn) / s["calls"] if s["calls"] else 0.0
        else:
            raise ValueError(f"no rule for per-layer metric {metric}")
        out[metric] = {"value": float(value), "unit": unit}
    return out
