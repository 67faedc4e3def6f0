"""Spans recorded from outside the package, around calls into each layer.

A `Tracer` replaces a function by a timing wrapper under every name through
which callers look it up, records one span per call (name, start, end,
parent, thread, info) in memory, and puts the original functions back on
`restore()`.  A name that does not exist is skipped, so a later refactor
that renames a function degrades that metric to zero calls instead of
breaking the benchmark.  `layer_metrics` turns the spans into the per-layer
numbers listed in BENCHMARK.json.
"""
from __future__ import annotations

import contextlib
import gzip
import inspect
import json
import sys
import threading
import time
from collections import defaultdict

import numpy as np

# span name -> per-layer metric prefix for functions reported per call
TIMED = {
    "simulate.plan_build": "simulate.plan_build",
    "simulate.stft.realize": "simulate.stft.realize",
    "simulate.series.realize": "simulate.series.realize",
    "simulate.to_gwhf_plane": "simulate.to_gwhf_plane",
    "zeros.detect": "zeros.detect",
    "zeros.refine": "zeros.refine",
    "zeros.charge": "zeros.charge",
    "zeros.disk_stats": "zeros.disk_stats",
    "windows.uncertainty_constants": "windows.uncertainty_constants",
    "kernels.wick_oracle_E": "kernels.wick_oracle",
    "kernels.variance_asymptote": "kernels.variance_asymptote",
    "kernels.charge_variance_exact": "kernels.charge_variance_exact",
    "kernels.integral_identity_residual": "kernels.integral_identity",
    "cli.main": "cli.main",
}

WINDOW_CONSTRUCTORS = ("hermite", "generalized_gaussian", "hermite_mixture",
                   "window_from_samples", "modulate", "window_from_spec")


class Tracer:
    """In-memory span recorder with reversible wrappers."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans: list[list] = []   # [name, start, end, parent, thread, info]
        self.root: int | None = None  # parent of spans opened on a thread with no open span
        self._lock = threading.Lock()
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else self.root
        with self._lock:
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent,
                               threading.get_ident(), None])
        stack.append(idx)
        return idx

    def close(self, idx: int, info=None) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        span[5] = info
        self._stack().pop()

    @contextlib.contextmanager
    def root_span(self, name: str):
        """Span that also parents spans opened on other threads while it is open."""
        idx = self.open(name)
        self.root = idx
        try:
            yield
        finally:
            self.root = None
            self.close(idx)

    # -- wrappers ----------------------------------------------------------
    def wrap(self, owner, attr: str, name: str, describe=None) -> None:
        """Time every call of owner.attr; describe(bound_args, result) adds info."""
        fn = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if fn is None:
            return
        self._install([(owner, attr)], fn, name, describe)

    def wrap_everywhere(self, module, attr: str, name: str, describe=None) -> None:
        """Time module.attr under every gwhf module name bound to the same object."""
        fn = getattr(module, attr, None)
        if fn is None:
            return
        owners = [(mod, attr) for key, mod in sorted(sys.modules.items())
                  if key.split(".")[0] == "gwhf" and vars(mod).get(attr) is fn]
        self._install(owners, fn, name, describe)

    def _install(self, owners, fn, name, describe) -> None:
        sig = inspect.signature(fn) if describe is not None else None
        tracer = self

        def timed(*args, **kwargs):
            idx = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.close(idx, {"error": type(exc).__name__})
                raise
            info = None
            if describe is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                info = describe(bound.arguments, out)
            tracer.close(idx, info)
            return out

        timed.__wrapped__ = fn
        for owner, attr in owners:
            self._undo.append((owner, attr, fn))
            setattr(owner, attr, timed)

    def restore(self) -> None:
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            for name, start, end, parent, thread, info in self.spans:
                fh.write(json.dumps({"name": name, "start": start - self.t0,
                                     "end": end - self.t0, "parent": parent,
                                     "thread": thread, "info": info}) + "\n")


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary that the per-layer metrics need."""
    from gwhf import cli, kernels, mc, quadrature, simulate, windows, zeros

    def grid_points(args, out):
        return {"points": int(out.values.size)}

    def detected(args, out):
        live = [z for z in out if not z.degenerate]
        return {"found": len(out), "degenerate": len(out) - len(live),
                "disagree": sum(z.winding != z.jacobian_sign for z in live)}

    def nodes(args, out):
        return {"nodes": int(args["panels"]) * int(args["order"])}

    tracer.wrap(simulate.StftPlan, "__init__", "simulate.plan_build")
    tracer.wrap(simulate.SeriesPlan, "__init__", "simulate.plan_build")
    tracer.wrap(simulate.StftPlan, "realize", "simulate.stft.realize", grid_points)
    tracer.wrap(simulate.SeriesPlan, "realize", "simulate.series.realize", grid_points)
    tracer.wrap(mc, "to_gwhf_plane", "simulate.to_gwhf_plane")
    tracer.wrap(mc, "detect_zeros", "zeros.detect", detected)
    tracer.wrap(mc, "disk_stats", "zeros.disk_stats")
    tracer.wrap(zeros, "refine_zero", "zeros.refine", lambda a, out: {"ok": bool(out[1])})
    tracer.wrap(zeros, "charge_of", "zeros.charge")
    for attr in ("adaptive_quad", "half_line_quad"):
        tracer.wrap_everywhere(quadrature, attr, f"quadrature.{attr}")
    tracer.wrap_everywhere(quadrature, "panel_quad", "quadrature.panel_quad", nodes)
    for mod, label in ((kernels, "kernels"), (windows, "windows")):
        public = list(getattr(mod, "__all__", []))
        if mod is kernels:
            public.append("integral_identity_residual")
        for attr in public:
            if inspect.isfunction(getattr(mod, attr, None)):
                tracer.wrap_everywhere(mod, attr, f"{label}.{attr}")
    tracer.wrap(cli, "main", "cli.main")


# ---------------------------------------------------------------------------
# Span reduction
# ---------------------------------------------------------------------------

def unit_of(metric: str) -> str:
    for suffix, unit in (("_ms", "ms"), ("_frac", "ratio")):
        if metric.endswith(suffix):
            return unit
    return "count"


def _union(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def _per_call(durations: list[float]) -> tuple[float, float]:
    """Median and 90th percentile in milliseconds; zeros when never called."""
    if not durations:
        return 0.0, 0.0
    arr = np.asarray(durations) * 1e3
    return float(np.median(arr)), float(np.percentile(arr, 90))


def layer_metrics(tracer: Tracer, ops: int, threads: int) -> dict[str, float]:
    """Per-layer numbers from the recorded spans (counts, per-call times, ratios)."""
    spans = tracer.spans
    children: dict[int, list[int]] = defaultdict(list)
    for idx, span in enumerate(spans):
        if span[3] is not None:
            children[span[3]].append(idx)

    def self_time(idx: int) -> float:
        name, start, end, *_ = spans[idx]
        kids = [(max(spans[k][1], start), min(spans[k][2], end)) for k in children[idx]]
        return (end - start) - _union([iv for iv in kids if iv[1] > iv[0]])

    def outermost(idx: int, names) -> bool:
        parent = spans[idx][3]
        while parent is not None:
            if spans[parent][0] in names:
                return False
            parent = spans[parent][3]
        return True

    by_name: dict[str, list[int]] = defaultdict(list)
    for idx, span in enumerate(spans):
        by_name[span[0]].append(idx)

    def durations(name: str) -> list[float]:
        return [spans[i][2] - spans[i][1] for i in by_name[name]]

    out: dict[str, float] = {}

    def timed(prefix: str, durs: list[float]) -> None:
        med, p90 = _per_call(durs)
        out[f"{prefix}_ms"] = med
        out[f"{prefix}_p90_ms"] = p90
        out[f"{prefix}_calls"] = len(durs)

    for name, prefix in TIMED.items():
        timed(prefix, durations(name))
    constructors = {f"windows.{b}" for b in WINDOW_CONSTRUCTORS}
    timed("windows.build", [spans[i][2] - spans[i][1]
                            for name in sorted(constructors) for i in by_name[name]
                            if outermost(i, constructors)])

    info = [spans[i][5] or {} for i in by_name["simulate.stft.realize"]
            + by_name["simulate.series.realize"]]
    out["simulate.grid_points"] = sum(d.get("points", 0) for d in info)

    detect = [spans[i][5] or {} for i in by_name["zeros.detect"]]
    found = sum(d.get("found", 0) for d in detect)
    out["zeros.found"] = found
    out["zeros.degenerate_frac"] = (sum(d.get("degenerate", 0) for d in detect) / found
                                    if found else 0.0)
    out["zeros.sign_disagreements"] = sum(d.get("disagree", 0) for d in detect)
    out["zeros.resolution_errors"] = sum(d.get("error") == "ResolutionError" for d in detect)
    refine = [spans[i][5] or {} for i in by_name["zeros.refine"]]
    out["zeros.refined_frac"] = (sum(bool(d.get("ok")) for d in refine) / len(refine)
                                 if refine else 0.0)
    self_detect = _per_call([self_time(i) for i in by_name["zeros.detect"]])
    out["zeros.detect_self_ms"], out["zeros.detect_self_p90_ms"] = self_detect

    est = by_name["mc.estimate"]
    wall = sum(spans[i][2] - spans[i][1] for i in est)
    busy = sum(spans[k][2] - spans[k][1] for i in est for k in children[i])
    out["mc.self_ms"] = 1e3 * sum(self_time(i) for i in est) / ops if est else 0.0
    out["mc.thread_busy_frac"] = busy / (threads * wall) if wall > 0 else 0.0

    out["kernels.charge_variance_exact_failures"] = sum(
        bool((spans[i][5] or {}).get("error")) for i in by_name["kernels.charge_variance_exact"])

    adaptive = by_name["quadrature.adaptive_quad"]
    useful = evaluated = 0
    for i in adaptive:
        levels = [(spans[k][5] or {}).get("nodes", 0) for k in children[i]
                  if spans[k][0] == "quadrature.panel_quad"]
        evaluated += sum(levels)
        if levels and not (spans[i][5] or {}).get("error"):
            useful += levels[-1]
    out["quadrature.adaptive_calls"] = len(adaptive)
    out["quadrature.nodes"] = sum((spans[i][5] or {}).get("nodes", 0)
                                  for i in by_name["quadrature.panel_quad"])
    out["quadrature.useful_node_frac"] = useful / evaluated if evaluated else 0.0

    cli_self = _per_call([self_time(i) for i in by_name["cli.main"]])
    out["cli.self_ms"] = cli_self[0]
    out["trace.spans"] = len(spans)
    return out
