"""gwhf benchmark: one workload per process, end-to-end or traced.

    python3 bench/run.py --workload stft-h1 --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/` directory.  With `--trace 0` the last stdout line is a JSON object
holding the end-to-end metrics; with `--trace 1` it holds the per-layer
metrics of a traced run.  The line before it records the environment, the
checks and a digest of the results.  The exit code is 0 only when every
correctness check passed.  See bench/README.md for workloads and metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# worker threads of the MC estimator per workload; BLAS threads are pinned
# from it before numpy is imported
THREADS = {"stft-h1": 1, "gef-hyperuniform": 1, "poly3-full-2t": 2, "closed-form": 1}
SETUP_SAMPLES = 5
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(THREADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="time import plus workload set-up once and print seconds")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    return args


def pin_threads(workload: str) -> tuple[int, int]:
    """Set BLAS threads so that MC threads x BLAS threads <= nproc."""
    nproc = os.cpu_count() or 1
    threads = THREADS[workload]
    blas = max(1, nproc // threads)
    for var in BLAS_VARS:
        os.environ[var] = str(blas)
    return threads, blas


def setup_seconds(args) -> list[tuple[float, float]]:
    """(set-up seconds, reference seconds) of fresh processes, each timing
    `import gwhf` plus the workload's constructors, then the host reference."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        setup, ref = proc.stdout.strip().splitlines()[-1].split()
        samples.append((float(setup), float(ref)))
    return samples


def run_units(wl, seed, units, tracer=None, calibrated=False):
    """Run units in order; returns ((ops, seconds, scale) per unit, ops, failed,
    outputs, sign check).  With `calibrated`, the host reference is timed before
    the first unit and after each one, and a unit's scale comes from the mean
    of the two timings around it; otherwise every scale is 1."""
    import calibrate
    from workloads import SignCheck
    times, outputs, ops, failed = [], [], 0, 0
    ref = calibrate.reference_s() if calibrated else calibrate.REF_S
    with SignCheck() as sign:
        for u in units:
            t0 = time.perf_counter()
            unit = wl.run_unit(seed, u, sign, tracer)
            wall = time.perf_counter() - t0
            ref_after = calibrate.reference_s() if calibrated else calibrate.REF_S
            times.append((unit.ops, wall, calibrate.scale(0.5 * (ref + ref_after))))
            ref = ref_after
            ops, failed = ops + unit.ops, failed + unit.failed
            if unit.output is not None:
                outputs.append(unit.output)
    return times, ops, failed, outputs, sign


def fixed_units(wl, seconds: float) -> range:
    """Unit 0 as warm-up, then a fixed number of timed units: `seconds` of work
    at the workload's nominal unit time, at least one.

    The work does not depend on the clock, so a seed always runs the same
    realizations and `attempted` and `failed` repeat exactly.
    """
    return range(1 + max(1, round(seconds / wl.unit_s)))


def run_timed(wl, args):
    import calibrate
    setup = setup_seconds(args)
    wl.setup(args.seed)
    times, ops, failed, outputs, sign = run_units(wl, args.seed, fixed_units(wl, args.seconds),
                                                  calibrated=True)
    checks = wl.checks(outputs, sign)
    timed = times[1:]  # the warm-up unit fills caches and lazy set-up
    metrics = {
        "ops_per_s": (statistics.median(n / (t * k) for n, t, k in timed), "1/s"),
        "setup_s": (statistics.median(t * calibrate.scale(r) for t, r in setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_frac": ((ops - failed) / ops, "ratio"),
    }
    info = {"digest": wl.digest(outputs),
            "wall_ops_per_s": sum(n for n, _, _ in timed) / sum(t for _, t, _ in timed),
            "unit_rates": [n / (t * k) for n, t, k in times],
            "unit_scales": [k for _, _, k in times],
            "setup_samples": setup}
    return metrics, ops, failed, checks, info


def run_traced(wl, args):
    """The same fixed work untraced, then traced; per-layer metrics from the spans."""
    import tracing
    wl.setup(args.seed)
    units = range(wl.trace_units)
    run_units(wl, args.seed, units)  # warm-up: lazy set-up and caches
    t0 = time.perf_counter()
    _, _, _, out_u, _ = run_units(wl, args.seed, units)
    wall_u = time.perf_counter() - t0

    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        t0 = time.perf_counter()
        _, ops, failed, out_t, sign = run_units(wl, args.seed, units, tracer)
        wall_t = time.perf_counter() - t0
    finally:
        tracer.restore()
    checks = wl.checks(out_t, sign)

    layers = tracing.layer_metrics(tracer, ops, wl.threads)
    layers["trace.overhead_ms"] = 1e3 * (wall_t - wall_u) / ops
    layers["trace.overhead_frac"] = (wall_t - wall_u) / wall_u
    metrics = {k: (v, tracing.unit_of(k)) for k, v in sorted(layers.items())}
    if wl.digest(out_u) != wl.digest(out_t):
        checks.append(("tracing changed the results", False))
    path = OUT / f"spans-{wl.name}-seed{args.seed}.jsonl.gz"
    tracer.write(path)
    info = {"digest": wl.digest(out_t), "spans_file": str(path.relative_to(ROOT)),
            "untraced_wall_s": wall_u, "traced_wall_s": wall_t}
    return metrics, ops, failed, checks, info


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "gwhf" / "__init__.py").is_file():
        print(f"error: no gwhf sources under {SRC}", file=sys.stderr)
        return 2
    threads, blas = pin_threads(args.workload)
    sys.path.insert(0, str(SRC))

    if args.setup_probe:
        t0 = time.perf_counter()
        from workloads import WORKLOADS
        WORKLOADS[args.workload].setup(args.seed)
        setup = time.perf_counter() - t0
        import calibrate
        print(setup, calibrate.reference_s())
        return 0

    import gwhf
    from workloads import WORKLOADS, environment
    if Path(gwhf.__file__).resolve().parent != SRC / "gwhf":
        print(f"error: imported gwhf from {gwhf.__file__}, not {SRC}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    wl.threads = threads
    run = run_traced if args.trace else run_timed
    metrics, ops, failed, checks, info = run(wl, args)

    info.update(workload=wl.name, seed=args.seed, grid=getattr(wl, "grid", None),
                env=environment(threads, blas),
                checks=[line for line, _ in checks],
                problems=[line for line, ok in checks if not ok])
    print(json.dumps(info, sort_keys=True))
    correct = not info["problems"]
    print(json.dumps({"correct": correct, "attempted": ops, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
