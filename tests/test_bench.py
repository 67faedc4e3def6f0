"""The benchmark's workloads against the package: every workload's set-up
and one `stft-h1`, one `gef-hyperuniform`, one `poly3-full-2t` and one
`closed-form` unit under the benchmark's checks, and one `stft-h1` and one
`closed-form` unit under the benchmark's tracer, so a name or signature the
benchmark calls that stops working fails here first."""
import importlib.util
import sys
from pathlib import Path

from gwhf import mc, simulate

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _bench_module(monkeypatch, name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def _workloads(monkeypatch):
    return _bench_module(monkeypatch, "workloads")


def test_bench_workloads_set_up_and_run_one_stft_unit(monkeypatch):
    wl = _workloads(monkeypatch)
    assert sorted(wl.WORKLOADS) == ["closed-form", "gef-hyperuniform", "poly3-full-2t",
                                    "stft-h1"]
    for workload in wl.WORKLOADS.values():
        workload.setup(1)
    stft = wl.WORKLOADS["stft-h1"]
    with wl.SignCheck() as sign:
        unit = stft.run_unit(1, 1, sign)
    assert unit.output is not None and (unit.ops, unit.failed) == (stft.chunk, 0)
    checks = stft.checks([unit.output], sign)
    assert all(ok for _, ok in checks), checks


def test_bench_gef_hyperuniform_unit_passes_its_checks(monkeypatch):
    wl = _workloads(monkeypatch)
    gef = wl.WORKLOADS["gef-hyperuniform"]
    gef.setup(1)
    with wl.SignCheck() as sign:
        unit = gef.run_unit(1, 1, sign)
    assert unit.output is not None and (unit.ops, unit.failed) == (gef.chunk, 0)
    checks = gef.checks([unit.output], sign)
    assert all(ok for _, ok in checks), checks


def test_bench_poly3_full_2t_unit_passes_its_checks(monkeypatch):
    # two MC threads, and the detector on gwhf-plane grids
    wl = _workloads(monkeypatch)
    poly = wl.WORKLOADS["poly3-full-2t"]
    poly.threads = 2  # as bench/run.py sets it for this workload
    poly.setup(1)
    with wl.SignCheck() as sign:
        unit = poly.run_unit(1, 1, sign)
    assert unit.output is not None and (unit.ops, unit.failed) == (poly.chunk, 0)
    checks = poly.checks([unit.output], sign)
    assert all(ok for _, ok in checks), checks


def test_bench_closed_form_unit_passes_its_checks(monkeypatch):
    # its ops read keys of the CLI's JSON output and call kernels directly:
    # none may raise, and every value must pass its op's check
    wl = _workloads(monkeypatch)
    closed = wl.WORKLOADS["closed-form"]
    closed.setup(1)
    with wl.SignCheck() as sign:
        unit = closed.run_unit(1, 1, sign)
    assert (unit.ops, unit.failed) == (len(closed.ops), 0)
    checks = closed.checks([unit.output], sign)
    assert checks and all(ok for _, ok in checks), checks
    # the outputs' bits: a closed form that changes any printed digit moves it
    assert closed.digest([unit.output]) == "e4f486601f8728e7"


def _gwhf_names():
    """Every object bound to a name in a gwhf module or in one of its classes."""
    names = {}
    for key, module in list(sys.modules.items()):
        if key.split(".")[0] == "gwhf":
            for attr, obj in vars(module).items():
                names[key, attr] = obj
                if isinstance(obj, type):
                    names.update(((key, attr, a), o) for a, o in vars(obj).items())
    return names


def test_bench_traced_closed_form_unit_matches_untraced_and_restores(monkeypatch):
    wl = _workloads(monkeypatch)
    tracing = _bench_module(monkeypatch, "tracing")
    closed = wl.WORKLOADS["closed-form"]
    closed.setup(1)
    before = _gwhf_names()
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        with wl.SignCheck() as sign:
            traced = closed.run_unit(1, 1, sign, tracer)
    finally:
        tracer.restore()
    after = _gwhf_names()
    assert after.keys() == before.keys()
    assert all(after[name] is obj for name, obj in before.items())
    assert (traced.ops, traced.failed) == (len(closed.ops), 0)
    assert closed.digest([traced.output]) == "e4f486601f8728e7"
    layers = tracing.layer_metrics(tracer, traced.ops, 1)
    # the node count reads panel_quad's `panels` and `order` arguments
    assert layers["quadrature.nodes"] > 0 and layers["quadrature.adaptive_calls"] > 0
    assert layers["kernels.wick_oracle_calls"] == 3


def test_bench_traced_stft_unit_matches_untraced_and_restores(monkeypatch):
    wl = _workloads(monkeypatch)
    tracing = _bench_module(monkeypatch, "tracing")
    stft = wl.WORKLOADS["stft-h1"]
    stft.setup(1)
    detect, realize = mc.detect_zeros, simulate.StftPlan.realize
    with wl.SignCheck() as sign:
        plain = stft.run_unit(1, 1, sign)
    tracer = tracing.Tracer()
    tracing.install(tracer)  # installed before the sign check, as the runner does
    try:
        with wl.SignCheck() as sign:
            traced = stft.run_unit(1, 1, sign, tracer)
    finally:
        tracer.restore()
    assert traced.output is not None and (traced.ops, traced.failed) == (stft.chunk, 0)
    assert stft.digest([traced.output]) == stft.digest([plain.output])
    layers = tracing.layer_metrics(tracer, traced.ops, stft.threads)
    # the zero count reads the lattice rectangle's samples, made with no
    # grid: StftPlan.realize, the one STFT method the tracer wraps, is never
    # called, and a count that routes through it again shows here
    assert layers["simulate.stft.realize_calls"] == 0
    assert mc.detect_zeros is detect and simulate.StftPlan.realize is realize
