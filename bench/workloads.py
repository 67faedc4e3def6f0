"""The four benchmark workloads: set-up, the unit of measured work, and the
correctness gates.

Every workload runs in units.  A Monte Carlo unit is one estimator call of
`chunk` realizations with a fresh seed derived from the workload seed and
the unit index, so a run of n units always makes the same realizations and
pools them into one gate; one op is one field realization through
simulate, detect and reduce.  `unit_s` is a unit's nominal wall time, from
which the runner sizes a run.
A closed-form unit is one pass over a fixed list of closed-form evaluations
built from the workload seed; one op is one entry of that list.

Every op that raises a `GwhfError` counts as failed, and so does a
realization in which a non-degenerate zero's winding differs from its
Jacobian sign.  Known failures stay in the lists: `charge_variance_exact`
raises for most non-flat builtin kernels, and that shows in `failed`.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import platform
import threading
from dataclasses import dataclass

import numpy as np
import scipy

import gwhf
from gwhf import cli, kernels, mc, simulate, windows
from gwhf.errors import GwhfError

Z_GATE = 5.0
PI = math.pi


@dataclass
class Unit:
    ops: int
    failed: int
    output: object  # None when the unit raised


class SignCheck:
    """Counts realizations whose non-degenerate zeros disagree in winding and
    Jacobian sign, by wrapping the detector as the MC harness looks it up.
    It reads no clock, so it stays installed in untraced runs."""

    def __init__(self):
        self.bad_realizations = 0
        self.bad_zeros = 0
        self._lock = threading.Lock()
        self._orig = None

    def __enter__(self):
        self._orig = detect = mc.detect_zeros

        def checked(*args, **kwargs):
            out = detect(*args, **kwargs)
            bad = sum(z.winding != z.jacobian_sign for z in out if not z.degenerate)
            if bad:
                with self._lock:
                    self.bad_realizations += 1
                    self.bad_zeros += bad
            return out

        mc.detect_zeros = checked
        return self

    def __exit__(self, *exc):
        mc.detect_zeros = self._orig
        return False


# ---------------------------------------------------------------------------
# Monte Carlo workloads
# ---------------------------------------------------------------------------

def chunk_seed(seed: int, unit: int, component: int = 0) -> int:
    """Seed of one estimator call: distinct for every (seed, unit, component)."""
    return (seed * 1_000_000 + unit) * 2 + component


def _pool(items: list[mc.McItem]) -> tuple[float, float]:
    """Mean of equal-size chunk estimates and its standard error.

    The error is the larger of the one the chunks report and the spread of
    the chunk estimates themselves: a chunk of 8 realizations reports a
    variance error that shrinks with its own low estimates, which alone
    would turn an ordinary low fluctuation into a large |z|.
    """
    emp = np.array([it.empirical for it in items])
    se = math.sqrt(sum(it.se ** 2 for it in items)) / len(items)
    if len(items) > 1:
        se = max(se, float(np.std(emp, ddof=1)) / math.sqrt(len(items)))
    return float(emp.mean()), se


def _gate(label: str, items: list[mc.McItem], theory: float) -> tuple[str, bool]:
    """(report line, passed) for |z| <= Z_GATE of the pooled estimate."""
    emp, se = _pool(items)
    z = (emp - theory) / se if se > 0 else math.inf
    line = f"{label}: {emp:.6g} +- {se:.2g} vs {theory:.6g} (z={z:+.2f}, n_chunks={len(items)})"
    return line, abs(z) <= Z_GATE


class McWorkload:
    """Shared unit loop of the three Monte Carlo workloads."""

    name = ""
    threads = 1      # MC worker threads; the runner sets it from its THREADS table
    chunk = 8        # realizations per estimator call
    unit_s = 1.0     # nominal seconds per unit at the seed commit on 2 cores
    trace_units = 2  # fixed work of a traced run

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def calls(self, seed: int, unit: int) -> list[tuple[object, mc.McConfig]]:
        """(estimator, config) pairs making up one unit; the first is the field."""
        raise NotImplementedError

    def gates(self, reports: list[list[mc.McReport]]) -> list[tuple[str, bool]]:
        raise NotImplementedError

    def run_unit(self, seed: int, unit: int, sign: SignCheck, tracer=None) -> Unit:
        bad_before = sign.bad_realizations
        reports = []
        try:
            for estimator, cfg in self.calls(seed, unit):
                with tracer.root_span("mc.estimate") if tracer else contextlib.nullcontext():
                    reports.append(estimator(cfg))
        except GwhfError as exc:
            print(f"unit {unit} failed: {type(exc).__name__}: {exc}", flush=True)
            return Unit(self.chunk, self.chunk, None)
        return Unit(self.chunk, min(self.chunk, sign.bad_realizations - bad_before), reports)

    def checks(self, outputs: list, sign: SignCheck) -> list[tuple[str, bool]]:
        checks = self.gates(outputs) if outputs else [("no unit finished", False)]
        # a disagreeing zero makes its realization a failed op, not a wrong result
        checks.append((f"{sign.bad_zeros} zeros in {sign.bad_realizations} realizations "
                       "with winding != jacobian sign, counted as failed ops", True))
        return checks

    @staticmethod
    def digest(outputs: list) -> str:
        h = hashlib.sha256()
        for reports in outputs:
            for rep in reports:
                h.update(rep.to_json(include_elapsed=False).encode())
        return h.hexdigest()[:16]


class StftH1(McWorkload):
    name = "stft-h1"
    unit_s = 0.55
    trace_units = 3

    def setup(self, seed):
        self.window = windows.hermite(1)
        plan = simulate.StftPlan(self.window, (0.0, 8.0, 0.0, 8.0), 1 / 16, 1 / 64)
        self.grid = [plan.nx, plan.ny]

    def calls(self, seed, unit):
        return [(mc.estimate_intensity, mc.McConfig(
            source={"family": "window", "window": self.window, "plane": "stft"},
            domain=(0.0, 8.0, 0.0, 8.0), spacing=1 / 16, dt=1 / 64,
            n_realizations=self.chunk, seed=chunk_seed(seed, unit), threads=self.threads))]

    def gates(self, reports):
        items = [unit[0].items[0] for unit in reports]
        theory_err = max(abs(it.theory - 5 / 3) for it in items)
        line = f"closed-form density {items[0].theory!r} vs 5/3 (err {theory_err:.1e}, tol 1e-8)"
        return [_gate("stft-h1 density", items, 5 / 3), (line, theory_err <= 1e-8)]


class GefHyperuniform(McWorkload):
    name = "gef-hyperuniform"
    unit_s = 0.8
    trace_units = 4
    domain = (-6.5, 6.5, -6.5, 6.5)
    radii = (1.0, 2.0, 3.0, 4.0, 5.0, 6.0)

    def setup(self, seed):
        self.kernel = kernels.gef_kernel()
        plan = simulate.SeriesPlan(self.domain, 0.08)
        self.grid = [plan.z.shape[1], plan.z.shape[0], plan.n_terms]

    def calls(self, seed, unit):
        common = dict(domain=self.domain, spacing=0.08, n_realizations=self.chunk,
                      radii=self.radii, threads=self.threads)
        return [(mc.estimate_charge_variance, mc.McConfig(
                    source={"family": "series-gef"}, seed=chunk_seed(seed, unit, 0), **common)),
                (mc.estimate_charge_variance, mc.McConfig(
                    source={"family": "poisson", "density": 1 / PI},
                    seed=chunk_seed(seed, unit, 1), **common))]

    def gates(self, reports):
        out = []
        for k, R in enumerate(self.radii):
            exact = kernels.charge_variance_exact(self.kernel, R) / R
            out.append(_gate(f"gef Var/R at R={R:g}",
                             [unit[0].items[k] for unit in reports], exact))
            # Poisson control: Var = density * pi R^2 = R^2 at density 1/pi
            out.append(_gate(f"poisson Var/R at R={R:g}",
                             [unit[1].items[k] for unit in reports], R))
        return out


class Poly3Full2t(McWorkload):
    name = "poly3-full-2t"
    unit_s = 1.1
    domain = (-6.5, 6.5, -6.5, 6.5)

    def setup(self, seed):
        sp = math.sqrt(PI)
        x0, x1, y0, y1 = self.domain
        sdom = (x0 / sp, x1 / sp, -y1 / sp, -y0 / sp)
        ws = [windows.hermite(k) for k in range(3)]
        margin = 2.0 * max(max(w.support_radius, w.freq_radius) for w in ws)
        self.kernel = kernels.laguerre_avg_kernel(3)
        plans = [simulate.StftPlan(w, sdom, 0.08 / sp, 1 / 64, margin) for w in ws]
        self.grid = [plans[0].nx, plans[0].ny]

    def calls(self, seed, unit):
        return [(mc.estimate_charge_intensity, mc.McConfig(
            source={"family": "polyentire", "q": 3, "kind": "full"},
            domain=self.domain, spacing=0.08, dt=1 / 64, n_realizations=self.chunk,
            seed=chunk_seed(seed, unit), threads=self.threads))]

    def gates(self, reports):
        return [_gate("poly3 charge density", [unit[0].items[0] for unit in reports],
                      1 / PI)]


# ---------------------------------------------------------------------------
# Closed-form workload
# ---------------------------------------------------------------------------

def _complex_arg(z: complex) -> str:
    re, im = float(z.real), float(z.imag)
    return f"{re!r}{'+' if im >= 0 else ''}{im!r}j"


def _kernel_rho1(name: str) -> float:
    family, _, arg = name.partition(":")
    if family == "gef":
        return 1 / PI
    q = int(arg)
    if family == "laguerre":
        q += 1
        return (q - 0.5 + 1.0 / (4 * q - 2)) / PI
    return (q + 1.0 / q) / (2 * PI)


def _within(v, expect: float, tol: float) -> str | None:
    ok = isinstance(v, float) and abs(v - expect) <= tol
    return None if ok else f"{v!r} differs from {expect!r} by more than {tol:g}"


def _at_least(v, floor: float) -> str | None:
    return None if isinstance(v, float) and v >= floor else f"{v!r} below {floor!r}"


def _at_most(v, cap: float) -> str | None:
    return None if isinstance(v, float) and v <= cap else f"{v!r} above {cap!r}"


def _positive(v) -> str | None:
    return None if isinstance(v, float) and math.isfinite(v) and v > 0 else f"{v!r} not positive"


def _kernel_ok(out: dict, expect: float) -> str | None:
    if not out["standing_assumptions"]["ok"]:
        return f"standing assumptions violated: {out['standing_assumptions']['violations']}"
    return _within(out["rho1"], expect, 1e-12)


def _cli(argv: list[str], check):
    """Op running `gwhf <argv>` in process; check(parsed stdout) -> problem or None."""
    def op():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        if rc == 2:  # the CLI caught a GwhfError
            raise GwhfError(err.getvalue().strip())
        text = out.getvalue()
        problem = check(json.loads(text))
        if problem is None and rc != 0:
            problem = f"exit code {rc}"
        return text, problem
    return " ".join(argv), op


def _call(label: str, fn, check):
    """Op calling fn(); check(value) -> problem or None."""
    def op():
        value = fn()
        return repr(value), check(value)
    return label, op


class ClosedForm:
    """A fixed list of closed-form evaluations; cli entries run in process."""

    name = "closed-form"
    unit_s = 1.1
    trace_units = 1

    def setup(self, seed):
        self.kernels = kernels.BUILTIN_KERNELS()
        self.ops = self.build_ops(seed)

    def build_ops(self, seed: int) -> list[tuple[str, object]]:
        """(label, op) pairs; an op returns (output text, problem or None)."""
        rng = np.random.default_rng(seed)
        ops = []
        for r in range(6):
            expect = r + 0.5 + 1.0 / (4 * r + 2)
            ops.append(_cli(["intensity", "--window", f"hermite:{r}"],
                            lambda o, e=expect: _within(o["rho1_stft"], e, 1e-8)))
        mixtures = []
        for _ in range(4):
            deg = int(rng.integers(2, 9))
            coeffs = rng.normal(size=deg) + 1j * rng.normal(size=deg)
            spec = "hermite-mixture:" + ";".join(_complex_arg(c) for c in coeffs)
            mixtures.append(spec)
            ops.append(_cli(["intensity", "--window", spec],
                            lambda o: _at_least(o["rho1_stft"], 1.0 - 1e-7)))
        for _ in range(4):
            sigma = float(rng.uniform(0.4, 2.5))
            rest = rng.uniform(-1.0, 1.0, size=4)
            spec = "gaussian:" + ";".join(repr(float(v)) for v in (sigma, *rest))
            ops.append(_cli(["intensity", "--window", spec],
                            lambda o: _within(o["rho1_stft"], 1.0, 1e-8)))
        for name in self.kernels:
            ops.append(_cli(["intensity", "--kernel", name],
                            lambda o, e=_kernel_rho1(name): _kernel_ok(o, e)))
        for name in self.kernels:
            ops.append(_cli(["variance-asymptote", "--kernel", name],
                            lambda o: _positive(o["var_per_radius_limit"])))
        ops.append(_cli(["verify", "invariance", "--window", mixtures[0], "-n", "10",
                         "--seed", str(seed)],
                        lambda o: _at_most(o["max_deviation"], 1e-7)))
        for name in ("gef", "laguerre:1", "laguerre:2"):
            ops.append(_cli(["verify", "tau2-oracle", "--kernel", name],
                            lambda o: _at_most(o["max_residual"], 1e-8)))
        for name, kern in self.kernels.items():
            for R in range(1, 7):
                ops.append(_call(f"charge_variance_exact {name} R={R}",
                                 lambda k=kern, R=R: kernels.charge_variance_exact(k, R),
                                 _positive))
        for name, kern in self.kernels.items():
            ops.append(_call(f"integral_identity_residual {name}",
                             lambda k=kern: kernels.integral_identity_residual(k),
                             lambda v: _at_most(v, 1e-6)))
        return ops

    def run_unit(self, seed: int, unit: int, sign: SignCheck, tracer=None) -> Unit:
        """One pass over the op list; output is (texts, problems, raising labels)."""
        texts, problems, raised = [], [], []
        for label, op in self.ops:
            try:
                text, problem = op()
            except GwhfError:
                raised.append(label)
                continue
            texts.append(label + "\n" + text)
            if problem is not None:
                problems.append(f"{label}: {problem}")
        return Unit(len(self.ops), len(raised), (texts, problems, raised))

    def checks(self, outputs: list, sign: SignCheck) -> list[tuple[str, bool]]:
        raised = outputs[0][2]
        checks = [(f"{len(raised)} of {len(self.ops)} ops raise a GwhfError on every pass: "
                   + ", ".join(raised), all(out[2] == raised for out in outputs))]
        problems = dict.fromkeys(p for out in outputs for p in out[1])
        return checks + [(p, False) for p in problems]

    @staticmethod
    def digest(outputs: list) -> str:
        return hashlib.sha256("\n".join(outputs[0][0]).encode()).hexdigest()[:16]


WORKLOADS = {w.name: w for w in (StftH1(), GefHyperuniform(), Poly3Full2t(), ClosedForm())}


def environment(threads: int, blas_threads: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "gwhf": gwhf.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "mc_threads": threads, "blas_threads": blas_threads}
