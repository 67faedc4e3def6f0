"""Window functions for the short-time Fourier transform.

A window is a unit-norm complex function on the line together with an
analytic derivative rule and a truncation radius.  The five moment
constants (c1..c5) of a window determine the kernel jet of the associated
twisted-stationary field, hence the expected number of spectrogram zeros
per unit area, through

    rho = (4 S + 1) / (4 sqrt(S)),
    S   = (c2 - c1^2) c3 - c2 c4^2 - c5^2 + 2 c1 c4 c5,

with the sign of the last term tied to the conditional-covariance
convention (see kernels.OMEGA_CONVENTIONS).  rho >= 1 always, with
equality exactly for squeezed Gaussian states.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import InvalidWindowError
from .kernels import (DEFAULT_CONVENTION, KernelJet, RadialKernel,
                      _check_convention, build_from_spec, laguerre_kernel, rho1)
from .quadrature import adaptive_quad

__all__ = [
    "Window", "UncertaintyConstants",
    "hermite", "generalized_gaussian", "hermite_mixture", "window_from_samples",
    "modulate", "window_norm", "decay_tails",
    "uncertainty_constants", "rho1_stft", "rho1_stft_from_constants",
    "rho1_stft_via_jet", "jet_from_constants",
    "ambiguity_kernel", "AmbiguityKernel", "invariance_check",
    "window_from_spec", "HERMITE_MAX_ORDER",
]

HERMITE_MAX_ORDER = 12  # three-term recurrence validated up to here


@dataclass(frozen=True)
class Window:
    """Unit-norm window with analytic value/derivative rules.

    support_radius: |g| < 1e-12 beyond it.  freq_radius: numerically
    estimated spectral extent, used for alias-band checks in the simulator.
    """
    rule: Callable[[np.ndarray], np.ndarray]
    derivative: Callable[[np.ndarray], np.ndarray]
    support_radius: float
    freq_radius: float
    label: str = "window"
    kind: str = "generic"
    order: int = -1

    def __call__(self, t):
        return self.rule(t)


@dataclass(frozen=True)
class UncertaintyConstants:
    """Moment constants of a unit-norm window.

    c1, c2: first and second time moments of |g|^2; c3: energy of g';
    c4: -i int g conj(g'); c5: Im int t g conj(g').  All real; c4 = c5 = 0
    for real-valued windows.
    """
    c1: float
    c2: float
    c3: float
    c4: float
    c5: float

    def as_tuple(self):
        return (self.c1, self.c2, self.c3, self.c4, self.c5)


# ---------------------------------------------------------------------------
# Hermite family
# ---------------------------------------------------------------------------

def _hermite_stack(rmax: int, t: np.ndarray) -> np.ndarray:
    """h_0 .. h_rmax at t via the normalized three-term recurrence.

    h_r(t) = 2^{1/4} Htilde_r(sqrt(2 pi) t) exp(-pi t^2) with Htilde the
    orthonormal Hermite polynomials; stable for the orders allowed here.
    """
    t = np.asarray(t, dtype=float)
    x = math.sqrt(2.0 * math.pi) * t
    base = 2.0 ** 0.25 * np.exp(-math.pi * t * t)
    out = np.empty((rmax + 1,) + t.shape, dtype=float)
    out[0] = base
    if rmax >= 1:
        out[1] = math.sqrt(2.0) * x * base
    for n in range(1, rmax):
        out[n + 1] = (math.sqrt(2.0) * x * out[n] - math.sqrt(n) * out[n - 1]) / math.sqrt(n + 1)
    return out


def _support_radius_from(fn: Callable[[np.ndarray], np.ndarray], scan: float = 16.0) -> float:
    t = np.linspace(0.0, scan, 6401)
    vals = np.abs(fn(t)) + np.abs(fn(-t))
    above = np.nonzero(vals >= 1e-12)[0]
    if above.size == 0:
        return 0.5
    return float(t[above[-1]]) + 0.25


def _freq_radius_from(fn: Callable[[np.ndarray], np.ndarray], support: float) -> float:
    half = max(support, 1.0) * 1.5
    n = 8192
    t = np.linspace(-half, half, n, endpoint=False)
    vals = np.asarray(fn(t), dtype=complex)
    spec = np.fft.fft(vals)
    freqs = np.fft.fftfreq(n, d=2.0 * half / n)
    mag = np.abs(spec)
    keep = mag >= 1e-9 * mag.max()
    return float(np.max(np.abs(freqs[keep]))) + 0.25


def hermite(r: int) -> Window:
    """Unit-norm Hermite window of order r (Gaussian at r = 0)."""
    if not 0 <= r <= HERMITE_MAX_ORDER:
        raise InvalidWindowError(f"hermite order must be in [0, {HERMITE_MAX_ORDER}], got {r}")

    def rule(t):
        return _hermite_stack(r, np.asarray(t, dtype=float))[r].astype(complex)

    def derivative(t):
        stack = _hermite_stack(r + 1, np.asarray(t, dtype=float))
        lower = math.sqrt(r) * stack[r - 1] if r >= 1 else 0.0
        return (math.sqrt(math.pi) * (lower - math.sqrt(r + 1) * stack[r + 1])).astype(complex)

    support = _support_radius_from(rule)
    return Window(rule=rule, derivative=derivative, support_radius=support,
                  freq_radius=support, label=f"hermite:{r}", kind="hermite", order=r)


def hermite_mixture(coeffs: Sequence[complex]) -> Window:
    """Normalized finite combination sum_r coeffs[r] h_r.  The label is the
    text spec of the coefficients as given, so it rebuilds the window."""
    c = np.asarray(coeffs, dtype=complex)
    if c.ndim != 1 or c.size == 0 or c.size - 1 > HERMITE_MAX_ORDER:
        raise InvalidWindowError("coeffs must be a nonempty 1-d sequence of length <= 13")
    label = "hermite-mixture:" + ";".join(f"{v.real}{v.imag:+}j" for v in c.tolist())
    if not np.isfinite(c).all():
        raise InvalidWindowError(f"mixture coefficients must be finite, got {label}")
    norm = float(np.linalg.norm(c))
    if norm == 0.0:
        raise InvalidWindowError("all mixture coefficients vanish")
    c = c / norm
    rmax = c.size - 1

    def rule(t):
        stack = _hermite_stack(rmax, np.asarray(t, dtype=float))
        return np.tensordot(c, stack, axes=(0, 0))

    # ladder rule: h_r' = sqrt(pi) (sqrt(r) h_{r-1} - sqrt(r+1) h_{r+1})
    dcoef = np.zeros(rmax + 2, dtype=complex)
    for r in range(rmax + 1):
        if r >= 1:
            dcoef[r - 1] += c[r] * math.sqrt(math.pi) * math.sqrt(r)
        dcoef[r + 1] -= c[r] * math.sqrt(math.pi) * math.sqrt(r + 1)

    def derivative(t):
        stack = _hermite_stack(rmax + 1, np.asarray(t, dtype=float))
        return np.tensordot(dcoef, stack, axes=(0, 0))

    support = _support_radius_from(rule)
    return Window(rule=rule, derivative=derivative, support_radius=support,
                  freq_radius=support, label=label,
                  kind="mixture")


def generalized_gaussian(sigma: float, lambda_phase: float = 0.0, x0: float = 0.0,
                         xi0: float = 0.0, xi1: float = 0.0) -> Window:
    """Squeezed state: (lambda/sqrt(sigma)) exp(-(pi/sigma^2)[(t-x0)^2 + i(xi0 t + xi1 t^2)]).

    |lambda| = 2^{1/4} is enforced internally so the norm is exactly 1.  The
    label is the text spec without trailing zero parameters.
    """
    params = [sigma, lambda_phase, x0, xi0, xi1]
    for name, value in zip(("sigma", "phase", "x0", "xi0", "xi1"), params):
        if not math.isfinite(value):
            raise InvalidWindowError(f"generalized-gaussian {name} must be finite, got {value}")
    if sigma <= 0:
        raise InvalidWindowError("sigma must be positive")
    lam = 2.0 ** 0.25 * np.exp(1j * lambda_phase)
    a = math.pi / sigma ** 2

    def rule(t):
        t = np.asarray(t, dtype=float)
        return (lam / math.sqrt(sigma)) * np.exp(-a * ((t - x0) ** 2 + 1j * (xi0 * t + xi1 * t * t)))

    def derivative(t):
        t = np.asarray(t, dtype=float)
        return rule(t) * (-a * (2.0 * (t - x0) + 1j * (xi0 + 2.0 * xi1 * t)))

    support = abs(x0) + sigma * math.sqrt(math.log(2.0 ** 0.25 / (math.sqrt(sigma) * 1e-12)) / math.pi) + 0.25
    while len(params) > 1 and params[-1] == 0:
        params.pop()
    return Window(rule=rule, derivative=derivative, support_radius=support,
                  freq_radius=_freq_radius_from(rule, support),
                  label="generalized-gaussian:" + ";".join(map(str, params)),
                  kind="generalized-gaussian")


def modulate(g: Window, x0: float, xi0: float, xi1: float) -> Window:
    """Time shift plus linear/quadratic phase: exp(2 pi i (xi0 t + xi1 t^2)) g(t - x0)."""
    def rule(t):
        t = np.asarray(t, dtype=float)
        return np.exp(2j * math.pi * (xi0 * t + xi1 * t * t)) * g.rule(t - x0)

    def derivative(t):
        t = np.asarray(t, dtype=float)
        phase = np.exp(2j * math.pi * (xi0 * t + xi1 * t * t))
        return phase * (2j * math.pi * (xi0 + 2.0 * xi1 * t) * g.rule(t - x0)
                        + g.derivative(t - x0))

    support = g.support_radius + abs(x0)
    return Window(rule=rule, derivative=derivative, support_radius=support,
                  freq_radius=_freq_radius_from(rule, support), label=f"{g.label}<<shift/chirp",
                  kind="modulated")


# ---------------------------------------------------------------------------
# Sampled windows
# ---------------------------------------------------------------------------

def window_from_samples(samples: np.ndarray, dt: float, label: str = "samples") -> Window:
    """Window from dense samples on a uniform grid centered at 0.

    Requires dt <= 1/64.  The derivative is taken spectrally on the
    zero-padded periodized grid (finite differences are too noisy for the
    gradient-energy constant), and both value and derivative are exposed
    through cubic splines for off-grid evaluation.
    """
    samples = np.asarray(samples, dtype=complex)
    if samples.ndim != 1 or samples.size < 32:
        raise InvalidWindowError("need a 1-d array of at least 32 samples")
    if dt > 1.0 / 64.0 + 1e-15:
        raise InvalidWindowError(f"sample spacing dt = {dt} too coarse, need dt <= 1/64")
    n = samples.size
    t = (np.arange(n) - (n - 1) / 2.0) * dt
    norm = math.sqrt(float(np.sum(np.abs(samples) ** 2) * dt))
    if norm == 0.0:
        raise InvalidWindowError("samples are identically zero")
    samples = samples / norm

    npad = 1 << int(math.ceil(math.log2(4 * n)))
    padded = np.zeros(npad, dtype=complex)
    padded[:n] = samples
    freqs = np.fft.fftfreq(npad, d=dt)
    dsamples = np.fft.ifft(np.fft.fft(padded) * (2j * math.pi * freqs))[:n]

    # imported here: scipy.interpolate is most of a fresh process's import
    # time, and only sampled windows use it
    from scipy.interpolate import CubicSpline

    sp_re = CubicSpline(t, samples.real, bc_type="natural")
    sp_im = CubicSpline(t, samples.imag, bc_type="natural")
    dsp_re = CubicSpline(t, dsamples.real, bc_type="natural")
    dsp_im = CubicSpline(t, dsamples.imag, bc_type="natural")
    t_lo, t_hi = float(t[0]), float(t[-1])

    def rule(tt):
        tt = np.asarray(tt, dtype=float)
        inside = (tt >= t_lo) & (tt <= t_hi)
        tc = np.clip(tt, t_lo, t_hi)
        return np.where(inside, sp_re(tc) + 1j * sp_im(tc), 0.0 + 0.0j)

    def derivative(tt):
        tt = np.asarray(tt, dtype=float)
        inside = (tt >= t_lo) & (tt <= t_hi)
        tc = np.clip(tt, t_lo, t_hi)
        return np.where(inside, dsp_re(tc) + 1j * dsp_im(tc), 0.0 + 0.0j)

    support = _support_radius_from(rule, scan=max(abs(t_lo), abs(t_hi)))
    w = Window(rule=rule, derivative=derivative, support_radius=support,
               freq_radius=_freq_radius_from(rule, support), label=label, kind="samples")
    object.__setattr__(w, "_grid", (t, samples, dsamples, dt))
    return w


# ---------------------------------------------------------------------------
# Moment constants and intensities
# ---------------------------------------------------------------------------

def window_norm(g: Window) -> float:
    t0, t1 = -g.support_radius, g.support_radius
    return math.sqrt(adaptive_quad(lambda t: np.abs(g.rule(t)) ** 2, t0, t1, tol=1e-12))


def decay_tails(g: Window) -> tuple[float, float]:
    """Quadrature tails of t^2 |g|^2 and |g'|^2 beyond the support radius."""
    a, b = g.support_radius, g.support_radius + 8.0

    def rows(t):
        return (t * t * (np.abs(g.rule(t)) ** 2 + np.abs(g.rule(-t)) ** 2),
                np.abs(g.derivative(t)) ** 2 + np.abs(g.derivative(-t)) ** 2)

    t2, d2 = adaptive_quad(rows, a, b, tol=1e-14)
    return float(t2), float(d2)


def uncertainty_constants(g: Window) -> UncertaintyConstants:
    """The five moment quadratures of a window, each to 1e-9 absolute.

    Analytic windows use one doubling Gauss-Legendre quadrature on [-T, T]
    whose six rows (c1, c2, c3, both parts of int g conj(g'), and c5) share
    their nodes, so g and g' are sampled once per node and each row still
    stops at its own doubling.  Sampled windows use trapezoid sums on their
    own grid with the spectral derivative (exponentially accurate for smooth
    decaying samples).
    """
    grid = getattr(g, "_grid", None)
    if grid is not None:
        t, samples, dsamples, dt = grid
        dens = np.abs(samples) ** 2
        gg = samples * np.conj(dsamples)
        c1 = float(np.sum(t * dens) * dt)
        c2 = float(np.sum(t * t * dens) * dt)
        c3 = float(np.sum(np.abs(dsamples) ** 2) * dt)
        cross = complex(np.sum(gg) * dt)
        c5 = float(np.sum(t * gg).imag * dt)
    else:
        def rows(t):
            val, der = g.rule(t), g.derivative(t)
            dens = np.abs(val) ** 2
            gg = val * np.conj(der)
            return (t * dens, t * t * dens, np.abs(der) ** 2,
                    gg.real, gg.imag, (t * val * np.conj(der)).imag)

        c1, c2, c3, cross_re, cross_im, c5 = (
            float(v) for v in adaptive_quad(rows, -g.support_radius, g.support_radius))
        cross = complex(cross_re, cross_im)
    if abs(cross.real) > 1e-7:
        raise InvalidWindowError(
            f"int g conj(g') has real part {cross.real:.3g}; window decays too slowly")
    return UncertaintyConstants(c1=c1, c2=c2, c3=c3, c4=cross.imag, c5=c5)


def _discriminant(c: UncertaintyConstants, convention: str) -> float:
    sgn = _check_convention(convention)
    return ((c.c2 - c.c1 ** 2) * c.c3 - c.c2 * c.c4 ** 2 - c.c5 ** 2
            + sgn * 2.0 * c.c1 * c.c4 * c.c5)


def rho1_stft_from_constants(c: UncertaintyConstants,
                             convention: str = DEFAULT_CONVENTION) -> float:
    s = _discriminant(c, convention)
    if s <= 0.0:
        raise InvalidWindowError(f"non-positive discriminant {s!r} for constants {c.as_tuple()}")
    return (4.0 * s + 1.0) / (4.0 * math.sqrt(s))


def rho1_stft(g: Window, convention: str = DEFAULT_CONVENTION) -> float:
    """Expected spectrogram zeros of white noise per unit area, window g."""
    return rho1_stft_from_constants(uncertainty_constants(g), convention)


def jet_from_constants(c: UncertaintyConstants) -> KernelJet:
    """Kernel jet of the twisted field associated with the window."""
    sp = math.sqrt(math.pi)
    return KernelJet(b10=-c.c4 / sp, b01=2.0 * sp * c.c1,
                     h20=-c.c3 / math.pi, h02=-4.0 * math.pi * c.c2,
                     h11=2.0 * c.c5)


def rho1_stft_via_jet(g: Window, convention: str = DEFAULT_CONVENTION) -> float:
    """Second route: pi * rho1(jet).  Must agree with the closed formula."""
    return math.pi * rho1(jet_from_constants(uncertainty_constants(g)), convention)


# ---------------------------------------------------------------------------
# Window -> twisted kernel bridge
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AmbiguityKernel:
    """Twisted kernel of a window field, evaluated by quadrature of the
    window's self-correlation."""
    window: Window

    def evaluate(self, z: complex) -> complex:
        g = self.window
        x, y = z.real, z.imag
        u, v = x / math.sqrt(math.pi), -y / math.sqrt(math.pi)
        lo = max(-g.support_radius, u - g.support_radius)
        hi = min(g.support_radius, u + g.support_radius)
        if hi <= lo:
            return 0.0j

        def rows(t):
            vals = g.rule(t) * np.conj(g.rule(t - u)) * np.exp(-2j * math.pi * t * v)
            return vals.real, vals.imag

        npanels = max(8, int(4 * abs(v) * (hi - lo)) + 8)
        amb = complex(*adaptive_quad(rows, lo, hi, tol=1e-11, initial_panels=npanels))
        return complex(np.exp(-1j * x * y)) * amb

    def grid(self, zs: np.ndarray) -> np.ndarray:
        return np.array([self.evaluate(complex(z)) for z in np.ravel(zs)]).reshape(np.shape(zs))


def ambiguity_kernel(g: Window) -> RadialKernel | AmbiguityKernel:
    """Twisted kernel of the field produced by window g.

    Hermite windows have the exact radial form L_r(|z|^2) exp(-|z|^2 / 2);
    anything else gets a quadrature evaluator.
    """
    if g.kind == "hermite":
        return laguerre_kernel(g.order)
    return AmbiguityKernel(window=g)


def invariance_check(g: Window, x0: float, xi0: float, xi1: float,
                     convention: str = DEFAULT_CONVENTION) -> tuple[float, float]:
    """Intensity before and after a time shift plus linear/quadratic chirp.

    The zero-set intensity is invariant under these transformations, so the
    two numbers must agree (within 1e-7) whenever the convention is the
    correct one.
    """
    before = rho1_stft(g, convention)
    after = rho1_stft(modulate(g, x0, xi0, xi1), convention)
    return before, after


# ---------------------------------------------------------------------------
# Window specification: JSON record or "name:args" text
# ---------------------------------------------------------------------------

def _window_record(name: str, args: str) -> dict:
    if name == "hermite":
        return {"family": name, "r": int(args or 0)}
    if name in ("gaussian", "generalized-gaussian"):
        return {"family": "generalized-gaussian",
                "params": [float(v) for v in args.split(";")] if args else [1.0]}
    if name == "hermite-mixture":
        return {"family": name, "coeffs": [[c.real, c.imag] for c in map(complex, args.split(";"))]}
    return {"family": name}


def _build_window(spec: dict) -> Window:
    family = spec.get("family")
    if family == "hermite":
        return hermite(int(spec.get("r", 0)))
    if family == "generalized-gaussian":
        params = spec.get("params", [1.0])
        return generalized_gaussian(*(float(v) for v in params))
    if family == "hermite-mixture":
        raw = spec.get("coeffs")
        if not raw:
            raise InvalidWindowError("hermite-mixture needs coeffs")
        coeffs = [complex(v[0], v[1]) if isinstance(v, (list, tuple)) else complex(v)
                  for v in raw]
        return hermite_mixture(coeffs)
    if family == "samples":
        path = spec.get("samples_path")
        dt = spec.get("dt")
        if path is None or dt is None:
            raise InvalidWindowError("samples family needs samples_path and dt")
        return window_from_samples(np.load(path), float(dt), label=f"samples:{path}")
    raise InvalidWindowError(f"unknown window family {family!r}")


def window_from_spec(spec: dict | str) -> Window:
    """Build a window from the JSON record {"family", "r", "params",
    "coeffs", "samples_path", "dt"}, from "@file.json", or from the text
    hermite:R, gaussian:sigma;phase;x0;xi0;xi1 (an alias of
    generalized-gaussian) or hermite-mixture:c0;c1;..."""
    return build_from_spec(spec, "window", InvalidWindowError, _window_record, _build_window)
