"""Field realizations on rectangular grids.

FieldSource turns a source spec into plans, an output plane, an interior
and theory values; it is the one way to realize a field, for the CLI, the
Monte Carlo harness and one-shot callers alike.
Two independent simulators: StftPlan pairs discretized complex white noise
with translated/modulated copies of any window, columnwise by FFT over the
noise record; SeriesPlan sums a truncated random entire series with
Gaussian weight, a cross-check for the flat kernel, for a whole batch of
realizations at once as one matrix product per chunk of the grid.

Coordinate conventions: grids in the "stft" plane sample the spectrogram
coordinates (x = time shift, y = frequency); grids in the "gwhf" plane
sample the invariant field F(z) = exp(-i x y) V(conj(z)/sqrt(pi)).  Zero
sets correspond under z <-> sqrt(pi) conj(z) and densities differ by a
factor pi.

Every realization is a pure function of its counter-based stream, derived
from (seed, realization, component); parallel and serial runs produce
bit-identical grids.
"""
from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (AliasBandError, ContainerError, DomainError,
                     InvalidKernelError, InvalidWindowError, ParameterError,
                     PlaneError)
from .kernels import (DEFAULT_CONVENTION, gef_kernel, laguerre_avg_kernel,
                      laguerre_kernel, rho1_radial)
from .windows import Window, hermite, rho1_stft, window_from_spec

__all__ = [
    "FieldGrid", "stream", "complex_normals",
    "StftPlan", "SeriesPlan", "FieldSource", "to_gwhf_plane",
    "series_terms_required",
    "save_grid", "load_grid", "grid_to_csv",
]

_MAGIC = b"GWHF1\n"


def stream(seed: int, realization: int = 0, component: int = 0) -> np.random.Generator:
    """Counter-based generator for one (realization, component) pair."""
    if seed < 0:
        raise ParameterError(f"seed {seed} must be a non-negative integer")
    ss = np.random.SeedSequence(seed, spawn_key=(realization, component))
    return np.random.Generator(np.random.Philox(ss))


def complex_normals(rng: np.random.Generator, n: int) -> np.ndarray:
    """i.i.d. standard circularly symmetric complex Gaussians (unit variance).

    At pairing time each sample stands for the noise integrated over one
    dt cell, and the sqrt(dt) factor is applied inside the pairing sum, so
    E|V|^2 = ||g||^2 holds exactly in the dt -> 0 limit.
    """
    z = rng.standard_normal(2 * n)
    return (z[:n] + 1j * z[n:]) * math.sqrt(0.5)


@dataclass(frozen=True)
class FieldGrid:
    """Complex field samples on a rectangular lattice.

    values[j, i] sits at origin + (i + 1j*j) * spacing.  `margin` is the
    boundary band excluded from statistics; `meta["interior"]` records the
    requested statistics region (the simulators inflate the simulated
    domain so that region is fully interior).
    """
    values: np.ndarray
    origin: complex
    spacing: float
    plane: str
    seed: int
    margin: float = 0.0
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if v.ndim != 2 or v.shape[0] < 16 or v.shape[1] < 16:
            raise ParameterError(f"values must be a 2-d complex array, at least "
                                 f"16 x 16, got shape {v.shape}")
        if not self.spacing > 0:
            raise ParameterError(f"grid spacing {self.spacing} must be positive")
        if self.plane not in ("stft", "gwhf"):
            raise PlaneError(f"unknown plane {self.plane!r}")
        object.__setattr__(self, "values", v)

    @property
    def ny(self) -> int:
        return self.values.shape[0]

    @property
    def nx(self) -> int:
        return self.values.shape[1]

    @property
    def xs(self) -> np.ndarray:
        return self.origin.real + self.spacing * np.arange(self.nx)

    @property
    def ys(self) -> np.ndarray:
        return self.origin.imag + self.spacing * np.arange(self.ny)

    @property
    def extent(self) -> tuple[float, float, float, float]:
        return (self.origin.real, self.origin.real + self.spacing * (self.nx - 1),
                self.origin.imag, self.origin.imag + self.spacing * (self.ny - 1))

    @property
    def interior(self) -> tuple[float, float, float, float]:
        inner = self.meta.get("interior")
        if inner is not None:
            return tuple(inner)
        x0, x1, y0, y1 = self.extent
        m = self.margin
        return (x0 + m, x1 - m, y0 + m, y1 - m)


def _check_domain(domain) -> tuple[float, float, float, float]:
    """The rectangle (x0, x1, y0, y1) as floats; DomainError unless it is
    finite with x1 > x0 and y1 > y0."""
    x0, x1, y0, y1 = box = tuple(float(v) for v in domain)
    if not (all(map(math.isfinite, box)) and x1 > x0 and y1 > y0):
        raise DomainError(f"domain {domain} must be a finite rectangle with x1 > x0 and y1 > y0")
    return box


def _check_grid_size(nx: int, ny: int, spacing: float, domain, margin: float,
                     plane: str = "stft") -> None:
    """Refuse a grid below 16 x 16, naming spacing, domain and margin in the
    output plane (a gwhf-plane StftPlan gets them in the stft plane)."""
    if nx < 16 or ny < 16:
        if plane == "gwhf":
            spacing, domain, margin = _SQRT_PI * spacing, _gwhf_box(domain), _SQRT_PI * margin
        box = ", ".join(f"{v:.6g}" for v in domain)
        raise ParameterError(f"spacing {spacing:.6g} gives a {nx} x {ny} grid on domain "
                             f"({box}) with margin {margin:.4g}; a grid needs at least "
                             "16 x 16 points")


# ---------------------------------------------------------------------------
# Windowed transform of white noise
# ---------------------------------------------------------------------------

def _fft_frame(n: int) -> int:
    """Smallest 7-smooth length (2^a 3^b 5^c 7^d) at or above n.  pocketfft
    runs such lengths on its fast path; a large prime factor (1418 = 2 * 709)
    makes the same transform several times slower."""
    m = max(int(n), 1)
    while True:
        k = m
        for p in (2, 3, 5, 7):
            while k % p == 0:
                k //= p
        if k == 1:
            return m
        m += 1


def _outer_phase(y0: float, dy: float, n: int, rate: np.ndarray) -> np.ndarray:
    """exp(i y_j rate_i) for y_j = y0 + j dy, j < n, as an (n, len(rate)) array.
    Row j = a b + c is the product of a coarse row exp(i y_{ab} rate) and a
    fine row exp(i c dy rate): two small tables of exponentials and one
    broadcast product, instead of a complex exponential per entry."""
    b = max(1, math.isqrt(n))
    a = -(-n // b)
    coarse = np.exp(1j * (y0 + dy * b * np.arange(a))[:, None] * rate)
    fine = np.exp(1j * (dy * np.arange(b))[:, None] * rate)
    return (coarse[:, None, :] * fine[None, :, :]).reshape(a * b, -1)[:n]


# bytes of FFT frame per block of grid columns; small blocks keep a
# realization's temporaries small, and MC worker threads re-fault whole-grid
# frames of several MB on every realization
_FRAME_BLOCK_BYTES = 1 << 20


class StftPlan:
    """Reusable precomputation for repeated realizations of one configuration.

    `window` is one Window or a sequence of q windows.  All windows share one
    noise time grid t_k = t0 + k dt, k < K, with t0 = x_lo - (widest support
    radius); component k of a realization is its own white-noise record on
    that grid, and the plan realizes the normalized sum (V_1 + ... + V_q)/sqrt(q).

    The plan is banded: every window is below 1e-12 beyond its support_radius
    (Window's contract), so column x_i pairs only with the W = floor(2T/dt) + 2
    samples (at most K) from its first one k_i with t_k >= x_i - T, T the
    widest radius; the products with the rest of the record are never
    formed.  The window factors conj(g(t_{k_i + w} - x_i)) do not depend on
    the noise and are built once, (nx, W) per window.  A realization takes
    each record's band of every column, multiplies it into its factors and
    sums the components (a band longer than n_fft is folded onto the FFT
    period); then an FFT, a row gather and the (ny, nx) output phase make
    the grid, one block of columns with about 1 MB of frame at a time.
    Band i starts at tau_i = t0 + k_i dt, so the output phase, built once
    per plan, is exp(-2 pi i y_j tau_i) sqrt(dt/q).

    n_fft is the smallest 7-smooth length at or above 1/(spacing dt), so the
    spacing is rounded down to 1/(n_fft dt), never up.  domain, spacing and
    margin are stft-plane values; plane="gwhf" returns grids already mapped
    to the invariant plane, as to_gwhf_plane maps them, with the mapping's
    phase folded into the output phase once per plan.
    """

    def __init__(self, window: Window | Sequence[Window],
                 domain: tuple[float, float, float, float],
                 spacing: float, dt: float, margin: float | None = None,
                 plane: str = "stft"):
        windows = (window,) if isinstance(window, Window) else tuple(window)
        if not windows:
            raise InvalidWindowError("StftPlan needs at least one window")
        if plane not in ("stft", "gwhf"):
            raise PlaneError(f"unknown plane {plane!r}")
        x0, x1, y0, y1 = _check_domain(domain)
        if not spacing > 0:
            raise ParameterError(f"spacing {spacing} must be positive")
        if not dt > 0:
            raise ParameterError(f"dt {dt} must be positive")
        freq = max(w.freq_radius for w in windows)
        T = max(w.support_radius for w in windows)
        if dt > 1.0 / (8.0 * freq):
            raise AliasBandError(
                f"dt = {dt} too coarse for window frequency extent "
                f"{freq:.2f}; need dt <= {1.0 / (8.0 * freq):.4g}")
        if margin is None:
            margin = 2.0 * max(T, freq)
        self.windows = windows
        self.plane = plane
        self.dt = float(dt)
        self.margin = float(margin)
        self.requested = (x0, x1, y0, y1)

        n_fft = _fft_frame(math.ceil(1.0 / (spacing * dt) - 1e-9))
        if n_fft < 8:
            raise ParameterError(f"spacing {spacing} and dt {dt} give FFT frame {n_fft} < 8")
        self.n_fft = n_fft
        self._block = max(1, _FRAME_BLOCK_BYTES // (16 * n_fft))
        s = 1.0 / (n_fft * dt)
        self.spacing = s

        xlo, xhi = x0 - margin, x1 + margin
        ylo, yhi = y0 - margin, y1 + margin
        band = 0.5 / dt
        if max(abs(ylo), abs(yhi)) + freq > band:
            raise AliasBandError(
                f"frequency range [{ylo:.2f}, {yhi:.2f}] plus window extent "
                f"{freq:.2f} exceeds the alias-free band {band:.2f}")

        self.nx = int(math.floor((xhi - xlo) / s + 1e-9)) + 1
        self.x0 = xlo
        jlo = int(math.ceil(ylo / s - 1e-9))
        self.ny = int(math.floor((yhi - jlo * s) / s + 1e-9)) + 1
        self.jlo = jlo
        self.y0 = jlo * s
        _check_grid_size(self.nx, self.ny, spacing, domain, margin, plane)

        t0 = xlo - T
        K = int(math.ceil((xhi + T - t0) / dt)) + 1
        self.t0 = t0
        self.K = K

        # column i pairs with the W samples from its first one at or after
        # x_i - T; the last band is pulled back to end inside the record
        W = min(int(math.floor(2.0 * T / dt)) + 2, K)
        xs = self.x0 + s * np.arange(self.nx)
        starts = np.ceil((xs - T - t0) / dt - 1e-9).astype(np.int64)
        starts = np.clip(starts, 0, K - W)
        self.W = W
        self.starts = starts
        tk = t0 + dt * np.arange(K)
        offsets = tk[starts[:, None] + np.arange(W)] - xs[:, None]
        self.window_factors = tuple(np.conj(w.rule(offsets)) for w in windows)  # (nx, W) each

        # band i starts at tau_i = t0 + k_i dt: V(x_i, y_j) is its FFT times
        # exp(-2 pi i y_j tau_i); the gwhf plane adds exp(i pi y_j x_i)
        js = jlo + np.arange(self.ny)
        freq_rows = np.mod(js, n_fft)
        col_rate = -2.0 * math.pi * (t0 + dt * starts)
        if plane == "gwhf":
            col_rate += math.pi * xs
        phase = _outer_phase(self.y0, s, self.ny, col_rate) * math.sqrt(dt / len(windows))
        if plane == "stft":
            self._rows, self._phase = freq_rows, phase
        else:  # rows flipped so y increases in the invariant plane
            self._rows, self._phase = freq_rows[::-1], phase[::-1].copy()

    def realize(self, rng: np.random.Generator | Sequence[np.random.Generator],
                seed_label: int = 0) -> FieldGrid:
        """One grid; `rng` holds one generator per window (a single-window
        plan also takes a bare generator), each drawing K noise samples."""
        rngs = [rng] if isinstance(rng, np.random.Generator) else list(rng)
        if len(rngs) != len(self.windows):
            raise ParameterError(f"{len(rngs)} generators for {len(self.windows)} windows")
        N, W = self.n_fft, self.W
        records = [sliding_window_view(complex_normals(gen, self.K), W) for gen in rngs]
        vals = np.empty((self.ny, self.nx), dtype=complex)
        for lo in range(0, self.nx, self._block):
            cols = slice(lo, lo + self._block)
            bands = None
            for record, factors in zip(records, self.window_factors):
                band = record[self.starts[cols]]
                band *= factors[cols]
                if bands is None:
                    bands = band
                else:
                    bands += band
            # a band longer than the frame folds onto the FFT period
            for f0 in range(N, W, N):
                f1 = min(f0 + N, W)
                bands[:, :f1 - f0] += bands[:, f0:f1]
            spec = np.fft.fft(bands[:, :N], n=N, axis=1)
            np.multiply(spec[:, self._rows].T, self._phase[:, cols], out=vals[:, cols])
        meta = {
            "interior": self.requested,
            "window": self.windows[0].label,
            "dt": self.dt,
            "requested_spacing_rounded_to": self.spacing,
        }
        if len(self.windows) > 1:
            meta["components"] = len(self.windows)
        if self.plane == "stft":
            return FieldGrid(values=vals, origin=complex(self.x0, self.y0),
                             spacing=self.spacing, plane="stft", seed=seed_label,
                             margin=self.margin, meta=meta)
        y1 = self.y0 + self.spacing * (self.ny - 1)
        meta.update(interior=_gwhf_box(self.requested), mapped_from="stft")
        return FieldGrid(values=vals, origin=complex(_SQRT_PI * self.x0, -_SQRT_PI * y1),
                         spacing=_SQRT_PI * self.spacing, plane="gwhf", seed=seed_label,
                         margin=_SQRT_PI * self.margin, meta=meta)


_SQRT_PI = math.sqrt(math.pi)


def _gwhf_box(box: tuple[float, float, float, float], inverse: bool = False
              ) -> tuple[float, float, float, float]:
    """stft-plane rectangle -> gwhf-plane rectangle under z = sqrt(pi) conj(u + i v),
    or back with `inverse`."""
    x0, x1, y0, y1 = (float(v) for v in box)
    if inverse:
        return (x0 / _SQRT_PI, x1 / _SQRT_PI, -y1 / _SQRT_PI, -y0 / _SQRT_PI)
    return (_SQRT_PI * x0, _SQRT_PI * x1, -_SQRT_PI * y1, -_SQRT_PI * y0)


def to_gwhf_plane(grid: FieldGrid) -> FieldGrid:
    """Re-index a spectrogram-plane grid to the invariant plane.

    F(z) = exp(-i x y) V(conj(z)/sqrt(pi)): positions map by
    z = sqrt(pi) (u - i v), a unimodular phase multiplies the samples, and
    the row order flips so y still increases.  Densities scale by pi.
    """
    if grid.plane != "stft":
        raise PlaneError("grid is not in the stft plane (double application?)")
    us = grid.xs
    vs = grid.ys
    vals = (np.exp(1j * math.pi * vs[:, None] * us[None, :]) * grid.values)[::-1, :]
    origin = complex(_SQRT_PI * us[0], -_SQRT_PI * vs[-1])
    meta = dict(grid.meta, interior=_gwhf_box(grid.interior), mapped_from="stft")
    return FieldGrid(values=vals, origin=origin,
                     spacing=_SQRT_PI * grid.spacing, plane="gwhf", seed=grid.seed,
                     margin=_SQRT_PI * grid.margin, meta=meta)


# ---------------------------------------------------------------------------
# Entire-series simulator
# ---------------------------------------------------------------------------

def series_terms_required(r_max: float) -> int:
    """Truncation rule: tail of sum |z|^{2n}/n! below 1e-10 at the farthest point."""
    return int(math.ceil(math.e * r_max ** 2 + 10.0 * r_max)) + 1


# grid points per basis chunk: the (n_terms x chunk) basis is 1.4 MB at 351 terms
_CHUNK = 256
# largest series grid radius: rho^2 / 2 below 700 keeps the coefficient
# scale, which peaks near exp(rho^2/2), and exp(-rho^2/2) in float64 range
_MAX_RADIUS = math.sqrt(1400.0)


class SeriesPlan:
    """Grid, coefficient count and coefficient scale for the entire-series field.

    The field exp(-|z|^2/2) sum_n xi_n z^n / sqrt(n!) is split as
    sum_n (xi_n c_n) u_n(z), with the per-plan scale c_n = rho^n / sqrt(n!)
    (rho the grid radius, the largest |z|) and the basis
    u_n(z) = exp(-|z|^2/2) (z/rho)^n.  Every basis entry is at most 1 in
    modulus.  The basis of a chunk of at most _CHUNK grid points is filled
    by doubling, u[s:2s] = u[:s] (z/rho)^s, in about log2(n_terms) array
    products instead of a chain over n.  A batch of B realizations is one
    (B x N) @ (N x chunk) product per chunk; BLAS computes each row of it the
    same way for any B, so a grid does not depend on the batch it is drawn
    in.  The scale peaks near exp(rho^2/2), so the grid radius is limited to
    _MAX_RADIUS, where it and exp(-rho^2/2) stay normal float64 numbers.
    """

    def __init__(self, domain: tuple[float, float, float, float], spacing: float,
                 n_terms: int | None = None, margin: float | None = None):
        x0, x1, y0, y1 = _check_domain(domain)
        if not spacing > 0:
            raise ParameterError(f"spacing {spacing} must be positive")
        if margin is None:
            margin = 4.0 * spacing
        self.margin = float(margin)
        self.requested = (x0, x1, y0, y1)
        self.spacing = float(spacing)
        xlo, ylo = x0 - margin, y0 - margin
        nx = int(math.floor((x1 + margin - xlo) / spacing + 1e-9)) + 1
        ny = int(math.floor((y1 + margin - ylo) / spacing + 1e-9)) + 1
        _check_grid_size(nx, ny, spacing, domain, margin)
        xs = xlo + spacing * np.arange(nx)
        ys = ylo + spacing * np.arange(ny)
        self.z = xs[None, :] + 1j * ys[:, None]
        self.origin = complex(xlo, ylo)
        r_max = float(np.max(np.abs(self.z)))
        if r_max > _MAX_RADIUS:
            raise ParameterError(f"grid radius {r_max:.2f} exceeds the series limit "
                                 f"{_MAX_RADIUS:.2f} (domain {self.requested}, margin "
                                 f"{self.margin:.4g}): beyond it float64 over- or underflows")
        needed = series_terms_required(r_max)
        if n_terms is None:
            n_terms = needed
        elif n_terms < needed:
            raise ParameterError(f"n_terms = {n_terms} below the truncation rule ({needed}) "
                             f"for grid radius {r_max:.2f}")
        self.n_terms = int(n_terms)
        self.rho = r_max
        # rho^n / sqrt(n!) as a running product: exp(n log rho - lgamma(n+1)/2)
        # is about 300 times less accurate at 351 terms
        self.scale = np.cumprod(np.r_[1.0, r_max / np.sqrt(np.arange(1.0, self.n_terms))])

    def realize_batch(self, rngs: Iterable[np.random.Generator],
                      seed_label: int = 0) -> list[FieldGrid]:
        """One grid per generator, each drawing its n_terms coefficients from it."""
        xi = np.stack([complex_normals(rng, self.n_terms) for rng in rngs]) * self.scale
        count = len(xi)
        if count == 1:
            # numpy hands a one-row product to gemv, which rounds differently
            # from gemm; a zero row keeps the row on the gemm path
            xi = np.vstack([xi, np.zeros_like(xi)])
        z = self.z.ravel()
        out = np.empty((len(xi), z.size), dtype=complex)
        basis = np.empty((self.n_terms, _CHUNK), dtype=complex)
        for lo in range(0, z.size, _CHUNK):
            zc = z[lo:lo + _CHUNK]
            u = basis[:, :zc.size]
            u[0] = np.exp(-0.5 * np.abs(zc) ** 2)
            w, s = zc / self.rho, 1
            while s < self.n_terms:
                # u[s:2s] = u[:s] (z/rho)^s, then w = (z/rho)^(2s)
                np.multiply(u[:min(s, self.n_terms - s)], w, out=u[s:2 * s])
                w, s = w * w, 2 * s
            np.matmul(xi, u, out=out[:, lo:lo + zc.size])
        meta = {"interior": self.requested, "simulator": "series",
                "n_terms": self.n_terms}
        return [FieldGrid(values=v.reshape(self.z.shape), origin=self.origin,
                          spacing=self.spacing, plane="gwhf", seed=seed_label,
                          margin=self.margin, meta=dict(meta))
                for v in out[:count]]

    def realize(self, rng: np.random.Generator, seed_label: int = 0) -> FieldGrid:
        return self.realize_batch([rng], seed_label)[0]


# ---------------------------------------------------------------------------
# Field sources: spec -> plans, plane, interior and theory values
# ---------------------------------------------------------------------------

class FieldSource:
    """One field family on one grid, built once and realized many times.

    Spec families:
      {"family": "window", "window": <Window | window spec>, "plane": "stft"|"gwhf"}
      {"family": "series-gef", "n_terms": int | None}
      {"family": "polyentire", "q": 1..8, "kind": "pure"|"full"}
        (pure: the window h_{q-1}; full: h_0..h_{q-1}, a normalized sum)

    domain, spacing, margin and the theory values (kernel, None with a note
    for a window without one; density(convention); charge_density) refer to
    the output plane.  A window or polyentire source holds one StftPlan over
    all its windows (their bands summed before the FFT), built on the
    stft-plane preimage of a gwhf-plane domain and mapping its grids over
    itself; a series source holds one SeriesPlan.
    """

    def __init__(self, spec: dict, domain: tuple[float, float, float, float],
                 spacing: float, dt: float | None = None, margin: float | None = None):
        family = spec.get("family")
        self.plane = spec.get("plane", "stft") if family == "window" else "gwhf"
        if self.plane not in ("stft", "gwhf"):
            raise PlaneError(f"unknown plane {self.plane!r}")
        self.charge_density = 1.0 / math.pi if self.plane == "gwhf" else 1.0
        self.window, self.notes = None, []
        if family == "series-gef":
            self.kernel = gef_kernel()
            self.plan = SeriesPlan(domain, spacing, spec.get("n_terms"), margin)
            self.interior = self.plan.requested
            return
        if family == "window":
            win = spec.get("window")
            self.window = win if isinstance(win, Window) else window_from_spec(win)
            windows = [self.window]
            self.kernel = (laguerre_kernel(self.window.order)
                           if self.window.kind == "hermite" else None)
            if self.kernel is None:
                self.notes.append("no radial kernel for this window; "
                                  "variance theory unavailable")
        elif family == "polyentire":
            q, kind = spec.get("q"), spec.get("kind", "pure")
            if not (isinstance(q, (int, np.integer)) and 1 <= q <= 8
                    and kind in ("pure", "full")):
                raise InvalidKernelError(f"polyentire needs q in [1, 8] and kind "
                                         f"'pure' or 'full', got q={q!r}, kind={kind!r}")
            pure = kind == "pure"
            windows = [hermite(q - 1)] if pure else [hermite(k) for k in range(q)]
            self.kernel = laguerre_kernel(q - 1) if pure else laguerre_avg_kernel(q)
        else:
            raise InvalidKernelError(f"unknown source family {family!r}")
        if self.plane == "gwhf":
            if not spacing > 0:
                raise ParameterError(f"spacing {spacing} must be positive")
            # checked here, so an error names the gwhf-plane rectangle given
            domain, spacing = _gwhf_box(_check_domain(domain), inverse=True), spacing / _SQRT_PI
            margin = None if margin is None else margin / _SQRT_PI
        dt = 1.0 / 64.0 if dt is None else dt
        self.plan = StftPlan(windows, domain, spacing, dt, margin, self.plane)
        box = self.plan.requested
        self.interior = _gwhf_box(box) if self.plane == "gwhf" else box

    def density(self, convention: str = DEFAULT_CONVENTION) -> float:
        """Expected zeros per unit area of the output plane."""
        if self.window is None:
            return rho1_radial(self.kernel)
        rho = rho1_stft(self.window, convention)
        return rho / math.pi if self.plane == "gwhf" else rho

    def realize_batch(self, seed: int, rs: Iterable[int]) -> Iterator[FieldGrid]:
        """Realizations rs, in order, in the source's plane; component k of
        realization r draws from stream(seed, r, k).  A series source draws
        the whole batch in one product; window sources make each grid only
        when it is asked for, and the iterator holds no grid it has handed
        out."""
        if isinstance(self.plan, SeriesPlan):
            return iter(self.plan.realize_batch([stream(seed, r, 0) for r in rs], seed))
        q = len(self.plan.windows)
        return (self.plan.realize([stream(seed, r, k) for k in range(q)], seed) for r in rs)

    def realize(self, seed: int, r: int = 0) -> FieldGrid:
        """Realization r in the source's plane."""
        return next(self.realize_batch(seed, [r]))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def save_grid(grid: FieldGrid, path: str) -> None:
    """Binary container: magic, length-prefixed JSON header, then row-major
    complex64 pairs, little-endian."""
    header = {
        "plane": grid.plane,
        "origin": [grid.origin.real, grid.origin.imag],
        "spacing": grid.spacing,
        "nx": grid.nx,
        "ny": grid.ny,
        "seed": int(grid.seed),
        "margin": grid.margin,
        "meta": _jsonable(grid.meta),
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    data = np.ascontiguousarray(grid.values.astype("<c8"))
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        fh.write(data.tobytes())


def load_grid(path: str) -> FieldGrid:
    """Read a container written by save_grid.  A file that is not one, has
    a header key missing, whose payload is not exactly nx*ny*8 bytes, or
    that holds a non-finite sample raises ContainerError."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
        if not blob.startswith(_MAGIC):
            raise ValueError("no container magic")
        start = len(_MAGIC) + 8
        (hlen,) = struct.unpack_from("<Q", blob, len(_MAGIC))
        header = json.loads(blob[start:start + hlen])
        nx, ny = int(header["nx"]), int(header["ny"])
        payload = blob[start + hlen:]
        if len(payload) != nx * ny * 8:
            raise ValueError(f"payload is {len(payload)} bytes, the header's "
                             f"{nx} x {ny} grid needs {nx * ny * 8}")
        vals = np.frombuffer(payload, dtype="<c8").reshape(ny, nx).astype(complex)
        if not np.isfinite(vals).all():
            raise ValueError(f"{np.count_nonzero(~np.isfinite(vals))} non-finite samples")
        meta = dict(header.get("meta", {}))
        if isinstance(meta.get("interior"), list):
            meta["interior"] = tuple(meta["interior"])
        return FieldGrid(values=vals, origin=complex(*header["origin"]),
                         spacing=header["spacing"], plane=header["plane"],
                         seed=header["seed"], margin=header.get("margin", 0.0),
                         meta=meta)
    except (KeyError, OSError, TypeError, ValueError, struct.error) as exc:
        raise ContainerError(f"{path} is not a valid grid container: "
                             f"{type(exc).__name__}: {exc}") from exc


def grid_to_csv(grid: FieldGrid, path: str) -> None:
    """Plain-text export, one row per sample: x,y,re,im."""
    xs, ys = grid.xs, grid.ys
    with open(path, "w") as fh:
        fh.write("x,y,re,im\n")
        for j in range(grid.ny):
            for i in range(grid.nx):
                v = grid.values[j, i]
                fh.write(f"{xs[i]:.9g},{ys[j]:.9g},{v.real:.9g},{v.imag:.9g}\n")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj
