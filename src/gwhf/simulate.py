"""Field realizations on rectangular grids.

FieldSource turns a source spec, checked by source_from_spec, into a
plan, an output plane, an interior and theory values; it is the one way to
realize a field, for the CLI, the Monte Carlo harness and callers alike.
Two independent simulators, whose plans share one block interface: a
block of realizations is drawn once, then read as grids, as samples on
the lattice rectangle in the interior, or on that rectangle's edges.
StftPlan pairs discretized complex white noise with translated/modulated
copies of any window, columnwise by FFT over the noise record, each
column reading only the window's time band of a record cut by one FFT to
the rows' frequency band and used at every D-th sample.  SeriesPlan sums
a truncated random entire series with Gaussian weight, a cross-check for
the flat kernel, as one matrix product per chunk of the grid.

Coordinate conventions: grids in the "stft" plane sample the spectrogram
coordinates (x = time shift, y = frequency); grids in the "gwhf" plane
sample the invariant field F(z) = exp(-i x y) V(conj(z)/sqrt(pi)).  Zero
sets correspond under z <-> sqrt(pi) conj(z) and densities differ by a
factor pi.

Every realization is a pure function of its counter-based stream, derived
from (seed, realization, component); parallel and serial runs produce
bit-identical grids.  A realization enters a plan only through
draw(seed, rs), a block of realizations, or realize(seed, r), one grid of
it: no caller hands a plan a generator, and every grid carries the seed
it was drawn from.
"""
from __future__ import annotations

import cmath
import json
import math
import struct
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (AliasBandError, ContainerError, DomainError,
                     InvalidKernelError, InvalidWindowError, ParameterError,
                     PlaneError)
from .kernels import (DEFAULT_CONVENTION, build_from_spec, gef_kernel, laguerre_avg_kernel,
                      laguerre_kernel, rho1_radial, variance_asymptote)
from .windows import Window, hermite, rho1_stft, window_from_spec

__all__ = [
    "FieldGrid", "LatticeRectangle", "stream", "complex_normals",
    "StftPlan", "SeriesPlan", "FieldSource", "source_from_spec",
    "series_terms_required",
    "save_grid", "load_grid",
]

_MAGIC = b"GWHF1\n"

# the fewest points a grid takes along either axis
_MIN_POINTS = 16
# default grid pad of both simulators, in cells beyond the requested domain:
# detect_zeros reads the stencils of cells within two cells of the interior,
# and those reach four cells past it
_PAD_CELLS = 4
# the most elements of any one array a plan or a realization allocates (the
# grid, the anchored phase table, the noise record, the decimation transform,
# the FFT frame, the edge-row operator): 256 MiB of complex samples
_MAX_ELEMENTS = 2 ** 24
# inner columns per tile of an StftPlan's row operator, and realizations per
# product with it: whether OpenBLAS threads a product, which changes its
# rounding, depends on its size, so every product has as many rows
_TILE, _GEMM_ROWS = 16, 4


def stream(seed: int, realization: int = 0, component: int = 0) -> np.random.Generator:
    """Counter-based generator for one (realization, component) pair."""
    if seed < 0:
        raise ParameterError(f"seed {seed} must be a non-negative integer")
    ss = np.random.SeedSequence(seed, spawn_key=(realization, component))
    return np.random.Generator(np.random.Philox(ss))


def complex_normals(rngs: Sequence[np.random.Generator], n: int) -> np.ndarray:
    """i.i.d. standard circularly symmetric complex Gaussians (unit variance):
    a (len(rngs), n) array, row b drawn from rngs[b] as it would be alone,
    every row from one buffer.

    At pairing time each sample stands for the noise integrated over one
    dt cell, and the sqrt(dt) factor is applied inside the pairing sum, so
    E|V|^2 = ||g||^2 holds exactly in the dt -> 0 limit.
    """
    z = np.empty((len(rngs), 2 * n))
    for row, gen in zip(z, rngs):
        gen.standard_normal(out=row)
    out = np.empty((len(rngs), n), dtype=complex)
    np.multiply(z[:, :n], math.sqrt(0.5), out=out.real)
    np.multiply(z[:, n:], math.sqrt(0.5), out=out.imag)
    return out


@dataclass(frozen=True)
class FieldGrid:
    """Complex field samples on a rectangular lattice.

    values[j, i] sits at origin + (i + 1j*j) * spacing, both finite.
    `seed` is the seed the grid was drawn from, a non-negative integer, as
    a container keeps it.  `interior` is the statistics region (x0, x1,
    y0, y1), a finite rectangle, or None for the whole extent; the
    simulators record the domain they were given and pad it by 4 cells by
    default, the stencils the detector reads for zeros inside it.
    """
    values: np.ndarray
    origin: complex
    spacing: float
    plane: str
    seed: int
    interior: tuple[float, float, float, float] | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if v.ndim != 2 or min(v.shape) < _MIN_POINTS:
            raise ParameterError(f"values must be a 2-d complex array, at least "
                                 f"{_MIN_POINTS} x {_MIN_POINTS}, got shape {v.shape}")
        if not (_is_number(self.origin, (int, float, complex, np.number))
                and cmath.isfinite(self.origin)):
            raise ParameterError(f"grid origin {self.origin!r} must be a finite number")
        _check_spacing(self.spacing)
        if self.plane not in ("stft", "gwhf"):
            raise PlaneError(f"unknown plane {self.plane!r}")
        if not (_is_number(self.seed, (int, np.integer)) and self.seed >= 0):
            raise ParameterError(f"grid seed {self.seed!r} must be a non-negative integer")
        if self.interior is not None:
            object.__setattr__(self, "interior", _check_domain(self.interior))
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


@dataclass(frozen=True)
class LatticeRectangle:
    """The grid points origin + (i + 1j*j) * spacing of a lattice in `plane`
    that lie in a box: columns i0..i1 and rows j0..j1, at least two of each.
    Its cells are those of a grid on the lattice whose corners it holds."""
    origin: complex
    spacing: float
    plane: str
    i0: int
    i1: int
    j0: int
    j1: int

    @classmethod
    def of(cls, origin: complex, spacing: float, plane: str, shape: tuple[int, int],
           box: tuple[float, float, float, float], where: str) -> LatticeRectangle:
        """The rectangle of a grid of (rows, columns) `shape` on this lattice
        in box = (x0, x1, y0, y1), each point's coordinates as FieldGrid.xs
        and ys give them.  DomainError, naming the geometry `where` as the
        caller gave it (_geometry), when the box holds fewer than two points
        along an axis."""
        x0, x1, y0, y1 = box
        xs = origin.real + spacing * np.arange(shape[1])
        ys = origin.imag + spacing * np.arange(shape[0])
        cols = np.flatnonzero((x0 <= xs) & (xs <= x1))
        rows = np.flatnonzero((y0 <= ys) & (ys <= y1))
        if len(cols) < 2 or len(rows) < 2:
            raise DomainError(f"the lattice of {where} has {len(cols)} x {len(rows)} points "
                              "in the domain; a zero or charge count needs a rectangle of "
                              "at least 2 x 2")
        return cls(origin, spacing, plane, int(cols[0]), int(cols[-1]),
                   int(rows[0]), int(rows[-1]))

    @property
    def box(self) -> tuple[float, float, float, float]:
        """(x0, x1, y0, y1) of the corner points."""
        o, h = self.origin, self.spacing
        return (o.real + h * self.i0, o.real + h * self.i1,
                o.imag + h * self.j0, o.imag + h * self.j1)

    @property
    def area(self) -> float:
        return (self.i1 - self.i0) * (self.j1 - self.j0) * self.spacing ** 2


def _check_domain(domain) -> tuple[float, float, float, float]:
    """The rectangle (x0, x1, y0, y1) as floats; DomainError unless it is
    finite with x1 > x0 and y1 > y0."""
    try:
        x0, x1, y0, y1 = box = tuple(float(v) for v in domain)
    except (TypeError, ValueError):
        raise DomainError(f"domain {domain!r} must be four numbers x0, x1, y0, y1") from None
    if not (all(map(math.isfinite, box)) and x1 > x0 and y1 > y0):
        raise DomainError(f"domain {domain} must be a finite rectangle with x1 > x0 and y1 > y0")
    return box


def _check_spacing(spacing: float) -> None:
    """ParameterError unless the grid spacing is a positive finite number."""
    if not (_is_number(spacing) and 0 < spacing < math.inf):
        raise ParameterError(f"spacing {spacing!r} must be positive and finite")


def _check_grid_size(nx: int, ny: int, spacing: float, domain, margin: float) -> None:
    """Refuse a grid below 16 x 16, naming spacing, domain and margin as the
    caller gave them."""
    if nx < _MIN_POINTS or ny < _MIN_POINTS:
        box = ", ".join(f"{v:.6g}" for v in domain)
        raise ParameterError(f"spacing {spacing:.6g} gives a {nx} x {ny} grid on domain "
                             f"({box}) with margin {margin:.4g}; a grid needs at least "
                             f"{_MIN_POINTS} x {_MIN_POINTS} points")


def _geometry(spacing: float, domain, margin: float, dt: float | None = None) -> str:
    """Spacing, domain, margin and dt as the caller gave them, for refusals."""
    box = ", ".join(f"{v:.6g}" for v in domain)
    step = "" if dt is None else f" and dt {dt:.6g}"
    return f"domain ({box}) at spacing {spacing:.6g}{step} with margin {margin:.4g}"


def _check_elements(sizes: dict, where: str) -> None:
    """Refuse the geometry `where` when an array of `sizes` (name ->
    elements, none allocated yet) exceeds _MAX_ELEMENTS."""
    name, count = max(sizes.items(), key=lambda item: item[1])
    if count > _MAX_ELEMENTS:
        raise ParameterError(f"{where} needs a {name} of {count} elements, more than "
                             f"the {_MAX_ELEMENTS} any one array may hold")


def _ratio(num: float, den: float, name: str, where: str) -> float:
    """num / den (inf when den underflows to 0), the ratio a plan rounds to a
    count or lattice index: ParameterError, naming the geometry `where`, when
    it is not finite or exceeds _MAX_ELEMENTS in size, before any rounding."""
    value = num / den if den > 0 else math.inf
    if not abs(value) <= _MAX_ELEMENTS:
        raise ParameterError(f"{where} needs {name} of {value:.6g}, more than "
                             f"the {_MAX_ELEMENTS} elements any one array may hold")
    return value


def _crop(n: int, pos0: float, s: float, lo: float, hi: float) -> slice:
    """The points of the lattice pos0 + s k, k < n, that lie in [lo, hi],
    widened by whole points (towards the lattice's ends once one end is
    reached) to _MIN_POINTS when fewer; n is at least _MIN_POINTS."""
    k0 = max(0, int(math.ceil((lo - pos0) / s - 1e-9)))
    k1 = min(n, int(math.floor((hi - pos0) / s + 1e-9)) + 1)
    short = _MIN_POINTS - (k1 - k0)
    if short > 0:
        k1 = min(n, max(0, k0 - (short + 1) // 2) + _MIN_POINTS)
        k0 = k1 - _MIN_POINTS
    return slice(k0, k1)


# ---------------------------------------------------------------------------
# Windowed transform of white noise
# ---------------------------------------------------------------------------

def _fft_frame(n: int) -> int:
    """Smallest 7-smooth length (2^a 3^b 5^c 7^d) at or above n.  pocketfft
    runs such lengths on its fast path; a large prime factor (1418 = 2 * 709)
    makes the same transform several times slower.  Each odd 7-smooth part
    below 2n is doubled up to n: 1,100 candidates at n = 10^11."""
    n = max(int(n), 1)
    odd = [1]
    for p in (3, 5, 7):
        for m in list(odd):
            while (m := m * p) < 2 * n:
                odd.append(m)
    return min(m << (-(-n // m) - 1).bit_length() for m in odd)


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


class StftPlan:
    """Reusable precomputation for repeated realizations of one configuration.

    `window` is one Window or a sequence of q windows.  All windows share one
    noise time grid t_k = t0 + k dt, k < K, with t0 = x_lo - (widest support
    radius); component k of a realization is its own white-noise record on
    that grid, and the plan realizes the normalized sum (V_1 + ... + V_q)/sqrt(q).

    domain, spacing and margin are read in the output plane `plane`.  A
    gwhf-plane geometry is taken to its stft-plane preimage under
    z = sqrt(pi) conj(u + i v) first, and every attribute but `interior`
    is an stft-plane value.  `interior`, which every grid records, is the
    domain given, bit for bit.  plane="gwhf" grids sample the invariant
    field F(z) = exp(-i x y) V(conj(z)/sqrt(pi)), rows flipped so y
    increases: the mapping's phase is folded into the output phase once per
    plan.

    The lattice (columns x_lo + s i, rows s j) and the noise record are those
    of the domain padded by the anchor margin: `margin` when given, else
    2 max(T, freq radius) in the stft plane.  An explicit margin is also the
    grid's pad.  By default the grid is only the domain plus _PAD_CELLS
    cells on each side, all the detector reads (widened to _MIN_POINTS on an
    axis with fewer, never past the anchored lattice).

    The plan is band-limited in frequency.  The kept rows span yc +- hy,
    and a window's spectrum is negligible beyond its freq_radius F, so those
    rows only see noise frequencies within hy + F of yc.  The decimation
    factor D is the largest divisor of n_fft that is 1 or has
    hy + F <= 1/(2 D dt), sought downwards from that bound.  A default
    plan keeps fewer rows than its anchored twin (the same configuration
    with the explicit margin 2 max(T, F)), so its D may be larger and its
    samples then equal the twin's to rounding (about 3e-14 of the grid's
    maximum), not bit for bit.  Each record is zero-padded to L = D M
    samples (M 7-smooth, long enough for every band) and transformed; the
    M bins centred on yc are kept, and one inverse FFT of length M gives
    the band-limited record at every D-th sample, already scaled by D.  At
    D = 1 every bin would be kept and the two transforms would return the
    padded record to rounding, so the record is only zero-padded, with no
    transform.  The dropped bins lie at least 1/(2 D dt) - hy >= F
    from every row, and the same inequality keeps the D-fold sum of the
    decimated pairing free of aliasing, so the grid is unchanged up to the
    windows' 1e-12 tails.
    Everything below runs at the step D dt.

    The plan is banded: every window is below 1e-12 beyond its support_radius
    (Window's contract), so column x_i pairs only with the W =
    floor(2T/(D dt)) + 2 record samples from its first one k_i with
    t0 + D k_i dt >= x_i - T, T the widest radius; the products with the
    rest of the record are never formed.  The window
    factors conj(g(t0 + D (k_i + w) dt - x_i)) do not depend on the noise
    and are built once, (nx, W) per window.  A realization multiplies each
    record's band of every column into its factors and sums the components
    into an (nx, n_fft/D) frame (a band longer than the frame is folded onto
    the FFT period); then one FFT over the whole frame, a row gather and the
    (ny, nx) output phase make the grid.  Band i starts at
    tau_i = t0 + D k_i dt, so the output phase, built once per plan, is
    exp(-2 pi i y_j tau_i) sqrt(dt/q).

    A block of realizations is drawn once (draw, its records in one pass,
    the only way noise enters the plan) and read by the block methods
    SeriesPlan also has: grids, rectangle_samples on `rectangle`, the
    lattice's grid points in the interior, and edges on its four edges.
    grids and rectangle_samples share one loop, _samples, with one frame
    per call.  rectangle_samples and edges make no grid: _samples
    restricted to the rectangle's columns and rows, and the edge rows by
    one stacked product with the banded _row_operator, built once per
    plan, whose tiles of _TILE inner columns each hold the record span
    their bands cover, all windows stacked.

    n_fft is the smallest 7-smooth length at or above 1/(spacing dt), so the
    spacing is rounded down to 1/(n_fft dt), never up.  The phase table is
    built on the anchored rows, whose split into coarse and fine factors
    fixes its rounding, then cut to the kept rows.  The output lattice and
    metadata are fixed per plan.  A geometry needing a count beyond
    _MAX_ELEMENTS, or an array of more elements, is refused first, naming
    the arguments as given.
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
        box = _check_domain(domain)
        _check_spacing(spacing)
        if not (_is_number(dt) and dt > 0):
            raise ParameterError(f"dt {dt!r} must be positive")
        freq = max(w.freq_radius for w in windows)
        T = max(w.support_radius for w in windows)
        if dt > 1.0 / (8.0 * freq):
            raise AliasBandError(
                f"dt = {dt} too coarse for window frequency extent "
                f"{freq:.2f}; need dt <= {1.0 / (8.0 * freq):.4g}")
        # the stft-plane preimage of the geometry given in `plane`
        unit = 1.0 if plane == "stft" else _SQRT_PI
        x0, x1, y0, y1 = box if plane == "stft" else _gwhf_box(box, inverse=True)
        anchor = 2.0 * max(T, freq) if margin is None else float(margin) / unit
        where = _geometry(spacing, domain, unit * anchor, dt)
        self.windows = windows
        self.plane = plane
        self.dt = float(dt)
        self.requested = (x0, x1, y0, y1)
        self.interior = box
        self._where = where

        xlo, xhi = x0 - anchor, x1 + anchor
        t0 = xlo - T
        K = int(math.ceil(_ratio(xhi + T - t0, dt, "a noise record length", where))) + 1
        n_fft = _fft_frame(math.ceil(
            _ratio(1.0, spacing / unit * dt, "an FFT frame length", where) - 1e-9))
        if n_fft < 8:
            raise ParameterError(f"spacing {spacing} and dt {dt} give FFT frame {n_fft} < 8")
        self.n_fft = n_fft
        s = 1.0 / (n_fft * dt)
        self.spacing = s

        nx = int(math.floor(_ratio(xhi - xlo, s, "a grid width", where) + 1e-9)) + 1
        jlo = int(math.ceil(_ratio(y0 - anchor, s, "a first row index", where) - 1e-9))
        ny = int(math.floor(_ratio(y1 + anchor - jlo * s, s, "a grid height", where)
                            + 1e-9)) + 1
        _check_grid_size(nx, ny, spacing, domain, unit * anchor)
        # an explicit margin is also the grid's pad, and cropping to it keeps
        # the whole anchored lattice
        self.margin = anchor if margin is not None else _PAD_CELLS * s
        cols = _crop(nx, xlo, s, x0 - self.margin, x1 + self.margin)
        rows = _crop(ny, jlo * s, s, y0 - self.margin, y1 + self.margin)
        band = 0.5 / dt
        ylo, yhi = (jlo + rows.start) * s, (jlo + rows.stop - 1) * s
        if max(abs(ylo), abs(yhi)) + freq > band:
            raise AliasBandError(
                f"frequency range [{ylo:.2f}, {yhi:.2f}] plus window extent "
                f"{freq:.2f} exceeds the alias-free band {band:.2f}")

        ncols = cols.stop - cols.start
        _check_elements({f"{ny} x {ncols} phase table": ny * ncols,
                         "noise record": len(windows) * K}, where)
        self.t0 = t0
        self.K = K

        # the kept rows yc +- hy see noise frequencies within hy + freq of yc,
        # so no D above 1/(2 dt (hy + freq)) fits
        hy = 0.5 * (rows.stop - rows.start - 1) * s
        top = min(n_fft, int(0.5 / (dt * (hy + freq))) + 1)
        D = next(d for d in range(top, 0, -1)
                 if n_fft % d == 0 and (d == 1 or hy + freq <= 0.5 / (d * dt)))
        self.D = D
        step = D * dt
        # column i pairs with the W record samples from its first one at or
        # after x_i - T; the decimated record holds every anchored column's band
        W = int(math.floor(2.0 * T / step)) + 2
        xs = xlo + s * np.arange(nx)
        starts = np.ceil((xs - T - t0) / step - 1e-9).astype(np.int64)
        n_rec = _fft_frame(max(-(-K // D), int(starts[-1]) + W))
        _check_elements({"decimation transform": len(windows) * D * n_rec,
                         "frame": ncols * (n_fft // D), "window band": ncols * W}, where)
        # bins b0 .. b0 + n_rec - 1 of the length-D n_rec transform, the
        # n_rec nearest yc, each at the position b mod n_rec
        jc = jlo + 0.5 * (rows.start + rows.stop - 1)
        b0 = round(jc * n_rec / (n_fft // D)) - n_rec // 2
        self._keep = (b0 + (np.arange(n_rec) - b0) % n_rec) % (D * n_rec)
        starts = starts[cols]
        xs = xs[cols]
        self.W = W
        self.starts = starts
        self.nx, self.ny = ncols, rows.stop - rows.start
        self.x0 = float(xs[0])
        self.jlo = jlo + rows.start
        self.y0 = self.jlo * s
        tk = t0 + step * np.arange(n_rec)
        offsets = tk[starts[:, None] + np.arange(W)] - xs[:, None]
        self.window_factors = tuple(np.conj(w.rule(offsets)) for w in windows)  # (nx, W) each
        self.frame_shape = (self.nx, n_fft // D)

        # band i starts at tau_i = t0 + D k_i dt: V(x_i, y_j) is its FFT times
        # exp(-2 pi i y_j tau_i); the gwhf plane adds exp(i pi y_j x_i)
        freq_rows = np.mod(self.jlo + np.arange(self.ny), n_fft // D)
        col_rate = -2.0 * math.pi * (t0 + step * starts)
        if plane == "gwhf":
            col_rate += math.pi * xs
        # not built on the kept rows alone: freeing the larger anchored table
        # lifts glibc's mmap threshold, keeping each grid's arrays on the heap
        phase = _outer_phase(jlo * s, s, ny, col_rate)[rows] * math.sqrt(dt / len(windows))
        self._meta = {"window": windows[0].label, "dt": self.dt,
                      "requested_spacing_rounded_to": s}
        if len(windows) > 1:
            self._meta["components"] = len(windows)
        if plane == "stft":
            self._rows, self._phase = freq_rows, phase
            self._lattice = {"origin": complex(self.x0, self.y0), "spacing": s,
                             "plane": plane}
        else:  # rows flipped so y increases in the invariant plane
            self._rows, self._phase = freq_rows[::-1], phase[::-1].copy()
            self._meta["mapped_from"] = "stft"
            y1 = self.y0 + s * (self.ny - 1)
            self._lattice = {"origin": complex(_SQRT_PI * self.x0, -_SQRT_PI * y1),
                             "spacing": _SQRT_PI * s, "plane": plane}

    def _bands(self, records: np.ndarray) -> np.ndarray:
        """The view (..., q, n_rec - W + 1, W) of records (..., q, n_rec)
        whose [..., k, s] is window k's record from sample s on: the bands
        _fold reads, made once per block."""
        return sliding_window_view(records, self.W, axis=-1)

    def _fold(self, bands: np.ndarray, frame: np.ndarray, cols) -> np.ndarray:
        """frame (..., one row per column of `cols`, a slice or indices of
        the grid's columns) filled with the columns' summed window bands,
        read from bands (_bands), each folded onto the FFT period."""
        N, W = self.frame_shape[1], self.W
        frame[..., W:] = 0
        for k, factors in enumerate(self.window_factors):
            band = bands[..., k, self.starts[cols], :]
            if k == 0 and W <= N:  # the first band is made in the frame's head, not copied
                np.multiply(band, factors[cols], out=frame[..., :W])
                continue
            band *= factors[cols]
            # a band longer than the frame folds onto the FFT period
            for f0 in range(0, W, N):
                part = band[..., f0:f0 + N]
                if k == f0 == 0:
                    frame[..., :part.shape[-1]] = part
                else:
                    frame[..., :part.shape[-1]] += part
        return frame

    def _samples(self, records: np.ndarray, rows: slice, cols: slice) -> Iterator[np.ndarray]:
        """The grid's samples at rows x cols of each realization of a drawn
        block, one at a time: its columns' bands folded into one frame of
        this call, one row per column of `cols`, one FFT over the frame, the
        rows gathered and the output phase applied.  Each sample depends on
        its own column's band alone, so any block of the grid has the grid's
        bits."""
        frame = np.empty((len(range(self.nx)[cols]), self.frame_shape[1]), dtype=complex)
        for bands in self._bands(records):
            np.fft.fft(self._fold(bands, frame, cols), axis=1, out=frame)
            yield frame[:, self._rows[rows]].T * self._phase[rows, cols]

    def draw(self, seed: int, rs: Iterable[int]) -> np.ndarray:
        """The block of realizations rs that every block method takes: their
        (len(rs), q, n_rec) band-limited noise records at step D dt, window
        k's record of realization r made from K samples of stream(seed, r, k)
        and the whole block drawn by one complex_normals call.  One FFT pair
        runs over all its records, none at D = 1."""
        q, n_rec = len(self.windows), len(self._keep)
        records = complex_normals([stream(seed, r, k) for r in rs for k in range(q)], self.K)
        if self.D == 1:  # every bin is kept: the FFT pair would return the padded record
            records = np.pad(records, ((0, 0), (0, n_rec - self.K)))
        else:
            spec = np.fft.fft(records, n=self.D * n_rec, axis=1)
            records = np.fft.ifft(spec[:, self._keep], axis=1)
        return records.reshape(-1, q, n_rec)

    def grids(self, records: np.ndarray, seed: int) -> Iterator[FieldGrid]:
        """The grids of a block drawn from `seed`, one at a time."""
        for vals in self._samples(records, slice(None), slice(None)):
            yield FieldGrid(values=vals, seed=seed, interior=self.interior,
                            meta=dict(self._meta), **self._lattice)

    def realize(self, seed: int, r: int = 0) -> FieldGrid:
        """Realization r, drawn from stream(seed, r, k), as one grid."""
        return next(self.grids(self.draw(seed, [r]), seed))

    @cached_property
    def rectangle(self) -> LatticeRectangle:
        """The grid points of the plan's lattice that lie in its interior."""
        return LatticeRectangle.of(shape=(self.ny, self.nx), box=self.interior,
                                   where=self._where, **self._lattice)

    def rectangle_samples(self, records: np.ndarray) -> Iterator[np.ndarray]:
        """The samples of a drawn block's grids on `rectangle`, rows j0..j1
        by columns i0..i1, one realization at a time: only its columns
        folded and only its rows gathered."""
        rect = self.rectangle
        return self._samples(records, slice(rect.j0, rect.j1 + 1), slice(rect.i0, rect.i1 + 1))

    @cached_property
    def _row_operator(self) -> tuple[np.ndarray, np.ndarray]:
        """(first, op), the banded operator from the records to the
        rectangle's edge rows j0 and j1 at its inner columns.  Tile t of
        _TILE inner columns reads each record's `span` samples from first[t],
        which hold its columns' bands; op[t], (q span, 2 _TILE), is window
        factor times exp(-2 pi i (b (w mod N) mod N) / N) at the rows' frame
        bins b (the product reduced mod N exactly) times the output phase.
        Its size is checked before it is made."""
        rect, N, W = self.rectangle, self.frame_shape[1], self.W
        inner = np.arange(rect.i0 + 1, rect.i1)
        tile, pos = np.divmod(np.arange(len(inner)), _TILE)
        starts, lo = self.starts[inner], np.arange(0, len(inner), _TILE)
        # the starts rise with the column, so a tile's last band ends last
        span = W + int(np.max(np.maximum.reduceat(starts, lo) - starts[lo], initial=0))
        q, tiles = len(self.windows), len(lo)
        _check_elements({"row operator": tiles * q * span * 2 * _TILE}, self._where)
        # a tile near the record's end starts early enough to keep its span in it
        first = np.minimum(starts[lo], len(self._keep) - span)
        bins = self._rows[[rect.j0, rect.j1]]
        shift = np.exp(-2j * math.pi * (np.outer(np.arange(W) % N, bins) % N) / N)  # (W, 2)
        phase = self._phase[[rect.j0, rect.j1]][:, inner].T
        at = (starts - first[tile])[:, None] + np.arange(W)
        op = np.zeros((tiles, q, span, _TILE, 2), dtype=complex)
        for k, factors in enumerate(self.window_factors):
            op[tile[:, None], k, at, pos[:, None]] = (factors[inner][:, :, None] * shift
                                                      * phase[:, None, :])
        return first, op.reshape(tiles, q * span, 2 * _TILE)

    def edges(self, records: np.ndarray) -> list[np.ndarray]:
        """The (B, n) samples the grids of a drawn block of B have on the
        four edges of `rectangle`: its bottom and top rows j0 and j1
        (columns i0..i1) and its left and right columns i0 and i1 (rows
        j0..j1), no grid made.  The columns come from one (B, 2, N) frame
        with the grid's bits.  The rows' inner samples are one stacked
        product of the records, in _GEMM_ROWS realizations (the block padded
        with zero records), with _row_operator: the grid's to rounding, and
        the same bits in any block.  The rows' corners are the columns'."""
        rect, count = self.rectangle, len(records)
        frame = self._fold(self._bands(records),
                           np.empty((count, 2, self.frame_shape[1]), dtype=complex),
                           [rect.i0, rect.i1])
        np.fft.fft(frame, axis=-1, out=frame)
        rows = slice(rect.j0, rect.j1 + 1)
        left, right = np.moveaxis(
            frame[..., self._rows[rows]] * self._phase[rows, [rect.i0, rect.i1]].T, 1, 0)
        first, op = self._row_operator
        records = np.concatenate([records, np.zeros((-count % _GEMM_ROWS, *records.shape[1:]))])
        (tiles, depth, _), padded = op.shape, len(records)
        # (tiles, padded, q, span): each tile's span of every record
        cut = sliding_window_view(records, depth // len(self.windows), axis=-1
                                  ).transpose(2, 0, 1, 3)[first]
        prods = np.matmul(cut.reshape(tiles, padded // _GEMM_ROWS, _GEMM_ROWS, depth),
                          op[:, None])
        bottom, top = prods.reshape(tiles, padded, _TILE, 2)[:, :count].transpose(
            3, 1, 0, 2).reshape(2, count, tiles * _TILE)[:, :, :rect.i1 - rect.i0 - 1]
        return [np.concatenate([left[:, :1], bottom, right[:, :1]], axis=1),
                np.concatenate([left[:, -1:], top, right[:, -1:]], axis=1), left, right]


_SQRT_PI = math.sqrt(math.pi)


def _gwhf_box(box: tuple[float, float, float, float], inverse: bool = False
              ) -> tuple[float, float, float, float]:
    """stft-plane rectangle -> gwhf-plane rectangle under z = sqrt(pi) conj(u + i v),
    or back with `inverse`."""
    x0, x1, y0, y1 = (float(v) for v in box)
    if inverse:
        return (x0 / _SQRT_PI, x1 / _SQRT_PI, -y1 / _SQRT_PI, -y0 / _SQRT_PI)
    return (_SQRT_PI * x0, _SQRT_PI * x1, -_SQRT_PI * y1, -_SQRT_PI * y0)


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
    modulus.  One evaluator serves the grid and any other points: the basis
    of a chunk of at most _CHUNK points is filled by doubling, u[s:2s] =
    u[:s] (z/rho)^s, in about log2(n_terms) array products instead of a
    chain over n.  A batch of B realizations is one (B x N) @ (N x chunk)
    product per chunk; BLAS computes each row of it the same way for any B,
    so a grid does not depend on the batch it is drawn in.  The scale peaks
    near exp(rho^2/2), so the grid radius is limited to _MAX_RADIUS, where
    it and exp(-rho^2/2) stay normal float64 numbers.  On a circle about
    the origin the field is a trigonometric polynomial in the angle, so
    circle_values gives it at equispaced angles by one inverse FFT per
    circle, with no basis.  A drawn block (draw: its coefficients) is read
    by the block methods StftPlan has: grids, rectangle_samples and edges,
    on `rectangle`, the grid points in the interior.  The grid is the
    domain, the plan's `interior`, padded by _PAD_CELLS cells on each side.
    """

    def __init__(self, domain: tuple[float, float, float, float], spacing: float,
                 n_terms: int | None = None):
        self.interior = x0, x1, y0, y1 = _check_domain(domain)
        _check_spacing(spacing)
        margin = _PAD_CELLS * spacing
        self.spacing = float(spacing)
        self._where = where = _geometry(spacing, domain, margin)
        xlo, ylo = x0 - margin, y0 - margin
        nx = int(math.floor(_ratio(x1 + margin - xlo, spacing, "a grid width", where) + 1e-9)) + 1
        ny = int(math.floor(_ratio(y1 + margin - ylo, spacing, "a grid height", where)
                            + 1e-9)) + 1
        _check_grid_size(nx, ny, spacing, domain, margin)
        _check_elements({f"{nx} x {ny} grid": nx * ny}, where)
        xs = xlo + spacing * np.arange(nx)
        ys = ylo + spacing * np.arange(ny)
        self.z = xs[None, :] + 1j * ys[:, None]
        self.origin = complex(xlo, ylo)
        r_max = float(np.max(np.abs(self.z)))
        if r_max > _MAX_RADIUS:
            raise ParameterError(f"grid radius {r_max:.2f} exceeds the series limit "
                                 f"{_MAX_RADIUS:.2f} (domain {self.interior}, margin "
                                 f"{margin:.4g}): beyond it float64 over- or underflows")
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

    def draw(self, seed: int, rs: Iterable[int]) -> np.ndarray:
        """The block of realizations rs that every block method takes: their
        (len(rs), n_terms) scaled coefficients xi_n c_n, realization r's
        drawn from stream(seed, r, 0), the whole block by one complex_normals
        call."""
        return complex_normals([stream(seed, r, 0) for r in rs], self.n_terms) * self.scale

    def evaluate(self, coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
        """(B, z.size) values at points z within the grid radius of the B
        fields whose scaled coefficients are the rows of coeffs."""
        count = len(coeffs)
        if count == 1:
            # numpy hands a one-row product to gemv, which rounds differently
            # from gemm; a zero row keeps the row on the gemm path
            coeffs = np.vstack([coeffs, np.zeros_like(coeffs)])
        z = np.ravel(z)
        out = np.empty((len(coeffs), z.size), dtype=complex)
        basis = np.empty((self.n_terms, min(_CHUNK, z.size)), dtype=complex)
        for lo in range(0, z.size, _CHUNK):
            zc = z[lo:lo + _CHUNK]
            u = basis[:, :zc.size]
            u[0] = np.exp(-0.5 * np.abs(zc) ** 2)
            w, s = zc / self.rho, 1
            while s < self.n_terms:
                # u[s:2s] = u[:s] (z/rho)^s, then w = (z/rho)^(2s)
                np.multiply(u[:min(s, self.n_terms - s)], w, out=u[s:2 * s])
                w, s = w * w, 2 * s
            np.matmul(coeffs, u, out=out[:, lo:lo + zc.size])
        return out[:count]

    def circle_values(self, coeffs: np.ndarray, radii: Sequence[float],
                      counts: Sequence[int]) -> np.ndarray:
        """(B, sum(counts)) values of the B fields whose scaled coefficients
        are the rows of coeffs at R_k exp(2 pi i j / M_k), j = 0 .. M_k - 1,
        for each radius R_k (within the grid radius) and count M_k in turn.
        On |z| = R the field is exp(-R^2/2) sum_n a_n (R/rho)^n exp(i n
        theta): the terms a_n (R/rho)^n folded modulo M and summed by one
        unnormalized inverse FFT per circle, over all rows at once."""
        n = np.arange(self.n_terms)
        out = []
        for radius, m in zip(radii, counts):
            terms = coeffs * (radius / self.rho) ** n
            folded = np.zeros((len(coeffs), -(-self.n_terms // m) * m), dtype=complex)
            folded[:, :self.n_terms] = terms
            folded = folded.reshape(len(coeffs), -1, m).sum(axis=1)
            out.append(np.fft.ifft(folded, axis=1, norm="forward") * math.exp(-0.5 * radius ** 2))
        return np.concatenate(out, axis=1)

    @cached_property
    def rectangle(self) -> LatticeRectangle:
        """The grid points of the plan's lattice that lie in its interior."""
        return LatticeRectangle.of(self.origin, self.spacing, "gwhf", self.z.shape,
                                   self.interior, self._where)

    def edges(self, coeffs: np.ndarray) -> list[np.ndarray]:
        """The (B, n) values of a drawn block of B on the bottom and top rows
        (columns i0..i1) and the left and right columns (rows j0..j1) of
        `rectangle`, evaluated at those grid points alone."""
        r = self.rectangle
        rows, cols = slice(r.j0, r.j1 + 1), slice(r.i0, r.i1 + 1)
        points = [self.z[r.j0, cols], self.z[r.j1, cols], self.z[rows, r.i0], self.z[rows, r.i1]]
        values = self.evaluate(coeffs, np.concatenate(points))
        return np.split(values, np.cumsum([len(p) for p in points[:3]]), axis=1)

    def grids(self, coeffs: np.ndarray, seed: int) -> Iterator[FieldGrid]:
        """The grids of a block drawn from `seed`, one per row of coeffs, all
        evaluated at once."""
        meta = {"simulator": "series", "n_terms": self.n_terms}
        return (FieldGrid(values=v.reshape(self.z.shape), origin=self.origin,
                          spacing=self.spacing, plane="gwhf", seed=seed,
                          interior=self.interior, meta=dict(meta))
                for v in self.evaluate(coeffs, self.z))

    def rectangle_samples(self, coeffs: np.ndarray) -> Iterator[np.ndarray]:
        """The samples of a drawn block's grids on `rectangle`, rows j0..j1
        by columns i0..i1, cut from the grids' values, no grid made."""
        r = self.rectangle
        return (v.reshape(self.z.shape)[r.j0:r.j1 + 1, r.i0:r.i1 + 1]
                for v in self.evaluate(coeffs, self.z))

    def realize(self, seed: int, r: int = 0) -> FieldGrid:
        """Realization r, drawn from stream(seed, r, 0), as one grid."""
        return next(self.grids(self.draw(seed, [r]), seed))


# ---------------------------------------------------------------------------
# Field sources: spec -> checked record -> plans, plane, interior and theory values
# ---------------------------------------------------------------------------

# the keys a record of each source family may hold
_SOURCE_KEYS = {"window": ("family", "window", "plane"), "series-gef": ("family", "n_terms"),
                "polyentire": ("family", "q", "kind"), "poisson": ("family", "density")}
_SOURCE_NAMES = "series | gef-series | polyentire:q:kind | poisson"


def _is_number(value, types=(int, float, np.integer, np.floating)) -> bool:
    return isinstance(value, types) and not isinstance(value, bool)


def _source_record(name: str, args: str) -> dict:
    if name in ("series", "gef-series") and not args:
        return {"family": "series-gef"}
    if name == "poisson" and not args:
        return {"family": "poisson", "density": 1.0 / math.pi}
    if name == "polyentire":
        q, _, kind = args.partition(":")
        return {"family": name, "q": int(q) if q.isdigit() else q, "kind": kind}
    raise InvalidKernelError(f"unknown source {name!r}, expected one of {_SOURCE_NAMES}")


def _check_source(spec: dict) -> dict:
    family = spec.get("family")
    keys = _SOURCE_KEYS.get(family) if isinstance(family, str) else None
    if keys is None:
        raise InvalidKernelError(f"unknown source family {family!r}")
    for key in spec:
        if key not in keys:
            raise InvalidKernelError(f"unknown key {key!r} = {spec[key]!r} in a {family} "
                                     f"source, which takes {', '.join(keys)}")
    if family == "window":
        if spec.get("plane", "stft") not in ("stft", "gwhf"):
            raise PlaneError(f"unknown plane {spec['plane']!r}")
        if not isinstance(spec["window"], Window):
            spec = dict(spec, window=window_from_spec(spec["window"]))
    elif family == "series-gef":
        n_terms = spec.get("n_terms")
        if not (n_terms is None or _is_number(n_terms, (int, np.integer))):
            raise ParameterError(f"n_terms = {n_terms!r} must be an integer or None")
    elif family == "polyentire":
        q, kind = spec.get("q"), spec.get("kind", "pure")
        if not (_is_number(q, (int, np.integer)) and 1 <= q <= 8 and kind in ("pure", "full")):
            raise InvalidKernelError(f"polyentire needs q in [1, 8] and kind "
                                     f"'pure' or 'full', got q={q!r}, kind={kind!r}")
    else:
        density = spec.get("density", 1.0 / math.pi)
        if not (_is_number(density) and math.isfinite(density) and density > 0):
            raise ParameterError(f"poisson density {density!r} must be finite and positive")
    return spec


def source_from_spec(spec: dict | str) -> dict:
    """The checked record of a field source given as the record, as
    "@file.json" or as the text series (or gef-series), polyentire:q:kind
    or poisson.  Records, defaults in brackets:
      {"family": "window", "window": <Window | window spec>, "plane": "stft"|"gwhf" [stft]}
      {"family": "series-gef", "n_terms": int | None [None: the truncation rule]}
      {"family": "polyentire", "q": 1..8, "kind": "pure" (h_{q-1}) | "full" (h_0..h_{q-1}) [pure]}
      {"family": "poisson", "density": float [1/pi]}   (control points, no field)
    The record keeps the keys given; a window spec is built into a Window,
    and a Window given comes back as itself."""
    return build_from_spec(spec, "source", InvalidKernelError, _source_record, _check_source)


class FieldSource:
    """One field family on one grid, built once and realized many times.

    spec is any source spec that source_from_spec takes, except the poisson
    control, which has no field.  The family picks the plan, once: a
    window or polyentire source holds one StftPlan over all its windows,
    which reads the geometry in the source's plane, and a series source one
    SeriesPlan.  Both plans answer the same block methods, so every method
    below is one plan call on the block plan.draw gives, and realize is
    plan.realize: seed and realization in, never a generator.  domain, spacing
    and the theory values (kernel, None with a note for a window without
    one; density(convention); charge_density; variance_asymptote) refer to
    the output plane; each is computed once per source, density once per
    convention.  The source's interior, that of its plan and that of each
    of its grids, is the domain given, bit for bit.
    """

    def __init__(self, spec: dict | str, domain: tuple[float, float, float, float],
                 spacing: float, dt: float | None = None):
        spec = source_from_spec(spec)
        family = spec["family"]
        self.plane = spec.get("plane", "stft") if family == "window" else "gwhf"
        self.charge_density = 1.0 / math.pi if self.plane == "gwhf" else 1.0
        self.window, self.notes, self._densities = None, [], {}
        if family == "series-gef":
            self.kernel = gef_kernel()
            self.plan = SeriesPlan(domain, spacing, spec.get("n_terms"))
            self.interior = self.plan.interior
            return
        if family == "window":
            self.window = spec["window"]
            windows = [self.window]
            self.kernel = (laguerre_kernel(self.window.order)
                           if self.window.kind == "hermite" else None)
            if self.kernel is None:
                self.notes.append("no radial kernel for this window; "
                                  "variance theory unavailable")
        elif family == "polyentire":
            q, pure = spec["q"], spec.get("kind", "pure") == "pure"
            windows = [hermite(q - 1)] if pure else [hermite(k) for k in range(q)]
            self.kernel = laguerre_kernel(q - 1) if pure else laguerre_avg_kernel(q)
        else:
            raise InvalidKernelError(f"a {family} source is a point process with no field")
        dt = 1.0 / 64.0 if dt is None else dt
        self.plan = StftPlan(windows, domain, spacing, dt, plane=self.plane)
        self.interior = self.plan.interior

    def density(self, convention: str = DEFAULT_CONVENTION) -> float:
        """Expected zeros per unit area of the output plane."""
        if convention not in self._densities:
            if self.window is None:
                rho = rho1_radial(self.kernel)
            else:
                rho = rho1_stft(self.window, convention)
                rho = rho / math.pi if self.plane == "gwhf" else rho
            self._densities[convention] = rho
        return self._densities[convention]

    @cached_property
    def variance_asymptote(self) -> float:
        """Large-R limit of Var[charge in B_R]/R, from the radial kernel;
        InvalidKernelError for a window without one."""
        if self.kernel is None:
            raise InvalidKernelError("no radial kernel available for variance theory")
        return variance_asymptote(self.kernel)

    def realize_batch(self, seed: int, rs: Iterable[int]) -> Iterator[FieldGrid]:
        """Realizations rs, in order, in the source's plane; component k of
        realization r draws from stream(seed, r, k)."""
        return self.plan.grids(self.plan.draw(seed, rs), seed)

    def rectangle_batch(self, seed: int, rs: Iterable[int]) -> Iterator[np.ndarray]:
        """Realizations rs, in order, on the plan's `rectangle`: each one's
        samples at rows j0..j1 and columns i0..i1, the bits realize_batch
        gives there."""
        return self.plan.rectangle_samples(self.plan.draw(seed, rs))

    def edges_batch(self, seed: int, rs: Iterable[int]) -> list[np.ndarray]:
        """Realizations rs, in order, on the four edges of the plan's
        `rectangle`: (len(rs), n) samples of its bottom and top rows and its
        left and right columns; no realizations give four (0, n) arrays."""
        return self.plan.edges(self.plan.draw(seed, rs))

    def realize(self, seed: int, r: int = 0) -> FieldGrid:
        """Realization r in the source's plane."""
        return self.plan.realize(seed, r)


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
        "interior": grid.interior,
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
    a header key missing (`interior`, null for the whole extent, among
    them), whose payload is not exactly nx*ny*8 bytes, that holds a
    non-finite sample or whose geometry FieldGrid refuses raises
    ContainerError."""
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
        interior = header["interior"]
        return FieldGrid(values=vals, origin=complex(*header["origin"]),
                         spacing=header["spacing"], plane=header["plane"], seed=header["seed"],
                         interior=tuple(interior) if isinstance(interior, list) else interior,
                         meta=dict(header.get("meta", {})))
    except (KeyError, OSError, TypeError, ValueError, struct.error) as exc:
        raise ContainerError(f"{path} is not a valid grid container: "
                             f"{type(exc).__name__}: {exc}") from exc


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj
