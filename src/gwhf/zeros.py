"""Charged zero extraction from sampled complex fields.

Primary detector: phase winding around each lattice plaquette, accumulated
with *gauged* parallel transport.  Both coordinate planes carry a
deterministic oscillatory carrier (the covariance of neighboring samples
has phase Im(dz conj(z)) on the invariant plane and -2 pi x dy on the
spectrogram plane), so raw principal-branch increments alias once
spacing * |position| approaches pi.  Each edge's phase step, taken from
one phase per sample, is therefore demodulated by the carrier advance
along the edge and rounded to its integer wrap count, the number of whole
turns the principal branch removes.  The carrier advances do not telescope
around a plaquette (their loop sum, +-2 pi times the charge density times
the cell area, is exactly the term responsible for the universal mean
charge density), but the raw phase steps do, so a plaquette's winding is
exactly minus the loop sum of its edges' wrap counts: an integer sum, with
no defect to add back and nothing left to round.

The loop orientation is tied to the grid's plane so that the winding *is*
the charge: invariant-plane ("gwhf") grids use the counterclockwise loop
and the charge is the orientation sign of F as a planar map; spectrogram
("stft") grids use the reversed loop, because the change of coordinates to
the invariant plane is orientation-reversing and the charge of a
spectrogram zero is sgn Im[dV/dx conj(dV/dy)] = -sgn det DV.

detect_zeros reads one grid, all on arrays, into a ZeroSet of five
columns: the flagged cells of the lattice block that can hold a kept
zero (LatticeRectangle.within) take their demodulated stencils in one
pass (a border cell's stencil is extrapolated past the grid) and are
refined at once, by Newton on bicubic stencils and the cells Newton
rejects by one bilinear solve.  Each zero's position and Jacobian sign
come from one interpolant of one stencil, so the sign is read at that
interpolant's own root, independently of the winding; simple zeros must
agree (tested, not assumed).  The Monte Carlo harness detects no grid.
cells is the one winding pass: it gives a lattice rectangle's cells of
nonzero winding, which the detector refines and whose count and windings
are the Monte Carlo zero count and the charge of each lattice square in
the rectangle.  circle_charges and rectangle_charges (from a rectangle's
edges, by the plaquettes' rule) need no grid.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import ContainerError, DomainError, ResolutionError
from .simulate import FieldGrid, LatticeRectangle, _fft_frame

__all__ = [
    "ZeroSet",
    "cells", "detect_zeros", "rectangle_charges", "circle_charges",
    "zeros_to_csv", "zeros_from_csv",
]

_TWO_PI = 2.0 * math.pi
# how far past its cell, in cells, a refined root may lie: Newton and the
# bilinear solve accept roots in [-_BAND, 1 + _BAND]^2 of the cell (the
# bilinear one then clipped to it); _close_pairs needs _BAND < 0.125
_BAND = 0.05


@dataclass(frozen=True, eq=False)
class ZeroSet:
    """The zeros of one grid as five parallel arrays ordered by (imag,
    real): position (complex), charge (int), refined (bool), jacobian_sign
    (int) and degenerate (bool).  Each charge is its cell's plane-oriented
    winding, so no winding column is kept (the CSV writes the charge twice)."""
    position: np.ndarray
    charge: np.ndarray
    refined: np.ndarray
    jacobian_sign: np.ndarray
    degenerate: np.ndarray

    def __len__(self) -> int:
        return len(self.position)


def _edge_gauge(plane: str, pa, pb):
    """Deterministic carrier phase advance along the edge pa -> pb.

    E[F(q) conj(F(p))] = H(q-p) exp(i Im((q-p) conj(p))) on the invariant
    plane; on the spectrogram plane the covariance of neighboring samples
    carries exp(-2 pi i x (q_y - p_y)) times a bounded factor.
    """
    if plane == "gwhf":
        return ((pb - pa) * np.conj(0.5 * (pa + pb))).imag
    return -_TWO_PI * 0.5 * (pa.real + pb.real) * (pb.imag - pa.imag)


def _plane_points(origin, h, i, j, xi, eta):
    """Plane position of the local point (xi, eta) of cell (i, j) of a grid
    of this origin and spacing h."""
    return origin.real + (i + xi) * h + 1j * (origin.imag + (j + eta) * h)


def _wrap_counts(step: np.ndarray, plane: str, h: float, at, vertical: bool) -> np.ndarray:
    """Wrap counts of lattice edges of spacing h in `plane`, in place: step
    holds each edge's phase difference in turns, along +x on rows at y =
    at, or with `vertical` along +y on columns at x = at (at broadcast
    against step).  The carrier advance along each edge, which depends on
    that one coordinate only, is removed and the demodulated step rounded
    to its nearest integer."""
    if plane == "gwhf" and vertical:
        step -= (h / _TWO_PI) * at  # gauge h x
    elif plane == "gwhf":
        step += (h / _TWO_PI) * at  # gauge -h y
    elif vertical:
        step += h * at  # gauge -2 pi h x; horizontal edges have none
    return np.rint(step, out=step)


def _windings(values: np.ndarray, xs: np.ndarray, ys: np.ndarray, plane: str,
              h: float) -> np.ndarray:
    """Integer winding of every plaquette of the samples values[j, i] at
    (xs[i], ys[j]) on a lattice of spacing h in `plane`, counterclockwise
    gauged loop, as int16.

    The phase is taken once per sample, in turns.  Each lattice edge's
    demodulated step (its phase difference less the carrier advance) has a
    wrap count k, its nearest integer (_wrap_counts).  Around a plaquette
    the phase differences telescope, so the loop sum of the principal-branch
    increments (step minus k) is minus the carrier's loop advance minus the
    loop sum of the k.  The winding, that loop sum with the carrier's
    advance added back, is therefore exactly minus the loop sum of the k:
    k_left + k_top - k_bottom - k_right.  The windings of any block of cells
    sum exactly to the wrap counts of its boundary (rectangle_charges).  A
    sample that is exactly 0 reads as phase 0, so a zero on a lattice point
    flags one of the cells around it.  The k reach spacing * max|position|
    turns, so they are summed in float and the winding, at most
    2 + spacing^2 in magnitude, is cast once.
    """
    turns = np.angle(values)
    turns /= _TWO_PI
    horiz = _wrap_counts(turns[:, 1:] - turns[:, :-1], plane, h, ys[:, None], False)
    vert = _wrap_counts(turns[1:] - turns[:-1], plane, h, xs, True)
    wind = np.subtract(vert[:, :-1], vert[:, 1:], out=turns[:-1, :-1])
    wind += horiz[1:]
    wind -= horiz[:-1]
    return wind.astype(np.int16)


def cells(rect: LatticeRectangle, samples: np.ndarray
          ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lattice indices (i, j) and int windings w of the cells of the lattice
    rectangle rect whose plaquette winding (_windings) is nonzero, in
    row-major order: one per simple zero of the field in the rectangle.
    samples are the rectangle's own, rows j0..j1 by columns i0..i1, and
    each cell's winding has the bits a whole grid's plaquettes give it.  Two
    zeros of opposite charge in one cell cancel and are not counted.  A cell
    with |winding| >= 2 raises ResolutionError naming its centre."""
    o, h = rect.origin, rect.spacing
    xs = o.real + h * np.arange(rect.i0, rect.i1 + 1)
    ys = o.imag + h * np.arange(rect.j0, rect.j1 + 1)
    wind = _windings(samples, xs, ys, rect.plane, h)
    # numpy finds the nonzero entries of a boolean mask several times faster
    # than those of the int16 windings themselves
    flat = np.flatnonzero(wind != 0)
    w = wind.ravel()[flat].astype(int)
    j, i = np.divmod(flat, wind.shape[1])
    i += rect.i0
    j += rect.j0
    multiple = np.flatnonzero(np.abs(w) >= 2)
    if multiple.size:
        k = multiple[0]
        center = _plane_points(o, h, i[k], j[k], 0.5, 0.5)
        raise ResolutionError(f"plaquette near {center:.4g} holds winding {w[k]}; "
                              "halve the grid spacing")
    return i, j, w


def rectangle_charges(rect: LatticeRectangle, bottom: np.ndarray, top: np.ndarray,
                      left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Net charge inside the lattice rectangle rect of each field, from its
    samples on the rectangle's edges alone, by the argument principle: the
    rows of bottom and top are the fields on rows j0 and j1 (columns
    i0..i1), those of left and right on columns i0 and i1 (rows j0..j1).
    Minus the loop sum of the edges' wrap counts (_wrap_counts), k_left +
    k_top - k_bottom - k_right, is the sum of the plaquette windings of the
    rectangle's cells over the same samples, exactly; times the plane
    orientation it is the charge, as detect_zeros counts it."""
    h, plane = rect.spacing, rect.plane
    x0, x1, y0, y1 = rect.box
    net = 0.0
    for edge, at, vertical, sign in ((bottom, y0, False, -1), (top, y1, False, 1),
                                     (left, x0, True, 1), (right, x1, True, -1)):
        turns = np.angle(edge)
        turns /= _TWO_PI
        net = net + sign * _wrap_counts(np.diff(turns, axis=-1), plane, h, at, vertical).sum(-1)
    return rect.orient * net.astype(np.int64)


# ---------------------------------------------------------------------------
# Local interpolation, batched over cells
# ---------------------------------------------------------------------------

def _coefficients(p: np.ndarray) -> tuple[np.ndarray, ...]:
    """Coefficients (a0, a1, a2, a3) of the Catmull-Rom cubic along the last
    axis of p through p[..., 1] (u=0) and p[..., 2] (u=1): its value is
    a0 + u/2 (a1 + u (a2 + u a3))."""
    p0, p1, p2, p3 = p[..., 0], p[..., 1], p[..., 2], p[..., 3]
    return p1, p2 - p0, 2.0 * p0 - 5.0 * p1 + 4.0 * p2 - p3, 3.0 * (p1 - p2) + p3 - p0


def _cubic(a, u):
    return a[0] + 0.5 * u * (a[1] + u * (a[2] + u * a[3]))


def _cubic_d(a, u):
    return 0.5 * a[1] + u * a[2] + 1.5 * u * u * a[3]


def _bicubic(coef: np.ndarray, xi: np.ndarray, eta: np.ndarray):
    """Value, d/dxi and d/deta of the Catmull-Rom surface through each
    (4, 4) stencil (rows along eta, columns along xi, local cell [0,1]^2)
    at its own point (xi[m], eta[m]); coef is (4, M, 4), the stencils'
    _coefficients along xi stacked, one cubic per stencil row.  The value
    and d/dxi rows take their _coefficients along eta in one pass."""
    u = xi[:, None]
    rows = _coefficients(np.stack([_cubic(coef, u), _cubic_d(coef, u)]))
    f, fx = _cubic(rows, eta)
    return f, fx, _cubic_d([a[0] for a in rows], eta)


def _stencils(grid: FieldGrid, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """(M, 4, 4) stencils of the grid's cells (i, j), from the 4x4 samples
    about each, clipped to the grid, the carrier relative to each cell
    center removed when it matters.

    The demodulation factor is unimodular (zero set unchanged), but it
    perturbs the interpolation error, so a raw stencil is kept whenever
    the carrier varies by less than 0.05 rad across its sample positions
    (clipped to the grid).  A border cell's stencil row or column beyond
    the grid is then extrapolated linearly from the two inside it
    (2 inner - next), so every cell has a stencil.
    """
    o, h, k = grid.origin, grid.spacing, np.arange(-1, 3)
    rows = np.clip(j[:, None] + k, 0, grid.ny - 1)[:, :, None]
    cols = np.clip(i[:, None] + k, 0, grid.nx - 1)[:, None, :]
    samples = grid.values[rows, cols]
    pos = (o.real + h * cols) + 1j * (o.imag + h * rows)
    center = _plane_points(o, h, i[:, None, None], j[:, None, None], 0.5, 0.5)
    gauge = _edge_gauge(grid.plane, center, pos)
    keep = (np.abs(gauge) < 0.05).all(axis=(1, 2))
    # np.multiply, not *: numpy reuses the buffer of a large temporary right
    # operand, and the swapped complex product differs in its last bit
    st = np.where(keep[:, None, None], samples, np.multiply(samples, np.exp(-1j * gauge)))
    for t, c, last in ((st, j, grid.ny - 2), (st.swapaxes(1, 2), i, grid.nx - 2)):
        lo, hi = c == 0, c == last  # rows, then columns of cells
        t[lo, 0] = 2.0 * t[lo, 1] - t[lo, 2]
        t[hi, 3] = 2.0 * t[hi, 2] - t[hi, 1]
    return st


def _bilinear_zeros(a, b, c, d) -> tuple[np.ndarray, np.ndarray]:
    """Zero (xi, eta) of the bilinear interpolant on each unit cell with
    corners a=(0,0), b=(1,0), c=(1,1), d=(0,1), all cells at once.

    Of the real roots xi of the quadratic (at most two, the +sqrt one first)
    in [-_BAND, 1 + _BAND] whose eta also lands there, a root inside the
    cell [0, 1]^2 is taken over one in the band around it, and among roots
    of the same kind the one of smallest residual (the first on ties); it
    is clipped to the cell, and the cell center is taken when there is
    none.  For two exact roots both residuals are rounding noise, so
    position, not residual, decides between the cell's own root and a
    neighbour's.  Real and imaginary parts are combined in the order
    complex arithmetic would use, so each cell gets the bits a one-cell
    solve would give it.
    """
    A, B, C, D = a, b - a, d - a, a - b + c - d
    al = B.real * D.imag - B.imag * D.real
    be = A.real * D.imag + B.real * C.imag - A.imag * D.real - B.imag * C.real
    ga = A.real * C.imag - A.imag * C.real
    linear = np.abs(al) < 1e-300
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        sq = np.sqrt(be * be - 4.0 * al * ga)  # NaN: no real root
        xi = np.stack([(-be + sq) / (2.0 * al), (-be - sq) / (2.0 * al)])
        xi[:, linear] = np.nan
        one = linear & (np.abs(be) > 1e-300)
        xi[0, one] = -ga[one] / be[one]
        den_re, den_im = C.real + D.real * xi, C.imag + D.imag * xi
        num_re, num_im = A.real + B.real * xi, A.imag + B.imag * xi
        # eta from whichever component is better conditioned
        eta = np.where(np.abs(den_re) >= np.abs(den_im), -(num_re / den_re), -(num_im / den_im))
        err = np.hypot(A.real + B.real * xi + C.real * eta + D.real * xi * eta,
                       A.imag + B.imag * xi + C.imag * eta + D.imag * xi * eta)
    ok = ((-_BAND <= xi) & (xi <= 1 + _BAND) & (-_BAND <= eta) & (eta <= 1 + _BAND)
          & (np.maximum(np.abs(den_re), np.abs(den_im)) >= 1e-300))
    inside = ok & (0.0 <= xi) & (xi <= 1.0) & (0.0 <= eta) & (eta <= 1.0)
    second = ok[1] & (~ok[0] | (inside[1] & ~inside[0])
                      | ((inside[1] == inside[0]) & (err[1] < err[0])))
    found = ok[0] | ok[1]
    return (np.where(found, np.clip(np.where(second, xi[1], xi[0]), 0.0, 1.0), 0.5),
            np.where(found, np.clip(np.where(second, eta[1], eta[0]), 0.0, 1.0), 0.5))


def _newton(stencils: np.ndarray, coef: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Local zero (xi, eta) of each stencil's Catmull-Rom surface, coef
    being the stencils' stacked _coefficients; NaN where Newton finds none.

    Twenty Newton steps from the cell center, on all stencils at once.  A
    zero is the iterate of smallest |f| below 1e-3 rms inside
    [-_BAND, 1 + _BAND]^2: only inside the cell, since wandering onto a
    neighboring zero would duplicate it under a foreign winding label.  A
    stencil stops once an iterate has |f| < 1e-12 rms, in the band or not
    (one converged outside it stays there, so it can never become the
    zero), at a singular Jacobian, or when an iterate leaves
    [-0.75, 1.75]^2; the loop ends early once every stencil has stopped.

    The loop steps a working set, the live stencils' coefficients, points,
    thresholds and best iterates, which it compacts only on a step where
    some stencil stops, after writing its best iterates to the result.
    Every live stencil's step is computed, under errstate (a singular one
    divides by zero), and read only for those that go on.
    """
    m = len(stencils)
    rms = np.sqrt(np.mean(np.abs(stencils.reshape(m, 16)) ** 2, axis=1))
    out_xi, out_eta = np.full(m, np.nan), np.full(m, np.nan)
    live, x, y = np.arange(m), np.full(m, 0.5), np.full(m, 0.5)
    near_f, root_f = 1e-3 * rms, 1e-12 * rms
    best_xi, best_eta, best_f = np.full(m, np.nan), np.full(m, np.nan), np.full(m, np.inf)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(20):
            if not live.size:
                break
            f, fx, fy = _bicubic(coef, x, y)
            af = np.abs(f)
            up = ((af < near_f) & (-_BAND <= x) & (x <= 1 + _BAND)
                  & (-_BAND <= y) & (y <= 1 + _BAND) & (af < best_f))
            np.copyto(best_xi, x, where=up)
            np.copyto(best_eta, y, where=up)
            np.copyto(best_f, af, where=up)
            det = fx.real * fy.imag - fx.imag * fy.real
            x = x - (f.real * fy.imag - f.imag * fy.real) / det
            y = y - (fx.real * f.imag - fx.imag * f.real) / det
            go = (~(af < root_f) & (det != 0.0)
                  & (-0.75 <= x) & (x <= 1.75) & (-0.75 <= y) & (y <= 1.75))
            if not go.all():
                out_xi[live], out_eta[live] = best_xi, best_eta
                coef = coef.compress(go, axis=1)  # faster than coef[:, go]
                live, x, y, near_f, root_f, best_xi, best_eta, best_f = (
                    a[go] for a in (live, x, y, near_f, root_f, best_xi, best_eta, best_f))
    out_xi[live], out_eta[live] = best_xi, best_eta
    return out_xi, out_eta


def _refine(st: np.ndarray, newton: bool, orient: int):
    """Local position (xi, eta), refined flag, Jacobian sign and degenerate
    flag of the zero of each flagged cell, all read from one interpolant of
    the cell's demodulated stencil st[m]; orient is the plane orientation of
    the cells' lattice, +1 on the gwhf plane.

    Newton zeros take their gradient from the bicubic surface at their own
    root.  Cells Newton rejects take the root of the bilinear interpolant of
    the stencil's inner corners and that interpolant's gradient there.
    Without Newton, zeros sit at cell centers on the bicubic surface.  The
    sign is the orientation of the interpolant as a planar map, independent
    of the winding that flagged the cell (demodulation is unimodular, so it
    is the field's own sign at a simple zero).  Jacobian magnitudes below
    1e-12 times the squared local gradient scale are flagged degenerate,
    with sign 0, and excluded from statistics.  Every step is element-wise
    over cells, so a cell gets the same bits in any batch.
    """
    half = np.full(len(st), 0.5)
    coef = np.stack(_coefficients(st))
    xi, eta = _newton(st, coef) if newton else (half, half.copy())
    _, fx, fy = _bicubic(coef, xi, eta)  # NaN where Newton found no root
    ok = ~np.isnan(xi)
    a, b, c, d = st[~ok, 1, 1], st[~ok, 1, 2], st[~ok, 2, 2], st[~ok, 2, 1]
    xi[~ok], eta[~ok] = _bilinear_zeros(a, b, c, d)
    fx[~ok] = b - a + (a - b + c - d) * eta[~ok]
    fy[~ok] = d - a + (a - b + c - d) * xi[~ok]
    jac = -orient * np.multiply(fx, np.conj(fy)).imag  # as in _stencils
    scale = np.maximum(np.maximum(np.abs(fx), np.abs(fy)), 1e-300)
    flat = np.abs(jac) < 1e-12 * scale * scale
    sign = np.where(flat, 0, np.where(jac > 0, 1, -1))
    return xi, eta, ok & newton, sign, flat


def _close_pairs(pos: np.ndarray, i: np.ndarray, j: np.ndarray, h: float) -> np.ndarray:
    """(K, 2) index pairs a < b with |pos[a] - pos[b]| < 0.75 h, h being the
    grid's spacing: every pair the degenerate rule flags, from the cell
    lattice.

    Candidate m is the one root of flagged cell (i[m], j[m]), and lies
    within _BAND cells of that cell.  Two candidates
    whose cells are not neighbours are then at least 1 - 2 _BAND cells
    apart, so while _BAND < 0.125 every close pair is a pair of neighbouring
    cells, and each such pair is found once, from the cell whose forward
    neighbour the other is."""
    # one key per cell; the padding keeps every neighbour's key in its own row
    width = j.max(initial=0) + 3
    key = i * width + j + 1
    order = np.argsort(key)
    keys = key[order]
    # the forward neighbours (di, dj) = (1, -1), (1, 0), (1, 1), (0, 1) of
    # every cell, searched at once, neighbour by neighbour
    target = (key + np.array([width - 1, width, width + 1, 1])[:, None]).ravel()
    at = np.searchsorted(keys, target).clip(max=len(keys) - 1)
    hit = np.flatnonzero(keys[at] == target)
    pairs = np.sort(np.column_stack([hit % len(key), order[at[hit]]]), axis=1)
    return pairs[np.abs(pos[pairs[:, 0]] - pos[pairs[:, 1]]) < 0.75 * h]


def detect_zeros(grid: FieldGrid, refine: bool = True) -> ZeroSet:
    """All charged zeros of one grid, attributed by refined position.

    Each plaquette's gauged phase circulation is summed along the
    plane-oriented loop; one unit of winding flags one zero.  A cell with
    |winding| >= 2 raises a ResolutionError asking for a finer grid.  The
    two cells beside an edge share its wrap count, so no zero is flagged
    twice, and the zeros of a block of cells (each refined within _BAND
    cells of its own) carry its boundary circulation.  Zeros closer than
    three quarters of a cell to another are flagged degenerate.  Zeros are
    kept when their refined position lies in grid.interior (position-based,
    so seams do not double count), or anywhere in its extent when the
    interior is None; an interior that does not meet the extent raises
    DomainError.
    """
    ex0, ex1, ey0, ey1 = extent = grid.extent
    x0, x1, y0, y1 = box = extent if grid.interior is None else grid.interior
    if x0 > ex1 or x1 < ex0 or y0 > ey1 or y1 < ey0:
        box_s, extent_s = (", ".join(f"{v:.6g}" for v in b) for b in (box, extent))
        raise DomainError(f"interior ({box_s}) does not meet the grid, "
                          f"whose extent is ({extent_s})")
    # refinement moves no zero over _BAND cells from its cell, so only cells
    # within two cells of the box (their corners within three spacings) can
    # hold a zero in it or its close partner; their stencils reach four
    # cells past the box, the pad both simulators leave by default
    h = grid.spacing
    rect = grid.lattice.within((x0 - 3 * h, x1 + 3 * h, y0 - 3 * h, y1 + 3 * h), "the grid")
    i, j, w = cells(rect, grid.values[rect.j0:rect.j1 + 1, rect.i0:rect.i1 + 1])
    xi, eta, ok, sign, flat = _refine(_stencils(grid, i, j), refine, rect.orient)
    pos = _plane_points(grid.origin, h, i, j, xi, eta)
    # zeros with a partner closer than three quarters of a cell are below
    # the grid's resolving power: their differential cannot be certified
    # from samples, so they carry the degenerate flag (kept in the set,
    # excluded from statistics; an opposite-signed pair cancels in every
    # charge total)
    degenerate = flat
    degenerate[_close_pairs(pos, i, j, h).ravel()] = True
    inside = (x0 <= pos.real) & (pos.real <= x1) & (y0 <= pos.imag) & (pos.imag <= y1)
    order = np.flatnonzero(inside)[np.lexsort((pos.real[inside], pos.imag[inside]))]
    return ZeroSet(position=pos[order], charge=rect.orient * w[order], refined=ok[order],
                   jacobian_sign=sign[order], degenerate=degenerate[order])


@functools.lru_cache(maxsize=8)
def _circle_layout(radii: tuple[float, ...], spacing: float) -> tuple[np.ndarray, ...]:
    """Point counts, first points, circle and angle of each point, offsets
    from the centre and next point of each point of the circles of these
    radii at this spacing, all read-only (they are shared by every call)."""
    r = np.array(radii)
    counts = np.array([_fft_frame(max(16, math.ceil(_TWO_PI * R / spacing))) for R in radii],
                      dtype=int)
    first = np.cumsum(counts) - counts
    ring = np.repeat(np.arange(len(r)), counts)  # circle of each point
    j = np.arange(ring.size) - first[ring]
    theta = _TWO_PI * j / counts[ring]
    layout = (counts, first, ring, theta, r[ring] * np.exp(1j * theta),
              first[ring] + (j + 1) % counts[ring])
    for a in layout:
        a.flags.writeable = False
    return layout


def _turns(v: np.ndarray) -> np.ndarray:
    """Phase of v in turns; a sample that is exactly 0 reads as NaN, so an
    arc with a vanishing end is never settled."""
    turns = np.angle(v)
    turns /= _TWO_PI
    turns[v == 0] = np.nan
    return turns


def _wrap_and_coarse(step: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Wrap counts of arcs whose phase steps, in turns, are `step` (in
    place), and which arcs are coarse: an increment over 1 rad, or a NaN
    step from a vanishing end."""
    wrap = np.rint(step)
    step -= wrap
    return wrap, ~(np.abs(step) <= 1.0 / _TWO_PI)


def circle_charges(field: Callable[[np.ndarray], np.ndarray], center: complex,
                   radii: Sequence[float], spacing: float,
                   start: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
                   ) -> Iterator[np.ndarray]:
    """Charge inside each circle |z - center| = R of each field (the rows of
    field(z)), row by row: its phase winding, by the argument principle.
    Circle k starts from counts[k] points equispaced from angle 0, the
    smallest 7-smooth count (2^a 3^b 5^c 7^d, a fast FFT length) at or
    above ceil(2 pi R_k / spacing) and 16; start(radii, counts), when
    given, gives the rows' values there, circle after circle, in place of
    field (SeriesPlan.circle_values does on circles about the origin).
    Each value's phase is taken once, in turns, and each arc's step, the
    next point's turns less its own, has a wrap count, its nearest integer.
    The steps telescope around the circle, so the winding, the sum of the
    arcs' principal-branch increments (step less wrap count), is exactly
    minus the sum of the arcs' wrap counts.  An arc whose increment is over
    1 rad or with a vanishing end is coarse: its wrap count is left out and
    it is halved, the two halves' counts taking its place, their midpoints
    from field, all in one call a round.  A row with an arc unsettled after
    40 halvings (its field vanishes on or next to the circle) raises
    ResolutionError naming R."""
    counts, first, ring, theta, offsets, nxt = _circle_layout(
        tuple(float(R) for R in radii), float(spacing))
    radii = np.asarray(radii, dtype=float)
    v = field(center + offsets) if start is None else start(radii, counts)
    turns = _turns(v)
    wrap, coarse = _wrap_and_coarse(turns[:, nxt] - turns)
    wrap[coarse] = 0.0
    total = np.add.reduceat(wrap, first, axis=1)
    # coarse arcs (field row, circle, start angle, turns at both ends)
    b, p = np.nonzero(coarse)
    k, ta, tu_a, tu_b = ring[p], theta[p], turns[b, p], turns[b, nxt[p]]
    for halvings in range(1, 41):
        if not b.size:
            break
        tm = ta + _TWO_PI / counts[k] / 2.0 ** halvings
        tu_m = _turns(field(center + radii[k] * np.exp(1j * tm))[b, np.arange(b.size)])
        b, k, ta, tu_a, tu_b = (np.concatenate(pair) for pair in
                                ((b, b), (k, k), (ta, tm), (tu_a, tu_m), (tu_m, tu_b)))
        wrap, coarse = _wrap_and_coarse(tu_b - tu_a)
        np.add.at(total, (b[~coarse], k[~coarse]), wrap[~coarse])
        b, k, ta, tu_a, tu_b = (x[coarse] for x in (b, k, ta, tu_a, tu_b))
    for row, charges in enumerate((-total).astype(int)):
        if row in b:
            raise ResolutionError(f"phase on the circle of radius {radii[k[b == row][0]]:g} "
                                  f"about {center:.4g} not settled after 40 halvings")
        yield charges


# ---------------------------------------------------------------------------
# CSV round trip
# ---------------------------------------------------------------------------

_CSV_HEADER = "x,y,charge,winding,refined,jacobian_sign,degenerate"


def zeros_to_csv(zeros: ZeroSet, path: str) -> None:
    """One row per zero, every ZeroSet field, the charge twice (as charge and
    as winding); flags are written as 0/1."""
    with open(path, "w") as fh:
        fh.write(_CSV_HEADER + "\n")
        for p, c, r, s, d in zip(*(getattr(zeros, f.name).tolist() for f in fields(zeros))):
            fh.write(f"{p.real:.9g},{p.imag:.9g},{c},{c},{int(r)},{s},{int(d)}\n")


def zeros_from_csv(path: str) -> ZeroSet:
    """Read a CSV written by zeros_to_csv.  Any other header (the older
    five-column one included), a malformed row, or a row holding a value
    the writer never writes (a non-finite position, a charge other than
    +-1 or differing from the winding, a jacobian_sign outside {-1, 0, 1},
    a flag other than 0 or 1) raises ContainerError naming the file and
    the row."""
    rows = []
    try:
        with open(path) as fh:
            header = fh.readline().strip()
            if header != _CSV_HEADER:
                raise ValueError(f"header {header!r}, expected {_CSV_HEADER!r}")
            for row, line in enumerate(fh, start=2):
                text = line.strip()
                if not text:
                    continue
                try:
                    xs, ys, cs, ws, rs, js, ds = text.split(",")
                    x, y = float(xs), float(ys)
                    charge, winding, sign, flags = int(cs), int(ws), int(js), (int(rs), int(ds))
                except ValueError as exc:
                    raise ValueError(f"row {row} {text!r}: {exc}") from None
                if not (math.isfinite(x) and math.isfinite(y) and charge in (-1, 1)
                        and winding == charge and sign in (-1, 0, 1) and set(flags) <= {0, 1}):
                    raise ValueError(f"row {row} {text!r} needs finite x and y, charge = "
                                     "winding = +-1, jacobian_sign -1, 0 or 1, flags 0 or 1")
                rows.append((complex(x, y), charge, flags[0], sign, flags[1]))
    except (OSError, ValueError) as exc:  # ValueError covers UnicodeDecodeError
        raise ContainerError(f"{path} is not a zeros CSV: {exc}") from exc
    columns = list(zip(*rows)) or [()] * 5
    return ZeroSet(*(np.array(col, dtype=t)
                     for col, t in zip(columns, (complex, int, bool, int, bool))))
