"""Charged zero extraction from sampled complex fields.

Primary detector: phase winding around each lattice plaquette, accumulated
with *gauged* parallel transport.  Both coordinate planes carry a
deterministic oscillatory carrier (the covariance of neighboring samples
has phase Im(dz conj(z)) on the invariant plane and -2 pi x dy on the
spectrogram plane), so raw principal-branch increments alias once
spacing * |position| approaches pi.  Each edge increment is therefore
demodulated by the carrier advance along the edge; the carrier phases do
not telescope around a plaquette, and the closed-loop defect (+-2 pi times
the charge density times the cell area) is added back before rounding.
That defect is exactly the term responsible for the universal mean charge
density.

The loop orientation is tied to the grid's plane so that the winding *is*
the charge: invariant-plane ("gwhf") grids use the counterclockwise loop
and the charge is the orientation sign of F as a planar map; spectrogram
("stft") grids use the reversed loop, because the change of coordinates to
the invariant plane is orientation-reversing and the charge of a
spectrogram zero is sgn Im[dV/dx conj(dV/dy)] = -sgn det DV.

One call detects one grid or a block of them, all on arrays.  Each grid
in turn gives its windings and the stencils of its flagged cells, border
cells too (their stencils extrapolated past the grid), and is dropped.
Then all flagged cells of the block are refined at once, by Newton on
bicubic stencils and the cells Newton rejects by one bilinear solve; the
merge of duplicates, the degenerate rule and the cut to grid.interior act
within each grid.  Each zero's position and its Jacobian sign come from
one interpolant of one demodulated stencil, so the sign is read at that
interpolant's own root.  The sign is computed from the differential,
independently of the winding; simple zeros must agree (tested, not
assumed).  The zeros of a block are one ZeroSet of parallel arrays with a
realization column, each grid's zeros the same as when it is detected
alone.  circle_charges needs no grid.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import ContainerError, GwhfError, ResolutionError
from .simulate import FieldGrid

__all__ = [
    "ChargedZero", "ZeroSet",
    "detect_zeros", "circle_charges",
    "zeros_to_csv", "zeros_from_csv",
]

_TWO_PI = 2.0 * math.pi
# how far past its cell, in cells, a refined root may lie: Newton and the
# bilinear solve accept roots in [-_BAND, 1 + _BAND]^2 of the cell (the
# bilinear one then clipped to it); _close_pairs needs _BAND < 0.125
_BAND = 0.05


class ChargedZero(NamedTuple):
    """One extracted zero with its plane-oriented charge.

    The loop orientation makes the charge the winding itself, so `winding`
    is a read-only alias of `charge`, kept for the CSV column and for the
    certificate jacobian_sign == winding == charge.  A named tuple: as
    immutable as a frozen dataclass, and about half the cost per zero when
    a ZeroSet is iterated.
    """
    position: complex
    charge: int
    refined: bool
    jacobian_sign: int
    degenerate: bool = False

    @property
    def winding(self) -> int:
        return self.charge


@dataclass(frozen=True, eq=False)
class ZeroSet:
    """The zeros of one grid, or of each grid of a sequence, as parallel
    arrays ordered by (realization, imag, real): position (complex), charge
    (int), refined (bool), jacobian_sign (int), degenerate (bool) and
    realization (int, the grid's position in the sequence; 0 for one grid).
    Iterating it yields one ChargedZero per zero."""
    position: np.ndarray
    charge: np.ndarray
    refined: np.ndarray
    jacobian_sign: np.ndarray
    degenerate: np.ndarray
    realization: np.ndarray

    def __len__(self) -> int:
        return len(self.position)

    def __iter__(self) -> Iterator[ChargedZero]:
        for p, c, r, s, d in zip(self.position.tolist(), self.charge.tolist(),
                                 self.refined.tolist(), self.jacobian_sign.tolist(),
                                 self.degenerate.tolist()):
            yield ChargedZero(p, c, r, s, d)


def _plane_orientation(grid: FieldGrid) -> int:
    return 1 if grid.plane == "gwhf" else -1


def _edge_gauge(plane: str, pa, pb):
    """Deterministic carrier phase advance along the edge pa -> pb.

    E[F(q) conj(F(p))] = H(q-p) exp(i Im((q-p) conj(p))) on the invariant
    plane; on the spectrogram plane the covariance of neighboring samples
    carries exp(-2 pi i x (q_y - p_y)) times a bounded factor.
    """
    if plane == "gwhf":
        return ((pb - pa) * np.conj(0.5 * (pa + pb))).imag
    return -_TWO_PI * 0.5 * (pa.real + pb.real) * (pb.imag - pa.imag)


def _loop_defect(plane: str, spacing: float) -> float:
    # sum of edge gauges around one counterclockwise plaquette
    return (2.0 if plane == "gwhf" else -_TWO_PI) * spacing * spacing


def _plane_points(grid: FieldGrid, i, j, xi, eta):
    """Plane position of the local point (xi, eta) of cell (i, j)."""
    return (grid.origin.real + (i + xi) * grid.spacing
            + 1j * (grid.origin.imag + (j + eta) * grid.spacing))


def _plaquette_windings(grid: FieldGrid) -> np.ndarray:
    """Integer winding of every plaquette, counterclockwise gauged loop.

    Each lattice edge's gauged increment is computed once.  The carrier
    advance along an edge depends on one coordinate only, so the edge
    products are demodulated by broadcasting a per-row or per-column phase
    vector.  A plaquette adds its bottom and right edges and subtracts its
    top and left ones, so the windings of any block of plaquettes sum to
    the gauged circulation around the block's boundary.
    """
    v, h = grid.values, grid.spacing
    horiz = v[:, 1:] * np.conj(v[:, :-1])
    vert = v[1:, :] * np.conj(v[:-1, :])
    if grid.plane == "gwhf":
        horiz *= np.exp(1j * h * grid.ys)[:, None]  # gauge -h y
        vert *= np.exp(-1j * h * grid.xs)  # gauge h x
    else:
        vert *= np.exp(2j * math.pi * h * grid.xs)  # gauge -2 pi h x; horizontal 0
    horiz, vert = np.angle(horiz), np.angle(vert)
    tot = horiz[:-1] + vert[:, 1:] - horiz[1:] - vert[:, :-1]
    tot += _loop_defect(grid.plane, grid.spacing)
    return np.rint(tot / _TWO_PI).astype(int)


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
    _coefficients along xi stacked, one cubic per stencil row."""
    rows = _coefficients(_cubic(coef, xi[:, None]))
    drows = _coefficients(_cubic_d(coef, xi[:, None]))
    return _cubic(rows, eta), _cubic(drows, eta), _cubic_d(rows, eta)


def _stencils(grid: FieldGrid, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """(M, 4, 4) sample stencils around cells (i, j), the carrier relative
    to each cell center removed when it matters.

    The demodulation factor is unimodular (zero set unchanged), but it
    perturbs the interpolation error, so a raw stencil is kept whenever
    the carrier varies by less than 0.05 rad across it.  A border cell's
    stencil row or column beyond the grid is extrapolated linearly from
    the two inside it (2 inner - next), so every cell has a stencil.
    """
    k = np.arange(-1, 3)
    rows = np.clip(j[:, None] + k, 0, grid.ny - 1)[:, :, None]
    cols = np.clip(i[:, None] + k, 0, grid.nx - 1)[:, None, :]
    h = grid.spacing
    pos = (grid.origin.real + h * cols) + 1j * (grid.origin.imag + h * rows)
    gauge = _edge_gauge(grid.plane, _plane_points(grid, i, j, 0.5, 0.5)[:, None, None], pos)
    raw = grid.values[rows, cols]
    keep = np.max(np.abs(gauge), axis=(1, 2)) < 0.05
    st = np.where(keep[:, None, None], raw, raw * np.exp(-1j * gauge))
    for t, c, n in ((st, j, grid.ny), (st.swapaxes(1, 2), i, grid.nx)):  # rows, then columns
        lo, hi = c == 0, c == n - 2
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
    """
    m = len(stencils)
    rms = np.sqrt(np.mean(np.abs(stencils.reshape(m, 16)) ** 2, axis=1))
    xi, eta = np.full(m, 0.5), np.full(m, 0.5)
    best_xi, best_eta, best_f = np.full(m, np.nan), np.full(m, np.nan), np.full(m, np.inf)
    live = np.arange(m)
    for _ in range(20):
        if not live.size:
            break
        x, y = xi[live], eta[live]
        f, fx, fy = _bicubic(coef[:, live], x, y)
        af = np.abs(f)
        near = ((af < 1e-3 * rms[live]) & (-_BAND <= x) & (x <= 1 + _BAND)
                & (-_BAND <= y) & (y <= 1 + _BAND))
        up = near & (af < best_f[live])
        best_xi[live[up]], best_eta[live[up]], best_f[live[up]] = x[up], y[up], af[up]
        det = fx.real * fy.imag - fx.imag * fy.real
        go = ~(af < 1e-12 * rms[live]) & (det != 0.0)
        live, f, fx, fy, det = live[go], f[go], fx[go], fy[go], det[go]
        xi[live] -= (f.real * fy.imag - f.imag * fy.real) / det
        eta[live] -= (fx.real * f.imag - fx.imag * f.real) / det
        x, y = xi[live], eta[live]
        live = live[(-0.75 <= x) & (x <= 1.75) & (-0.75 <= y) & (y <= 1.75)]
    return best_xi, best_eta


def _refine(st: np.ndarray, newton: bool, orient: np.ndarray):
    """Local position (xi, eta), refined flag, Jacobian sign and degenerate
    flag of the zero of each flagged cell, all read from one interpolant of
    the cell's demodulated stencil st[m]; orient is the plane orientation of
    each cell's grid.

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
    jac = -orient * (fx * np.conj(fy)).imag
    scale = np.maximum(np.maximum(np.abs(fx), np.abs(fy)), 1e-300)
    flat = np.abs(jac) < 1e-12 * scale * scale
    sign = np.where(flat, 0, np.where(jac > 0, 1, -1))
    return xi, eta, ok & newton, sign, flat


def _close_pairs(pos: np.ndarray, realization: np.ndarray, i: np.ndarray, j: np.ndarray,
                 h: np.ndarray) -> np.ndarray:
    """(K, 2) index pairs a < b of one realization with
    |pos[a] - pos[b]| < 0.75 h[a], h being each candidate's grid spacing:
    every pair that either close-pair rule can use, from the cell lattice.

    Candidate m is the one root of flagged cell (i[m], j[m]) of its
    realization, and lies within _BAND cells of that cell.  Two candidates
    whose cells are not neighbours are then at least 1 - 2 _BAND cells
    apart, so while _BAND < 0.125 every close pair is a pair of neighbouring
    cells, and each such pair is found once, from the cell whose forward
    neighbour the other is."""
    # one key per cell; the padding keeps every neighbour's key in its own
    # row and realization
    width = j.max(initial=0) + 3
    key = (realization * (i.max(initial=0) + 2) + i) * width + j + 1
    order = np.argsort(key)
    keys = key[order]
    found = []
    for di, dj in ((1, -1), (1, 0), (1, 1), (0, 1)):
        target = key + di * width + dj
        at = np.searchsorted(keys, target).clip(max=len(keys) - 1)
        hit = np.flatnonzero(keys[at] == target)
        found.append(np.column_stack([hit, order[at[hit]]]))
    pairs = np.sort(np.concatenate(found), axis=1)
    return pairs[np.abs(pos[pairs[:, 0]] - pos[pairs[:, 1]]) < 0.75 * h[pairs[:, 0]]]


def _dedup(cells: list[_Cells], realization: np.ndarray, pos: np.ndarray,
           wind: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """Keep-mask over candidates that merges those closer than 0.35 spacing
    (knife-edge zeros claimed by both adjacent cells): the net raw winding
    of the 2x2 block of cells around each cluster decides the surviving
    winding(s).  pairs are the close pairs of _close_pairs; clusters are
    visited in realization order, so a ResolutionError carries the first
    realization that raises."""
    keep = np.ones(len(pos), dtype=bool)
    label = np.arange(len(pos))
    while True:  # each cluster takes its smallest member as label
        low = label.copy()
        np.minimum.at(low, pairs, label[pairs[:, ::-1]])
        if np.array_equal(low, label):
            break
        label = low
    for root in np.unique(label[pairs[:, 0]]):
        r = int(realization[root])
        raw, origin, h, orient = cells[r][:4]
        members = np.flatnonzero(label == root)
        center = np.mean(pos[members])
        i0 = int(round((center.real - origin.real) / h)) - 1
        j0 = int(round((center.imag - origin.imag) / h)) - 1
        if not (0 <= i0 <= raw.shape[1] - 2 and 0 <= j0 <= raw.shape[0] - 2):
            continue
        net = orient * int(raw[j0:j0 + 2, i0:i0 + 2].sum())
        spread = np.max(np.abs(pos[members, None] - pos[None, members]))
        if abs(net) >= 2 and spread < 0.75 * h:
            exc = ResolutionError(
                f"net winding {net} concentrated near {center:.4g}: "
                "multiple zero beyond this grid's resolving power; halve the spacing")
            exc.realization = r
            raise exc
        if net != wind[members].sum():
            keep[members] = False
            keep[members[wind[members] == (1 if net > 0 else -1)][:abs(net)]] = True
    return keep


class _Cells(NamedTuple):
    """What the block steps need of one grid once the grid is dropped: its
    raw windings (kept for the merge, as small integers), origin, spacing,
    plane orientation and interior, and the cells (i, j), plane-oriented
    windings and stencils of its flagged cells."""
    raw: np.ndarray
    origin: complex
    spacing: float
    orient: int
    interior: tuple[float, float, float, float]
    i: np.ndarray
    j: np.ndarray
    wind: np.ndarray
    stencils: np.ndarray


def _flagged_cells(grid: FieldGrid) -> _Cells:
    """The _Cells of one grid.  A cell with |winding| >= 2 raises
    ResolutionError."""
    raw = _plaquette_windings(grid)
    box = grid.extent if grid.interior is None else grid.interior
    x0, x1, y0, y1 = box
    # refinement never moves a candidate outside its own cell, so cells
    # beyond a two-cell pad of the interior cannot contribute; the stencils
    # of those within it reach four cells past the interior, the pad both
    # simulators leave by default
    h = grid.spacing
    i_arr = np.arange(raw.shape[1])
    j_arr = np.arange(raw.shape[0])
    keep_i = ((grid.origin.real + (i_arr + 1) * h >= x0 - 2 * h)
              & (grid.origin.real + i_arr * h <= x1 + 2 * h))
    keep_j = ((grid.origin.imag + (j_arr + 1) * h >= y0 - 2 * h)
              & (grid.origin.imag + j_arr * h <= y1 + 2 * h))
    flagged = raw * (keep_j[:, None] & keep_i[None, :])
    j, i = np.nonzero(flagged)
    w = flagged[j, i]
    multiple = np.flatnonzero(np.abs(w) >= 2)
    if multiple.size:
        k = multiple[0]
        raise ResolutionError(
            f"plaquette near {_plane_points(grid, i[k], j[k], 0.5, 0.5):.4g} holds "
            f"winding {w[k]}; halve the grid spacing")
    orient = _plane_orientation(grid)
    return _Cells(raw.astype(np.int16), grid.origin, h, orient, box,
                  i, j, orient * w, _stencils(grid, i, j))


def detect_zeros(grids: FieldGrid | Iterable[FieldGrid], refine: bool = True) -> ZeroSet:
    """All charged zeros of one grid, or of each grid of a sequence (read
    one at a time: no grid is held once its cells are gathered),
    attributed by refined position.  A single grid is a sequence of one.

    Each plaquette's gauged phase circulation is summed along the
    plane-oriented loop; one unit of winding flags one zero.  A cell with
    |winding| >= 2 raises a ResolutionError asking for a finer grid (a
    principal-branch four-edge loop reaches it only when every edge
    increment is within about spacing^2 of +-pi; coincident zeros are
    caught by the ring check of the merge instead).  Zeros claimed by
    two adjacent cells (knife-edge positions) are merged by a ring
    adjudication.  Zeros are kept when their refined position lies in
    grid.interior (position-based, so seams do not double count), or
    anywhere in its extent when the interior is None.

    Newton, the bilinear fallback and the Jacobian sign run once over the
    flagged cells of all grids; the merge, the degenerate rule and the
    interior cut act within each grid.  Each zero's `realization` is its
    grid's position in the sequence, and the set is ordered by
    (realization, imag, real); every field of a grid's zeros is the same
    whichever sequence the grid is detected in.  A GwhfError raised for a
    grid, or by the sequence while producing it, is raised for the first
    grid that fails, with that grid's position as its `realization`.
    """
    cells, failure = [], None
    try:
        for grid in [grids] if isinstance(grids, FieldGrid) else grids:
            cells.append(_flagged_cells(grid))
            del grid  # hold no grid past its gather
    except GwhfError as exc:
        exc.realization, failure = len(cells), exc
    counts = [len(c.i) for c in cells]

    def joined(name, empty):  # the flagged cells of all grids, in grid order
        return np.concatenate([empty] + [getattr(c, name) for c in cells])

    def per_cell(name):  # a value of each grid, repeated for each of its cells
        return np.repeat(np.array([getattr(c, name) for c in cells]), counts, axis=0)

    realization = np.repeat(np.arange(len(cells)), counts)
    i, j, wind = (joined(name, np.empty(0, int)) for name in ("i", "j", "wind"))
    origin, h = per_cell("origin"), per_cell("spacing")
    xi, eta, ok, sign, flat = _refine(joined("stencils", np.empty((0, 4, 4), complex)),
                                      refine, per_cell("orient"))
    pos = origin.real + (i + xi) * h + 1j * (origin.imag + (j + eta) * h)
    pairs = _close_pairs(pos, realization, i, j, h)
    near = np.abs(pos[pairs[:, 0]] - pos[pairs[:, 1]]) < 0.35 * h[pairs[:, 0]]
    keep = _dedup(cells, realization, pos, wind, pairs[near])
    if failure is not None:
        raise failure
    # zeros with a partner closer than three quarters of a cell are below
    # the grid's resolving power: their differential cannot be certified
    # from samples, so they carry the degenerate flag (kept in the set,
    # excluded from statistics; an opposite-signed pair cancels in every
    # charge total)
    degenerate = flat.copy()
    degenerate[pairs[keep[pairs[:, 0]] & keep[pairs[:, 1]]].ravel()] = True
    x0, x1, y0, y1 = per_cell("interior").reshape(-1, 4).T
    inside = keep & (x0 <= pos.real) & (pos.real <= x1) & (y0 <= pos.imag) & (pos.imag <= y1)
    order = np.flatnonzero(inside)[np.lexsort((pos.real[inside], pos.imag[inside],
                                               realization[inside]))]
    return ZeroSet(position=pos[order], charge=wind[order], refined=ok[order],
                   jacobian_sign=sign[order], degenerate=degenerate[order],
                   realization=realization[order])


def circle_charges(field: Callable[[np.ndarray], np.ndarray], center: complex,
                   radii: Sequence[float], spacing: float,
                   start: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
                   ) -> Iterator[np.ndarray]:
    """Charge inside each circle |z - center| = R of each field (the rows of
    field(z)), row by row: its phase winding, by the argument principle.
    Circle k starts from counts[k] = ceil(2 pi R_k / spacing) points, at
    least 16, equispaced from angle 0; start(radii, counts), when given,
    gives the rows' values there, circle after circle, in place of field
    (SeriesPlan.circle_values does on circles about the origin).  Arcs
    with a phase step over 1 rad or a vanishing end are halved, their
    midpoints from field, all in one call a round.  A row with an arc
    unsettled after 40 halvings (its field vanishes on or next to the
    circle) raises ResolutionError naming R."""
    radii = np.asarray(radii, dtype=float)
    counts = np.maximum(16, np.ceil(_TWO_PI * radii / spacing).astype(int))
    ring = np.repeat(np.arange(len(radii)), counts)  # circle of each point
    j = np.arange(ring.size) - np.repeat(np.cumsum(counts) - counts, counts)
    nxt = np.arange(ring.size) - j + (j + 1) % counts[ring]
    theta = _TWO_PI * j / counts[ring]
    v = (field(center + radii[ring] * np.exp(1j * theta)) if start is None
         else start(radii, counts))
    # arcs (field row, circle, start angle, end values): every one at first
    b, p = np.indices(v.shape).reshape(2, -1)
    k, ta, va, vb = ring[p], theta[p], v[b, p], v[b, nxt[p]]
    total = np.zeros(len(v) * len(radii))
    for halvings in range(41):
        if halvings:
            tm = ta + _TWO_PI / counts[k] / 2.0 ** halvings
            vm = field(center + radii[k] * np.exp(1j * tm))[b, np.arange(b.size)]
            b, k, ta, va, vb = (np.concatenate(pair) for pair in
                                ((b, b), (k, k), (ta, tm), (va, vm), (vm, vb)))
        prod = vb * np.conj(va)
        step = np.angle(prod)
        coarse = ~(np.abs(step) <= 1.0) | (prod == 0)
        total += np.bincount((b * len(radii) + k)[~coarse], step[~coarse], total.size)
        b, k, ta, va, vb = (x[coarse] for x in (b, k, ta, va, vb))
        if not b.size:
            break
    for row, charges in enumerate(np.rint(total.reshape(len(v), -1) / _TWO_PI).astype(int)):
        if row in b:
            raise ResolutionError(f"phase on the circle of radius {radii[k[b == row][0]]:g} "
                                  f"about {center:.4g} not settled after 40 halvings")
        yield charges


# ---------------------------------------------------------------------------
# CSV round trip
# ---------------------------------------------------------------------------

_CSV_HEADER = "x,y,charge,winding,refined,jacobian_sign,degenerate"


def zeros_to_csv(zeros: ZeroSet, path: str) -> None:
    """One row per zero, every ZeroSet field but the realization, the charge
    twice (as charge and as winding); flags are written as 0/1.  The CSV
    has no realization column, so a set holding any realization but 0 (the
    zeros of a block of grids) raises ContainerError naming how many it
    holds."""
    if zeros.realization.any():
        held = np.unique(zeros.realization)
        raise ContainerError(f"{path}: the zero set holds {held.size} "
                             f"realization{'s' * (held.size > 1)} "
                             f"(up to {held[-1]}) and a zeros CSV holds one; "
                             "write each realization's zeros on its own")
    with open(path, "w") as fh:
        fh.write(_CSV_HEADER + "\n")
        for p, c, r, s, d in zip(zeros.position.tolist(), zeros.charge.tolist(),
                                 zeros.refined.tolist(), zeros.jacobian_sign.tolist(),
                                 zeros.degenerate.tolist()):
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
                     for col, t in zip(columns, (complex, int, bool, int, bool))),
                   realization=np.zeros(len(rows), dtype=int))
