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

Every step runs once per grid on arrays: flagged cells, border cells too
(their stencils extrapolated past the grid), are refined by Newton on
bicubic stencils, the cells Newton rejects by one bilinear solve, and
zeros are kept inside grid.interior.  Each zero's position and its
Jacobian sign come from one interpolant of one demodulated stencil, so
the sign is read at that interpolant's own root.  The sign is computed
from the differential, independently of the winding; simple zeros must
agree (tested, not assumed).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import ContainerError, DomainError, ResolutionError
from .simulate import FieldGrid

__all__ = [
    "ChargedZero", "DiskStat",
    "detect_zeros", "disk_stats",
    "zeros_to_csv", "zeros_from_csv",
]

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class ChargedZero:
    """One extracted zero with its plane-oriented charge.

    The loop orientation makes the charge the winding itself, so `winding`
    is a read-only alias of `charge`, kept for the CSV column and for the
    certificate jacobian_sign == winding == charge.
    """
    position: complex
    charge: int
    refined: bool
    jacobian_sign: int
    degenerate: bool = False

    @property
    def winding(self) -> int:
        return self.charge


@dataclass(frozen=True)
class DiskStat:
    center: complex
    radius: float
    count: int
    total_charge: int


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

def _cubic(p, u):
    # Catmull-Rom along the last axis, through p[..., 1] (u=0) and p[..., 2] (u=1)
    p0, p1, p2, p3 = np.moveaxis(p, -1, 0)
    return p1 + 0.5 * u * (p2 - p0 + u * (2.0 * p0 - 5.0 * p1 + 4.0 * p2 - p3
                                          + u * (3.0 * (p1 - p2) + p3 - p0)))


def _cubic_d(p, u):
    p0, p1, p2, p3 = np.moveaxis(p, -1, 0)
    return 0.5 * (p2 - p0) + u * (2.0 * p0 - 5.0 * p1 + 4.0 * p2 - p3) \
        + 1.5 * u * u * (3.0 * (p1 - p2) + p3 - p0)


def _bicubic(stencils: np.ndarray, xi: np.ndarray, eta: np.ndarray):
    """Value, d/dxi and d/deta of the Catmull-Rom surface through each
    (4, 4) stencil (rows along eta, columns along xi, local cell [0,1]^2)
    at its own point (xi[m], eta[m])."""
    rows = _cubic(stencils, xi[:, None])
    drows = _cubic_d(stencils, xi[:, None])
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
    in [-0.05, 1.05] whose eta also lands there, the one of smallest residual is
    taken (the first on ties) and clipped to the cell; the cell center
    when there is none.  Real and imaginary parts are combined in the
    order complex arithmetic would use, so each cell gets the bits a
    one-cell solve would give it.
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
    ok = ((-0.05 <= xi) & (xi <= 1.05) & (-0.05 <= eta) & (eta <= 1.05)
          & (np.maximum(np.abs(den_re), np.abs(den_im)) >= 1e-300))
    second = ok[1] & (~ok[0] | (err[1] < err[0]))
    found = ok[0] | ok[1]
    return (np.where(found, np.clip(np.where(second, xi[1], xi[0]), 0.0, 1.0), 0.5),
            np.where(found, np.clip(np.where(second, eta[1], eta[0]), 0.0, 1.0), 0.5))


def _newton(stencils: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Local zero (xi, eta) of each stencil's Catmull-Rom surface; NaN
    where Newton finds none.

    Twenty Newton steps from the cell center, on all stencils at once.  A
    zero is the iterate of smallest |f| below 1e-3 rms inside
    [-0.05, 1.05]^2: only inside the cell, since wandering onto a
    neighboring zero would duplicate it under a foreign winding label.  A
    stencil stops once such an iterate has |f| < 1e-12 rms, at a singular
    Jacobian, or when an iterate leaves [-0.75, 1.75]^2; the loop ends
    early once every stencil has stopped.
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
        f, fx, fy = _bicubic(stencils[live], x, y)
        af = np.abs(f)
        near = (af < 1e-3 * rms[live]) & (-0.05 <= x) & (x <= 1.05) & (-0.05 <= y) & (y <= 1.05)
        up = near & (af < best_f[live])
        best_xi[live[up]], best_eta[live[up]], best_f[live[up]] = x[up], y[up], af[up]
        det = fx.real * fy.imag - fx.imag * fy.real
        go = ~(near & (af < 1e-12 * rms[live])) & (det != 0.0)
        live, f, fx, fy, det = live[go], f[go], fx[go], fy[go], det[go]
        xi[live] -= (f.real * fy.imag - f.imag * fy.real) / det
        eta[live] -= (fx.real * f.imag - fx.imag * f.real) / det
        x, y = xi[live], eta[live]
        live = live[(-0.75 <= x) & (x <= 1.75) & (-0.75 <= y) & (y <= 1.75)]
    return best_xi, best_eta


def _refine(grid: FieldGrid, i: np.ndarray, j: np.ndarray, newton: bool):
    """Position, refined flag, Jacobian sign and degenerate flag of the zero
    of each flagged cell (i, j), all read from one interpolant of the cell's
    demodulated stencil, gathered once.

    Newton zeros take their gradient from the bicubic surface at their own
    root.  Cells Newton rejects take the root of the bilinear interpolant of
    the stencil's inner corners and that interpolant's gradient there.
    Without Newton, zeros sit at cell centers on the bicubic surface.  The
    sign is the orientation of the interpolant as a planar map, independent
    of the winding that flagged the cell (demodulation is unimodular, so it
    is the field's own sign at a simple zero).  Jacobian magnitudes below
    1e-12 times the squared local gradient scale are flagged degenerate,
    with sign 0, and excluded from statistics.
    """
    st = _stencils(grid, i, j)
    half = np.full(len(i), 0.5)
    xi, eta = _newton(st) if newton else (half, half.copy())
    _, fx, fy = _bicubic(st, xi, eta)  # NaN where Newton found no root
    ok = ~np.isnan(xi)
    a, b, c, d = st[~ok, 1, 1], st[~ok, 1, 2], st[~ok, 2, 2], st[~ok, 2, 1]
    xi[~ok], eta[~ok] = _bilinear_zeros(a, b, c, d)
    fx[~ok] = b - a + (a - b + c - d) * eta[~ok]
    fy[~ok] = d - a + (a - b + c - d) * xi[~ok]
    jac = -_plane_orientation(grid) * (fx * np.conj(fy)).imag
    scale = np.maximum(np.maximum(np.abs(fx), np.abs(fy)), 1e-300)
    flat = np.abs(jac) < 1e-12 * scale * scale
    sign = np.where(flat, 0, np.where(jac > 0, 1, -1))
    return _plane_points(grid, i, j, xi, eta), ok & newton, sign, flat


def _close_pairs(pos: np.ndarray, lim: float) -> np.ndarray:
    """(K, 2) index pairs a < b with |pos[a] - pos[b]| < lim."""
    # the tree compares squared distances; query wider, then apply the strict test
    pairs = cKDTree(np.column_stack([pos.real, pos.imag])).query_pairs(
        2.0 * lim, output_type="ndarray")
    return pairs[np.abs(pos[pairs[:, 0]] - pos[pairs[:, 1]]) < lim]


def _dedup(grid: FieldGrid, raw: np.ndarray, pos: np.ndarray, wind: np.ndarray) -> np.ndarray:
    """Keep-mask over candidates that merges those closer than 0.35 spacing
    (knife-edge zeros claimed by both adjacent cells): the net raw winding
    of the 2x2 block of cells around each cluster decides the surviving
    winding(s)."""
    h = grid.spacing
    keep = np.ones(len(pos), dtype=bool)
    pairs = _close_pairs(pos, 0.35 * h)
    label = np.arange(len(pos))
    while True:  # each cluster takes its smallest member as label
        low = label.copy()
        np.minimum.at(low, pairs, label[pairs[:, ::-1]])
        if np.array_equal(low, label):
            break
        label = low
    for root in np.unique(label[pairs[:, 0]]):
        members = np.flatnonzero(label == root)
        center = np.mean(pos[members])
        i0 = int(round((center.real - grid.origin.real) / h)) - 1
        j0 = int(round((center.imag - grid.origin.imag) / h)) - 1
        if not (0 <= i0 <= raw.shape[1] - 2 and 0 <= j0 <= raw.shape[0] - 2):
            continue
        net = _plane_orientation(grid) * int(raw[j0:j0 + 2, i0:i0 + 2].sum())
        spread = np.max(np.abs(pos[members, None] - pos[None, members]))
        if abs(net) >= 2 and spread < 0.75 * h:
            raise ResolutionError(
                f"net winding {net} concentrated near {center:.4g}: "
                "multiple zero beyond this grid's resolving power; halve the spacing")
        if net != wind[members].sum():
            keep[members] = False
            keep[members[wind[members] == (1 if net > 0 else -1)][:abs(net)]] = True
    return keep


def detect_zeros(grid: FieldGrid, refine: bool = True) -> list[ChargedZero]:
    """All charged zeros of the grid, attributed by refined position.

    Each plaquette's gauged phase circulation is summed along the
    plane-oriented loop; one unit of winding flags one zero.  A cell with
    |winding| >= 2 raises a ResolutionError asking for a finer grid (a
    principal-branch four-edge loop reaches it only when every edge
    increment is within about spacing^2 of +-pi; coincident zeros are
    caught by the ring check of the merge instead).  Zeros claimed by
    two adjacent cells (knife-edge positions) are merged by a ring
    adjudication.  Zeros are kept when their refined position lies in
    grid.interior (position-based, so seams do not double count); a grid
    with margin 0 and no recorded interior keeps its whole extent.
    """
    orient = _plane_orientation(grid)
    raw = _plaquette_windings(grid)
    x0, x1, y0, y1 = grid.interior
    # refinement never moves a candidate outside its own cell, so cells
    # beyond a two-cell pad of the interior cannot contribute
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
    pos, ok, sign, flat = _refine(grid, i, j, refine)
    wind = orient * w
    keep = _dedup(grid, raw, pos, wind)
    pos, ok, sign, flat, wind = pos[keep], ok[keep], sign[keep], flat[keep], wind[keep]
    # zeros with a partner closer than three quarters of a cell are below
    # the grid's resolving power: their differential cannot be certified
    # from samples, so they carry the degenerate flag (kept in the list,
    # excluded from statistics; an opposite-signed pair cancels in every
    # charge total)
    degenerate = flat.copy()
    degenerate[_close_pairs(pos, 0.75 * grid.spacing).ravel()] = True
    inside = (x0 <= pos.real) & (pos.real <= x1) & (y0 <= pos.imag) & (pos.imag <= y1)
    pos, ok, sign, wind, degenerate = (pos[inside], ok[inside], sign[inside], wind[inside],
                                       degenerate[inside])
    return [ChargedZero(position=complex(pos[k]), charge=int(wind[k]),
                        refined=bool(ok[k]), jacobian_sign=int(sign[k]),
                        degenerate=bool(degenerate[k]))
            for k in np.lexsort((pos.real, pos.imag))]


def disk_stats(zeros: list[ChargedZero], center: complex, radii: list[float],
               interior: tuple[float, float, float, float] | None = None
               ) -> list[DiskStat]:
    """Count and signed charge in closed disks around a center.

    Degenerate-flagged zeros are excluded.  When an interior rectangle is
    given, every disk must fit inside it.
    """
    if interior is not None:
        x0, x1, y0, y1 = interior
        rmax = max(radii) if radii else 0.0
        if (center.real - rmax < x0 or center.real + rmax > x1
                or center.imag - rmax < y0 or center.imag + rmax > y1):
            raise DomainError(f"disk of radius {rmax} at {center} exceeds interior {interior}")
    pos = np.array([z.position for z in zeros if not z.degenerate], dtype=complex)
    chg = np.array([z.charge for z in zeros if not z.degenerate], dtype=int)
    stats = []
    for r in radii:
        if pos.size:
            mask = np.abs(pos - center) <= r
            stats.append(DiskStat(center=center, radius=float(r),
                                  count=int(mask.sum()), total_charge=int(chg[mask].sum())))
        else:
            stats.append(DiskStat(center=center, radius=float(r), count=0, total_charge=0))
    return stats


# ---------------------------------------------------------------------------
# CSV round trip
# ---------------------------------------------------------------------------

_CSV_HEADER = "x,y,charge,winding,refined,jacobian_sign,degenerate"


def zeros_to_csv(zeros: list[ChargedZero], path: str) -> None:
    """One row per zero, every ChargedZero field; flags are written as 0/1."""
    with open(path, "w") as fh:
        fh.write(_CSV_HEADER + "\n")
        for z in zeros:
            fh.write(f"{z.position.real:.9g},{z.position.imag:.9g},{z.charge},"
                     f"{z.winding},{int(z.refined)},{z.jacobian_sign},"
                     f"{int(z.degenerate)}\n")


def zeros_from_csv(path: str) -> list[ChargedZero]:
    """Read a CSV written by zeros_to_csv.  Any other header (the older
    five-column one included), a malformed row, or a row holding a value
    the writer never writes (a non-finite position, a charge other than
    +-1 or differing from the winding, a jacobian_sign outside {-1, 0, 1},
    a flag other than 0 or 1) raises ContainerError naming the file and
    the row."""
    out: list[ChargedZero] = []
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
                out.append(ChargedZero(position=complex(x, y), charge=charge,
                                       refined=bool(flags[0]), jacobian_sign=sign,
                                       degenerate=bool(flags[1])))
    except (OSError, ValueError) as exc:  # ValueError covers UnicodeDecodeError
        raise ContainerError(f"{path} is not a zeros CSV: {exc}") from exc
    return out
