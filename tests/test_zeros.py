import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import anchored_plan, synthetic_grid
from gwhf import simulate as S
from gwhf import windows as W
from gwhf import zeros as Z
from gwhf.errors import ContainerError, ParameterError, ResolutionError

PI = math.pi


# ---------------------------------------------------------------------------
# Synthetic fields
# ---------------------------------------------------------------------------

def test_simple_zero_positive():
    grid = synthetic_grid(lambda z: z)
    (z,) = Z.detect_zeros(grid)
    assert z.charge == z.winding == z.jacobian_sign == 1
    assert abs(z.position) < 1e-10
    assert z.refined


def test_simple_zero_negative():
    grid = synthetic_grid(np.conj)
    (z,) = Z.detect_zeros(grid)
    assert z.charge == z.winding == z.jacobian_sign == -1


def test_refine_recovers_analytic_root():
    root = 0.3 + 0.4j
    grid = synthetic_grid(lambda z: (z - root) * np.exp(z), half=0.4, n=41,
                          offset=0.305 + 0.405j)
    (z,) = Z.detect_zeros(grid)
    assert abs(z.position - root) < 1e-6
    assert z.refined


def test_double_zero_raises_resolution_error():
    grid = synthetic_grid(lambda z: z * z, half=1.0, n=21)
    with pytest.raises(ResolutionError):
        Z.detect_zeros(grid)


def test_multiple_separated_roots_with_charges():
    roots = [0.31 + 0.22j, -0.43 - 0.37j, 0.12 - 0.41j]

    def f(z):
        return (z - roots[0]) * (z - roots[1]) * np.conj(z - roots[2])

    grid = synthetic_grid(f, half=1.0, n=161)
    zs = sorted(Z.detect_zeros(grid), key=lambda z: z.position.real)
    assert len(zs) == 3
    got = {}
    for z in zs:
        best = min(roots, key=lambda r: abs(r - z.position))
        assert abs(z.position - best) < 5e-4
        got[best] = z.charge
    assert got[roots[0]] == 1 and got[roots[1]] == 1 and got[roots[2]] == -1


# ---------------------------------------------------------------------------
# Realization-level behavior
# ---------------------------------------------------------------------------

def test_refined_positions_stay_near_cells(hermites):
    grid = S.FieldSource({"family": "series-gef"}, (-3, 3, -3, 3), 0.1).realize(2)
    zs = Z.detect_zeros(grid)
    assert zs, "expected zeros on this domain"
    for z in zs:
        i = round((z.position.real - grid.origin.real) / grid.spacing - 0.5)
        j = round((z.position.imag - grid.origin.imag) / grid.spacing - 0.5)
        center = grid.origin + complex((i + 0.5) * grid.spacing,
                                       (j + 0.5) * grid.spacing)
        assert abs(z.position - center) <= grid.spacing


def test_gef_series_all_positive_charges():
    zs = Z.detect_zeros(S.FieldSource({"family": "series-gef"}, (-4, 4, -4, 4), 0.05).realize(3))
    assert zs and all(z.charge == 1 for z in zs if not z.degenerate)


def test_weight_transform_preserves_charges():
    grid = S.FieldSource({"family": "series-gef"}, (-4, 4, -4, 4), 0.05).realize(13)
    zz = grid.xs[None, :] + 1j * grid.ys[:, None]
    unweighted = S.FieldGrid(values=grid.values * np.exp(0.5 * np.abs(zz) ** 2),
                             origin=grid.origin, spacing=grid.spacing,
                             plane=grid.plane, seed=grid.seed,
                             interior=grid.interior, meta=grid.meta)
    za = Z.detect_zeros(grid)
    zb = list(Z.detect_zeros(unweighted))
    assert len(za) == len(zb)
    pa = np.array([z.position for z in za])
    pb = np.array([z.position for z in zb])
    match = np.abs(pa[:, None] - pb[None, :]).argmin(axis=1)
    for k, z in enumerate(za):
        other = zb[match[k]]
        assert abs(z.position - other.position) < grid.spacing / 2
        assert z.charge == other.charge


def test_plane_equivariance(hermites):
    # the stft-plane source and the gwhf-plane one over the image of its domain
    spec = {"family": "window", "window": hermites[1]}
    stft = S.FieldSource(spec, (0, 6, 0, 6), 1 / 16, 1 / 64).realize(17)
    gwhf = S.FieldSource(dict(spec, plane="gwhf"), S._gwhf_box((0, 6, 0, 6)),
                         math.sqrt(PI) / 16, 1 / 64).realize(17)
    za = Z.detect_zeros(stft)
    zb = list(Z.detect_zeros(gwhf))
    assert len(za) == len(zb)
    mapped = np.array([math.sqrt(PI) * np.conj(z.position) for z in za])
    pb = np.array([z.position for z in zb])
    match = np.abs(mapped[:, None] - pb[None, :]).argmin(axis=1)
    assert sorted(match.tolist()) == list(range(len(zb)))
    for k, z in enumerate(za):
        assert abs(mapped[k] - pb[match[k]]) < 1e-9
        assert z.charge == zb[match[k]].charge


def test_winding_jacobian_agreement_on_realizations(hermites):
    plan = S.StftPlan(hermites[1], (0, 8, 0, 8), 1 / 16, 1 / 64)
    for r in range(5):
        for z in Z.detect_zeros(plan.realize(S.stream(23, r))):
            if not z.degenerate:
                assert z.jacobian_sign == z.winding == z.charge


_STFT_H1 = ({"family": "window", "window": "hermite:1"}, (0, 8, 0, 8), 1 / 16)
_POLY3 = ({"family": "polyentire", "q": 3, "kind": "full"}, (-6.5, 6.5, -6.5, 6.5), 0.08)


@pytest.mark.parametrize("source, seed, r, near, margin0", [
    (_STFT_H1, 204000012, 5, 0.8495 + 1.4989j, False),
    (_STFT_H1, 26000020, 2, 0.9175 + 4.1451j, False),
    (_POLY3, 777, 2, 14.969 - 15.913j, True),
], ids=["stft-204000012-5", "stft-26000020-2", "poly3-margin0-777-2"])
def test_newton_rejected_zero_sign_matches_winding(source, seed, r, near, margin0):
    # Newton rejects these cells; the sign is read from the bilinear
    # interpolant whose root places the zero, so it matches the winding
    src = S.FieldSource(*source, 1 / 64)
    grid = src.realize(seed, r)
    if margin0:  # the zero lies in the anchored plan's grid, beyond the default pad
        plan = anchored_plan(src.plan)
        grid = plan.realize([S.stream(seed, r, k) for k in range(len(plan.windows))], seed)
        grid = dataclasses.replace(grid, interior=None)
    z = min(Z.detect_zeros(grid), key=lambda z: abs(z.position - near))
    assert abs(z.position - near) < 1e-3
    assert not z.degenerate and not z.refined
    assert z.jacobian_sign == z.charge == 1


def test_detection_regression_fixture(hermites):
    # frozen after the first run with the documented default seed
    grid = S.FieldSource({"family": "window", "window": hermites[1]},
                         (0, 8, 0, 8), 1 / 16, 1 / 64).realize(0xC0FFEE)
    zs = [z for z in Z.detect_zeros(grid) if not z.degenerate]
    assert len(zs) == 109
    assert sum(z.charge for z in zs) == 67
    total = sum(z.position for z in zs)
    assert abs(total - (441.04677155854233 + 430.50315312492694j)) < 1e-9


@pytest.mark.parametrize("edge", [0.99 - 0.4j, -0.96 + 0.4j, 0.4 - 0.97j, 0.5 + 0.99j,
                                  -0.96 - 0.97j],
                         ids=["right", "left", "bottom", "top", "corner"])
@pytest.mark.parametrize("plane", ["gwhf", "stft"])
def test_edge_zero_without_refinement_or_interior_cut(plane, edge):
    # one zero well inside and one in a border cell (on each side, and in
    # the corner cell (0, 0)), whose 4x4 stencil reaches past the grid: the
    # missing row or column is extrapolated linearly, so Newton refines the
    # edge zero and its sign comes from the same bicubic surface as inside.
    # An interior 0.1 inside the extent cuts the edge zero; the same samples
    # with no interior keep the whole extent.  The stft plane's carrier is
    # demodulated, which costs interpolation accuracy on this unmodulated field.
    inner = -0.31 + 0.22j
    orient = 1 if plane == "gwhf" else -1  # the charge of a holomorphic zero
    whole = synthetic_grid(lambda z: (z - inner) * np.conj(z - edge), plane=plane)
    x0, x1, y0, y1 = whole.extent
    x0, x1, y0, y1 = box = (x0 + 0.1, x1 - 0.1, y0 + 0.1, y1 - 0.1)
    grid = dataclasses.replace(whole, interior=box)
    assert not (x0 <= edge.real <= x1 and y0 <= edge.imag <= y1)
    cell = (edge - grid.origin) / grid.spacing
    assert cell.real // 1 in (0, grid.nx - 2) or cell.imag // 1 in (0, grid.ny - 2)
    (z_in,) = Z.detect_zeros(grid)
    assert abs(z_in.position - inner) < (1e-9 if plane == "gwhf" else 1e-4) and z_in.refined
    z_edge, z_in2 = sorted(Z.detect_zeros(whole), key=lambda z: abs(z.position - edge))
    assert z_in2 == z_in
    assert abs(z_edge.position - edge) < (1e-3 if plane == "gwhf" else 3e-3) and z_edge.refined
    assert z_edge.charge == z_edge.jacobian_sign == -orient and not z_edge.degenerate
    # without refinement every zero sits at its cell center
    centers = sorted(Z.detect_zeros(whole, refine=False), key=lambda z: abs(z.position - edge))
    for z, root, charge in zip(centers, (edge, inner), (-orient, orient)):
        offset = (z.position - grid.origin) / grid.spacing
        assert abs(offset.real % 1 - 0.5) < 1e-9 and abs(offset.imag % 1 - 0.5) < 1e-9
        assert abs(z.position - root) < grid.spacing
        assert z.charge == z.jacobian_sign == charge and not z.refined


def _bilinear_cell_zero(a, b, c, d):
    """One cell at a time, as the detector solved its bilinear fallback
    before the solve was batched: the reference for Z._bilinear_zeros.  A
    root inside the cell beats one in the band around it; among roots of
    one kind the smaller residual wins, the first on ties."""
    A, B, C, D = a, b - a, d - a, a - b + c - d
    al = B.real * D.imag - B.imag * D.real
    be = A.real * D.imag + B.real * C.imag - A.imag * D.real - B.imag * C.real
    ga = A.real * C.imag - A.imag * C.real
    roots = []
    if abs(al) < 1e-300:
        if abs(be) > 1e-300:
            roots.append(-ga / be)
    else:
        disc = be * be - 4.0 * al * ga
        if disc >= 0.0:
            sq = math.sqrt(disc)
            roots.extend([(-be + sq) / (2.0 * al), (-be - sq) / (2.0 * al)])
    best = None
    for xi in roots:
        if not -0.05 <= xi <= 1.05:
            continue
        den = C + D * xi
        num = A + B * xi
        if max(abs(den.real), abs(den.imag)) < 1e-300:
            continue
        eta = -(num.real / den.real) if abs(den.real) >= abs(den.imag) else -(num.imag / den.imag)
        if -0.05 <= eta <= 1.05:
            rank = (not (0.0 <= xi <= 1.0 and 0.0 <= eta <= 1.0),
                    abs(A + B * xi + C * eta + D * xi * eta))
            if best is None or rank < best[2]:
                best = (xi, eta, rank)
    if best is None:
        return 0.5, 0.5
    return min(max(best[0], 0.0), 1.0), min(max(best[1], 0.0), 1.0)


def _corner_sets():
    """Seeded (a, b, c, d) corner arrays at (0,0), (1,0), (1,1), (0,1)."""
    rng = np.random.default_rng(2024)

    def cn(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    a, b, c, d = cn(4, 4000)
    # parallelogram: dyadic corners, so a - b + c - d is exactly 0 (al = 0)
    pa, pb, pc = np.round(64 * cn(3, 1000)) / 64
    # a zero corner, at (0,0) and at (1,1)
    za, zb, zc, zd = cn(4, 1000)
    za[:500], zc[500:] = 0, 0
    # no real root: f = (xi + i) + (1 - i xi) eta never vanishes, turned by w
    w = cn(1000)
    # an affine field whose root sits on an edge of the [-0.05, 1.05] band
    # or within 1e-9 of it
    edge = np.array([-0.05, 1.05])[rng.integers(0, 2, (2, 1000))]
    x0, y0 = edge + 1e-9 * rng.choice([-1.0, 0.0, 1.0], (2, 1000))
    # exact roots (x1, y1) in the band past the left or right edge and
    # (x2, y2) inside: f = w [(xi - x1)(eta - y2) + i (xi - x2)(eta - y1)]
    x1 = np.where(rng.uniform(size=1000) < 0.5, -1, 1) * rng.uniform(0.001, 0.05, 1000)
    x1[x1 > 0] += 1
    y1, (x2, y2) = rng.uniform(-0.05, 1.05, 1000), rng.uniform(0.05, 0.95, (2, 1000))

    def two_roots(xi, eta):
        return w * ((xi - x1) * (eta - y2) + 1j * (xi - x2) * (eta - y1))

    return {
        "random": (a, b, c, d),
        "parallelogram": (pa, pb, pc, pa - pb + pc),
        "zero-corner": (za, zb, zc, zd),
        "no-real-root": (1j * w, (1 + 1j) * w, 2 * w, (1 + 1j) * w),
        "just-outside": (-x0 - 1j * y0, 1 - x0 - 1j * y0, 1 - x0 + 1j * (1 - y0),
                         -x0 + 1j * (1 - y0)),
        # coefficients below the 1e-300 cut-offs, though their quadratic is not 0
        "tiny": (1e-151 * a[:1000], 1e-151 * b[:1000], 1e-151 * c[:1000], 1e-151 * d[:1000]),
        "band-and-inside": (two_roots(0, 0), two_roots(1, 0), two_roots(1, 1),
                            two_roots(0, 1), x2, y2),
    }


@pytest.mark.parametrize("kind", ["random", "parallelogram", "zero-corner",
                                  "no-real-root", "just-outside", "tiny", "band-and-inside"])
def test_batched_bilinear_matches_scalar(kind):
    a, b, c, d, *inside = _corner_sets()[kind]
    ref = np.array([_bilinear_cell_zero(*corners) for corners in zip(a, b, c, d)])
    xi, eta = Z._bilinear_zeros(a, b, c, d)
    assert np.array_equal(xi, ref[:, 0]) and np.array_equal(eta, ref[:, 1])
    center = (ref == 0.5).all(axis=1)
    if kind in ("no-real-root", "tiny"):
        assert center.all()
    elif kind == "just-outside":
        assert 0 < center.sum() < len(center)  # roots just inside are kept
    else:
        assert not center.all()
    if inside:  # the root inside the cell, whichever residual is smaller
        assert np.allclose(xi, inside[0], rtol=0, atol=1e-9)
        assert np.allclose(eta, inside[1], rtol=0, atol=1e-9)


def _newton_reference(stencils):
    """Z._newton as it was before the xi-coefficients were computed once
    per call and a stencil stopped at a root outside the band: every
    surface evaluation rebuilds its cubics from the stencil, and only a
    root inside the band stops a stencil.  The reference for Z._newton."""
    def cubic(p, u):
        p0, p1, p2, p3 = np.moveaxis(p, -1, 0)
        return p1 + 0.5 * u * (p2 - p0 + u * (2.0 * p0 - 5.0 * p1 + 4.0 * p2 - p3
                                              + u * (3.0 * (p1 - p2) + p3 - p0)))

    def cubic_d(p, u):
        p0, p1, p2, p3 = np.moveaxis(p, -1, 0)
        return 0.5 * (p2 - p0) + u * (2.0 * p0 - 5.0 * p1 + 4.0 * p2 - p3) \
            + 1.5 * u * u * (3.0 * (p1 - p2) + p3 - p0)

    m, band = len(stencils), Z._BAND
    rms = np.sqrt(np.mean(np.abs(stencils.reshape(m, 16)) ** 2, axis=1))
    xi, eta = np.full(m, 0.5), np.full(m, 0.5)
    best_xi, best_eta, best_f = np.full(m, np.nan), np.full(m, np.nan), np.full(m, np.inf)
    live = np.arange(m)
    for _ in range(20):
        if not live.size:
            break
        x, y = xi[live], eta[live]
        rows, drows = cubic(stencils[live], x[:, None]), cubic_d(stencils[live], x[:, None])
        f, fx, fy = cubic(rows, y), cubic(drows, y), cubic_d(rows, y)
        af = np.abs(f)
        near = ((af < 1e-3 * rms[live]) & (-band <= x) & (x <= 1 + band)
                & (-band <= y) & (y <= 1 + band))
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


def _outside_root_stencil():
    """Samples of f = (xi + 0.16) + i (eta - 0.5) at xi, eta = -1 .. 2: a
    surface whose only root lies 0.16 cells left of the cell, beyond the
    band.  Catmull-Rom reproduces it exactly, so Newton converges there."""
    u = np.arange(-1.0, 3.0)
    return ((u[None, :] + 0.16) + 1j * (u[:, None] - 0.5))[None]


@pytest.mark.parametrize("spec, domain, spacing", [
    _STFT_H1[0:3],
    ({"family": "window", "window": "hermite:1", "plane": "gwhf"}, (-6, 6, -6, 6), 0.1),
    _POLY3[0:3],
], ids=["stft-h1", "gwhf-h1", "poly3-full"])
def test_newton_matches_reference_loop_bit_for_bit(spec, domain, spacing):
    grids = S.FieldSource(spec, domain, spacing, 1 / 64).realize_batch(44, range(16))
    st = np.concatenate([Z._flagged_cells(g).stencils for g in grids]
                        + [_outside_root_stencil()])
    xi, eta = Z._newton(st, np.stack(Z._coefficients(st)))
    ref_xi, ref_eta = _newton_reference(st)
    assert len(st) > 500 and np.isnan(xi[:-1]).any() and np.isnan(xi[-1])
    assert np.array_equal(xi, ref_xi, equal_nan=True)
    assert np.array_equal(eta, ref_eta, equal_nan=True)


def test_newton_stops_at_a_root_outside_the_band(monkeypatch):
    st = _outside_root_stencil()
    calls = []
    bicubic = Z._bicubic

    def counted(*args):
        calls.append(1)
        return bicubic(*args)

    monkeypatch.setattr(Z, "_bicubic", counted)
    xi, eta = Z._newton(st, np.stack(Z._coefficients(st)))
    # one step from the center reaches the root, where |f| < 1e-12 rms stops it
    assert np.isnan(xi).all() and np.isnan(eta).all() and len(calls) == 2


def _all_close_pairs(pos, realization, h):
    """The pairs _close_pairs must give, from every pair of candidates."""
    a, b = np.triu_indices(len(pos), 1)
    close = (realization[a] == realization[b]) & (np.abs(pos[a] - pos[b]) < 0.75 * h[a])
    return np.column_stack([a[close], b[close]])


@pytest.mark.parametrize("seed", range(8))
def test_close_pairs_match_all_pairs(seed):
    # realizations of different sizes, spacings and origins, two of them on
    # one geometry; one candidate in each of most cells, anywhere in the band
    # Newton accepts around its cell, the band's edges included; candidates
    # in random order
    rng = np.random.default_rng(seed)
    band = Z._BAND
    parts = []
    for r, (nx, ny, origin, h) in enumerate([(7, 5, -1.3 + 0.4j, 0.1), (4, 9, 2.0 - 1.0j, 0.25),
                                             (6, 6, 0j, 1 / 16), (6, 6, 0j, 1 / 16)]):
        j, i = np.divmod(np.flatnonzero(rng.uniform(size=nx * ny) < 0.6), nx)
        xi, eta = rng.uniform(-band, 1 + band, size=(2, len(i)))
        edge = rng.uniform(size=(2, len(i))) < 0.2
        xi[edge[0]], eta[edge[1]] = (rng.choice([-band, 1 + band], size=k) for k in edge.sum(1))
        pos = origin.real + (i + xi) * h + 1j * (origin.imag + (j + eta) * h)
        parts.append((np.full(len(i), r), i, j, np.full(len(i), h), pos))
    columns = [np.concatenate(col) for col in zip(*parts)]
    shuffle = rng.permutation(len(columns[0]))
    realization, i, j, h, pos = (col[shuffle] for col in columns)
    ref = _all_close_pairs(pos, realization, h)
    got = Z._close_pairs(pos, realization, i, j, h)
    assert len(ref) > 10
    assert np.array_equal(got[np.lexsort(got.T[::-1])], ref)


def test_close_pairs_of_no_candidate_and_of_one():
    for n in (0, 1):
        pairs = Z._close_pairs(np.full(n, 0.5 + 0.5j), np.zeros(n, int), np.zeros(n, int),
                               np.zeros(n, int), np.ones(n))
        assert pairs.shape == (0, 2)


@pytest.mark.parametrize("newton", [True, False])
def test_refined_roots_stay_in_the_band(newton):
    # the premise of the lattice search in _close_pairs
    rng = np.random.default_rng(11)
    st = rng.normal(size=(4000, 4, 4)) + 1j * rng.normal(size=(4000, 4, 4))
    xi, eta, refined, _, _ = Z._refine(st, newton, np.ones(4000, int))
    assert refined.any() == newton and not refined.all()
    for u in (xi, eta):
        assert ((-Z._BAND <= u) & (u <= 1 + Z._BAND)).all()


def _full_grid_windings(grid):
    """Plaquette windings with the carrier removed by a full-grid gauge
    exponential per edge direction, as the detector computed them before it
    took the gauge as per-row and per-column phase vectors."""
    v = grid.values
    p = grid.xs[None, :] + 1j * grid.ys[:, None]

    def inc(a, b):
        pa, pb = p[a], p[b]
        if grid.plane == "gwhf":
            gauge = ((pb - pa) * np.conj(0.5 * (pa + pb))).imag
        else:
            gauge = -2 * PI * 0.5 * (pa.real + pb.real) * (pb.imag - pa.imag)
        return np.angle(v[b] * np.conj(v[a]) * np.exp(-1j * gauge))

    horiz = inc(np.s_[:, :-1], np.s_[:, 1:])
    vert = inc(np.s_[:-1, :], np.s_[1:, :])
    defect = (2.0 if grid.plane == "gwhf" else -2 * PI) * grid.spacing ** 2
    tot = horiz[:-1] + vert[:, 1:] - horiz[1:] - vert[:, :-1] + defect
    return np.rint(tot / (2 * PI)).astype(int)


@pytest.mark.parametrize("spec, domain, spacing", [
    ({"family": "window", "window": "hermite:1"}, (0, 8, 0, 8), 1 / 16),
    ({"family": "window", "window": "hermite:1", "plane": "gwhf"}, (-5, 5, -5, 5), 0.08),
    ({"family": "polyentire", "q": 3, "kind": "full"}, (-6.5, 6.5, -6.5, 6.5), 0.08),
    ({"family": "series-gef"}, (-6.5, 6.5, -6.5, 6.5), 0.08),
], ids=["stft-window", "gwhf-window", "polyentire-full", "series"])
def test_windings_match_full_grid_gauge(spec, domain, spacing):
    source = S.FieldSource(spec, domain, spacing, 1 / 64)
    for r in range(3):
        grid = source.realize(61, r)
        windings = Z._plaquette_windings(grid)
        assert np.count_nonzero(windings) > 50
        assert np.array_equal(windings, _full_grid_windings(grid))


@pytest.fixture(scope="module", params=["stft", "gwhf"])
def realization(request):
    if request.param == "stft":
        return S.FieldSource({"family": "window", "window": W.hermite(1)},
                             (0, 4, 0, 4), 1 / 16, 1 / 64).realize(41)
    return S.FieldSource({"family": "series-gef"}, (-3, 3, -3, 3), 0.1).realize(41)


def _boundary_winding(grid, i0, j0, w, h):
    """Gauged circulation, in turns, around the w x h block of cells whose
    lower-left cell is (i0, j0), walked counterclockwise along its edge."""
    walk = ([(i0 + k, j0) for k in range(w)] + [(i0 + w, j0 + k) for k in range(h)]
            + [(i0 + w - k, j0 + h) for k in range(w)]
            + [(i0, j0 + h - k) for k in range(h)] + [(i0, j0)])
    i, j = np.array(walk).T
    pos = grid.origin + grid.spacing * (i + 1j * j)
    vals = grid.values[j, i]
    inc = np.angle(vals[1:] * np.conj(vals[:-1])
                   * np.exp(-1j * Z._edge_gauge(grid.plane, pos[:-1], pos[1:])))
    total = inc.sum() + Z._loop_defect(grid.plane, grid.spacing) * w * h
    return int(np.rint(total / (2 * PI)))


@settings(max_examples=60)
@given(data=st.data())
def test_block_windings_match_boundary_circulation(realization, data):
    # argument principle: the plaquette windings of any block of cells sum
    # to the gauged circulation around the block's boundary
    grid = realization
    windings = Z._plaquette_windings(grid)
    ny, nx = windings.shape
    w = data.draw(st.integers(1, nx), label="w")
    h = data.draw(st.integers(1, ny), label="h")
    i0 = data.draw(st.integers(0, nx - w), label="i0")
    j0 = data.draw(st.integers(0, ny - h), label="j0")
    assert windings[j0:j0 + h, i0:i0 + w].sum() == _boundary_winding(grid, i0, j0, w, h)


# ---------------------------------------------------------------------------
# Blocks of grids
# ---------------------------------------------------------------------------

_FIELDS = [f.name for f in dataclasses.fields(Z.ZeroSet) if f.name != "realization"]


@pytest.mark.parametrize("refine", [True, False])
@pytest.mark.parametrize("spec, domain, spacing", [
    ({"family": "window", "window": "hermite:1"}, (0, 8, 0, 8), 1 / 16),
    ({"family": "window", "window": "hermite:1", "plane": "gwhf"}, (-5, 5, -5, 5), 0.08),
    ({"family": "polyentire", "q": 3, "kind": "full"}, (-6.5, 6.5, -6.5, 6.5), 0.08),
    ({"family": "series-gef"}, (-6.5, 6.5, -6.5, 6.5), 0.08),
], ids=["stft-window", "gwhf-window", "polyentire-full", "series"])
def test_block_detection_equals_one_grid_at_a_time(spec, domain, spacing, refine):
    # eight realizations and, fifth, a grid with no flagged cell,
    # detected in blocks of 1, 3 and 8: every field of every grid's zeros
    # is == to that grid detected alone, dtype included
    source = S.FieldSource(spec, domain, spacing, 1 / 64)
    grids = list(source.realize_batch(59, range(8)))
    # a unimodular field following the plane's carrier: no zero, no winding
    g = grids[0]
    phase = -2 * PI * g.xs * (g.ys - g.ys.mean())[:, None] if g.plane == "stft" else 0.0
    flat = dataclasses.replace(g, values=np.exp(1j * phase) * np.ones_like(g.values))
    assert not Z._plaquette_windings(flat).any()
    grids.insert(4, flat)
    alone = [Z.detect_zeros(g, refine=refine) for g in grids]
    assert not len(alone[4]) and all(len(zs) > 10 for k, zs in enumerate(alone) if k != 4)
    for zs in alone:
        assert zs.realization.dtype == int and not zs.realization.any()
    for size in (1, 3, 8):
        for lo in range(0, len(grids), size):
            block = Z.detect_zeros(iter(grids[lo:lo + size]), refine=refine)
            n = min(size, len(grids) - lo)
            assert np.all(np.diff(block.realization) >= 0) and np.all(block.realization < n)
            for b in range(n):
                mine = block.realization == b
                for name in _FIELDS:
                    got, want = getattr(block, name)[mine], getattr(alone[lo + b], name)
                    assert got.dtype == want.dtype and np.array_equal(got, want), \
                        (size, lo + b, name)


def test_block_error_names_the_first_grid_that_fails():
    # a grid the sequence fails to make, and a double zero the merge
    # refuses: the error raised is that of the earliest failing grid, whose
    # position it carries; grids after it are never read
    good, double = synthetic_grid(lambda z: z), synthetic_grid(lambda z: z * z, n=21)

    def grids(*kinds):
        for kind in kinds:
            if kind == "unmade":
                S.FieldGrid(values=np.ones((1, 1)), origin=0j, spacing=0.1, plane="gwhf",
                            seed=0)
            yield good if kind == "good" else double

    with pytest.raises(ParameterError, match="at least") as info:
        Z.detect_zeros(grids("good", "good", "unmade", "double"))
    assert info.value.realization == 2
    with pytest.raises(ResolutionError, match="net winding 2") as info:
        Z.detect_zeros(grids("good", "double", "good", "unmade"))
    assert info.value.realization == 1
    with pytest.raises(ResolutionError, match="net winding 2") as info:
        Z.detect_zeros(double)
    assert info.value.realization == 0


# ---------------------------------------------------------------------------
# Disk charges from circles (argument principle)
# ---------------------------------------------------------------------------

def test_circle_charges_of_known_fields():
    # row 0 holomorphic with zeros at 0.5 and 1.5+0.2i, row 1 antiholomorphic
    # with its zero at -0.3; a circle of radius 2 about 0.1 holds all three
    def field(z):
        return np.stack([(z - 0.5) * (z - (1.5 + 0.2j)), np.conj(z) + 0.3])

    charges = np.array(list(Z.circle_charges(field, 0.1 + 0j, [0.2, 1.0, 2.0], 0.1)))
    assert charges.tolist() == [[0, 1, 2], [0, -1, -1]]


@pytest.mark.parametrize("root", [1.0 + 0j, complex(math.cos(0.1234), math.sin(0.1234))])
def test_circle_charges_refuse_a_zero_on_the_circle(root):
    # one zero on a sample point, one between two: both leave an arc that
    # never settles; the rows before it still come out, then the error
    # names the radius
    rows = Z.circle_charges(lambda z: np.stack([z, z - root]), 0j, [0.5, 1.0], 0.05)
    assert next(rows).tolist() == [1, 1]
    with pytest.raises(ResolutionError, match=r"^phase on the circle of radius 1 about 0"):
        next(rows)


def _exact_root(coeffs, rho, z0):
    """Newton on the series polynomial sum_n coeffs[n] (z/rho)^n from z0."""
    poly = np.polynomial.Polynomial(coeffs)
    slope = poly.deriv()
    w = z0 / rho
    for _ in range(30):
        w = w - poly(w) / slope(w)
    return w * rho


@pytest.mark.parametrize("domain, spacing, center, radii", [
    ((-6.5, 6.5, -6.5, 6.5), 0.08, 0j, (1.0, 2.0, 3.0, 4.0, 5.0, 6.0)),  # criterion 6
    ((0.0, 8.0, 0.0, 8.0), 1 / 16, 4 + 4j, (1.0, 2.0, 3.0, 4.0)),  # away from the origin
])
def test_circle_charges_match_detector_disk_charges(domain, spacing, center, radii):
    # 200 series realizations: the charge counted on each circle equals the
    # detector's disk charge, except where the exact root next to the
    # circle lies within 1e-3 cells of it.  About the origin the charges
    # started from the FFT circle values equal those of the evaluator.
    plan = S.SeriesPlan(domain, spacing)
    for lo in range(0, 200, 8):
        rs = range(lo, lo + 8)
        coeffs = plan.coefficients([S.stream(77, r, 0) for r in rs])
        circle = np.array(list(Z.circle_charges(lambda z: plan.evaluate(coeffs, z), center,
                                                radii, spacing)))
        if center == 0:
            fft = Z.circle_charges(lambda z: plan.evaluate(coeffs, z), center, radii, spacing,
                                   lambda rr, counts: plan.circle_values(coeffs, rr, counts))
            assert np.array_equal(np.array(list(fft)), circle), rs
        grids = plan.realize_batch([S.stream(77, r, 0) for r in rs])
        for b, grid in enumerate(grids):
            zs = Z.detect_zeros(grid)
            live = ~zs.degenerate
            dist = np.abs(zs.position[live] - center)
            disk = [int(zs.charge[live][dist <= R].sum()) for R in radii]
            for k in np.flatnonzero(circle[b] != disk):
                near = np.abs(np.abs(zs.position - center) - radii[k]) < spacing
                gaps = [abs(abs(_exact_root(coeffs[b], plan.rho, p) - center) - radii[k])
                        for p in zs.position[near]]
                assert min(gaps, default=math.inf) < 1e-3 * spacing, \
                    (rs[b], radii[k], circle[b, k], disk[k])


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------

def _exact_fields(zs):
    # every ZeroSet field but the position, which the CSV rounds
    return (zs.charge, zs.refined, zs.jacobian_sign, zs.degenerate)


def test_zeros_csv_roundtrip(tmp_path):
    zs = Z.ZeroSet(position=np.array([complex(1.23456789123, -0.000012345), 0.5 + 0.25j,
                                      -0.75 + 2.0j]),
                   charge=np.array([-1, 1, 1]), refined=np.array([True, False, True]),
                   jacobian_sign=np.array([-1, 1, 0]),
                   degenerate=np.array([False, False, True]), realization=np.zeros(3, int))
    path = tmp_path / "zeros.csv"
    Z.zeros_to_csv(zs, str(path))
    text = path.read_text().splitlines()
    assert text[0] == "x,y,charge,winding,refined,jacobian_sign,degenerate"
    assert text[1].startswith("1.23456789,")  # nine significant digits
    assert text[1].split(",")[2:4] == ["-1", "-1"]  # winding is written as the charge
    back = Z.zeros_from_csv(str(path))
    assert len(back) == 3
    assert np.all(np.abs(back.position - zs.position) < 1e-8)
    for got, want in zip(_exact_fields(back), _exact_fields(zs)):  # sign 0 and flags survive
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert [z.winding for z in back] == [-1, 1, 1]
    assert back.realization.dtype == int and not back.realization.any()

    # a detected STFT hermite:1 realization with degenerate and unrefined zeros
    grid = S.FieldSource({"family": "window", "window": "hermite:1"}, (0, 8, 0, 8),
                         1 / 16).realize(7, 33)
    zs = Z.detect_zeros(grid)
    assert zs.degenerate.any() and (~zs.refined & ~zs.degenerate).any()
    Z.zeros_to_csv(zs, str(path))
    back = Z.zeros_from_csv(str(path))
    assert len(back) == len(zs)
    nine = [complex(float(f"{p.real:.9g}"), float(f"{p.imag:.9g}")) for p in zs.position]
    assert np.array_equal(back.position, nine)  # nine significant digits
    for got, want in zip(_exact_fields(back), _exact_fields(zs)):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    again = tmp_path / "again.csv"
    Z.zeros_to_csv(back, str(again))
    assert again.read_bytes() == path.read_bytes()


def test_zeros_csv_refuses_a_block(tmp_path):
    # the CSV has no realization column: a set of several realizations, or
    # of one realization other than the first, is refused before writing
    source = S.FieldSource({"family": "window", "window": "hermite:1"}, (0, 4, 0, 4), 1 / 16)
    path = tmp_path / "zeros.csv"
    block = Z.detect_zeros(source.realize_batch(7, range(3)))
    assert set(block.realization.tolist()) == {0, 1, 2}
    with pytest.raises(ContainerError, match=r"holds 3 realizations \(up to 2\)"):
        Z.zeros_to_csv(block, str(path))
    last = dataclasses.replace(block, **{f.name: getattr(block, f.name)[block.realization == 2]
                                         for f in dataclasses.fields(block)})
    with pytest.raises(ContainerError, match=r"holds 1 realization \(up to 2\)"):
        Z.zeros_to_csv(last, str(path))
    assert not path.exists()


@pytest.mark.parametrize("text", ["x,y,charge,winding,refined\n0.5,0.5,1,1,1\n",
                                  "x,y,charge,winding,refined,jacobian_sign,degenerate\n"
                                  "0.5,0.5,1,1,1\n",
                                  "x,y,charge,winding,refined,jacobian_sign,degenerate\n"
                                  "0.5,0.5,1,-1,1,1,0\n",
                                  "\x89PNG\r\n",
                                  *(f"x,y,charge,winding,refined,jacobian_sign,degenerate\n"
                                    f"0.5,0.5,1,1,1,1,0\n{row}\n"
                                    for row in ("nan,0.5,1,1,1,1,0", "0.5,inf,1,1,1,1,0",
                                                "0.5,0.5,3,3,1,1,0", "0.5,0.5,0,0,1,0,0",
                                                "0.5,0.5,1,1,1,5,0", "0.5,0.5,3,3,7,5,9",
                                                "0.5,0.5,1,1,2,1,0", "0.5,0.5,1,1,1,1,-1"))])
def test_zeros_csv_refuses_other_formats(tmp_path, text):
    path = tmp_path / "zeros.csv"
    path.write_text(text)
    with pytest.raises(ContainerError, match=re.escape(str(path))) as info:
        Z.zeros_from_csv(str(path))
    if text.startswith(Z._CSV_HEADER + "\n"):  # the refused row, the last, is named
        last_row = text.count("\n")
        assert f"row {last_row} " in str(info.value)
