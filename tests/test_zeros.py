import dataclasses
import hashlib
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import anchored_plan, grid_windings, synthetic_grid
from gwhf import simulate as S
from gwhf import windows as W
from gwhf import zeros as Z
from gwhf.errors import ContainerError, DomainError, ResolutionError

PI = math.pi


# ---------------------------------------------------------------------------
# Synthetic fields
# ---------------------------------------------------------------------------

def test_simple_zero_positive():
    grid = synthetic_grid(lambda z: z)
    zs = Z.detect_zeros(grid)
    assert zs.charge.tolist() == zs.jacobian_sign.tolist() == [1]
    assert abs(zs.position[0]) < 1e-10
    assert zs.refined[0]


def test_simple_zero_negative():
    grid = synthetic_grid(np.conj)
    zs = Z.detect_zeros(grid)
    assert zs.charge.tolist() == zs.jacobian_sign.tolist() == [-1]


@pytest.mark.parametrize("plane", ["gwhf", "stft"])
def test_zeros_on_lattice_points(plane):
    # samples exactly 0 at 0 and 0.5, both lattice points: each reads as
    # phase 0, so its edges keep their gauged steps and each zero flags one
    # cell.  Edge products through a vanishing sample lost both zeros.
    orient = 1 if plane == "gwhf" else -1
    grid = synthetic_grid(lambda z: (z - 0.5) * np.conj(z), plane=plane, offset=0j)
    assert np.count_nonzero(grid.values == 0) == 2
    zs = Z.detect_zeros(grid)
    assert len(zs) == 2 and np.abs(zs.position - [0, 0.5]).max() < 1e-9
    assert zs.charge.tolist() == zs.jacobian_sign.tolist() == [-orient, orient]
    assert zs.refined.all() and not zs.degenerate.any()


def test_refine_recovers_analytic_root():
    root = 0.3 + 0.4j
    grid = synthetic_grid(lambda z: (z - root) * np.exp(z), half=0.4, n=41,
                          offset=0.305 + 0.405j)
    zs = Z.detect_zeros(grid)
    assert len(zs) == 1 and abs(zs.position[0] - root) < 1e-6
    assert zs.refined[0]


def test_double_zero_near_a_vertex_gives_two_degenerate_zeros():
    # z^2 with its double zero 0.13 and 0.07 cells from a lattice point: two
    # cells beside it hold winding +1 each, so two +1 zeros closer than 0.75
    # cells, both flagged degenerate, carry the charge 2
    grid = synthetic_grid(lambda z: z * z, half=1.0, n=21)
    zs = Z.detect_zeros(grid)
    assert zs.charge.tolist() == zs.jacobian_sign.tolist() == [1, 1]
    assert zs.degenerate.all() and zs.charge.sum() == 2
    assert np.abs(zs.position).max() < 0.75 * grid.spacing


def test_cells_refuse_a_winding_two_cell_as_the_detector_does():
    # z^2 with its double zero at the centre of a cell about the origin, where
    # every edge's carrier advance is h^2/2: the plaquette holds winding 2,
    # and the cells and the detector raise the one message
    grid = synthetic_grid(lambda z: z * z, half=1.0, n=21, offset=0.05 + 0.05j)
    with pytest.raises(ResolutionError, match=r"^plaquette near \S+ holds winding 2; ") as count:
        Z.cells(grid.lattice, grid.values)
    with pytest.raises(ResolutionError) as detect:
        Z.detect_zeros(grid)
    assert str(count.value) == str(detect.value)


def test_cells_are_the_flagged_cells():
    # three separated simple zeros flag three cells, with their charges as
    # windings; a zero and an anti-zero inside one cell cancel in its winding
    # and are not counted
    roots = [0.31 + 0.22j, -0.43 - 0.37j, 0.12 - 0.41j]
    grid = synthetic_grid(lambda z: (z - roots[0]) * (z - roots[1]) * np.conj(z - roots[2]),
                          half=1.0, n=161)
    i, j, w = Z.cells(grid.lattice, grid.values)
    assert len(w) == 3 and sorted(w.tolist()) == [-1, 1, 1]
    wind = grid_windings(grid)
    assert np.array_equal(wind[j, i], w) and np.count_nonzero(wind) == 3
    a = grid.origin + grid.spacing * (80.3 + 80.4j)
    pair = synthetic_grid(lambda z: (z - a) * np.conj(z - a - 0.004), half=1.0, n=161)
    assert len(Z.cells(pair.lattice, pair.values)[2]) == 0
    assert not grid_windings(pair).any()


def test_multiple_separated_roots_with_charges():
    roots = [0.31 + 0.22j, -0.43 - 0.37j, 0.12 - 0.41j]

    def f(z):
        return (z - roots[0]) * (z - roots[1]) * np.conj(z - roots[2])

    grid = synthetic_grid(f, half=1.0, n=161)
    zs = Z.detect_zeros(grid)
    assert len(zs) == 3
    nearest = np.abs(zs.position[:, None] - np.array(roots)[None, :]).argmin(axis=0)
    assert sorted(nearest.tolist()) == [0, 1, 2]
    assert np.abs(zs.position[nearest] - roots).max() < 5e-4
    assert zs.charge[nearest].tolist() == [1, 1, -1]


# ---------------------------------------------------------------------------
# Realization-level behavior
# ---------------------------------------------------------------------------

def test_refined_positions_stay_near_cells(hermites):
    grid = S.FieldSource({"family": "series-gef"}, (-3, 3, -3, 3), 0.1).realize(2)
    zs = Z.detect_zeros(grid)
    assert zs, "expected zeros on this domain"
    cell = np.round((zs.position - grid.origin) / grid.spacing - (0.5 + 0.5j))
    center = grid.origin + (cell + (0.5 + 0.5j)) * grid.spacing
    assert (np.abs(zs.position - center) <= grid.spacing).all()


def test_gef_series_all_positive_charges():
    zs = Z.detect_zeros(S.FieldSource({"family": "series-gef"}, (-4, 4, -4, 4), 0.05).realize(3))
    assert zs and (zs.charge[~zs.degenerate] == 1).all()


def test_weight_transform_preserves_charges():
    grid = S.FieldSource({"family": "series-gef"}, (-4, 4, -4, 4), 0.05).realize(13)
    zz = grid.xs[None, :] + 1j * grid.ys[:, None]
    unweighted = S.FieldGrid(values=grid.values * np.exp(0.5 * np.abs(zz) ** 2),
                             origin=grid.origin, spacing=grid.spacing,
                             plane=grid.plane, seed=grid.seed,
                             interior=grid.interior, meta=grid.meta)
    za = Z.detect_zeros(grid)
    zb = Z.detect_zeros(unweighted)
    assert len(za) == len(zb)
    match = np.abs(za.position[:, None] - zb.position[None, :]).argmin(axis=1)
    assert (np.abs(za.position - zb.position[match]) < grid.spacing / 2).all()
    assert np.array_equal(za.charge, zb.charge[match])


def test_plane_equivariance(hermites):
    # the stft-plane source and the gwhf-plane one over the image of its domain
    spec = {"family": "window", "window": hermites[1]}
    stft = S.FieldSource(spec, (0, 6, 0, 6), 1 / 16, 1 / 64).realize(17)
    gwhf = S.FieldSource(dict(spec, plane="gwhf"), S._gwhf_box((0, 6, 0, 6)),
                         math.sqrt(PI) / 16, 1 / 64).realize(17)
    za = Z.detect_zeros(stft)
    zb = Z.detect_zeros(gwhf)
    assert len(za) == len(zb)
    mapped = math.sqrt(PI) * np.conj(za.position)
    match = np.abs(mapped[:, None] - zb.position[None, :]).argmin(axis=1)
    assert sorted(match.tolist()) == list(range(len(zb)))
    assert (np.abs(mapped - zb.position[match]) < 1e-9).all()
    assert np.array_equal(za.charge, zb.charge[match])


def test_winding_jacobian_agreement_on_realizations(hermites):
    plan = S.StftPlan(hermites[1], (0, 8, 0, 8), 1 / 16, 1 / 64)
    for r in range(5):
        zs = Z.detect_zeros(plan.realize(23, r))
        live = ~zs.degenerate
        assert np.array_equal(zs.jacobian_sign[live], zs.charge[live])


_STFT_H1 = ({"family": "window", "window": "hermite:1"}, (0, 8, 0, 8), 1 / 16)
_POLY3 = ({"family": "polyentire", "q": 3, "kind": "full"}, (-6.5, 6.5, -6.5, 6.5), 0.08)


@pytest.mark.parametrize("source, seed, r, near, margin0", [
    (_STFT_H1, 204000012, 5, 0.8495 + 1.4989j, False),
    (_STFT_H1, 26000020, 2, 0.9175 + 4.1451j, False),
    (_POLY3, 777, 2, 14.969 - 15.913j, True),
], ids=["stft-204000012-5", "stft-26000020-2", "poly3-margin0-777-2"])
def test_newton_rejected_zero_sign_matches_winding(source, seed, r, near, margin0):
    # Newton rejects these cells; the sign is read from the bilinear
    # interpolant whose root places the zero, so it matches the winding.
    # The poly3 zero has a -1 partner 0.03 cells away, Newton-rejected too,
    # so both are degenerate; the stft zeros have no partner
    src = S.FieldSource(*source, 1 / 64)
    grid = src.realize(seed, r)
    if margin0:  # the zero lies in the anchored plan's grid, beyond the default pad
        plan = anchored_plan(src.plan)
        grid = plan.realize(seed, r)
        grid = dataclasses.replace(grid, interior=None)
    zs = Z.detect_zeros(grid)
    k = np.abs(zs.position - near).argmin()
    assert abs(zs.position[k] - near) < 1e-3
    assert not zs.refined[k]
    assert zs.jacobian_sign[k] == zs.charge[k] == 1
    gap = np.abs(zs.position - zs.position[k])
    partners = np.flatnonzero((0 < gap) & (gap < 0.05 * grid.spacing))
    if margin0:
        (p,) = partners
        assert not zs.refined[p] and zs.jacobian_sign[p] == zs.charge[p] == -1
        assert zs.degenerate[k] and zs.degenerate[p]
    else:
        assert not partners.size and not zs.degenerate[k]


def test_detection_regression_fixture(hermites):
    # frozen after the first run with the documented default seed
    grid = S.FieldSource({"family": "window", "window": hermites[1]},
                         (0, 8, 0, 8), 1 / 16, 1 / 64).realize(0xC0FFEE)
    zs = Z.detect_zeros(grid)
    live = ~zs.degenerate
    assert np.count_nonzero(live) == 109
    assert zs.charge[live].sum() == 67
    total = sum(zs.position[live].tolist())
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
    cut = Z.detect_zeros(grid)
    assert len(cut) == 1 and cut.refined[0]
    assert abs(cut.position[0] - inner) < (1e-9 if plane == "gwhf" else 1e-4)
    zs = Z.detect_zeros(whole)
    k_edge, k_in = np.argsort(np.abs(zs.position - edge))
    for f in dataclasses.fields(zs):  # the inner zero has the bits of the cut grid's
        assert getattr(zs, f.name)[k_in] == getattr(cut, f.name)[0], f.name
    assert abs(zs.position[k_edge] - edge) < (1e-3 if plane == "gwhf" else 3e-3)
    assert zs.refined[k_edge] and not zs.degenerate[k_edge]
    assert zs.charge[k_edge] == zs.jacobian_sign[k_edge] == -orient
    # without refinement every zero sits at its cell center
    centers = Z.detect_zeros(whole, refine=False)
    order = np.argsort(np.abs(centers.position - edge))
    offset = (centers.position[order] - grid.origin) / grid.spacing
    assert (np.abs(offset.real % 1 - 0.5) < 1e-9).all()
    assert (np.abs(offset.imag % 1 - 0.5) < 1e-9).all()
    assert (np.abs(centers.position[order] - [edge, inner]) < grid.spacing).all()
    assert centers.charge[order].tolist() == centers.jacobian_sign[order].tolist() == \
        [-orient, orient]
    assert not centers.refined.any()


def test_interior_the_grid_does_not_meet_raises():
    # the default hermite:1 grid of (0, 8)^2 spans about (-0.2, 8.2)^2; the
    # last box lies within the two-cell pad of cells kept around an interior
    grid = S.FieldSource({"family": "window", "window": "hermite:1"},
                         (0, 8, 0, 8), 1 / 16, 1 / 64).realize(7)
    for box in ((100, 101, 100, 101), (0, 8, 100, 101), (-9, -8.5, 0, 8), (8.25, 9, 0, 8)):
        with pytest.raises(DomainError, match=r"^interior \({}, {}, {}, {}\) does not meet "
                           r"the grid, whose extent is \(-0\.2075, ".format(*box)):
            Z.detect_zeros(dataclasses.replace(grid, interior=box))


def test_interior_holding_the_whole_extent_keeps_every_zero():
    grid = S.FieldSource({"family": "window", "window": "hermite:1"},
                         (0, 8, 0, 8), 1 / 16, 1 / 64).realize(7)
    x0, x1, y0, y1 = grid.extent
    whole = Z.detect_zeros(dataclasses.replace(grid, interior=None))
    wide = Z.detect_zeros(dataclasses.replace(grid, interior=(x0 - 5, x1 + 5, y0 - 5, y1 + 5)))
    assert len(whole) > 100
    for f in dataclasses.fields(whole):
        got, want = getattr(wide, f.name), getattr(whole, f.name)
        assert got.dtype == want.dtype and np.array_equal(got, want), f.name


@pytest.mark.parametrize("spec, domain, spacing, counted", [
    (*_STFT_H1, (3166, 22, 8)),
    ({"family": "series-gef"}, (-6.5, 6.5, -6.5, 6.5), 0.08, (1453, 0, 0)),
], ids=["stft-h1", "series"])
def test_a_sub_interior_keeps_the_whole_extents_zeros_in_it(spec, domain, spacing, counted):
    # the detector winds only the cells that can hold a zero in the interior
    # or its close partner: however that block is cut, the zeros of an
    # interior are those the whole extent gives in it, every field's bits.
    # Interiors whose sides are grid points, where the cut's pad ties;
    # interiors between grid points, inside the grid and reaching past it;
    # and squares with a side midway between the zeros of a close pair,
    # the first inside.  Counted: the zeros compared, the degenerate ones
    # among them, and the pairs cut
    source = S.FieldSource(spec, domain, spacing, 1 / 64)
    rng = np.random.default_rng(48)
    compared = degenerate = cut = 0
    for grid in source.realize_batch(2024, range(12)):
        whole = Z.detect_zeros(dataclasses.replace(grid, interior=None))
        h, (ex0, ex1, ey0, ey1) = grid.spacing, grid.extent
        boxes = []
        for aligned in (True, False) * 4:
            i0, j0 = rng.integers(0, 12, size=2)
            i1, j1 = rng.integers(20, min(grid.nx, grid.ny), size=2)
            if aligned:
                boxes.append((grid.xs[i0], grid.xs[i1], grid.ys[j0], grid.ys[j1]))
            else:
                x0, y0 = ex0 + h * (i0 + rng.uniform(-3, 1)), ey0 + h * (j0 + rng.uniform(-3, 1))
                boxes.append((x0, ex0 + h * (i1 + rng.uniform(0, 3)), y0,
                              ey0 + h * (j1 + rng.uniform(0, 3))))
        for a, b in itertools.permutations(whole.position[whole.degenerate], 2):
            d = b - a
            if abs(d) < 0.75 * h:
                along = np.sign(d.real) if abs(d.real) >= abs(d.imag) else 1j * np.sign(d.imag)
                m = a + d / 2 - 20 * h * along  # a side through the pair's midpoint
                boxes.append((m.real - 20 * h, m.real + 20 * h, m.imag - 20 * h,
                              m.imag + 20 * h))
                cut += int(_in_box(a, boxes[-1], 0.0) and not _in_box(b, boxes[-1], 0.0))
        for box in boxes:
            sub = Z.detect_zeros(dataclasses.replace(grid, interior=box))
            keep = _in_box(whole.position, box, 0.0)
            for f in dataclasses.fields(whole):
                got, want = getattr(sub, f.name), getattr(whole, f.name)[keep]
                assert got.dtype == want.dtype and np.array_equal(got, want), (box, f.name)
            compared += len(sub)
            degenerate += int(sub.degenerate.sum())
    assert (compared, degenerate, cut) == counted


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


def _grid_stencils(monkeypatch, grids):
    """The demodulated stencils detect_zeros refines for the grids, in order."""
    seen = []
    refine = Z._refine

    def recorded(st, *args):
        seen.append(st.copy())
        return refine(st, *args)

    monkeypatch.setattr(Z, "_refine", recorded)
    for grid in grids:
        Z.detect_zeros(grid)
    monkeypatch.undo()
    return np.concatenate(seen)


@pytest.mark.parametrize("spec, domain, spacing", [
    _STFT_H1[0:3],
    ({"family": "window", "window": "hermite:1", "plane": "gwhf"}, (-6, 6, -6, 6), 0.1),
    _POLY3[0:3],
], ids=["stft-h1", "gwhf-h1", "poly3-full"])
def test_newton_matches_reference_loop_bit_for_bit(monkeypatch, spec, domain, spacing):
    # the stencils of 16 grids, then one whose only root lies outside the
    # band and a constant one, whose Jacobian is 0 at the centre: its Newton
    # step divides by zero, which must neither warn nor be read
    grids = S.FieldSource(spec, domain, spacing, 1 / 64).realize_batch(44, range(16))
    st = np.concatenate([_grid_stencils(monkeypatch, grids), _outside_root_stencil(),
                         np.full((1, 4, 4), 0.3 - 0.2j)])
    xi, eta = Z._newton(st, np.stack(Z._coefficients(st)))
    ref_xi, ref_eta = _newton_reference(st)
    assert len(st) > 500 and np.isnan(xi[:-2]).any() and np.isnan(xi[-2:]).all()
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


def _all_close_pairs(pos, h):
    """The pairs _close_pairs must give, from every pair of candidates."""
    a, b = np.triu_indices(len(pos), 1)
    close = np.abs(pos[a] - pos[b]) < 0.75 * h
    return np.column_stack([a[close], b[close]])


@pytest.mark.parametrize("seed", range(8))
def test_close_pairs_match_all_pairs(seed):
    # four draws on one lattice, its size, spacing and origin drawn; one
    # candidate in each of most cells, anywhere in the band Newton accepts
    # around its cell, the band's edges included; candidates in random order
    rng = np.random.default_rng(seed)
    band = Z._BAND
    nx, ny = rng.integers(4, 10, size=2)
    h = rng.choice([0.1, 0.25, 1 / 16])
    origin = complex(*rng.uniform(-2.0, 2.0, size=2))
    parts = []
    for r in range(4):
        j, i = np.divmod(np.flatnonzero(rng.uniform(size=nx * ny) < 0.6), nx)
        xi, eta = rng.uniform(-band, 1 + band, size=(2, len(i)))
        edge = rng.uniform(size=(2, len(i))) < 0.2
        xi[edge[0]], eta[edge[1]] = (rng.choice([-band, 1 + band], size=k) for k in edge.sum(1))
        pos = origin.real + (i + xi) * h + 1j * (origin.imag + (j + eta) * h)
        parts.append((np.full(len(i), r), i, j, pos))
    columns = [np.concatenate(col) for col in zip(*parts)]
    shuffle = rng.permutation(len(columns[0]))
    realization, i, j, pos = (col[shuffle] for col in columns)
    found = 0
    for r in range(4):
        mine = realization == r
        ref = _all_close_pairs(pos[mine], h)
        got = Z._close_pairs(pos[mine], i[mine], j[mine], h)
        assert np.array_equal(got[np.lexsort(got.T[::-1])], ref)
        found += len(ref)
    assert found > 10


def test_close_pairs_of_no_candidate_and_of_one():
    for n in (0, 1):
        pairs = Z._close_pairs(np.full(n, 0.5 + 0.5j), np.zeros(n, int), np.zeros(n, int), 1.0)
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
    ({"family": "window", "window": "hermite:1"}, (0, 2100, 0, 1), 1 / 16),
    ({"family": "window", "window": "hermite:1", "plane": "gwhf"}, (-5, 5, -5, 5), 0.08),
    ({"family": "polyentire", "q": 3, "kind": "full"}, (-6.5, 6.5, -6.5, 6.5), 0.08),
    ({"family": "series-gef"}, (-6.5, 6.5, -6.5, 6.5), 0.08),
], ids=["stft-window", "stft-window-long", "gwhf-window", "polyentire-full", "series"])
def test_windings_match_full_grid_gauge(spec, domain, spacing):
    # the long grid's vertical edges wrap by up to spacing * max x = 131
    # turns, more than an int8 holds
    source = S.FieldSource(spec, domain, spacing, 1 / 64)
    for r in range(3):
        grid = source.realize(61, r)
        windings = grid_windings(grid)
        assert np.count_nonzero(windings) > 50
        assert np.array_equal(windings, _full_grid_windings(grid))
    if domain[1] > 1000:
        assert grid.spacing * grid.xs.max() > 128


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
    # the carrier's advance around one counterclockwise plaquette, per cell
    defect = (2.0 if grid.plane == "gwhf" else -2 * PI) * grid.spacing ** 2
    total = inc.sum() + defect * w * h
    return int(np.rint(total / (2 * PI)))


@settings(max_examples=60)
@given(data=st.data())
def test_block_windings_match_boundary_circulation(realization, data):
    # argument principle: the plaquette windings of any block of cells sum
    # to the gauged circulation around the block's boundary
    grid = realization
    windings = grid_windings(grid)
    ny, nx = windings.shape
    w = data.draw(st.integers(1, nx), label="w")
    h = data.draw(st.integers(1, ny), label="h")
    i0 = data.draw(st.integers(0, nx - w), label="i0")
    j0 = data.draw(st.integers(0, ny - h), label="j0")
    assert windings[j0:j0 + h, i0:i0 + w].sum() == _boundary_winding(grid, i0, j0, w, h)


@pytest.mark.parametrize("spec, domain, spacing", [
    ({"family": "window", "window": "hermite:1"}, (0, 8, 0, 8), 1 / 16),
    ({"family": "window", "window": "hermite:1", "plane": "gwhf"}, (-5, 5, -5, 5), 0.08),
    ({"family": "polyentire", "q": 3, "kind": "full"}, (-6.5, 6.5, -6.5, 6.5), 0.08),
    ({"family": "series-gef"}, (-6.5, 6.5, -6.5, 6.5), 0.08),
], ids=["stft-window", "gwhf-window", "polyentire-full", "series"])
def test_rectangle_charges_equal_the_grids_block_windings(spec, domain, spacing):
    # 100 realizations drawn on the lattice rectangle's edges alone: the net
    # charge equals, as an integer, the plane-oriented sum of the plaquette
    # windings of the rectangle's cells on the full grid, and of its cells
    # from the rectangle's own samples, which hold at least |net| cells, of
    # its parity; the stft simulator's edge columns are the grid's bits, its
    # edge rows the grid's to rounding
    source = S.FieldSource(spec, domain, spacing, 1 / 64)
    rect = source.plan.rectangle
    orient = 1 if rect.plane == "gwhf" else -1
    rows, cols = slice(rect.j0, rect.j1 + 1), slice(rect.i0, rect.i1 + 1)
    for lo in range(0, 100, 10):
        rs = range(lo, lo + 10)
        edges = source.edges_batch(2024, rs)
        charges = Z.rectangle_charges(rect, *edges)
        assert charges.dtype == np.int64
        for net, samples in zip(charges, source.rectangle_batch(2024, rs), strict=True):
            w = Z.cells(rect, samples)[2]
            assert orient * int(w.sum()) == net
            assert len(w) >= abs(net) and (len(w) - net) % 2 == 0
        for k, grid in enumerate(source.realize_batch(2024, rs)):
            raw = grid_windings(grid)[rect.j0:rect.j1, rect.i0:rect.i1]
            assert charges[k] == orient * int(raw.sum())
            v = grid.values
            wants = (v[rect.j0, cols], v[rect.j1, cols], v[rows, rect.i0], v[rows, rect.i1])
            for n, (edge, want) in enumerate(zip(edges, wants)):
                if n >= 2 and spec["family"] != "series-gef":  # columns
                    assert edge[k].tobytes() == want.tobytes()
                else:
                    assert np.abs(edge[k] - want).max() <= 1e-13 * np.abs(v).max()


def _in_box(p, box, pad):
    x0, x1, y0, y1 = box
    return ((x0 - pad <= p.real) & (p.real <= x1 + pad)
            & (y0 - pad <= p.imag) & (p.imag <= y1 + pad))


@pytest.mark.parametrize("spec, domain, spacing, rs, checked", [
    (*_STFT_H1, (163, 191, 193, 504, 564, 744), 6),
    (*_POLY3, (27,), 1),
    (*_STFT_H1, range(48), 34),
    (*_POLY3, range(48), 39),
    ({"family": "series-gef"}, (-6.5, 6.5, -6.5, 6.5), 0.08, range(48), 37),
], ids=["stft-h1-pinned", "poly3-pinned", "stft-h1", "poly3-full", "series"])
def test_detected_charges_obey_the_argument_principle(spec, domain, spacing, rs, checked):
    # the charge of the detected zeros inside the lattice rectangle, on grids
    # with no interior cut, equals the circulation around its edge.  A
    # realization with a zero within _BAND cells of the edge is skipped: its
    # cell may lie on either side.  The pinned seed-2024 realizations hold
    # a (+1, -1) pair closer than 0.35 cells beside a third flagged cell,
    # where dropping a member of the pair changes the charge by a unit
    # (r = 163 would read 64 against 63)
    source = S.FieldSource(spec, domain, spacing, 1 / 64)
    rect = source.plan.rectangle
    box, band = rect.box, Z._BAND * rect.spacing
    charges = Z.rectangle_charges(rect, *source.edges_batch(2024, rs))
    checks = 0
    for grid, charge, r in zip(source.realize_batch(2024, rs), charges, rs):
        zs = Z.detect_zeros(dataclasses.replace(grid, interior=None))
        if (_in_box(zs.position, box, band) & ~_in_box(zs.position, box, -band)).any():
            continue
        assert zs.charge[_in_box(zs.position, box, 0.0)].sum() == charge, r
        checks += 1
    assert checks == checked


def test_rectangle_is_the_lattice_points_in_the_interior():
    # the rectangle's corners are the first and last grid points inside the
    # interior along each axis, and its area is that of its cells
    for spec, domain, spacing in [({"family": "window", "window": "hermite:1"}, (0, 8, 0, 8),
                                   1 / 16), ({"family": "series-gef"}, (-3, 3, -3, 3), 0.1)]:
        source = S.FieldSource(spec, domain, spacing, 1 / 64)
        rect, grid = source.plan.rectangle, source.realize(1)
        inside_x = np.flatnonzero((domain[0] <= grid.xs) & (grid.xs <= domain[1]))
        inside_y = np.flatnonzero((domain[2] <= grid.ys) & (grid.ys <= domain[3]))
        assert (rect.i0, rect.i1, rect.j0, rect.j1) == \
            (inside_x[0], inside_x[-1], inside_y[0], inside_y[-1])
        assert rect.box == (grid.xs[rect.i0], grid.xs[rect.i1], grid.ys[rect.j0],
                            grid.ys[rect.j1])
        assert rect.area == pytest.approx((rect.box[1] - rect.box[0])
                                          * (rect.box[3] - rect.box[2]), rel=1e-12)


# ---------------------------------------------------------------------------
# Pinned detector output
# ---------------------------------------------------------------------------

def _digest(sets):
    """sha256 of every field of each zero set in turn, dtypes included."""
    digest = hashlib.sha256()
    for zs in sets:
        for f in dataclasses.fields(zs):
            column = getattr(zs, f.name)
            digest.update(f"{f.name} {column.dtype.str} ".encode() + column.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("refine, pinned", [
    (True, "7dce56c166e0c7e30ba838e36c56aebfe82e5d858785ca6d8b7f259a230ed792"),
    (False, "c08fa2a731662d5232c5f908a1b5729df2566bdb79bba9f907abb2d4ff7855ae"),
], ids=["refine", "no-refine"])
def test_grids_on_other_lattices_keep_their_zeros(refine, pinned):
    # a grid and copies of it on another plane, spacing, origin, size or
    # interior, and grids of other sources (the last with a zero in a border
    # cell): each grid's zeros, every bit of every field, are pinned.  The
    # digests were those of the grids detected one at a time when a ZeroSet
    # also had a realization column, hashed without it
    edge = 0.99 - 0.4j
    g = S.FieldSource({"family": "window", "window": "hermite:1"}, (0, 4, 0, 4), 1 / 16,
                      1 / 64).realize(63)
    grids = [
        g,
        dataclasses.replace(g, plane="gwhf"),
        dataclasses.replace(g, spacing=g.spacing * 1.25),
        dataclasses.replace(g, origin=g.origin + 0.25j),
        dataclasses.replace(g, values=g.values[:, :-3]),
        dataclasses.replace(g, interior=(1.0, 3.0, 1.0, 3.0)),
        S.FieldSource({"family": "window", "window": "hermite:1", "plane": "gwhf"},
                      (-5, 5, -5, 5), 0.08, 1 / 64).realize(63),
        S.FieldSource({"family": "series-gef"}, (-3, 3, -3, 3), 0.1).realize(63),
        synthetic_grid(lambda z: (z + 0.31 - 0.22j) * np.conj(z - edge), plane="stft"),
    ]
    alone = [Z.detect_zeros(grid, refine=refine) for grid in grids]
    assert all(len(zs) for zs in alone)
    assert np.abs(alone[-1].position - edge).min() < 3e-3 or not refine
    assert _digest(alone) == pinned


@pytest.mark.parametrize("spec, domain, spacing, pinned", [
    (*_STFT_H1, "65b4d150264f63e3279d2d89e8316f19cd2352f5c4c68885cc9e1f644656e4ce"),
    (*_POLY3, "95482cc31c1ff3622c2b776d85eeb4ca8c61888bfc2b64b37376e7d491855968"),
    ({"family": "window", "window": "hermite:1", "plane": "gwhf"}, (-5, 5, -5, 5), 0.08,
     "7fc26549a263ba437d0de637a003ceba13bcf0c371bf8450674de84487782ab7"),
    ({"family": "series-gef"}, (-6.5, 6.5, -6.5, 6.5), 0.08,
     "c2adfbd127edcc4f94af66369bd65ca63fcffccd9f6090c33443fb202909f7b2"),
], ids=["stft-h1", "poly3-full", "gwhf-window", "series"])
def test_detector_bytes_pinned(spec, domain, spacing, pinned):
    # every bit of every field of 16 realizations' zeros, grid by grid,
    # dtypes included: a change of the detector that moves a position in its
    # last bit, or changes no count, changes the digest.  The digests are
    # those the 16 grids gave when detected as one block with a realization
    # column, each grid's rows hashed without it
    grids = S.FieldSource(spec, domain, spacing, 1 / 64).realize_batch(2718, range(16))
    assert _digest(Z.detect_zeros(grid) for grid in grids) == pinned


def test_a_zero_set_is_five_columns():
    # the empty set of a unimodular field following the gwhf plane's
    # carrier, which flags no cell, and the sets of three grids: five
    # parallel columns of one length each, of the same dtypes empty or not,
    # and no per-zero records to iterate
    grids = list(S.FieldSource({"family": "series-gef"}, (-3, 3, -3, 3), 0.1)
                 .realize_batch(5, range(3)))
    flat = dataclasses.replace(grids[0], values=np.ones_like(grids[0].values))
    assert not grid_windings(flat).any()
    sets = [Z.detect_zeros(grid) for grid in [flat, *grids]]
    assert [len(zs) for zs in sets] == [0, 11, 10, 12]
    names = ["position", "charge", "refined", "jacobian_sign", "degenerate"]
    assert [f.name for f in dataclasses.fields(Z.ZeroSet)] == names
    for zs in sets:
        columns = [getattr(zs, name) for name in names]
        assert [c.dtype.kind for c in columns] == ["c", "i", "b", "i", "b"]
        assert {c.shape for c in columns} == {(len(zs),)}
    assert not hasattr(Z.ZeroSet, "__iter__")


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


def _circle_charges_reference(field, center, radii, spacing, start=None):
    """Z.circle_charges as it was before it counted wrap counts on 7-smooth
    circles: ceil(2 pi R / spacing) points, at least 16, and per arc the
    angle of the product of its end values, summed in float per circle
    and rounded.  The reference for Z.circle_charges."""
    radii = np.asarray(radii, dtype=float)
    counts = np.maximum(16, np.ceil(2 * math.pi * radii / spacing).astype(int))
    ring = np.repeat(np.arange(len(radii)), counts)
    j = np.arange(ring.size) - np.repeat(np.cumsum(counts) - counts, counts)
    nxt = np.arange(ring.size) - j + (j + 1) % counts[ring]
    theta = 2 * math.pi * j / counts[ring]
    v = (field(center + radii[ring] * np.exp(1j * theta)) if start is None
         else start(radii, counts))
    b, p = np.indices(v.shape).reshape(2, -1)
    k, ta, va, vb = ring[p], theta[p], v[b, p], v[b, nxt[p]]
    total = np.zeros(len(v) * len(radii))
    for halvings in range(41):
        if halvings:
            tm = ta + 2 * math.pi / counts[k] / 2.0 ** halvings
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
    assert not b.size
    return np.rint(total.reshape(len(v), -1) / (2 * math.pi)).astype(int)


@pytest.mark.parametrize("domain, spacing, center, radii, n", [
    ((-6.5, 6.5, -6.5, 6.5), 0.08, 0j, (1.0, 2.0, 3.0, 4.0, 5.0, 6.0), 2000),  # criterion 6
    ((0.0, 8.0, 0.0, 8.0), 1 / 16, 4 + 4j, (1.0, 2.0, 3.0, 4.0), 400),  # away from the origin
], ids=["origin-fft", "off-centre"])
def test_circle_charges_match_the_per_arc_reference(domain, spacing, center, radii, n):
    # the wrap counts on 7-smooth circles give the charges of the per-arc
    # products on the old circles, realization by realization; about the
    # origin both start from the FFT circle values
    plan = S.SeriesPlan(domain, spacing)
    for lo in range(0, n, 8):
        coeffs = plan.draw(77, range(lo, lo + 8))
        args = (lambda z: plan.evaluate(coeffs, z), center, radii, spacing,
                None if center else (lambda rr, counts: plan.circle_values(coeffs, rr, counts)))
        assert np.array_equal(np.array(list(Z.circle_charges(*args))),
                              _circle_charges_reference(*args)), lo


def _is_7_smooth(m):
    for p in (2, 3, 5, 7):
        while m % p == 0:
            m //= p
    return m == 1


@pytest.mark.parametrize("spacing", [0.08, 1 / 16, 0.1, 0.5, 3.0])
def test_circle_counts_are_the_least_7_smooth_at_the_floor(spacing):
    # every circle takes the smallest 7-smooth count at or above
    # max(16, ceil(2 pi R / spacing)): a fast FFT length, never coarser
    radii = (0.01, 0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.3)
    seen = []

    def start(rr, counts):
        seen.append(counts)
        z = np.concatenate([r * np.exp(2j * PI * np.arange(m) / m) for r, m in zip(rr, counts)])
        return np.stack([z, np.conj(z)])

    charges = np.array(list(Z.circle_charges(lambda z: np.stack([z, np.conj(z)]), 0j, radii,
                                             spacing, start)))
    assert charges.tolist() == [[1] * len(radii), [-1] * len(radii)]
    counts, = seen
    assert not counts.flags.writeable
    floor = np.maximum(16, np.ceil(2 * PI * np.array(radii) / spacing)).astype(int)
    for low, m in zip(floor.tolist(), counts.tolist()):
        assert m >= low and _is_7_smooth(m)
        assert not any(_is_7_smooth(c) for c in range(low, m))


def _exact_root(coeffs, rho, z0):
    """Newton on the series polynomial sum_n coeffs[n] (z/rho)^n from each
    z0, and the size of its last step."""
    poly = np.polynomial.Polynomial(coeffs)
    slope = poly.deriv()
    w = z0 / rho
    for _ in range(30):
        step = poly(w) / slope(w)
        w = w - step
    return w * rho, np.abs(step) * rho


def test_detected_zeros_polish_to_the_series_roots():
    # a series GEF realization is the polynomial sum_n a_n (z/rho)^n in the
    # plan's scaled coefficients, whose roots are its zeros, all of charge
    # +1.  Each zero of 16 realizations in criterion 6's geometry, polished
    # by Newton on the polynomial, is a root of its own: no two polish to
    # one.  The distance from each detected position to its root, in
    # cells, is pinned: median and maximum over 852 zeros
    plan = S.SeriesPlan((-6.5, 6.5, -6.5, 6.5), 0.08)
    coeffs = plan.draw(77, range(16))
    gaps = []
    for b, grid in enumerate(plan.grids(coeffs, 77)):
        zs = Z.detect_zeros(grid)
        assert (zs.charge == 1).all() and (zs.jacobian_sign == 1).all()
        assert zs.refined.all() and not zs.degenerate.any()
        root, last = _exact_root(coeffs[b], plan.rho, zs.position)
        assert last.max() < 1e-12 * plan.spacing
        apart = np.abs(root[:, None] - root[None, :]) + np.diag(np.full(len(root), np.inf))
        assert apart.min() > 0.5 * plan.spacing
        gaps.append(np.abs(root - zs.position) / plan.spacing)
    gaps = np.concatenate(gaps)
    assert len(gaps) == 852
    assert np.median(gaps) == pytest.approx(3.469e-4, rel=1e-3)
    assert gaps.max() == pytest.approx(1.687e-3, rel=1e-3)


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
        coeffs = plan.draw(77, rs)
        circle = np.array(list(Z.circle_charges(lambda z: plan.evaluate(coeffs, z), center,
                                                radii, spacing)))
        if center == 0:
            fft = Z.circle_charges(lambda z: plan.evaluate(coeffs, z), center, radii, spacing,
                                   lambda rr, counts: plan.circle_values(coeffs, rr, counts))
            assert np.array_equal(np.array(list(fft)), circle), rs
        grids = plan.grids(coeffs, 77)
        for b, grid in enumerate(grids):
            zs = Z.detect_zeros(grid)
            live = ~zs.degenerate
            dist = np.abs(zs.position[live] - center)
            disk = [int(zs.charge[live][dist <= R].sum()) for R in radii]
            for k in np.flatnonzero(circle[b] != disk):
                near = np.abs(np.abs(zs.position - center) - radii[k]) < spacing
                gaps = [abs(abs(_exact_root(coeffs[b], plan.rho, p)[0] - center) - radii[k])
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
                   degenerate=np.array([False, False, True]))
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
    assert [row.split(",")[3] for row in text[1:]] == ["-1", "1", "1"]  # the winding column

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
