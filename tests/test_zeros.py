import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import synthetic_grid
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
    assert len(zs) == 1
    z = zs[0]
    assert z.charge == z.winding == z.jacobian_sign == 1
    assert abs(z.position) < 1e-10
    assert z.refined


def test_simple_zero_negative():
    grid = synthetic_grid(np.conj)
    zs = Z.detect_zeros(grid)
    assert len(zs) == 1
    assert zs[0].charge == zs[0].winding == zs[0].jacobian_sign == -1


def test_refine_recovers_analytic_root():
    root = 0.3 + 0.4j
    grid = synthetic_grid(lambda z: (z - root) * np.exp(z), half=0.4, n=41,
                          offset=0.305 + 0.405j)
    zs = Z.detect_zeros(grid)
    assert len(zs) == 1
    assert abs(zs[0].position - root) < 1e-6
    assert zs[0].refined


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
                             margin=grid.margin, meta=grid.meta)
    za = Z.detect_zeros(grid)
    zb = Z.detect_zeros(unweighted)
    assert len(za) == len(zb)
    pa = np.array([z.position for z in za])
    pb = np.array([z.position for z in zb])
    match = np.abs(pa[:, None] - pb[None, :]).argmin(axis=1)
    for k, z in enumerate(za):
        other = zb[match[k]]
        assert abs(z.position - other.position) < grid.spacing / 2
        assert z.charge == other.charge


def test_plane_equivariance(hermites):
    stft = S.FieldSource({"family": "window", "window": hermites[1]},
                         (0, 6, 0, 6), 1 / 16, 1 / 64).realize(17)
    gwhf = S.to_gwhf_plane(stft)
    za = Z.detect_zeros(stft)
    zb = Z.detect_zeros(gwhf)
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
    grid = S.FieldSource(*source, 1 / 64).realize(seed, r)
    if margin0:
        grid = dataclasses.replace(grid, margin=0.0, meta={})
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
    # The margin cuts the edge zero; a margin-0 copy of the same samples
    # keeps the whole extent.  The stft plane's carrier is demodulated, which
    # costs interpolation accuracy on this unmodulated field.
    inner = -0.31 + 0.22j
    orient = 1 if plane == "gwhf" else -1  # the charge of a holomorphic zero
    grid = dataclasses.replace(
        synthetic_grid(lambda z: (z - inner) * np.conj(z - edge), plane=plane), margin=0.1)
    whole = dataclasses.replace(grid, margin=0.0)
    x0, x1, y0, y1 = grid.interior
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
    before the solve was batched: the reference for Z._bilinear_zeros."""
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
            err = abs(A + B * xi + C * eta + D * xi * eta)
            if best is None or err < best[2]:
                best = (xi, eta, err)
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
    return {
        "random": (a, b, c, d),
        "parallelogram": (pa, pb, pc, pa - pb + pc),
        "zero-corner": (za, zb, zc, zd),
        "no-real-root": (1j * w, (1 + 1j) * w, 2 * w, (1 + 1j) * w),
        "just-outside": (-x0 - 1j * y0, 1 - x0 - 1j * y0, 1 - x0 + 1j * (1 - y0),
                         -x0 + 1j * (1 - y0)),
        # coefficients below the 1e-300 cut-offs, though their quadratic is not 0
        "tiny": (1e-151 * a[:1000], 1e-151 * b[:1000], 1e-151 * c[:1000], 1e-151 * d[:1000]),
    }


@pytest.mark.parametrize("kind", ["random", "parallelogram", "zero-corner",
                                  "no-real-root", "just-outside", "tiny"])
def test_batched_bilinear_matches_scalar(kind):
    a, b, c, d = _corner_sets()[kind]
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
# Disk statistics and CSV
# ---------------------------------------------------------------------------

def test_disk_stats_empty():
    stats = Z.disk_stats([], 0j, [1.0, 2.0])
    assert [(s.count, s.total_charge) for s in stats] == [(0, 0), (0, 0)]


def test_disk_stats_counts_and_interior():
    zs = [Z.ChargedZero(position=complex(r, 0), charge=c,
                        refined=True, jacobian_sign=c)
          for r, c in [(0.5, 1), (1.5, -1), (2.5, 1)]]
    stats = Z.disk_stats(zs, 0j, [1.0, 2.0, 3.0])
    assert [(s.count, s.total_charge) for s in stats] == [(1, 1), (2, 0), (3, 1)]
    assert all(abs(s.total_charge) <= s.count for s in stats)
    with pytest.raises(DomainError):
        Z.disk_stats(zs, 0j, [3.0], interior=(-2, 2, -2, 2))


def test_disk_stats_excludes_degenerate():
    zs = [Z.ChargedZero(position=0.1 + 0j, charge=1, refined=True,
                        jacobian_sign=1, degenerate=True)]
    stats = Z.disk_stats(zs, 0j, [1.0])
    assert stats[0].count == 0


def test_zeros_csv_roundtrip(tmp_path):
    zs = [Z.ChargedZero(position=complex(1.23456789123, -0.000012345), charge=-1,
                        refined=True, jacobian_sign=-1),
          Z.ChargedZero(position=0.5 + 0.25j, charge=1,
                        refined=False, jacobian_sign=1),
          Z.ChargedZero(position=-0.75 + 2.0j, charge=1,
                        refined=True, jacobian_sign=0, degenerate=True)]
    path = tmp_path / "zeros.csv"
    Z.zeros_to_csv(zs, str(path))
    text = path.read_text().splitlines()
    assert text[0] == "x,y,charge,winding,refined,jacobian_sign,degenerate"
    assert text[1].startswith("1.23456789,")  # nine significant digits
    assert text[1].split(",")[2:4] == ["-1", "-1"]  # winding is written as the charge
    back = Z.zeros_from_csv(str(path))
    assert len(back) == 3
    assert back[0].charge == -1 and back[0].refined
    assert abs(back[0].position - zs[0].position) < 1e-8
    assert back[1].charge == 1 and not back[1].refined
    assert back[2] == zs[2]  # sign 0 and the degenerate flag survive
    assert [dataclasses.replace(z, position=0j) for z in back] == \
        [dataclasses.replace(z, position=0j) for z in zs]


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
