import json
import math
import re
import struct
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import anchored_plan
from gwhf import simulate as S
from gwhf import zeros as Z
from gwhf.errors import AliasBandError, ContainerError, ParameterError, PlaneError
from gwhf.quadrature import adaptive_quad
from gwhf.windows import window_from_spec

PI = math.pi


def test_stream_independence_and_determinism():
    a = S.complex_normals([S.stream(5, 0, 0)], 64)[0]
    b = S.complex_normals([S.stream(5, 0, 0)], 64)[0]
    c = S.complex_normals([S.stream(5, 0, 1)], 64)[0]
    d = S.complex_normals([S.stream(5, 1, 0)], 64)[0]
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


@pytest.mark.parametrize("count", [1, 3, 8])
def test_complex_normals_rows_are_the_one_generator_draws(count):
    # row b of the block draw is what its generator alone gives, and what
    # it gave as (z[:n] + i z[n:]) / sqrt(2) of its 2n standard normals
    rows = S.complex_normals([S.stream(5, r, 1) for r in range(count)], 64)
    assert rows.shape == (count, 64)
    for r in range(count):
        z = S.stream(5, r, 1).standard_normal(128)
        assert np.array_equal(rows[r], S.complex_normals([S.stream(5, r, 1)], 64)[0])
        assert np.array_equal(rows[r], (z[:64] + 1j * z[64:]) * math.sqrt(0.5))
    assert S.complex_normals([], 64).shape == (0, 64)


def test_complex_normals_moments():
    z = S.complex_normals([S.stream(1)], 200_000)[0]
    assert abs(z.mean()) < 0.01
    assert np.mean(np.abs(z) ** 2) == pytest.approx(1.0, abs=0.01)


def test_stft_field_deterministic(hermites):
    g1 = S.FieldSource({"family": "window", "window": hermites[1]},
                       (0, 4, 0, 4), 1 / 16, 1 / 64).plan.realize(9)
    g2 = S.FieldSource({"family": "window", "window": hermites[1]},
                       (0, 4, 0, 4), 1 / 16, 1 / 64).plan.realize(9)
    assert np.array_equal(g1.values, g2.values)
    g3 = S.FieldSource({"family": "window", "window": hermites[1]},
                       (0, 4, 0, 4), 1 / 16, 1 / 64).plan.realize(10)
    assert not np.array_equal(g1.values, g3.values)


def test_stft_field_metadata(hermites):
    src = S.FieldSource({"family": "window", "window": hermites[0]},
                        (0, 4, 0, 4), 1 / 16, 1 / 64)
    g = src.plan.realize(1)
    h = g.spacing
    assert g.plane == "stft"
    assert h == pytest.approx(1 / 16, abs=1e-12)
    assert g.interior == (0, 4, 0, 4)
    # the grid is the interior plus a 4-cell pad, on the lattice of the
    # anchored plan
    assert src.plan.margin == 4 * h
    x0, x1, y0, y1 = g.extent
    for lo, hi in ((x0, x1), (y0, y1)):
        assert 0 - 4 * h - 1e-9 <= lo < 0 - 3 * h and 4 + 3 * h < hi <= 4 + 4 * h + 1e-9
    # the noise record is the one a grid padded by 2 max(T, freq) draws
    anchored = anchored_plan(src.plan)
    assert anchored.margin >= 2 * hermites[0].support_radius
    assert (src.plan.t0, src.plan.K) == (anchored.t0, anchored.K)
    assert src.plan.t0 == 0 - anchored.margin - hermites[0].support_radius
    offset = (src.plan.x0 - anchored.x0) / h
    assert abs(offset - round(offset)) < 1e-9


@pytest.mark.parametrize("spec", [{"family": "polyentire", "q": 2, "kind": "pure"},
                                  {"family": "window", "window": "hermite:1", "plane": "gwhf"}],
                         ids=["polyentire", "gwhf-window"])
def test_gwhf_plane_interior_is_the_domain_given(spec):
    # the stft-plane preimage of 0,8,0,8 maps back to 7.999999999999999
    src = S.FieldSource(spec, (0, 8, 0, 8), 0.08)
    assert S._gwhf_box(src.plan.requested) != (0.0, 8.0, 0.0, 8.0)
    assert src.interior == (0.0, 8.0, 0.0, 8.0)
    grids = src.plan.grids(src.plan.draw(1, range(2)), 1)
    assert [g.interior for g in grids] == [(0.0, 8.0, 0.0, 8.0)] * 2


def test_stft_pointwise_variance_is_window_energy(hermites):
    plan = S.StftPlan(hermites[1], (0, 2, 0, 2), 1 / 16, 1 / 64)
    iy = plan.ny // 2
    ix = plan.nx // 2
    vals = np.array([plan.realize(50, r)
                     .values[iy, ix] for r in range(100)])
    assert np.mean(np.abs(vals) ** 2) == pytest.approx(1.0, abs=0.05)


def _stft_covariance_theory(g, z, w):
    u, v = w
    x, y = z

    def term(t, part):
        vals = g.rule(t - u) * np.conj(g.rule(t - x)) * np.exp(2j * PI * (v - y) * t)
        return vals.real if part == "re" else vals.imag

    T = g.support_radius + max(abs(u), abs(x)) + 1
    return complex(adaptive_quad(lambda t: term(t, "re"), -T, T, tol=1e-11),
                   adaptive_quad(lambda t: term(t, "im"), -T, T, tol=1e-11))


def test_stft_empirical_covariance(hermites):
    g = hermites[1]
    plan = S.StftPlan(g, (0, 2, 0, 2), 1 / 16, 1 / 32)
    pairs = [((0.5, 0.5), (0.5, 0.5)), ((0.5, 1.0), (1.0, 1.5)),
             ((0.25, 0.25), (1.75, 0.5)), ((1.0, 0.0), (1.0, 2.0)),
             ((0.0, 1.0), (2.0, 1.0))]
    xs, ys = plan.x0 + plan.spacing * np.arange(plan.nx), plan.y0 + plan.spacing * np.arange(plan.ny)

    def at(grid, p):
        i = int(round((p[0] - xs[0]) / plan.spacing))
        j = int(round((p[1] - ys[0]) / plan.spacing))
        return grid.values[j, i], (xs[i], ys[j])

    n = 400
    grids = [plan.realize(77, r) for r in range(n)]
    for z, w in pairs:
        samples = []
        for grid in grids:
            vz, pz = at(grid, z)
            vw, pw = at(grid, w)
            samples.append(vz * np.conj(vw))
        samples = np.array(samples)
        emp = samples.mean()
        se = samples.std(ddof=1) / math.sqrt(n)
        theory = _stft_covariance_theory(g, pz, pw)
        assert abs(emp - theory) <= 4 * max(se, 1e-3), (z, w, emp, theory)


def test_stft_interior_row_stationarity(hermites):
    plan = S.StftPlan(hermites[0], (0, 4, 0, 4), 1 / 16, 1 / 64)
    js = [j for j in range(plan.ny)
          if 0 <= plan.y0 + j * plan.spacing <= 4]
    isel = [i for i in range(plan.nx) if 0 <= plan.x0 + i * plan.spacing <= 4]
    n = 30
    rows = np.zeros((n, len(js)))
    for r in range(n):
        vals = plan.realize(31, r).values
        rows[r] = np.mean(np.abs(vals[np.ix_(js, isel)]) ** 2, axis=1)
    mean = rows.mean(axis=0)
    se = rows.std(axis=0, ddof=1) / math.sqrt(n)
    z = (mean - 1.0) / np.maximum(se, 1e-12)
    assert np.max(np.abs(z)) < 5.0


def test_alias_band_rejected(hermites):
    with pytest.raises(AliasBandError):
        S.FieldSource({"family": "window", "window": hermites[0]},
                      (0, 4, 28, 31), 1 / 16, 1 / 64).plan.realize(1)
    with pytest.raises(AliasBandError):
        # dt far too coarse for the window's frequency extent
        S.FieldSource({"family": "window", "window": hermites[0]},
                      (0, 4, 0, 4), 1 / 16, 1 / 2).plan.realize(1)


def test_gwhf_plane_grid_geometry(hermites):
    # over the image of (0, 4)^2 the gwhf-plane source samples the stft-plane
    # grid's lattice, mapped: rows flipped, spacing and interior scaled
    spec = {"family": "window", "window": hermites[1]}
    g = S.FieldSource(spec, (0, 4, 0, 4), 1 / 16, 1 / 64).plan.realize(3)
    box = S._gwhf_box((0, 4, 0, 4))
    f = S.FieldSource(dict(spec, plane="gwhf"), box, math.sqrt(PI) / 16, 1 / 64).plan.realize(3)
    assert f.plane == "gwhf" and f.interior == box
    assert np.allclose(np.abs(f.values), np.abs(g.values[::-1, :]))
    assert f.spacing == pytest.approx(math.sqrt(PI) * g.spacing)
    ix0, ix1, iy0, iy1 = f.interior
    assert (ix0, ix1) == pytest.approx((0.0, 4 * math.sqrt(PI)))
    assert (iy0, iy1) == pytest.approx((-4 * math.sqrt(PI), 0.0))
    with pytest.raises(PlaneError):
        S.StftPlan(hermites[1], box, 0.1, 1 / 64, plane="invariant")


def _reference_fold(c, n_fft):
    """The record folded onto the FFT period by a zero-padded copy, as the
    simulator did before it added slices into one frame."""
    nx, k = c.shape
    blocks = -(-k // n_fft)
    c = np.concatenate([c, np.zeros((nx, blocks * n_fft - k), dtype=complex)], axis=1)
    return c.reshape(nx, blocks, n_fft).sum(axis=1)


def _reference_component(plan, g, noise):
    """V(x_i, y_j) of one window and one noise record on the plan's frame:
    pairing products, fold, FFT, row gather and row phase."""
    xs = plan.x0 + plan.spacing * np.arange(plan.nx)
    tk = plan.t0 + plan.dt * np.arange(plan.K)
    c = noise[None, :] * np.conj(g.rule(tk[None, :] - xs[:, None]))
    spec = np.fft.fft(_reference_fold(c, plan.n_fft), axis=1)
    js = plan.jlo + np.arange(plan.ny)
    phase = np.exp(-2j * PI * plan.t0 * (js * plan.spacing)) * math.sqrt(plan.dt)
    return spec[:, np.mod(js, plan.n_fft)].T * phase[:, None]


def _reference_grid(plan, seed, r):
    """The plan's grid for realization r of `seed` from the reference fold:
    the normalized sum of its components, mapped to the invariant plane,
    F(z) = exp(-i x y) V(conj(z)/sqrt(pi)), when the plan is in the gwhf
    plane."""
    ws = plan.windows
    draws = S.complex_normals([S.stream(seed, r, k) for k in range(len(ws))], plan.K)
    ref = sum(_reference_component(plan, g, row)
              for g, row in zip(ws, draws)) / math.sqrt(len(ws))
    if plan.plane == "gwhf":
        xs = plan.x0 + plan.spacing * np.arange(plan.nx)
        ys = plan.y0 + plan.spacing * np.arange(plan.ny)
        ref = (np.exp(1j * PI * ys[:, None] * xs[None, :]) * ref)[::-1]
    return ref


def test_single_window_grid_equals_reference_fold(hermites):
    plan = S.StftPlan(hermites[1], (0, 4, 0, 4), 1 / 16, 1 / 64)
    assert plan.n_fft == 1024 and plan.K > plan.n_fft  # the record wraps the frame
    for r in range(3):
        ref = _reference_grid(plan, 31, r)
        got = plan.realize(31, r).values
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("label, spacing", [
    ("hermite:1", 0.25),     # frame shorter than the band: the band folds
    ("hermite:12", 1 / 16),  # the widest Hermite window
    ("gaussian:1.0;0.0;0.25;0.0;0.3", 1 / 16),  # the chirped criterion-8 window
])
def test_banded_plan_matches_untruncated_fold(label, spacing):
    g = window_from_spec(label)
    plan = S.StftPlan(g, (0, 4, 0, 4), spacing, 1 / 64)
    # band and frame in decimated samples, one per D dt
    assert plan.D == _largest_fitting_divisor(plan) == 4
    assert plan.W == math.floor(2 * g.support_radius * 64 / plan.D) + 2 and plan.W < plan.K
    if spacing == 0.25:
        assert plan.n_fft == 256 and plan.n_fft // plan.D == 64 < plan.W
    for r in range(2):
        ref = _reference_grid(plan, 34, r)
        got = plan.realize(34, r).values
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("label", [
    "gaussian:1.0",
    "gaussian:1.6;0.7;0;0;0.3",  # squeezed and chirped: T = 4.99, F = 1.92
    "hermite-mixture:0.0012301533574825742-0.8905918387572742j;"
    "0.2987455375084699-0.45467078517172255j;-0.2741378553622176-0.9916465549964624j",
], ids=["gaussian", "squeezed-chirped", "hermite-mixture"])
def test_general_windows_at_quarter_rate_match_reference_fold(label):
    g = window_from_spec(label)
    plan = S.StftPlan(g, (0, 8, 0, 8), 1 / 16, 1 / 64)
    assert plan.D == _largest_fitting_divisor(plan) == 4
    for r in range(2):
        ref = _reference_grid(plan, 43, r)
        got = plan.realize(43, r).values
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def _largest_fitting_divisor(plan):
    """D by trying every divisor of n_fft against the kept rows' half-width."""
    hy = 0.5 * (plan.ny - 1) * plan.spacing
    F = max(w.freq_radius for w in plan.windows)
    return max(d for d in range(1, plan.n_fft + 1) if plan.n_fft % d == 0
               and (d == 1 or hy + F <= 0.5 / (d * plan.dt)))


@pytest.mark.parametrize("y1, D", [
    # kept rows -0.25 .. 26.25: hy + freq_radius = 16.64 exceeds
    # 1/(2 * 2 dt) = 16, so the record is used at the full rate
    (26, 1),
    # kept rows -0.25 .. 8.94: hy + freq_radius = 7.98, so the kept band
    # reaches within 0.02 of 1/(2 * 4 dt) = 8
    (8.7, 4),
], ids=["full-rate", "band-edge"])
def test_plan_at_the_edge_of_the_decimated_band_matches_reference_fold(hermites, y1, D):
    plan = S.StftPlan(hermites[1], (0, 4, 0, y1), 1 / 16, 1 / 64)
    assert plan.D == _largest_fitting_divisor(plan) == D and plan.n_fft == 1024
    assert plan.W == math.floor(2 * hermites[1].support_radius * 64 / D) + 2
    for r in range(2):
        ref = _reference_grid(plan, 36, r)
        got = plan.realize(36, r).values
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("spec, domain, spacing", [
    ({"family": "window", "window": "hermite:1"}, (0, 8, 0, 8), 1 / 16),
    ({"family": "window", "window": "hermite:1"}, (0, 8, 0, 8), 1 / 32),
    ({"family": "polyentire", "q": 3, "kind": "full"}, (-6.5, 6.5, -6.5, 6.5), 0.08),
    ({"family": "window", "window": "hermite:1", "plane": "gwhf"}, (-6, 6, -6, 6), 0.1),
], ids=["stft-h1", "criterion-7-fine", "poly3-full", "gwhf-h1"])
def test_monte_carlo_geometries_realize_at_quarter_rate(spec, domain, spacing):
    plan = S.FieldSource(spec, domain, spacing, 1 / 64).plan
    assert plan.D == _largest_fitting_divisor(plan) == 4
    assert plan.frame_shape == (plan.nx, plan.n_fft // 4)


def test_full_rate_records_are_the_padded_draws(hermites, monkeypatch):
    # at D = 1 every bin is kept, so a record is its zero-padded draw with no
    # transform, and the grid is the one the FFT pair gives to rounding
    plan = S.StftPlan(hermites[1], (0, 4, 0, 26), 1 / 16, 1 / 64)
    n_rec = len(plan._keep)
    assert plan.D == 1 and np.array_equal(plan._keep, np.arange(n_rec))
    draws = S.complex_normals([S.stream(38, r) for r in range(3)], plan.K)
    padded = np.zeros((3, 1, n_rec), dtype=complex)
    padded[:, 0, :plan.K] = draws
    assert np.array_equal(plan.draw(38, range(3)), padded)
    got = plan.realize(38, 1).values

    def transformed(seed, rs):
        draws = S.complex_normals([S.stream(seed, r) for r in rs], plan.K)
        spec = np.fft.fft(draws, n=n_rec, axis=1)
        return np.fft.ifft(spec[:, plan._keep], axis=1).reshape(len(draws), 1, n_rec)

    monkeypatch.setattr(plan, "draw", transformed)
    ref = plan.realize(38, 1).values
    assert np.max(np.abs(got - ref)) <= 1e-13


def test_plan_refuses_a_frame_beyond_the_element_cap(hermites):
    # rows 28 wide keep D = 1, so each frame row is the whole 35,721-sample
    # FFT; the 13.1 million-element phase table would pass, and the
    # command-line tests refuse a grid, a phase table and a noise record
    with pytest.raises(ParameterError, match="needs a frame of 20218086 elements"):
        S.StftPlan(hermites[1], (0, 1, -14, 14), 1.8e-3, 1 / 64)


def test_threads_share_one_plan(hermites):
    plan = S.StftPlan([hermites[0], hermites[1]], (0, 4, 0, 4), 1 / 16, 1 / 64)

    def grid(r):
        return plan.realize(39, r).values

    serial = [grid(r) for r in range(16)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often inside realize
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            threaded = list(pool.map(grid, range(16), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert all(np.array_equal(a, b) for a, b in zip(serial, threaded))


@pytest.mark.parametrize("spec", [{"family": "window", "window": "hermite:1"},
                                  {"family": "polyentire", "q": 2, "kind": "full"}],
                         ids=["window", "polyentire"])
def test_batch_grids_share_no_memory(spec):
    plan = S.FieldSource(spec, (0, 4, 0, 4), 1 / 16, 1 / 64).plan
    grids = list(plan.grids(plan.draw(38, range(4)), 38))
    for a in range(4):
        for b in range(a + 1, 4):
            assert not np.shares_memory(grids[a].values, grids[b].values)
    assert not np.array_equal(grids[0].values, grids[1].values)


@pytest.mark.parametrize("spacing", [
    1 / 16,  # the frame is longer than the band
    0.25,    # the summed band folds onto the frame
])
def test_multi_window_plan_matches_per_component_sum(hermites, spacing):
    ws = [hermites[0], hermites[1], hermites[2]]
    plan = S.StftPlan(ws, (0, 3, 0, 3), spacing, 1 / 64)
    if spacing == 0.25:
        assert (plan.n_fft, plan.D, plan.W, plan.nx) == (256, 4, 113, 20)
    else:
        assert plan.n_fft // plan.D > plan.W
    T = max(w.support_radius for w in ws)
    # the record starts T before the grid column of the anchor margin
    assert plan.t0 == 0 - 2 * max(T, max(w.freq_radius for w in ws)) - T
    for r in range(2):
        ref = _reference_grid(plan, 32, r)
        got = plan.realize(32, r)
        assert got.meta["components"] == 3
        assert np.max(np.abs(got.values - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_realize_and_stream_reject_bad_inputs_with_parameter_error(hermites):
    with pytest.raises(ParameterError, match="seed -1"):
        S.stream(-1)
    with pytest.raises(ParameterError, match="seed -1"):
        S.StftPlan(hermites[0], (0, 2, 0, 2), 1 / 16, 1 / 64).realize(-1)
    for spacing, dt, refused in (("x", 1 / 64, "spacing 'x'"), (True, 1 / 64, "spacing True"),
                                 (1 / 16, "x", "dt 'x'"), (1 / 16, True, "dt True")):
        with pytest.raises(ParameterError, match=refused):
            S.StftPlan(hermites[0], (0, 2, 0, 2), spacing, dt)


def test_gwhf_plane_plan_matches_mapped_grid(hermites):
    # a gwhf-plane plan over the image of an stft-plane rectangle: the
    # reference fold mapped to the invariant plane, on the stft-plane plan's
    # lattice mapped by z = sqrt(pi) conj(u + i v)
    ws = [hermites[0], hermites[1]]
    stft = S.StftPlan(ws, (0, 3, -1, 2), 1 / 16, 1 / 64).realize(33)
    box = S._gwhf_box((0, 3, -1, 2))
    plan = S.StftPlan(ws, box, math.sqrt(PI) / 16, 1 / 64, plane="gwhf")
    got = plan.realize(33, 0)
    ref = _reference_grid(plan, 33, 0)
    assert np.max(np.abs(got.values - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert np.allclose(np.abs(got.values), np.abs(stft.values[::-1]))
    assert (got.plane, got.seed, got.values.shape) == ("gwhf", 33, stft.values.shape)
    assert got.origin == pytest.approx(math.sqrt(PI) * complex(stft.xs[0], -stft.ys[-1]))
    assert got.spacing == pytest.approx(math.sqrt(PI) * stft.spacing)
    assert (stft.interior, got.interior) == ((0, 3, -1, 2), box)
    assert got.meta == dict(stft.meta, mapped_from="stft")


def test_direct_gwhf_plane_plan_keeps_the_domain_given(hermites):
    # the stft-plane preimage of 0,8,0,8 maps back to 7.999999999999999
    plan = S.StftPlan(hermites[1], (0, 8, 0, 8), 0.08, 1 / 64, plane="gwhf")
    assert S._gwhf_box(plan.requested) != (0.0, 8.0, 0.0, 8.0)
    assert plan.interior == (0.0, 8.0, 0.0, 8.0)
    assert [plan.realize(1, r).interior for r in range(2)] == \
        [(0.0, 8.0, 0.0, 8.0)] * 2


@pytest.mark.parametrize("spec, domain, spacing", [
    ({"family": "window", "window": "hermite:1"}, (0, 8, 0, 8), 1 / 16),
    ({"family": "window", "window": "hermite:1", "plane": "gwhf"}, (-6, 6, -6, 6), 0.1),
    ({"family": "polyentire", "q": 3, "kind": "full"}, (-6.5, 6.5, -6.5, 6.5), 0.08),
    # the chirped criterion-8 window
    ({"family": "window", "window": "gaussian:1.0;0.0;0.25;0.0;0.3"}, (0, 8, 0, 8), 1 / 16),
    # frame shorter than the band: the band folds
    ({"family": "window", "window": "hermite:1"}, (0, 4, 0, 4), 0.25),
], ids=["stft-h1", "gwhf-h1", "poly3-full", "chirp", "h1-folded"])
def test_default_plan_matches_reference_fold_and_anchored_zeros(spec, domain, spacing):
    # the default plan decimates by the D its own rows admit, at least its
    # anchored twin's: the grids agree with the reference fold, not bit for bit
    src = S.FieldSource(spec, domain, spacing, 1 / 64)
    plan, twin = src.plan, anchored_plan(src.plan)
    assert (plan.t0, plan.K, plan.n_fft) == (twin.t0, twin.K, twin.n_fft)
    assert plan.nx < twin.nx and plan.ny < twin.ny and plan.D >= twin.D
    for r in range(2):
        got = plan.realize(41, r)
        ref = _reference_grid(plan, 41, r)
        assert np.max(np.abs(got.values - ref)) <= 1e-12 * np.max(np.abs(ref))
        za = Z.detect_zeros(got)
        zb = Z.detect_zeros(twin.realize(41, r))
        assert za and len(za) == len(zb)
        for name in ("charge", "refined", "jacobian_sign", "degenerate"):
            assert np.array_equal(getattr(za, name), getattr(zb, name)), name
        assert np.abs(za.position - zb.position).max() <= 1e-12


def test_default_pad_widens_to_the_grid_floor(hermites):
    # a 4-cell pad gives 15 points on each axis of this domain; the parent
    # lattice has more, so the pad widens to 16 points instead of refusing
    plan = S.StftPlan(hermites[1], (0, 2, 0, 2), 0.3, 1 / 64)
    twin = anchored_plan(plan)
    assert (plan.nx, plan.ny) == (16, 16) and min(twin.nx, twin.ny) > 16
    assert plan.D == _largest_fitting_divisor(plan) == 4
    ref = _reference_grid(plan, 42, 0)
    got = plan.realize(42).values
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
    # widening never passes the ends of the anchored lattice
    assert S._crop(16, 0.0, 1.0, 5.0, 7.0) == slice(0, 16)
    assert S._crop(20, 0.0, 1.0, 17.0, 30.0) == slice(4, 20)
    assert S._crop(40, 0.0, 1.0, 10.0, 12.0) == slice(3, 19)


def test_fft_frame_is_smallest_7_smooth_length():
    def smooth(n):
        for p in (2, 3, 5, 7):
            while n % p == 0:
                n //= p
        return n == 1

    for n in range(1, 4000):
        m = S._fft_frame(n)
        assert m >= n and smooth(m)
        assert not any(smooth(k) for k in range(n, m))
    assert S._fft_frame(1418) == 1440 and S._fft_frame(1024) == 1024


@pytest.mark.parametrize("spacing", [1 / 16, 1 / 32, 0.05, 0.1 / math.sqrt(PI),
                                     0.08 / math.sqrt(PI), 0.0437, 1 / 9])
@pytest.mark.parametrize("dt", [1 / 64, 1 / 48])
def test_plan_spacing_never_coarser_than_requested(hermites, spacing, dt):
    plan = S.StftPlan(hermites[0], (0, 2, 0, 2), spacing, dt)
    assert plan.spacing <= spacing * (1 + 1e-12)
    assert plan.spacing >= spacing * (1 - 0.05)
    assert plan.spacing == 1 / (plan.n_fft * dt)


def test_polyentire_frame_and_spacing():
    # 0.08 in the gwhf plane asks for a 1418-sample frame; 1440 is the 7-smooth one
    src = S.FieldSource({"family": "polyentire", "q": 3, "kind": "full"},
                        (-6.5, 6.5, -6.5, 6.5), 0.08, 1 / 64)
    assert src.plan.n_fft == 1440
    grid = src.plan.realize(5)
    assert grid.spacing == pytest.approx(0.0788, abs=5e-5) and grid.spacing < 0.08
    assert grid.meta["requested_spacing_rounded_to"] == src.plan.spacing
    assert grid.meta["components"] == 3 and grid.plane == "gwhf"


def test_series_field_deterministic_and_rule():
    g1 = S.FieldSource({"family": "series-gef"}, (-3, 3, -3, 3), 0.1).plan.realize(4)
    g2 = S.FieldSource({"family": "series-gef"}, (-3, 3, -3, 3), 0.1).plan.realize(4)
    assert np.array_equal(g1.values, g2.values)
    assert g1.plane == "gwhf"
    r_max = max(abs(complex(x, y)) for x in g1.xs[[0, -1]] for y in g1.ys[[0, -1]])
    assert g1.meta["n_terms"] >= S.series_terms_required(r_max)
    with pytest.raises(ValueError):
        S.FieldSource({"family": "series-gef", "n_terms": 20}, (-3, 3, -3, 3), 0.1).plan.realize(4)


@pytest.mark.parametrize("spacing", [math.inf, 0.0, -0.5, math.nan, "x", True])
def test_series_plan_refuses_spacing_not_positive_and_finite(spacing):
    with pytest.raises(ParameterError, match=f"spacing {spacing!r} must be positive and finite"):
        S.SeriesPlan((0, 4, 0, 4), spacing)


@pytest.mark.parametrize("margin", [-1.0, -1e-300, math.nan, "x", True])
def test_stft_plan_refuses_a_margin_that_is_not_a_non_negative_number(hermites, margin):
    # a negative margin would shrink the grid inside the interior it records
    with pytest.raises(ParameterError, match=f"^margin {re.escape(repr(margin))} must be None "
                                             "or a non-negative number$"):
        S.StftPlan(hermites[1], (0, 8, 0, 8), 1 / 16, 1 / 64, margin)


def test_stft_plan_takes_margin_zero(hermites):
    # no pad: the whole lattice is the interior's rectangle
    plan = S.StftPlan(hermites[1], (0, 8, 0, 8), 1 / 16, 1 / 64, 0)
    assert plan.margin == 0.0 and plan.lattice == plan.rectangle
    assert plan.rectangle.box == (0.0, 8.0, 0.0, 8.0)


@pytest.mark.parametrize("spec", [{"family": "window", "window": "hermite:1"},
                                  {"family": "polyentire", "q": 3, "kind": "full"},
                                  {"family": "series-gef"}],
                         ids=["window", "polyentire", "series"])
def test_density_refuses_an_unknown_convention(spec):
    # every family names the convention it does not know and keeps no
    # density under it
    source = S.FieldSource(spec, (-3, 3, -3, 3), 0.1, 1 / 64)
    with pytest.raises(ParameterError, match="^unknown convention 'bogus', expected one of"):
        source.density("bogus")
    assert "bogus" not in source._densities
    assert source.density("regression") > 0


@pytest.mark.parametrize("geometry, refused", [
    (dict(spacing="x"), "spacing 'x' must be positive and finite"),
    (dict(spacing=True), "spacing True must be positive and finite"),
    (dict(origin="x"), "grid origin 'x' must be a finite number"),
], ids=["spacing-not-a-number", "spacing-bool", "origin-not-a-number"])
def test_field_grid_refuses_geometry_that_is_not_a_number(geometry, refused):
    kw = dict(values=np.ones((20, 20), complex), origin=0j, spacing=0.1, plane="gwhf", seed=0)
    with pytest.raises(ParameterError, match=f"^{re.escape(refused)}$"):
        S.FieldGrid(**{**kw, **geometry})


@pytest.mark.parametrize("bad", [complex(math.nan, 0.0), complex(0.0, math.inf),
                                 complex(-math.inf, math.nan)], ids=["nan", "inf", "both"])
def test_field_grid_refuses_non_finite_samples(bad):
    # a non-finite sample would be wound as a phase of NaN: refused with the
    # count and the first in row-major order
    values = np.ones((20, 20), complex)
    values[5, 7] = values[12, 3] = bad
    with pytest.raises(ParameterError, match="^values hold 2 non-finite samples, "
                                             "the first at row 5, column 7$"):
        S.FieldGrid(values=values, origin=0j, spacing=0.1, plane="gwhf", seed=0)


def test_series_empirical_covariance():
    plan = S.SeriesPlan((-1.5, 1.5, -1.5, 1.5), 0.4)
    zs = plan.z
    pts = [(1, 1), (3, 4), (2, 5)]
    n = 200
    prods = {p: [] for p in zip(pts, pts[1:] + pts[:1])}
    for r in range(n):
        vals = plan.realize(99, r).values.ravel()
        for (a, b) in prods:
            za, zb = zs.ravel()[a[0] * 3 + a[1]], zs.ravel()[b[0] * 3 + b[1]]
            prods[(a, b)].append(vals[a[0] * 3 + a[1]] * np.conj(vals[b[0] * 3 + b[1]]))
    for (a, b), samples in prods.items():
        samples = np.array(samples)
        za = zs.ravel()[a[0] * 3 + a[1]]
        zb = zs.ravel()[b[0] * 3 + b[1]]
        theory = np.exp(1j * (za * np.conj(zb)).imag) * np.exp(-0.5 * abs(za - zb) ** 2)
        se = samples.std(ddof=1) / math.sqrt(n)
        assert abs(samples.mean() - theory) <= 4 * max(se, 1e-3)


def test_series_batch_rows_equal_single_realizations():
    # 29 x 29 points: three full basis chunks and a partial one
    plan = S.SeriesPlan((-2.0, 2.0, -2.0, 2.0), 0.2)
    assert plan.z.size % S._CHUNK != 0 and plan.z.size > 2 * S._CHUNK
    singles = [plan.realize(13, r).values for r in range(12)]
    for size in range(1, 10):
        for start in (0, 12 - size):
            batch = list(plan.grids(plan.draw(13, range(start, start + size)), 13))
            assert len(batch) == size
            for k, grid in enumerate(batch):
                assert np.array_equal(grid.values, singles[start + k]), (size, start, k)
                assert grid.seed == 13
    plan = S.FieldSource({"family": "series-gef"}, (-2.0, 2.0, -2.0, 2.0), 0.2).plan
    grids = list(plan.grids(plan.draw(13, range(5)), 13))
    assert all(np.array_equal(g.values, singles[r]) for r, g in enumerate(grids))
    assert np.array_equal(plan.realize(13, 3).values, singles[3])


def test_window_source_batch_matches_realize(hermites):
    plan = S.FieldSource({"family": "polyentire", "q": 2, "kind": "full"},
                         (-2.0, 2.0, -2.0, 2.0), 0.1, 1 / 64).plan
    grids = list(plan.grids(plan.draw(8, [3, 1, 4]), 8))
    for r, grid in zip([3, 1, 4], grids):
        assert np.array_equal(grid.values, plan.realize(8, r).values)
        assert grid.plane == "gwhf" and grid.meta["components"] == 2


@pytest.mark.parametrize("spec, domain, spacing", [
    ({"family": "window", "window": "hermite:1"}, (0, 8, 0, 8), 1 / 16),
    ({"family": "polyentire", "q": 3, "kind": "full"}, (-6.5, 6.5, -6.5, 6.5), 0.08),
], ids=["window", "polyentire"])
def test_stft_edges_independent_of_the_block(spec, domain, spacing):
    # a realization's four edges have the same bytes in a block of 1, 2, 3
    # or 8, at either end of it; at the polyentire geometry a product of 8
    # rows with the row operator is large enough for a threaded BLAS to
    # split, and round differently, so every product has _GEMM_ROWS rows
    plan = S.FieldSource(spec, domain, spacing, 1 / 64).plan
    whole = plan.edges(plan.draw(17, range(8)))
    for size in (1, 2, 3, 8):
        for start in (0, 8 - size):
            edges = plan.edges(plan.draw(17, range(start, start + size)))
            for edge, want in zip(edges, whole):
                assert edge.shape == (size, want.shape[1])
                assert edge.tobytes() == want[start:start + size].tobytes(), (size, start)


@pytest.mark.parametrize("spec, domain, spacing", [
    ({"family": "window", "window": "hermite:1"}, (0, 8, 0, 8), 1 / 16),
    ({"family": "window", "window": "hermite:1", "plane": "gwhf"}, (-6.5, 6.5, -6.5, 6.5), 0.08),
    ({"family": "polyentire", "q": 3, "kind": "full"}, (-6.5, 6.5, -6.5, 6.5), 0.08),
    ({"family": "series-gef"}, (-3.0, 3.0, -3.0, 3.0), 0.1),
], ids=["stft-window", "gwhf-window", "polyentire", "series"])
def test_rectangle_samples_are_the_grids_block(spec, domain, spacing):
    # a realization's samples on the lattice rectangle, drawn in a block of
    # 1, 3 or 8 at either end of it, have the bytes of its grid's block
    # there; the stft simulator makes them with no grid
    plan = S.FieldSource(spec, domain, spacing, 1 / 64).plan
    r = plan.rectangle
    rows, cols = slice(r.j0, r.j1 + 1), slice(r.i0, r.i1 + 1)
    want = [plan.realize(23, k).values[rows, cols] for k in range(8)]
    for size in (1, 3, 8):
        for start in (0, 8 - size):
            got = list(plan.rectangle_samples(plan.draw(23, range(start, start + size))))
            assert len(got) == size
            for k, samples in enumerate(got, start):
                assert samples.shape == want[k].shape
                assert samples.tobytes() == want[k].tobytes(), (size, start, k)


def test_threads_build_one_row_operator_and_agree(hermites):
    # three threads on two cores draw edges from one fresh plan, whose row
    # operator the first blocks build concurrently, switching often
    plan = S.StftPlan([hermites[0], hermites[1]], (0, 4, 0, 4), 1 / 16, 1 / 64)
    twin = S.StftPlan([hermites[0], hermites[1]], (0, 4, 0, 4), 1 / 16, 1 / 64)

    def block(plan, lo):
        return plan.edges(plan.draw(41, range(lo, lo + 3)))

    serial = [block(twin, lo) for lo in range(0, 36, 3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=3) as pool:
            threaded = list(pool.map(lambda lo: block(plan, lo), range(0, 36, 3), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert len(threaded) == 12
    for got, want in zip(threaded, serial):
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))


@pytest.mark.parametrize("spec", [{"family": "window", "window": "hermite:1"},
                                  {"family": "polyentire", "q": 2, "kind": "full"},
                                  {"family": "series-gef"}],
                         ids=["window", "polyentire", "series"])
def test_no_realizations_give_empty_edges_and_no_grids(spec):
    plan = S.FieldSource(spec, (-3.0, 3.0, -3.0, 3.0), 0.1, 1 / 64).plan
    rect = plan.rectangle
    edges = plan.edges(plan.draw(5, []))
    sides = (rect.i1 - rect.i0 + 1,) * 2 + (rect.j1 - rect.j0 + 1,) * 2
    assert [edge.shape for edge in edges] == [(0, n) for n in sides]
    charges = Z.rectangle_charges(rect, *edges)
    assert charges.dtype == np.int64 and charges.shape == (0,)
    assert list(plan.grids(plan.draw(5, []), 5)) == []


def test_row_operator_refuses_a_geometry_beyond_the_element_cap(monkeypatch):
    # the operator is counted before it is made: under a lowered cap the
    # plan's own arrays are already built, and its 130,944-element operator
    # (11 tiles of 3 x 124 record samples by 2 x 16 columns) is refused,
    # naming the geometry as given in the gwhf plane
    source = S.FieldSource({"family": "polyentire", "q": 3, "kind": "full"},
                           (-6.5, 6.5, -6.5, 6.5), 0.08, 1 / 64)
    monkeypatch.setattr(S, "_MAX_ELEMENTS", 100_000)
    with pytest.raises(ParameterError, match=r"^domain \(-6\.5, 6\.5, -6\.5, 6\.5\) at spacing "
                                             r"0\.08 and dt 0\.015625 with margin [\d.]+ needs a "
                                             r"row operator of 130944 elements, more than the "
                                             r"100000 any one array may hold$"):
        source.plan.edges(source.plan.draw(3, range(2)))
    assert "_row_operator" not in vars(source.plan)
    monkeypatch.setattr(S, "_MAX_ELEMENTS", 130_944)
    first, op = source.plan._row_operator
    assert op.shape == (11, 3 * 124, 2 * S._TILE) and len(first) == 11


@pytest.mark.parametrize("n_terms", [None, 512, 513], ids=["rule-351", "512", "513"])
def test_series_matches_per_term_sum(n_terms):
    # the criterion-6 geometry: |z| reaches 9.6 at the corners, 351 terms by
    # the rule; 512 and 513 end the basis on a full and a one-row doubling block
    plan = S.SeriesPlan((-6.5, 6.5, -6.5, 6.5), 0.08, n_terms)
    assert plan.n_terms == (n_terms or 351)
    xi = S.complex_normals([S.stream(77, 4)], plan.n_terms)[0]
    acc = np.zeros(plan.z.shape, dtype=complex)
    term = np.ones(plan.z.shape, dtype=complex)
    for n in range(plan.n_terms):
        if n:
            term = term * plan.z / math.sqrt(n)
        acc += xi[n] * term
    ref = np.exp(-0.5 * np.abs(plan.z) ** 2) * acc
    got = plan.realize(77, 4).values
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_series_circle_values_match_evaluator():
    # the criterion-6 circles: R = 1 .. 4 take fewer points than the 351
    # terms (the fold wraps them), R = 5 and 6 more (zero padding)
    plan = S.SeriesPlan((-6.5, 6.5, -6.5, 6.5), 0.08)
    radii = np.arange(1.0, 7.0)
    counts = np.maximum(16, np.ceil(2 * PI * radii / 0.08).astype(int))
    assert counts[3] < plan.n_terms < counts[4]
    coeffs = plan.draw(77, range(40))
    got = np.split(plan.circle_values(coeffs, radii, counts), np.cumsum(counts)[:-1], axis=1)
    for radius, m, values in zip(radii, counts, got):
        ref = plan.evaluate(coeffs, radius * np.exp(2j * PI * np.arange(m) / m))
        err = np.max(np.abs(values - ref), axis=1)
        assert np.all(err <= 1e-12 * np.max(np.abs(ref), axis=1)), radius


@pytest.mark.parametrize("domain, spacing, bound", [
    ((-6.5, 6.5, -6.5, 6.5), 0.08, 3e-14),
    ((-22.0, 22.0, -22.0, 22.0), 1.0, 1e-12),
], ids=["criterion-6", "near-radius-limit"])
def test_series_matches_extended_precision_sum(domain, spacing, bound):
    # a term-by-term sum in np.longdouble at ~400 sampled points plus the
    # corners, the origin and the largest |z|; near the radius limit (the
    # grid spans -26..26 with its 4-cell pad) the scale rho^n/sqrt(n!)
    # reaches 4e292
    plan = S.SeriesPlan(domain, spacing)
    n = np.arange(1, plan.n_terms, dtype=np.longdouble)
    scale = np.cumprod(np.r_[np.longdouble(1), np.longdouble(plan.rho) / np.sqrt(n)])
    # exp(n log rho - lgamma(n+1)/2) would be off by 2e-13 at 351 terms
    assert np.max(np.abs(plan.scale / scale - 1)) <= 3e-14
    nx = plan.z.shape[1]
    flat = np.abs(plan.z).ravel()
    idx = np.r_[np.random.default_rng(5).choice(flat.size, 400, replace=False),
                0, nx - 1, flat.size - nx, flat.size - 1, np.argmin(flat), np.argmax(flat)]
    z = plan.z.ravel()[idx].astype(np.clongdouble)
    xi = S.complex_normals([S.stream(77, 4)], plan.n_terms)[0].astype(np.clongdouble)
    acc, term = np.zeros(z.shape, np.clongdouble), np.ones(z.shape, np.clongdouble)
    for k in range(plan.n_terms):
        if k:
            term = term * z / np.sqrt(n[k - 1])
        acc += xi[k] * term
    ref = np.exp(-np.abs(z) ** 2 / 2) * acc
    got = plan.realize(77, 4).values
    assert np.all(got != 0)
    assert np.max(np.abs(got.ravel()[idx] - ref)) <= bound * np.max(np.abs(got))


def test_polyentire_pure_q1_matches_gef_stats(hermites):
    # same machinery as the h0 window: twisted kernel exp(-|z|^2/2)
    f = S.FieldSource({"family": "polyentire", "q": 1, "kind": "pure"},
                      (-3, 3, -3, 3), 0.1, 1 / 64).plan.realize(6)
    assert f.plane == "gwhf"
    assert np.mean(np.abs(f.values) ** 2) == pytest.approx(1.0, abs=0.15)
    with pytest.raises(ValueError):
        S.FieldSource({"family": "polyentire", "q": 9, "kind": "pure"},
                      (-3, 3, -3, 3), 0.1, 1 / 64).plan.realize(6)
    with pytest.raises(ValueError):
        S.FieldSource({"family": "polyentire", "q": 2, "kind": "mixed"},
                      (-3, 3, -3, 3), 0.1, 1 / 64).plan.realize(6)


def test_polyentire_full_uses_independent_components():
    pure = S.FieldSource({"family": "polyentire", "q": 2, "kind": "pure"},
                         (-2, 2, -2, 2), 0.1, 1 / 64).plan.realize(8)
    full = S.FieldSource({"family": "polyentire", "q": 2, "kind": "full"},
                         (-2, 2, -2, 2), 0.1, 1 / 64).plan.realize(8)
    assert pure.values.shape == full.values.shape
    assert not np.allclose(pure.values, full.values)


def test_grid_container_roundtrip(tmp_path, hermites):
    g = S.FieldSource({"family": "window", "window": hermites[0]},
                      (0, 2, 0, 2), 1 / 16, 1 / 64).plan.realize(12)
    path = tmp_path / "field.gwhf"
    S.save_grid(g, str(path))
    back = S.load_grid(str(path))
    assert back.plane == g.plane
    assert back.spacing == pytest.approx(g.spacing)
    assert back.origin == pytest.approx(g.origin)
    assert back.interior == g.interior == (0, 2, 0, 2)
    # payload is complex64: float32-level agreement
    assert np.allclose(back.values, g.values, atol=2e-6)


_finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
# a rectangle's side: x0 + side > x0 for every x0 drawn from _finite
_extent = st.floats(min_value=1e-3, max_value=1e6)


@given(ny=st.integers(16, 20), nx=st.integers(16, 20), plane=st.sampled_from(["stft", "gwhf"]),
       origin=st.tuples(_finite, _finite), spacing=st.floats(1e-6, 1e3),
       seed=st.integers(0, 2 ** 63 - 1),
       interior=st.none() | st.tuples(_finite, _extent, _finite, _extent).map(
           lambda b: (b[0], b[0] + b[1], b[2], b[2] + b[3])),
       label=st.text(max_size=12), sample_seed=st.integers(0, 2 ** 32 - 1),
       cuts=st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=4))
def test_grid_container_roundtrip_property(tmp_path_factory, ny, nx, plane, origin, spacing,
                                           seed, interior, label, sample_seed, cuts):
    rng = np.random.default_rng(sample_seed)
    values = rng.normal(size=(ny, nx)) + 1j * rng.normal(size=(ny, nx))
    grid = S.FieldGrid(values=values, origin=complex(*origin), spacing=spacing, plane=plane,
                       seed=seed, interior=interior, meta={"label": label})
    path = tmp_path_factory.mktemp("container") / "field.gwhf"
    S.save_grid(grid, str(path))
    back = S.load_grid(str(path))
    assert (back.plane, back.origin, back.spacing, back.seed, back.interior, back.meta) == \
        (plane, complex(*origin), spacing, seed, interior, {"label": label})
    assert interior is None or isinstance(back.interior, tuple)
    assert np.array_equal(back.values, values.astype(np.complex64))
    blob = path.read_bytes()
    for cut in cuts:
        path.write_bytes(blob[:int(cut * len(blob))])
        with pytest.raises(ContainerError):
            S.load_grid(str(path))


@pytest.mark.parametrize("seed", [1.7, True, "x", -1, None])
def test_grid_refuses_a_seed_label_a_container_cannot_keep(tmp_path, seed):
    # a header seed edited to 1.7 or true would load and save back as 1; "x"
    # and null would make save_grid fail
    grid = dict(values=np.ones((16, 16), complex), origin=0j, spacing=0.1, plane="gwhf")
    refused = f"grid seed {re.escape(repr(seed))} must be a non-negative integer"
    with pytest.raises(ParameterError, match=f"^{refused}$"):
        S.FieldGrid(**grid, seed=seed)
    path = tmp_path / "field.gwhf"
    S.save_grid(S.FieldGrid(**grid, seed=3), str(path))
    blob = path.read_bytes()
    start = len(S._MAGIC) + 8
    (hlen,) = struct.unpack_from("<Q", blob, len(S._MAGIC))
    header = json.dumps(dict(json.loads(blob[start:start + hlen]), seed=seed)).encode()
    path.write_bytes(S._MAGIC + struct.pack("<Q", len(header)) + header + blob[start + hlen:])
    with pytest.raises(ContainerError, match=refused):
        S.load_grid(str(path))
