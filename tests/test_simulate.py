import math
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
    a = S.complex_normals(S.stream(5, 0, 0), 64)
    b = S.complex_normals(S.stream(5, 0, 0), 64)
    c = S.complex_normals(S.stream(5, 0, 1), 64)
    d = S.complex_normals(S.stream(5, 1, 0), 64)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_complex_normals_moments():
    z = S.complex_normals(S.stream(1), 200_000)
    assert abs(z.mean()) < 0.01
    assert np.mean(np.abs(z) ** 2) == pytest.approx(1.0, abs=0.01)


def test_stft_field_deterministic(hermites):
    g1 = S.FieldSource({"family": "window", "window": hermites[1]},
                       (0, 4, 0, 4), 1 / 16, 1 / 64).realize(9)
    g2 = S.FieldSource({"family": "window", "window": hermites[1]},
                       (0, 4, 0, 4), 1 / 16, 1 / 64).realize(9)
    assert np.array_equal(g1.values, g2.values)
    g3 = S.FieldSource({"family": "window", "window": hermites[1]},
                       (0, 4, 0, 4), 1 / 16, 1 / 64).realize(10)
    assert not np.array_equal(g1.values, g3.values)


def test_stft_field_metadata(hermites):
    src = S.FieldSource({"family": "window", "window": hermites[0]},
                        (0, 4, 0, 4), 1 / 16, 1 / 64)
    g = src.realize(1)
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
    assert [g.interior for g in src.realize_batch(1, range(2))] == [(0.0, 8.0, 0.0, 8.0)] * 2


def test_stft_pointwise_variance_is_window_energy(hermites):
    plan = S.StftPlan(hermites[1], (0, 2, 0, 2), 1 / 16, 1 / 64)
    iy = plan.ny // 2
    ix = plan.nx // 2
    vals = np.array([plan.realize(S.stream(50, r))
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
    grids = [plan.realize(S.stream(77, r)) for r in range(n)]
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
        vals = plan.realize(S.stream(31, r)).values
        rows[r] = np.mean(np.abs(vals[np.ix_(js, isel)]) ** 2, axis=1)
    mean = rows.mean(axis=0)
    se = rows.std(axis=0, ddof=1) / math.sqrt(n)
    z = (mean - 1.0) / np.maximum(se, 1e-12)
    assert np.max(np.abs(z)) < 5.0


def test_alias_band_rejected(hermites):
    with pytest.raises(AliasBandError):
        S.FieldSource({"family": "window", "window": hermites[0]},
                      (0, 4, 28, 31), 1 / 16, 1 / 64).realize(1)
    with pytest.raises(AliasBandError):
        # dt far too coarse for the window's frequency extent
        S.FieldSource({"family": "window", "window": hermites[0]},
                      (0, 4, 0, 4), 1 / 16, 1 / 2).realize(1)


def test_gwhf_plane_grid_geometry(hermites):
    # over the image of (0, 4)^2 the gwhf-plane source samples the stft-plane
    # grid's lattice, mapped: rows flipped, spacing and interior scaled
    spec = {"family": "window", "window": hermites[1]}
    g = S.FieldSource(spec, (0, 4, 0, 4), 1 / 16, 1 / 64).realize(3)
    box = S._gwhf_box((0, 4, 0, 4))
    f = S.FieldSource(dict(spec, plane="gwhf"), box, math.sqrt(PI) / 16, 1 / 64).realize(3)
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
    ref = sum(_reference_component(plan, g, S.complex_normals(S.stream(seed, r, k), plan.K))
              for k, g in enumerate(ws)) / math.sqrt(len(ws))
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
        got = plan.realize(S.stream(31, r)).values
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
        got = plan.realize(S.stream(34, r)).values
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
        got = plan.realize(S.stream(43, r)).values
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
        got = plan.realize(S.stream(36, r)).values
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


def test_plan_refuses_a_frame_beyond_the_element_cap(hermites):
    # rows 28 wide keep D = 1, so each frame row is the whole 35,721-sample
    # FFT; the 13.1 million-element phase table would pass, and the
    # command-line tests refuse a grid, a phase table and a noise record
    with pytest.raises(ParameterError, match="needs a frame of 20218086 elements"):
        S.StftPlan(hermites[1], (0, 1, -14, 14), 1.8e-3, 1 / 64)


def test_frame_buffer_changes_no_grid(hermites):
    ws = [hermites[0], hermites[1]]
    plan, twin = (S.StftPlan(ws, (0, 4, 0, 4), 1 / 16, 1 / 64) for _ in range(2))
    frame = np.full(plan.frame_shape, np.nan + 1j, dtype=complex)
    for r in range(3):
        fresh = twin.realize([S.stream(37, r, k) for k in range(2)]).values
        plan._frames[:] = [frame]  # a frame full of stale values
        reused = plan.realize([S.stream(37, r, k) for k in range(2)], 37).values
        assert np.array_equal(fresh, reused)
        assert not np.shares_memory(reused, frame)
        assert len(plan._frames) == 1 and plan._frames[0] is frame


def test_threads_share_one_plan_and_its_frames(hermites):
    plan = S.StftPlan([hermites[0], hermites[1]], (0, 4, 0, 4), 1 / 16, 1 / 64)

    def grid(r):
        return plan.realize([S.stream(39, r, k) for k in range(2)], 39).values

    serial = [grid(r) for r in range(16)]
    plan._frames.clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often inside realize
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            threaded = list(pool.map(grid, range(16), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert all(np.array_equal(a, b) for a, b in zip(serial, threaded))
    assert 1 <= len(plan._frames) <= 2


@pytest.mark.parametrize("spec", [{"family": "window", "window": "hermite:1"},
                                  {"family": "polyentire", "q": 2, "kind": "full"}],
                         ids=["window", "polyentire"])
def test_batch_grids_share_no_memory(spec):
    grids = list(S.FieldSource(spec, (0, 4, 0, 4), 1 / 16, 1 / 64).realize_batch(38, range(4)))
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
        rngs = [S.stream(32, r, k) for k in range(3)]
        ref = _reference_grid(plan, 32, r)
        got = plan.realize(rngs)
        assert got.meta["components"] == 3
        assert np.max(np.abs(got.values - ref)) <= 1e-12 * np.max(np.abs(ref))
    with pytest.raises(ValueError):
        plan.realize(S.stream(32, 0))  # one generator for three windows


def test_realize_and_stream_reject_bad_inputs_with_parameter_error(hermites):
    plan = S.StftPlan([hermites[0], hermites[1]], (0, 2, 0, 2), 1 / 16, 1 / 64)
    with pytest.raises(ParameterError, match="3 generators for 2 windows"):
        plan.realize([S.stream(35, 0, k) for k in range(3)])
    with pytest.raises(ParameterError, match="seed -1"):
        S.stream(-1)


def test_gwhf_plane_plan_matches_mapped_grid(hermites):
    # a gwhf-plane plan over the image of an stft-plane rectangle: the
    # reference fold mapped to the invariant plane, on the stft-plane plan's
    # lattice mapped by z = sqrt(pi) conj(u + i v)
    ws = [hermites[0], hermites[1]]
    rngs = [S.stream(33, 0, k) for k in range(2)]
    stft = S.StftPlan(ws, (0, 3, -1, 2), 1 / 16, 1 / 64).realize(rngs, 33)
    box = S._gwhf_box((0, 3, -1, 2))
    plan = S.StftPlan(ws, box, math.sqrt(PI) / 16, 1 / 64, plane="gwhf")
    got = plan.realize([S.stream(33, 0, k) for k in range(2)], 33)
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
    assert [plan.realize(S.stream(1, r)).interior for r in range(2)] == \
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
    q = len(plan.windows)
    for r in range(2):
        got = plan.realize([S.stream(41, r, k) for k in range(q)], 41)
        ref = _reference_grid(plan, 41, r)
        assert np.max(np.abs(got.values - ref)) <= 1e-12 * np.max(np.abs(ref))
        za = Z.detect_zeros(got)
        zb = Z.detect_zeros(twin.realize([S.stream(41, r, k) for k in range(q)], 41))
        assert za and len(za) == len(zb)
        for a, b in zip(za, zb):
            assert (a.charge, a.refined, a.jacobian_sign, a.degenerate) == \
                (b.charge, b.refined, b.jacobian_sign, b.degenerate)
            assert abs(a.position - b.position) <= 1e-12


def test_default_pad_widens_to_the_grid_floor(hermites):
    # a 4-cell pad gives 15 points on each axis of this domain; the parent
    # lattice has more, so the pad widens to 16 points instead of refusing
    plan = S.StftPlan(hermites[1], (0, 2, 0, 2), 0.3, 1 / 64)
    twin = anchored_plan(plan)
    assert (plan.nx, plan.ny) == (16, 16) and min(twin.nx, twin.ny) > 16
    assert plan.D == _largest_fitting_divisor(plan) == 4
    ref = _reference_grid(plan, 42, 0)
    got = plan.realize(S.stream(42)).values
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
    grid = src.realize(5)
    assert grid.spacing == pytest.approx(0.0788, abs=5e-5) and grid.spacing < 0.08
    assert grid.meta["requested_spacing_rounded_to"] == src.plan.spacing
    assert grid.meta["components"] == 3 and grid.plane == "gwhf"


def test_series_field_deterministic_and_rule():
    g1 = S.FieldSource({"family": "series-gef"}, (-3, 3, -3, 3), 0.1).realize(4)
    g2 = S.FieldSource({"family": "series-gef"}, (-3, 3, -3, 3), 0.1).realize(4)
    assert np.array_equal(g1.values, g2.values)
    assert g1.plane == "gwhf"
    r_max = max(abs(complex(x, y)) for x in g1.xs[[0, -1]] for y in g1.ys[[0, -1]])
    assert g1.meta["n_terms"] >= S.series_terms_required(r_max)
    with pytest.raises(ValueError):
        S.FieldSource({"family": "series-gef", "n_terms": 20}, (-3, 3, -3, 3), 0.1).realize(4)


@pytest.mark.parametrize("spacing", [math.inf, 0.0, -0.5, math.nan])
def test_series_plan_refuses_spacing_not_positive_and_finite(spacing):
    with pytest.raises(ParameterError, match=f"spacing {spacing} must be positive and finite"):
        S.SeriesPlan((0, 4, 0, 4), spacing)


def test_series_empirical_covariance():
    plan = S.SeriesPlan((-1.5, 1.5, -1.5, 1.5), 0.4)
    zs = plan.z
    pts = [(1, 1), (3, 4), (2, 5)]
    n = 200
    prods = {p: [] for p in zip(pts, pts[1:] + pts[:1])}
    for r in range(n):
        vals = plan.realize(S.stream(99, r)).values.ravel()
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
    singles = [plan.realize(S.stream(13, r)).values for r in range(12)]
    for size in range(1, 10):
        for start in (0, 12 - size):
            batch = plan.realize_batch([S.stream(13, r) for r in range(start, start + size)])
            assert len(batch) == size
            for k, grid in enumerate(batch):
                assert np.array_equal(grid.values, singles[start + k]), (size, start, k)
    source = S.FieldSource({"family": "series-gef"}, (-2.0, 2.0, -2.0, 2.0), 0.2)
    grids = list(source.realize_batch(13, range(5)))
    assert all(np.array_equal(g.values, singles[r]) for r, g in enumerate(grids))
    assert np.array_equal(source.realize(13, 3).values, singles[3])


def test_window_source_batch_matches_realize(hermites):
    source = S.FieldSource({"family": "polyentire", "q": 2, "kind": "full"},
                           (-2.0, 2.0, -2.0, 2.0), 0.1, 1 / 64)
    grids = list(source.realize_batch(8, [3, 1, 4]))
    for r, grid in zip([3, 1, 4], grids):
        assert np.array_equal(grid.values, source.realize(8, r).values)
        assert grid.plane == "gwhf" and grid.meta["components"] == 2


@pytest.mark.parametrize("n_terms", [None, 512, 513], ids=["rule-351", "512", "513"])
def test_series_matches_per_term_sum(n_terms):
    # the criterion-6 geometry: |z| reaches 9.6 at the corners, 351 terms by
    # the rule; 512 and 513 end the basis on a full and a one-row doubling block
    plan = S.SeriesPlan((-6.5, 6.5, -6.5, 6.5), 0.08, n_terms)
    assert plan.n_terms == (n_terms or 351)
    xi = S.complex_normals(S.stream(77, 4), plan.n_terms)
    acc = np.zeros(plan.z.shape, dtype=complex)
    term = np.ones(plan.z.shape, dtype=complex)
    for n in range(plan.n_terms):
        if n:
            term = term * plan.z / math.sqrt(n)
        acc += xi[n] * term
    ref = np.exp(-0.5 * np.abs(plan.z) ** 2) * acc
    got = plan.realize(S.stream(77, 4)).values
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_series_circle_values_match_evaluator():
    # the criterion-6 circles: R = 1 .. 4 take fewer points than the 351
    # terms (the fold wraps them), R = 5 and 6 more (zero padding)
    plan = S.SeriesPlan((-6.5, 6.5, -6.5, 6.5), 0.08)
    radii = np.arange(1.0, 7.0)
    counts = np.maximum(16, np.ceil(2 * PI * radii / 0.08).astype(int))
    assert counts[3] < plan.n_terms < counts[4]
    coeffs = plan.coefficients([S.stream(77, r, 0) for r in range(40)])
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
    xi = S.complex_normals(S.stream(77, 4), plan.n_terms).astype(np.clongdouble)
    acc, term = np.zeros(z.shape, np.clongdouble), np.ones(z.shape, np.clongdouble)
    for k in range(plan.n_terms):
        if k:
            term = term * z / np.sqrt(n[k - 1])
        acc += xi[k] * term
    ref = np.exp(-np.abs(z) ** 2 / 2) * acc
    got = plan.realize(S.stream(77, 4)).values
    assert np.all(got != 0)
    assert np.max(np.abs(got.ravel()[idx] - ref)) <= bound * np.max(np.abs(got))


def test_polyentire_pure_q1_matches_gef_stats(hermites):
    # same machinery as the h0 window: twisted kernel exp(-|z|^2/2)
    f = S.FieldSource({"family": "polyentire", "q": 1, "kind": "pure"},
                      (-3, 3, -3, 3), 0.1, 1 / 64).realize(6)
    assert f.plane == "gwhf"
    assert np.mean(np.abs(f.values) ** 2) == pytest.approx(1.0, abs=0.15)
    with pytest.raises(ValueError):
        S.FieldSource({"family": "polyentire", "q": 9, "kind": "pure"},
                      (-3, 3, -3, 3), 0.1, 1 / 64).realize(6)
    with pytest.raises(ValueError):
        S.FieldSource({"family": "polyentire", "q": 2, "kind": "mixed"},
                      (-3, 3, -3, 3), 0.1, 1 / 64).realize(6)


def test_polyentire_full_uses_independent_components():
    pure = S.FieldSource({"family": "polyentire", "q": 2, "kind": "pure"},
                         (-2, 2, -2, 2), 0.1, 1 / 64).realize(8)
    full = S.FieldSource({"family": "polyentire", "q": 2, "kind": "full"},
                         (-2, 2, -2, 2), 0.1, 1 / 64).realize(8)
    assert pure.values.shape == full.values.shape
    assert not np.allclose(pure.values, full.values)


def test_grid_container_roundtrip(tmp_path, hermites):
    g = S.FieldSource({"family": "window", "window": hermites[0]},
                      (0, 2, 0, 2), 1 / 16, 1 / 64).realize(12)
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
