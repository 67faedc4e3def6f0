import math

import numpy as np
import pytest

from gwhf import kernels as K
from gwhf import windows as W
from gwhf.errors import InvalidWindowError, ParameterError
from gwhf.quadrature import adaptive_quad

PI = math.pi


def _inner(f, g, T):
    re = adaptive_quad(lambda t: (f.rule(t) * np.conj(g.rule(t))).real, -T, T, tol=1e-12)
    im = adaptive_quad(lambda t: (f.rule(t) * np.conj(g.rule(t))).imag, -T, T, tol=1e-12)
    return complex(re, im)


# ---------------------------------------------------------------------------
# Hermite family
# ---------------------------------------------------------------------------

def test_hermite_ground_state_closed_form(hermites):
    t = np.linspace(-2.5, 2.5, 41)
    assert np.allclose(hermites[0].rule(t), 2.0 ** 0.25 * np.exp(-PI * t * t), atol=1e-14)


def test_hermite_orthonormality(hermites):
    T = 6.0
    for r in range(7):
        for s in range(r, 7):
            ip = _inner(hermites[r], hermites[s], T)
            assert abs(ip - (1.0 if r == s else 0.0)) < 1e-9, (r, s)


def test_hermite_derivative_rule(hermites):
    t = np.linspace(-2.0, 2.0, 31)
    h = 1e-6
    for r in (0, 1, 3):
        fd = (hermites[r].rule(t + h) - hermites[r].rule(t - h)) / (2 * h)
        assert np.allclose(hermites[r].derivative(t), fd, atol=1e-6)


def test_hermite_order_cap():
    with pytest.raises(InvalidWindowError):
        W.hermite(13)
    with pytest.raises(InvalidWindowError):
        W.hermite(-1)


def test_window_norm_and_tails(hermites):
    for r in (0, 1, 5):
        assert W.window_norm(hermites[r]) == pytest.approx(1.0, abs=1e-10)
        t2, d2 = W.decay_tails(hermites[r])
        assert t2 < 1e-12 and d2 < 1e-12


# ---------------------------------------------------------------------------
# Moment constants
# ---------------------------------------------------------------------------

def test_constants_ground_state(hermites):
    c = W.uncertainty_constants(hermites[0])
    assert c.c1 == pytest.approx(0.0, abs=1e-9)
    assert c.c2 == pytest.approx(1.0 / (4 * PI), abs=1e-9)
    assert c.c3 == pytest.approx(PI, abs=1e-9)
    assert c.c4 == pytest.approx(0.0, abs=1e-12)
    assert c.c5 == pytest.approx(0.0, abs=1e-12)


def test_constants_real_window_vanishing(hermites):
    for r in (1, 4):
        c = W.uncertainty_constants(hermites[r])
        assert abs(c.c4) <= 1e-12 and abs(c.c5) <= 1e-12


def test_constants_translation_moves_c1(hermites):
    g = W.modulate(hermites[0], x0=1.25, xi0=0.0, xi1=0.0)
    c = W.uncertainty_constants(g)
    assert c.c1 == pytest.approx(1.25, abs=1e-9)


def test_hermite_heisenberg_saturation(hermites):
    c = W.uncertainty_constants(hermites[0])
    assert 4 * c.c2 * c.c3 == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# Intensities
# ---------------------------------------------------------------------------

def test_rho1_stft_hermite_ladder(hermites):
    for r in range(6):
        expect = r + 0.5 + 1.0 / (4 * r + 2)
        assert W.rho1_stft(hermites[r]) == pytest.approx(expect, abs=1e-8)
        assert W.rho1_stft_via_jet(hermites[r]) == pytest.approx(expect, abs=1e-8)


def test_rho1_stft_paths_agree_random_mixtures():
    rng = np.random.default_rng(42)
    for _ in range(10):
        deg = rng.integers(2, 9)
        coeffs = rng.normal(size=deg) + 1j * rng.normal(size=deg)
        g = W.hermite_mixture(coeffs)
        a = W.rho1_stft(g)
        b = W.rho1_stft_via_jet(g)
        assert a == pytest.approx(b, abs=1e-9)
        assert a >= 1.0 - 1e-7


def test_rho1_stft_mixture_frozen_value():
    # (h0 + h2)/sqrt(2): ladder algebra gives c2 c3 = 7/4, so rho = 4/sqrt(7)
    g = W.hermite_mixture([1.0, 0.0, 1.0])
    assert W.rho1_stft(g) == pytest.approx(4.0 / math.sqrt(7.0), abs=1e-9)


def test_jet_from_constants_bridge(hermites):
    jet0 = W.jet_from_constants(W.uncertainty_constants(hermites[0]))
    assert np.allclose(jet0.as_tuple(), (0, 0, -1, -1, 0), atol=1e-8)
    for r in range(6):
        jet = W.jet_from_constants(W.uncertainty_constants(hermites[r]))
        ref = K.jet_from_radial(K.laguerre_kernel(r))
        assert np.allclose(jet.as_tuple(), ref.as_tuple(), atol=1e-8), r


def test_generalized_gaussian_reduces_to_ground_state(hermites):
    g = W.generalized_gaussian(1.0, 0.0, 0.0, 0.0, 0.0)
    t = np.linspace(-2, 2, 31)
    assert np.allclose(g.rule(t), hermites[0].rule(t), atol=1e-12)


def test_generalized_gaussian_unit_norm_and_minimal_intensity():
    g = W.generalized_gaussian(2.0, 0.0, 1.5, 0.3, 0.7)
    assert W.window_norm(g) == pytest.approx(1.0, abs=1e-10)
    assert W.rho1_stft(g) == pytest.approx(1.0, abs=1e-8)
    g2 = W.generalized_gaussian(0.7, 1.1, -0.4, 0.2, -0.5)
    assert W.rho1_stft(g2) == pytest.approx(1.0, abs=1e-8)
    with pytest.raises(InvalidWindowError):
        W.generalized_gaussian(-1.0)


def test_uncertainty_equality_case_is_gated_on_the_discriminant():
    # rho1 - 1 is about 2 (s - 1/4)^2 near the floor, so s separates the
    # equality case from windows whose rho1 sits at the floor's tolerance
    def s(g):
        return W._discriminant(W.uncertainty_constants(g), "regression")

    rng = np.random.default_rng(23)
    for _ in range(20):
        sigma = float(rng.uniform(0.4, 2.5))
        rest = rng.uniform(-1.0, 1.0, size=4)
        assert abs(s(W.generalized_gaussian(sigma, *rest)) - 0.25) <= 1e-12
    for _ in range(30):
        deg = int(rng.integers(2, 9))
        assert s(W.hermite_mixture(rng.normal(size=deg) + 1j * rng.normal(size=deg))) > 0.25
    near = W.hermite_mixture([1, 0, 0, 0.01])
    assert s(near) - 0.25 == pytest.approx(3.0e-4, rel=1e-3)
    assert 0.0 < W.rho1_stft(near) - 1.0 < 2e-7


def test_alternate_convention_differs_for_chirped_shifted_window():
    g = W.generalized_gaussian(1.0, 0.0, 0.25, 0.0, 0.3)
    c = W.uncertainty_constants(g)
    assert abs(c.c1 * c.c4 * c.c5) > 1e-3  # conventions actually split here
    reg = W.rho1_stft_from_constants(c, "regression")
    alt = W.rho1_stft_from_constants(c, "alternate")
    assert reg == pytest.approx(1.0, abs=1e-9)
    assert abs(alt - reg) > 1e-2
    # a misspelled convention is refused, not read as "alternate"
    with pytest.raises(ParameterError, match="regresion"):
        W.rho1_stft_from_constants(c, "regresion")


# ---------------------------------------------------------------------------
# Invariance
# ---------------------------------------------------------------------------

def test_invariance_examples(hermites):
    b, a = W.invariance_check(hermites[0], 1.0, 0.5, 0.0)
    assert b == pytest.approx(1.0, abs=1e-9) and a == pytest.approx(1.0, abs=1e-9)
    b, a = W.invariance_check(hermites[1], 0.3, -0.2, 0.4)
    assert abs(b - a) <= 1e-7
    mix = W.hermite_mixture([1.0, 0.4 + 0.3j, 0.2 - 0.1j])
    b, a = W.invariance_check(mix, 0.0, 0.0, 0.8)
    assert abs(b - a) <= 1e-7


def test_invariance_random_draws(hermites):
    rng = np.random.default_rng(7)
    for _ in range(10):
        coeffs = rng.normal(size=4) + 1j * rng.normal(size=4)
        g = W.hermite_mixture(coeffs)
        x0, xi0, xi1 = rng.uniform(-1, 1, size=3)
        b, a = W.invariance_check(g, x0, xi0, xi1)
        assert abs(b - a) <= 1e-7


# ---------------------------------------------------------------------------
# Window -> kernel bridge
# ---------------------------------------------------------------------------

def test_ambiguity_kernel_hermite_is_exact_laguerre(hermites):
    kern = W.ambiguity_kernel(hermites[2])
    assert isinstance(kern, K.RadialKernel)
    s = np.linspace(0, 6, 13)
    assert np.allclose(kern.p(s), K.laguerre(2, s) * np.exp(-s / 2), atol=1e-12)


def test_ambiguity_quadrature_matches_laguerre_connection(hermites):
    # force the quadrature path and compare with the exact radial form
    for r in (0, 1):
        amb = W.AmbiguityKernel(window=hermites[r])
        exact = K.laguerre_kernel(r)
        for z in (0.0 + 0.0j, 0.7 + 0.0j, 0.4 + 0.9j, 1.5 - 0.6j):
            got = amb.evaluate(z)
            want = float(exact.p(abs(z) ** 2))
            assert got == pytest.approx(want, abs=1e-8), (r, z)


def test_ambiguity_kernel_contraction_and_normalization():
    g = W.hermite_mixture([1.0, 0.5j, 0.3])
    amb = W.ambiguity_kernel(g)
    assert amb.evaluate(0.0) == pytest.approx(1.0, abs=1e-8)
    for z in (0.5 + 0.2j, 1.0 - 1.0j, 2.2 + 0.4j):
        assert abs(amb.evaluate(z)) < 1.0


# ---------------------------------------------------------------------------
# Sampled windows
# ---------------------------------------------------------------------------

def test_window_from_samples_matches_analytic(hermites):
    dt = 1.0 / 64.0
    t = np.arange(-6.0, 6.0 + dt / 2, dt)
    t = t - (t[0] + t[-1]) / 2  # exactly centered
    g = W.window_from_samples(hermites[1].rule(t), dt)
    c = W.uncertainty_constants(g)
    ref = W.uncertainty_constants(hermites[1])
    assert np.allclose(c.as_tuple(), ref.as_tuple(), atol=1e-8)
    assert W.rho1_stft(g) == pytest.approx(5.0 / 3.0, abs=1e-7)


def _seeded_mixture(n, seed):
    rng = np.random.default_rng(seed)
    return W.hermite_mixture(rng.standard_normal(n) + 1j * rng.standard_normal(n))


def _sampled(fn, n=640):
    dt = 1.0 / 64.0
    t = (np.arange(n) - (n - 1) / 2.0) * dt
    return W.window_from_samples(fn(t), dt)


_CONTRACT_WINDOWS = {
    **{f"hermite:{r}": (lambda r=r: W.hermite(r)) for r in range(W.HERMITE_MAX_ORDER + 1)},
    "mixture-2": lambda: _seeded_mixture(2, 11),
    "mixture-5": lambda: _seeded_mixture(5, 12),
    "mixture-13": lambda: _seeded_mixture(13, 13),
    "gaussian-criterion-8": lambda: W.generalized_gaussian(1.0, 0.0, 0.25, 0.0, 0.3),
    "gaussian-narrow-shifted": lambda: W.generalized_gaussian(0.5, 0.3, -1.5, 0.7, 1.2),
    "gaussian-wide-shifted": lambda: W.generalized_gaussian(2.5, 0.0, 2.0, -0.4),
    "modulated-hermite": lambda: W.modulate(W.hermite(2), 1.25, 0.5, 0.3),
    "modulated-mixture": lambda: W.modulate(W.hermite_mixture([1.0, 0.5j, 0.3]), -2.0, 0.0, 0.8),
    "samples-hermite": lambda: _sampled(W.hermite(1).rule),
    "samples-chirped": lambda: _sampled(
        lambda t: np.exp(-PI * (t - 0.5) ** 2 + 2j * PI * 0.3 * t * t)),
}


@pytest.mark.parametrize("name", sorted(_CONTRACT_WINDOWS))
def test_window_negligible_beyond_support_radius(name):
    # the banded STFT plan drops every product beyond the support radius
    g = _CONTRACT_WINDOWS[name]()
    s = g.support_radius + np.linspace(0.0, 20.0, 20001)
    assert max(np.max(np.abs(g.rule(s))), np.max(np.abs(g.rule(-s)))) < 1e-12


def test_window_from_samples_rejects_coarse_grid():
    dt = 1.0 / 32.0
    t = np.arange(-6.0, 6.0, dt)
    with pytest.raises(InvalidWindowError):
        W.window_from_samples(np.exp(-PI * t * t), dt)


# ---------------------------------------------------------------------------
# JSON specs
# ---------------------------------------------------------------------------

def test_window_from_spec(tmp_path, hermites):
    assert W.window_from_spec({"family": "hermite", "r": 3}).label == "hermite:3"
    g = W.window_from_spec({"family": "generalized-gaussian",
                            "params": [1.0, 0.0, 0.5, 0.0, 0.0]})
    assert g.kind == "generalized-gaussian"
    m = W.window_from_spec({"family": "hermite-mixture", "coeffs": [[1, 0], [0, 1]]})
    assert m.kind == "mixture"
    dt = 1.0 / 64.0
    t = np.arange(-6.0, 6.0, dt)
    path = tmp_path / "h0.npy"
    np.save(path, hermites[0].rule(t))
    s = W.window_from_spec({"family": "samples", "samples_path": str(path), "dt": dt})
    assert s.kind == "samples"
    assert W.rho1_stft(s) == pytest.approx(1.0, abs=1e-6)
    with pytest.raises(InvalidWindowError):
        W.window_from_spec({"family": "wavelet"})
    # the text form parses into the same record and builds the same window
    t = np.linspace(-2.0, 2.0, 9)
    pairs = [
        ("hermite:3", {"family": "hermite", "r": 3}),
        ("gaussian:1.0;0.0;0.5;0.0;0.0", {"family": "generalized-gaussian",
                                          "params": [1.0, 0.0, 0.5, 0.0, 0.0]}),
        ("generalized-gaussian:0.7;0.2", {"family": "generalized-gaussian",
                                          "params": [0.7, 0.2]}),
        ("hermite-mixture:1;1j", {"family": "hermite-mixture",
                                  "coeffs": [[1, 0], [0, 1]]}),
    ]
    for text, record in pairs:
        a, b = W.window_from_spec(text), W.window_from_spec(record)
        assert (a.label, a.kind, a.support_radius, a.freq_radius) == \
            (b.label, b.kind, b.support_radius, b.freq_radius)
        assert np.array_equal(a.rule(t), b.rule(t))
        assert np.array_equal(a.derivative(t), b.derivative(t))
    # labels are text specs that rebuild the window; trailing zero
    # parameters are dropped, so a plain Gaussian keeps its short label
    plain = W.window_from_spec("gaussian:1.0")
    chirped = W.window_from_spec("gaussian:1.0;0.0;0.25;0.0;0.3")
    assert plain.label == "generalized-gaussian:1.0"
    assert chirped.label != plain.label
    for w in (plain, chirped, g, m, W.window_from_spec("hermite-mixture:0.3;-0.2-0.1j;0;1e-7j"),
              W.window_from_spec("generalized-gaussian:0.7;0.2;0;0")):
        rebuilt = W.window_from_spec(w.label)
        assert rebuilt.label == w.label
        assert W.uncertainty_constants(rebuilt) == W.uncertainty_constants(w)
    for bad in ("wavelet:1", "gaussian:abc", "hermite:x", "hermite-mixture:",
                "hermite:99", "@" + str(tmp_path / "missing.json")):
        with pytest.raises(InvalidWindowError) as exc:
            W.window_from_spec(bad)
        assert repr(bad) in str(exc.value)


# ---------------------------------------------------------------------------
# Shared-node quadratures against their per-integral references
# ---------------------------------------------------------------------------

def _uncertainty_constants_reference(g):
    """W.uncertainty_constants on an analytic window as it was before its
    integrals shared their nodes: six one-row quadratures, each sampling
    the window and its derivative by itself.  The reference for the
    analytic branch of W.uncertainty_constants."""
    t0, t1 = -g.support_radius, g.support_radius

    def dens(t):
        return np.abs(g.rule(t)) ** 2

    c1 = adaptive_quad(lambda t: t * dens(t), t0, t1)
    c2 = adaptive_quad(lambda t: t * t * dens(t), t0, t1)
    c3 = adaptive_quad(lambda t: np.abs(g.derivative(t)) ** 2, t0, t1)
    cross_re = adaptive_quad(lambda t: (g.rule(t) * np.conj(g.derivative(t))).real, t0, t1)
    cross_im = adaptive_quad(lambda t: (g.rule(t) * np.conj(g.derivative(t))).imag, t0, t1)
    c5 = adaptive_quad(lambda t: (t * g.rule(t) * np.conj(g.derivative(t))).imag, t0, t1)
    assert abs(cross_re) <= 1e-7
    return W.UncertaintyConstants(c1=c1, c2=c2, c3=c3, c4=cross_im, c5=c5)


def _decay_tails_reference(g):
    a, b = g.support_radius, g.support_radius + 8.0
    t2 = adaptive_quad(lambda t: t * t * (np.abs(g.rule(t)) ** 2 + np.abs(g.rule(-t)) ** 2),
                       a, b, tol=1e-14)
    d2 = adaptive_quad(lambda t: np.abs(g.derivative(t)) ** 2 + np.abs(g.derivative(-t)) ** 2,
                       a, b, tol=1e-14)
    return t2, d2


def _ambiguity_reference(g, z):
    x, y = z.real, z.imag
    u, v = x / math.sqrt(PI), -y / math.sqrt(PI)
    lo = max(-g.support_radius, u - g.support_radius)
    hi = min(g.support_radius, u + g.support_radius)

    def vals(t):
        return g.rule(t) * np.conj(g.rule(t - u)) * np.exp(-2j * PI * t * v)

    npanels = max(8, int(4 * abs(v) * (hi - lo)) + 8)
    amb = complex(adaptive_quad(lambda t: vals(t).real, lo, hi, tol=1e-11, initial_panels=npanels),
                  adaptive_quad(lambda t: vals(t).imag, lo, hi, tol=1e-11, initial_panels=npanels))
    return complex(np.exp(-1j * x * y)) * amb


_REFERENCE_WINDOWS = {
    **{f"hermite:{r}": (lambda r=r: W.hermite(r)) for r in range(7)},
    **{f"mixture-{n}-{seed}": (lambda n=n, seed=seed: _seeded_mixture(n, seed))
       for n, seed in ((2, 21), (5, 22), (8, 23), (13, 24))},
    "squeezed": lambda: W.generalized_gaussian(0.45, 0.7),
    "squeezed-shifted-chirped": lambda: W.generalized_gaussian(1.8, -0.4, 0.6, -0.5, 0.35),
    "chirped": lambda: W.generalized_gaussian(1.0, 0.0, 0.25, 0.0, 0.3),
    "modulated-mixture": lambda: W.modulate(_seeded_mixture(4, 25), -0.8, 0.3, -0.6),
}


@pytest.mark.parametrize("name", sorted(_REFERENCE_WINDOWS))
def test_uncertainty_constants_equal_the_six_call_reference(name):
    g = _REFERENCE_WINDOWS[name]()
    assert W.uncertainty_constants(g) == _uncertainty_constants_reference(g)


@pytest.mark.parametrize("name", ["hermite:0", "hermite:3", "mixture-5-22", "chirped",
                                  "modulated-mixture"])
def test_decay_tails_and_ambiguity_equal_their_references(name):
    g = _REFERENCE_WINDOWS[name]()
    assert W.decay_tails(g) == _decay_tails_reference(g)
    amb = W.AmbiguityKernel(window=g)
    for z in (0.0j, 0.7 + 0.0j, 0.4 + 0.9j, -1.5 - 0.6j, 2.2 + 1.4j):
        assert amb.evaluate(z) == _ambiguity_reference(g, z), z
