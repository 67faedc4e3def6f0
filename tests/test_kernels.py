import math

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from gwhf import kernels as K
from gwhf.errors import (DecayViolationError, DegeneratePairError,
                         InvalidKernelError, SingularKernelError)
from gwhf.quadrature import adaptive_quad

PI = math.pi

# frozen pre-build oracle values for the charge-variance limit (Var/R),
# computed by independent arbitrary-precision quadrature of
# (2/pi) int 2 r^2 P'(r^2)^2 / (1 - P(r^2)^2) dr
FROZEN_VAR_LIMIT = {
    "gef": 2 * 0.184234370005661286,
    "laguerre:1": 2 * 0.479106628860379526,
    "laguerre:2": 2 * 0.704355125439205939,
    "laguerre:3": 2 * 0.898835549838385853,
    "laguerre-avg:2": 2 * 0.303372399604223284,
    "laguerre-avg:3": 2 * 0.382820174646497131,
}


# ---------------------------------------------------------------------------
# Laguerre polynomials
# ---------------------------------------------------------------------------

def test_laguerre_low_orders():
    t = np.linspace(0.0, 10.0, 11)
    assert np.allclose(K.laguerre(0, t), 1.0)
    assert np.allclose(K.laguerre(1, t), 1.0 - t)


def test_laguerre_sum_at_zero_counts_terms():
    for q in range(1, 7):
        assert K.laguerre_sum(q - 1, 0.0) == pytest.approx(q, abs=1e-14)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=12),
       st.floats(min_value=0.0, max_value=40.0))
def test_laguerre_matches_scipy(n, t):
    assert K.laguerre(n, t) == pytest.approx(
        float(scipy.special.eval_laguerre(n, t)), rel=1e-10, abs=1e-9)
    assert K.laguerre_sum(n, t) == pytest.approx(
        float(scipy.special.eval_genlaguerre(n, 1, t)), rel=1e-10, abs=1e-9)


# ---------------------------------------------------------------------------
# Jets and conditional covariance
# ---------------------------------------------------------------------------

def test_jet_from_radial_examples(gef, lag1):
    assert K.jet_from_radial(gef).as_tuple() == (0.0, 0.0, -1.0, -1.0, 0.0)
    jet = K.jet_from_radial(lag1)
    assert jet.h20 == pytest.approx(-3.0, abs=1e-12)
    assert jet.h02 == pytest.approx(-3.0, abs=1e-12)
    jet3 = K.jet_from_radial(K.laguerre_avg_kernel(3))
    assert jet3.h20 == pytest.approx(-3.0, abs=1e-12)


def test_jet_from_radial_rejects_unnormalized():
    bad = K.RadialKernel(p=lambda s: 2.0 * np.exp(-np.asarray(s) / 2),
                         dp=lambda s: -np.exp(-np.asarray(s) / 2),
                         ddp=lambda s: 0.5 * np.exp(-np.asarray(s) / 2))
    with pytest.raises(InvalidKernelError):
        K.jet_from_radial(bad)


def test_conditional_cov_radial_forms():
    om0 = K.conditional_cov(K.KernelJet(0, 0, -1, -1, 0)).omega
    assert np.allclose(om0, [[1.0, -1j], [1j, 1.0]])
    om1 = K.conditional_cov(K.KernelJet(0, 0, -3, -3, 0)).omega
    assert np.allclose(om1, [[3.0, -1j], [1j, 3.0]])


def test_conditional_cov_perturbed_offdiagonal():
    jet = K.KernelJet(0.1, 0.2, -1.0, -1.0, 0.0)
    om = K.conditional_cov(jet).omega
    assert om[0, 1] == pytest.approx(-0.02 - 1j, abs=1e-15)


def _regression_oracle(jet):
    """Conditional covariance straight from the 3x3 one-point covariance."""
    h10 = 1j * jet.b10
    h01 = 1j * jet.b01
    gamma = np.array([
        [1.0, -h10, -h01],
        [h10, -jet.h20, -1j - jet.h11],
        [h01, 1j - jet.h11, -jet.h02],
    ], dtype=complex)
    a = gamma[1:, 1:]
    b = gamma[1:, :1]
    c = gamma[:1, :1]
    return a - b @ np.linalg.solve(c, b.conj().T)


@settings(max_examples=60, deadline=None)
@given(st.floats(-0.8, 0.8), st.floats(-0.8, 0.8),
       st.floats(-4.0, -1.0), st.floats(-4.0, -1.0), st.floats(-0.5, 0.5))
def test_conditional_cov_matches_regression_oracle(b10, b01, h20, h02, h11):
    jet = K.KernelJet(b10, b01, h20, h02, h11)
    om = K.conditional_cov(jet).omega
    assert np.allclose(om, _regression_oracle(jet), atol=1e-12)
    assert om[0, 1].imag == -1.0  # exact: source of the universal signed intensity


def test_delta_examples():
    assert K.delta_h(K.KernelJet(0, 0, -1, -1, 0)) == pytest.approx(0.0, abs=1e-13)
    assert K.delta_h(K.KernelJet(0, 0, -3, -3, 0)) == pytest.approx(8.0, abs=1e-12)
    assert K.delta_h(K.KernelJet(0, 0, -4, -4, 0)) == pytest.approx(15.0, abs=1e-12)


def test_delta_clamps_roundoff_but_rejects_negative():
    jet = K.KernelJet(0, 0, -1.0 - 1e-12, -1.0, 0)
    assert K.delta_h(jet) >= 0.0
    with pytest.raises(InvalidKernelError):
        K.delta_h(K.KernelJet(0, 0, -0.6, -0.6, 0))  # det = 0.36 - 1 < 0


# ---------------------------------------------------------------------------
# Intensities
# ---------------------------------------------------------------------------

def test_rho1_values():
    assert K.rho1_from_delta(0.0) == pytest.approx(1 / PI, abs=1e-15)
    assert K.rho1_from_delta(8.0) == pytest.approx(5 / (3 * PI), abs=1e-14)
    assert K.rho1_from_delta(15.0) == pytest.approx(17 / (8 * PI), abs=1e-14)


@settings(max_examples=80, deadline=None)
@given(st.floats(min_value=0.0, max_value=1e6))
def test_rho1_never_below_universal_floor(delta):
    assert K.rho1_from_delta(delta) >= 1 / PI - 1e-15


def test_rho1_radial_examples(gef, lag2):
    assert K.rho1_radial(gef) == pytest.approx(1 / PI, abs=1e-14)
    assert K.rho1_radial(lag2) == pytest.approx(13 / (5 * PI), abs=1e-13)
    assert K.rho1_radial(K.laguerre_avg_kernel(2)) == pytest.approx(
        5 / (4 * PI), abs=1e-13)


def test_rho1_radial_rejects_shallow_slope():
    shallow = K.RadialKernel(p=lambda s: np.exp(-np.asarray(s) / 8.0),
                             dp=lambda s: -np.exp(-np.asarray(s) / 8.0) / 8.0,
                             ddp=lambda s: np.exp(-np.asarray(s) / 8.0) / 64.0)
    with pytest.raises(InvalidKernelError):
        K.rho1_radial(shallow)


def test_rho1_paths_agree_for_builtins(builtin_kernels):
    for kern in builtin_kernels.values():
        assert K.rho1(K.jet_from_radial(kern)) == pytest.approx(
            K.rho1_radial(kern), abs=1e-12)


def _builtin_coeffs(name):
    family, _, q = name.partition(":")
    if family == "gef":
        return [1.0]
    if family == "laguerre":
        return K._laguerre_coeffs(int(q))
    return sum(np.pad(K._laguerre_coeffs(k), (0, int(q) - 1 - k))
               for k in range(int(q))) / int(q)


@pytest.mark.parametrize("name", list(K.BUILTIN_KERNELS()))
def test_builtin_profiles_equal_polynomial_evaluation(builtin_kernels, name):
    # the profiles once called numpy Polynomial objects; polyval on the
    # coefficient arrays must give the same bits
    c = np.polynomial.Polynomial(np.asarray(_builtin_coeffs(name), dtype=float))
    c1, c2 = c.deriv(), c.deriv(2)
    kern = builtin_kernels[name]
    s = np.array([0.0, 1e-3, 0.5, 5.0, 50.0, 700.0])
    e = np.exp(-s / 2.0)
    want = (c(s) * e, (c1(s) - 0.5 * c(s)) * e, (c2(s) - c1(s) + 0.25 * c(s)) * e)
    for rule, ref in zip((kern.p, kern.dp, kern.ddp), want):
        assert rule(s).tobytes() == ref.tobytes()
        assert [rule(v) for v in s.tolist()] == ref.tolist()
    # the joint forms every closed form reads give the same bits
    for joint, n in ((kern.pd, 2), (kern.pdd, 3)):
        assert [a.tobytes() for a in joint(s)] == [ref.tobytes() for ref in want[:n]]
        assert [tuple(joint(v)) for v in s.tolist()] == list(zip(*(r.tolist() for r in want[:n])))


def test_rule_kernel_joint_forms_call_its_rules():
    # a kernel made from three rules answers pd and pdd from those rules
    kern = K.RadialKernel(p=lambda s: np.exp(-np.asarray(s) / 2),
                          dp=lambda s: -0.5 * np.exp(-np.asarray(s) / 2),
                          ddp=lambda s: 0.25 * np.exp(-np.asarray(s) / 2))
    s = np.array([0.0, 0.5, 5.0])
    rules = [rule(s).tobytes() for rule in (kern.p, kern.dp, kern.ddp)]
    assert [a.tobytes() for a in kern.pdd(s)] == rules
    assert [a.tobytes() for a in kern.pd(s)] == rules[:2]
    assert K.i_function(kern, 2.0) == K.i_function(K.gef_kernel(), 2.0)


def test_rho1_charged_universal():
    assert K.rho1_charged() == pytest.approx(1 / PI, abs=0)
    assert K.rho1_charged() == pytest.approx(K.rho1_from_delta(0.0), abs=1e-15)
    assert K.rho1_charged() < K.rho1_from_delta(8.0)


# ---------------------------------------------------------------------------
# Two-point function
# ---------------------------------------------------------------------------

def test_i_function_limits(gef, lag1):
    assert K.i_function(gef, 0.0) == pytest.approx(1.0, abs=1e-14)
    assert K.i_function(lag1, 0.0) == pytest.approx(5.0 / 3.0, abs=1e-14)
    assert abs(K.i_function(gef, 60.0)) < 1e-9
    assert K.i_function(gef, 0.0) == pytest.approx(PI * K.rho1_radial(gef), abs=1e-13)


def test_i_function_singularity_guard():
    const = K.RadialKernel(p=lambda s: np.ones_like(np.asarray(s, dtype=float)),
                           dp=lambda s: np.zeros_like(np.asarray(s, dtype=float)),
                           ddp=lambda s: np.zeros_like(np.asarray(s, dtype=float)))
    with pytest.raises(SingularKernelError):
        K.i_function(const, 1.0)


def test_i_prime_matches_finite_difference(gef, lag1):
    h = 1e-5
    for kern in (gef, lag1):
        for s in (1.0, 0.3, 4.0):
            fd = (K.i_function(kern, s + h) - K.i_function(kern, s - h)) / (2 * h)
            assert K.i_prime(kern, s) == pytest.approx(fd, abs=1e-6)


def test_tau2_limits_and_decay(gef, lag1):
    assert K.tau2_charged(gef, 40.0) == pytest.approx(1 / PI ** 2, abs=1e-12)
    # decay rate: (1 + d^4)|pi^2 tau2 - 1| bounded, estimated on moderate d
    for kern in (gef, lag1):
        ds = np.linspace(2.0, 8.0, 25)
        vals = (1 + ds ** 4) * np.abs(PI ** 2 * K.tau2_charged(kern, ds) - 1.0)
        c_est = vals[:5].max() * 1.5
        assert np.all(vals <= c_est + 1e-9)
    with pytest.raises(ValueError):
        K.tau2_charged(gef, 0.0)


def test_wick_oracle_translation_and_rotation_invariance(gef, lag1):
    z, w = 0.1 + 0.2j, 1.3 - 0.4j
    for kern in (gef, lag1):
        base = K.wick_oracle_E(kern, z, w)
        for shift in (2.2 - 1.1j, -0.7 + 3.3j):
            assert K.wick_oracle_E(kern, z + shift, w + shift) == pytest.approx(
                base, abs=1e-10)
        d = abs(z - w)
        for theta in (0.9, 2.2):
            rot = d * np.exp(1j * theta)
            assert K.wick_oracle_E(kern, 0.0, complex(rot)) == pytest.approx(
                base, abs=1e-10)


def test_wick_oracle_cross_path_identity(gef):
    e = K.wick_oracle_E(gef, 0.0, 1.0 + 0j)
    p = float(gef.p(1.0))
    assert e == pytest.approx((1 - p * p) * (1 + K.i_prime(gef, 1.0)), abs=1e-12)


def test_wick_oracle_identity_on_grid(gef, lag1, lag2):
    ds = np.geomspace(0.05, 8.0, 40)
    for kern in (gef, lag1, lag2):
        for d in ds:
            e = K.wick_oracle_E(kern, 0.3 + 0.2j, 0.3 + 0.2j + d * np.exp(0.7j))
            p = float(kern.p(d * d))
            assert abs(e / (1 - p * p) - 1 - K.i_prime(kern, d * d)) <= 1e-8


def test_wick_oracle_array_equals_its_scalar_calls(gef, lag1, lag2):
    # one stacked build and solve gives every pair's bits: at the
    # tau2-oracle suite's z = 0 and at criterion 2's z = 0.1 - 0.7j
    ds = np.geomspace(0.05, 8.0, 40)
    for kern in (gef, lag1, lag2):
        for z, ws in ((0.0, ds.astype(complex)), (0.1 - 0.7j, 0.1 - 0.7j + ds * np.exp(1.1j))):
            batch = K.wick_oracle_E(kern, z, ws)
            one_by_one = np.array([K.wick_oracle_E(kern, z, w) for w in ws.tolist()])
            assert batch.shape == (40,) and batch.tobytes() == one_by_one.tobytes()


def test_wick_oracle_degenerate_pair(gef):
    for w in (0.2 + 0.1j, np.array([1.0, 0.2 + 0.1j, 2.0])):  # alone or in an array
        with pytest.raises(DegeneratePairError):
            K.wick_oracle_E(gef, 0.2 + 0.1j, w)


# ---------------------------------------------------------------------------
# Variance asymptote
# ---------------------------------------------------------------------------

def test_variance_integrand_origin(gef, lag1):
    assert K.variance_integrand(gef, 0.0) == pytest.approx(0.5, abs=1e-15)
    assert K.variance_integrand(lag1, 0.0) == pytest.approx(1.5, abs=1e-15)
    # Taylor check: 1 - P(s)^2 ~ -2 P'(0) s near the origin
    assert K.variance_integrand(gef, 1e-5) == pytest.approx(0.5, abs=1e-5)


def test_variance_asymptote_frozen_oracle(builtin_kernels):
    for label, frozen in FROZEN_VAR_LIMIT.items():
        assert K.variance_asymptote(builtin_kernels[label]) == pytest.approx(
            frozen, abs=1e-9), label


def test_variance_asymptote_decay_violation():
    osc = K.RadialKernel(p=lambda s: np.cos(np.asarray(s, dtype=float)),
                         dp=lambda s: -np.sin(np.asarray(s, dtype=float)),
                         ddp=lambda s: -np.cos(np.asarray(s, dtype=float)))
    with pytest.raises(DecayViolationError):
        K.variance_asymptote(osc)


def test_charge_variance_exact_converges_to_asymptote(gef):
    limit = K.variance_asymptote(gef)
    assert K.charge_variance_exact(gef, 40.0) / 40.0 == pytest.approx(limit, rel=1e-3)
    ratio = K.charge_variance_exact(gef, 6.0) / K.charge_variance_exact(gef, 3.0)
    assert ratio == pytest.approx(1.983, abs=0.01)
    assert ratio <= 2.4


# Var[charge in B_R] from the former integral of I' against the lens area,
# frozen where its panel doubling converged; it raised DecayViolationError
# for every other builtin kernel and radius up to 6.
_FLAT_VARIANCE = {1: 0.42551103798806045, 2: 0.7568293843343663, 3: 1.1177934649256276,
                  4: 1.4829724941795632, 5: 1.8495541145181384, 6: 2.2167912808820134}
_FROZEN_VARIANCE = {
    **{(name, R): v for name in ("gef", "laguerre:0", "laguerre-avg:1")
       for R, v in _FLAT_VARIANCE.items()},
    ("laguerre:3", 3): 5.6928572807545414,
    ("laguerre-avg:3", 3): 2.295907243267008,
}


def test_charge_variance_exact_matches_former_values(builtin_kernels):
    for (name, R), frozen in _FROZEN_VARIANCE.items():
        assert K.charge_variance_exact(builtin_kernels[name], R) == pytest.approx(
            frozen, rel=1e-10), (name, R)


@pytest.mark.parametrize("name", list(K.BUILTIN_KERNELS()))
def test_charge_variance_exact_every_builtin_kernel(builtin_kernels, name):
    kern = builtin_kernels[name]
    values = [K.charge_variance_exact(kern, R) for R in (1.0, 3.0, 6.0)]
    assert all(math.isfinite(v) and v > 0 for v in values)
    assert values[0] < values[1] < values[2]
    assert K.charge_variance_exact(kern, 40.0) / 40.0 == pytest.approx(
        K.variance_asymptote(kern), rel=1e-3)


def test_antiderivative_decomposition(gef, lag1):
    # I(r^2) minus the variance integrand telescopes to a pure boundary term
    for kern in (gef, lag1):
        def residual(r):
            return K.i_function(kern, np.asarray(r) ** 2) - K.variance_integrand(kern, r)

        for R in (0.5, 1.0, 2.0, 4.0):
            P = float(kern.p(R * R))
            boundary = R ** 3 * P * P / (2.0 * (1.0 - P * P))
            val = adaptive_quad(residual, 0.0, R, tol=1e-11)
            assert val == pytest.approx(boundary, abs=1e-8), (kern.label, R)


def test_integral_identity_all_builtins(builtin_kernels):
    for label, kern in builtin_kernels.items():
        assert K.integral_identity_residual(kern) <= 1e-6, label


# ---------------------------------------------------------------------------
# Validation and specs
# ---------------------------------------------------------------------------

def test_validate_kernel_gef_passes(gef):
    report = K.validate_kernel(gef)
    assert report.ok and report.violations == []


def test_validate_kernel_shallow_slope_fails():
    shallow = K.RadialKernel(p=lambda s: np.exp(-np.asarray(s, dtype=float) / 8.0),
                             dp=lambda s: -np.exp(-np.asarray(s, dtype=float) / 8.0) / 8.0,
                             ddp=lambda s: np.exp(-np.asarray(s, dtype=float) / 8.0) / 64.0)
    report = K.validate_kernel(shallow)
    assert "slope" in report.violations


def test_validate_kernel_contraction_reports_grid_point():
    # |P| stays below 1 for this profile, so the check passes on the grid;
    # an inflated profile must fail and name the offending point
    damped_cos = K.RadialKernel(
        p=lambda s: np.cos(np.asarray(s, dtype=float)) * np.exp(-np.asarray(s, dtype=float) / 2),
        dp=lambda s: (-np.sin(np.asarray(s, dtype=float))
                      - 0.5 * np.cos(np.asarray(s, dtype=float))) * np.exp(-np.asarray(s, dtype=float) / 2),
        ddp=lambda s: (np.sin(np.asarray(s, dtype=float))
                       - 0.75 * np.cos(np.asarray(s, dtype=float))) * np.exp(-np.asarray(s, dtype=float) / 2))
    assert "contraction" not in K.validate_kernel(damped_cos).violations

    bulge = K.RadialKernel(p=lambda s: (1.0 + np.asarray(s, dtype=float)) * np.exp(-np.asarray(s, dtype=float) / 2),
                           dp=lambda s: (0.5 - np.asarray(s, dtype=float) / 2) * np.exp(-np.asarray(s, dtype=float) / 2),
                           ddp=lambda s: (np.asarray(s, dtype=float) / 4 - 1.0) * np.exp(-np.asarray(s, dtype=float) / 2))
    report = K.validate_kernel(bulge)
    assert "contraction" in report.violations
    assert "grid point" in report.details["contraction"]


def test_kernel_from_spec_families():
    assert K.kernel_from_spec({"family": "gef"}).label == "gef"
    assert K.kernel_from_spec({"family": "laguerre", "q": 2}).label == "laguerre:2"
    assert K.kernel_from_spec({"family": "laguerre-avg", "q": 3}).label == "laguerre-avg:3"
    jet = K.kernel_from_spec({"family": "custom", "jet": [0, 0, -3, -3, 0]})
    assert isinstance(jet, K.KernelJet)
    with pytest.raises(InvalidKernelError):
        K.kernel_from_spec({"family": "nope"})
    with pytest.raises(InvalidKernelError):
        K.kernel_from_spec({"family": "custom", "jet": [1, 2]})
    # the text form parses into the same record and builds the same kernel
    s = np.linspace(0.0, 6.0, 13)
    pairs = [
        ("gef", {"family": "gef"}),
        ("laguerre:2", {"family": "laguerre", "q": 2}),
        ("laguerre-avg:3", {"family": "laguerre-avg", "q": 3}),
    ]
    for text, record in pairs:
        a, b = K.kernel_from_spec(text), K.kernel_from_spec(record)
        assert a.label == b.label
        for fa, fb in zip(a.pdd(s), b.pdd(s)):
            assert np.array_equal(fa, fb)
    text_jet = K.kernel_from_spec("custom:0;0;-3;-3;0")
    assert text_jet == K.kernel_from_spec({"family": "custom", "jet": [0, 0, -3, -3, 0]})
    for bad in ("laguerre", "laguerre:x", "laguerre:-1", "custom:", "nope"):
        with pytest.raises(InvalidKernelError, match=bad):
            K.kernel_from_spec(bad)
