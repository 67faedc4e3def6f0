"""Twisted-kernel calculus for circularly symmetric Gaussian fields on the plane.

A field F with covariance  E[F(z) conj(F(w))] = H(z-w) exp(i Im(z conj(w)))
is fully described by its twisted kernel H.  Everything the zero-set
statistics need from H is local data at the origin (a "jet") or, for radial
kernels H(z) = P(|z|^2), the scalar profile P and its first two derivatives.

This module computes:

* the conditional gradient covariance at a zero and its determinant,
* zero-set intensities (unsigned, radial shortcut, and the universal
  signed intensity 1/pi),
* the two-point signed intensity tau2 via a closed-form expression and,
  independently, via a first-principles Gaussian-regression + fourth-moment
  (Wick) oracle built from the explicit 6x6 covariance of the field and its
  gradient at two points,
* the large-radius limit of Var[charge in B_R]/R by quadrature, and the
  exact finite-size charge variance of a disk and of a rectangle,
* validation of the standing assumptions.

One kernel evaluation per node: every closed form reads a radial profile
through one RadialKernel.pd or .pdd call per array of nodes, which a
built-in poly-exp kernel answers with one exp and one pass per polynomial.

All functions are pure; kernel objects are immutable.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import (DegeneratePairError, GwhfError, InvalidKernelError,
                     ParameterError, SingularKernelError)
from .quadrature import adaptive_quad, half_line_quad

__all__ = [
    "KernelJet", "RadialKernel", "ConditionalCov2", "ValidationReport",
    "OMEGA_CONVENTIONS", "DEFAULT_CONVENTION",
    "laguerre", "laguerre_sum",
    "gef_kernel", "laguerre_kernel", "laguerre_avg_kernel", "poly_exp_kernel",
    "jet_from_radial", "conditional_cov", "delta_h", "rho1", "rho1_from_delta",
    "rho1_radial", "rho1_charged",
    "i_function", "i_prime", "tau2_charged", "wick_oracle_E",
    "variance_integrand", "variance_asymptote", "charge_variance_exact",
    "charge_variance_rectangle",
    "validate_kernel",
    "kernel_from_spec", "BUILTIN_KERNELS",
]

# The off-diagonal entry of the conditioned gradient covariance carries a
# product of the two first-derivative jet parameters.  Gaussian regression
# of the gradient against the field value yields  -h11 - i - b10*b01
# ("regression", the default).  The "alternate" convention flips the sign
# of the product term; it is kept only as a compatibility switch and loses
# the Monte-Carlo arbitration run by the acceptance suite.  Both coincide
# whenever b10*b01 == 0, which covers every radial kernel.
OMEGA_CONVENTIONS = ("regression", "alternate")
DEFAULT_CONVENTION = "regression"


def _check_convention(convention: str) -> int:
    if convention not in OMEGA_CONVENTIONS:
        raise ParameterError(f"unknown convention {convention!r}, "
                             f"expected one of {OMEGA_CONVENTIONS}")
    return +1 if convention == "regression" else -1


# ---------------------------------------------------------------------------
# Laguerre polynomials
# ---------------------------------------------------------------------------

def laguerre(n: int, t):
    """Laguerre polynomial L_n(t) = sum_j (-1)^j C(n,j) t^j / j!, by recurrence."""
    if n < 0:
        raise ValueError("n must be >= 0")
    t = np.asarray(t, dtype=float)
    prev = np.ones_like(t)
    if n == 0:
        return prev if prev.ndim else float(prev)
    cur = 1.0 - t
    for k in range(1, n):
        prev, cur = cur, ((2 * k + 1 - t) * cur - k * prev) / (k + 1)
    return cur if cur.ndim else float(cur)


def laguerre_sum(n: int, t):
    """First-order generalized Laguerre L^(1)_n(t) = sum_{k<=n} L_k(t)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return sum(laguerre(k, t) for k in range(n + 1))


def _laguerre_coeffs(n: int) -> np.ndarray:
    c = np.zeros(n + 1)
    for j in range(n + 1):
        c[j] = (-1) ** j * math.comb(n, j) / math.factorial(j)
    return c


# ---------------------------------------------------------------------------
# Kernel data types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KernelJet:
    """Second-order data of a twisted kernel H at the origin.

    The first derivatives of a valid kernel at 0 are purely imaginary and
    the second derivatives real, so five real numbers suffice:
    H10(0) = i*b10, H01(0) = i*b01, H20(0) = h20, H02(0) = h02, H11(0) = h11.
    """
    b10: float
    b01: float
    h20: float
    h02: float
    h11: float

    def __post_init__(self):
        for name in ("b10", "b01", "h20", "h02", "h11"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise InvalidKernelError(f"jet field {name} is not finite: {v!r}")

    def as_tuple(self) -> tuple[float, float, float, float, float]:
        return (self.b10, self.b01, self.h20, self.h02, self.h11)


@dataclass(frozen=True)
class RadialKernel:
    """Radial twisted kernel H(z) = P(|z|^2) given by analytic rules.

    Derivative rules are mandatory: the variance asymptote needs P'' and
    finite differences of user data are too noisy near 0.

    Closed forms read the kernel once per array of nodes, through pd and
    pdd: profile(s, n) gives (P, ..., P^(n)) for n <= 2 in one evaluation,
    and without one it is made from the three rules.
    """
    p: Callable[[np.ndarray], np.ndarray]
    dp: Callable[[np.ndarray], np.ndarray]
    ddp: Callable[[np.ndarray], np.ndarray]
    label: str = "custom"
    profile: Callable[[np.ndarray, int], tuple] | None = None

    def __post_init__(self):
        if self.profile is None:
            rules = (self.p, self.dp, self.ddp)
            object.__setattr__(self, "profile",
                               lambda s, n: tuple(rule(s) for rule in rules[:n + 1]))

    def pd(self, s):
        """(P, P') evaluated at s."""
        return self.profile(s, 1)

    def pdd(self, s):
        """(P, P', P'') evaluated at s."""
        return self.profile(s, 2)


@dataclass(frozen=True)
class ConditionalCov2:
    """Covariance of the field gradient conditioned on a zero at the point."""
    omega: np.ndarray
    convention: str = DEFAULT_CONVENTION

    def __post_init__(self):
        om = np.asarray(self.omega, dtype=complex)
        if om.shape != (2, 2):
            raise ValueError("omega must be 2x2")
        if not np.allclose(om, om.conj().T, atol=1e-12):
            raise InvalidKernelError("conditional covariance must be Hermitian")
        object.__setattr__(self, "omega", om)

    @property
    def det(self) -> float:
        om = self.omega
        return float((om[0, 0] * om[1, 1]).real - abs(om[0, 1]) ** 2)

    @property
    def psd(self) -> bool:
        """Positive semi-definite up to roundoff (valid-kernel flag)."""
        om = self.omega
        return (om[0, 0].real >= -1e-9 and om[1, 1].real >= -1e-9
                and self.det >= -1e-9)


# ---------------------------------------------------------------------------
# Built-in profiles: polynomial times exp(-t/2)
# ---------------------------------------------------------------------------

def poly_exp_kernel(coeffs: Sequence[float], label: str = "poly-exp") -> RadialKernel:
    """Profile P(t) = C(t) exp(-t/2) for a polynomial C with C(0) = 1.

    (P, ..., P^(n)) share one exp(-s/2) and one Horner pass of each of C,
    ..., C^(n).  A pass does numpy polyval's arithmetic in its order, so
    every value has polyval's bits without the cost of its argument handling.
    """
    base = np.asarray(coeffs, dtype=float)
    chains = [base.tolist(), npoly.polyder(base).tolist(), npoly.polyder(base, 2).tolist()]
    mix = (lambda c: c[0], lambda c: c[1] - 0.5 * c[0], lambda c: c[2] - c[1] + 0.25 * c[0])

    def horner(c, s):
        acc = c[-1] + s * 0
        for ck in c[-2::-1]:
            acc = ck + acc * s
        return acc

    def profile(s, n):
        s = np.asarray(s, dtype=float)
        e = np.exp(-s / 2.0)
        c = [horner(chain, s) for chain in chains[:n + 1]]
        return tuple(m(c) * e for m in mix[:n + 1])

    return RadialKernel(p=lambda s: profile(s, 0)[0], dp=lambda s: profile(s, 1)[1],
                        ddp=lambda s: profile(s, 2)[2], label=label, profile=profile)


def gef_kernel() -> RadialKernel:
    """Kernel of the Gaussian entire function: P(t) = exp(-t/2)."""
    return poly_exp_kernel([1.0], label="gef")


def laguerre_kernel(r: int) -> RadialKernel:
    """Kernel L_r(t) exp(-t/2): iterated covariant derivative / Hermite window h_r."""
    if r < 0:
        raise ValueError("r must be >= 0")
    return poly_exp_kernel(_laguerre_coeffs(r), label=f"laguerre:{r}")


def laguerre_avg_kernel(q: int) -> RadialKernel:
    """Kernel q^{-1} L^(1)_{q-1}(t) exp(-t/2): order-q mixture of covariant derivatives."""
    if q < 1:
        raise ValueError("q must be >= 1")
    coeffs = np.zeros(q)
    for k in range(q):
        coeffs[: k + 1] += _laguerre_coeffs(k)
    return poly_exp_kernel(coeffs / q, label=f"laguerre-avg:{q}")


def BUILTIN_KERNELS() -> dict[str, RadialKernel]:
    """Kernel families exercised by the verification suites."""
    out = {"gef": gef_kernel()}
    for r in range(7):
        out[f"laguerre:{r}"] = laguerre_kernel(r)
    for q in range(1, 7):
        out[f"laguerre-avg:{q}"] = laguerre_avg_kernel(q)
    return out


# ---------------------------------------------------------------------------
# Jets, conditional covariance, intensities
# ---------------------------------------------------------------------------

def jet_from_radial(p: RadialKernel) -> KernelJet:
    """Jet of a radial kernel: first derivatives vanish, h20 = h02 = 2 P'(0)."""
    p0, d0 = (float(v) for v in p.pd(0.0))
    if abs(p0 - 1.0) > 1e-12:
        raise InvalidKernelError(f"profile not normalized: P(0) = {p0!r}")
    return KernelJet(b10=0.0, b01=0.0, h20=2.0 * d0, h02=2.0 * d0, h11=0.0)


def conditional_cov(jet: KernelJet, convention: str = DEFAULT_CONVENTION) -> ConditionalCov2:
    """Covariance of (F10, F01) at a point conditioned on the field vanishing there.

    Regressing the gradient against the field value removes the
    value-gradient coupling and leaves
        Omega11 = -h20 - b10^2,   Omega22 = -h02 - b01^2,
        Omega12 = -h11 - i - b10*b01        (regression convention).
    The imaginary part of Omega12 is -1 for every kernel; it is the sole
    source of the universal signed intensity.  Non-PSD results are flagged
    via the .psd attribute (delta_h turns the flag into a hard error).
    """
    sgn = _check_convention(convention)
    off = -jet.h11 - 1j - sgn * jet.b10 * jet.b01
    om = np.array([[-jet.h20 - jet.b10 ** 2, off],
                   [np.conj(off), -jet.h02 - jet.b01 ** 2]], dtype=complex)
    return ConditionalCov2(omega=om, convention=convention)


def delta_h(jet: KernelJet, convention: str = DEFAULT_CONVENTION) -> float:
    """Determinant of the conditional gradient covariance; >= 0 for valid kernels.

    Values in [-1e-9, 0) are clamped to 0 (PSD up to roundoff); anything
    more negative is rejected.
    """
    cov = conditional_cov(jet, convention)
    if not cov.psd:
        om = cov.omega
        raise InvalidKernelError(
            f"conditional covariance not PSD for jet {jet.as_tuple()} "
            f"(diag {om[0, 0].real:.3g}, {om[1, 1].real:.3g}, det {cov.det:.3g})")
    det = cov.det
    return 0.0 if det < 0.0 else det


def rho1_from_delta(delta: float) -> float:
    """Zeros per unit area from the conditional determinant: (d+2)/(2 pi sqrt(d+1))."""
    if delta < 0:
        raise InvalidKernelError(f"negative determinant {delta!r}")
    return (delta + 2.0) / (2.0 * math.pi * math.sqrt(delta + 1.0))


def rho1(jet: KernelJet, convention: str = DEFAULT_CONVENTION) -> float:
    """First intensity of the (unsigned) zero set; always >= 1/pi."""
    return rho1_from_delta(delta_h(jet, convention))


def rho1_radial(p: RadialKernel) -> float:
    """Radial shortcut: rho1 = -(P'(0) + 1/(4 P'(0))) / pi, needs P'(0) <= -1/2."""
    p0, d0 = (float(v) for v in p.pd(0.0))
    if abs(p0 - 1.0) > 1e-12:
        raise InvalidKernelError(f"profile not normalized: P(0) = {p0!r}")
    if d0 > -0.5 + 1e-12:
        raise InvalidKernelError(f"P'(0) = {d0!r} violates P'(0) <= -1/2")
    return -(d0 + 1.0 / (4.0 * d0)) / math.pi


def rho1_charged() -> float:
    """First intensity of charged zeros: 1/pi regardless of the kernel."""
    return 1.0 / math.pi


# ---------------------------------------------------------------------------
# Two-point signed intensity
# ---------------------------------------------------------------------------

def i_function(p: RadialKernel, s):
    """Antiderivative I(s) whose derivative gives the two-point excess.

    I(s) = s (2 P'^2 + 1.5 P^2) / (1 - P^2) + 2 s^2 P P' / (1 - P^2)^2,
    with the removable singularity at s = 0 replaced by its analytic limit
    -P'(0) - 1/(4 P'(0)).
    """
    s_arr = np.asarray(s, dtype=float)
    scalar = s_arr.ndim == 0
    s_arr = np.atleast_1d(s_arr)
    if np.any(s_arr < 0):
        raise ValueError("s must be >= 0")
    P, dP = p.pd(s_arr)
    denom = 1.0 - P * P
    zero = s_arr == 0.0
    if np.any((np.abs(denom) < 1e-14) & ~zero):
        raise SingularKernelError("1 - P(s)^2 vanishes at positive separation")
    denom_safe = np.where(zero, 1.0, denom)
    out = (s_arr * (2.0 * dP * dP + 1.5 * P * P) / denom_safe
           + 2.0 * s_arr ** 2 * P * dP / denom_safe ** 2)
    if np.any(zero):
        d0 = float(p.dp(0.0))
        out = np.where(zero, -d0 - 1.0 / (4.0 * d0), out)
    return float(out[0]) if scalar else out


def i_prime(p: RadialKernel, s):
    """Closed-form derivative of I, as a three-term rational in (P, P', P'')."""
    s_arr = np.asarray(s, dtype=float)
    scalar = s_arr.ndim == 0
    s_arr = np.atleast_1d(s_arr)
    P, dP, ddP = p.pdd(s_arr)
    denom = 1.0 - P * P
    if np.any(np.abs(denom) < 1e-14):
        raise SingularKernelError("1 - P(s)^2 vanishes; separation too small")
    out = (2.0 * s_arr ** 2 * (3.0 * P * P * dP * dP + dP * dP + P * ddP * denom) / denom ** 3
           + s_arr * dP * (7.0 * P + 4.0 * P * dP * dP + 4.0 * ddP * denom) / denom ** 2
           + (2.0 * dP * dP + 1.5 * P * P) / denom)
    return float(out[0]) if scalar else out


def tau2_charged(p: RadialKernel, d):
    """Two-point intensity of signed zero pairs at separation d > 0.

    pi^2 tau2(d) = 1 + I'(d^2); tends to 1/pi^2 at large separation.
    """
    d_arr = np.atleast_1d(np.asarray(d, dtype=float))
    if np.any(d_arr <= 0):
        raise ValueError("separation d must be > 0")
    out = (1.0 + i_prime(p, d_arr ** 2)) / math.pi ** 2
    return float(out[0]) if np.asarray(d).ndim == 0 else out


def _matrices(rows) -> np.ndarray:
    """A stack of complex 3x3 matrices from rows of scalar or same-shape entries."""
    flat = np.broadcast_arrays(*(entry for row in rows for entry in row))
    return np.stack(flat, axis=-1).astype(complex).reshape(flat[0].shape + (3, 3))


def _gamma_one_point(d0: float, x, y) -> np.ndarray:
    """Covariance of (F, F10, F01) at x + iy for a radial kernel with P'(0) = d0."""
    return _matrices([
        [1.0, 1j * y, -1j * x],
        [-1j * y, y * y - 2.0 * d0, -1j - x * y],
        [1j * x, 1j - x * y, x * x - 2.0 * d0],
    ])


def _gamma_two_point(x: float, y: float, u, v, P, dP, ddP) -> np.ndarray:
    """E[(F,F10,F01)(x+iy) (F,F10,F01)(u+iv)^*] from (P, P', P'') at the pair."""
    dx, dy = x - u, y - v
    m1 = _matrices([
        [1.0, 1j * y, -1j * x],
        [-1j * v, y * v, -1j - x * v],
        [1j * u, 1j - u * y, x * u],
    ])
    m2 = _matrices([
        [0.0, -dx, -dy],
        [dx, -1.0 + 1j * dx * (y + v), 1j * dy * v - 1j * dx * x],
        [dy, 1j * dy * y - 1j * dx * u, -1.0 - 1j * dy * (x + u)],
    ])
    # second-derivative block: -H20, -H11, -H11, -H02 contribute
    # -4 P'' times the outer square of (dx, dy)
    m3 = _matrices([
        [0.0, 0.0, 0.0],
        [0.0, -dx * dx, -dx * dy],
        [0.0, -dx * dy, -dy * dy],
    ])
    P, dP, ddP, phase = (a[..., None, None] for a in (P, dP, ddP, np.exp(1j * (y * u - x * v))))
    return phase * (P * m1 + 2.0 * dP * m2 + 4.0 * ddP * m3)


def wick_oracle_E(p: RadialKernel, z: complex, w):
    """First-principles E[jac F(z) jac F(w) | F(z) = F(w) = 0].

    Builds the explicit 6x6 covariance of the field and its gradient at the
    two points, conditions by Gaussian regression Omega = A - B C^{-1} B*,
    and contracts the fourth moment with the Wick/Isserlis identity
        E = -1/2 Re[O12 O34 + O14 O32 - O21 O34 - O24 O31].
    An array w gives E at every pair (z, w_k) from one stacked build and
    solve; entry k equals the call with w_k alone, bit for bit.

    Independent of i_prime: used as the oracle for the closed form through
    E / (1 - P^2) - 1 = I'(|z-w|^2).
    """
    z, w_arr = complex(z), np.asarray(w, dtype=complex)
    ws = np.atleast_1d(w_arr)
    if np.any(ws == z):
        raise DegeneratePairError("points must be distinct")
    x, y, u, v = z.real, z.imag, ws.real, ws.imag
    s = np.hypot(x - u, y - v) ** 2
    P, dP, ddP = p.pdd(s)
    near = np.abs(P) >= 1.0 - 1e-14
    if near.any():
        raise DegeneratePairError(f"|P({s[near][0]})| = {abs(P[near][0])} too close to 1")
    d0 = float(p.dp(0.0))
    sigma = np.empty(ws.shape + (6, 6), dtype=complex)
    sigma[:, :3, :3] = _gamma_one_point(d0, x, y)
    sigma[:, 3:, 3:] = _gamma_one_point(d0, u, v)
    sigma[:, :3, 3:] = gzw = _gamma_two_point(x, y, u, v, P, dP, ddP)
    sigma[:, 3:, :3] = gzw.conj().transpose(0, 2, 1)
    grad_idx, val_idx = np.array([1, 2, 4, 5]), np.array([0, 3])
    a = sigma[:, grad_idx[:, None], grad_idx]
    b = sigma[:, grad_idx[:, None], val_idx]
    c = sigma[:, val_idx[:, None], val_idx]
    om = a - b @ np.linalg.solve(c, b.conj().transpose(0, 2, 1))
    # Re(O_jk O_lm) formed as a complex scalar product forms it: numpy's
    # array product may fuse a multiply-add and move the last bit
    f, g = om[:, [0, 0, 1, 1], [1, 3, 0, 3]], om[:, [2, 2, 2, 2], [3, 1, 3, 0]]
    re = f.real * g.real - f.imag * g.imag
    e = -0.5 * (re[:, 0] + re[:, 1] - re[:, 2] - re[:, 3])
    return float(e[0]) if w_arr.ndim == 0 else e


# ---------------------------------------------------------------------------
# Charge-variance asymptote
# ---------------------------------------------------------------------------

def variance_integrand(p: RadialKernel, r):
    """2 r^2 P'(r^2)^2 / (1 - P(r^2)^2), with the r = 0 limit -P'(0)."""
    r_arr = np.atleast_1d(np.asarray(r, dtype=float))
    s = r_arr ** 2
    P, dP = p.pd(s)
    denom = 1.0 - P * P
    zero = s < 1e-28
    denom_safe = np.where(zero, 1.0, denom)
    out = 2.0 * s * dP * dP / denom_safe
    if np.any(zero):
        out = np.where(zero, -float(p.dp(0.0)), out)
    return float(out[0]) if np.asarray(r).ndim == 0 else out


def variance_asymptote(p: RadialKernel) -> float:
    """Large-R limit of Var[charge in B_R]/R: (2/pi) * integral of the integrand.

    The constant comes from the perimeter term of the disk overlap: two
    equal disks of radius R at center offset d intersect in area
    pi R^2 - 2 R d + O(d^3/R), so the variance kernel is weighted by twice
    the first absolute moment of (1/pi^2 - tau2).  Validated against the
    exact finite-R double-disk integral and direct simulation.

    Adaptive quadrature to 1e-9 with explicit tail truncation; raises
    DecayViolationError when the profile decays too slowly to certify the
    tail below tolerance.
    """
    val = half_line_quad(lambda r: variance_integrand(p, r))
    return 2.0 * val / math.pi


def charge_variance_exact(p: RadialKernel, radius: float) -> float:
    """Var[charge in B_R] at finite R from the two-point intensity.

    Var = rho1 pi R^2 + (2/pi) int_0^{2R} I'(d^2) A_R(d) d dd with A_R the
    lens-shaped overlap area of two radius-R disks at distance d.  I' loses
    every digit to its (1 - P^2)^-3 as d -> 0, so the integral is taken by
    parts against A_R (A_R(0) = pi R^2, A_R(2R) = 0, A_R' = -sqrt(4R^2 - d^2))
    and with d = 2R sin(theta):
        Var = rho1 pi R^2 - R^2 I(0) + (4R^2/pi) int_0^{pi/2} I(4R^2 sin^2) cos^2,
    where the first two terms cancel, since pi rho1 = I(0) for every radial
    kernel.  I is stable and has an analytic s = 0 limit.  Used as the
    finite-R oracle for the Monte Carlo suites.
    """
    R = float(radius)
    rho1_radial(p)  # rejects a kernel outside the standing assumptions

    def f(theta):
        return i_function(p, 4.0 * R * R * np.sin(theta) ** 2) * np.cos(theta) ** 2

    return 4.0 * R * R / math.pi * adaptive_quad(f, 0.0, 0.5 * math.pi, tol=1e-10)


def charge_variance_rectangle(p: RadialKernel, width: float, height: float) -> float:
    """Var[charge in a width x height rectangle] from the two-point intensity.

    The by-parts route of charge_variance_exact, with the rectangle's set
    covariance in place of the disks' lens (g is minus a quarter of its
    r-derivative integrated over angle), keeps I' out:
        Var = (2/pi^2) int_0^D I(r^2) g(r) dr,   D = sqrt(width^2 + height^2),
        g(r) = [height sin t - width cos t + (r/2) cos 2t] from
               t = arccos(min(1, width/r)) to t = arcsin(min(1, height/r)).
    g is linear below the shorter side and has square-root ends at both
    sides and at D, so the two pieces above it are mapped by r = a + (b - a)
    sin^2(phi) to be smooth.  As the sides shrink, Var -> rho1 * area; as
    they grow, Var / (width + height) -> variance_asymptote / pi.
    """
    rho1_radial(p)  # rejects a kernel outside the standing assumptions

    def f(r):
        def edge(t):
            return height * np.sin(t) - width * np.cos(t) + 0.5 * r * np.cos(2.0 * t)
        return i_function(p, r * r) * (edge(np.arcsin(np.minimum(1.0, height / r)))
                                       - edge(np.arccos(np.minimum(1.0, width / r))))

    def smooth(a, b):
        def h(phi):
            s = np.sin(phi)
            return f(a + (b - a) * s * s) * 2.0 * (b - a) * s * np.cos(phi)
        return adaptive_quad(h, 0.0, 0.5 * math.pi, tol=1e-10)

    m, big = sorted((width, height))
    total = (adaptive_quad(f, 0.0, m, tol=1e-10) + smooth(m, big)
             + smooth(big, math.hypot(width, height)))
    return 2.0 / math.pi ** 2 * total


# ---------------------------------------------------------------------------
# Validation of standing assumptions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the standing-assumption checks; report-style, never raises."""
    checks: dict[str, bool]
    details: dict[str, str] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(self.checks.values())

    @property
    def violations(self) -> list[str]:
        return [k for k, v in self.checks.items() if not v]


def validate_kernel(kernel: RadialKernel | KernelJet) -> ValidationReport:
    """Check the standing assumptions and report every violated predicate.

    For radial kernels: normalization P(0)=1, strict contraction |P|<1 on a
    sampling grid, slope P'(0) <= -1/2, PSD of the conditional covariance,
    and boundedness of (|P|+|P'|+|P''|)(r^2) r^4 on the validation grid.
    For bare jets only the PSD checks apply.
    """
    checks: dict[str, bool] = {}
    details: dict[str, str] = {}

    if isinstance(kernel, KernelJet):
        jet = kernel
    else:
        p0, d0 = (float(v) for v in kernel.pd(0.0))
        checks["normalization"] = abs(p0 - 1.0) <= 1e-12
        if not checks["normalization"]:
            details["normalization"] = f"P(0) = {p0!r}"

        grid = np.concatenate([np.linspace(1e-3, 1.0, 200, endpoint=False),
                               np.linspace(1.0, 400.0, 2000)])
        vals = np.abs(np.asarray(kernel.p(grid), dtype=float))
        bad = np.nonzero(vals > 1.0 - 1e-12)[0]
        checks["contraction"] = bad.size == 0
        if bad.size:
            details["contraction"] = f"|P(t)| = {vals[bad[0]]!r} at grid point t = {grid[bad[0]]!r}"

        checks["slope"] = d0 <= -0.5 + 1e-12
        if not checks["slope"]:
            details["slope"] = f"P'(0) = {d0!r} > -1/2"

        r = np.geomspace(0.1, 24.0, 400)
        s = r ** 2
        P, dP, ddP = kernel.pdd(s)
        m = (np.abs(P) + np.abs(dP) + np.abs(ddP)) * s ** 2
        head = float(np.max(m[r < 12.0]))
        tail = float(np.max(m[r >= 12.0]))
        checks["decay"] = tail <= max(head, 1e-6) and float(m[-1]) <= 1e-3
        if not checks["decay"]:
            details["decay"] = f"(|P|+|P'|+|P''|) r^4 reaches {tail!r} beyond r = 12"

        try:
            jet = jet_from_radial(kernel)
        except InvalidKernelError as exc:
            checks["psd"] = False
            details["psd"] = str(exc)
            return ValidationReport(checks=checks, details=details)

    cov = conditional_cov(jet)
    checks["psd"] = cov.psd
    if not checks["psd"]:
        details["psd"] = (f"diag ({cov.omega[0, 0].real!r}, {cov.omega[1, 1].real!r}), "
                          f"det {cov.det!r}")
    return ValidationReport(checks=checks, details=details)


# ---------------------------------------------------------------------------
# Kernel specification: JSON record or "name:args" text
# ---------------------------------------------------------------------------

def build_from_spec(spec, what: str, error: type[GwhfError], from_text, build):
    """build(record) for a `what` spec given as its JSON record, as
    "@file.json", or as "name:args" text, which from_text(name, args) turns
    into the same record.  Any malformed spec raises `error` naming it."""
    try:
        if isinstance(spec, str) and spec.startswith("@"):
            with open(spec[1:]) as fh:
                record = json.load(fh)
        elif isinstance(spec, str):
            name, _, args = spec.partition(":")
            record = from_text(name, args)
        else:
            record = spec
        if not isinstance(record, dict):
            raise TypeError("expected a JSON object or name:args text")
        return build(record)
    except KeyError as exc:
        raise error(f"bad {what} spec {spec!r}: missing field {exc}") from exc
    except (TypeError, ValueError, OSError) as exc:
        kind = type(exc) if isinstance(exc, GwhfError) else error
        raise kind(f"bad {what} spec {spec!r}: {exc}") from exc


def _kernel_record(name: str, args: str) -> dict:
    if name == "custom":
        return {"family": name, "jet": [float(v) for v in args.split(";")]}
    return {"family": name, "q": int(args)} if args else {"family": name}


def _build_kernel(spec: dict) -> RadialKernel | KernelJet:
    family = spec.get("family")
    if family == "gef":
        return gef_kernel()
    if family == "laguerre":
        return laguerre_kernel(int(spec["q"]))
    if family == "laguerre-avg":
        return laguerre_avg_kernel(int(spec["q"]))
    if family == "custom":
        jet = spec.get("jet")
        if jet is None or len(jet) != 5:
            raise InvalidKernelError("custom kernel needs jet = [b10, b01, h20, h02, h11]")
        return KernelJet(*(float(v) for v in jet))
    raise InvalidKernelError(f"unknown kernel family {family!r}")


def kernel_from_spec(spec: dict | str) -> RadialKernel | KernelJet:
    """Build a kernel from the JSON record {"family", "q", "jet"}, from
    "@file.json", or from the text gef, laguerre:R, laguerre-avg:Q or
    custom:b10;b01;h20;h02;h11.  Families: "gef"; "laguerre" (q = polynomial
    index r, pure type of order r+1); "laguerre-avg" (q = mixture order);
    "custom" (bare jet, intensity formulas only)."""
    return build_from_spec(spec, "kernel", InvalidKernelError, _kernel_record, _build_kernel)


def integral_identity_residual(p: RadialKernel) -> float:
    """| (1/pi^2) int (1 - pi^2 tau2) dA  -  rho1 | for a radial kernel.

    The area integral reduces to -(1/pi) int_0^inf I'(s) ds.  The closed
    form of I' is integrated on [s_lo, s_hi] = [1e-3, 80]; the two end
    corrections use the independent expression for I itself, so a
    transcription error in either expression breaks the identity.
    """
    s_lo, s_hi = 1e-3, 80.0
    mid = adaptive_quad(lambda s: i_prime(p, s), s_lo, s_hi, tol=1e-9)
    head = i_function(p, s_lo) - i_function(p, 0.0)
    tail = -i_function(p, s_hi)
    total = -(head + mid + tail) / math.pi
    return abs(total - rho1_radial(p))
