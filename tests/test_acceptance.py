"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Monte Carlo criteria use fixed seeds, so every run is reproducible.  The
report lines are printed with capture disabled so they stay visible in a
plain pytest run.
"""
import math

import numpy as np

from gwhf import kernels as K
from gwhf import mc
from gwhf import simulate as S
from gwhf import windows as W
from gwhf import zeros as Z
from gwhf.errors import GwhfError

PI = math.pi


def _report(capsys, name: str, ok: bool, detail: str):
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# 1. Closed-form cross-path suite
# ---------------------------------------------------------------------------

def test_criterion_1_closed_form_cross_paths(hermites, capsys):
    worst_window = 0.0
    for r in range(6):
        expect = r + 0.5 + 1.0 / (4 * r + 2)
        a = W.rho1_stft(hermites[r])
        b = W.rho1_stft_via_jet(hermites[r])
        worst_window = max(worst_window, abs(a - expect), abs(b - expect))
    worst_kernel = 0.0
    for q in range(1, 7):
        pure = K.rho1_radial(K.laguerre_kernel(q - 1))
        full = K.rho1_radial(K.laguerre_avg_kernel(q))
        worst_kernel = max(worst_kernel,
                           abs(pure - (q - 0.5 + 1.0 / (4 * q - 2)) / PI),
                           abs(full - (q + 1.0 / q) / (2 * PI)))
    ok = worst_window <= 1e-8 and worst_kernel <= 1e-12
    _report(capsys, "criterion-1 closed-form cross-path",
            ok, f"window max err {worst_window:.2e} (tol 1e-8), "
                f"kernel max err {worst_kernel:.2e} (tol 1e-12)")


# ---------------------------------------------------------------------------
# 2. Oracle equivalence
# ---------------------------------------------------------------------------

def test_criterion_2_oracle_equivalence(gef, lag1, lag2, capsys):
    ds = np.geomspace(0.05, 8.0, 40)
    worst = 0.0
    for kern in (gef, lag1, lag2):
        for d in ds:
            e = K.wick_oracle_E(kern, 0.1 - 0.7j, 0.1 - 0.7j + d * np.exp(1.1j))
            p = float(kern.p(d * d))
            worst = max(worst, abs(e / (1 - p * p) - 1 - K.i_prime(kern, d * d)))
    _report(capsys, "criterion-2 oracle equivalence", worst <= 1e-8,
            f"max |E/(1-P^2) - 1 - I'| = {worst:.2e} over 40 separations x 3 kernels "
            f"(tol 1e-8)")


# ---------------------------------------------------------------------------
# 3. Integral identity
# ---------------------------------------------------------------------------

def test_criterion_3_integral_identity(builtin_kernels, capsys):
    worst = max(K.integral_identity_residual(kern)
                for kern in builtin_kernels.values())
    _report(capsys, "criterion-3 integral identity", worst <= 1e-6,
            f"max |area integral - rho1| = {worst:.2e} over "
            f"{len(builtin_kernels)} kernels (tol 1e-6)")


# ---------------------------------------------------------------------------
# 4. Monte Carlo intensity (200 realizations each)
# ---------------------------------------------------------------------------

def _mc_counts_and_charges(window, n, seed, domain=(0.0, 8.0, 0.0, 8.0)):
    plan = S.StftPlan(window, domain, 1 / 16, 1 / 64)
    counts = np.empty(n)
    charges = np.empty(n)
    for r in range(n):
        zs = [z for z in Z.detect_zeros(plan.realize(seed, r))
              if not z.degenerate]
        counts[r] = len(zs)
        charges[r] = sum(z.charge for z in zs)
    return counts, charges


def test_criterion_4_mc_intensity(hermites, capsys):
    n = 200
    area = 64.0
    details = []
    ok = True
    for r, theory in ((0, 1.0), (1, 5.0 / 3.0)):
        counts, charges = _mc_counts_and_charges(hermites[r], n, seed=1000 + r)
        dens = counts.mean() / area
        dens_se = counts.std(ddof=1) / math.sqrt(n) / area
        zd = (dens - theory) / dens_se
        chg = charges.mean() / area
        chg_se = charges.std(ddof=1) / math.sqrt(n) / area
        zc = (chg - 1.0) / chg_se
        details.append(f"h{r}: density {dens:.4f} (z={zd:+.2f} vs {theory:.4f}), "
                       f"charge {chg:.4f} (z={zc:+.2f} vs 1)")
        ok = ok and abs(zd) <= 4.0 and abs(zc) <= 4.0
    _report(capsys, "criterion-4 MC intensity", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# 5. Uncertainty principle
# ---------------------------------------------------------------------------

def test_criterion_5_uncertainty_principle(capsys):
    rng = np.random.default_rng(2024)
    floor_worst = math.inf
    for _ in range(100):
        deg = int(rng.integers(2, 9))
        coeffs = rng.normal(size=deg) + 1j * rng.normal(size=deg)
        floor_worst = min(floor_worst, W.rho1_stft(W.hermite_mixture(coeffs)))
    gauss_worst = 0.0
    for _ in range(20):
        sigma = float(rng.uniform(0.4, 2.5))
        phase, x0, xi0, xi1 = rng.uniform(-1.0, 1.0, size=4)
        g = W.generalized_gaussian(sigma, phase, x0, xi0, xi1)
        gauss_worst = max(gauss_worst, abs(W.rho1_stft(g) - 1.0))
    inv_worst = 0.0
    for _ in range(50):
        deg = int(rng.integers(2, 7))
        coeffs = rng.normal(size=deg) + 1j * rng.normal(size=deg)
        g = W.hermite_mixture(coeffs)
        x0, xi0, xi1 = rng.uniform(-1.0, 1.0, size=3)
        before, after = W.invariance_check(g, x0, xi0, xi1)
        inv_worst = max(inv_worst, abs(before - after))
    ok = (floor_worst >= 1.0 - 1e-7 and gauss_worst <= 1e-8
          and inv_worst <= 1e-7)
    _report(capsys, "criterion-5 uncertainty principle", ok,
            f"min rho over 100 mixtures {floor_worst:.10f} (floor 1-1e-7); "
            f"max |rho-1| over 20 squeezed states {gauss_worst:.2e} (tol 1e-8); "
            f"max invariance deviation over 50 draws {inv_worst:.2e} (tol 1e-7)")


# ---------------------------------------------------------------------------
# 6. Hyperuniformity (1000 realizations)
# ---------------------------------------------------------------------------

def test_criterion_6_hyperuniformity(gef, capsys):
    n = 1000
    radii = (1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
    cfg = mc.McConfig(source={"family": "series-gef"},
                      domain=(-6.5, 6.5, -6.5, 6.5), spacing=0.08,
                      n_realizations=n, seed=77, radii=radii)
    rep = mc.estimate_charge_variance(cfg)
    per_r = {it.label: it for it in rep.items}
    limit = K.variance_asymptote(gef)
    top = per_r["R=6"]
    band = abs(top.empirical - limit) / limit
    v6 = per_r["R=6"].empirical * 6.0
    v3 = per_r["R=3"].empirical * 3.0
    se6 = per_r["R=6"].se * 6.0
    se3 = per_r["R=3"].se * 3.0
    ratio = v6 / v3
    ratio_se = ratio * math.sqrt((se6 / v6) ** 2 + (se3 / v3) ** 2)

    pcfg = mc.McConfig(source={"family": "poisson", "density": 1 / PI},
                       domain=(-6.5, 6.5, -6.5, 6.5), spacing=0.08,
                       n_realizations=n, seed=78, radii=radii)
    prep = mc.estimate_charge_variance(pcfg)
    pv = {it.label: it for it in prep.items}
    p6, p3 = pv["R=6"].empirical * 6.0, pv["R=3"].empirical * 3.0
    pse6, pse3 = pv["R=6"].se * 6.0, pv["R=3"].se * 3.0
    p_ratio = p6 / p3
    p_ratio_se = p_ratio * math.sqrt((pse6 / p6) ** 2 + (pse3 / p3) ** 2)
    rejection = (p_ratio - 2.4) / p_ratio_se

    ok = band <= 0.20 and ratio <= 2.4 and rejection > 5.0
    _report(capsys, "criterion-6 hyperuniformity", ok,
            f"Var/R at R=6: {top.empirical:.4f} vs limit {limit:.4f} "
            f"({100 * band:.1f}% off, tol 20%); growth ratio Var(6)/Var(3) = "
            f"{ratio:.2f} +- {ratio_se:.2f} (gate 2.4); poisson control ratio "
            f"{p_ratio:.2f} rejected at {rejection:.1f} SE (gate 5)")


# ---------------------------------------------------------------------------
# 7. Detector integrity
# ---------------------------------------------------------------------------

def test_criterion_7_detector_integrity(hermites, capsys):
    plan = S.StftPlan(hermites[1], (0.0, 8.0, 0.0, 8.0), 1 / 16, 1 / 64)
    total = agree = 0
    for r in range(100):
        for z in Z.detect_zeros(plan.realize(500, r)):
            if not z.degenerate:
                total += 1
                agree += int(z.jacobian_sign == z.winding == z.charge)
    # halving gate over ten fixed realizations: a single resolved pair is
    # two zeros, so the population must be large enough that 1% measures
    # systematic drift rather than one borderline pair
    fine_plan = S.StftPlan(hermites[1], (0.0, 8.0, 0.0, 8.0), 1 / 32, 1 / 64)
    coarse_total = fine_total = flips = 0
    for r in range(10):
        coarse = [z for z in Z.detect_zeros(plan.realize(500, r))
                  if not z.degenerate]
        fine = [z for z in Z.detect_zeros(fine_plan.realize(500, r))
                if not z.degenerate]
        coarse_total += len(coarse)
        fine_total += len(fine)
        pc = np.array([z.position for z in coarse])
        pf = np.array([z.position for z in fine])
        nearest = np.abs(pc[:, None] - pf[None, :]).argmin(axis=1)
        for k, z in enumerate(coarse):
            other = fine[nearest[k]]
            if abs(z.position - other.position) < 1 / 16:
                flips += int(z.charge != other.charge)
    drift = abs(fine_total - coarse_total) / coarse_total
    ok = total >= 10_000 and agree == total and drift <= 0.01 and flips == 0
    _report(capsys, "criterion-7 detector integrity", ok,
            f"winding == jacobian sign on {agree}/{total} zeros; grid halving "
            f"count drift {100 * drift:.2f}% over 10 realizations (tol 1%), "
            f"charge flips {flips}")


# ---------------------------------------------------------------------------
# 8. Sign-convention arbitration
# ---------------------------------------------------------------------------

def test_criterion_8_sign_convention_arbitration(capsys):
    g = W.generalized_gaussian(1.0, 0.0, 0.25, 0.0, 0.3)
    c = W.uncertainty_constants(g)
    assert abs(c.c1 * c.c4) > 1e-3  # premise: product term active

    n = 200
    counts, _ = _mc_counts_and_charges(g, n, seed=3000)
    dens = counts.mean() / 64.0
    se = counts.std(ddof=1) / math.sqrt(n) / 64.0

    verdict = {}
    for conv in K.OMEGA_CONVENTIONS:
        try:
            pred = W.rho1_stft_from_constants(c, conv)
            mc_ok = abs((dens - pred) / se) <= 4.0
        except GwhfError:
            pred = float("nan")
            mc_ok = False
        try:
            before, after = W.invariance_check(g, 0.0, 0.0, 0.8, conv)
            inv_ok = abs(before - after) <= 1e-7
        except GwhfError:
            inv_ok = False
        verdict[conv] = (mc_ok, inv_ok, pred)

    reg_mc, reg_inv, reg_pred = verdict["regression"]
    alt_mc, alt_inv, alt_pred = verdict["alternate"]
    winners = [conv for conv, (a, b, _) in verdict.items() if a and b]
    ok = winners == ["regression"] and K.DEFAULT_CONVENTION == "regression"
    _report(capsys, "criterion-8 sign-convention arbitration", ok,
            f"MC density {dens:.4f} +- {se:.4f}; regression predicts {reg_pred:.4f} "
            f"(mc={reg_mc}, invariance={reg_inv}); alternate predicts {alt_pred:.4f} "
            f"(mc={alt_mc}, invariance={alt_inv}); winner(s) {winners}, "
            f"default '{K.DEFAULT_CONVENTION}'")
