import dataclasses
import hashlib
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from gwhf import mc, simulate, windows
from gwhf.errors import (DomainError, InvalidKernelError, ParameterError, PlaneError,
                         ResolutionError)
from gwhf.simulate import FieldSource, SeriesPlan, stream

PI = math.pi


def _cfg(**kw):
    base = dict(source={"family": "window",
                        "window": {"family": "hermite", "r": 0}},
                domain=(0.0, 8.0, 0.0, 8.0), spacing=1 / 16, dt=1 / 64,
                n_realizations=25, seed=314)
    base.update(kw)
    return mc.McConfig(**base)


def test_intensity_report_h0():
    rep = mc.estimate_intensity(_cfg())
    item = rep.items[0]
    assert item.theory == pytest.approx(1.0, abs=1e-9)
    assert abs(item.z) <= 4.0
    assert item.se > 0
    assert rep.passes


def test_charge_report_h1():
    rep = mc.estimate_charge_intensity(_cfg(
        source={"family": "window", "window": {"family": "hermite", "r": 1}}))
    item = rep.items[0]
    assert item.theory == pytest.approx(1.0)
    assert abs(item.z) <= 4.0


def test_gwhf_plane_window_run_scales_theory():
    rep = mc.estimate_intensity(_cfg(
        source={"family": "window", "window": {"family": "hermite", "r": 0},
                "plane": "gwhf"},
        domain=(-4.0, 4.0, -4.0, 4.0)))
    assert rep.items[0].theory == pytest.approx(1 / PI, abs=1e-9)
    assert abs(rep.items[0].z) <= 4.0


def test_polyentire_sources():
    rep = mc.estimate_intensity(_cfg(
        source={"family": "polyentire", "q": 2, "kind": "pure"},
        domain=(-4.0, 4.0, -4.0, 4.0), n_realizations=20, spacing=0.1))
    assert rep.items[0].theory == pytest.approx((1 / PI) * (3 / 2 + 1 / 6), abs=1e-12)
    assert abs(rep.items[0].z) <= 4.0
    rep2 = mc.estimate_intensity(_cfg(
        source={"family": "polyentire", "q": 2, "kind": "full"},
        domain=(-4.0, 4.0, -4.0, 4.0), n_realizations=20, spacing=0.1))
    assert rep2.items[0].theory == pytest.approx((2 + 0.5) / (2 * PI), abs=1e-12)
    assert abs(rep2.items[0].z) <= 4.0
    # a spec value the source cache cannot hash is refused by name, not by the cache
    with pytest.raises(InvalidKernelError, match=r"got q=\[2\]"):
        mc.estimate_intensity(_cfg(source={"family": "polyentire", "q": [2], "kind": "full"}))


def test_reports_deterministic_and_thread_independent():
    a = mc.estimate_intensity(_cfg(n_realizations=8))
    b = mc.estimate_intensity(_cfg(n_realizations=8))
    c = mc.estimate_intensity(_cfg(n_realizations=8, threads=4))
    assert a.items[0].empirical == b.items[0].empirical == c.items[0].empirical
    assert a.items[0].se == c.items[0].se


def test_polyentire_report_independent_of_threads():
    texts = set()
    for threads in (1, 2):
        cfg = _cfg(source={"family": "polyentire", "q": 2, "kind": "full"},
                   domain=(-3.0, 3.0, -3.0, 3.0), spacing=0.1, n_realizations=6,
                   seed=17, threads=threads)
        texts.add(mc.estimate_charge_intensity(cfg).to_json(include_elapsed=False))
    assert len(texts) == 1


def test_window_source_forms_give_identical_reports(tmp_path):
    from gwhf.windows import hermite
    reports = [mc.estimate_intensity(_cfg(
        source={"family": "window", "window": win}, n_realizations=3)
    ).to_json(include_elapsed=False)
        for win in (hermite(1), {"family": "hermite", "r": 1}, "hermite:1")]
    assert reports[0] == reports[1] == reports[2]
    assert json.loads(reports[0])["config"]["source"]["window"] == "hermite:1"
    # every family: the record, its text form, the record from @file.json
    # and, for a window, a Window object give one report and one grid
    win = hermite(1)
    for record, forms in [
            ({"family": "window", "window": {"family": "hermite", "r": 1}},
             [{"family": "window", "window": "hermite:1"}, {"family": "window", "window": win}]),
            ({"family": "series-gef"}, ["series", "gef-series"]),
            ({"family": "polyentire", "q": 2, "kind": "full"}, ["polyentire:2:full"]),
            ({"family": "poisson", "density": 1 / PI}, ["poisson"])]:
        path = tmp_path / "source.json"
        path.write_text(json.dumps(record))
        forms = [record, f"@{path}", *forms]
        reports = {mc.estimate_intensity(_cfg(source=form, domain=(-2.0, 2.0, -2.0, 2.0),
                                              spacing=0.1, n_realizations=3)
                                         ).to_json(include_elapsed=False) for form in forms}
        assert len(reports) == 1, record
        if record["family"] == "poisson":
            with pytest.raises(InvalidKernelError, match="a poisson source is a point process"):
                FieldSource(record, (-2.0, 2.0, -2.0, 2.0), 0.1)
            continue
        grids = [FieldSource(form, (-2.0, 2.0, -2.0, 2.0), 0.1).realize(7).values
                 for form in forms]
        assert all(np.array_equal(grids[0], g) for g in grids[1:]), record
    # the same Window object comes back as itself and keys one cached source
    mc._field_source.cache_clear()
    cfg = _cfg(source={"family": "window", "window": win}, domain=(0.0, 3.0, 0.0, 3.0),
               spacing=1 / 8, n_realizations=2)
    assert cfg.source["window"] is win
    for _ in range(3):
        mc.estimate_intensity(dataclasses.replace(cfg, source={"family": "window", "window": win}))
    info = mc._field_source.cache_info()
    assert (info.misses, info.hits) == (1, 2)


_MALFORMED_SOURCES = [
    ({"family": "poisson", "density": "abc"}, ParameterError, "poisson density 'abc'"),
    ({"family": "poisson", "density": None}, ParameterError, "poisson density None"),
    ({"family": "poisson", "density": True}, ParameterError, "poisson density True"),
    ({"family": "series-gef", "n_terms": "400"}, ParameterError, "n_terms = '400'"),
    ({"family": "series-gef", "n_terms": 400.0}, ParameterError, "n_terms = 400.0"),
    ({"family": "polyentire", "q": True, "kind": "full"}, InvalidKernelError, "got q=True"),
    ({"family": "polyentire", "q": [2], "kind": "full"}, InvalidKernelError, r"got q=\[2\]"),
    ({"family": "window", "window": "hermite:1", "bogus": 1}, InvalidKernelError,
     "unknown key 'bogus' = 1 in a window source, which takes family, window, plane"),
    ({"family": "window", "window": "hermite:1", "plan": "gwhf"}, InvalidKernelError,
     "unknown key 'plan' = 'gwhf'"),
    ({"family": "window", "window": "hermite:1", "plane": "xy"}, PlaneError,
     "unknown plane 'xy'"),
    ({"family": "window"}, InvalidKernelError, "missing field 'window'"),
    ({"family": "series-gef", "q": 2}, InvalidKernelError,
     "unknown key 'q' = 2 in a series-gef source, which takes family, n_terms"),
    ({"family": "polyentire", "q": 2, "kind": "full", "n_terms": 9}, InvalidKernelError,
     "unknown key 'n_terms' = 9 in a polyentire source, which takes family, q, kind"),
    ({"family": "poisson", "plane": "gwhf"}, InvalidKernelError,
     "unknown key 'plane' = 'gwhf' in a poisson source, which takes family, density"),
    ({"family": ["window"]}, InvalidKernelError, r"unknown source family \['window'\]"),
    ("series-gef", InvalidKernelError, "unknown source 'series-gef', expected one of series | gef-series"),
    ("series:400", InvalidKernelError, "unknown source 'series'"),
]


@pytest.mark.parametrize("spec, error, names", _MALFORMED_SOURCES,
                         ids=["density-text", "density-none", "density-bool", "n-terms-text",
                              "n-terms-float", "q-bool", "q-list", "window-unknown-key",
                              "window-plane-mistyped", "window-bad-plane", "window-missing",
                              "series-unknown-key", "polyentire-unknown-key",
                              "poisson-unknown-key", "family-list", "family-as-text",
                              "series-with-args"])
def test_malformed_source_specs_are_refused_by_name(spec, error, names):
    # the parser, McConfig and FieldSource refuse a spec alike, with the
    # class and message of the parser
    with pytest.raises(error, match=names):
        simulate.source_from_spec(spec)
    with pytest.raises(error, match=names):
        _cfg(source=spec)
    if not (isinstance(spec, dict) and spec["family"] == "poisson"):
        with pytest.raises(error, match=names):
            FieldSource(spec, (0.0, 2.0, 0.0, 2.0), 0.125)


def test_report_serialization_schema():
    rep = mc.estimate_intensity(_cfg(n_realizations=4))
    data = json.loads(rep.to_json())
    assert set(data) == {"quantity", "items", "config", "elapsed_s", "notes"}
    assert set(data["items"][0]) == {"label", "empirical", "se", "theory", "z"}
    blind = json.loads(rep.to_json(include_elapsed=False))
    assert blind["elapsed_s"] is None
    csv_text = rep.to_csv()
    assert csv_text.splitlines()[0] == "quantity,label,empirical,se,theory,z"


def test_charge_variance_gef_small():
    cfg = _cfg(source={"family": "series-gef"}, domain=(-5.0, 5.0, -5.0, 5.0),
               spacing=0.1, n_realizations=60, radii=(1.0, 2.0, 3.0, 4.0))
    rep = mc.estimate_charge_variance(cfg)
    labels = [it.label for it in rep.items]
    assert labels[:4] == ["R=1", "R=2", "R=3", "R=4"]
    assert "fit-slope" in labels
    assert any("fewer than 100" in note for note in rep.notes)
    for it in rep.items[:4]:
        assert it.theory == pytest.approx(0.368468740011, abs=1e-9)
        assert abs(it.z) <= 6.0  # loose at n=60


def test_poisson_control_variance_grows_like_area():
    cfg = _cfg(source={"family": "poisson", "density": 1 / PI},
               domain=(-8.0, 8.0, -8.0, 8.0), spacing=0.1,
               n_realizations=400, radii=(2.0, 4.0, 6.0))
    rep = mc.estimate_charge_variance(cfg)
    per_r = {it.label: it.empirical for it in rep.items}
    # Var/R linear in R: theory rho*pi*R
    for R in (2.0, 4.0, 6.0):
        assert per_r[f"R={R:g}"] == pytest.approx(R, rel=0.25)
    ratio = (per_r["R=6"] * 6) / (per_r["R=3"] * 3) if "R=3" in per_r else \
        (per_r["R=6"] * 6) / (per_r["R=4"] * 4)
    assert ratio > 1.8  # superlinear growth, nothing like the flat profile


def test_poisson_charge_density_is_zero():
    cfg = _cfg(source={"family": "poisson", "density": 1 / PI},
               domain=(-6.0, 6.0, -6.0, 6.0), n_realizations=50)
    rep = mc.estimate_charge_intensity(cfg)
    assert rep.items[0].theory == 0.0
    assert abs(rep.items[0].z) <= 4.0


def test_config_validation():
    with pytest.raises(ValueError):
        _cfg(n_realizations=1)
    with pytest.raises(ValueError):
        _cfg(radii=(3.0, 1.0))
    with pytest.raises(ParameterError, match=r"radii \[1.0, 1.0\] must be strictly increasing"):
        _cfg(radii=(1.0, 1.0))
    with pytest.raises(ParameterError, match="regresion"):
        _cfg(convention="regresion")
    with pytest.raises(ParameterError, match="threads = 0"):
        _cfg(threads=0)
    for name, value in (("n_realizations", 2.5), ("threads", 1.5), ("seed", 1.5),
                        ("n_realizations", True), ("seed", False), ("threads", "2")):
        with pytest.raises(ParameterError, match=f"^{name} = {value!r} must be an integer$"):
            _cfg(**{name: value})
    with pytest.raises(ValueError):
        mc.estimate_charge_variance(_cfg())  # no radii
    with pytest.raises(DomainError):
        mc.estimate_charge_variance(_cfg(
            source={"family": "series-gef"}, domain=(-2.0, 2.0, -2.0, 2.0),
            spacing=0.1, radii=(6.0,)))
    with pytest.raises(ValueError):
        mc.estimate_intensity(_cfg(source={"family": "unknown"}))
    for density in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ParameterError, match=f"poisson density {density}"):
            mc.estimate_intensity(_cfg(source={"family": "poisson", "density": density}))


def test_cross_simulator_density_agreement():
    # the flat kernel realized two independent ways: truncated entire series
    # versus the windowed transform of white noise with the ground window
    n = 40
    domain = (-4.0, 4.0, -4.0, 4.0)
    series = mc.estimate_intensity(_cfg(source={"family": "series-gef"},
                                        domain=domain, spacing=0.1,
                                        n_realizations=n, seed=91))
    window = mc.estimate_intensity(_cfg(
        source={"family": "window", "window": {"family": "hermite", "r": 0},
                "plane": "gwhf"},
        domain=domain, spacing=0.1, n_realizations=n, seed=92))
    a, b = series.items[0], window.items[0]
    gap = abs(a.empirical - b.empirical)
    assert gap <= 3.0 * math.hypot(a.se, b.se)
    assert a.theory == pytest.approx(b.theory, abs=1e-12)


@pytest.mark.parametrize("threads", [1, 2])
def test_circle_errors_name_seed_and_realization(monkeypatch, threads):
    # realization 2's field becomes exp(-|z|^2/2) (z - 1), which vanishes on
    # the circle of radius 1 about the centre
    cfg = _cfg(source={"family": "series-gef"}, domain=(-3.0, 3.0, -3.0, 3.0), spacing=0.1,
               n_realizations=4, seed=21, radii=(1.0, 2.0), threads=threads)
    draw = SeriesPlan.coefficients
    bad = draw(FieldSource(cfg.source, cfg.domain, cfg.spacing).plan, [stream(21, 2, 0)])[0]

    def vanishing(plan, rngs):
        coeffs = draw(plan, rngs)
        hit = (coeffs == bad).all(axis=1)
        coeffs[hit] = 0.0
        coeffs[hit, :2] = [-1.0, plan.rho]
        return coeffs

    monkeypatch.setattr(SeriesPlan, "coefficients", vanishing)
    with pytest.raises(ResolutionError,
                       match=r"^seed 21 realization 2: phase on the circle of radius 1 "):
        mc.estimate_charge_variance(cfg)


def test_poisson_reports_pinned():
    # positions and charges drawn per realization as before they were kept
    # as arrays: the reports of all three estimators keep their bytes.  Last
    # re-pinned when the config lost its "margin" key and the fit-slope row
    # became the inverse-variance fit; every R= row kept its bytes
    cfg = mc.McConfig(source={"family": "poisson", "density": 1 / PI},
                      domain=(-6.5, 6.5, -6.5, 6.5), spacing=0.08, n_realizations=50,
                      seed=78, radii=(1.0, 2.0, 3.0, 4.0, 5.0, 6.0))
    digest = hashlib.sha256()
    for estimate in (mc.estimate_intensity, mc.estimate_charge_intensity,
                     mc.estimate_charge_variance):
        digest.update(estimate(cfg).to_json(include_elapsed=False).encode())
    assert digest.hexdigest() == \
        "86bbdd2ce8fce09326344effee8534f88ac2b8edcb18ff3ee1799b8af87ae8c6"


def test_fit_slope_is_the_inverse_variance_fit_of_the_radius_rows():
    # the R= rows give Var(R) = R empirical and its standard error R se; the
    # fit over the upper half of the radii minimizes sum ((Var - a - b R)/se)^2,
    # whose normal equations are (A^T W A) (a, b) = A^T W Var with W = 1/se^2
    cfg = mc.McConfig(source={"family": "poisson", "density": 1 / PI},
                      domain=(-6.5, 6.5, -6.5, 6.5), spacing=0.08, n_realizations=50,
                      seed=78, radii=(1.0, 2.0, 3.0, 4.0, 5.0, 6.0))
    *rows, fit = mc.estimate_charge_variance(cfg).items
    assert fit.label == "fit-slope" and len(rows) == 6
    upper = rows[3:]
    radii = np.array([float(it.label[2:]) for it in upper])
    var = radii * [it.empirical for it in upper]
    weight = 1.0 / (radii * [it.se for it in upper]) ** 2
    design = np.vstack([np.ones_like(radii), radii]).T
    gram = design.T @ (weight[:, None] * design)
    coef = np.linalg.solve(gram, design.T @ (weight * var))
    assert fit.empirical == pytest.approx(coef[1], rel=1e-9)
    assert fit.se == pytest.approx(math.sqrt(np.linalg.inv(gram)[1, 1]), rel=1e-9)


def test_series_reports_independent_of_threads_and_blocks():
    # 21 realizations: blocks of 8, 8, 5 at one and two threads, 7, 7, 7 at three
    texts = set()
    for threads in (1, 2, 3):
        cfg = _cfg(source={"family": "series-gef"}, domain=(-3.0, 3.0, -3.0, 3.0),
                   spacing=0.1, n_realizations=21, seed=5, radii=(1.0, 2.0), threads=threads)
        texts.add(mc.estimate_charge_variance(cfg).to_json(include_elapsed=False)
                  + mc.estimate_intensity(cfg).to_json(include_elapsed=False))
    assert len(texts) == 1


@pytest.mark.parametrize("threads", [1, 2])
def test_errors_name_seed_and_realization(monkeypatch, threads):
    # realization 3's field becomes exp(-|z|^2/2) (z - a)(z - b), a and b
    # 0.1 cells apart across a cell edge: the merge raises, after Newton ran
    # over the whole block.  Realization 3 is the fourth of one block at one
    # thread and the second of the block 2, 3 at two.
    cfg = _cfg(source={"family": "series-gef"}, domain=(-3.0, 3.0, -3.0, 3.0), spacing=0.1,
               n_realizations=4, seed=21, threads=threads)
    plan = FieldSource(cfg.source, cfg.domain, cfg.spacing).plan
    edge = plan.origin + plan.spacing * (40 + 30.5j)
    a, b = edge - 0.005, edge + 0.005
    draw = SeriesPlan.coefficients
    bad = draw(plan, [stream(21, 3, 0)])[0]

    def doubled(self, rngs):
        coeffs = draw(self, rngs)
        hit = (coeffs == bad).all(axis=1)
        coeffs[hit] = 0.0
        coeffs[hit, :3] = [a * b, -(a + b) * self.rho, self.rho ** 2]
        return coeffs

    monkeypatch.setattr(SeriesPlan, "coefficients", doubled)
    with pytest.raises(ResolutionError,
                       match=r"^seed 21 realization 3: net winding 2 concentrated near "):
        mc.estimate_intensity(cfg)


@pytest.mark.parametrize("n, threads", [(16, 1), (8, 2)])
def test_detector_called_once_per_block(monkeypatch, n, threads):
    # blocks of 8, 8 at one thread and of 4, 4 at two: one detector call each
    calls = []
    detect = mc.detect_zeros

    def counted(grids, *args, **kwargs):
        calls.append(1)
        return detect(grids, *args, **kwargs)

    monkeypatch.setattr(mc, "detect_zeros", counted)
    mc.estimate_intensity(_cfg(domain=(0.0, 3.0, 0.0, 3.0), spacing=1 / 8, n_realizations=n,
                               threads=threads))
    assert len(calls) == 2


@pytest.mark.parametrize("domain, spacing, center, fft", [
    ((-3.0, 3.0, -3.0, 3.0), 0.1, 0j, True),
    ((0.0, 8.0, 0.0, 8.0), 1 / 16, 4 + 4j, False),
], ids=["origin", "off-centre"])
def test_circle_start_values_from_fft_only_about_the_origin(monkeypatch, domain, spacing,
                                                            center, fft):
    # the estimator's disk charges are those of the evaluator path either way
    seen = []
    count = mc.circle_charges

    def recorded(field, c, radii, sp, start=None):
        rows = list(count(field, c, radii, sp, start))
        seen.append((c, start is not None, rows))
        return iter(rows)

    monkeypatch.setattr(mc, "circle_charges", recorded)
    cfg = _cfg(source={"family": "series-gef"}, domain=domain, spacing=spacing,
               n_realizations=16, seed=77, radii=(1.0, 2.0))
    mc.estimate_charge_variance(cfg)
    plan = mc._source(cfg).plan
    assert [(c, started) for c, started, _ in seen] == [(center, fft)] * 2
    for lo, (_, _, rows) in zip((0, 8), seen):
        coeffs = plan.coefficients([stream(77, r, 0) for r in range(lo, lo + 8)])
        ref = count(lambda z: plan.evaluate(coeffs, z), center, cfg.radii, spacing)
        assert np.array_equal(np.array(rows), np.array(list(ref)))


def test_estimators_reuse_the_source_of_one_geometry(monkeypatch):
    builds, asymptotes = [], []
    init, asymptote = SeriesPlan.__init__, simulate.variance_asymptote

    def counted_init(self, *args, **kwargs):
        builds.append(1)
        init(self, *args, **kwargs)

    def counted_asymptote(*args, **kwargs):
        asymptotes.append(1)
        return asymptote(*args, **kwargs)

    monkeypatch.setattr(SeriesPlan, "__init__", counted_init)
    monkeypatch.setattr(simulate, "variance_asymptote", counted_asymptote)
    mc._field_source.cache_clear()
    cfg = _cfg(source={"family": "series-gef"}, domain=(-3.0, 3.0, -3.0, 3.0), spacing=0.1,
               n_realizations=8, seed=5, radii=(1.0, 2.0))
    cold = mc.estimate_charge_variance(cfg).to_json(include_elapsed=False)
    warm = mc.estimate_charge_variance(cfg).to_json(include_elapsed=False)
    assert (len(builds), len(asymptotes)) == (1, 1)
    assert warm == cold
    mc.estimate_charge_variance(dataclasses.replace(cfg, domain=(-2.5, 2.5, -2.5, 2.5)))
    assert (len(builds), len(asymptotes)) == (2, 2)
    poisson = dataclasses.replace(cfg, source={"family": "poisson"})
    assert mc._source(poisson) is not mc._source(poisson)


def test_concurrent_calls_on_two_geometries_get_their_own_sources():
    # four threads alternate two geometries through the one-entry cache with
    # a short switch interval: every report equals the serial one
    mc._field_source.cache_clear()
    cfgs = [_cfg(source={"family": "series-gef"}, domain=(-h, h, -h, h), spacing=0.1,
                 n_realizations=4, seed=5, radii=(1.0, 2.0)) for h in (2.5, 3.0)]
    serial = [mc.estimate_charge_variance(c).to_json(include_elapsed=False) for c in cfgs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(mc.estimate_charge_variance, cfgs[k % 2]) for k in range(24)]
            texts = [f.result(timeout=120).to_json(include_elapsed=False) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert texts == [serial[k % 2] for k in range(24)]


def test_a_new_window_object_gets_a_new_source():
    mc._field_source.cache_clear()
    cfg = _cfg(source={"family": "window", "window": windows.hermite(1)},
               domain=(0.0, 3.0, 0.0, 3.0), spacing=1 / 8)
    first = mc._source(cfg)
    assert mc._source(dataclasses.replace(cfg)) is first
    again = dataclasses.replace(cfg, source={"family": "window", "window": windows.hermite(1)})
    assert mc._source(again) is not first


def test_reports_do_not_share_the_cached_sources_notes():
    mc._field_source.cache_clear()
    cfg = _cfg(source={"family": "series-gef"}, domain=(-3.0, 3.0, -3.0, 3.0), spacing=0.1,
               n_realizations=4, seed=5, radii=(1.0, 2.0))
    for estimate in (mc.estimate_intensity, mc.estimate_charge_intensity,
                     mc.estimate_charge_variance):
        first = estimate(cfg)
        notes = list(first.notes)
        first.notes.append("edited")
        assert estimate(cfg).notes == notes


def test_charge_variance_leaves_out_fit_over_a_radius_that_never_varied():
    # three realizations with the same charge in the two upper disks: no
    # weight for the fit, so no fit-slope row, and a note naming the radius
    cfg = mc.McConfig(source={"family": "series-gef"}, domain=(-3.0, 3.0, -3.0, 3.0),
                      spacing=0.1, n_realizations=3, seed=1, radii=(0.05, 0.1, 0.2))
    rep = mc.estimate_charge_variance(cfg)
    assert [it.label for it in rep.items] == ["R=0.05", "R=0.1", "R=0.2"]
    assert rep.items[1].se == 0.0
    assert rep.notes[-1] == "fit-slope left out: zero standard error at R=0.1"
