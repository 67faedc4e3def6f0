import dataclasses
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from conftest import grid_windings
from gwhf import kernels, mc, simulate, windows, zeros
from gwhf.errors import (DomainError, InvalidKernelError, ParameterError, PlaneError,
                         ResolutionError)
from gwhf.simulate import FieldSource, SeriesPlan

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
        grids = [FieldSource(form, (-2.0, 2.0, -2.0, 2.0), 0.1).plan.realize(7).values
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
    # two report rows labelled R=1
    with pytest.raises(ParameterError, match=r"^radii 1\.0000001 and 1\.0000002 would both "
                                             r"label their report rows R=1: "):
        _cfg(radii=(0.5, 1.0000001, 1.0000002))
    for radii in (("a",), (1.0, True)):
        with pytest.raises(ParameterError, match=re.escape(f"radii {list(radii)} must be numbers")):
            _cfg(radii=radii)
    # a domain or radii that is no sequence is refused when the config is made
    for radii in (None, 5, 2.0):
        with pytest.raises(ParameterError, match=f"^radii {radii!r} must be a sequence of "
                                                 "numbers$"):
            _cfg(radii=radii)
    for domain in (5, None, "0,1,0,1"):
        with pytest.raises(DomainError, match=f"^domain {re.escape(repr(domain))} must be "
                                              "four numbers x0, x1, y0, y1$"):
            _cfg(source="series", domain=domain)
    with pytest.raises(DomainError, match="must be a finite rectangle"):
        _cfg(source={"family": "poisson"}, domain=(1.0, 0.0, 0.0, 1.0))
    for spacing in ("x", True):
        with pytest.raises(ParameterError, match=f"spacing {spacing!r} must be positive"):
            mc.estimate_intensity(_cfg(spacing=spacing))
    with pytest.raises(ParameterError, match="regresion"):
        _cfg(convention="regresion")
    with pytest.raises(ParameterError, match="threads = 0"):
        _cfg(threads=0)
    # a refused thread count starts no thread; the ceiling itself is a config
    alive = threading.active_count()
    for threads in (mc.MAX_THREADS + 1, 100000):
        with pytest.raises(ParameterError, match=f"^threads = {threads}: at most "
                                                 f"{mc.MAX_THREADS} worker threads$"):
            _cfg(threads=threads)
    assert mc.MAX_THREADS == 64 and _cfg(threads=64).threads == 64
    assert threading.active_count() == alive
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
    # seed and spacing are checked when the config is made, for every source
    for source in ({"family": "series-gef"}, {"family": "poisson"}):
        with pytest.raises(ParameterError, match=r"^seed -3 must be a non-negative integer$"):
            _cfg(source=source, seed=-3)
        for spacing in ("x", -1.0, 0.0, math.inf):
            with pytest.raises(ParameterError, match=f"^spacing {re.escape(repr(spacing))} "
                                                     "must be positive and finite$"):
                _cfg(source=source, spacing=spacing)
        # and so is dt; None is kept for the sources that sample no noise
        for dt in ("x", True, -1.0, 0.0, math.inf, math.nan):
            with pytest.raises(ParameterError, match=f"^dt {re.escape(repr(dt))} "
                                                     "must be None or positive and finite$"):
                _cfg(source=source, dt=dt)
        assert _cfg(source=source, dt=None).dt is None


@pytest.mark.parametrize("density, domain, expected", [
    (1e30, (0.0, 8.0, 0.0, 8.0), "6.4e+31"),
    (1e9, (0.0, 4.0, 0.0, 4.0), "1.6e+10"),
])
def test_poisson_density_beyond_the_element_cap_is_refused(density, domain, expected):
    # the expected count of points is checked when the control is built,
    # before numpy is asked to draw it
    cfg = _cfg(source={"family": "poisson", "density": density}, domain=domain, radii=(1.0,))
    box = ", ".join(f"{v:g}" for v in domain)
    for estimate in (mc.estimate_intensity, mc.estimate_charge_intensity,
                     mc.estimate_charge_variance):
        with pytest.raises(ParameterError, match=re.escape(
                f"poisson density {density:g} on domain ({box}) expects {expected} points a "
                f"realization, more than the {simulate._MAX_ELEMENTS} elements any one array "
                "may hold")):
            estimate(cfg)


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
    draw = SeriesPlan.draw
    bad = draw(FieldSource(cfg.source, cfg.domain, cfg.spacing).plan, 21, [2])[0]

    def vanishing(plan, seed, rs):
        coeffs = draw(plan, seed, rs)
        hit = (coeffs == bad).all(axis=1)
        coeffs[hit] = 0.0
        coeffs[hit, :2] = [-1.0, plan.rho]
        return coeffs

    monkeypatch.setattr(SeriesPlan, "draw", vanishing)
    with pytest.raises(ResolutionError,
                       match=r"^seed 21 realization 2: phase on the circle of radius 1 "):
        mc.estimate_charge_variance(cfg)


def _rows_digest(report):
    """sha256 of a charge-variance report's R= rows, the fit-slope row left out."""
    rows = [it for it in report.to_dict(include_elapsed=False)["items"]
            if it["label"] != "fit-slope"]
    return hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()


def test_poisson_reports_pinned():
    # positions and charges drawn per realization as before they were kept
    # as arrays: the reports of all three estimators keep their bytes.  Last
    # re-pinned when the fit-slope row's theory became the fit of the rows'
    # theory Var; the R= rows' own digest was the same before
    cfg = mc.McConfig(source={"family": "poisson", "density": 1 / PI},
                      domain=(-6.5, 6.5, -6.5, 6.5), spacing=0.08, n_realizations=50,
                      seed=78, radii=(1.0, 2.0, 3.0, 4.0, 5.0, 6.0))
    digest = hashlib.sha256()
    for estimate in (mc.estimate_intensity, mc.estimate_charge_intensity,
                     mc.estimate_charge_variance):
        report = estimate(cfg)
        digest.update(report.to_json(include_elapsed=False).encode())
    assert digest.hexdigest() == \
        "10716e8e822eb70b92748f4ada8e805b460102f8e993239b2f299b56aa487333"
    assert _rows_digest(report) == \
        "3dc7309adaabd40ca4ec113736635707c8b503e328ae3c48c021b273e546d034"


@pytest.mark.parametrize("domain, spacing, radii, n, pinned, rows", [
    ((-6.5, 6.5, -6.5, 6.5), 0.08, (1.0, 2.0, 3.0, 4.0, 5.0, 6.0), 64,
     "f0bd48cfab7ae5267dc90ac49b8088800ca19b37663f7170126f75b7e935c9d8",
     "6f93372f093b671975f7391509209930b9fdf856f6347921ed09fe36785ab746"),
    ((0.0, 8.0, 0.0, 8.0), 1 / 16, (1.0, 2.0, 3.0), 48,
     "38c9ff5005d98b1c729307361c431d15c8262a4df940f8ebcfacfcfedd842a67",
     "315a8e4e83eebdd160ea6bf9a5f51906b8bd634e35691080318c5e47729d4dbe"),
], ids=["origin", "off-centre"])
def test_series_charge_variance_reports_pinned(domain, spacing, radii, n, pinned, rows):
    # the circles about the origin start from the FFT circle values, those
    # off-centre from the evaluator.  The off-centre report was re-pinned
    # when the fit-slope row's theory became the fit of the rows' theory Var
    # (the asymptote again, to its last bit); the R= rows' own digests were
    # the same before
    cfg = mc.McConfig(source={"family": "series-gef"}, domain=domain, spacing=spacing,
                      n_realizations=n, seed=78, radii=radii)
    report = mc.estimate_charge_variance(cfg)
    text = report.to_json(include_elapsed=False)
    assert hashlib.sha256(text.encode()).hexdigest() == pinned
    assert _rows_digest(report) == rows


def test_poisson_fit_slope_theory_is_the_fit_of_the_rows():
    # Var = density pi R^2 for i.i.d. charges: its slope over the upper radii
    # 4..6 is about 10 at density 1/pi, not the top row's Var/R of 6, which
    # the fit-slope row once carried (z = +5.39 here, failing a correct
    # simulation).  The theory is the weighted fit of the rows' theory Var
    cfg = mc.McConfig(source={"family": "poisson", "density": 1 / PI},
                      domain=(-6.5, 6.5, -6.5, 6.5), spacing=0.08, n_realizations=1000,
                      seed=5, radii=(1.0, 2.0, 3.0, 4.0, 5.0, 6.0))
    rep = mc.estimate_charge_variance(cfg)
    fit = rep.items[-1]
    assert fit.label == "fit-slope"
    assert 9.0 < fit.theory < 11.0 and abs(fit.z) < 2.0
    assert rep.passes


_PINNED = [({"family": "window", "window": "hermite:1"}, (0.0, 8.0, 0.0, 8.0), 1 / 16),
           ({"family": "polyentire", "q": 3, "kind": "full"}, (-6.5, 6.5, -6.5, 6.5), 0.08)]


@pytest.mark.parametrize("source, domain, spacing, pinned", [
    (*_PINNED[0], "bcab2e5bd8c7cedecc0c6d738f8821c82069ff4e20f8585833402283c61a7337"),
    (*_PINNED[1], "a8f64c6fd579b1e5c9d102a9447befc9439f7ec318ad7f53b0fe4ff5b786cabd"),
], ids=["stft-h1", "poly3-full"])
def test_intensity_reports_pinned(source, domain, spacing, pinned):
    # the intensity reports count the flagged cells of the lattice rectangle:
    # a change of the plaquette windings that flags or clears a cell there,
    # or of the rectangle, changes their bytes
    cfg = mc.McConfig(source=source, domain=domain, spacing=spacing, dt=1 / 64,
                      n_realizations=16, seed=2718)
    text = mc.estimate_intensity(cfg).to_json(include_elapsed=False)
    assert hashlib.sha256(text.encode()).hexdigest() == pinned


@pytest.mark.parametrize("source, domain, spacing, pinned", [
    (*_PINNED[0], "977c62262714a8a90410ca57b261bee14c87b078181c6887a84ad08a0265be99"),
    (*_PINNED[1], "1c1bef101c9be0193e44446973349fb7083fabfc79d817869a6747380ba7ce2f"),
], ids=["stft-h1", "poly3-full"])
def test_charge_reports_pinned(source, domain, spacing, pinned):
    # the charge reports count the net charge of the lattice rectangle from
    # its four edges: a change of the edge samples that moves a wrap count,
    # or of the rectangle, changes their bytes
    cfg = mc.McConfig(source=source, domain=domain, spacing=spacing, dt=1 / 64,
                      n_realizations=16, seed=2718)
    text = mc.estimate_charge_intensity(cfg).to_json(include_elapsed=False)
    assert hashlib.sha256(text.encode()).hexdigest() == pinned


@pytest.mark.parametrize("source, domain, spacing", [
    ({"family": "window", "window": "hermite:1"}, (0.0, 4.0, 0.0, 4.0), 1 / 16),
    ({"family": "polyentire", "q": 2, "kind": "full"}, (-3.0, 3.0, -3.0, 3.0), 0.1),
    ({"family": "series-gef"}, (-3.0, 3.0, -3.0, 3.0), 0.1),
], ids=["window", "polyentire", "series"])
def test_charge_intensity_runs_no_detector(monkeypatch, source, domain, spacing):
    # the charge of the lattice rectangle comes from its edges: no grid is
    # detected, and the report's mean is the rectangle charges' over its area
    calls = []
    monkeypatch.setattr(mc, "detect_zeros", lambda *a, **kw: calls.append(a))
    cfg = _cfg(source=source, domain=domain, spacing=spacing, n_realizations=12, seed=8,
               threads=2)
    rep = mc.estimate_charge_intensity(cfg)
    assert calls == []
    plan = FieldSource(source, domain, spacing, 1 / 64).plan
    rect = plan.rectangle
    charges = zeros.rectangle_charges(rect, *plan.edges(plan.draw(8, range(12))))
    assert rep.items[0].empirical == float(np.mean(charges.astype(float))) / rect.area
    box = ", ".join(f"{v:.6g}" for v in rect.box)
    assert rep.notes[-1] == (
        f"net charge of the lattice rectangle ({box}): {rect.i1 - rect.i0 + 1} x "
        f"{rect.j1 - rect.j0 + 1} points at spacing {rect.spacing:.6g}, area "
        f"{rect.area:.6g}, counted from its four edges")


@pytest.mark.parametrize("source, domain, spacing", [
    ({"family": "window", "window": "hermite:1"}, (0.0, 4.0, 0.0, 4.0), 1 / 16),
    ({"family": "polyentire", "q": 2, "kind": "full"}, (-3.0, 3.0, -3.0, 3.0), 0.1),
    ({"family": "series-gef"}, (-3.0, 3.0, -3.0, 3.0), 0.1),
], ids=["window", "polyentire", "series"])
def test_intensity_runs_no_detector(monkeypatch, source, domain, spacing):
    # the zero count of the lattice rectangle comes from the plaquette
    # windings of each grid: no grid is detected, and each realization's
    # count is the number of the rectangle's cells with nonzero winding
    calls, counts = [], []
    run = mc._map_realizations

    def kept(cfg, values_of):
        counts.extend(run(cfg, values_of))
        return counts

    monkeypatch.setattr(mc, "detect_zeros", lambda *a, **kw: calls.append(a))
    monkeypatch.setattr(mc, "_map_realizations", kept)
    cfg = _cfg(source=source, domain=domain, spacing=spacing, n_realizations=12, seed=8,
               threads=2)
    rep = mc.estimate_intensity(cfg)
    assert calls == []
    fs = FieldSource(source, domain, spacing, 1 / 64)
    rect = fs.plan.rectangle
    cells = (slice(rect.j0, rect.j1), slice(rect.i0, rect.i1))
    assert counts == [np.count_nonzero(grid_windings(fs.plan.realize(8, r))[cells])
                      for r in range(12)]
    assert rep.items[0].empirical == float(np.mean(np.array(counts, dtype=float))) / rect.area
    box = ", ".join(f"{v:.6g}" for v in rect.box)
    assert rep.notes[-1] == (
        f"flagged cells of the lattice rectangle ({box}): {rect.i1 - rect.i0 + 1} x "
        f"{rect.j1 - rect.j0 + 1} points at spacing {rect.spacing:.6g}, area "
        f"{rect.area:.6g}, counted from its plaquette windings")


@pytest.mark.parametrize("source, domain, spacing", [
    ({"family": "window", "window": "hermite:1"}, (0.0, 4.0, 0.0, 4.0), 1 / 16),
    ({"family": "window", "window": "hermite:1", "plane": "gwhf"}, (-3.0, 3.0, -3.0, 3.0), 0.1),
    ({"family": "polyentire", "q": 2, "kind": "full"}, (-3.0, 3.0, -3.0, 3.0), 0.1),
], ids=["window", "gwhf-window", "polyentire"])
def test_charge_variance_runs_no_detector(monkeypatch, source, domain, spacing):
    # the charge of the lattice square of half-side R comes from the
    # windings of the rectangle's cells: no grid is detected, and each
    # realization's charge is the plane orientation times the sum of the
    # windings of the square's cells on the whole grid
    calls, charges = [], []
    run = mc._map_realizations

    def kept(cfg, values_of):
        charges.extend(run(cfg, values_of))
        return charges

    monkeypatch.setattr(mc, "detect_zeros", lambda *a, **kw: calls.append(a))
    monkeypatch.setattr(mc, "_map_realizations", kept)
    radii = (0.5, 1.0, 1.5)
    cfg = _cfg(source=source, domain=domain, spacing=spacing, n_realizations=12, seed=8,
               threads=2, radii=radii)
    rep = mc.estimate_charge_variance(cfg)
    assert calls == []
    fs = FieldSource(source, domain, spacing, 1 / 64)
    orient = 1 if fs.plane == "gwhf" else -1
    cx, cy = 0.5 * (domain[0] + domain[1]), 0.5 * (domain[2] + domain[3])
    grid = fs.plan.realize(8, 0)
    squares = [(np.flatnonzero((cx - R <= grid.xs) & (grid.xs <= cx + R)),
                np.flatnonzero((cy - R <= grid.ys) & (grid.ys <= cy + R))) for R in radii]
    for r in range(12):
        wind = grid_windings(fs.plan.realize(8, r))
        assert charges[r].tolist() == [orient * wind[rows[0]:rows[-1], cols[0]:cols[-1]].sum()
                                       for cols, rows in squares]
    for note, R, (cols, rows) in zip(rep.notes[-4:], radii, squares):
        box = ", ".join(f"{v:.6g}" for v in (grid.xs[cols[0]], grid.xs[cols[-1]],
                                            grid.ys[rows[0]], grid.ys[rows[-1]]))
        area = (cols[-1] - cols[0]) * (rows[-1] - rows[0]) * grid.spacing ** 2
        assert note == (f"R={R:g}: net charge of the lattice square ({box}): {len(cols)} x "
                        f"{len(rows)} points at spacing {grid.spacing:.6g}, area {area:.6g}, "
                        "counted from its plaquette windings")


@pytest.mark.parametrize("source, domain, spacing, radii", [
    ({"family": "window", "window": "hermite:1"}, (0.0, 8.0, 0.0, 8.0), 1 / 16,
     (1.0, 2.0, 3.0, 4.0)),
    ({"family": "polyentire", "q": 2, "kind": "pure"}, (-6.5, 6.5, -6.5, 6.5), 0.08,
     (1.0, 2.0, 3.0, 4.0, 5.0, 6.0)),
    ({"family": "polyentire", "q": 3, "kind": "full"}, (-6.5, 6.5, -6.5, 6.5), 0.08,
     (1.0, 2.0, 3.0, 4.0, 5.0, 6.0)),
], ids=["stft-h1", "poly2-pure", "poly3-full"])
def test_square_charge_variance_matches_exact_theory(source, domain, spacing, radii):
    # 800 realizations: each square row's theory is the exact variance of
    # its lattice square's sides, in the gwhf plane (an stft-plane side is
    # sqrt(pi) times longer there), and the fit slope's is the squares'
    # large-R slope (4/pi) sqrt(pi) c on the stft plane, (4/pi) c on the gwhf
    # plane; every row, the fit slope included, lies within |z| <= 5
    cfg = _cfg(source=source, domain=domain, spacing=spacing, n_realizations=800, seed=47,
               threads=2, radii=radii)
    rep = mc.estimate_charge_variance(cfg)
    fs = FieldSource(source, domain, spacing, 1 / 64)
    unit = 1.0 if fs.plane == "gwhf" else math.sqrt(PI)
    rect = fs.plan.rectangle
    cx, cy = 0.5 * (domain[0] + domain[1]), 0.5 * (domain[2] + domain[3])
    for it, R in zip(rep.items, radii):
        sq = rect.within((cx - R, cx + R, cy - R, cy + R), "a square")
        assert it.label == f"R={R:g}"
        assert it.theory == kernels.charge_variance_rectangle(
            fs.kernel, unit * (sq.i1 - sq.i0) * sq.spacing,
            unit * (sq.j1 - sq.j0) * sq.spacing) / R
    # the fit slope's theory is the rows' theory Var fitted as the rows'
    # Var are, within a few percent of the squares' large-R slope (2.4%
    # above it for polyentire:2:pure, whose R <= 6 squares are far from it)
    *rows, fit = rep.items
    assert fit.label == "fit-slope" and len(rows) == len(radii)
    upper = [(R, it) for R, it in zip(radii, rows) if R >= radii[len(radii) // 2]]
    slope = np.polyfit([R for R, _ in upper], [R * it.theory for R, it in upper], 1,
                       w=[1 / (R * it.se) for R, it in upper])[0]
    assert fit.theory == pytest.approx(slope, rel=1e-12)
    assert fs.variance_asymptote == unit * kernels.variance_asymptote(fs.kernel)
    assert fit.theory == pytest.approx(4 / PI * fs.variance_asymptote, rel=0.05)
    assert rep.max_abs_z <= 5.0, [round(it.z, 2) for it in rep.items]


@pytest.mark.parametrize("source, domain, spacing", [
    ({"family": "window", "window": "hermite:1"}, (0.0, 8.0, 0.0, 8.0), 1 / 16),
    ({"family": "polyentire", "q": 3, "kind": "full"}, (-6.5, 6.5, -6.5, 6.5), 0.08),
], ids=["stft-h1", "poly3-full"])
def test_flagged_cell_intensity_matches_theory(source, domain, spacing):
    # the flagged-cell count is unbiased: 1,000 realizations on one seed
    # hold the closed-form density within |z| <= 4
    cfg = _cfg(source=source, domain=domain, spacing=spacing, n_realizations=1000,
               seed=2026, threads=2)
    item = mc.estimate_intensity(cfg).items[0]
    assert item.theory == FieldSource(source, domain, spacing, 1 / 64).density()
    assert abs(item.z) <= 4.0


@pytest.mark.parametrize("source", [{"family": "window", "window": "hermite:0"},
                                    {"family": "polyentire", "q": 2, "kind": "pure"}],
                         ids=["window", "polyentire"])
def test_charge_intensity_refuses_an_interior_without_a_rectangle(source):
    # an interior narrower than one spacing holds at most one lattice point
    # across: the rectangle has no area (a series grid of 16 points has an
    # interior of at least 7 cells), for the zero count as for the charge;
    # the refusal names the spacing given, not the one the plan rounds to
    cfg = _cfg(source=source, domain=(0.0, 0.05, 0.0, 4.0), spacing=0.1)
    for estimate in (mc.estimate_charge_intensity, mc.estimate_intensity):
        with pytest.raises(DomainError, match=r"^the lattice of domain \(0, 0\.05, 0, 4\) at "
                                              r"spacing 0\.1 and dt 0\.015625 with margin "
                                              r"[\d.]+ has [01] x \d+ points in the domain; "):
            estimate(cfg)


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


def _variance_se_reference(samples):
    """mc's per-radius sampling error of the unbiased variance as it was
    before all radii were reduced at once: one column at a time, from the
    fourth moment.  The reference for mc._variance_and_se."""
    n = len(samples)
    m = samples - samples.mean()
    m4 = float(np.mean(m ** 4))
    s2 = float(np.var(samples, ddof=1))
    var_of_var = (m4 - (n - 3) / (n - 1) * s2 * s2) / n
    return math.sqrt(max(var_of_var, 0.0))


@pytest.mark.parametrize("n", [2, 3, 7, 8, 9, 127, 128, 129, 1000])
def test_variance_and_se_equal_the_per_column_values(n):
    # n around the block boundaries of numpy's pairwise sum (8 and 128):
    # the reduction over the contiguous (radii, n) rows gives each column's
    # np.var and fourth-moment error bit for bit, on integer charges and
    # on reals
    rng = np.random.default_rng(n)
    for charges in (rng.integers(-9, 10, size=(n, 6)).astype(float), rng.normal(size=(n, 6))):
        var, se = mc._variance_and_se(np.ascontiguousarray(charges.T))
        assert var.tolist() == [float(np.var(c, ddof=1)) for c in charges.T]
        assert se.tolist() == [_variance_se_reference(c) for c in charges.T]


def test_series_reports_independent_of_threads_and_blocks():
    # 21 realizations: blocks of 8, 8, 5 at one and two threads, 7, 7, 7 at three
    texts = set()
    for threads in (1, 2, 3):
        cfg = _cfg(source={"family": "series-gef"}, domain=(-3.0, 3.0, -3.0, 3.0),
                   spacing=0.1, n_realizations=21, seed=5, radii=(1.0, 2.0), threads=threads)
        texts.add(mc.estimate_charge_variance(cfg).to_json(include_elapsed=False)
                  + mc.estimate_intensity(cfg).to_json(include_elapsed=False))
    assert len(texts) == 1


@pytest.mark.parametrize("source, domain, spacing", [
    ({"family": "window", "window": "hermite:1"}, (0.0, 4.0, 0.0, 4.0), 1 / 16),
    ({"family": "polyentire", "q": 3, "kind": "full"}, (-3.0, 3.0, -3.0, 3.0), 0.1),
], ids=["window", "polyentire"])
def test_stft_charge_reports_independent_of_threads_and_blocks(source, domain, spacing):
    # 9 realizations: blocks of 8 and 1 at one thread, 5 and 4 at two, and
    # 3, 3, 3 at three; the edges of each block are drawn in one plan call
    texts = set()
    for threads in (1, 2, 3):
        cfg = _cfg(source=source, domain=domain, spacing=spacing, n_realizations=9, seed=6,
                   threads=threads)
        texts.add(mc.estimate_charge_intensity(cfg).to_json(include_elapsed=False))
    assert len(texts) == 1


@pytest.mark.parametrize("source, domain, spacing", [
    ({"family": "window", "window": "hermite:1"}, (0.0, 4.0, 0.0, 4.0), 1 / 16),
    ({"family": "polyentire", "q": 3, "kind": "full"}, (-3.0, 3.0, -3.0, 3.0), 0.1),
], ids=["window", "polyentire"])
def test_stft_intensity_reports_independent_of_threads_and_blocks(source, domain, spacing):
    # 9 realizations: blocks of 8 and 1 at one thread, 5 and 4 at two, and
    # 3, 3, 3 at three; the rectangle samples of each block come from one
    # records pass, and give both the zero counts and the square charges
    texts = set()
    for threads in (1, 2, 3):
        cfg = _cfg(source=source, domain=domain, spacing=spacing, n_realizations=9, seed=6,
                   threads=threads, radii=(0.5, 1.0, 1.5))
        texts.add(mc.estimate_intensity(cfg).to_json(include_elapsed=False)
                  + mc.estimate_charge_variance(cfg).to_json(include_elapsed=False))
    assert len(texts) == 1


@pytest.mark.parametrize("source, domain, spacing", [
    ({"family": "window", "window": "hermite:1"}, (0.0, 4.0, 0.0, 4.0), 1 / 16),
    ({"family": "polyentire", "q": 2, "kind": "full"}, (-3.0, 3.0, -3.0, 3.0), 0.1),
], ids=["window", "polyentire"])
def test_stft_intensity_makes_no_grid(monkeypatch, source, domain, spacing):
    # the zero count reads the lattice rectangle's samples alone: no grid is
    # realized, and none is wrapped in a FieldGrid
    calls = []
    monkeypatch.setattr(simulate.StftPlan, "realize", lambda *a, **kw: calls.append("realize"))
    monkeypatch.setattr(simulate, "FieldGrid", lambda *a, **kw: calls.append("FieldGrid"))
    rep = mc.estimate_intensity(_cfg(source=source, domain=domain, spacing=spacing,
                                     n_realizations=10, seed=8, threads=2))
    assert calls == [] and rep.items[0].empirical > 0


@pytest.mark.parametrize("threads", [1, 2])
def test_window_intensity_errors_name_seed_and_realization(monkeypatch, threads):
    # realization 3's rectangle windings gain a cell of winding 2, which the
    # zero count refuses; realization 3 is the fourth of the block 0 .. 4
    # at one thread and the first of the block 3, 4 at two
    cfg = _cfg(source={"family": "window", "window": "hermite:1"}, domain=(0.0, 4.0, 0.0, 4.0),
               n_realizations=5, seed=21, threads=threads)
    plan = FieldSource(cfg.source, cfg.domain, cfg.spacing, cfg.dt).plan
    bad = next(plan.rectangle_samples(plan.draw(21, [3])))
    windings = zeros._windings

    def doubled(values, *args):
        w = windings(values, *args)
        if values.tobytes() == bad.tobytes():
            w[5, 7] = 2
        return w

    monkeypatch.setattr(zeros, "_windings", doubled)
    with pytest.raises(ResolutionError,
                       match=r"^seed 21 realization 3: plaquette near \S+ holds winding 2; "):
        mc.estimate_intensity(cfg)


@pytest.mark.parametrize("threads", [1, 2])
def test_errors_name_seed_and_realization(monkeypatch, threads):
    # realization 3's field becomes exp(-|z|^2/2) (z - a)^2, a the centre of
    # the rectangle's cell about the origin, where every edge's carrier
    # advance is h^2/2: its plaquette holds winding 2, and the zero count
    # refuses it.  Realization 3 is the fourth of one block at one thread
    # and the second of the block 2, 3 at two.
    cfg = _cfg(source={"family": "series-gef"}, domain=(-3.05, 3.05, -3.05, 3.05),
               spacing=0.1, n_realizations=4, seed=21, threads=threads)
    plan = FieldSource(cfg.source, cfg.domain, cfg.spacing).plan
    a = plan.lattice.origin + plan.spacing * (34.5 + 34.5j)
    assert abs(a) < 1e-12
    draw = SeriesPlan.draw
    bad = draw(plan, 21, [3])[0]

    def doubled(self, seed, rs):
        coeffs = draw(self, seed, rs)
        hit = (coeffs == bad).all(axis=1)
        coeffs[hit] = 0.0
        coeffs[hit, :3] = [a * a, -2.0 * a * self.rho, self.rho ** 2]
        return coeffs

    monkeypatch.setattr(SeriesPlan, "draw", doubled)
    with pytest.raises(ResolutionError,
                       match=r"^seed 21 realization 3: plaquette near \S+ holds winding 2; "):
        mc.estimate_intensity(cfg)


@pytest.mark.parametrize("n, threads", [(16, 1), (8, 2)])
@pytest.mark.parametrize("source, domain, spacing", [
    ({"family": "window", "window": "hermite:1"}, (0.0, 4.0, 0.0, 4.0), 1 / 16),
    ({"family": "polyentire", "q": 2, "kind": "full"}, (-3.0, 3.0, -3.0, 3.0), 0.1),
], ids=["window", "polyentire"])
def test_records_drawn_once_per_block(monkeypatch, source, domain, spacing, n, threads):
    # the charge, the zero intensity and the square charges each draw all
    # noise records of a block in one pass: blocks of 8, 8 at one thread and of
    # 4, 4 at two
    calls = []
    draw = simulate.StftPlan.draw

    def counted(self, seed, rs):
        calls.append(len(rs))
        return draw(self, seed, rs)

    monkeypatch.setattr(simulate.StftPlan, "draw", counted)
    cfg = _cfg(source=source, domain=domain, spacing=spacing, n_realizations=n, threads=threads,
               radii=(0.5, 1.0))
    for estimate in (mc.estimate_charge_intensity, mc.estimate_intensity,
                     mc.estimate_charge_variance):
        calls.clear()
        estimate(cfg)
        assert sorted(calls) == [n // 2, n // 2], estimate.__name__


class _StubSource:
    """The estimators' source interface and nothing else: not a FieldSource."""

    interior, area, charge_density = (-2.0, 2.0, -2.0, 2.0), 4.0, 0.25

    def density(self, convention):
        return 1.5

    def variance_theory(self, radii):
        return [10.0 * R for R in radii]

    def notes_for(self, quantity, radii=()):
        return [f"stub {quantity}", *(f"R={R:g}" for R in radii)]

    def zero_counts(self, seed, rs):
        return (r + 1 for r in rs)

    def net_charges(self, seed, rs):
        return np.array([3 * r - 7 for r in rs])

    def region_charges(self, seed, rs, radii):
        return (np.array([r * R * R for R in radii]) for r in rs)


def test_estimators_report_what_any_source_answers(monkeypatch):
    # every estimator reports the stub's values over its area, its notes and
    # its theory, through the one interface: no estimator tests a type
    monkeypatch.setattr(mc, "_source", lambda cfg: _StubSource())
    cfg = _cfg(n_realizations=10, radii=(1.0, 1.5, 2.0), threads=2)
    r = np.arange(10.0)
    for estimate, quantity, values, theory in (
            (mc.estimate_intensity, "density", r + 1, 1.5),
            (mc.estimate_charge_intensity, "charge_density", 3 * r - 7, 0.25)):
        rep = estimate(cfg)
        assert rep.items == [mc.McItem(quantity, float(np.mean(values)) / 4.0,
                                       float(np.std(values, ddof=1) / math.sqrt(10)) / 4.0,
                                       theory)]
        assert rep.notes == [f"stub {quantity}"]
    rep = mc.estimate_charge_variance(cfg)
    assert [it.label for it in rep.items] == ["R=1", "R=1.5", "R=2", "fit-slope"]
    for it, R in zip(rep.items, (1.0, 1.5, 2.0)):
        assert it.empirical == pytest.approx(float(np.var(r * R * R, ddof=1)) / R, rel=1e-12)
        assert it.theory == 10.0 * R
    # Var = 10 R^2 at R = 1.5 and 2: the line through them has slope 35
    assert rep.items[-1].theory == pytest.approx(35.0, rel=1e-12)
    assert rep.notes == ["stub charge_variance", "R=1", "R=1.5", "R=2",
                         "fewer than 100 realizations: variance standard errors are wide"]


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
        coeffs = plan.draw(77, range(lo, lo + 8))
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


def test_a_failed_call_waits_for_its_running_blocks():
    # three blocks of one realization: block 1 raises while block 2 sleeps;
    # the call raises only once block 2 has finished, naming seed and
    # realization as before
    cfg = _cfg(n_realizations=3, seed=21, threads=3)
    sleeping, finished = threading.Event(), []

    def values_of(rs):
        for r in rs:
            if r == 1:
                assert sleeping.wait(timeout=60)
                raise ResolutionError("refused")
            if r == 2:
                sleeping.set()
                time.sleep(0.3)
                finished.append(r)
            yield r

    with pytest.raises(ResolutionError, match=r"^seed 21 realization 1: refused$"):
        mc._map_realizations(cfg, values_of)
    assert finished == [2]


def test_a_failed_call_runs_no_queued_block():
    # blocks 0, 8 and 16 of eight at two threads: the caller's block fails
    # while the one worker sleeps in block 8, so block 16 is still queued,
    # and it never runs
    cfg = _cfg(n_realizations=24, seed=21, threads=2)
    sleeping, ran = threading.Event(), []

    def values_of(rs):
        ran.append(rs.start)
        if rs.start == 0:
            assert sleeping.wait(timeout=60)
            raise ResolutionError("refused")
        sleeping.set()
        time.sleep(0.3)
        return list(rs)

    with pytest.raises(ResolutionError, match=r"^seed 21 realization 0: refused$"):
        mc._map_realizations(cfg, values_of)
    assert sorted(ran) == [0, 8]


def test_a_failed_call_raises_the_first_failure_in_block_order():
    # block 2 fails at once, block 1 only after a sleep: block 1's failure
    # is the one raised, as at one thread
    for threads in (1, 3):
        cfg = _cfg(n_realizations=3, seed=21, threads=threads)

        def values_of(rs):
            for r in rs:
                if r == 1:
                    time.sleep(0.2)
                if r > 0:
                    raise ResolutionError(f"refused {r}")
                yield r

        with pytest.raises(ResolutionError, match=r"^seed 21 realization 1: refused 1$"):
            mc._map_realizations(cfg, values_of)


def test_threaded_calls_reuse_their_workers():
    # the caller's block waits until the threads - 1 blocks after it have
    # met at a barrier, so each call at three threads runs two blocks at
    # once on two workers.  After a first such call, calls at two and three
    # threads find idle workers in the shared pool: they start no thread and
    # run their blocks on threads alive before them.  A worker counts as
    # idle only just after its task's future is set, hence the short pause
    caller = threading.current_thread()

    def call(threads):
        ran, met, elsewhere = threading.Event(), threading.Barrier(threads - 1), []

        def values_of(rs):
            if rs.start == 0:
                assert ran.wait(timeout=60)
            else:
                elsewhere.append(threading.current_thread())
                met.wait(timeout=60)
                ran.set()
            return list(rs)

        assert mc._map_realizations(_cfg(n_realizations=8, threads=threads),
                                    values_of) == list(range(8))
        assert len(set(elsewhere)) == len(elsewhere) == threads - 1
        assert caller not in elsewhere
        time.sleep(0.05)
        return elsewhere

    call(3)
    alive, warm = threading.active_count(), set(threading.enumerate())
    used = {t for threads in (2, 3, 2, 3) for t in call(threads)}
    assert threading.active_count() == alive and used <= warm


def test_a_call_does_not_wait_for_a_busy_pool(monkeypatch):
    # the pool's one worker is held: a call at two threads runs every block
    # on the caller, cancels its queued task and returns while the worker
    # is still held
    held, release = threading.Event(), threading.Event()
    pool = ThreadPoolExecutor(max_workers=1)
    try:
        holder = pool.submit(lambda: (held.set(), release.wait(timeout=60)))
        assert held.wait(timeout=60)
        monkeypatch.setattr(mc, "_pool", pool)
        caller, ran = threading.get_ident(), []

        def values_of(rs):
            ran.append(threading.get_ident())
            return list(rs)

        assert mc._map_realizations(_cfg(n_realizations=24, threads=2),
                                    values_of) == list(range(24))
        assert ran == [caller] * 3 and not holder.done()
    finally:
        release.set()
        pool.shutdown(wait=True)


def test_concurrent_threaded_calls_equal_the_serial_report():
    # user threads call at two and three threads at once on one geometry,
    # all sharing the one pool: every report is the one-thread report
    cfg = _cfg(source={"family": "window", "window": "hermite:1"},
               domain=(0.0, 3.0, 0.0, 3.0), spacing=1 / 8, n_realizations=21, seed=9)
    serial = mc.estimate_charge_intensity(cfg).to_json(include_elapsed=False)
    with ThreadPoolExecutor(max_workers=4) as users:
        futures = [users.submit(mc.estimate_charge_intensity,
                                dataclasses.replace(cfg, threads=2 + k % 2)) for k in range(8)]
        texts = [f.result(timeout=120).to_json(include_elapsed=False) for f in futures]
    assert texts == [serial] * 8


@pytest.mark.parametrize("threads", [1, 2])
def test_other_exceptions_propagate_as_they_are(threads):
    # a KeyError from block 8 is raised as the same object, not wrapped
    # with a seed and a realization; at two threads the caller's block
    # waits until a worker has raised it
    boom, raised, where = KeyError("boom"), threading.Event(), []

    def values_of(rs):
        if rs.start == 0 and threads == 2:
            assert raised.wait(timeout=60)
        if rs.start == 8:
            where.append(threading.get_ident())
            raised.set()
            raise boom
        return list(rs)

    with pytest.raises(KeyError) as info:
        mc._map_realizations(_cfg(n_realizations=16, seed=21, threads=threads), values_of)
    assert info.value is boom
    assert (where[0] == threading.get_ident()) == (threads == 1)


def _fresh_thread_counts(script: str) -> list:
    """The list a script run in a fresh interpreter prints on its last line."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(mc.__file__))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_a_call_starts_no_more_workers_than_blocks():
    # threads = 64 over two realizations makes two blocks of one: one task
    # is queued, so at most one worker starts
    before, after = _fresh_thread_counts("""
import threading
from gwhf import mc
alive = [threading.active_count()]
mc._map_realizations(mc.McConfig(source={"family": "poisson"}, domain=(0, 2, 0, 2),
                                 spacing=0.1, n_realizations=2, seed=1, threads=64), list)
alive.append(threading.active_count())
print(alive)
""")
    assert before <= after <= before + 1


def test_workers_start_at_the_first_threaded_call_and_are_kept():
    # a fresh interpreter: importing gwhf and a one-thread estimate start no
    # thread; calls at two and three threads keep 2 workers in all, the
    # pause letting each finished worker count itself idle
    alive = _fresh_thread_counts("""
import threading
import time
alive = [threading.active_count()]
import gwhf
from gwhf import mc
alive.append(threading.active_count())

def cfg(threads):
    return mc.McConfig(source={"family": "window", "window": "hermite:1"},
                       domain=(0.0, 3.0, 0.0, 3.0), spacing=1 / 8, dt=1 / 64,
                       n_realizations=8, seed=1, threads=threads)

reports = {mc.estimate_charge_intensity(cfg(1)).to_json(include_elapsed=False)}
alive.append(threading.active_count())
for threads in (2, 3, 2, 3):
    reports.add(mc.estimate_charge_intensity(cfg(threads)).to_json(include_elapsed=False))
    time.sleep(0.05)
alive.append(threading.active_count())
print(alive + [len(reports)])
""")
    before, imported, serial, threaded, reports = alive
    assert imported == serial == before
    assert before < threaded <= before + 2
    assert reports == 1
