import json
import math

import numpy as np
import pytest

from gwhf import mc
from gwhf.errors import DomainError, ParameterError, ResolutionError
from gwhf.simulate import FieldSource

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


def test_window_source_forms_give_identical_reports():
    from gwhf.windows import hermite
    reports = [mc.estimate_intensity(_cfg(
        source={"family": "window", "window": win}, n_realizations=3)
    ).to_json(include_elapsed=False)
        for win in (hermite(1), {"family": "hermite", "r": 1}, "hermite:1")]
    assert reports[0] == reports[1] == reports[2]
    assert json.loads(reports[0])["config"]["source"]["window"] == "hermite:1"


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
    with pytest.raises(ParameterError, match="regresion"):
        _cfg(convention="regresion")
    with pytest.raises(ParameterError, match="threads = 0"):
        _cfg(threads=0)
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
    cfg = _cfg(domain=(0.0, 3.0, 0.0, 3.0), spacing=1 / 8, n_realizations=4, seed=21,
               threads=threads)
    bad = FieldSource(cfg.source, cfg.domain, cfg.spacing, cfg.dt).realize(21, 2).values
    detect = mc.detect_zeros

    def flaky(grid, *args, **kwargs):
        if np.array_equal(grid.values, bad):
            raise ResolutionError("plaquette holds winding 2")
        return detect(grid, *args, **kwargs)

    monkeypatch.setattr(mc, "detect_zeros", flaky)
    with pytest.raises(ResolutionError, match=r"^seed 21 realization 2: plaquette holds winding 2$"):
        mc.estimate_intensity(cfg)
