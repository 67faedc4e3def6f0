import functools
import importlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import anchored_plan
from gwhf import cli
from gwhf.simulate import FieldSource, load_grid, save_grid

PI = math.pi


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_intensity_kernel_output(capsys):
    code, out, _ = run_cli(capsys, "intensity", "--kernel", "laguerre-avg:4")
    assert code == 0
    data = json.loads(out)
    assert data["rho1"] == pytest.approx((4 + 0.25) / (2 * PI), abs=1e-12)
    assert data["rho1_charged"] == pytest.approx(1 / PI, abs=1e-15)
    assert data["standing_assumptions"]["ok"]


def test_intensity_gef_matches_charged(capsys):
    code, out, _ = run_cli(capsys, "intensity", "--kernel", "gef")
    data = json.loads(out)
    assert data["rho1"] == pytest.approx(0.3183099, abs=1e-6)
    assert data["rho1"] == pytest.approx(data["rho1_charged"], abs=1e-12)


def test_intensity_window_output(capsys):
    code, out, _ = run_cli(capsys, "intensity", "--window", "hermite:1")
    data = json.loads(out)
    assert data["rho1_stft"] == pytest.approx(5 / 3, abs=1e-7)
    assert "rho1_stft_by_convention" not in data  # real window: conventions agree
    code, out, _ = run_cli(capsys, "intensity", "--window",
                           "gaussian:1.0;0.0;0.25;0.0;0.3")
    data = json.loads(out)
    assert data["rho1_stft"] == pytest.approx(1.0, abs=1e-8)
    assert "rho1_stft_by_convention" in data


def test_variance_asymptote_cmd(capsys):
    code, out, _ = run_cli(capsys, "variance-asymptote", "--kernel", "gef")
    assert code == 0
    assert json.loads(out)["var_per_radius_limit"] == pytest.approx(
        0.368468740011, abs=1e-9)


def test_intensity_custom_jet_reports_conventions(capsys):
    code, out, _ = run_cli(capsys, "intensity", "--kernel",
                           "custom:0.4;0.5;-2.0;-2.0;0.3")
    data = json.loads(out)
    assert code == 0
    assert "rho1_by_convention" in data


def test_simulate_zeros_plot_pipeline(tmp_path, capsys):
    out_dir = str(tmp_path / "run")
    code, _, _ = run_cli(capsys, "simulate", "--window", "hermite:1",
                         "--domain", "0,8,0,8", "--seed", "7", "--out", out_dir)
    assert code == 0
    grid_path = os.path.join(out_dir, "field.gwhf")
    assert os.path.exists(grid_path)
    csv_path = str(tmp_path / "zeros.csv")
    code, _, _ = run_cli(capsys, "zeros", "--grid", grid_path, "--out", csv_path)
    assert code == 0
    lines = Path(csv_path).read_text().splitlines()
    assert lines[0] == "x,y,charge,winding,refined,jacobian_sign,degenerate"
    assert len(lines) > 80
    svg_path = str(tmp_path / "zeros.svg")
    code, _, _ = run_cli(capsys, "plot", "--zeros", csv_path, "--out", svg_path)
    assert code == 0
    svg = Path(svg_path).read_text()
    pluses = svg.count("<path d=")
    circles = svg.count("<circle")
    degenerate = sum(row.endswith(",1") for row in lines[1:])
    assert pluses + circles == len(lines) - 1 - degenerate
    assert svg.count('stroke="#808080"') == degenerate
    assert pluses > circles  # mostly positive charge


def test_zeros_csv_of_default_container_equals_anchored_one(tmp_path, capsys):
    # the README example; its container holds the interior plus a 4-cell pad
    out_dir = str(tmp_path / "run")
    run_cli(capsys, "simulate", "--window", "hermite:1", "--domain", "0,8,0,8",
            "--seed", "7", "--out", out_dir)
    small = load_grid(os.path.join(out_dir, "field.gwhf"))
    assert (small.nx, small.ny) == (136, 137)
    # the same realization on the grid padded by the anchor margin 2 max(T, freq)
    src = FieldSource({"family": "window", "window": "hermite:1"}, (0, 8, 0, 8),
                      small.spacing, small.meta["dt"])
    plan = anchored_plan(src.plan)
    assert (plan.nx, plan.ny) == (345, 345)
    save_grid(plan.realize(7), str(tmp_path / "anchored.gwhf"))
    csvs = []
    for name in (os.path.join(out_dir, "field.gwhf"), str(tmp_path / "anchored.gwhf")):
        csvs.append(tmp_path / (Path(name).stem + ".csv"))
        assert run_cli(capsys, "zeros", "--grid", name, "--out", str(csvs[-1]))[0] == 0
    assert csvs[0].read_bytes() == csvs[1].read_bytes()
    assert len(csvs[0].read_text().splitlines()) > 80


def test_plot_marks_degenerate_zeros_neutrally(tmp_path, capsys):
    csv_path = str(tmp_path / "z.csv")
    with open(csv_path, "w") as fh:
        fh.write("x,y,charge,winding,refined,jacobian_sign,degenerate\n"
                 "0.5,0.5,1,1,1,1,0\n"
                 "1.5,0.5,-1,-1,1,-1,0\n"
                 "1.0,1.5,1,1,0,0,1\n")
    svg_path = str(tmp_path / "z.svg")
    code, _, _ = run_cli(capsys, "plot", "--zeros", csv_path, "--out", svg_path)
    assert code == 0
    svg = Path(svg_path).read_text()
    assert svg.count("<path d=") == 1 and svg.count("<circle") == 1
    # the degenerate row, at (1.0, 1.5), gets the one grey square
    marks = re.findall(r'<rect x="([\d.]+)" y="([\d.]+)" width="8.00" height="8.00" '
                       r'stroke="#808080"', svg)
    assert len(marks) == 1
    cx, cy = float(marks[0][0]) + 4, float(marks[0][1]) + 4
    assert (cx, cy) == (40 + 600 * 1.0 / 2, 40 + 600 * (2 - 1.5) / 2)


def test_plot_ticks_bounded(tmp_path, capsys):
    # one tick per unit up to a span of 20 units; beyond, the smallest step
    # of 2, 5, 10, 20, 50, ... that leaves at most 20 ticks per axis
    csv_path, svg_path = tmp_path / "z.csv", tmp_path / "z.svg"
    for far, step in ((20.0, 1), (21.0, 2), (50.0, 5), (100000.0, 10000)):
        csv_path.write_text("x,y,charge,winding,refined,jacobian_sign,degenerate\n"
                            f"0.5,0.5,1,1,1,1,0\n{far},0.5,-1,-1,1,-1,0\n")
        code, _, _ = run_cli(capsys, "plot", "--zeros", str(csv_path), "--out", str(svg_path))
        assert code == 0
        labels = [int(v) for v in re.findall(r'text-anchor="middle">(-?\d+)</text>',
                                             svg_path.read_text())]
        y_labels = [0, 1] if step == 1 else [0]
        assert labels == list(range(0, int(far) + 1, step)) + y_labels


def _fresh_python(*args):
    """A new interpreter run with args, the package under test importable."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=120)


def test_python_dash_m_runs_the_cli():
    done = _fresh_python("-m", "gwhf", "--help")
    assert done.returncode == 0
    assert done.stdout.startswith("usage: gwhf")


def test_import_loads_no_scipy():
    # scipy.interpolate and scipy.spatial are most of a fresh import's time
    done = _fresh_python("-c", "import sys, gwhf, gwhf.cli; "
                         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_samples_window_imports_its_spline_on_first_use(tmp_path):
    dt = 1.0 / 64.0
    path = tmp_path / "h0.npy"
    np.save(path, np.exp(-PI * ((np.arange(768) - 383.5) * dt) ** 2))  # centred on 0
    done = _fresh_python("-c", "import sys; from gwhf.windows import window_from_spec; "
                         f"w = window_from_spec({{'family': 'samples', 'samples_path': {str(path)!r}, "
                         f"'dt': {dt!r}}}); "
                         "print(w.kind, 'scipy.interpolate' in sys.modules, "
                         "abs(w(0.0) - 2 ** 0.25) < 1e-6)")
    assert done.returncode == 0, done.stderr
    assert done.stdout == "samples True True\n"


def test_plot_empty_csv(tmp_path, capsys):
    csv_path = str(tmp_path / "empty.csv")
    with open(csv_path, "w") as fh:
        fh.write("x,y,charge,winding,refined,jacobian_sign,degenerate\n")
    svg_path = str(tmp_path / "empty.svg")
    code, _, _ = run_cli(capsys, "plot", "--zeros", csv_path, "--out", svg_path)
    assert code == 0
    assert "<svg" in Path(svg_path).read_text()
    # the former five-column CSV lacks the sign and degenerate flag: refused
    with open(csv_path, "w") as fh:
        fh.write("x,y,charge,winding,refined\n0.5,0.5,1,1,1\n")
    code, _, err = run_cli(capsys, "plot", "--zeros", csv_path, "--out", svg_path)
    assert code == 2
    assert err.startswith("error: ") and csv_path in err


def test_outputs_byte_identical_across_reruns(tmp_path, capsys):
    blobs = []
    texts = []
    for name in ("a", "b"):
        out_dir = str(tmp_path / name)
        run_cli(capsys, "simulate", "--window", "hermite:0",
                "--domain", "0,4,0,4", "--seed", "21", "--out", out_dir)
        blobs.append(Path(out_dir, "field.gwhf").read_bytes())
        csv_path = os.path.join(out_dir, "z.csv")
        run_cli(capsys, "zeros", "--grid", os.path.join(out_dir, "field.gwhf"),
                "--out", csv_path)
        svg_path = os.path.join(out_dir, "z.svg")
        run_cli(capsys, "plot", "--zeros", csv_path, "--out", svg_path)
        texts.append(Path(csv_path).read_text() + Path(svg_path).read_text())
    assert blobs[0] == blobs[1]
    assert texts[0] == texts[1]


def test_verify_reports_byte_identical(tmp_path, capsys):
    outs = []
    env = dict(os.environ)
    for name, threads in (("a", "1"), ("b", "2")):
        out_dir = str(tmp_path / name)
        code, _, _ = run_cli(capsys, "verify", "intensity", "--window", "hermite:0",
                             "-n", "5", "--domain", "0,4,0,4", "--out", out_dir,
                             "--threads", threads)
        assert code == 0
        outs.append(Path(out_dir, "intensity.json").read_text())
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["elapsed_s"] is None
    assert dict(os.environ) == env  # --threads reaches McConfig, not the environment


def test_verify_tau2_and_invariance(tmp_path, capsys):
    # without --out, and with an --out directory that does not exist yet
    for out_dir in (None, tmp_path / "new" / "nested"):
        extra = ["--out", str(out_dir)] if out_dir else []
        code, out, _ = run_cli(capsys, "verify", "tau2-oracle", "--kernel", "laguerre:1",
                               *extra)
        assert code == 0
        assert json.loads(out)["max_residual"] <= 1e-8
        code, out2, _ = run_cli(capsys, "verify", "invariance", "--window", "hermite:1",
                                "-n", "5", *extra)
        assert code == 0
        assert json.loads(out2)["max_deviation"] <= 1e-7
        if out_dir:
            assert (out_dir / "tau2_oracle.json").read_text() == out
            assert (out_dir / "invariance.json").read_text() == out2


def test_verify_invariance_evaluates_the_unmodulated_window_once(monkeypatch, capsys):
    # one rho1_stft of the window itself, then one per draw; the report is
    # the one every draw evaluating both gave
    calls = []
    rho1_stft = cli.rho1_stft

    def counted(*args):
        calls.append(1)
        return rho1_stft(*args)

    monkeypatch.setattr(cli, "rho1_stft", counted)
    code, out, _ = run_cli(capsys, "verify", "invariance", "--window",
                           "hermite-mixture:1;0.3+0.5j;-0.2j", "-n", "10", "--seed", "3")
    assert code == 0 and len(calls) == 11
    assert out == ('{\n  "draws": 10,\n  "max_deviation": 3.552713678800501e-15,\n'
                   '  "tolerance": 1e-07,\n'
                   '  "window": "hermite-mixture:1.0+0.0j;0.3+0.5j;0.0-0.2j"\n}\n')


def test_verify_exit_code_gates(capsys):
    # alternate convention must fail invariance for a chirped complex window
    code, out, _ = run_cli(capsys, "verify", "invariance", "--window",
                           "gaussian:1.0;0.0;0.25;0.0;0.3", "-n", "5",
                           "--convention", "alternate")
    assert code != 0


@pytest.mark.parametrize("argv, names", [
    (["intensity", "--kernel", "custom:1;2"], "custom"),
    (["intensity", "--window", "foo"], "foo"),
    (["intensity", "--window", "gaussian:abc"], "gaussian:abc"),
    (["intensity", "--kernel", "laguerre"], "laguerre"),
    (["verify", "intensity", "--kernel", "polyentire:3", "-n", "2"], "kind=''"),
    (["verify", "intensity", "--kernel", "polyentire:3:bogus", "-n", "2"], "bogus"),
    (["simulate", "--simulator", "polyentire:9:pure"], "9"),
    (["simulate"], "--window"),
    (["simulate", "--window", "hermite:1", "--spacing", "0"], "spacing 0.0"),
    (["simulate", "--window", "hermite:1", "--dt", "0"], "dt 0.0"),
    (["simulate", "--window", "hermite:1", "--spacing", "2"], "spacing 2 gives"),
    (["simulate", "--simulator", "polyentire:2:pure", "--spacing", "3"], "spacing 3 gives"),
    (["simulate", "--simulator", "series", "--spacing", "-1"], "spacing -1.0"),
    (["simulate", "--simulator", "series", "--domain=-28,28,-28,28", "--spacing", "1"],
     "grid radius 45.25 exceeds the series limit 37.42"),
    (["verify", "intensity", "--window", "hermite:1", "-n", "1"], "n_realizations = 1"),
    (["simulate", "--window", "hermite:1", "--seed", "-1"], "seed -1"),
    (["verify", "intensity", "--window", "hermite:1", "-n", "2", "--seed", "-1"], "seed -1"),
    (["verify", "invariance", "--window", "hermite:1", "-n", "2", "--seed", "-1"], "seed -1"),
    (["verify", "charge-variance", "--kernel", "gef-series", "--radii", "1,x", "-n", "2"],
     "'1,x'"),
    (["verify", "charge-variance", "--kernel", "poisson", "--radii", "0,1", "-n", "2"],
     "radii [0.0, 1.0]"),
    (["verify", "charge-variance", "--kernel", "series", "--domain=-3,3,-3,3",
      "--spacing", "0.1", "--radii", "1,1", "-n", "50", "--seed", "1"],
     "radii [1.0, 1.0] must be strictly increasing"),
    (["verify", "charge-variance", "--kernel", "poisson", "--radii", "1.0000001,1.0000002",
      "-n", "2"], "radii 1.0000001 and 1.0000002 would both label their report rows R=1"),
    (["verify", "charge-variance", "--kernel", "gef-series", "--domain", "0,1.5,0,1.5"],
     "fits domain (0.0, 1.5, 0.0, 1.5) about its centre; give radii with --radii"),
    (["plot"], "row 2 'nan,0.5,1,1,1,1,0'"),
    (["simulate", "--window", "hermite:1", "--domain=0,inf,0,8"], "domain (0.0, inf, 0.0, 8.0)"),
    (["simulate", "--simulator", "series", "--domain=0,inf,0,8"], "domain (0.0, inf, 0.0, 8.0)"),
    (["simulate", "--simulator", "polyentire:3:full", "--domain=0,8,0,-inf"],
     "domain (0.0, 8.0, 0.0, -inf)"),
    (["verify", "intensity", "--kernel", "poisson", "-n", "3", "--domain=1,0,0,1"],
     "domain (1.0, 0.0, 0.0, 1.0)"),
    (["verify", "intensity", "--kernel", "poisson", "-n", "3", "--domain=0,nan,0,1"],
     "domain (0.0, nan, 0.0, 1.0)"),
    (["verify", "invariance", "--window", "hermite:1", "-n", "0"], "-n 0"),
    (["verify", "invariance", "--window", "hermite:1", "-n", "-3"], "-n -3"),
    (["verify", "intensity", "--kernel", "gef", "-n", "2"], "gef-series"),
    (["verify", "intensity", "-n", "2"],
     "no field source: give --window, or --kernel with @file.json or one of series | "),
    (["simulate", "--simulator", "series", "--plane", "stft"], "series simulator"),
    (["simulate", "--simulator", "polyentire:2:pure", "--plane", "stft"],
     "polyentire:2:pure simulator"),
    (["simulate", "--simulator", "series", "--window", "hermite:1"],
     "--window hermite:1 is for the stft simulator; --simulator series names another"),
    (["simulate", "--simulator", "gef-series", "--window", "hermite:1"], "--simulator gef-series"),
    (["simulate", "--simulator", "polyentire:3:full", "--window", "hermite:1"],
     "--simulator polyentire:3:full"),
    (["simulate", "--simulator", "series", "--domain=0,4,0,4", "--spacing", "inf"],
     "spacing inf must be positive and finite"),
    (["verify", "intensity", "--window", "hermite:1", "--kernel", "polyentire:3:full", "-n", "2"],
     "--window hermite:1 is for the stft simulator; --kernel polyentire:3:full"),
    # refused by the plan constructors before any array of the grid's size exists
    (["simulate", "--simulator", "series", "--domain=-1,1,-1,1", "--spacing", "1e-5"],
     "domain (-1, 1, -1, 1) at spacing 1e-05 with margin 4e-05 needs a 200009 x 200009 grid"),
    (["simulate", "--window", "hermite:1", "--domain", "0,1,0,1", "--spacing", "1e-5"],
     "domain (0, 1, 0, 1) at spacing 1e-05 and dt 0.015625"),
    (["simulate", "--window", "hermite:1", "--domain", "0,0.5,0,0.5", "--spacing", "0.01",
      "--dt", "1e-9"], "at spacing 0.01 and dt 1e-09 with margin 6.77 needs a noise record"),
    # counts whose ratios overflow, or whose spacing * dt underflows to 0
    (["simulate", "--window", "hermite:1", "--spacing", "1e-320"],
     "at spacing 9.99989e-321 and dt 0.015625 with margin 6.77 needs an FFT frame length of inf"),
    (["simulate", "--window", "hermite:1", "--dt", "1e-320"],
     "and dt 9.99989e-321 with margin 6.77 needs a noise record length of inf"),
    (["simulate", "--window", "hermite:1", "--spacing", "1e-200", "--dt", "1e-200"],
     "at spacing 1e-200 and dt 1e-200 with margin 6.77 needs a noise record length of 2.831e+201"),
    (["simulate", "--simulator", "series", "--spacing", "1e-320", "--domain=-1,1,-1,1"],
     "domain (-1, 1, -1, 1) at spacing 9.99989e-321 with margin 4e-320 needs a grid width of inf"),
    (["verify", "intensity", "--window", "hermite:1", "--domain", "0,1e308,0,1", "-n", "2"],
     "domain (0, 1e+308, 0, 1) at spacing 0.0625 and dt 0.015625 with margin 6.77 "
     "needs a noise record length of inf"),
    # the gwhf-plane spacing, domain and margin (sqrt(pi) 6.77) as given
    (["simulate", "--window", "hermite:1", "--plane", "gwhf", "--domain=-1,1,-1,1",
      "--spacing", "1e-5"],
     "domain (-1, 1, -1, 1) at spacing 1e-05 and dt 0.015625 with margin 12 needs a "
     "2600137 x 200026 phase table"),
    (["intensity", "--window", "gaussian:nan"], "sigma must be finite, got nan"),
    (["intensity", "--window", "gaussian:1;nan"], "phase must be finite, got nan"),
    (["intensity", "--window", "hermite-mixture:1;nan"],
     "coefficients must be finite, got hermite-mixture:1.0+0.0j;nan+0.0j"),
    (["intensity", "--window", "hermite-mixture:1;inf"],
     "coefficients must be finite, got hermite-mixture:1.0+0.0j;inf+0.0j"),
    (["verify", "charge", "--window", "hermite:0", "--domain=0,0.05,0,4", "-n", "2"],
     "the lattice of domain (0, 0.05, 0, 4) at spacing 0.0625 and dt 0.015625 with margin "
     "6.52 has 1 x 65 points in the domain; a zero or charge count needs a rectangle of "
     "at least 2 x 2"),
    # the gwhf-plane lattice's spacing rounds 0.1 down; the refusal names 0.1
    (["verify", "charge", "--kernel", "polyentire:2:pure", "--domain=0,0.05,0,4",
      "--spacing", "0.1", "-n", "2"],
     "the lattice of domain (0, 0.05, 0, 4) at spacing 0.1 and dt 0.015625 with margin 12 "
     "has 1 x 40 points in the domain; a zero or charge count needs a rectangle of at "
     "least 2 x 2"),
    (["verify", "intensity", "--kernel", "polyentire:2:pure", "--domain=0,0.05,0,4",
      "--spacing", "0.1", "-n", "2"],
     "the lattice of domain (0, 0.05, 0, 4) at spacing 0.1 and dt 0.015625 with margin 12 "
     "has 1 x 40 points in the domain; a zero or charge count needs a rectangle of at "
     "least 2 x 2"),
    # refused by the config, before any worker thread is started
    (["verify", "charge", "--window", "hermite:1", "-n", "2", "--threads", "100000"],
     "threads = 100000: at most 64 worker threads"),
    # a poisson density whose expected count no array may hold, refused before any draw
    (["verify", "intensity", "--kernel", "@{tmp}/poisson-1e30.json", "-n", "2"],
     "poisson density 1e+30 on domain (0, 8, 0, 8) expects 6.4e+31 points a realization"),
    (["verify", "intensity", "--kernel", "@{tmp}/poisson-1e9.json", "-n", "2",
      "--domain=0,4,0,4"],
     "poisson density 1e+09 on domain (0, 4, 0, 4) expects 1.6e+10 points a realization"),
    # dt is checked by the config for every source, not only by an STFT plan
    (["verify", "intensity", "--kernel", "poisson", "--dt", "-1", "-n", "2",
      "--domain=-3,3,-3,3"], "dt -1.0 must be None or positive and finite"),
    (["verify", "intensity", "--kernel", "gef-series", "--dt", "nan", "-n", "2"],
     "dt nan must be None or positive and finite"),
    # intensity reads one source and names both flags when given two
    (["intensity", "--window", "hermite:1", "--kernel", "gef"],
     "--window hermite:1 and --kernel gef name two sources"),
    (["intensity"], "intensity needs a source: give --window or --kernel"),
], ids=["custom-short-jet", "unknown-window", "bad-gaussian-param",
        "laguerre-without-index", "polyentire-without-kind", "polyentire-bad-kind",
        "polyentire-order-too-high", "simulate-without-window", "zero-spacing",
        "zero-dt", "grid-below-16x16", "gwhf-grid-below-16x16", "series-negative-spacing",
        "series-radius-beyond-limit",
        "one-realization", "simulate-negative-seed", "verify-negative-seed",
        "invariance-negative-seed", "radii-not-numbers", "radius-zero", "radius-repeated",
        "radii-one-label", "no-default-radius-fits",
        "plot-nan-position", "stft-infinite-domain", "series-infinite-domain",
        "gwhf-infinite-domain", "poisson-empty-domain", "poisson-nan-domain",
        "invariance-no-draws", "invariance-negative-draws", "verify-kernel-gef",
        "verify-without-source",
        "series-stft-plane", "polyentire-stft-plane", "series-with-window",
        "gef-series-with-window", "polyentire-with-window", "series-infinite-spacing",
        "verify-window-and-kernel", "series-grid-too-large", "stft-grid-too-large",
        "stft-record-too-long", "stft-frame-overflow", "stft-record-overflow",
        "stft-frame-underflow", "series-grid-overflow", "verify-domain-overflow",
        "gwhf-plane-grid-too-large", "gaussian-nan-sigma", "gaussian-nan-phase",
        "mixture-nan-coefficient", "mixture-inf-coefficient",
        "charge-interior-without-rectangle", "gwhf-charge-interior-without-rectangle",
        "gwhf-intensity-interior-without-rectangle", "threads-above-the-ceiling",
        "poisson-density-beyond-any-draw", "poisson-density-beyond-the-element-cap",
        "poisson-negative-dt", "series-nan-dt", "intensity-window-and-kernel",
        "intensity-without-source"])
def test_cli_error_paths(capsys, tmp_path, argv, names):
    for density in ("1e9", "1e30"):  # the records the poisson cases read
        (tmp_path / f"poisson-{density}.json").write_text(
            json.dumps({"family": "poisson", "density": float(density)}))
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    if argv[0] == "simulate":
        argv = argv + ["--out", str(tmp_path)]
    if argv[0] == "plot":
        csv_path = tmp_path / "z.csv"
        csv_path.write_text("x,y,charge,winding,refined,jacobian_sign,degenerate\n"
                            "nan,0.5,1,1,1,1,0\n")
        argv = argv + ["--zeros", str(csv_path), "--out", str(tmp_path / "z.svg")]
    code, _, err = run_cli(capsys, *argv)
    assert code == 2 and "error" in err
    assert err.startswith("error:") and names in err
    with pytest.raises(SystemExit):
        cli.main(["verify", "nope"])


def test_zeros_refuses_damaged_grid(tmp_path, capsys):
    out_dir = str(tmp_path / "run")
    run_cli(capsys, "simulate", "--window", "hermite:0", "--domain", "0,2,0,2",
            "--out", out_dir)
    blob = Path(out_dir, "field.gwhf").read_bytes()
    path = tmp_path / "damaged.gwhf"
    # truncated payload, header and magic, a file that is no container, and
    # a NaN sample in an intact container
    nan = np.array([complex(np.nan, 0.0)], dtype="<c8").tobytes()
    for damaged in (blob[:-8], blob[:40], blob[:3], b"x,y,re,im\n", blob[:-8] + nan):
        path.write_bytes(damaged)
        code, _, err = run_cli(capsys, "zeros", "--grid", str(path),
                               "--out", str(tmp_path / "z.csv"))
        assert code == 2
        assert err.startswith("error:") and str(path) in err


def _pre_interior_layout(header):
    # containers written before the interior was a header key hold it in
    # meta, beside a margin
    header["meta"]["interior"] = header.pop("interior")
    header["margin"] = 0.0


@pytest.mark.parametrize("edit, names", [
    (lambda header: header.update(spacing=math.inf), "spacing inf"),
    (lambda header: header.update(origin=[math.nan, 0.0]), "origin (nan"),
    (lambda header: header.update(interior=[math.nan, 2, 0, 2]), "domain (nan, 2, 0, 2)"),
    (lambda header: header.update(interior=[2, 0, 0, 2]), "domain (2, 0, 0, 2)"),
    (lambda header: header.update(interior="abc"), "domain 'abc'"),
    (_pre_interior_layout, "KeyError: 'interior'"),
], ids=["infinite-spacing", "nan-origin", "nan-interior", "empty-interior",
        "interior-not-numbers", "no-interior-key"])
def test_zeros_refuses_non_finite_geometry(tmp_path, capsys, edit, names):
    path = _edited_container(tmp_path, capsys, edit)
    code, _, err = run_cli(capsys, "zeros", "--grid", str(path),
                           "--out", str(tmp_path / "z.csv"))
    assert code == 2
    assert err.startswith("error:") and str(path) in err and names in err


def _edited_container(tmp_path, capsys, edit):
    """A hermite:1 container of (0, 2)^2 whose JSON header edit() changed."""
    out_dir = str(tmp_path / "run")
    run_cli(capsys, "simulate", "--window", "hermite:1", "--domain", "0,2,0,2",
            "--out", out_dir)
    blob = Path(out_dir, "field.gwhf").read_bytes()
    # magic line, little-endian header length, JSON header, payload
    start = blob.index(b"\n") + 1
    hlen = int.from_bytes(blob[start:start + 8], "little")
    header = json.loads(blob[start + 8:start + 8 + hlen])
    edit(header)
    edited = json.dumps(header).encode()
    path = tmp_path / "edited.gwhf"
    path.write_bytes(blob[:start] + len(edited).to_bytes(8, "little") + edited
                     + blob[start + 8 + hlen:])
    return path


def test_zeros_refuses_an_interior_the_grid_does_not_meet(tmp_path, capsys):
    # a well-formed container whose interior lies far beyond its samples:
    # an error, not an empty CSV
    path = _edited_container(tmp_path, capsys,
                             lambda header: header.update(interior=[100, 101, 100, 101]))
    csv = tmp_path / "z.csv"
    code, _, err = run_cli(capsys, "zeros", "--grid", str(path), "--out", str(csv))
    assert code == 2 and not csv.exists()
    assert err.startswith("error: interior (100, 101, 100, 101) does not meet the grid, "
                          "whose extent is (-0.2075, ")


@pytest.mark.parametrize("name", ["kernels", "windows", "simulate", "zeros", "mc",
                                  "quadrature"])
def test_public_names_exist(name):
    module = importlib.import_module(f"gwhf.{name}")
    assert module.__all__
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_help_smoke(capsys):
    for sub in ("intensity", "variance-asymptote", "simulate", "zeros",
                "verify", "plot"):
        with pytest.raises(SystemExit) as exc:
            cli.main([sub, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out


@pytest.mark.parametrize("kernel, max_residual, limit", [
    ("gef", 3.396172232328354e-13, 0.36846874001128194),
    ("laguerre:1", 1.3522516439934407e-13, 0.9582132577207542),
    ("laguerre:2", 3.446132268436486e-13, 1.408710250878305),
])
def test_closed_form_reports_keep_their_values(capsys, kernel, max_residual, limit):
    # the oracle's worst residual and the asymptote, frozen to the last bit
    # from the scalar oracle loop and the profile's separate rules
    code, out, _ = run_cli(capsys, "verify", "tau2-oracle", "--kernel", kernel)
    assert code == 0 and json.loads(out)["max_residual"] == max_residual
    code, out, _ = run_cli(capsys, "variance-asymptote", "--kernel", kernel)
    assert code == 0 and json.loads(out)["var_per_radius_limit"] == limit


_SHARED_PARSER_CALLS = [
    ["simulate", "--window", "hermite:0", "--domain", "0,2,0,2", "--spacing", "0.25"],
    ["intensity", "--window", "hermite:1"],
    ["variance-asymptote", "--kernel", "laguerre:1"],
    ["verify", "tau2-oracle", "--kernel", "gef"],
    ["intensity", "--kernel", "laguerre-avg:3"],
]


def test_main_builds_its_parser_once(capsys, monkeypatch):
    builds = []
    build = cli.build_parser

    def counted():
        builds.append(1)
        return build()
    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    try:
        for argv in _SHARED_PARSER_CALLS[1:]:
            assert run_cli(capsys, *argv)[0] == 0
    finally:
        cli._parser.cache_clear()
    assert len(builds) == 1


def test_shared_parser_leaks_no_values_between_calls(tmp_path, capsys, monkeypatch):
    # each call alone, on a parser of its own, then all back to back on
    # one parser; simulate writes to its default --out, which no later
    # call may inherit
    def outputs(cwd, fresh):
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        got = []
        for argv in _SHARED_PARSER_CALLS:
            if fresh:
                monkeypatch.setattr(cli, "_parser", functools.cache(cli.build_parser))
            got.append(run_cli(capsys, *argv))
        return got, sorted(p.relative_to(cwd).as_posix() for p in cwd.rglob("*"))

    alone = outputs(tmp_path / "alone", fresh=True)
    shared = outputs(tmp_path / "shared", fresh=False)
    assert shared == alone
    assert alone[1] == ["out", "out/field.gwhf", "out/field.json"]
    assert [code for code, _, _ in alone[0]] == [0] * len(_SHARED_PARSER_CALLS)


def test_variance_asymptote_rejects_bare_jet(capsys):
    code, _, err = run_cli(capsys, "variance-asymptote", "--kernel",
                           "custom:0;0;-1;-1;0")
    assert code == 2
    assert "radial kernel" in err


def test_verify_charge_and_variance_cli(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "verify", "charge", "--window", "hermite:1",
                           "-n", "10", "--domain", "0,6,0,6")
    assert code == 0
    assert json.loads(out)["quantity"] == "charge_density"
    code, out, err = run_cli(capsys, "verify", "charge-variance",
                             "--kernel", "gef-series",
                             "--domain=-5,5,-5,5", "--spacing", "0.1",
                             "-n", "120", "--radii", "1,2,3,4",
                             "--out", str(tmp_path))
    assert code == 0
    assert "growth ratio" in err
    assert (tmp_path / "charge_variance.json").exists()


@pytest.mark.parametrize("radii, n", [("1,2", "2"), ("0.05,0.1", "3")])
def test_verify_charge_variance_fails_on_a_radius_that_never_varied(capsys, radii, n):
    # every realization has the same charge in the middle disk, here the
    # first of two: there is no growth ratio to take, so the run fails
    # instead of dividing by zero
    code, out, err = run_cli(capsys, "verify", "charge-variance", "--kernel", "series",
                             "--domain=-3,3,-3,3", "--spacing", "0.1", "--radii", radii,
                             "-n", n, "--seed", "1")
    assert code == 1
    mid, top = radii.split(",")
    assert f"growth ratio undefined (zero variance at R={mid}) (limit 2.83) FAIL" in err
    items = json.loads(out)["items"]
    assert [it["label"] for it in items] == [f"R={mid}", f"R={top}"]
    assert items[0]["empirical"] == 0.0


@pytest.mark.parametrize("kernel", ["poisson", "gef-series"])
def test_verify_charge_variance_fails_with_one_radius(capsys, kernel):
    # one radius would be compared with itself, a ratio of 1 against the
    # limit 1: no growth is measured, so the run fails whatever the band says
    code, out, err = run_cli(capsys, "verify", "charge-variance", "--kernel", kernel,
                             "--radii", "3", "-n", "100", "--seed", "1")
    assert code == 1
    assert err.strip().endswith("growth ratio undefined (one radius) (limit 1.00) FAIL"), err
    assert [it["label"] for it in json.loads(out)["items"]] == ["R=3"]


@pytest.mark.parametrize("kernel, code", [("poisson", 1), ("gef-series", None),
                                          ("polyentire:2:pure", None)])
@pytest.mark.parametrize("seed", ["1", "2", "3"])
def test_verify_charge_variance_growth_fails_an_area_law(capsys, kernel, code, seed):
    # the default radii 1 .. 4 compare Var(4) with Var(2) against (4/2)^1.5:
    # a Poisson control's variance grows like the area (ratio 4) and fails,
    # a hyperuniform one's like the perimeter (ratio 2) and passes
    got, _, err = run_cli(capsys, "verify", "charge-variance", "--kernel", kernel,
                          "-n", "200", "--seed", seed)
    growth = re.search(r"growth ratio ([\d.]+) \(limit 2\.83\) (ok|FAIL)$", err.strip())
    assert growth, err
    if code is not None:
        assert got == code and growth[2] == "FAIL" and float(growth[1]) > 2.83
    else:
        assert growth[2] == "ok" and float(growth[1]) <= 2.83


@pytest.mark.parametrize("kernel", ["gef-series", "polyentire:2:pure"])
def test_verify_charge_variance_default_radii_fit_default_domain(capsys, kernel):
    # the default domain 0,8,0,8 holds disks of radius 1 to 4 about its centre,
    # in the gwhf plane too, whose stft-plane preimage does not round-trip exactly
    code, out, err = run_cli(capsys, "verify", "charge-variance", "--kernel", kernel,
                             "-n", "10")
    assert code != 2, err
    assert [it["label"] for it in json.loads(out)["items"]] == \
        ["R=1", "R=2", "R=3", "R=4", "fit-slope"]


def test_simulate_series_and_polyentire_cli(tmp_path, capsys):
    out_dir = str(tmp_path / "series")
    code, out, _ = run_cli(capsys, "simulate", "--simulator", "series",
                           "--domain=-3,3,-3,3", "--spacing", "0.1",
                           "--seed", "5", "--out", out_dir)
    assert code == 0 and json.loads(out)["plane"] == "gwhf"
    out_dir = str(tmp_path / "poly")
    code, out, _ = run_cli(capsys, "simulate", "--simulator", "polyentire:2:pure",
                           "--domain=-3,3,-3,3", "--spacing", "0.1",
                           "--seed", "5", "--out", out_dir)
    assert code == 0 and json.loads(out)["plane"] == "gwhf"
    out_dir = str(tmp_path / "gwhfplane")
    code, out, _ = run_cli(capsys, "simulate", "--window", "hermite:0",
                           "--plane", "gwhf", "--domain", "0,4,0,4",
                           "--seed", "5", "--out", out_dir)
    assert code == 0 and json.loads(out)["plane"] == "gwhf"


def test_source_records_from_json_files(tmp_path, capsys):
    # --kernel and --simulator take a source record from @file.json: the same
    # report and the same container as the text form
    path = tmp_path / "src.json"
    path.write_text(json.dumps({"family": "polyentire", "q": 2, "kind": "full"}))
    outs = []
    for source in ("polyentire:2:full", f"@{path}"):
        out_dir = tmp_path / f"run{len(outs)}"
        code, _, _ = run_cli(capsys, "verify", "charge", "--kernel", source, "-n", "3",
                             "--domain=-2,2,-2,2", "--spacing", "0.125", "--out", str(out_dir))
        assert code != 2
        outs.append((out_dir / "charge.json").read_bytes())
        code, _, _ = run_cli(capsys, "simulate", "--simulator", source, "--domain=-2,2,-2,2",
                             "--spacing", "0.125", "--out", str(out_dir))
        assert code == 0
        outs.append((out_dir / "field.gwhf").read_bytes())
    assert outs[0] == outs[2] and outs[1] == outs[3]
    # a window record read from a file keeps its own plane; --plane may not change it
    path.write_text(json.dumps({"family": "window", "window": "hermite:1", "plane": "gwhf"}))
    code, _, err = run_cli(capsys, "simulate", "--simulator", f"@{path}", "--plane", "stft",
                           "--out", str(tmp_path / "sim"))
    assert code == 2
    assert "draws gwhf-plane grids only; --plane stft needs a --window" in err


def test_simulate_window_in_the_gwhf_plane_reads_the_domain_there(tmp_path, capsys):
    out_dir = str(tmp_path / "run")
    code, _, _ = run_cli(capsys, "simulate", "--window", "hermite:1", "--plane", "gwhf",
                         "--domain=-3,3,-3,3", "--seed", "5", "--out", out_dir)
    assert code == 0
    saved = load_grid(os.path.join(out_dir, "field.gwhf"))
    grid = FieldSource({"family": "window", "window": "hermite:1", "plane": "gwhf"},
                       (-3, 3, -3, 3), 1 / 16, 1 / 64).realize(5)
    assert np.array_equal(saved.values, grid.values.astype(np.complex64))
    assert (saved.plane, saved.origin, saved.spacing, saved.interior, saved.meta) == \
        (grid.plane, grid.origin, grid.spacing, grid.interior, grid.meta)
