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

from gwhf import cli

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


def test_python_dash_m_runs_the_cli():
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run([sys.executable, "-m", "gwhf", "--help"], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0
    assert done.stdout.startswith("usage: gwhf")


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
], ids=["custom-short-jet", "unknown-window", "bad-gaussian-param",
        "laguerre-without-index", "polyentire-without-kind", "polyentire-bad-kind",
        "polyentire-order-too-high", "simulate-without-window", "zero-spacing",
        "zero-dt", "grid-below-16x16", "gwhf-grid-below-16x16", "series-negative-spacing",
        "series-radius-beyond-limit",
        "one-realization", "simulate-negative-seed", "verify-negative-seed",
        "invariance-negative-seed", "radii-not-numbers", "radius-zero",
        "plot-nan-position", "stft-infinite-domain", "series-infinite-domain",
        "gwhf-infinite-domain", "poisson-empty-domain", "poisson-nan-domain",
        "invariance-no-draws", "invariance-negative-draws"])
def test_cli_error_paths(capsys, tmp_path, argv, names):
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
