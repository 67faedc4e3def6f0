"""Command-line front end.

Subcommands: intensity, variance-asymptote, simulate, zeros,
verify {intensity|charge|charge-variance|invariance|tau2-oracle}, plot.

All outputs are deterministic given identical inputs and seed: JSON uses
sorted keys and shortest-round-trip floats, report files omit wall time
(it goes to stderr), and the SVG writer emits fixed-format text.  The
default seed is 0xC0FFEE; pass --seed random for entropy seeding.
"""
from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import secrets
import sys

import numpy as np

from . import __version__
from .errors import GwhfError, ParameterError, PlaneError
from .kernels import (OMEGA_CONVENTIONS, RadialKernel, delta_h, i_prime,
                      jet_from_radial, kernel_from_spec, rho1, rho1_charged,
                      rho1_radial, validate_kernel, variance_asymptote,
                      wick_oracle_E)
from .mc import McConfig, McReport, _disk_fits, estimate_charge_intensity, \
    estimate_charge_variance, estimate_intensity
from .simulate import _SOURCE_NAMES, FieldSource, _check_domain, load_grid, save_grid
from .windows import (jet_from_constants, modulate, rho1_stft,
                      rho1_stft_from_constants, uncertainty_constants,
                      window_from_spec)
from .zeros import ZeroSet, detect_zeros, zeros_from_csv, zeros_to_csv

DEFAULT_SEED = 0xC0FFEE


def _parse_seed(text: str) -> int:
    if text == "random":
        return secrets.randbits(48)
    return int(text, 0)


def _parse_domain(text: str) -> tuple[float, float, float, float]:
    parts = [float(v) for v in text.split(",")]
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("domain must be x0,x1,y0,y1")
    return tuple(parts)  # type: ignore[return-value]


def _source_from_args(args) -> dict | str:
    """The source spec of simulate --simulator/--window or of verify --window/--kernel,
    unparsed but for a --window's record; a --window with another source is refused."""
    flag, name = (("--simulator", args.simulator) if hasattr(args, "simulator")
                  else ("--kernel", args.kernel))
    if args.window:
        if name not in (None, "stft"):
            raise GwhfError(f"--window {args.window} is for the stft simulator; "
                            f"{flag} {name} names another field source")
        return {"family": "window", "window": args.window}
    if name in (None, "stft"):
        raise GwhfError(f"no field source: give --window, or {flag} with @file.json "
                        f"or one of {_SOURCE_NAMES}")
    return name


def _emit_json(obj: dict, path: str | None) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    sys.stdout.write(text)
    if path:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as fh:
            fh.write(text)


def _write_report(report: McReport, out_dir: str | None, name: str) -> None:
    sys.stdout.write(report.to_json(include_elapsed=True) + "\n")
    sys.stderr.write(f"[gwhf] {name}: elapsed {report.elapsed_s:.1f} s\n")
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, f"{name}.json"), "w") as fh:
            fh.write(report.to_json(include_elapsed=False) + "\n")
        with open(os.path.join(out_dir, f"{name}.csv"), "w") as fh:
            fh.write(report.to_csv())


# ---------------------------------------------------------------------------
# intensity / variance
# ---------------------------------------------------------------------------

def _by_convention(out: dict, key: str, fn) -> None:
    """out[key] = fn("regression"), plus key_by_convention when conventions differ."""
    values = {}
    for conv in OMEGA_CONVENTIONS:
        try:
            values[conv] = fn(conv)
        except GwhfError as exc:
            values[conv] = f"invalid: {exc}"
    out[key] = values["regression"]
    if values["regression"] != values["alternate"]:
        out[f"{key}_by_convention"] = values


def _cmd_intensity(args) -> int:
    if not (args.window or args.kernel):
        raise ParameterError("intensity needs a source: give --window or --kernel")
    if args.window and args.kernel:
        raise ParameterError(f"--window {args.window} and --kernel {args.kernel} name two "
                             "sources; intensity takes one")
    out: dict = {}
    if args.window:
        g = window_from_spec(args.window)
        c = uncertainty_constants(g)
        out["window"] = g.label
        out["constants"] = {f"c{k}": v for k, v in zip(range(1, 6), c.as_tuple())}
        jet = jet_from_constants(c)
        _by_convention(out, "rho1_stft", lambda conv: rho1_stft_from_constants(c, conv))
        if isinstance(out["rho1_stft"], float):
            out["rho1"] = out["rho1_stft"] / math.pi
        out["rho1_charged_stft_plane"] = 1.0
    else:
        kern = kernel_from_spec(args.kernel)
        if isinstance(kern, RadialKernel):
            out["kernel"] = kern.label
            jet = jet_from_radial(kern)
            out["rho1"] = rho1_radial(kern)
            report = validate_kernel(kern)
            out["standing_assumptions"] = {"ok": report.ok,
                                           "violations": report.violations}
        else:
            jet = kern
            out["kernel"] = "custom-jet"
            _by_convention(out, "rho1", lambda conv: rho1(jet, conv))
    out["jet"] = list(jet.as_tuple())
    out["delta_h"] = delta_h(jet)
    out["rho1_charged"] = rho1_charged()
    _emit_json(out, args.out)
    return 0


def _cmd_variance_asymptote(args) -> int:
    kern = kernel_from_spec(args.kernel)
    if not isinstance(kern, RadialKernel):
        raise GwhfError("variance asymptote needs a radial kernel, not a bare jet")
    value = variance_asymptote(kern)
    _emit_json({"kernel": kern.label, "var_per_radius_limit": value}, args.out)
    return 0


# ---------------------------------------------------------------------------
# simulate / zeros / plot
# ---------------------------------------------------------------------------

def _cmd_simulate(args) -> int:
    spec = _source_from_args(args)
    if args.window:
        spec["plane"] = args.plane or "stft"
    source = FieldSource(spec, args.domain, args.spacing, args.dt)
    if args.plane not in (None, source.plane):
        raise PlaneError(f"the {args.simulator} simulator draws {source.plane}-plane grids "
                         f"only; --plane {args.plane} needs a --window")
    os.makedirs(args.out, exist_ok=True)
    grid = source.realize(args.seed)
    path = os.path.join(args.out, "field.gwhf")
    save_grid(grid, path)
    meta = {"path": path, "plane": grid.plane, "nx": grid.nx, "ny": grid.ny,
            "spacing": grid.spacing, "seed": args.seed,
            "origin": [grid.origin.real, grid.origin.imag]}
    _emit_json(meta, os.path.join(args.out, "field.json"))
    return 0


def _cmd_zeros(args) -> int:
    grid = load_grid(args.grid)
    zs = detect_zeros(grid, refine=not args.no_refine)
    zeros_to_csv(zs, args.out)
    sys.stderr.write(f"[gwhf] {len(zs)} zeros -> {args.out}\n")
    return 0


def _svg_scatter(zeros: ZeroSet, out_path: str) -> None:
    """Fixed-format scatter: plus marks for positive charges, circles for
    negative, grey squares for degenerate zeros (no certified charge),
    equal-aspect axes."""
    xs, ys = zeros.position.real.tolist(), zeros.position.imag.tolist()
    if xs:
        x0, x1 = math.floor(min(xs)), math.ceil(max(xs))
        y0, y1 = math.floor(min(ys)), math.ceil(max(ys))
    else:
        x0, x1, y0, y1 = 0, 1, 0, 1
    span = max(x1 - x0, y1 - y0, 1)
    size = 600.0
    pad = 40.0
    scale = size / span

    def sx(x: float) -> float:
        return pad + (x - x0) * scale

    def sy(y: float) -> float:
        return pad + (y1 - y) * scale

    w = pad * 2 + (x1 - x0) * scale
    h = pad * 2 + (y1 - y0) * scale
    m = 4.0
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w:.0f}" height="{h:.0f}" '
        f'viewBox="0 0 {w:.0f} {h:.0f}">',
        f'<rect x="{pad:.1f}" y="{pad:.1f}" width="{(x1 - x0) * scale:.1f}" '
        f'height="{(y1 - y0) * scale:.1f}" fill="white" stroke="black"/>',
    ]
    def ticks(lo: int, hi: int, step: int) -> range:
        return range(-(-lo // step) * step, hi + 1, step)

    # one tick per unit up to a span of 20; beyond, the smallest step of
    # 2, 5, 10, 20, 50, ... that leaves at most 20 ticks per axis
    step = 1
    if span > 20:
        step = next(s for e in itertools.count()
                    for s in (2 * 10 ** e, 5 * 10 ** e, 10 ** (e + 1))
                    if max(len(ticks(x0, x1, s)), len(ticks(y0, y1, s))) <= 20)
    for xt in ticks(x0, x1, step):
        parts.append(f'<text x="{sx(xt):.1f}" y="{h - pad / 4:.1f}" font-size="12" '
                     f'text-anchor="middle">{xt}</text>')
    for yt in ticks(y0, y1, step):
        parts.append(f'<text x="{pad / 4:.1f}" y="{sy(yt) + 4:.1f}" font-size="12" '
                     f'text-anchor="middle">{yt}</text>')
    for x, y, charge, degenerate in zip(xs, ys, zeros.charge.tolist(),
                                        zeros.degenerate.tolist()):
        cx, cy = sx(x), sy(y)
        if degenerate:
            parts.append(f'<rect x="{cx - m:.2f}" y="{cy - m:.2f}" width="{2 * m:.2f}" '
                         f'height="{2 * m:.2f}" stroke="#808080" stroke-width="1.5" '
                         f'fill="none"/>')
        elif charge > 0:
            parts.append(f'<path d="M {cx - m:.2f} {cy:.2f} H {cx + m:.2f} '
                         f'M {cx:.2f} {cy - m:.2f} V {cy + m:.2f}" '
                         f'stroke="#d04040" stroke-width="1.5" fill="none"/>')
        else:
            parts.append(f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="{m:.2f}" '
                         f'stroke="#4060d0" stroke-width="1.5" fill="none"/>')
    parts.append("</svg>")
    with open(out_path, "w") as fh:
        fh.write("\n".join(parts) + "\n")


def _cmd_plot(args) -> int:
    zs = zeros_from_csv(args.zeros)
    _svg_scatter(zs, args.out)
    sys.stderr.write(f"[gwhf] {len(zs)} marks -> {args.out}\n")
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _mc_config(args, radii=()) -> McConfig:
    return McConfig(source=_source_from_args(args), domain=args.domain,
                    spacing=args.spacing, dt=args.dt, n_realizations=args.n,
                    seed=args.seed, radii=tuple(radii), threads=args.threads,
                    convention=args.convention)


def _cmd_verify(args) -> int:
    if args.suite in ("intensity", "charge"):
        estimate = estimate_intensity if args.suite == "intensity" else estimate_charge_intensity
        report = estimate(_mc_config(args))
        _write_report(report, args.out, args.suite)
        return 0 if report.passes else 1
    if args.suite == "charge-variance":
        try:
            radii = None if args.radii is None else [float(v) for v in args.radii.split(",")]
        except ValueError:
            raise ParameterError(f"radii {args.radii!r} must be comma-separated numbers") from None
        if radii is None:  # whole radii up to the largest disk that fits the domain
            x0, x1, y0, y1 = domain = _check_domain(args.domain)
            radii = [float(r) for r in range(1, int(min(x1 - x0, y1 - y0)) + 1)
                     if _disk_fits(domain, r)]
            if not radii:
                raise ParameterError(f"no disk of whole radius from 1 up fits domain {domain} "
                                     "about its centre; give radii with --radii")
        report = estimate_charge_variance(_mc_config(args, radii))
        _write_report(report, args.out, "charge_variance")
        k_mid = (len(radii) - 1) // 2  # the lower middle radius, the first of two
        top, mid = report.items[len(radii) - 1], report.items[k_mid]
        r_top, r_mid = radii[-1], radii[k_mid]
        band_ok = abs(top.empirical - top.theory) <= 0.2 * top.theory
        # Var(R_top) / Var(R_mid) grows like the perimeter ratio for a
        # hyperuniform process and like the area ratio for a Poisson one;
        # the limit is their geometric mean
        limit = (r_top / r_mid) ** 1.5
        if len(radii) == 1:  # a radius compared with itself measures no growth
            ratio_ok, growth = False, "undefined (one radius)"
        elif mid.empirical > 0:
            ratio = (top.empirical * r_top) / (mid.empirical * r_mid)
            ratio_ok, growth = ratio <= limit, f"{ratio:.2f}"
        else:  # no growth to measure from a charge that never varied
            ratio_ok, growth = False, f"undefined (zero variance at {mid.label})"
        sys.stderr.write(f"[gwhf] Var/R band at R={r_top:g}: "
                         f"{'ok' if band_ok else 'FAIL'}; growth ratio {growth} "
                         f"(limit {limit:.2f}) {'ok' if ratio_ok else 'FAIL'}\n")
        return 0 if (band_ok and ratio_ok) else 1
    if args.suite == "invariance":
        g = window_from_spec(args.window or "hermite:0")
        if args.seed < 0:
            raise ParameterError(f"seed {args.seed} must be a non-negative integer")
        if args.n < 1:
            raise ParameterError(f"-n {args.n}: invariance needs at least 1 draw")
        rng = np.random.default_rng(args.seed)
        worst = 0.0
        before = rho1_stft(g, args.convention)  # the unmodulated window, once
        for _ in range(args.n):
            x0, xi0, xi1 = rng.uniform(-1.0, 1.0, size=3)
            after = rho1_stft(modulate(g, x0, xi0, xi1), args.convention)
            worst = max(worst, abs(before - after))
        _emit_json({"window": g.label, "draws": args.n,
                    "max_deviation": worst, "tolerance": 1e-7},
                   os.path.join(args.out, "invariance.json") if args.out else None)
        return 0 if worst <= 1e-7 else 1
    if args.suite == "tau2-oracle":
        kern = kernel_from_spec(args.kernel or "gef")
        if not isinstance(kern, RadialKernel):
            raise GwhfError("tau2 oracle needs a radial kernel")
        ds = np.geomspace(0.05, 8.0, 40)
        p = kern.p(ds * ds)
        residuals = np.abs(wick_oracle_E(kern, 0.0, ds.astype(complex)) / (1.0 - p * p)
                           - 1.0 - i_prime(kern, ds * ds))
        worst = functools.reduce(max, residuals.tolist(), 0.0)  # skips a NaN, as max does
        _emit_json({"kernel": kern.label, "separations": len(ds),
                    "max_residual": worst, "tolerance": 1e-8},
                   os.path.join(args.out, "tau2_oracle.json") if args.out else None)
        return 0 if worst <= 1e-8 else 1
    raise GwhfError(f"unknown verify suite {args.suite!r}")


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gwhf",
        description="Zero sets of twisted-stationary Gaussian fields: "
                    "closed-form intensities, simulation, charged zero "
                    "extraction, and Monte Carlo verification.")
    ap.add_argument("--version", action="version", version=f"gwhf {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=_parse_seed, default=DEFAULT_SEED,
                       help="64-bit seed (default 0xC0FFEE); 'random' for entropy")
        p.add_argument("--domain", type=_parse_domain, default=(0.0, 8.0, 0.0, 8.0),
                       help="x0,x1,y0,y1 rectangle")
        p.add_argument("--spacing", type=float, default=1 / 16)
        p.add_argument("--dt", type=float, default=1 / 64,
                       help="noise sample spacing for windowed transforms")
        p.add_argument("--threads", type=int, default=1,
                       help="worker threads (default 1); results do not depend on this")
        p.add_argument("--out", default=None, help="output directory")

    p = sub.add_parser("intensity",
                       help="expected zeros per unit area: rho1 = (D+2)/(2 pi sqrt(D+1)) "
                            "with D the conditional-covariance determinant; for windows "
                            "rho1_stft = (4S+1)/(4 sqrt(S)) from the moment constants; "
                            "charged intensity is 1/pi regardless of kernel")
    p.add_argument("--window", help="hermite:R | gaussian:sigma;phase;x0;xi0;xi1 | "
                                    "hermite-mixture:c0;c1;... | @spec.json")
    p.add_argument("--kernel", help="gef | laguerre:R | laguerre-avg:Q | "
                                    "custom:b10;b01;h20;h02;h11 | @spec.json")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_intensity)

    p = sub.add_parser("variance-asymptote",
                       help="large-R limit of Var[charge in B_R]/R: "
                            "(2/pi) int_0^inf 2 r^2 P'(r^2)^2/(1-P(r^2)^2) dr")
    p.add_argument("--kernel", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_variance_asymptote)

    p = sub.add_parser("simulate", help="draw one field realization and save the grid")
    common(p)
    p.add_argument("--window", help="window spec for the stft simulator")
    p.add_argument("--simulator", default="stft",
                   help="stft (needs --window), or a field source as verify --kernel takes")
    p.add_argument("--plane", default=None, choices=["stft", "gwhf"],
                   help="output plane, in which --domain and --spacing are read "
                        "(default: stft for a --window, gwhf otherwise)")
    p.set_defaults(func=_cmd_simulate, out="out")

    p = sub.add_parser("zeros", help="extract charged zeros from a saved grid "
                                     "(CSV header: x,y,charge,winding,refined,"
                                     "jacobian_sign,degenerate)")
    p.add_argument("--grid", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--no-refine", action="store_true")
    p.set_defaults(func=_cmd_zeros)

    p = sub.add_parser("verify", help="Monte Carlo verification suites; exit 0 iff gates pass")
    p.add_argument("suite", choices=["intensity", "charge", "charge-variance",
                                     "invariance", "tau2-oracle"])
    common(p)
    p.add_argument("--window", help="window spec (stft-plane suites)")
    p.add_argument("--kernel", help=f"Monte Carlo field source: {_SOURCE_NAMES} | @source.json; "
                                    "tau2-oracle takes a radial kernel spec (default gef)")
    p.add_argument("-n", type=int, default=200, help="number of realizations/draws")
    p.add_argument("--radii", help="charge-variance radii: the disk radius, or the half-side of "
                                   "the lattice square (default: 1, 2, ... that fit)")
    p.add_argument("--convention", default="regression", choices=list(OMEGA_CONVENTIONS))
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("plot", help="SVG scatter of a zeros CSV: plus marks for "
                                    "positive charges, circles for negative, "
                                    "grey squares for degenerate zeros")
    p.add_argument("--zeros", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_plot)
    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser every main call in this process shares, built on first use."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    """Run `gwhf <argv>` (sys.argv[1:] when None) and return its exit code:
    2 with an `error:` line for a GwhfError.  One parser serves every call in
    a process; parsing leaves it unchanged, so no call sees another's values."""
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except GwhfError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
