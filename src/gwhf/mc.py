"""Monte Carlo verification harness.

Runs batches of field realizations, extracts charged zeros, and compares
empirical statistics (zero density, signed charge density, charge variance
in growing disks) against the closed-form predictions.  Every realization
draws from a counter-based stream keyed by (seed, realization, component),
so reports are deterministic and independent of the thread count; the
per-realization statistics are stored and reduced in fixed order.
"""
from __future__ import annotations

import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .errors import DomainError, GwhfError, InvalidKernelError, ParameterError
from .kernels import DEFAULT_CONVENTION, _check_convention, variance_asymptote
from .simulate import FieldSource, _check_domain, stream
from .windows import Window, window_from_spec
from .zeros import ChargedZero, detect_zeros, disk_stats

__all__ = ["McConfig", "McItem", "McReport",
           "estimate_intensity", "estimate_charge_intensity",
           "estimate_charge_variance"]


@dataclass(frozen=True)
class McConfig:
    """One verification run: a field source plus sampling parameters.

    source families: those of simulate.FieldSource, plus
      {"family": "poisson", "density": float}   (control point process)
    A window given as a spec (JSON record or text) is built here, so the
    report config names it by its label whichever form it came in.
    """
    source: dict
    domain: tuple[float, float, float, float]
    spacing: float
    n_realizations: int
    seed: int
    dt: float | None = None
    radii: tuple[float, ...] = ()
    margin: float | None = None
    threads: int = 1
    convention: str = DEFAULT_CONVENTION

    def __post_init__(self):
        if self.n_realizations < 2:
            raise ParameterError(f"n_realizations = {self.n_realizations}: "
                                 "need at least 2 realizations")
        if self.radii and list(self.radii) != sorted(self.radii):
            raise ParameterError(f"radii {list(self.radii)} must be sorted ascending")
        if not all(r > 0 for r in self.radii):
            raise ParameterError(f"radii {list(self.radii)} must be positive")
        if self.threads < 1:
            raise ParameterError(f"threads = {self.threads}: need at least 1 worker thread")
        _check_convention(self.convention)
        win = self.source.get("window")
        if win is not None and not isinstance(win, Window):
            object.__setattr__(self, "source", dict(self.source, window=window_from_spec(win)))

    def as_dict(self) -> dict:
        source = {k: (v.label if isinstance(v, Window) else v)
                  for k, v in self.source.items()}
        return {
            "source": source,
            "domain": list(self.domain),
            "spacing": self.spacing,
            "dt": self.dt,
            "n_realizations": self.n_realizations,
            "seed": self.seed,
            "radii": list(self.radii),
            "margin": self.margin,
            "convention": self.convention,
        }


@dataclass(frozen=True)
class McItem:
    label: str
    empirical: float
    se: float
    theory: float

    @property
    def z(self) -> float:
        if self.se <= 0:
            return math.inf if self.empirical != self.theory else 0.0
        return (self.empirical - self.theory) / self.se


@dataclass(frozen=True)
class McReport:
    quantity: str
    items: list[McItem]
    config: dict
    elapsed_s: float
    notes: list[str] = field(default_factory=list)

    @property
    def max_abs_z(self) -> float:
        return max((abs(it.z) for it in self.items), default=0.0)

    @property
    def passes(self) -> bool:
        return self.max_abs_z <= 5.0

    def to_dict(self, include_elapsed: bool = True) -> dict:
        return {
            "quantity": self.quantity,
            "items": [{"label": it.label, "empirical": it.empirical,
                       "se": it.se, "theory": it.theory, "z": it.z}
                      for it in self.items],
            "config": self.config,
            "elapsed_s": self.elapsed_s if include_elapsed else None,
            "notes": self.notes,
        }

    def to_json(self, include_elapsed: bool = True) -> str:
        return json.dumps(self.to_dict(include_elapsed), indent=2, sort_keys=True)

    def to_csv(self) -> str:
        lines = ["quantity,label,empirical,se,theory,z"]
        for it in self.items:
            lines.append(f"{self.quantity},{it.label},{it.empirical:.9g},"
                         f"{it.se:.9g},{it.theory:.9g},{it.z:.9g}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Sources
# ---------------------------------------------------------------------------

class _PoissonControl:
    """Uniform points with i.i.d. +-1 charges: the one source with no grid."""

    kernel, charge_density = None, 0.0

    def __init__(self, cfg: McConfig):
        self.rate = float(cfg.source.get("density", 1.0 / math.pi))
        if not (math.isfinite(self.rate) and self.rate > 0):
            raise ParameterError(f"poisson density {self.rate} must be finite and positive")
        self.interior = _check_domain(cfg.domain)
        self.notes = ["poisson control: uniform points, i.i.d. +-1 charges"]

    def density(self, convention: str = DEFAULT_CONVENTION) -> float:
        return self.rate

    def zeros(self, seed: int, r: int) -> list[ChargedZero]:
        rng = stream(seed, r, 0)
        x0, x1, y0, y1 = self.interior
        n = rng.poisson(self.rate * ((x1 - x0) * (y1 - y0)))
        xy = rng.uniform(size=(int(n), 2))
        signs = np.where(rng.uniform(size=int(n)) < 0.5, 1, -1)
        return [ChargedZero(position=complex(x0 + (x1 - x0) * a, y0 + (y1 - y0) * b),
                            charge=int(s), refined=True,
                            jacobian_sign=int(s))
                for (a, b), s in zip(xy, signs)]


def _source(cfg: McConfig) -> FieldSource | _PoissonControl:
    if cfg.source.get("family") == "poisson":
        return _PoissonControl(cfg)
    return FieldSource(cfg.source, cfg.domain, cfg.spacing, cfg.dt, cfg.margin)


# most realizations one worker simulates together; reports do not depend on it
_BLOCK = 8


def _block_zeros(source: FieldSource | _PoissonControl, cfg: McConfig,
                 rs: range) -> Iterator[list[ChargedZero]]:
    """Non-degenerate charged zeros of each realization in rs, in order.
    map drops each grid once its zeros are found, before the next is made."""
    if isinstance(source, _PoissonControl):
        return (source.zeros(cfg.seed, r) for r in rs)
    return map(lambda grid: [z for z in detect_zeros(grid) if not z.degenerate],
               source.realize_batch(cfg.seed, rs))


def _map_realizations(cfg: McConfig, source: FieldSource | _PoissonControl, stat) -> list:
    """[stat(zeros of r) for each realization r], in order whatever the thread
    count.  Each worker takes a contiguous block of at most _BLOCK
    realizations, fewer when that would leave a thread without a block.  A
    GwhfError is re-raised as its own class, naming the seed and realization."""
    n = cfg.n_realizations
    size = min(_BLOCK, -(-n // cfg.threads))

    def block(lo: int) -> list:
        rs, out = range(lo, min(lo + size, n)), []
        try:
            for zs in _block_zeros(source, cfg, rs):
                out.append(stat(zs))
        except GwhfError as exc:
            raise type(exc)(f"seed {cfg.seed} realization {rs[len(out)]}: {exc}") from exc
        return out

    starts = range(0, n, size)
    if cfg.threads == 1:
        blocks = [block(lo) for lo in starts]
    else:
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            blocks = list(pool.map(block, starts))
    return [v for b in blocks for v in b]


# ---------------------------------------------------------------------------
# Estimators
# ---------------------------------------------------------------------------

def _per_area(cfg: McConfig, quantity: str, stat, theory_of) -> McReport:
    """Mean of stat(zeros) per realization per unit area, against theory_of(source)."""
    t0 = time.time()
    source = _source(cfg)
    theory = theory_of(source)
    x0, x1, y0, y1 = source.interior
    area = (x1 - x0) * (y1 - y0)
    values = np.array(_map_realizations(cfg, source, stat), dtype=float)
    mean = float(np.mean(values)) / area
    se = float(np.std(values, ddof=1) / math.sqrt(len(values))) / area
    item = McItem(label=quantity, empirical=mean, se=se, theory=theory)
    return McReport(quantity=quantity, items=[item], config=cfg.as_dict(),
                    elapsed_s=time.time() - t0, notes=source.notes)


def estimate_intensity(cfg: McConfig) -> McReport:
    """Mean interior zero count per unit area, against the closed formula."""
    return _per_area(cfg, "density", len, lambda source: source.density(cfg.convention))


def estimate_charge_intensity(cfg: McConfig) -> McReport:
    """Mean signed charge per unit area; theory is kernel-independent."""
    return _per_area(cfg, "charge_density", lambda zs: sum(z.charge for z in zs),
                     lambda source: source.charge_density)


def _variance_se(samples: np.ndarray) -> float:
    # sampling error of the unbiased variance from the fourth moment
    n = len(samples)
    m = samples - samples.mean()
    m4 = float(np.mean(m ** 4))
    s2 = float(np.var(samples, ddof=1))
    var_of_var = (m4 - (n - 3) / (n - 1) * s2 * s2) / n
    return math.sqrt(max(var_of_var, 0.0))


def estimate_charge_variance(cfg: McConfig) -> McReport:
    """Across-realization variance of disk charge, per radius, as Var/R.

    One concentric disk per realization per radius (overlapping-disk
    averaging would correlate samples and bias the standard errors).  The
    report also carries a weighted linear fit of Var against R over the
    upper half of the radii.  Theory per radius is the large-R limit of
    Var/R from quadrature of the kernel profile.
    """
    t0 = time.time()
    if not cfg.radii:
        raise ParameterError("charge variance needs a radii list (radii is empty)")
    source = _source(cfg)
    notes = list(source.notes)
    x0, x1, y0, y1 = source.interior
    center = complex(0.5 * (x0 + x1), 0.5 * (y0 + y1))
    rmax = max(cfg.radii)
    if (center.real - rmax < x0 or center.real + rmax > x1
            or center.imag - rmax < y0 or center.imag + rmax > y1):
        raise DomainError(f"radius {rmax} disk does not fit interior {source.interior}")
    if cfg.n_realizations < 100:
        notes.append("fewer than 100 realizations: variance standard errors are wide")

    radii = list(cfg.radii)
    if isinstance(source, _PoissonControl):
        # Var[charge in B_R] = density * pi R^2 for i.i.d. signs, so Var/R grows
        theory_var = [source.rate * math.pi * R for R in radii]
    elif source.kernel is not None:
        theory_var = [variance_asymptote(source.kernel)] * len(radii)
    else:
        raise InvalidKernelError("no radial kernel available for variance theory")

    def stat(zs: list[ChargedZero]) -> list[int]:
        return [st.total_charge for st in disk_stats(zs, center, radii)]

    charges = np.array(_map_realizations(cfg, source, stat), dtype=float)

    items = []
    variances = []
    ses = []
    for k, R in enumerate(radii):
        v = float(np.var(charges[:, k], ddof=1))
        se = _variance_se(charges[:, k])
        variances.append(v)
        ses.append(max(se, 1e-300))
        items.append(McItem(label=f"R={R:g}", empirical=v / R, se=se / R,
                            theory=theory_var[k]))

    # weighted straight-line fit Var ~ a + b R over the upper half of the radii
    upper = [k for k in range(len(radii)) if radii[k] >= radii[len(radii) // 2]]
    if len(upper) >= 2:
        rr = np.array([radii[k] for k in upper])
        vv = np.array([variances[k] for k in upper])
        ww = np.array([1.0 / ses[k] ** 2 for k in upper])
        wmat = np.diag(ww)
        a_mat = np.vstack([np.ones_like(rr), rr]).T
        coef, *_ = np.linalg.lstsq(wmat @ a_mat, wmat @ vv, rcond=None)
        slope = float(coef[1])
        gram = np.linalg.inv(a_mat.T @ (ww[:, None] * a_mat))
        slope_se = math.sqrt(max(gram[1, 1], 0.0))
        items.append(McItem(label="fit-slope", empirical=slope, se=slope_se,
                            theory=theory_var[-1]))
    return McReport(quantity="charge_variance", items=items, config=cfg.as_dict(),
                    elapsed_s=time.time() - t0, notes=notes)
