"""Monte Carlo verification harness.

Runs batches of field realizations, extracts charged zeros, and compares
empirical statistics (zero density, signed charge density, charge variance
in growing disks) against the closed-form predictions.  Every realization
draws from a counter-based stream keyed by (seed, realization, component),
so reports are deterministic and independent of the thread count; the
per-realization statistics are stored and reduced in fixed order.

The field source of the last geometry (source spec, domain, spacing, dt)
is kept in a single-entry cache, so repeated calls on one geometry
build no plan and compute no theory value again.  The Poisson control is
built afresh each call.
"""
from __future__ import annotations

import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterator

import numpy as np

from .errors import DomainError, GwhfError, ParameterError
from .kernels import DEFAULT_CONVENTION, _check_convention
from .simulate import (FieldSource, SeriesPlan, _check_domain, _is_number, source_from_spec,
                       stream)
from .windows import Window
from .zeros import circle_charges, detect_zeros

__all__ = ["McConfig", "McItem", "McReport",
           "estimate_intensity", "estimate_charge_intensity",
           "estimate_charge_variance"]


@dataclass(frozen=True)
class McConfig:
    """One verification run: a field source plus sampling parameters.

    source is any spec that simulate.source_from_spec takes, the poisson
    control included, and is kept as its checked record, so the report
    config names a window by its label whichever form it came in.
    """
    source: dict | str
    domain: tuple[float, float, float, float]
    spacing: float
    n_realizations: int
    seed: int
    dt: float | None = None
    radii: tuple[float, ...] = ()
    threads: int = 1
    convention: str = DEFAULT_CONVENTION

    def __post_init__(self):
        for name in ("n_realizations", "seed", "threads"):
            value = getattr(self, name)
            if not _is_number(value, (int, np.integer)):
                raise ParameterError(f"{name} = {value!r} must be an integer")
        if self.n_realizations < 2:
            raise ParameterError(f"n_realizations = {self.n_realizations}: "
                                 "need at least 2 realizations")
        if any(b <= a for a, b in zip(self.radii, self.radii[1:])):
            raise ParameterError(f"radii {list(self.radii)} must be strictly increasing")
        if not all(r > 0 for r in self.radii):
            raise ParameterError(f"radii {list(self.radii)} must be positive")
        if self.threads < 1:
            raise ParameterError(f"threads = {self.threads}: need at least 1 worker thread")
        _check_convention(self.convention)
        object.__setattr__(self, "source", source_from_spec(self.source))

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

    charge_density, plan = 0.0, None

    def __init__(self, cfg: McConfig):
        self.rate = float(cfg.source.get("density", 1.0 / math.pi))
        self.interior = _check_domain(cfg.domain)
        self.notes = ["poisson control: uniform points, i.i.d. +-1 charges"]

    def density(self, convention: str = DEFAULT_CONVENTION) -> float:
        return self.rate

    def points(self, seed: int, r: int) -> tuple[np.ndarray, np.ndarray]:
        rng = stream(seed, r, 0)
        x0, x1, y0, y1 = self.interior
        n = int(rng.poisson(self.rate * ((x1 - x0) * (y1 - y0))))
        xy = rng.uniform(size=(n, 2))
        pos = (x0 + (x1 - x0) * xy[:, 0]) + 1j * (y0 + (y1 - y0) * xy[:, 1])
        return pos, np.where(rng.uniform(size=n) < 0.5, 1, -1)


def _source(cfg: McConfig) -> FieldSource | _PoissonControl:
    """The field source of cfg's geometry, the cached one when the last call
    had the same geometry.  Threads racing on the cache at worst build twice."""
    if cfg.source["family"] == "poisson":
        return _PoissonControl(cfg)
    return _field_source(tuple(sorted(cfg.source.items())), tuple(cfg.domain),
                         cfg.spacing, cfg.dt)


# a Window in the spec is a key by its fields, whose rules compare by
# identity, so two windows built apart get two sources
@lru_cache(maxsize=1)
def _field_source(spec: tuple, domain: tuple, spacing: float, dt: float | None) -> FieldSource:
    return FieldSource(dict(spec), domain, spacing, dt)


# most realizations one worker simulates together; reports do not depend on it
_BLOCK = 8


def _block_points(source: FieldSource | _PoissonControl, cfg: McConfig,
                  rs: range) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Positions and charges of the non-degenerate zeros of each realization
    in rs, in order.  The grids of rs are detected in one call, which drops
    each grid once its flagged cells are gathered, and its zero set is
    split by realization."""
    if isinstance(source, _PoissonControl):
        return (source.points(cfg.seed, r) for r in rs)
    zs = detect_zeros(source.realize_batch(cfg.seed, rs))
    live = ~zs.degenerate
    cuts = np.searchsorted(zs.realization[live], np.arange(1, len(rs)))
    return zip(np.split(zs.position[live], cuts), np.split(zs.charge[live], cuts))


def _disk_fits(box: tuple[float, float, float, float], radius: float) -> bool:
    """Whether the closed disk of this radius about the centre of the
    rectangle box = (x0, x1, y0, y1) lies inside it."""
    x0, x1, y0, y1 = box
    cx, cy = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
    return x0 <= cx - radius and cx + radius <= x1 and y0 <= cy - radius and cy + radius <= y1


def _map_realizations(cfg: McConfig, values_of) -> list:
    """The values of all realizations in order whatever the thread count,
    values_of(rs) iterating over those of a contiguous block rs of at most
    _BLOCK, fewer when that would leave a thread without a block.  A
    GwhfError is re-raised as its own class, naming the seed and the
    realization: the one its `realization` names, as detect_zeros sets it
    for a block, else the one whose value was due."""
    n = cfg.n_realizations
    size = min(_BLOCK, -(-n // cfg.threads))

    def block(lo: int) -> list:
        rs, out = range(lo, min(lo + size, n)), []
        try:
            for value in values_of(rs):
                out.append(value)
        except GwhfError as exc:
            r = rs[len(out) if exc.realization is None else exc.realization]
            raise type(exc)(f"seed {cfg.seed} realization {r}: {exc}") from exc
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
    values = np.array(_map_realizations(
        cfg, lambda rs: (stat(*pc) for pc in _block_points(source, cfg, rs))), dtype=float)
    mean = float(np.mean(values)) / area
    se = float(np.std(values, ddof=1) / math.sqrt(len(values))) / area
    item = McItem(label=quantity, empirical=mean, se=se, theory=theory)
    return McReport(quantity=quantity, items=[item], config=cfg.as_dict(),
                    elapsed_s=time.time() - t0, notes=list(source.notes))


def estimate_intensity(cfg: McConfig) -> McReport:
    """Mean interior zero count per unit area, against the closed formula."""
    return _per_area(cfg, "density", lambda pos, chg: chg.size,
                     lambda source: source.density(cfg.convention))


def estimate_charge_intensity(cfg: McConfig) -> McReport:
    """Mean signed charge per unit area; theory is kernel-independent."""
    return _per_area(cfg, "charge_density", lambda pos, chg: int(chg.sum()),
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
    averaging would correlate samples and bias the standard errors); a
    series source takes each disk's charge as its field's winding on the
    circle, with no grid; when the disks are centred on the origin the
    circles' starting values come from SeriesPlan.circle_values, one
    inverse FFT per circle, and only arc midpoints from the evaluator.  The
    report also carries a weighted linear fit of Var against R over the
    upper half of the radii, unless one of them has a zero standard error,
    which a note then names.  Theory per radius is
    the large-R limit of Var/R from quadrature of the kernel profile.
    """
    t0 = time.time()
    if not cfg.radii:
        raise ParameterError("charge variance needs a radii list (radii is empty)")
    source = _source(cfg)
    notes = list(source.notes)
    x0, x1, y0, y1 = source.interior
    center = complex(0.5 * (x0 + x1), 0.5 * (y0 + y1))
    if not _disk_fits(source.interior, max(cfg.radii)):
        raise DomainError(f"radius {max(cfg.radii)} disk does not fit interior {source.interior}")
    if cfg.n_realizations < 100:
        notes.append("fewer than 100 realizations: variance standard errors are wide")

    radii = list(cfg.radii)
    if isinstance(source, _PoissonControl):
        # Var[charge in B_R] = density * pi R^2 for i.i.d. signs, so Var/R grows
        theory_var = [source.rate * math.pi * R for R in radii]
    else:
        theory_var = [source.variance_asymptote] * len(radii)

    def disk_charges(rs: range) -> Iterator:
        plan = source.plan
        if isinstance(plan, SeriesPlan):
            coeffs = plan.coefficients([stream(cfg.seed, r, 0) for r in rs])
            start = None if center else (lambda rr, counts: plan.circle_values(coeffs, rr, counts))
            return circle_charges(lambda z: plan.evaluate(coeffs, z), center, radii,
                                  cfg.spacing, start)
        dists = ((np.abs(pos - center), chg) for pos, chg in _block_points(source, cfg, rs))
        return ([int(chg[dist <= R].sum()) for R in radii] for dist, chg in dists)

    charges = np.array(_map_realizations(cfg, disk_charges), dtype=float)

    items = []
    variances = []
    ses = []
    for k, R in enumerate(radii):
        v = float(np.var(charges[:, k], ddof=1))
        se = _variance_se(charges[:, k])
        variances.append(v)
        ses.append(se)
        items.append(McItem(label=f"R={R:g}", empirical=v / R, se=se / R,
                            theory=theory_var[k]))

    # weighted straight-line fit Var ~ a + b R over the upper half of the
    # radii; a radius whose charge never varied has no weight to give it
    upper = [k for k in range(len(radii)) if radii[k] >= radii[len(radii) // 2]]
    flat = [radii[k] for k in upper if ses[k] == 0.0]
    if len(upper) >= 2 and flat:
        notes.append("fit-slope left out: zero standard error at R="
                     + ", ".join(f"{R:g}" for R in flat))
    elif len(upper) >= 2:
        # weights 1/se make polyfit minimize sum ((Var - a - b R) / se)^2,
        # whose unscaled covariance is inv(A^T diag(1/se^2) A)
        coef, cov = np.polyfit([radii[k] for k in upper], [variances[k] for k in upper], 1,
                               w=[1.0 / ses[k] for k in upper], cov="unscaled")
        items.append(McItem(label="fit-slope", empirical=float(coef[0]),
                            se=math.sqrt(max(cov[0, 0], 0.0)), theory=theory_var[-1]))
    return McReport(quantity="charge_variance", items=items, config=cfg.as_dict(),
                    elapsed_s=time.time() - t0, notes=notes)
