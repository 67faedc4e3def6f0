"""Monte Carlo verification harness.

Runs batches of field realizations and compares empirical statistics
against the closed-form predictions: the zero density, the signed charge
density and the charge variance in growing disks.  Every source answers
the estimators through one interface, its class picked by its family
once, where _source builds it: its area and notes_for(quantity); its
theory values density(convention), charge_density and
variance_theory(radii); and, one value per realization of a block rs,
zero_counts(seed, rs), net_charges(seed, rs) and disk_charges(seed, rs,
center, radii).  An estimator maps one of these over the realizations
(_map_realizations), reduces the values once and reports.  Every
realization draws from a counter-based stream keyed by (seed,
realization, component), so reports are deterministic and independent of
the thread count; the per-realization statistics are stored and reduced
in fixed order.

The field source of the last geometry (source spec, domain, spacing, dt)
is kept in a single-entry cache, so repeated calls on one geometry
build no plan and compute no theory value again.  The Poisson control is
built afresh each call.
"""
from __future__ import annotations

import json
import math
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Iterator

import numpy as np

from .errors import DomainError, GwhfError, ParameterError
from .kernels import DEFAULT_CONVENTION, _check_convention
from .simulate import (_MAX_ELEMENTS, FieldSource, _check_domain, _check_spacing, _is_number,
                       source_from_spec, stream)
from .windows import Window
from .zeros import cells, circle_charges, detect_zeros, rectangle_charges

__all__ = ["McConfig", "McItem", "McReport", "MAX_THREADS",
           "estimate_intensity", "estimate_charge_intensity",
           "estimate_charge_variance"]


# most threads one call may ask for: the workers of a thread count are kept
# for the process, so every count ever asked for keeps its threads alive
MAX_THREADS = 64


def _radius_label(radius: float) -> str:
    """The label of a radius's charge-variance report row."""
    return f"R={radius:g}"


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
        if self.seed < 0:
            raise ParameterError(f"seed {self.seed} must be a non-negative integer")
        _check_domain(self.domain)
        _check_spacing(self.spacing)
        if self.dt is not None and not (_is_number(self.dt) and 0 < self.dt < math.inf):
            raise ParameterError(f"dt {self.dt!r} must be None or positive and finite")
        if self.n_realizations < 2:
            raise ParameterError(f"n_realizations = {self.n_realizations}: "
                                 "need at least 2 realizations")
        if not isinstance(self.radii, (tuple, list)):
            raise ParameterError(f"radii {self.radii!r} must be a sequence of numbers")
        if not all(_is_number(r) for r in self.radii):
            raise ParameterError(f"radii {list(self.radii)} must be numbers")
        if any(b <= a for a, b in zip(self.radii, self.radii[1:])):
            raise ParameterError(f"radii {list(self.radii)} must be strictly increasing")
        if not all(r > 0 for r in self.radii):
            raise ParameterError(f"radii {list(self.radii)} must be positive")
        # rounding to 6 digits is monotone, so radii sharing a label are neighbours
        for a, b in zip(self.radii, self.radii[1:]):
            if _radius_label(a) == _radius_label(b):
                raise ParameterError(f"radii {a!r} and {b!r} would both label their report "
                                     f"rows {_radius_label(a)}: radii must differ in 6 "
                                     "significant digits")
        if self.threads < 1:
            raise ParameterError(f"threads = {self.threads}: need at least 1 worker thread")
        if self.threads > MAX_THREADS:
            raise ParameterError(f"threads = {self.threads}: at most {MAX_THREADS} worker threads")
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

def _in_disks(points: Iterable[tuple[np.ndarray, np.ndarray]], center: complex,
              radii: list[float]) -> Iterator[np.ndarray]:
    """The charge in each disk about center of each realization's points
    (positions, charges), by one broadcast comparison."""
    column = np.array(radii)[:, None]
    return (np.where(np.abs(pos - center) <= column, chg, 0).sum(axis=1) for pos, chg in points)


class _PoissonControl:
    """Uniform points with i.i.d. +-1 charges in the interior, counted there:
    the source with no field.  A density whose expected count exceeds the
    elements any one array may hold is refused."""

    charge_density = 0.0

    def __init__(self, cfg: McConfig):
        self.rate = float(cfg.source.get("density", 1.0 / math.pi))
        self.interior = x0, x1, y0, y1 = _check_domain(cfg.domain)
        self.area = (x1 - x0) * (y1 - y0)
        if not self.rate * self.area <= _MAX_ELEMENTS:
            box = ", ".join(f"{v:.6g}" for v in self.interior)
            raise ParameterError(f"poisson density {self.rate:.6g} on domain ({box}) expects "
                                 f"{self.rate * self.area:.6g} points a realization, more than "
                                 f"the {_MAX_ELEMENTS} elements any one array may hold")

    def density(self, convention: str = DEFAULT_CONVENTION) -> float:
        return self.rate

    def variance_theory(self, radii: list[float]) -> list[float]:
        # Var[charge in B_R] = density * pi R^2 for i.i.d. signs, so Var/R grows
        return [self.rate * math.pi * R for R in radii]

    def notes_for(self, quantity: str) -> list[str]:
        return ["poisson control: uniform points, i.i.d. +-1 charges"]

    def _points(self, seed: int, rs: range) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        x0, x1, y0, y1 = self.interior
        for r in rs:
            rng = stream(seed, r, 0)
            n = int(rng.poisson(self.rate * self.area))
            xy = rng.uniform(size=(n, 2))
            pos = (x0 + (x1 - x0) * xy[:, 0]) + 1j * (y0 + (y1 - y0) * xy[:, 1])
            yield pos, np.where(rng.uniform(size=n) < 0.5, 1, -1)

    def zero_counts(self, seed: int, rs: range) -> Iterator[int]:
        return (chg.size for _, chg in self._points(seed, rs))

    def net_charges(self, seed: int, rs: range) -> Iterator[int]:
        return (int(chg.sum()) for _, chg in self._points(seed, rs))

    def disk_charges(self, seed: int, rs: range, center: complex, radii: list[float]):
        return _in_disks(self._points(seed, rs), center, radii)


# what a field source's count of each report counts on its lattice rectangle,
# and from what
_COUNTED = {"density": ("flagged cells", "its plaquette windings"),
            "charge_density": ("net charge", "its four edges")}


class _Field(FieldSource):
    """A field source.  It counts on its plan's lattice rectangle, the grid
    points of its lattice in the interior, per unit of its area, from the
    rectangle's samples alone: its zero count is the number of cells whose
    plaquette winding is nonzero (zeros.cells), one per simple zero, and
    its net charge is read from the four edges by the argument principle
    (zeros.rectangle_charges).  Its disk charges are its detected zeros'.
    The zero count has a resolution bias: an opposite-signed pair in one
    cell cancels, and an edge misread by half a turn adds a pair.  Against
    the same fields read at a fine spacing, as paired differences, it was
    +0.07% for the STFT hermite:1 window at spacing 1/16 and -0.10% for
    polyentire:3:full at 0.08."""

    @property
    def area(self) -> float:
        return self.plan.rectangle.area

    def variance_theory(self, radii: list[float]) -> list[float]:
        return [self.variance_asymptote] * len(radii)

    def notes_for(self, quantity: str) -> list[str]:
        if quantity not in _COUNTED:
            return list(self.notes)
        (what, how), rect = _COUNTED[quantity], self.plan.rectangle
        box = ", ".join(f"{v:.6g}" for v in rect.box)
        return [*self.notes,
                f"{what} of the lattice rectangle ({box}): {rect.i1 - rect.i0 + 1} x "
                f"{rect.j1 - rect.j0 + 1} points at spacing {rect.spacing:.6g}, area "
                f"{rect.area:.6g}, counted from {how}"]

    def zero_counts(self, seed: int, rs: range) -> Iterator[int]:
        rect = self.plan.rectangle
        return (len(cells(rect, samples)[2]) for samples in self.rectangle_batch(seed, rs))

    def net_charges(self, seed: int, rs: range) -> np.ndarray:
        return rectangle_charges(self.plan.rectangle, *self.edges_batch(seed, rs))

    def disk_charges(self, seed: int, rs: range, center: complex, radii: list[float]):
        # one detector call a block, which drops each grid once its flagged
        # cells are gathered; the zero set is split by realization
        zs = detect_zeros(self.realize_batch(seed, rs))
        live = ~zs.degenerate
        cuts = np.searchsorted(zs.realization[live], np.arange(1, len(rs)))
        return _in_disks(zip(np.split(zs.position[live], cuts), np.split(zs.charge[live], cuts)),
                         center, radii)


class _SeriesField(_Field):
    """A series source, whose disk charge is its field's winding on the
    circle (circle_charges), with no grid.  About the origin the circles'
    starting values come from SeriesPlan.circle_values, one inverse FFT
    per circle, and only arc midpoints from the evaluator."""

    def disk_charges(self, seed: int, rs: range, center: complex, radii: list[float]):
        plan = self.plan
        coeffs = plan.draw(seed, rs)
        start = None if center else (lambda rr, counts: plan.circle_values(coeffs, rr, counts))
        return circle_charges(lambda z: plan.evaluate(coeffs, z), center, radii, plan.spacing,
                              start)


def _source(cfg: McConfig) -> _Field | _PoissonControl:
    """The source of cfg, its class picked by its family: the Poisson
    control built afresh, a field source the cached one when the last call
    had the same geometry.  Threads racing on the cache at worst build
    twice."""
    if cfg.source["family"] == "poisson":
        return _PoissonControl(cfg)
    return _field_source(tuple(sorted(cfg.source.items())), tuple(cfg.domain),
                         cfg.spacing, cfg.dt)


# a Window in the spec is a key by its fields, whose rules compare by
# identity, so two windows built apart get two sources
@lru_cache(maxsize=1)
def _field_source(spec: tuple, domain: tuple, spacing: float, dt: float | None) -> _Field:
    kind = _SeriesField if dict(spec)["family"] == "series-gef" else _Field
    return kind(dict(spec), domain, spacing, dt)


# most realizations one worker simulates together; reports do not depend on it
_BLOCK = 8


def _disk_fits(box: tuple[float, float, float, float], radius: float) -> bool:
    """Whether the closed disk of this radius about the centre of the
    rectangle box = (x0, x1, y0, y1) lies inside it."""
    x0, x1, y0, y1 = box
    cx, cy = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
    return x0 <= cx - radius and cx + radius <= x1 and y0 <= cy - radius and cy + radius <= y1


# the kept workers of each thread count: threads = N runs on the caller and
# N - 1 of them, started at the first call that needs them
_pools: dict[int, ThreadPoolExecutor] = {}
_pools_lock = threading.Lock()


def _workers(threads: int) -> ThreadPoolExecutor:
    with _pools_lock:
        if threads not in _pools:
            _pools[threads] = ThreadPoolExecutor(max_workers=threads - 1,
                                                 thread_name_prefix=f"gwhf-mc{threads}")
        return _pools[threads]


def _here(fn, arg) -> Future:
    """A finished future holding fn(arg), or what it raised."""
    done = Future()
    try:
        done.set_result(fn(arg))
    except Exception as exc:
        done.set_exception(exc)
    return done


def _map_realizations(cfg: McConfig, values_of) -> list:
    """The values of all realizations in order whatever the thread count,
    values_of(rs) iterating over those of a contiguous block rs of at most
    _BLOCK, fewer when that would leave a thread without a block.  A
    GwhfError is re-raised as its own class, naming the seed and the
    realization: the one its `realization` names, as detect_zeros sets it
    for a block, else the one whose value was due.

    At threads = N > 1 the blocks after the first are queued on the N - 1
    kept workers of N (_workers), and the calling thread runs the first
    block, then, in order, every block no worker has started.  Once a block
    fails, the call's queued blocks are cancelled and its running ones
    waited for, and the first failure in block order is raised: no block
    outlives the call."""
    n = cfg.n_realizations
    size = min(_BLOCK, -(-n // cfg.threads))
    failed = threading.Event()

    def block(lo: int) -> list:
        rs, out = range(lo, min(lo + size, n)), []
        try:
            for value in values_of(rs):
                out.append(value)
        except BaseException as exc:
            failed.set()
            if not isinstance(exc, GwhfError):
                raise
            r = rs[len(out) if exc.realization is None else exc.realization]
            raise type(exc)(f"seed {cfg.seed} realization {r}: {exc}") from exc
        return out

    starts = range(0, n, size)
    if cfg.threads == 1:
        blocks = [block(lo) for lo in starts]
    else:
        futures = [_workers(cfg.threads).submit(block, lo) for lo in starts[1:]]
        try:
            futures.insert(0, _here(block, starts[0]))
            for k in range(1, len(starts)):
                if failed.is_set():
                    break
                if futures[k].cancel():
                    futures[k] = _here(block, starts[k])
        finally:
            # a block still queued lies after the first failure in block order
            for f in futures:
                f.cancel()
            wait(futures)
        blocks = [f.result() for f in futures]
    return [v for b in blocks for v in b]


# ---------------------------------------------------------------------------
# Estimators
# ---------------------------------------------------------------------------

def _per_area(cfg: McConfig, quantity: str, t0: float, source, theory: float,
              values_of) -> McReport:
    """The report of the mean of source's values_of(seed, rs) per unit of
    its area, against theory.  The area and notes are read before any block
    runs, so a source that cannot give them names no realization."""
    area, notes = source.area, source.notes_for(quantity)
    values = np.array(_map_realizations(cfg, lambda rs: values_of(cfg.seed, rs)), dtype=float)
    mean = float(np.mean(values)) / area
    se = float(np.std(values, ddof=1) / math.sqrt(len(values))) / area
    item = McItem(label=quantity, empirical=mean, se=se, theory=theory)
    return McReport(quantity=quantity, items=[item], config=cfg.as_dict(),
                    elapsed_s=time.time() - t0, notes=notes)


def estimate_intensity(cfg: McConfig) -> McReport:
    """Mean zero count per unit area (the source's zero_counts over its
    area), against the closed formula.  A cell with |winding| >= 2 raises
    ResolutionError naming the seed and the realization."""
    t0, source = time.time(), _source(cfg)
    return _per_area(cfg, "density", t0, source, source.density(cfg.convention),
                     source.zero_counts)


def estimate_charge_intensity(cfg: McConfig) -> McReport:
    """Mean signed charge per unit area (the source's net_charges over its
    area); theory is kernel-independent."""
    t0, source = time.time(), _source(cfg)
    return _per_area(cfg, "charge_density", t0, source, source.charge_density,
                     source.net_charges)


def _variance_and_se(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unbiased variance of each row of samples and its sampling error from
    the fourth moment, one reduction each over the contiguous rows: each
    row's values are those np.var and np.mean give for it alone."""
    n = samples.shape[1]
    m = samples - samples.mean(axis=1, keepdims=True)
    m4 = np.mean(m ** 4, axis=1)
    s2 = np.var(samples, axis=1, ddof=1)
    var_of_var = (m4 - (n - 3) / (n - 1) * s2 * s2) / n
    return s2, np.sqrt(np.maximum(var_of_var, 0.0))


def estimate_charge_variance(cfg: McConfig) -> McReport:
    """Across-realization variance of disk charge, per radius, as Var/R.

    One concentric disk per realization per radius about the interior's
    centre (overlapping disks would correlate samples and bias the standard
    errors), its charge the source's disk_charges.  The variances and their
    fourth-moment standard errors come from one reduction over the
    contiguous (radii, realizations) array, bit for bit those of each
    column alone.  A weighted linear fit of Var against R over the upper
    half of the radii is added, unless one of them has a zero standard
    error, which a note then names.
    """
    t0 = time.time()
    if not cfg.radii:
        raise ParameterError("charge variance needs a radii list (radii is empty)")
    source = _source(cfg)
    notes = source.notes_for("charge_variance")
    x0, x1, y0, y1 = source.interior
    center = complex(0.5 * (x0 + x1), 0.5 * (y0 + y1))
    if not _disk_fits(source.interior, max(cfg.radii)):
        raise DomainError(f"radius {max(cfg.radii)} disk does not fit interior {source.interior}")
    if cfg.n_realizations < 100:
        notes.append("fewer than 100 realizations: variance standard errors are wide")

    radii = list(cfg.radii)
    theory_var = source.variance_theory(radii)
    charges = np.array(_map_realizations(
        cfg, lambda rs: source.disk_charges(cfg.seed, rs, center, radii)), dtype=float)

    variances, ses = (a.tolist() for a in _variance_and_se(np.ascontiguousarray(charges.T)))
    items = [McItem(label=_radius_label(R), empirical=v / R, se=se / R, theory=theory)
             for R, v, se, theory in zip(radii, variances, ses, theory_var)]

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
