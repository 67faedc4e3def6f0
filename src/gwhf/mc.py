"""Monte Carlo verification harness.

Runs batches of field realizations and compares empirical statistics
against the closed-form predictions: the zero density, the signed charge
density and the charge variance in growing regions: lattice squares for a
window or polyentire source, circles for the series GEF and disks for the
Poisson control; no path detects zeros.  Every source answers the
estimators through one interface, its class picked by its family once,
where _source builds it: its area and notes_for(quantity, radii); its
theory values density(convention), charge_density and
variance_theory(radii); and, one value per realization of a block rs,
zero_counts(seed, rs), net_charges(seed, rs) and region_charges(seed, rs,
radii).  An estimator maps one of these over the realizations
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

import itertools
import json
import math
import time
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterator

import numpy as np

from .errors import DomainError, GwhfError, ParameterError
from .kernels import DEFAULT_CONVENTION, _check_convention, charge_variance_rectangle
from .simulate import (_MAX_ELEMENTS, FieldSource, LatticeRectangle, _check_domain,
                       _check_spacing, _is_number, source_from_spec, stream)
from .windows import Window
from .zeros import cells, circle_charges, rectangle_charges
# no estimator detects zeros; bench/workloads.py's SignCheck, bench/tracing.py
# and tests/test_bench.py look the detector up here
from .zeros import detect_zeros  # noqa: F401

__all__ = ["McConfig", "McItem", "McReport", "MAX_THREADS",
           "estimate_intensity", "estimate_charge_intensity",
           "estimate_charge_variance"]


# most threads one call may ask for: the caller and MAX_THREADS - 1 workers
# of the one pool every call shares (_pool), kept alive once started
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

def _center(box: tuple[float, float, float, float]) -> complex:
    """The centre of the rectangle box = (x0, x1, y0, y1)."""
    x0, x1, y0, y1 = box
    return complex(0.5 * (x0 + x1), 0.5 * (y0 + y1))


def _lattice_note(what: str, rect: LatticeRectangle, how: str) -> str:
    """The note saying what a report counts on the lattice rectangle rect."""
    box = ", ".join(f"{v:.6g}" for v in rect.box)
    return (f"{what} ({box}): {rect.i1 - rect.i0 + 1} x {rect.j1 - rect.j0 + 1} points at "
            f"spacing {rect.spacing:.6g}, area {rect.area:.6g}, counted from {how}")


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

    def notes_for(self, quantity: str, radii: list[float] = ()) -> list[str]:
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

    def region_charges(self, seed: int, rs: range, radii: list[float]) -> Iterator[np.ndarray]:
        center, column = _center(self.interior), np.array(radii)[:, None]
        return (np.where(np.abs(pos - center) <= column, chg, 0).sum(axis=1)
                for pos, chg in self._points(seed, rs))


class _Field(FieldSource):
    """A field source.  It counts on its plan's lattice rectangle, its whole
    lattice within the interior, per unit of its area, from the rectangle's
    samples alone.  One winding pass a realization (cells) gives its cells
    of nonzero plaquette winding, one per simple zero: the zero count is
    their number, and the charge of a lattice square (the rectangle within
    it) is rectangle.orient times the sum of its cells' windings.
    The net charge is read from the four edges (zeros.rectangle_charges).
    The zero count has a resolution bias: an opposite-signed pair in one
    cell cancels, and an edge misread by half a turn adds a pair.  Against
    the same fields read at a fine spacing, as paired differences, it was
    +0.07% for the STFT hermite:1 window at spacing 1/16 and -0.10% for
    polyentire:3:full at 0.08."""

    @property
    def area(self) -> float:
        return self.plan.rectangle.area

    def _squares(self, radii: list[float]) -> list[LatticeRectangle]:
        """The lattice square of each half-side R, the rectangle's points in
        [cx - R, cx + R] x [cy - R, cy + R] about the interior's centre;
        DomainError names an R, and its box, whose square has under 2 x 2."""
        rect, c = self.plan.rectangle, _center(self.interior)
        boxes = [(c.real - R, c.real + R, c.imag - R, c.imag + R) for R in radii]
        return [rect.within(box, f"the square of half-side {R:g} about ({c.real:.6g}, "
                            f"{c.imag:.6g}) at spacing {rect.spacing:.6g}",
                            "its box ({})".format(", ".join(f"{v:.6g}" for v in box)))
                for R, box in zip(radii, boxes)]

    def variance_theory(self, radii: list[float]) -> list[float]:
        """Var/R of each square, exact for its sides (in the kernel's gwhf
        plane, sqrt(pi) times an stft-plane side)."""
        unit = 1.0 if self.plane == "gwhf" else math.sqrt(math.pi)
        return [charge_variance_rectangle(self.kernel, unit * (sq.i1 - sq.i0) * sq.spacing,
                                          unit * (sq.j1 - sq.j0) * sq.spacing) / R
                for R, sq in zip(radii, self._squares(radii))]

    def notes_for(self, quantity: str, radii: list[float] = ()) -> list[str]:
        # what each report counts, on which lattice rectangle, and from what
        rect, wound = self.plan.rectangle, "its plaquette windings"
        counted = {"density": [("flagged cells of the lattice rectangle", rect, wound)],
                   "charge_density": [("net charge of the lattice rectangle", rect,
                                       "its four edges")],
                   "charge_variance": [(f"{_radius_label(R)}: net charge of the lattice square",
                                        sq, wound) for R, sq in zip(radii, self._squares(radii))]}
        return [*self.notes, *(_lattice_note(*c) for c in counted.get(quantity, ()))]

    def cells(self, seed: int, rs: range) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Each realization's zeros.cells (i, j, w) of the rectangle."""
        plan = self.plan
        return (cells(plan.rectangle, v) for v in plan.rectangle_samples(plan.draw(seed, rs)))

    def zero_counts(self, seed: int, rs: range) -> Iterator[int]:
        return (len(w) for _, _, w in self.cells(seed, rs))

    def net_charges(self, seed: int, rs: range) -> np.ndarray:
        return rectangle_charges(self.plan.rectangle, *self.plan.edges(self.plan.draw(seed, rs)))

    def region_charges(self, seed: int, rs: range, radii: list[float]) -> Iterator[np.ndarray]:
        # a square's cells are its columns i0 .. i1 - 1 and rows j0 .. j1 - 1
        i0, i1, j0, j1 = (np.array([getattr(sq, k) for sq in self._squares(radii)])[:, None]
                          for k in ("i0", "i1", "j0", "j1"))
        orient = self.plan.rectangle.orient
        return (orient * np.where((i0 <= i) & (i < i1) & (j0 <= j) & (j < j1), w, 0).sum(axis=1)
                for i, j, w in self.cells(seed, rs))


class _SeriesField(_Field):
    """A series source, whose region is the disk and its charge its field's
    winding on the circle (circle_charges), with no grid.  About the origin
    the circles' starting values come from SeriesPlan.circle_values, one
    inverse FFT per circle, and only arc midpoints from the evaluator."""

    def variance_theory(self, radii: list[float]) -> list[float]:
        return [self.variance_asymptote] * len(radii)

    def notes_for(self, quantity: str, radii: list[float] = ()) -> list[str]:
        return super().notes_for(quantity)  # no squares

    def region_charges(self, seed: int, rs: range, radii: list[float]) -> Iterator[np.ndarray]:
        plan, center = self.plan, _center(self.interior)
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
    """Whether the closed disk of this radius, and so the square of this
    half-side, about the centre of the rectangle box = (x0, x1, y0, y1)
    lies inside it."""
    x0, x1, y0, y1 = box
    c = _center(box)
    return (x0 <= c.real - radius and c.real + radius <= x1
            and y0 <= c.imag - radius and c.imag + radius <= y1)


# the workers every call shares: threads = N runs on the caller and at most
# N - 1 of them, each started when a call first finds no idle one
_pool = ThreadPoolExecutor(max_workers=MAX_THREADS - 1, thread_name_prefix="gwhf-mc")


def _map_realizations(cfg: McConfig, values_of) -> list:
    """The values of all realizations in order whatever the thread count,
    values_of(rs) iterating over those of a contiguous block rs of at most
    _BLOCK, fewer when that would leave a thread without a block.  A
    GwhfError is re-raised as its own class, naming the seed and the
    realization whose value was due; any other exception is raised as it is.

    The caller and up to threads - 1 tasks on the shared pool take block
    indices in order from one counter, the caller block 0 before any task
    is queued, and each runs blocks until none is left or an earlier one
    has failed.  A task no worker has started when the caller runs out
    is cancelled, the running ones are waited for, and the first failure in
    block order is raised: no block outlives the call."""
    n = cfg.n_realizations
    size = min(_BLOCK, -(-n // cfg.threads))
    starts = range(0, n, size)
    blocks, failures, order = [None] * len(starts), {}, itertools.count()

    def run(k: int) -> None:
        # indices are taken in order, so a block before the first failure
        # always runs and the failure raised is the one a single thread meets
        while k < len(starts) and k < min(failures, default=k + 1):
            rs, out = range(starts[k], min(starts[k] + size, n)), []
            try:
                for value in values_of(rs):
                    out.append(value)
            except BaseException as exc:
                failures[k] = (exc, rs[len(out)])
                return
            blocks[k], k = out, next(order)

    first = next(order)
    tasks = [_pool.submit(lambda: run(next(order)))
             for _ in range(min(cfg.threads, len(starts)) - 1)]
    try:
        run(first)
    finally:
        # a cancelled task counts as done only once a worker dequeues it
        wait([task for task in tasks if not task.cancel()])
    if failures:
        exc, r = failures[min(failures)]
        if isinstance(exc, GwhfError):
            raise type(exc)(f"seed {cfg.seed} realization {r}: {exc}") from exc
        raise exc
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
    """Across-realization variance of the charge in the region of each
    radius R about the interior's centre, as Var/R: the lattice square of
    half-side R of a window or polyentire source, else the disk.

    One concentric region per realization per radius (overlapping regions
    would correlate samples and bias the standard errors), its charge the
    source's region_charges and its theory the source's variance_theory.
    A region that does not fit the interior, or a square of fewer than
    2 x 2 points, raises DomainError before any realization is drawn.  The
    variances and their fourth-moment standard errors come from one
    reduction over the contiguous (radii, realizations) array, bit for bit
    those of each column alone.  A weighted linear fit of Var against R over
    the upper half of the radii is added, its theory the same fit of the
    rows' theory Var, unless one of the radii has a zero standard error,
    which a note then names.
    """
    t0 = time.time()
    if not cfg.radii:
        raise ParameterError("charge variance needs a radii list (radii is empty)")
    source, radii = _source(cfg), list(cfg.radii)
    if not _disk_fits(source.interior, radii[-1]):
        raise DomainError(f"radius {radii[-1]} region does not fit interior {source.interior}")
    notes = source.notes_for("charge_variance", radii)
    if cfg.n_realizations < 100:
        notes.append("fewer than 100 realizations: variance standard errors are wide")

    theory_var = source.variance_theory(radii)
    charges = np.array(_map_realizations(
        cfg, lambda rs: source.region_charges(cfg.seed, rs, radii)), dtype=float)

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
        # whose unscaled covariance is inv(A^T diag(1/se^2) A); the theory
        # slope is the same fit of the rows' theory Var
        r_up, w = [radii[k] for k in upper], [1.0 / ses[k] for k in upper]
        coef, cov = np.polyfit(r_up, [variances[k] for k in upper], 1, w=w, cov="unscaled")
        theory = np.polyfit(r_up, [theory_var[k] * radii[k] for k in upper], 1, w=w)[0]
        items.append(McItem(label="fit-slope", empirical=float(coef[0]),
                            se=math.sqrt(max(cov[0, 0], 0.0)), theory=float(theory)))
    return McReport(quantity="charge_variance", items=items, config=cfg.as_dict(),
                    elapsed_s=time.time() - t0, notes=notes)
