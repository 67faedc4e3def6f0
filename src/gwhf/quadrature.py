"""Composite Gauss-Legendre quadrature with panel-doubling refinement.

All integrals in this package are of smooth integrands on finite panels
(removable singularities are always replaced by their analytic limits
before the integrand reaches this module), so plain Gauss-Legendre panels
with doubling until two successive refinements agree is both simple and
fast.  Nodes never touch panel endpoints, which keeps endpoint-limit
values out of the evaluation path entirely.
"""
from __future__ import annotations

from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import DecayViolationError

__all__ = ["panel_quad", "adaptive_quad", "half_line_quad"]

# Gauss-Legendre nodes per panel; the most panels adaptive_quad doubles to
_ORDER, _MAX_PANELS = 16, 4096


@lru_cache(maxsize=16)
def _gl_nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def panel_quad(f: Callable[[np.ndarray], np.ndarray], a: float, b: float,
               panels: int, order: int = _ORDER) -> float | np.ndarray:
    """Integrate f over [a, b] with `panels` equal Gauss-Legendre panels.

    An f that returns a stack of k rows (a 2-D array or a sequence of k
    arrays) gives the k row integrals.  Each row is summed as a one-row f
    returning it would be, in its own memory layout: numpy's matmul takes
    another summation path for a strided row (a .real or .imag view) than
    for a contiguous one.
    """
    x, w = _gl_nodes(order)
    edges = np.linspace(a, b, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1] - edges[0])
    pts = (mid[:, None] + half * x[None, :]).ravel()

    def integral(row):
        return half * np.sum(np.asarray(row, dtype=float).reshape(panels, order) @ w)

    vals = f(pts)
    if np.ndim(vals[0]) == 0:
        return float(integral(vals))
    return np.array([integral(row) for row in vals])


def adaptive_quad(f: Callable[[np.ndarray], np.ndarray], a: float, b: float,
                  tol: float = 1e-10, initial_panels: int = 4) -> float | np.ndarray:
    """Refine by doubling the panel count until successive results differ < tol.

    An f that returns a stack of k rows (see panel_quad) integrates them on
    shared nodes, so whatever the rows have in common is computed once per
    node.  Each row stops at the first doubling where it settles and keeps
    that value, so entry i of the returned array equals the one-row call on
    row i bit for bit; a row that never settles raises.  An empty interval
    gives 0.0 whatever f returns.
    """
    if b <= a:
        return 0.0
    panels = initial_panels
    prev = np.asarray(panel_quad(f, a, b, panels))
    # the indices of the rows still open, () for a one-row f; a Python loop
    # over them costs a one-row call less than masks or np.ndindex would
    out, open_rows = np.empty(prev.shape), list(range(len(prev))) if prev.ndim else [()]
    while panels < _MAX_PANELS:
        panels *= 2
        cur = np.asarray(panel_quad(f, a, b, panels))
        unsettled = []
        for k in open_rows:
            if abs(cur[k] - prev[k]) < tol:
                out[k] = cur[k]
            else:
                unsettled.append(k)
        if not unsettled:
            return out if out.ndim else float(out)
        open_rows, prev = unsettled, cur
    raise DecayViolationError(
        f"quadrature on [{a}, {b}] did not stabilize below {tol} "
        f"with {_MAX_PANELS} panels")


def half_line_quad(f: Callable[[np.ndarray], np.ndarray]) -> float:
    """Integrate f over [0, inf) to 1e-9 by blocks of length 4, truncating
    once a block contributes less than 1e-10; an integrand still above that
    at radius 200 decays too slowly, and a DecayViolationError is raised.
    """
    total = 0.0
    a = 0.0
    while a < 200.0:
        piece = adaptive_quad(f, a, a + 4.0, tol=1e-10)
        total += piece
        a += 4.0
        if a >= 8.0 and abs(piece) < 1e-10:
            return total
    raise DecayViolationError("tail of half-line integral still above 1e-10 at radius 200.0")
