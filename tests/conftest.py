import math

import numpy as np
import pytest
from hypothesis import settings

from gwhf import kernels as K
from gwhf import windows as W

# the same examples on every run, and no example database on disk
settings.register_profile("gwhf", derandomize=True, database=None, deadline=None)
settings.load_profile("gwhf")


@pytest.fixture(scope="session")
def gef():
    return K.gef_kernel()


@pytest.fixture(scope="session")
def lag1():
    return K.laguerre_kernel(1)


@pytest.fixture(scope="session")
def lag2():
    return K.laguerre_kernel(2)


@pytest.fixture(scope="session")
def hermites():
    return {r: W.hermite(r) for r in range(7)}


@pytest.fixture(scope="session")
def builtin_kernels():
    return K.BUILTIN_KERNELS()


def synthetic_grid(fn, half=1.0, n=41, offset=0.013 + 0.007j, plane="gwhf"):
    """Grid sampling fn on a square, nudged so zeros avoid lattice lines."""
    from gwhf.simulate import FieldGrid
    xs = np.linspace(-half, half, n) + offset.real
    ys = np.linspace(-half, half, n) + offset.imag
    zz = xs[None, :] + 1j * ys[:, None]
    return FieldGrid(values=fn(zz), origin=complex(xs[0], ys[0]),
                     spacing=xs[1] - xs[0], plane=plane, seed=0)


def grid_windings(grid):
    """The plaquette windings of every cell of the grid, as the detector's
    one winding pass (zeros.cells) computes them, as int16."""
    from gwhf.zeros import _windings
    return _windings(grid.values, grid.xs, grid.ys, grid.plane, grid.spacing)


def anchored_plan(plan):
    """`plan`'s configuration with the explicit margin 2 max(T, freq), the
    one its noise record is anchored to, given in the plan's output plane:
    its lattice holds a default plan's lattice as a sub-block, and its grids
    agree there with the default plan's to rounding."""
    from gwhf.simulate import StftPlan
    ws = plan.windows
    unit = math.sqrt(math.pi) if plan.plane == "gwhf" else 1.0
    margin = 2 * max(max(w.support_radius, w.freq_radius) for w in ws)
    return StftPlan(ws, plan.interior, unit * plan.spacing, plan.dt, unit * margin, plan.plane)
