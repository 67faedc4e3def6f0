"""Numerical laboratory for charged zero sets of twisted-stationary
Gaussian fields on the plane, including the zeros of the short-time
Fourier transform of complex white noise.

Layout:
    kernels   -- twisted-kernel calculus: jets, intensities, two-point
                 function, variance asymptote, first-principles oracle
    windows   -- window families, moment constants, window -> kernel bridge
    simulate  -- field realizations (windowed noise transform, entire series)
    zeros     -- charged zero detection and refinement, the winding pass
    mc        -- Monte Carlo verification harness: counts in squares, circles, disks
    cli       -- command-line front end (entry point: gwhf)
"""

__version__ = "0.1.0"

from . import errors, kernels, mc, quadrature, simulate, windows, zeros  # noqa: F401,E402
