"""Exception types shared across the package."""


class GwhfError(Exception):
    """Base class for all package errors.  The Monte Carlo harness re-raises
    one as its own class, naming the seed and the realization it was for."""


class InvalidKernelError(GwhfError, ValueError):
    """Kernel data violates a standing assumption (normalization, PSD, decay)."""


class SingularKernelError(GwhfError, ZeroDivisionError):
    """Two-point quantities requested at a degenerate separation (|P| = 1)."""


class DegeneratePairError(GwhfError, ValueError):
    """Joint covariance of a point pair is singular."""


class DecayViolationError(GwhfError, ValueError):
    """Profile decays too slowly for a tail-truncated integral to converge."""


class InvalidWindowError(GwhfError, ValueError):
    """Window fails normalization/decay requirements or yields a bad discriminant."""


class AliasBandError(GwhfError, ValueError):
    """Requested frequency extent does not fit the alias-free band for dt."""


class ResolutionError(GwhfError, RuntimeError):
    """Too coarse to resolve: a plaquette holds two zeros, or a circle's phase never settles."""


class PlaneError(GwhfError, ValueError):
    """Operation applied to a grid in the wrong coordinate plane."""


class DomainError(GwhfError, ValueError):
    """Requested statistics region does not fit the grid interior."""


class ContainerError(GwhfError, ValueError):
    """File is not a complete, well-formed grid container or zeros CSV."""


class ParameterError(GwhfError, ValueError):
    """A numeric setting (spacing, dt, realization count, grid size) is out of range."""
