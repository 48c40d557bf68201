"""Exception types shared across the package.

Every error raised on a contract violation derives from :class:`InfodynError`
so callers can catch the package's failures with one handler.  Numerical
failures (a step size outside the validity region, a matrix that is not
positive definite, a diverging series, non-finite output) are kept distinct from input and
configuration mistakes because the command line maps them to different exit
codes.
"""


class InfodynError(Exception):
    """Base class for all package errors."""


class InvalidInput(InfodynError, ValueError):
    """An argument violates a documented precondition (shape, finiteness, range)."""


class DomainError(InfodynError, ValueError):
    """A spectral function was applied to an eigenvalue outside its domain."""


class NotPositiveDefinite(InfodynError):
    """A matrix required to be symmetric positive definite is not."""


class SeriesDiverges(InfodynError):
    """The Neumann series does not converge for the given matrix."""


class StepTooLarge(InfodynError):
    """The time step violates the validity condition of the linearized update."""


class NonFiniteOutput(InfodynError):
    """A run produced NaN or infinity, e.g. when an explicit update grows without bound."""


class DegenerateMassError(InfodynError, ValueError):
    """The field mass is zero, which makes the thermal prior degenerate."""


class UnsupportedPixelCount(InfodynError, ValueError):
    """The pixel count must be odd and greater than one."""


class ConfigError(InfodynError, ValueError):
    """A run configuration is missing, malformed, or inconsistent."""


class InsufficientSweep(InfodynError, ValueError):
    """A convergence sweep needs at least three resolutions to fit a slope."""
