"""Exception types shared across the package.

Every error raised on a contract violation derives from :class:`InfodynError`
so callers can catch the package's failures with one handler.  Numerical
failures (a matrix that is not positive definite, non-finite output) are
kept distinct from input and configuration mistakes because the command
line maps them to different exit codes.  A run's step outside the validity
region is a load-time :class:`ConfigError`; only the library's
:class:`infodyn.dynamics.AffineDynamics` raises :class:`StepTooLarge`.
A refusal message shows the refused value through :func:`shown`.
"""

import sys


def shown(value):
    """repr(value), or a description for an integer with too many digits to print.

    ``repr`` of an int past Python's digit limit raises ``ValueError``, which
    would replace the refusal that was meant to name it.
    """
    try:
        return repr(value)
    except ValueError:
        return f"a number of more than {sys.get_int_max_str_digits()} digits"


class InfodynError(Exception):
    """Base class for all package errors."""


class InvalidInput(InfodynError, ValueError):
    """An argument violates a documented precondition (shape, finiteness, range)."""


class NotPositiveDefinite(InfodynError):
    """A matrix required to be symmetric positive definite is not."""


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
