"""Linearized one-step field evolution with its validity guard.

One explicit Euler step of the field equation d(phi)/dt = L phi is the
matrix 1 + dt L (:meth:`AffineDynamics.step_matrix`).  It moves a Gaussian
N(m, D) to N((1 + dt L) m, (1 + dt L) D (1 + dt L)^T) exactly, because a
linear map of a Gaussian is Gaussian.  The step is trusted only while
||dt L|| < 1 (spectral norm), which keeps 1 + dt L invertible; a violation
raises :class:`infodyn.errors.StepTooLarge` at construction instead of being
clamped.
"""

import numpy as np

from . import matfun
from ._frozen import Frozen
from .errors import InvalidInput, StepTooLarge


class AffineDynamics(Frozen):
    """Generator L and step size dt of one linearized evolution step.

    L may also be a stack (k, n, n) of the diagonal blocks of a
    block-diagonal generator; ||dt L|| is then the largest block norm, and
    :meth:`step_matrix` returns the blocks of 1 + dt L.
    """

    __slots__ = _fields = ("generator", "dt")

    def __init__(self, generator, dt):
        l = np.asarray(generator, dtype=float)
        if l.ndim not in (2, 3) or l.shape[-1] != l.shape[-2]:
            raise InvalidInput(
                f"generator must be square or a stack of square blocks, got shape {l.shape}"
            )
        if not np.all(np.isfinite(l)):
            raise InvalidInput("generator entries must be finite")
        dt = float(dt)
        if not np.isfinite(dt) or dt < 0.0:
            raise InvalidInput(f"dt must be finite and nonnegative, got {dt!r}")
        norm = matfun.norm2(dt * l)
        if norm >= 1.0:
            raise StepTooLarge(
                f"||dt L|| = {norm!r} >= 1; the linearized step is outside "
                "its validity region"
            )
        l.setflags(write=False)
        self._set(generator=l, dt=dt)

    @property
    def dim(self):
        return self.generator.shape[-1]

    def step_matrix(self):
        """(1 + dt L), or its blocks."""
        return np.eye(self.dim) + self.dt * self.generator
