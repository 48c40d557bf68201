"""Gaussian information dynamics on linear measurements, with a Klein-Gordon testbed.

The package splits into small layers: spectral matrix functions
(:mod:`infodyn.matfun`), Gaussian densities and the linear-measurement update
(:mod:`infodyn.gaussian`), the linearized evolution step with its validity
guard (:mod:`infodyn.dynamics`), entropic matching of an evolved density by new
data (:mod:`infodyn.matching`), the periodic Klein-Gordon field with its
exact solution (:mod:`infodyn.kleingordon`), and the iterated data-space
simulation driving it all (:mod:`infodyn.simulator`, CLI in
:mod:`infodyn.cli`).
"""

from . import dynamics, errors, gaussian, kleingordon, matching, matfun, simulator
from .dynamics import AffineDynamics
from .errors import (
    ConfigError,
    DegenerateMassError,
    InfodynError,
    InsufficientSweep,
    InvalidInput,
    NonFiniteOutput,
    NotPositiveDefinite,
    StepTooLarge,
    UnsupportedPixelCount,
)
from .gaussian import (
    GaussianDensity,
    LinearMeasurement,
    evidence,
    info_hamiltonian,
    kl_divergence,
    posterior,
    sample,
    wiener_filter,
)
from .kleingordon import KGModel
from .matching import MatchProblem, MatchResult, match
from .simulator import (
    RunConfig,
    RunResult,
    SweepResult,
    convergence_sweep,
    load_config,
    parse_config,
    run_ifd,
    write_csv,
    write_report,
)

__version__ = "0.1.0"

__all__ = [
    "AffineDynamics",
    "ConfigError",
    "DegenerateMassError",
    "GaussianDensity",
    "InfodynError",
    "InsufficientSweep",
    "InvalidInput",
    "KGModel",
    "LinearMeasurement",
    "MatchProblem",
    "MatchResult",
    "NonFiniteOutput",
    "NotPositiveDefinite",
    "RunConfig",
    "RunResult",
    "StepTooLarge",
    "SweepResult",
    "UnsupportedPixelCount",
    "convergence_sweep",
    "dynamics",
    "errors",
    "evidence",
    "gaussian",
    "info_hamiltonian",
    "kl_divergence",
    "kleingordon",
    "load_config",
    "match",
    "matching",
    "matfun",
    "parse_config",
    "posterior",
    "run_ifd",
    "sample",
    "simulator",
    "wiener_filter",
    "write_csv",
    "write_report",
]
