"""Gaussian information dynamics on linear measurements, with a Klein-Gordon testbed.

The package splits into small layers: spectral matrix functions
(:mod:`infodyn.matfun`), Gaussian densities and the linear-measurement update
(:mod:`infodyn.gaussian`), affine pushforwards of densities
(:mod:`infodyn.dynamics`), entropic matching of an evolved density by new
data (:mod:`infodyn.matching`), the periodic Klein-Gordon field with its
exact solution (:mod:`infodyn.kleingordon`), and the iterated data-space
simulation driving it all (:mod:`infodyn.simulator`, CLI in
:mod:`infodyn.cli`).
"""

from . import dynamics, errors, gaussian, kleingordon, matching, matfun, simulator
from .dynamics import AffineDynamics, approx_inv_cov, jacobian_det, push_forward
from .errors import (
    ConfigError,
    DegenerateMassError,
    DomainError,
    InfodynError,
    InsufficientSweep,
    InvalidInput,
    NonFiniteOutput,
    NotPositiveDefinite,
    SeriesDiverges,
    StepTooLarge,
    UnsupportedPixelCount,
)
from .gaussian import (
    GaussianDensity,
    LinearMeasurement,
    differential_entropy,
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
    StepRecord,
    SweepResult,
    convergence_sweep,
    dump_config,
    load_config,
    parse_config,
    run_exact_reference,
    run_ifd,
    write_csv,
    write_report,
)

__version__ = "0.1.0"

__all__ = [
    "AffineDynamics",
    "ConfigError",
    "DegenerateMassError",
    "DomainError",
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
    "SeriesDiverges",
    "StepRecord",
    "StepTooLarge",
    "SweepResult",
    "UnsupportedPixelCount",
    "approx_inv_cov",
    "convergence_sweep",
    "differential_entropy",
    "dump_config",
    "dynamics",
    "errors",
    "evidence",
    "gaussian",
    "info_hamiltonian",
    "jacobian_det",
    "kl_divergence",
    "kleingordon",
    "load_config",
    "match",
    "matching",
    "matfun",
    "parse_config",
    "posterior",
    "push_forward",
    "run_exact_reference",
    "run_ifd",
    "sample",
    "simulator",
    "wiener_filter",
    "write_csv",
    "write_report",
]
