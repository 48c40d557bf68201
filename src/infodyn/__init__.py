"""Gaussian information dynamics on linear measurements, with a Klein-Gordon testbed.

The package has two parts.  The run path is what a command of the CLI
(:mod:`infodyn.cli`) executes: the iterated data-space simulation
(:mod:`infodyn.simulator`) of the periodic Klein-Gordon field with its exact
solution (:mod:`infodyn.kleingordon`), the class-block numerics they share,
spectral matrix functions among them (:mod:`infodyn.matfun`), and the exact
CSV float formatter (:mod:`infodyn.floattext`).  The dense library is the
paper's Gaussian update on whole matrices (:mod:`infodyn.gaussian`),
entropic matching of an evolved density by new data
(:mod:`infodyn.matching`) and the linearized evolution step with its
validity guard (:mod:`infodyn.dynamics`); no run imports it.

The public names below are resolved on first access, so importing the
package, or a run, loads only the modules it uses.
"""

import importlib

__version__ = "0.1.0"

# Public name -> the module that defines it; a module's own name maps to None.
_EXPORTS = {
    "dynamics": None,
    "errors": None,
    "gaussian": None,
    "kleingordon": None,
    "matching": None,
    "matfun": None,
    "simulator": None,
    "AffineDynamics": "dynamics",
    "ConfigError": "errors",
    "DegenerateMassError": "errors",
    "InfodynError": "errors",
    "InsufficientSweep": "errors",
    "InvalidInput": "errors",
    "NonFiniteOutput": "errors",
    "NotPositiveDefinite": "errors",
    "StepTooLarge": "errors",
    "UnsupportedPixelCount": "errors",
    "GaussianDensity": "gaussian",
    "LinearMeasurement": "gaussian",
    "evidence": "gaussian",
    "info_hamiltonian": "gaussian",
    "kl_divergence": "gaussian",
    "posterior": "gaussian",
    "sample": "gaussian",
    "wiener_filter": "gaussian",
    "KGModel": "kleingordon",
    "MatchProblem": "matching",
    "MatchResult": "matching",
    "match": "matching",
    "RunConfig": "simulator",
    "RunResult": "simulator",
    "SweepResult": "simulator",
    "convergence_sweep": "simulator",
    "load_config": "simulator",
    "parse_config": "simulator",
    "run_ifd": "simulator",
    "write_csv": "simulator",
    "write_report": "simulator",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _EXPORTS[name]
    if module is None:
        return importlib.import_module(f"{__name__}.{name}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
