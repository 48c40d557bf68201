"""Data-space simulation loop, exact-reference comparison and convergence sweep.

A run evolves the packed data vector u by the closed-form update matrix
M = 1 + dt M' over 2^N equal steps of total time T.  The update loop does
nothing but u <- M u.  The per-step diagnostics are computed after it,
batched over the stacked trajectory, from matrices factored once per run:
only the means change from step to step.  Each step gets two relative
entropies measured against the exactly evolved posterior
N(A m, A D A^T), where m is the posterior mean of the previous data vector
and A the exact one-step evolution:

``kl_step``
    against the posterior N(W u'', D) at the updated data vector, i.e. the
    information error of one full scheme step (evolve, then re-measure).
    Shrinks like dt^2 per step, so its running sum shrinks like dt.
``kl_evolution``
    against the linearly evolved posterior N((1 + dt L) m, ...), isolating
    the truncation of the evolution operator alone.  Means agree to O(dt^2)
    and covariances to O(dt^2), so this entropy falls off like dt^4; it is
    reported for diagnosis and kept out of the convergence criteria.

``exact_deviation`` compares u against the noise-free image R2 A(t) m_0 of
the exactly evolved initial posterior mean.  It does not vanish with dt:
distinct field modes share data coefficients (aliasing), so no data-space
flow can track the exact reference, and the deviation saturates at a
config-dependent floor.

Configuration is a flat JSON object with exactly the keys n_modes, Y, mu,
beta, sigma_n2, T, N, seed, initial_data and scheme; see :func:`parse_config`.
Runs are deterministic given the config, and :func:`write_csv` output is
bit-identical across repeats.
"""

import dataclasses
import json
import logging
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import dynamics, gaussian, kleingordon, matching, matfun
from .errors import (
    ConfigError,
    InfodynError,
    InsufficientSweep,
    InvalidInput,
    NonFiniteOutput,
)
from .kleingordon import KGModel

logger = logging.getLogger(__name__)

SCHEME_ITERATED = "iterated"
SCHEME_DIRECT = "direct"
SCHEME_BOTH = "both"
SCHEMES = (SCHEME_ITERATED, SCHEME_DIRECT, SCHEME_BOTH)

GENERATE = "generate"

CONFIG_KEYS = (
    "n_modes",
    "Y",
    "mu",
    "beta",
    "sigma_n2",
    "T",
    "N",
    "seed",
    "initial_data",
    "scheme",
)
_MODEL_KEYS = ("n_modes", "Y", "mu", "beta", "sigma_n2")

CSV_FLOAT_FORMAT = "%.17g"

# The exact reference is evaluated in row blocks of at most this many state
# entries, so its transient arrays stay a few MB whatever 2^N is.
REFERENCE_BLOCK_ENTRIES = 1 << 18


@dataclass(frozen=True)
class RunConfig:
    """Validated run parameters: model, horizon T, resolution N, seed, scheme.

    The step count is 2^N.  Construction checks that the step dt = T/2^N
    lies inside the validity region dt < 1/w_{n-1} of the update matrix,
    so any loaded config is runnable.
    """

    model: KGModel
    total_time: float
    resolution: int
    seed: int
    initial_data: str = GENERATE
    scheme: str = SCHEME_ITERATED

    def __post_init__(self):
        t = float(self.total_time)
        if not (np.isfinite(t) and t > 0.0):
            raise ConfigError(f"config field 'T' must be positive, got {self.total_time!r}")
        if not isinstance(self.resolution, (int, np.integer)) or self.resolution < 1:
            raise ConfigError(
                f"config field 'N' must be an integer >= 1, got {self.resolution!r}"
            )
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ConfigError(
                f"config field 'seed' must be a nonnegative integer, got {self.seed!r}"
            )
        if not isinstance(self.initial_data, str) or not self.initial_data:
            raise ConfigError(
                "config field 'initial_data' must be 'generate' or a file path, "
                f"got {self.initial_data!r}"
            )
        if self.scheme not in SCHEMES:
            raise ConfigError(
                f"config field 'scheme' must be one of {SCHEMES}, got {self.scheme!r}"
            )
        object.__setattr__(self, "total_time", t)
        object.__setattr__(self, "resolution", int(self.resolution))
        object.__setattr__(self, "seed", int(self.seed))
        if self.dt >= self.model.dt_limit:
            raise ConfigError(
                f"config fields 'T' and 'N' give step dt = {self.dt!r}, outside "
                f"the validity region dt < {self.model.dt_limit!r} set by 'n_modes'"
            )

    @property
    def steps(self):
        """2^N update steps."""
        return 2**self.resolution

    @property
    def dt(self):
        return self.total_time / self.steps


@dataclass(frozen=True)
class StepRecord:
    """Diagnostics of one update step; ``data`` is the vector after the step."""

    step: int
    t: float
    data: np.ndarray
    kl_step: float
    kl_cumulative: float
    kl_evolution: float
    exact_deviation: float
    branch: str


@dataclass(frozen=True)
class ExactReference:
    """Exact trajectory R2 A(t) m_0 of the initial posterior mean.

    ``data`` has shape (2^N + 1, data_dim) including the t = 0 row
    R2 m_0.  ``energy_drift`` is the largest absolute change of the field
    energy along the evolved mean; the exact step conserves it, so this is
    a roundoff-level number.
    """

    times: np.ndarray
    data: np.ndarray
    energy_drift: float


@dataclass(frozen=True)
class RunResult:
    """Outcome of :func:`run_ifd`.

    ``records`` is empty for scheme 'direct'.  ``direct_data`` and
    ``direct_gap`` are None unless the scheme includes the direct endpoint
    (the gap additionally needs the iterated endpoint, i.e. scheme 'both').
    """

    config: RunConfig
    initial_data: np.ndarray
    records: tuple
    final_data: np.ndarray
    final_deviation: float
    reference_energy_drift: float
    direct_data: np.ndarray = None
    direct_gap: float = None


def parse_config(mapping):
    """Build a :class:`RunConfig` from a flat dict of exactly the documented keys.

    Unknown or missing keys raise :class:`ConfigError` naming them, as do
    invalid values (delegated to the model and config validators).
    """
    if not isinstance(mapping, dict):
        raise ConfigError(f"config must be a JSON object, got {type(mapping).__name__}")
    unknown = sorted(set(mapping) - set(CONFIG_KEYS))
    if unknown:
        raise ConfigError(f"unknown config field(s): {', '.join(unknown)}")
    missing = [key for key in CONFIG_KEYS if key not in mapping]
    if missing:
        raise ConfigError(f"missing config field(s): {', '.join(missing)}")
    for key in ("n_modes", "Y", "N", "seed"):
        if isinstance(mapping[key], bool) or not isinstance(mapping[key], int):
            raise ConfigError(
                f"config field {key!r} must be an integer, got {mapping[key]!r}"
            )
    for key in ("mu", "beta", "sigma_n2", "T"):
        if isinstance(mapping[key], bool) or not isinstance(mapping[key], (int, float)):
            raise ConfigError(
                f"config field {key!r} must be a number, got {mapping[key]!r}"
            )
    try:
        model = KGModel(
            n_modes=mapping["n_modes"],
            pixels=mapping["Y"],
            mu=float(mapping["mu"]),
            beta=float(mapping["beta"]),
            sigma_n2=float(mapping["sigma_n2"]),
        )
    except InfodynError as exc:
        raise ConfigError(str(exc)) from exc
    return RunConfig(
        model=model,
        total_time=float(mapping["T"]),
        resolution=mapping["N"],
        seed=mapping["seed"],
        initial_data=mapping["initial_data"],
        scheme=mapping["scheme"],
    )


def config_dict(config):
    """Flat JSON-ready dict, inverse of :func:`parse_config`."""
    m = config.model
    return {
        "n_modes": m.n_modes,
        "Y": m.pixels,
        "mu": m.mu,
        "beta": m.beta,
        "sigma_n2": m.sigma_n2,
        "T": config.total_time,
        "N": config.resolution,
        "seed": config.seed,
        "initial_data": config.initial_data,
        "scheme": config.scheme,
    }


def load_config(path):
    """Read and validate a JSON config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path!r} is not valid JSON: {exc}") from exc
    return parse_config(raw)


def dump_config(config, path):
    """Write a config file that :func:`load_config` reproduces exactly."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config_dict(config), fh, indent=2)
        fh.write("\n")


def resolve_initial_data(config, prior=None, meas=None):
    """Initial packed data vector of a run.

    For ``initial_data = 'generate'`` a field state is drawn from the thermal
    prior with the config seed, pushed through the response, and white noise
    of variance sigma_n2 from the stream seeded with seed + 1 is added.  Any
    other value is read as a JSON file holding a flat list of 2(Y + 2)
    numbers.  ``prior`` and ``meas`` are the model's prior density and
    measurement; they are built here when the caller has not built them.
    """
    model = config.model
    if config.initial_data == GENERATE:
        if prior is None:
            prior = kleingordon.prior_density(model)
        if meas is None:
            meas = kleingordon.measurement(model)
        s0 = gaussian.sample(prior, 1, config.seed)[0]
        noise_rng = np.random.Generator(np.random.PCG64(config.seed + 1))
        noise = np.sqrt(model.sigma_n2) * noise_rng.standard_normal(model.data_dim)
        return meas.response @ s0 + noise
    try:
        with open(config.initial_data, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(
            f"could not read initial data file {config.initial_data!r}: {exc}"
        ) from exc
    d0 = np.asarray(raw, dtype=float)
    if d0.shape != (model.data_dim,):
        raise ConfigError(
            f"initial data file {config.initial_data!r} holds shape {d0.shape}, "
            f"expected a flat list of length {model.data_dim}"
        )
    if not np.all(np.isfinite(d0)):
        raise ConfigError(
            f"initial data file {config.initial_data!r} holds non-finite entries"
        )
    return d0


def _exact_reference(config, mean, response, last_only=False):
    """R2 A(t_i) m_0 at every step time, from the closed-form rotation.

    Works through the times in row blocks, so no (2^N + 1, 4n - 2) state
    array exists.  With ``last_only`` the returned ``data`` holds only the
    final row; the energy drift still covers every time.
    """
    model = config.model
    times = config.dt * np.arange(config.steps + 1)
    data = np.empty((1 if last_only else len(times), model.data_dim))
    energy_0 = kleingordon.field_energy(model, mean)
    drift = 0.0
    block = max(1, REFERENCE_BLOCK_ENTRIES // model.signal_dim)
    for start in range(0, len(times), block):
        states = kleingordon.exact_evolve(model, mean, times[start : start + block])
        energies = kleingordon.field_energy(model, states)
        drift = max(drift, float(np.max(np.abs(energies - energy_0))))
        if not last_only:
            data[start : start + len(states)] = states @ response.T
    if last_only:
        data[0] = response @ states[-1]
    return ExactReference(times=times, data=data, energy_drift=drift)


def run_exact_reference(config, initial_data=None):
    """Evolve the initial posterior mean with the exact evolution and project to data.

    The reference below is what a perfect scheme would report: the posterior
    mean of the initial data, evolved by A(t) = A(dt)^i, seen through the
    noise-free response.  Energy along the evolved mean is conserved to
    roundoff, which :attr:`ExactReference.energy_drift` makes checkable.
    """
    model = config.model
    prior = kleingordon.prior_density(model)
    meas = kleingordon.measurement(model)
    if initial_data is None:
        initial_data = resolve_initial_data(config, prior, meas)
    mean = gaussian.posterior(prior, meas, initial_data).mean
    return _exact_reference(config, mean, meas.response)


def _first_nonfinite_step(columns):
    """(1-based step, name) of the first row of any named array that is not finite."""
    first = None
    for name, values in columns.items():
        bad = ~np.isfinite(values).reshape(len(values), -1).all(axis=1)
        if bad.any():
            row = int(np.argmax(bad))
            if first is None or row < first[0]:
                first = (row, name)
    return None if first is None else (first[0] + 1, first[1])


def run_ifd(config):
    """Run the iterated data update, then compute per-step diagnostics batched.

    The loop multiplies the data vector by M = 1 + dt M' and stores it,
    nothing else.  Afterwards, over all steps at once, the run computes the
    two relative entropies described in the module docstring (a constant
    covariance term, factored once, plus a quadratic form of the mean
    offset per step), the deviation from the exact reference, and the
    branch the entropic matcher would take on each step (the closed form is
    used for the update either way).  The diagnostics push the posterior
    through the linearized step 1 + dt L, which needs the stricter bound
    dt ||L|| < 1; a config can therefore pass validation (which checks the
    update matrix region dt < 1/w_{n-1}) and still be refused here with
    :class:`StepTooLarge`.  Scheme 'direct' has no such constraint.  A
    non-regular branch is announced once per run at warning level, naming
    its first step: it means the match Hessian is singular and the matched
    vector is the minimum-norm one, which for this data packing is the
    generic situation since the conjugate-alias pair makes the lifted
    response rank deficient.  Output that overflows to NaN or infinity
    raises :class:`NonFiniteOutput` naming the first such step.
    """
    model = config.model
    dt = config.dt
    prior = kleingordon.prior_density(model)
    meas = kleingordon.measurement(model)
    d0 = resolve_initial_data(config, prior, meas)
    # Its mean starts the exact reference; its covariance D does not depend
    # on the data and is the fixed posterior covariance of every step.
    post = gaussian.posterior(prior, meas, d0)
    reference = _exact_reference(
        config, post.mean, meas.response, last_only=config.scheme == SCHEME_DIRECT
    )

    direct_data = None
    if config.scheme in (SCHEME_DIRECT, SCHEME_BOTH):
        direct_data = kleingordon.direct_simulate(model, d0, config.total_time)
        if not np.all(np.isfinite(direct_data)):
            raise NonFiniteOutput("the direct endpoint exp(T M') d(0) is not finite")
    if config.scheme == SCHEME_DIRECT:
        deviation = float(np.linalg.norm(direct_data - reference.data[-1]))
        return RunResult(
            config=config,
            initial_data=d0,
            records=(),
            final_data=direct_data,
            final_deviation=deviation,
            reference_energy_drift=reference.energy_drift,
            direct_data=direct_data,
        )

    w = gaussian.wiener_filter(prior, meas)
    dyn = dynamics.AffineDynamics(
        generator=kleingordon.build_generator(model),
        drift=np.zeros(model.signal_dim),
        dt=dt,
    )
    g_step = dyn.step_matrix()
    a_step = kleingordon.exact_step(model, dt)
    # The evolved covariances are the same at every step: check and factor
    # them once.  Only the means below depend on the step.
    zero = np.zeros(model.signal_dim)
    exact = gaussian.GaussianDensity(
        zero, matfun.symmetrize(a_step @ post.cov @ a_step.T)
    )
    linear = gaussian.GaussianDensity(
        zero, matfun.symmetrize(g_step @ post.cov @ g_step.T)
    )
    m_update = kleingordon.build_update_matrix(model, dt)

    steps = config.steps
    data = np.empty((steps + 1, model.data_dim))
    data[0] = u = d0
    for i in range(1, steps + 1):
        u = m_update @ u
        data[i] = u

    # Overflow is reported by the checks below, not as numpy warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        means = data @ w.T
        prev, new = means[:-1], means[1:]
        exact_means = prev @ a_step.T
        linear_means = prev @ g_step.T
        bad = _first_nonfinite_step(
            {"exact": exact_means, "posterior": new, "linear": linear_means}
        )
        if bad is not None:
            raise InvalidInput(f"step {bad[0]}: {bad[1]} mean entries must be finite")
        kl_step = gaussian.kl_covariance_term(exact, post) + 0.5 * post.quadratic_form(
            exact_means - new
        )
        kl_evolution = gaussian.kl_covariance_term(
            exact, linear
        ) + 0.5 * linear.quadratic_form(prev @ (a_step - g_step).T)
        kl_cumulative = np.cumsum(kl_step)
        deviation = np.linalg.norm(data[1:] - reference.data[1:], axis=1)
        direct_gap = None
        if direct_data is not None:
            direct_gap = float(np.linalg.norm(u - direct_data))
    bad = _first_nonfinite_step(
        {
            "data": data[1:],
            "kl_step": kl_step,
            "kl_cumulative": kl_cumulative,
            "kl_evolution": kl_evolution,
            "exact_deviation": deviation,
        }
    )
    if bad is not None:
        raise NonFiniteOutput(
            f"step {bad[0]} of {steps}: {bad[1]} is not finite; the iterated "
            "update has overflowed"
        )
    if direct_gap is not None and not np.isfinite(direct_gap):
        raise NonFiniteOutput("the iterated-direct gap is not finite")

    # The matcher needs a positive definite evolved inverse covariance.  The
    # truncated form of dynamics.approx_inv_cov holds only for much smaller
    # dt than the update matrix tolerates, so the diagnostic uses the exact
    # inverse of the pushed-forward covariance; the branch taken is the same
    # for any positive definite choice (it is decided by the response rank).
    problem = matching.MatchProblem(
        evolved_mean=linear_means[0],
        evolved_inv_cov=linear.inv_cov(),
        new_prior=prior,
        new_meas=meas,
    )
    labels = matching.branches(problem, linear_means)
    first = next(
        (i for i, b in enumerate(labels, 1) if b != matching.BRANCH_REGULAR), None
    )
    if first is not None:
        logger.warning(
            "step %d: entropic matching took the %r branch; the match "
            "Hessian is singular and the minimum-norm data vector is "
            "used. Expected here: the packed coefficients (Y-1)/2 and "
            "(Y+1)/2 duplicate one conjugate pair.",
            first,
            labels[first - 1],
        )
    logger.info("branch counts over %d steps: %s", steps, dict(Counter(labels)))

    records = tuple(
        StepRecord(
            step=i,
            t=i * dt,
            data=data[i],
            kl_step=ks,
            kl_cumulative=kc,
            kl_evolution=ke,
            exact_deviation=dev,
            branch=branch,
        )
        for i, ks, kc, ke, dev, branch in zip(
            range(1, steps + 1),
            kl_step.tolist(),
            kl_cumulative.tolist(),
            kl_evolution.tolist(),
            deviation.tolist(),
            labels,
        )
    )
    return RunResult(
        config=config,
        initial_data=d0,
        records=records,
        final_data=u,
        final_deviation=records[-1].exact_deviation,
        reference_energy_drift=reference.energy_drift,
        direct_data=direct_data,
        direct_gap=direct_gap,
    )


@dataclass(frozen=True)
class SweepResult:
    """Log-log convergence data over a family of resolutions N.

    ``per_step_kl`` holds the first-step entropies, ``cumulative_kl`` the
    full-horizon sums.  Slopes are least-squares fits of log(quantity)
    against log(dt); the matching ``residual_*`` is the fit's sum of squared
    residuals.  The deviation from the exact reference saturates at an
    aliasing floor instead of decaying, so ``slope_deviation`` is reported
    but close to zero for resolved runs.
    """

    resolutions: tuple
    dts: np.ndarray
    per_step_kl: np.ndarray
    cumulative_kl: np.ndarray
    final_deviations: np.ndarray
    direct_gaps: np.ndarray
    slope_per_step: float
    residual_per_step: float
    slope_cumulative: float
    residual_cumulative: float
    slope_deviation: float
    residual_deviation: float
    slope_direct_gap: float
    residual_direct_gap: float


def _loglog_fit(dts, values, name):
    values = np.asarray(values, dtype=float)
    if np.any(values <= 0.0):
        raise InvalidInput(f"{name} must be positive for a log-log fit, got {values}")
    coeffs, residual_list, *_ = np.polyfit(
        np.log(dts), np.log(values), 1, full=True
    )
    residual = float(residual_list[0]) if len(residual_list) else 0.0
    return float(coeffs[0]), residual


def convergence_sweep(config, resolutions):
    """Re-run the config at each resolution N and fit convergence slopes.

    The per-step entropy is taken at the first step, where every resolution
    leaves the same state, so the fit isolates the dt-scaling of a single
    step; it falls off like dt^2.  The running sum over the full horizon
    falls off like dt, as does the gap between the iterated endpoint and the
    continuous-limit endpoint exp(T M').  Fewer than three distinct
    resolutions cannot support a slope estimate and raise
    :class:`InsufficientSweep`.
    """
    res_list = sorted({int(n) for n in resolutions})
    if len(res_list) < 3:
        raise InsufficientSweep(
            f"need at least 3 distinct resolutions for a sweep, got {res_list}"
        )
    dts = []
    per_step = []
    cumulative = []
    deviations = []
    gaps = []
    for n in res_list:
        run = run_ifd(
            dataclasses.replace(config, resolution=n, scheme=SCHEME_BOTH)
        )
        dts.append(run.config.dt)
        per_step.append(run.records[0].kl_step)
        cumulative.append(run.records[-1].kl_cumulative)
        deviations.append(run.final_deviation)
        gaps.append(run.direct_gap)
    dts = np.asarray(dts)
    slope_step, res_step = _loglog_fit(dts, per_step, "per-step entropy")
    slope_cum, res_cum = _loglog_fit(dts, cumulative, "cumulative entropy")
    slope_dev, res_dev = _loglog_fit(dts, deviations, "exact deviation")
    slope_gap, res_gap = _loglog_fit(dts, gaps, "direct gap")
    return SweepResult(
        resolutions=tuple(res_list),
        dts=dts,
        per_step_kl=np.asarray(per_step),
        cumulative_kl=np.asarray(cumulative),
        final_deviations=np.asarray(deviations),
        direct_gaps=np.asarray(gaps),
        slope_per_step=slope_step,
        residual_per_step=res_step,
        slope_cumulative=slope_cum,
        residual_cumulative=res_cum,
        slope_deviation=slope_dev,
        residual_deviation=res_dev,
        slope_direct_gap=slope_gap,
        residual_direct_gap=res_gap,
    )


def write_csv(result, path):
    """Write one row per step: step, t, kl_step, kl_cumulative, exact_deviation, branch, data_*.

    Floats are printed with %.17g so repeated runs of the same config give
    bit-identical files.
    """
    data_dim = result.config.model.data_dim
    header = "step,t,kl_step,kl_cumulative,exact_deviation,branch," + ",".join(
        f"data_{j}" for j in range(data_dim)
    )
    lines = [header]
    for rec in result.records:
        floats = [rec.t, rec.kl_step, rec.kl_cumulative, rec.exact_deviation]
        cells = [str(rec.step)]
        cells += [CSV_FLOAT_FORMAT % x for x in floats]
        cells.append(rec.branch)
        cells += [CSV_FLOAT_FORMAT % x for x in rec.data]
        lines.append(",".join(cells))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def report_dict(result):
    """JSON-ready run summary (includes the evolution-truncation entropy)."""
    out = {
        "config": config_dict(result.config),
        "steps": result.config.steps,
        "dt": result.config.dt,
        "final_data": [float(x) for x in result.final_data],
        "final_deviation": result.final_deviation,
        "reference_energy_drift": result.reference_energy_drift,
    }
    if result.records:
        counts = {}
        for rec in result.records:
            counts[rec.branch] = counts.get(rec.branch, 0) + 1
        out["branch_counts"] = counts
        out["kl_total"] = result.records[-1].kl_cumulative
        out["kl_step_final"] = result.records[-1].kl_step
        out["kl_evolution_total"] = float(
            sum(rec.kl_evolution for rec in result.records)
        )
    if result.direct_data is not None:
        out["direct_data"] = [float(x) for x in result.direct_data]
    if result.direct_gap is not None:
        out["direct_gap"] = result.direct_gap
    return out


def sweep_dict(sweep):
    """JSON-ready sweep summary."""
    return {
        "resolutions": list(sweep.resolutions),
        "dts": [float(x) for x in sweep.dts],
        "per_step_kl": [float(x) for x in sweep.per_step_kl],
        "cumulative_kl": [float(x) for x in sweep.cumulative_kl],
        "final_deviations": [float(x) for x in sweep.final_deviations],
        "direct_gaps": [float(x) for x in sweep.direct_gaps],
        "slopes": {
            "per_step_kl": sweep.slope_per_step,
            "cumulative_kl": sweep.slope_cumulative,
            "final_deviation": sweep.slope_deviation,
            "direct_gap": sweep.slope_direct_gap,
        },
        "fit_residuals": {
            "per_step_kl": sweep.residual_per_step,
            "cumulative_kl": sweep.residual_cumulative,
            "final_deviation": sweep.residual_deviation,
            "direct_gap": sweep.residual_direct_gap,
        },
    }


def write_report(result, path):
    """Write :func:`report_dict` as JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report_dict(result), fh, indent=2)
        fh.write("\n")
