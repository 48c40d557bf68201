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
the exactly evolved initial posterior mean.  It does not vanish with dt; it
saturates at a config-dependent floor with two causes.  Where distinct field
modes share data coefficients (aliasing), no data-space flow can track the
exact reference.  And the closed-form update is off on the mode (Y-1)/2,
whose conjugate pair the packing stores twice, whether or not any mode
aliases: at n_modes 16, Y 31, T 0.05, seed 0, where none does, the posterior
mean W u_T misses A(T) m_0 by 1.521, 1.506 and 1.503 at N = 6, 8 and 10
(|A(T) m_0| = 9.51), nearly all of it in that mode.

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

CSV_FLOAT_FORMAT = "%.17g"

# The exact reference is evaluated in row blocks of at most this many state
# entries, so its transient arrays stay a few MB whatever 2^N is.
REFERENCE_BLOCK_ENTRIES = 1 << 18

# Largest (2^N + 1) x data_dim float64 trajectory a run may hold, in bytes.
# A run stores the iterated and the exact-reference trajectory plus a few
# per-step columns, so its memory is a small multiple of this.  Configs
# whose N exceeds it are refused at load time instead of failing in numpy.
MAX_TRAJECTORY_BYTES = 1 << 30


@dataclass(frozen=True)
class RunConfig:
    """Validated run parameters: model, horizon T, resolution N, seed, scheme.

    The step count is 2^N.  Construction checks that the (2^N + 1) x data_dim
    trajectory fits in ``MAX_TRAJECTORY_BYTES`` and that the step dt = T/2^N
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
        # 2^N + 1 <= max_rows, i.e. 2^N <= max_rows - 1, tested on the bit
        # length so that no 2^N is formed for an absurd N.
        max_rows = MAX_TRAJECTORY_BYTES // (8 * self.model.data_dim)
        max_resolution = (max_rows - 1).bit_length() - 1
        if self.resolution > max_resolution:
            raise ConfigError(
                f"config field 'N' must be at most {max_resolution}, so that the "
                f"(2^N + 1) x {self.model.data_dim} trajectory fits in "
                f"{MAX_TRAJECTORY_BYTES} bytes, got {self.resolution!r}"
            )
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
class ExactReference:
    """Exact trajectory R2 A(t) m_0 of the initial posterior mean.

    ``data`` has shape (2^N + 1, data_dim) including the t = 0 row
    R2 m_0.  ``energy_drift`` is the largest absolute change of the field
    energy along the evolved mean; the exact step conserves it, so this is
    a roundoff-level number, or NaN if the energy overflowed.
    """

    times: np.ndarray
    data: np.ndarray
    energy_drift: float


@dataclass(frozen=True)
class RunResult:
    """Outcome of :func:`run_ifd`: per-step columns and end-of-run values.

    Entry i - 1 of each column belongs to step i, at time t = i dt.
    ``data`` is the (2^N, data_dim) trajectory after each step (the vector
    before the first is ``initial_data``), ``branch`` holds the matcher
    branch label of each step and ``branch_counts`` their tally.  Scheme
    'direct' takes no steps, so its columns are empty.  ``direct_data`` and
    ``direct_gap`` are None unless the scheme includes the direct endpoint
    (the gap additionally needs the iterated endpoint, i.e. scheme 'both').
    Every number a result holds is finite.
    """

    config: RunConfig
    initial_data: np.ndarray
    data: np.ndarray
    kl_step: np.ndarray
    kl_cumulative: np.ndarray
    kl_evolution: np.ndarray
    exact_deviation: np.ndarray
    branch: tuple
    branch_counts: dict
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
        # np.maximum, unlike max(), keeps a NaN from an overflowed energy.
        drift = np.maximum(drift, np.max(np.abs(energies - energy_0)))
        if not last_only:
            data[start : start + len(states)] = states @ response.T
    if last_only:
        data[0] = response @ states[-1]
    return ExactReference(times=times, data=data, energy_drift=float(drift))


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


def _refuse_nonfinite(steps, columns, values):
    """Raise :class:`NonFiniteOutput` naming the first step or value that is not finite.

    ``columns`` hold one row per step; None entries of ``values`` are skipped.
    """
    first = None
    for name, column in columns.items():
        finite = np.isfinite(column)
        bad = np.flatnonzero(~(finite.all(axis=1) if finite.ndim == 2 else finite))
        if bad.size and (first is None or bad[0] < first[0]):
            first = (int(bad[0]), name)
    if first is not None:
        raise NonFiniteOutput(
            f"step {first[0] + 1} of {steps}: {first[1]} is not finite; "
            "the run has overflowed"
        )
    for name, value in values.items():
        if value is not None and not np.all(np.isfinite(value)):
            raise NonFiniteOutput(f"{name} is not finite; the run has overflowed")


def _iterate(config, prior, meas, post, d0, reference):
    """Per-step columns of :class:`RunResult`, means and branch labels, unchecked."""
    model = config.model
    dt = config.dt
    w = gaussian.wiener_filter(prior, meas)
    g_step = dynamics.AffineDynamics(
        generator=kleingordon.build_generator(model), dt=dt
    ).step_matrix()
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

    data = np.empty((config.steps + 1, model.data_dim))
    data[0] = u = d0
    for i in range(1, config.steps + 1):
        u = m_update @ u
        data[i] = u

    means = data @ w.T
    prev, new = means[:-1], means[1:]
    exact_means = prev @ a_step.T
    linear_means = prev @ g_step.T
    kl_step = gaussian.kl_covariance_term(exact, post) + 0.5 * post.quadratic_form(
        exact_means - new
    )
    kl_evolution = gaussian.kl_covariance_term(
        exact, linear
    ) + 0.5 * linear.quadratic_form(prev @ (a_step - g_step).T)
    columns = {
        "data": data[1:],
        "kl_step": kl_step,
        "kl_cumulative": np.cumsum(kl_step),
        "kl_evolution": kl_evolution,
        "exact_deviation": np.linalg.norm(data[1:] - reference.data[1:], axis=1),
    }

    step_means = {
        "posterior mean": new,
        "exact mean": exact_means,
        "linear mean": linear_means,
    }
    # The matcher's evolved density is the linearly pushed-forward posterior
    # factored above, not its first-order truncation
    # D^-1 - dt (D^-1 L + L^T D^-1), which can lose positive definiteness at
    # steps the update matrix still accepts.  The branch taken is the same
    # for any positive definite choice (it is decided by the response rank).
    # The new setup is the run's own, so its W and D are passed in.
    branch = matching.branches(w, post.cov, prior, linear, linear_means)
    return columns, step_means, tuple(branch)


def run_ifd(config):
    """Run the iterated data update, then compute per-step diagnostics batched.

    The loop multiplies the data vector by M = 1 + dt M' and stores it,
    nothing else.  Afterwards, over all steps at once, the run computes the
    two relative entropies described in the module docstring (a constant
    covariance term, factored once, plus a quadratic form of the mean
    offset per step), the deviation from the exact reference, and the
    branch the entropic matcher would take on each step (the closed form is
    used for the update either way), each held as a column of the result.
    The diagnostics push the posterior through the linearized step
    1 + dt L, which needs the stricter bound dt ||L|| < 1; a config can
    therefore pass validation (which checks the update matrix region
    dt < 1/w_{n-1}) and still be refused here with :class:`StepTooLarge`.
    Scheme 'direct' has no such constraint.  A non-regular branch is
    announced once per run at warning level, naming its first step: it
    means the match Hessian is singular and the matched vector is the
    minimum-norm one, which for this data packing is the generic situation
    since the conjugate-alias pair makes the lifted response rank
    deficient.  If anything the result holds, or a per-step mean,
    overflowed to NaN or infinity, the run raises :class:`NonFiniteOutput`
    naming the first such step.
    """
    model = config.model
    prior = kleingordon.prior_density(model)
    meas = kleingordon.measurement(model)
    d0 = resolve_initial_data(config, prior, meas)
    # Its mean starts the exact reference; its covariance D does not depend
    # on the data and is the fixed posterior covariance of every step.
    post = gaussian.posterior(prior, meas, d0)
    direct = config.scheme == SCHEME_DIRECT
    # Overflow is refused by the one check below, not as numpy warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        reference = _exact_reference(config, post.mean, meas.response, last_only=direct)
        direct_data = direct_gap = None
        if config.scheme != SCHEME_ITERATED:
            direct_data = kleingordon.direct_simulate(model, d0, config.total_time)
        if direct:
            # No steps: every per-step column is empty.
            columns = dict.fromkeys(
                ("kl_step", "kl_cumulative", "kl_evolution", "exact_deviation"),
                np.empty(0),
            )
            columns["data"] = np.empty((0, model.data_dim))
            step_means, branch = {}, ()
            final_data = direct_data
            final_deviation = float(np.linalg.norm(direct_data - reference.data[-1]))
        else:
            columns, step_means, branch = _iterate(
                config, prior, meas, post, d0, reference
            )
            final_data = columns["data"][-1]
            final_deviation = float(columns["exact_deviation"][-1])
        if config.scheme == SCHEME_BOTH:
            direct_gap = float(np.linalg.norm(final_data - direct_data))
    _refuse_nonfinite(
        config.steps,
        {**columns, **step_means},
        {
            "the direct endpoint exp(T M') d(0)": direct_data,
            "the final deviation from the exact reference": final_deviation,
            "the reference energy drift": reference.energy_drift,
            "the iterated-direct gap": direct_gap,
        },
    )

    first = next(
        (i for i, b in enumerate(branch, 1) if b != matching.BRANCH_REGULAR), None
    )
    if first is not None:
        logger.warning(
            "step %d: entropic matching took the %r branch; the match "
            "Hessian is singular and the minimum-norm data vector is "
            "used. Expected here: the packed coefficients (Y-1)/2 and "
            "(Y+1)/2 duplicate one conjugate pair.",
            first,
            branch[first - 1],
        )
    branch_counts = dict(Counter(branch))
    if not direct:
        logger.info("branch counts over %d steps: %s", config.steps, branch_counts)
    return RunResult(
        config=config,
        initial_data=d0,
        **columns,
        branch=branch,
        branch_counts=branch_counts,
        final_data=final_data,
        final_deviation=final_deviation,
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
    residuals.  The deviation from the exact reference saturates at a floor
    (aliasing, and the closed form's error on the duplicated conjugate pair;
    see the module docstring) instead of decaying, so ``slope_deviation`` is
    reported but close to zero for resolved runs.
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
        per_step.append(run.kl_step[0])
        cumulative.append(run.kl_cumulative[-1])
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


def _write_rows(result, path, header, fmt, columns):
    """Write ``header``, then ``fmt % (step, t, *cells)`` for each step, as it comes.

    ``columns`` are sequences with one cell per step.
    """
    steps = np.arange(1, len(result.kl_step) + 1)
    rows = zip(steps.tolist(), (steps * result.config.dt).tolist(), *columns)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        fh.writelines(fmt % row for row in rows)


def write_csv(result, path):
    """Write one row per step: step, t, kl_step, kl_cumulative, exact_deviation, branch, data_*.

    Floats are printed with %.17g so repeated runs of the same config give
    bit-identical files.  Scheme 'direct' writes the header only.
    """
    data_dim = result.config.model.data_dim
    header = "step,t,kl_step,kl_cumulative,exact_deviation,branch," + ",".join(
        f"data_{j}" for j in range(data_dim)
    )
    fmt = ",".join(
        ["%d", *[CSV_FLOAT_FORMAT] * 4, "%s", *[CSV_FLOAT_FORMAT] * data_dim]
    )
    columns = [
        result.kl_step.tolist(),
        result.kl_cumulative.tolist(),
        result.exact_deviation.tolist(),
        result.branch,
        *result.data.T.tolist(),
    ]
    _write_rows(result, path, header, fmt + "\n", columns)


def write_deviation_csv(result, path):
    """Write one row per step: step, t, deviation (the ``exact_deviation`` column)."""
    fmt = f"%d,{CSV_FLOAT_FORMAT},{CSV_FLOAT_FORMAT}\n"
    columns = [result.exact_deviation.tolist()]
    _write_rows(result, path, "step,t,deviation", fmt, columns)


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
    if result.kl_step.size:
        out["branch_counts"] = result.branch_counts
        out["kl_total"] = float(result.kl_cumulative[-1])
        out["kl_step_final"] = float(result.kl_step[-1])
        out["kl_evolution_total"] = float(np.sum(result.kl_evolution))
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
