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

The step-invariant algebra runs one Fourier class at a time
(:func:`kleingordon.fourier_classes`, gathered by
:func:`kleingordon.class_index`), one stacked numpy call per block shape,
through the library's functions of class stacks: D, its spectrum and
W = D R^T N^-1 from :func:`gaussian.posterior_blocks`, the KL covariance
terms from :func:`gaussian.kl_covariance_blocks`, the quadratic forms of
the mean offsets from :func:`gaussian.quadratic_form_blocks`, the matcher
branch of every step from :func:`matching.branches`, the positive
definiteness tests, which compare the smallest eigenvalue over all classes
with the largest, from :func:`matfun.require_pd`, and M' from
:func:`kleingordon.update_generator_blocks`.  A(dt) and 1 + dt L come in
closed form from their 2x2 blocks on each (phi, chi) pair.  The prior
enters as its variances and the noise as sigma_n2; no dense density,
measurement, generator, exact step or M' is built.  What does not depend
on dt (the posterior, M' and exp(T M') d(0)) is built once per run and
once per :func:`convergence_sweep`.  The update matrix M = 1 + dt M', the
loop, the initial draw and the exact reference stay dense; M' keeps the
summation order of the dense chain R2 L Phi R2^T, so the ``data``
trajectory is bit for bit that of a dense run at the sizes the tests pin.

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

import json
import logging
import math
import sys
from collections import Counter
from typing import NamedTuple

import numpy as np

from . import gaussian, kleingordon, matching, matfun
from ._frozen import Frozen
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

# Largest dense float64 matrix a model may need, in bytes.  Its largest fit
# in a square of max(4n - 2, 2(Y + 2)): a run holds the lifted response R2
# under every scheme and the update matrix M when it steps, and the dense
# generator L, exact step A(dt) and M' of the library are that size too.
# Configs whose model exceeds this are refused at load time instead of
# failing in numpy.
MAX_MATRIX_BYTES = 1 << 27


class RunConfig(Frozen):
    """Validated run parameters: model, horizon T, resolution N, seed, scheme.

    The step count is 2^N.  Construction checks that 2^N and the step
    dt = T/2^N are finite, normal floats, as the report prints both.  Under
    schemes 'iterated' and 'both', which hold a trajectory and step with
    the update matrix, it also checks that the (2^N + 1) x data_dim
    trajectory fits in ``MAX_TRAJECTORY_BYTES`` and that dt lies inside the
    validity region dt ||L|| < 1 of the linearized step 1 + dt L that the
    per-step diagnostics take, dt < :attr:`KGModel.dt_limit`
    = 1/w_{n-1}^2.  Scheme 'direct' needs neither.  Under every scheme the
    model's largest dense matrix must fit in ``MAX_MATRIX_BYTES``.
    :meth:`replace` gives a changed copy through the same checks.
    """

    _fields = ("model", "total_time", "resolution", "seed", "initial_data", "scheme")
    __slots__ = _fields

    def __init__(
        self,
        model,
        total_time,
        resolution,
        seed,
        initial_data=GENERATE,
        scheme=SCHEME_ITERATED,
    ):
        t = float(total_time)
        if not (np.isfinite(t) and t > 0.0):
            raise ConfigError(f"config field 'T' must be positive, got {total_time!r}")
        if not isinstance(resolution, (int, np.integer)) or resolution < 1:
            raise ConfigError(
                f"config field 'N' must be an integer >= 1, got {resolution!r}"
            )
        if not isinstance(seed, (int, np.integer)) or seed < 0:
            raise ConfigError(
                f"config field 'seed' must be a nonnegative integer, got {seed!r}"
            )
        if not isinstance(initial_data, str) or not initial_data:
            raise ConfigError(
                "config field 'initial_data' must be 'generate' or a file path, "
                f"got {initial_data!r}"
            )
        if scheme not in SCHEMES:
            raise ConfigError(
                f"config field 'scheme' must be one of {SCHEMES}, got {scheme!r}"
            )
        self._set(
            model=model,
            total_time=t,
            resolution=int(resolution),
            seed=int(seed),
            initial_data=initial_data,
            scheme=scheme,
        )
        matrix_dim = max(model.signal_dim, model.data_dim)
        if 8 * matrix_dim**2 > MAX_MATRIX_BYTES:
            raise ConfigError(
                "config fields 'n_modes' and 'Y' must keep the model's largest "
                f"dense matrix, {matrix_dim} x {matrix_dim} float64, within "
                f"{MAX_MATRIX_BYTES} bytes, got n_modes = {model.n_modes!r} "
                f"and Y = {model.pixels!r}"
            )
        # Tested on the exponent, so that no 2^N is formed for an absurd N.
        if (
            self.resolution >= sys.float_info.max_exp
            or math.ldexp(t, -self.resolution) < sys.float_info.min
        ):
            raise ConfigError(
                "config fields 'T' and 'N' must keep 2^N and dt = T/2^N finite, "
                f"normal floats, got T = {t!r} and N = {self.resolution!r}"
            )
        if scheme == SCHEME_DIRECT:
            return
        # 2^N + 1 <= max_rows, i.e. 2^N <= max_rows - 1.
        max_rows = MAX_TRAJECTORY_BYTES // (8 * model.data_dim)
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


class ExactReference(NamedTuple):
    """Exact trajectory R2 A(t) m_0 of the initial posterior mean.

    ``data`` has one row per entry of ``times``, the times a run compares
    against: every step time, or t = 0 and T for scheme 'direct'.
    ``energy_drift`` is the largest change of the field energy over those
    times: roundoff-level, as the exact step conserves it, or NaN on overflow.
    """

    times: np.ndarray
    data: np.ndarray
    energy_drift: float


class RunResult(NamedTuple):
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


def _is_number(value):
    """Whether a JSON value is a number; booleans, which Python counts as ints, are not."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def parse_config(mapping, scheme=None):
    """Build a :class:`RunConfig` from a flat dict of exactly the documented keys.

    Unknown or missing keys raise :class:`ConfigError` naming them, as do
    invalid values (delegated to the model and config validators).  A
    ``scheme`` argument replaces the mapping's scheme, whose value is then
    not used.
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
    numbers = {}
    for key in ("mu", "beta", "sigma_n2", "T"):
        if not _is_number(mapping[key]):
            raise ConfigError(
                f"config field {key!r} must be a number, got {mapping[key]!r}"
            )
        try:
            numbers[key] = float(mapping[key])
        except OverflowError:
            raise ConfigError(
                f"config field {key!r} is an integer too large for a float"
            ) from None
    try:
        model = KGModel(
            n_modes=mapping["n_modes"],
            pixels=mapping["Y"],
            mu=numbers["mu"],
            beta=numbers["beta"],
            sigma_n2=numbers["sigma_n2"],
        )
    except InfodynError as exc:
        raise ConfigError(str(exc)) from exc
    return RunConfig(
        model=model,
        total_time=numbers["T"],
        resolution=mapping["N"],
        seed=mapping["seed"],
        initial_data=mapping["initial_data"],
        scheme=mapping["scheme"] if scheme is None else scheme,
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


def load_config(path, scheme=None):
    """Read and validate a JSON config file (``scheme`` as in :func:`parse_config`).

    A file that is not UTF-8 JSON raises :class:`ConfigError`; one that
    cannot be opened raises :class:`OSError`.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except ValueError as exc:
        # JSONDecodeError, UnicodeDecodeError, or an integer literal past
        # Python's digit limit.
        raise ConfigError(f"config file {path!r} is not valid UTF-8 JSON: {exc}") from exc
    return parse_config(raw, scheme)


def resolve_initial_data(config, response=None):
    """Initial packed data vector of a run.

    For ``initial_data = 'generate'`` a field state is drawn from the thermal
    prior with the config seed, pushed through the response, and white noise
    of variance sigma_n2 from the stream seeded with seed + 1 is added.  The
    prior is diagonal, so the draw scales standard normals by the square
    roots of :func:`kleingordon.prior_variances`, which is bit for bit the
    draw :func:`gaussian.sample` makes from the dense prior density.  Any
    other value is read as a UTF-8 JSON file holding a flat list of
    2(Y + 2) finite numbers (not booleans); anything else raises
    :class:`ConfigError`.  ``response`` is the model's lifted response; it
    is built here when the caller has not built it.
    """
    model = config.model
    if config.initial_data == GENERATE:
        if response is None:
            response = kleingordon.lift_response(kleingordon.build_response(model))
        rng = np.random.Generator(np.random.PCG64(config.seed))
        s0 = rng.standard_normal(model.signal_dim) * np.sqrt(
            kleingordon.prior_variances(model)
        )
        noise_rng = np.random.Generator(np.random.PCG64(config.seed + 1))
        noise = np.sqrt(model.sigma_n2) * noise_rng.standard_normal(model.data_dim)
        return response @ s0 + noise
    try:
        with open(config.initial_data, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(
            f"could not read initial data file {config.initial_data!r}: {exc}"
        ) from exc
    if not (isinstance(raw, list) and all(_is_number(x) for x in raw)):
        raise ConfigError(
            f"initial data file {config.initial_data!r} must hold a flat list "
            f"of length {model.data_dim} of numbers"
        )
    if len(raw) != model.data_dim:
        raise ConfigError(
            f"initial data file {config.initial_data!r} holds {len(raw)} numbers, "
            f"expected a flat list of length {model.data_dim}"
        )
    try:
        d0 = np.array(raw, dtype=float)
    except OverflowError:
        raise ConfigError(
            f"initial data file {config.initial_data!r} holds an integer too "
            "large for a float"
        ) from None
    if not np.all(np.isfinite(d0)):
        raise ConfigError(
            f"initial data file {config.initial_data!r} holds non-finite entries"
        )
    return d0


def _exact_reference(model, mean, response, times):
    """R2 A(t) m_0 and its energy drift at exactly ``times``, by closed-form rotation.

    Works through the times in row blocks, so no (len(times), 4n - 2)
    state array exists.
    """
    data = np.empty((len(times), model.data_dim))
    energy_0 = kleingordon.field_energy(model, mean)
    drift = 0.0
    block = max(1, REFERENCE_BLOCK_ENTRIES // model.signal_dim)
    for start in range(0, len(times), block):
        states = kleingordon.exact_evolve(model, mean, times[start : start + block])
        energies = kleingordon.field_energy(model, states)
        # np.maximum, unlike max(), keeps a NaN from an overflowed energy.
        drift = np.maximum(drift, np.max(np.abs(energies - energy_0)))
        data[start : start + len(states)] = states @ response.T
    return ExactReference(times=times, data=data, energy_drift=float(drift))


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


def _columns(blocks):
    """(steps, dim) array of per-step vectors held as (k, a, steps) class blocks."""
    return np.concatenate([b.reshape(-1, b.shape[-1]) for b in blocks]).T


def _direct_endpoint(total_time, m_prime, classes, d0):
    """The continuous-limit endpoint exp(T M') d(0), one Fourier class at a time.

    M' couples only the data coefficients of one class, so exp(T M') is
    block diagonal over the classes' data indices; ``m_prime`` holds those
    blocks.  Classes without data indices have no block.  A T M' that has
    overflowed raises :class:`NonFiniteOutput`.
    """
    t_m_prime = [total_time * block for block in m_prime]
    if not all(np.all(np.isfinite(block)) for block in t_m_prime):
        raise NonFiniteOutput("T M' is not finite; the run has overflowed")
    out = np.zeros(len(d0))
    for (_, dat), block in zip(classes, t_m_prime):
        if dat.shape[1]:
            out[dat] = (matfun.expm_general(block) @ d0[dat][:, :, None])[:, :, 0]
    return out


class _Setup(NamedTuple):
    """The part of a run that does not depend on dt, built once per model and initial data.

    ``classes`` are the model's Fourier classes, ``response`` its lifted
    response R2 and ``initial_data`` the data vector d(0).  ``cov``,
    ``spectrum`` and ``filter`` hold the class blocks of the posterior
    covariance D, its spectrum and the Wiener filter W
    (:func:`gaussian.posterior_blocks`), and ``mean`` the posterior mean.
    ``m_prime`` holds the class blocks of M'
    (:func:`kleingordon.update_generator_blocks`) and ``direct_data`` the
    direct endpoint exp(T M') d(0), or None when it was not asked for.
    """

    classes: list
    response: np.ndarray
    initial_data: np.ndarray
    cov: list
    spectrum: list
    filter: list
    mean: np.ndarray
    m_prime: list
    direct_data: np.ndarray


def _setup(config, direct):
    """Build the :class:`_Setup` of ``config``, with the direct endpoint if ``direct``.

    It depends on the model, the seed, the initial data and T, not on N or
    the scheme.
    """
    model = config.model
    response = kleingordon.lift_response(kleingordon.build_response(model))
    d0 = resolve_initial_data(config, response)
    classes = kleingordon.fourier_classes(model)
    # Overflow is refused by the checks of the posterior and of the direct
    # endpoint, not as numpy warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        if logger.isEnabledFor(logging.INFO):
            for part in (kleingordon.PART_PHI, kleingordon.PART_CHI):
                logger.info(
                    "data-space Gram condition number (%s part): %.6g",
                    part,
                    kleingordon.data_gram_condition(model, part),
                )
        variances = kleingordon.prior_variances(model)
        # The posterior, with the diagonal prior as its variances and the
        # white noise as sigma_n2.  D and W do not depend on the data and
        # serve every step; the mean W d0 (the prior mean is zero) starts
        # the exact reference.
        n_inv = 1.0 / model.sigma_n2
        rt_n_inv, info = [], []
        for sig, dat in classes:
            r = response[kleingordon.class_index(dat, sig)]
            rt_n_inv.append(np.swapaxes(r, -1, -2) * n_inv)
            block = rt_n_inv[-1] @ r
            diag = np.arange(sig.shape[1])
            block[:, diag, diag] += 1.0 / variances[sig]
            info.append(matfun.symmetric_part(block))
        cov, spectrum, filters = gaussian.posterior_blocks(info, rt_n_inv)
        mean = np.zeros(model.signal_dim)
        for (sig, dat), f in zip(classes, filters):
            mean[sig] = (f @ d0[dat][:, :, None])[:, :, 0]
        m_prime = kleingordon.update_generator_blocks(model, classes, response, variances)
        direct_data = (
            _direct_endpoint(config.total_time, m_prime, classes, d0) if direct else None
        )
    return _Setup(
        classes=classes,
        response=response,
        initial_data=d0,
        cov=cov,
        spectrum=spectrum,
        filter=filters,
        mean=mean,
        m_prime=m_prime,
        direct_data=direct_data,
    )


def _iterate(config, setup, reference):
    """Per-step columns of :class:`RunResult`, means and branch labels, unchecked.

    The step-invariant algebra runs class by class; only the loop and the
    deviation from the reference are dense.
    """
    model = config.model
    dt = config.dt
    classes, cov = setup.classes, setup.cov
    # L and A(dt) couple each packed phi component only with its chi
    # partner, so their 2x2 pair blocks give their class blocks.  The
    # config's dt < dt_limit keeps dt ||L|| < 1.
    g_pairs = np.eye(2) + dt * kleingordon.generator_pairs(model)
    a_pairs = kleingordon.exact_step_pairs(model, dt)
    a_step = [kleingordon.class_blocks(a_pairs, sig) for sig, _ in classes]
    g_step = [kleingordon.class_blocks(g_pairs, sig) for sig, _ in classes]
    # The evolved covariances are the same at every step: check and factor
    # them once.  Only the means below depend on the step.
    exact = [matfun.symmetric_part(a @ d @ np.swapaxes(a, -1, -2)) for a, d in zip(a_step, cov)]
    linear = [matfun.symmetric_part(g @ d @ np.swapaxes(g, -1, -2)) for g, d in zip(g_step, cov)]
    matfun.require_pd([np.linalg.eigvalsh(c) for c in exact], "exactly evolved covariance")
    linear_spectra = [np.linalg.eigh(c) for c in linear]
    matfun.require_pd([w for w, _ in linear_spectra], "linearly evolved covariance")
    m_update = np.eye(model.data_dim)
    for (_, dat), block in zip(classes, setup.m_prime):
        m_update[kleingordon.class_index(dat, dat)] += dt * block

    data = np.empty((config.steps + 1, model.data_dim))
    data[0] = u = setup.initial_data
    for i in range(1, config.steps + 1):
        u = m_update @ u
        data[i] = u

    # Per class, the posterior means W u of every stored u, as columns.
    means = [f @ data.T[dat] for f, (_, dat) in zip(setup.filter, classes)]
    prev = [m[..., :-1] for m in means]
    new = [m[..., 1:] for m in means]
    exact_means = [a @ m for a, m in zip(a_step, prev)]
    linear_means = [g @ m for g, m in zip(g_step, prev)]
    kl_step = gaussian.kl_covariance_blocks(exact, cov, setup.spectrum)
    kl_step += 0.5 * gaussian.quadratic_form_blocks(
        setup.spectrum, [e - n for e, n in zip(exact_means, new)]
    )
    kl_evolution = gaussian.kl_covariance_blocks(exact, linear, linear_spectra)
    kl_evolution += 0.5 * gaussian.quadratic_form_blocks(
        linear_spectra, [(a - g) @ m for a, g, m in zip(a_step, g_step, prev)]
    )
    columns = {
        "data": data[1:],
        "kl_step": kl_step,
        "kl_cumulative": np.cumsum(kl_step),
        "kl_evolution": kl_evolution,
        "exact_deviation": np.linalg.norm(data[1:] - reference.data[1:], axis=1),
    }

    step_means = {
        "posterior mean": _columns(new),
        "exact mean": _columns(exact_means),
        "linear mean": _columns(linear_means),
    }
    # The matcher's evolved density is the linearly pushed-forward posterior
    # factored above, not its first-order truncation
    # D^-1 - dt (D^-1 L + L^T D^-1), which can lose positive definiteness at
    # steps the update matrix still accepts.  The branch taken is the same
    # for any positive definite choice (it is decided by the response rank).
    # The thermal prior has zero mean, so the prior pull vanishes.
    branch = matching.branches(
        setup.filter,
        [matfun.spectral_inverse(w, v) @ f for (w, v), f in zip(linear_spectra, setup.filter)],
        1.0 / min(w.min() for w, _ in linear_spectra),
        linear_means,
        [np.zeros(m.shape[:-1] + (1,)) for m in linear_means],
    )
    return columns, step_means, branch


def run_ifd(config):
    """Run the iterated data update, then compute per-step diagnostics batched.

    The class blocks of the generator M' are built once; the update
    M = 1 + dt M' and the direct endpoint exp(T M') d(0) both come from
    them.  The loop multiplies the data vector by M and stores it, nothing
    else.  Afterwards, over all steps at once, the run computes the two
    relative entropies described in the module docstring (a constant
    covariance term, factored once, plus a quadratic form of the mean
    offset per step), the deviation from the exact reference, and the
    branch the entropic matcher would take on each step (the closed form is
    used for the update either way), each held as a column of the result.
    A covariance that fails the positive definiteness test is refused with
    :class:`NotPositiveDefinite`.  A non-regular branch is
    announced once per run at warning level, naming its first step: it
    means the match Hessian is singular and the matched vector is the
    minimum-norm one, which for this data packing is the generic situation
    since the conjugate-alias pair makes the lifted response rank
    deficient.  If anything the result holds, or a per-step mean,
    overflowed to NaN or infinity, the run raises :class:`NonFiniteOutput`
    naming the first such step.  The exact reference and its energy drift
    cover every step time, or only t = 0 and T under scheme 'direct'.
    """
    result = _run(config, _setup(config, direct=config.scheme != SCHEME_ITERATED))
    _warn_not_regular(result)
    return result


def _run(config, setup):
    """:func:`run_ifd` of ``config`` from its :class:`_Setup`."""
    model = config.model
    direct = config.scheme == SCHEME_DIRECT
    # Overflow is refused by the checks below, not as numpy warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        if direct:
            times = np.array([0.0, config.total_time])
        else:
            times = config.dt * np.arange(config.steps + 1)
        reference = _exact_reference(
            model, setup.mean, setup.response, times
        )
        direct_data, direct_gap = setup.direct_data, None
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
            columns, step_means, branch = _iterate(config, setup, reference)
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

    branch_counts = dict(Counter(branch))
    if not direct:
        logger.info("branch counts over %d steps: %s", config.steps, branch_counts)
    return RunResult(
        config=config,
        initial_data=setup.initial_data,
        **columns,
        branch=branch,
        branch_counts=branch_counts,
        final_data=final_data,
        final_deviation=final_deviation,
        reference_energy_drift=reference.energy_drift,
        direct_data=direct_data,
        direct_gap=direct_gap,
    )


def _warn_not_regular(result):
    """Warn at the first step of ``result`` off the regular matcher branch; return whether it has one."""
    first = next(
        (i for i, b in enumerate(result.branch, 1) if b != matching.BRANCH_REGULAR), None
    )
    if first is not None:
        logger.warning(
            "N = %d, step %d: entropic matching took the %r branch; the match "
            "Hessian is singular and the minimum-norm data vector is used. "
            "Expected here: the packed coefficients (Y-1)/2 and (Y+1)/2 "
            "duplicate one conjugate pair.",
            result.config.resolution,
            first,
            result.branch[first - 1],
        )
    return first is not None


class SweepResult(NamedTuple):
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
    :class:`InsufficientSweep`.  Every resolution's config is validated
    before the first run.  The part of a run that does not depend on dt,
    including M' and exp(T M') d(0), is built once and serves every run.
    A non-regular matcher branch is announced once per sweep, at the first
    resolution that takes one, as :func:`run_ifd` announces it once per run.
    """
    res_list = sorted({int(n) for n in resolutions})
    if len(res_list) < 3:
        raise InsufficientSweep(
            f"need at least 3 distinct resolutions for a sweep, got {res_list}"
        )
    configs = [config.replace(resolution=n, scheme=SCHEME_BOTH) for n in res_list]
    setup = _setup(config, direct=True)
    dts = []
    per_step = []
    cumulative = []
    deviations = []
    gaps = []
    warned = False
    for run_config in configs:
        run = _run(run_config, setup)
        warned = warned or _warn_not_regular(run)
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


def write_json(payload, path):
    """Write ``payload`` as UTF-8 JSON, indented by 2, with a trailing newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def write_report(result, path):
    """Write :func:`report_dict` as JSON (:func:`write_json`)."""
    write_json(report_dict(result), path)
