"""Data-space simulation, exact-reference comparison and convergence sweep.

A run evolves the packed data vector u by the closed-form update matrix
M = 1 + dt M' over 2^N equal steps of total time T.  The trajectory is the
powers of M applied to d(0), and nothing else.  The per-step diagnostics
are computed after it, batched over the stacked trajectory, from one root
of the posterior covariance D: only the means change from step to step.
Each step gets two relative entropies measured against the exactly evolved
posterior N(A m, A D A^T), where m is the posterior mean of the previous
data vector and A the exact one-step evolution:

``kl_step``
    against the posterior N(W u'', D) at the updated data vector, i.e. the
    information error of one full scheme step (evolve, then re-measure).
    Shrinks like dt^2 per step, so its running sum shrinks like dt.
``kl_evolution``
    against the linearly evolved posterior N((1 + dt L) m, ...), isolating
    the truncation of the evolution operator alone.  Means agree to O(dt^2)
    and covariances to O(dt^2), so this entropy falls off like dt^4; it is
    reported for diagnosis and kept out of the convergence criteria.

A run works one Fourier class at a time
(:func:`kleingordon.fourier_classes`), one stacked numpy call per block
shape, and builds no dense response, density, measurement, generator,
exact step, M' or M.  The response enters as its class blocks R_c
(:func:`kleingordon.response_blocks`), the prior as its variances, the
noise as sigma_n2, and A(dt) and 1 + dt L as their 2x2 blocks on each
(phi, chi) pair, applied by :func:`kleingordon.apply_pairs`.  W and a
root of D come from the phi and chi blocks, at most 4 x 4, of each class's
data Gram R_c Phi_c R_c^T, so the set-up factors no signal-space block; the
posterior precision D^-1 = Phi^-1 + R^T R / sigma_n2 is applied in closed
form.  M' comes from :func:`kleingordon.update_generator_blocks` (bit for
bit the dense chain R2 L Phi R2^T) and the matcher branch of every step
from :func:`matfun.branches`; a run imports none of the dense library,
:mod:`infodyn.gaussian` and :mod:`infodyn.matching`.  What does not depend
on dt (the posterior, M' and exp(T M') d(0)) is built once per
:func:`convergence_sweep`; what does not depend on the step (also the KL
covariance terms, the matcher's evolved precision and the maps from data to
evolved means) once per run, with no evolved covariance formed or factored.
The trajectory is built by doubling, u(2^j + i) = (1 + dt M'_c)^(2^j) u(i);
it agrees with stepping u <- M u to round-off that grows with N: at most
1.7e-11 row-relative at n_modes 16, Y 31, N 20.

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
import numbers
import sys
from collections import Counter
from typing import NamedTuple

import numpy as np

from . import kleingordon, matfun
from ._frozen import Frozen
from .errors import (
    ConfigError,
    InfodynError,
    InsufficientSweep,
    InvalidInput,
    NonFiniteOutput,
    shown,
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

# Bounds, in bytes, on what a run allocates, checked by RunConfig so that a
# config past them is refused at load time instead of failing in numpy.
# Per-step arrays have up to 2^N + 1 rows of data_dim or signal_dim columns;
# a stepping run's traced peak, less its class blocks, is 5.6 to 6.4 arrays
# of (2^N + 1) x max(data_dim, signal_dim) at (4, 5, N 14), (16, 31, N 13),
# (64, 127, N 11) and (256, 511, N 7).  A class-blocked matrix holds one
# max(a, b)^2 block per class of a signal and b data indices; a run's peak
# is under three of them where they dominate, 2.65 at (256, 5) and 2.57 at
# (512, 5), reached in the step diagnostics: the set-up forms no a x a block.
PER_STEP_ARRAYS = 8
MAX_PER_STEP_BYTES = 1 << 30
MAX_CLASS_BLOCKS_BYTES = 1 << 27


class RunConfig(Frozen):
    """Validated run parameters: model, horizon T, resolution N, seed, scheme.

    The step count is 2^N.  Construction is the one check of T, N, seed,
    initial_data and scheme: :func:`parse_config` leaves them to it.  It
    refuses a boolean T, N or seed and a T that is not a real number or is too
    large for a float, and checks that 2^N and the step dt = T/2^N are finite,
    normal floats, as the report prints both, and that a class-blocked matrix
    fits in ``MAX_CLASS_BLOCKS_BYTES``.  Under schemes 'iterated' and 'both',
    which step, it also checks that ``PER_STEP_ARRAYS`` arrays of (2^N + 1) x
    max(data_dim, signal_dim) fit in ``MAX_PER_STEP_BYTES`` and that dt lies
    inside the validity region dt ||L|| < 1 of the linearized step 1 + dt L
    that the per-step diagnostics take, dt < :attr:`KGModel.dt_limit` =
    1/w_{n-1}^2.  Scheme 'direct' needs neither.  :meth:`replace` gives a
    changed copy through the same checks.
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
        if any(isinstance(v, (bool, np.bool_)) for v in (total_time, resolution, seed)):
            raise ConfigError(
                "config fields 'T', 'N' and 'seed' must not be booleans, got "
                f"T = {shown(total_time)}, N = {shown(resolution)} and seed = {shown(seed)}"
            )
        if not isinstance(total_time, numbers.Real):
            raise ConfigError(f"config field 'T' must be a real number, got {shown(total_time)}")
        try:
            t = float(total_time)
        except OverflowError:
            raise ConfigError("config field 'T' is a number too large for a float") from None
        if not (np.isfinite(t) and t > 0.0):
            raise ConfigError(f"config field 'T' must be positive, got {shown(total_time)}")
        if not isinstance(resolution, (int, np.integer)) or resolution < 1:
            raise ConfigError(
                f"config field 'N' must be an integer >= 1, got {shown(resolution)}"
            )
        if not isinstance(seed, (int, np.integer)) or seed < 0:
            raise ConfigError(
                f"config field 'seed' must be a nonnegative integer, got {shown(seed)}"
            )
        try:
            str(seed)
        except ValueError:
            raise ConfigError(
                "config field 'seed' must have at most "
                f"{sys.get_int_max_str_digits()} digits, as report.json holds it"
            ) from None
        if not isinstance(initial_data, str) or not initial_data:
            raise ConfigError(
                "config field 'initial_data' must be 'generate' or a file path, "
                f"got {shown(initial_data)}"
            )
        if scheme not in SCHEMES:
            raise ConfigError(
                f"config field 'scheme' must be one of {SCHEMES}, got {shown(scheme)}"
            )
        self._set(
            model=model,
            total_time=t,
            resolution=int(resolution),
            seed=int(seed),
            initial_data=initial_data,
            scheme=scheme,
        )
        block_entries = kleingordon.class_block_entries(model)
        if 8 * block_entries > MAX_CLASS_BLOCKS_BYTES:
            raise ConfigError(
                "config fields 'n_modes' and 'Y' must keep the run's class-blocked "
                f"matrices, {shown(block_entries)} float64 entries, within "
                f"{MAX_CLASS_BLOCKS_BYTES} bytes, got n_modes = {shown(model.n_modes)} "
                f"and Y = {shown(model.pixels)}"
            )
        # Tested on the exponent, so that no 2^N is formed for an absurd N.
        if (
            self.resolution >= sys.float_info.max_exp
            or math.ldexp(t, -self.resolution) < sys.float_info.min
        ):
            raise ConfigError(
                "config fields 'T' and 'N' must keep 2^N and dt = T/2^N finite, "
                f"normal floats, got T = {t!r} and N = {shown(self.resolution)}"
            )
        if scheme == SCHEME_DIRECT:
            return
        # 2^N + 1 <= max_rows, i.e. 2^N <= max_rows - 1.
        columns = max(model.data_dim, model.signal_dim)
        max_rows = MAX_PER_STEP_BYTES // (8 * columns * PER_STEP_ARRAYS)
        max_resolution = (max_rows - 1).bit_length() - 1
        if self.resolution > max_resolution:
            raise ConfigError(
                f"config field 'N' must be at most {max_resolution}, so that the "
                f"{PER_STEP_ARRAYS} per-step arrays a run holds at once, (2^N + 1) x "
                f"{columns} each, fit in {MAX_PER_STEP_BYTES} bytes, got {self.resolution!r}"
            )
        if self.dt >= self.model.dt_limit:
            raise ConfigError(
                f"config fields 'T' and 'N' give step dt = {self.dt!r}, outside "
                f"the validity region dt < {self.model.dt_limit!r} set by 'n_modes' and 'mu'"
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

    ``data`` has one row per time a run compares against: every step time,
    or t = 0 and T for scheme 'direct'.  ``energy_drift`` is the largest
    change of the field energy over those times: roundoff-level, as the
    exact step conserves it, or NaN on overflow.
    """

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


def parse_config(mapping, scheme=None):
    """Build a :class:`RunConfig` from a flat dict of exactly the documented keys.

    Unknown or missing keys raise :class:`ConfigError` naming them; each
    value is checked only by the record that stores it: n_modes, Y (as
    ``pixels``), mu, beta and sigma_n2 by :class:`KGModel`, whose refusals
    become :class:`ConfigError`, the rest by :class:`RunConfig`.  A
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
    try:
        model = KGModel(
            n_modes=mapping["n_modes"],
            pixels=mapping["Y"],
            mu=mapping["mu"],
            beta=mapping["beta"],
            sigma_n2=mapping["sigma_n2"],
        )
    except InfodynError as exc:
        note = " (pixels: config field 'Y')" if "pixel" in str(exc) else ""
        raise ConfigError(f"{exc}{note}") from exc
    return RunConfig(
        model=model,
        total_time=mapping["T"],
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


def resolve_initial_data(config, classes=None, response=None):
    """Initial packed data vector of a run.

    For ``initial_data = 'generate'`` a field state s is drawn from the
    thermal prior with the config seed, scaling standard normals by the
    square roots of :func:`kleingordon.prior_variances` (bit for bit the
    state :func:`infodyn.gaussian.sample` draws from the dense prior), and
    the data are R_c s_c per Fourier class plus white noise of variance
    sigma_n2 from the stream seeded with seed + 1: the dense R2 s + noise
    up to the round-off of the shorter sums.  ``classes`` and ``response``
    (:func:`kleingordon.response_blocks`) are built here when not given.
    Any other value is read as a UTF-8 JSON file holding a flat list of
    2(Y + 2) finite numbers (not booleans); anything else raises
    :class:`ConfigError`.
    """
    model = config.model
    if config.initial_data == GENERATE:
        if classes is None:
            classes = kleingordon.fourier_classes(model)
            response = kleingordon.response_blocks(model, classes)
        rng = np.random.Generator(np.random.PCG64(config.seed))
        s0 = rng.standard_normal(model.signal_dim) * np.sqrt(
            kleingordon.prior_variances(model)
        )
        noise_rng = np.random.Generator(np.random.PCG64(config.seed + 1))
        d0 = np.sqrt(model.sigma_n2) * noise_rng.standard_normal(model.data_dim)
        for (sig, dat), r in zip(classes, response):
            d0[dat] += (r @ s0[sig][:, :, None])[:, :, 0]
        return d0
    try:
        with open(config.initial_data, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(
            f"could not read initial data file {config.initial_data!r}: {exc}"
        ) from exc
    # Booleans, which Python counts as ints, are not numbers here.
    if not (isinstance(raw, list) and all(type(x) in (int, float) for x in raw)):
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


def _exact_reference(model, mean, classes, response, times):
    """R2 A(t) m_0 and its energy drift at exactly ``times``, by closed-form rotation.

    R2 acts through the class blocks ``response`` of ``classes``.  Works
    through the times in row blocks, so no (len(times), 4n - 2) state array
    exists.  ``data`` is filled by data index, so it is held transposed.
    """
    data = np.empty((model.data_dim, len(times)))
    energy_0 = kleingordon.field_energy(model, mean)
    drift = 0.0
    block = max(1, REFERENCE_BLOCK_ENTRIES // model.signal_dim)
    for start in range(0, len(times), block):
        states = kleingordon.exact_evolve(model, mean, times[start : start + block])
        energies = kleingordon.field_energy(model, states)
        # np.maximum, unlike max(), keeps a NaN from an overflowed energy.
        drift = np.maximum(drift, np.max(np.abs(energies - energy_0)))
        for (sig, dat), r in zip(classes, response):
            data[dat, start : start + len(states)] = r @ np.moveaxis(states[:, sig], 0, -1)
    return ExactReference(data=data.T, energy_drift=float(drift))


def _refuse_nonfinite(steps, columns, values):
    """Raise :class:`NonFiniteOutput` naming the first step or value that is not finite.

    ``columns`` hold one row per step, or are lists of (k, a, steps) class
    blocks with one column per step; None entries of ``values`` are skipped.
    """
    first = None
    for name, column in columns.items():
        if isinstance(column, list):
            finite = np.logical_and.reduce([np.isfinite(b).all(axis=(0, 1)) for b in column])
        else:
            finite = np.isfinite(column)
            finite = finite.all(axis=1) if finite.ndim == 2 else finite
        bad = np.flatnonzero(~finite)
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

    ``classes`` are the model's Fourier classes, ``response`` the class
    blocks of R2, ``prior`` the prior variances phi, ``initial_data`` d(0),
    ``root`` and ``filter`` the class blocks of (V, t), which give the root
    S = Phi^1/2 (1 + V (t^1/2 - 1) V^T) of the posterior covariance
    D = S S^T, not formed, and of the Wiener filter W, ``mean`` the
    posterior mean, ``m_prime`` the class blocks of M'
    (:func:`kleingordon.update_generator_blocks`) and ``direct_data`` the
    direct endpoint exp(T M') d(0), or None when it was not asked for.
    """

    classes: list
    response: np.ndarray
    prior: np.ndarray
    initial_data: np.ndarray
    root: list
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
    classes = kleingordon.fourier_classes(model)
    response = kleingordon.response_blocks(model, classes)
    d0 = resolve_initial_data(config, classes, response)
    # Overflow is refused by the checks of the posterior and of the direct
    # endpoint, not as numpy warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        prior = kleingordon.prior_variances(model)
        # The posterior from each class's data Gram R Phi R^T = U s U^T: W =
        # Phi R^T U (s + sigma_n2)^-1 U^T, and the orthonormal V = Phi^1/2 R^T
        # U s^-1/2 and t = sigma_n2 / (s + sigma_n2) give Phi^-1/2 D Phi^-1/2
        # = 1 + V (t - 1) V^T.  The Gram is block diagonal over the phi and
        # chi data, whose priors differ by omega^2, so each half is factored
        # and keeps s > SINGULAR_RTOL times its own largest: this drops only
        # the duplicated conjugate pair's null directions, which count as
        # s = 0.  The same spectra give each part's condition number of
        # R Phi R^T + sigma_n2, (max s + sigma_n2) / (min s + sigma_n2) over
        # the classes.  The mean W d0 (zero prior mean) starts the exact
        # reference.
        s2 = model.sigma_n2
        root, filters, mean = [], [], np.zeros(model.signal_dim)
        s_max, s_min = np.zeros(2), np.full(2, np.inf)
        for (sig, dat), r in zip(classes, response):
            v, rt = prior[sig][..., None], np.swapaxes(r, -1, -2)
            gram, half = r @ (v * rt), dat.shape[1] // 2
            s, parts = np.linalg.eigh(np.stack([gram[:, :half, :half], gram[:, half:, half:]]))
            keep = s > matfun.SINGULAR_RTOL * s.max(axis=-1, keepdims=True, initial=0.0)
            s = np.where(keep, s, 0.0)
            s_max = np.maximum(s_max, s.max(axis=(1, 2), initial=0.0))
            s_min = np.minimum(s_min, s.min(axis=(1, 2), initial=np.inf))
            keep, s = np.concatenate(keep, axis=-1), np.concatenate(s, axis=-1)
            u = np.zeros_like(gram)
            u[:, :half, :half], u[:, half:, half:] = parts
            t = s2 / (s + s2)
            rt_u = rt @ u
            root.append((np.sqrt(v) * rt_u * (keep / np.sqrt(np.where(keep, s, 1.0)))[..., None, :], t))
            filters.append(v * rt_u * (keep / (s + s2))[..., None, :] @ np.swapaxes(u, -1, -2))
            mean[sig] = (filters[-1] @ d0[dat][:, :, None])[:, :, 0]
        logger.info(
            "data-space Gram condition numbers: phi part %.6g, chi part %.6g",
            *(s_max + s2) / (s_min + s2),
        )
        m_prime = kleingordon.update_generator_blocks(model, classes, response, prior)
        direct_data = (
            _direct_endpoint(config.total_time, m_prime, classes, d0) if direct else None
        )
    return _Setup(classes, response, prior, d0, root, filters, mean, m_prime, direct_data)


def _powers_applied(m_update, u0, steps):
    """The (k, b, steps + 1) stack of M^i u0, i = 0..steps, for a (k, b, b) stack M.

    By doubling: with ``steps`` = 2^N, columns 2^j..2^(j+1) - 1 are M^(2^j)
    times columns 0..2^j - 1, so N + 1 stacked products and N squarings.
    """
    out = np.empty(u0.shape + (steps + 1,))
    out[..., 0] = u0
    power, filled = m_update, 1
    while True:
        count = min(filled, steps + 1 - filled)
        out[..., filled : filled + count] = power @ out[..., :count]
        filled += count
        if filled > steps:
            return out
        power = power @ power


def _iterate(config, setup, reference):
    """Per-step columns of :class:`RunResult`, linear means and branch labels, unchecked.

    Everything runs class by class, save the data rows and their deviation.
    """
    model = config.model
    dt = config.dt
    classes, filters = setup.classes, setup.filter
    variances = [setup.prior[sig] for sig, _ in classes]
    # D^-1 and the root's t^-1/2 serve only the relative entropies and the matcher.
    if not (np.isfinite(1.0 / setup.prior).all() and all(t.all() for _, t in setup.root)):
        raise NonFiniteOutput("the posterior information matrix is not finite; it has overflowed")
    # L, A(dt) and G = 1 + dt L couple each packed phi component only with
    # its chi partner, so they act on class stacks through their 2x2 pair
    # blocks.  The config's dt < dt_limit keeps dt ||L|| < 1, so G is
    # invertible, and B = G^-1 A has B - 1 = G^-1 (A - G).
    dt_l = dt * kleingordon.generator_pairs(model)
    g_pairs = np.eye(2) + dt_l
    g_inv = np.linalg.inv(g_pairs)
    a_offset = kleingordon.exact_step_offset_pairs(model, dt)
    b_offset = g_inv @ (a_offset - dt_l)
    # Phi^-1/2 (P - 1) Phi^1/2: pair entry (i, j) of P - 1 times sqrt(phi_j / phi_i).
    pair_phi = np.stack(np.split(setup.prior, 2), axis=-1)
    pair_scale = np.sqrt(pair_phi[:, None, :] / pair_phi[:, :, None])

    def excesses(offset):
        """S^-1 (P D P^T - D) S^-T = E + E^T + E E^T, E = S^-1 (P - 1) S.

        S^-1 = (1 + V (t^-1/2 - 1) V^T) Phi^-1/2 is the inverse of the root S.
        """
        whitened = offset * pair_scale
        for cls, (v, t) in zip(classes, setup.root):
            v_t = np.swapaxes(v, -1, -2)
            e = np.eye(v.shape[-2]) + (v * (np.sqrt(t) - 1.0)[..., None, :]) @ v_t
            e = kleingordon.apply_pairs(whitened, [cls], [e])[0]
            e += v @ ((1.0 / np.sqrt(t) - 1.0)[..., :, None] * (v_t @ e))
            yield e @ np.swapaxes(e, -1, -2) + e + np.swapaxes(e, -1, -2)

    def mean_term(offsets):
        """1/2 delta^T D^-1 delta per column as 1/2 sum delta^2/phi + 1/2 ||R delta||^2/sigma_n2."""
        return 0.5 * sum(
            np.sum(d * d / v[..., None], axis=(0, 1))
            + np.sum((r @ d) ** 2, axis=(0, 1)) / model.sigma_n2
            for v, r, d in zip(variances, setup.response, offsets)
        )

    # The maps from data to evolved means, (A - 1) W, G W and (B - 1) W, are
    # the same at every step: form them once.
    a_offset_w, g_w, b_offset_w = (
        kleingordon.apply_pairs(pairs, classes, filters) for pairs in (a_offset, g_pairs, b_offset)
    )
    # Per class, the data u of every step, as columns; ``data`` is filled by
    # data index, so it is held transposed.
    trajectory = []
    data = np.empty((model.data_dim, config.steps + 1))
    for (_, dat), block in zip(classes, setup.m_prime):
        m_update = dt * block
        diag = np.arange(dat.shape[1])
        m_update[:, diag, diag] += 1.0
        trajectory.append(_powers_applied(m_update, setup.initial_data[dat], config.steps))
        data[dat] = trajectory[-1]
    data = data.T

    # Per class and step, as columns, the mean offsets A W u - W u'' and,
    # whitened by G, (B - 1) W u = G^-1 (A - G) W u.  The first is an O(dt)
    # difference of O(1) vectors, so it is formed from O(dt) terms,
    # (A - 1) W u - W (u'' - u): as A W u - W u'' it took W's round-off
    # times 1/dt.  Both sums of each quadratic form are nonnegative.
    kl_step = matfun.kl_covariance_blocks(excesses(a_offset))
    kl_step += mean_term(
        [p @ u[..., :-1] - f @ np.diff(u) for p, f, u in zip(a_offset_w, filters, trajectory)]
    )
    kl_evolution = matfun.kl_covariance_blocks(excesses(b_offset))
    kl_evolution += mean_term([p @ u[..., :-1] for p, u in zip(b_offset_w, trajectory)])
    columns = {
        "data": data[1:],
        "kl_step": kl_step,
        "kl_cumulative": np.cumsum(kl_step),
        "kl_evolution": kl_evolution,
        "exact_deviation": np.linalg.norm(data[1:] - reference.data[1:], axis=1),
    }

    # The matcher's evolved density is N(G m, G D G^T), precision G^-T D^-1 G^-1;
    # a first-order truncation of it could lose positive definiteness.  The
    # branch is the same for any positive definite choice (the response rank
    # decides it), so the precision's norm enters as its bound ||G^-1||^2
    # max_c (max 1/phi_c + ||R_c||_1 ||R_c||_inf / sigma_n2), and D^-1 G^-1 W =
    # G^-1 W / phi + R^T (R G^-1 W) / sigma_n2.  The prior pull vanishes: zero mean.
    g_inv_w = kleingordon.apply_pairs(g_inv, classes, filters)
    d_inv_g_inv_w = [
        x / v[..., None] + np.swapaxes(r, -1, -2) @ (r @ x) / model.sigma_n2
        for v, r, x in zip(variances, setup.response, g_inv_w)
    ]
    inv_cov_bound = 0.0
    for v, r in zip(variances, setup.response):
        r_1, r_inf = (np.max(np.sum(np.abs(r), axis=a), axis=-1, initial=0.0) for a in (-2, -1))
        inv_cov_bound = max(inv_cov_bound, np.max(np.max(1.0 / v, axis=-1) + r_1 * r_inf / model.sigma_n2))
    linear_means = [p @ u[..., :-1] for p, u in zip(g_w, trajectory)]
    branch, _ = matfun.branches(
        filters,
        kleingordon.apply_pairs(np.swapaxes(g_inv, -1, -2), classes, d_inv_g_inv_w),
        matfun.norm2(g_inv) ** 2 * inv_cov_bound,
        linear_means,
        [np.zeros(m.shape[:-1] + (1,)) for m in linear_means],
    )
    # Overflowed offsets show in kl_step; only the linear means need a check.
    return columns, {"linear mean": linear_means}, branch


def run_ifd(config):
    """Run the iterated data update, then compute per-step diagnostics batched.

    The class blocks of the generator M' are built once; the update
    M = 1 + dt M' and the direct endpoint exp(T M') d(0) both come from
    them.  The trajectory is the powers of M's class blocks applied to
    d(0), by doubling.  Afterwards, over all steps at once, the run
    computes the two relative entropies described in the module docstring
    (a constant covariance term from a root of D, plus the quadratic form
    of D^-1 on the mean offset per step), the deviation from the exact
    reference, and the branch the entropic matcher would take on each step
    (the closed form is used for the update either way), each held as a
    column of the result.  D^-1 is positive definite once the prior passes
    its test; a stepping run refuses one that is not finite with
    :class:`NonFiniteOutput`, and an evolved covariance whose generalized
    eigenvalues against D are not all positive
    (:func:`matfun.kl_covariance_blocks`) with :class:`NotPositiveDefinite`.
    A non-regular branch is announced once per run at warning level, naming
    its first step: it means the match Hessian is singular and the matched
    vector would be the minimum-norm one, which for this data packing is the
    generic situation since the conjugate-alias pair makes the lifted
    response rank deficient.  If anything the result holds, or a linearly
    evolved mean, overflowed to NaN or infinity, the run raises
    :class:`NonFiniteOutput` naming the first such step.  The exact
    reference and its energy drift cover every step time, or only t = 0 and
    T under scheme 'direct'.
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
            model, setup.mean, setup.classes, setup.response, times
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
        (i for i, b in enumerate(result.branch, 1) if b != matfun.BRANCH_REGULAR), None
    )
    if first is not None:
        logger.warning(
            "N = %d, step %d: entropic matching took the %r branch; the match "
            "Hessian is singular, so the matcher would pick the minimum-norm data "
            "vector.  The run keeps the closed-form update M = 1 + dt M'.  "
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
    continuous-limit endpoint exp(T M').  Each resolution is checked as a
    config's N, unconverted, by :meth:`RunConfig.replace` before the first
    run; fewer than three distinct ones cannot support a slope estimate and
    raise :class:`InsufficientSweep`.  A fitted quantity that is not
    positive at every resolution has no logarithm and raises
    :class:`InvalidInput` after the runs: all-zero initial data, for one,
    keep every exact deviation at 0.  The part of a run that does not
    depend on dt, including M' and exp(T M') d(0), is built once and serves
    every run.
    A non-regular matcher branch is announced once per sweep, at the first
    resolution that takes one, as :func:`run_ifd` announces it once per run.
    """
    configs = {}
    for n in resolutions:
        run_config = config.replace(resolution=n, scheme=SCHEME_BOTH)
        configs[run_config.resolution] = run_config
    res_list = sorted(configs)
    if len(res_list) < 3:
        raise InsufficientSweep(
            f"need at least 3 distinct resolutions for a sweep, got {res_list}"
        )
    setup = _setup(config, direct=True)
    dts = []
    per_step = []
    cumulative = []
    deviations = []
    gaps = []
    warned = False
    for n in res_list:
        run = _run(configs[n], setup)
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


def _write_table(result, path, header, columns, labels=None, at=0):
    """Write ``header``, then a line step, t, ``columns`` per step (:func:`floattext.lines`)."""
    # Imported here: importing it from source after numpy takes 2.3 ms on 2
    # vCPUs (median of 15 fresh interpreters, no bytecode cache).
    from . import floattext

    steps = np.arange(1, len(result.kl_step) + 1)
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii") + b"\n")
        fh.writelines(floattext.lines([steps, steps * result.config.dt, *columns], labels, at))


def write_csv(result, path):
    """Write one row per step: step, t, kl_step, kl_cumulative, exact_deviation, branch, data_*.

    Floats are printed exactly as %.17g prints them (in one vectorized pass
    of :mod:`infodyn.floattext`, with a per-cell %.17g fallback), so repeated
    runs of the same config give bit-identical files.  Scheme 'direct'
    writes the header only.
    """
    data_dim = result.config.model.data_dim
    header = "step,t,kl_step,kl_cumulative,exact_deviation,branch," + ",".join(
        f"data_{j}" for j in range(data_dim)
    )
    columns = [result.kl_step, result.kl_cumulative, result.exact_deviation, result.data]
    _write_table(result, path, header, columns, np.array(result.branch, dtype="S"), 5)


def write_deviation_csv(result, path):
    """Write one row per step: step, t, deviation (the ``exact_deviation`` column)."""
    _write_table(result, path, "step,t,deviation", [result.exact_deviation])


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
