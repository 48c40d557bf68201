"""Run loop, config handling, CSV determinism and convergence slopes."""

import gc
import json
import logging
import re
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from infodyn import gaussian, kleingordon, matching, matfun, simulator
from infodyn.errors import (
    ConfigError,
    InsufficientSweep,
    NonFiniteOutput,
    NotPositiveDefinite,
)

import oracles


def _base_mapping(**overrides):
    mapping = {
        "n_modes": 4,
        "Y": 5,
        "mu": 1.0,
        "beta": 1.0,
        "sigma_n2": 0.01,
        "T": 1.0,
        "N": 4,
        "seed": 123,
        "initial_data": "generate",
        "scheme": "iterated",
    }
    mapping.update(overrides)
    return mapping


def _config(**overrides):
    return simulator.parse_config(_base_mapping(**overrides))


_RUN_CACHE = {}


def _run_at(resolution, scheme=simulator.SCHEME_BOTH):
    key = (resolution, scheme)
    if key not in _RUN_CACHE:
        _RUN_CACHE[key] = simulator.run_ifd(
            _config(N=resolution, scheme=scheme)
        )
    return _RUN_CACHE[key]


def test_config_dict_round_trip():
    config = _config(N=5, scheme="both", seed=7)
    again = simulator.parse_config(simulator.config_dict(config))
    assert again == config
    # The loader accepts what the constructors accept, numpy scalars included.
    i, f = np.int64, np.float32
    config = simulator.parse_config(
        _base_mapping(n_modes=i(4), Y=i(5), N=i(5), seed=i(7), T=f(0.5), mu=f(1.5))
    )
    model = kleingordon.KGModel(i(4), i(5), f(1.5), 1.0, 0.01)
    assert config == simulator.RunConfig(model, f(0.5), i(5), i(7))
    assert simulator.parse_config(simulator.config_dict(config)) == config


def test_report_of_a_model_built_from_numpy_scalars(tmp_path):
    # KGModel stores its scales as Python floats; a float32 mass reached the
    # report as float32, which json cannot write.
    model = kleingordon.KGModel(4, 5, np.float32(1.0), np.int64(2), 0.01)
    assert all(type(getattr(model, f)) is float for f in ("mu", "beta", "sigma_n2"))
    config = simulator.RunConfig(model, 1.0, 4, 0, scheme=simulator.SCHEME_DIRECT)
    path = tmp_path / "report.json"
    simulator.write_report(simulator.run_ifd(config), path)
    assert json.loads(path.read_text())["config"]["beta"] == 2.0


def test_config_file_round_trip(tmp_path):
    config = _config(T=0.5, N=3)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(simulator.config_dict(config)))
    assert simulator.load_config(path) == config


def test_parse_config_names_unknown_and_missing_fields():
    with pytest.raises(ConfigError, match="unknown config field.*tau"):
        simulator.parse_config(_base_mapping(tau=0.1))
    mapping = _base_mapping()
    del mapping["sigma_n2"]
    with pytest.raises(ConfigError, match="missing config field.*sigma_n2"):
        simulator.parse_config(mapping)
    with pytest.raises(ConfigError, match="JSON object"):
        simulator.parse_config([1, 2])


def test_parse_config_rejects_bad_types():
    with pytest.raises(ConfigError, match="'seed' must not be booleans"):
        simulator.parse_config(_base_mapping(seed=True))
    with pytest.raises(ConfigError, match="'N' must be an integer"):
        simulator.parse_config(_base_mapping(N=4.0))
    with pytest.raises(ConfigError, match="mu, beta and sigma_n2 must be real numbers"):
        simulator.parse_config(_base_mapping(mu="1.0"))
    with pytest.raises(ConfigError, match=r"^pixels must be an integer.*config field 'Y'"):
        simulator.parse_config(_base_mapping(Y=5.0))
    with pytest.raises(ConfigError, match="'scheme' must be one of"):
        simulator.parse_config(_base_mapping(scheme="exact"))
    with pytest.raises(ConfigError, match="'T' must be positive"):
        simulator.parse_config(_base_mapping(T=-1.0))
    for initial_data in ("", 3):
        with pytest.raises(
            ConfigError, match="^config field 'initial_data' must be 'generate' or a file path"
        ):
            simulator.parse_config(_base_mapping(initial_data=initial_data))
    # Integers too long to print ended in a raw ValueError from repr, and a
    # seed that report.json cannot hold ran, then failed in write_report.
    huge = 10**5000
    with pytest.raises(ConfigError, match="'N' must be an integer >= 1, got a number of"):
        simulator.parse_config(_base_mapping(N=-huge))
    with pytest.raises(ConfigError, match="'seed' must be a nonnegative integer, got a number"):
        simulator.parse_config(_base_mapping(seed=-huge))
    with pytest.raises(ConfigError, match=r"'seed' must have at most \d+ digits, as report.json"):
        simulator.parse_config(_base_mapping(seed=huge))


@pytest.mark.parametrize("field", ["total_time", "resolution", "seed"])
@pytest.mark.parametrize("flag", [True, np.True_])
def test_run_config_refuses_booleans_as_parse_config_does(field, flag):
    # RunConfig(model, 1.0, True, 0) ran as N = 1, and config_dict then wrote
    # a value parse_config refuses on reload.
    fields = {"total_time": 1.0, "resolution": 4, "seed": 0, field: flag}
    with pytest.raises(ConfigError, match="'T', 'N' and 'seed' must not be booleans"):
        simulator.RunConfig(_config().model, **fields)


@pytest.mark.parametrize(
    "total_time",
    ["1.0", b"1", 1j, 10**400, Fraction(1, 10**5000)],
    ids=["str", "bytes", "complex", "huge-int", "underflowing-fraction"],
)
def test_run_config_refuses_a_horizon_no_float_holds(total_time):
    # "1.0" and b"1" ran as T = 1.0; 1j and 10**400 raised TypeError and
    # OverflowError, and the fraction, 0.0 as a float, a ValueError from
    # the repr of its denominator.
    with pytest.raises(ConfigError, match="config field 'T'"):
        simulator.RunConfig(_config().model, total_time, 4, 0)


@pytest.mark.parametrize("scheme", simulator.SCHEMES)
def test_numpy_integer_model_sizes_run_and_report(scheme, tmp_path):
    # Before the model held Python ints, 'iterated' and 'both' failed on
    # int64.bit_length and 'direct' wrote no report, as json cannot encode
    # an int64.
    model = kleingordon.KGModel(np.int64(4), np.int64(5), 1.0, 1.0, 0.01)
    assert type(model.n_modes) is int and type(model.pixels) is int
    config = simulator.RunConfig(model, 1.0, 4, 0, scheme=scheme)
    simulator.write_report(simulator.run_ifd(config), tmp_path / "report.json")
    assert simulator.parse_config(simulator.config_dict(config)) == config


def test_parse_config_checks_step_against_validity_region():
    with pytest.raises(ConfigError, match="'T' and 'N'"):
        simulator.parse_config(_base_mapping(T=16.0, N=2))


def test_direct_scheme_skips_trajectory_and_step_checks():
    # Scheme 'direct' holds no trajectory and builds no update matrix, so
    # neither the per-step cap (N <= 17 at Y 31) nor dt < 1/w_{n-1} applies.
    wide = dict(n_modes=16, Y=31)
    for scheme in ("iterated", "both"):
        with pytest.raises(ConfigError, match="'N' must be at most 17"):
            _config(**wide, T=0.05, N=21, scheme=scheme)
        with pytest.raises(ConfigError, match="'T' and 'N' give step dt = 0.5"):
            _config(**wide, T=1.0, N=1, scheme=scheme)
    assert _config(**wide, T=0.05, N=21, scheme="direct").steps == 2**21
    assert _config(**wide, T=1.0, N=1, scheme="direct").dt == 0.5
    # parse_config's scheme replaces the mapping's.
    assert simulator.parse_config(
        _base_mapping(**wide, T=0.05, N=21, scheme="both"), scheme="direct"
    ).scheme == "direct"
    # 2^N and dt = T/2^N must stay finite, normal floats under every scheme.
    for scheme in simulator.SCHEMES:
        for t, n in ((1.0, 1024), (1.0, 1023), (1e-300, 40), (1.0, 10**30), (1.0, 10**5000)):
            with pytest.raises(ConfigError, match="finite, normal floats"):
                _config(T=t, N=n, scheme=scheme)
    assert _config(T=1.0, N=1022, scheme="direct").dt == 2.0**-1022


def test_parse_config_wraps_model_errors():
    with pytest.raises(ConfigError, match="odd"):
        simulator.parse_config(_base_mapping(Y=4))
    with pytest.raises(ConfigError, match="mu = 0"):
        simulator.parse_config(_base_mapping(mu=0.0))


def test_generated_initial_data_is_seed_deterministic():
    for n_modes, pixels in ((4, 5), (64, 127)):

        def draw(seed):
            config = _config(n_modes=n_modes, Y=pixels, T=0.005, N=5, seed=seed)
            return simulator.resolve_initial_data(config)

        d_a = draw(123)
        assert np.array_equal(d_a, draw(123))
        assert np.max(np.abs(d_a - draw(124))) > 1e-3
        # Signal draw and noise draw come from separate streams: the data
        # are the response image of a sample of the dense prior density
        # under the config seed plus white noise from seed + 1.  The run
        # applies the response one Fourier class at a time, so the data
        # match the dense product to the round-off of the shorter sums:
        # measured at most 3e-16 relative over 20 seeds at shapes up to
        # (1024, 2045), and 1.8e-15 at the heavily aliased (1025, 5).
        model = kleingordon.KGModel(n_modes, pixels, 1.0, 1.0, 0.01)
        s0 = gaussian.sample(oracles.prior_density(model), 1, 123)[0]
        noise_rng = np.random.Generator(np.random.PCG64(124))
        noise = np.sqrt(model.sigma_n2) * noise_rng.standard_normal(model.data_dim)
        dense = oracles.measurement(model).response @ s0 + noise
        assert np.linalg.norm(d_a - dense) <= 1e-14 * np.linalg.norm(dense)


def test_model_size_is_capped_at_load_time_under_every_scheme():
    # A run holds its model as class blocks, so the cap is on the entries of
    # one class-blocked matrix, sum over classes of max(a, b)^2, not on a
    # dense matrix.  Only the config is built here, no matrix.
    assert simulator.MAX_CLASS_BLOCKS_BYTES == 1 << 27
    for scheme in simulator.SCHEMES:
        # (1025, 5) aliases its modes onto two classes of 1640 signal
        # indices, 43 MB of blocks; (500001, 1000001) has 499999 4 x 4 ones.
        for n_modes, pixels in ((1024, 2045), (1025, 5), (500_001, 1_000_001)):
            config = _config(n_modes=n_modes, Y=pixels, T=1e-12, N=1, scheme=scheme)
            assert config.model.n_modes == n_modes
        # One class of 1.6e8 signal indices, and one of an n_modes too
        # long to print.
        for n_modes in (100_000_000, 10**5000):
            with pytest.raises(ConfigError, match="class-blocked matrices"):
                _config(n_modes=n_modes, Y=5, T=1e-12, N=1, scheme=scheme)


def test_per_step_arrays_of_signal_width_are_capped_at_load_time():
    # At (1024, 5) the per-step mean offsets hold signal_dim = 4094
    # columns, not data_dim = 14; at N 16 one of them
    # would be 2.1 GB, and such a run ran out of memory in numpy.  A run
    # holds PER_STEP_ARRAYS of them at once, so N 13, 268 MB each, is
    # refused too.  Only the config is built.
    for n in (13, 16):
        with pytest.raises(ConfigError, match="'N' must be at most 12, so that the 8 "
                           r"per-step arrays a run holds at once, \(2\^N \+ 1\) x 4094 each"):
            _config(n_modes=1024, Y=5, T=2e-4, N=n, scheme="iterated")
    assert _config(n_modes=1024, Y=5, T=3e-3, N=12, scheme="iterated").steps == 2**12
    assert _config(n_modes=1024, Y=5, T=0.05, N=16, scheme="direct").steps == 2**16


@pytest.mark.parametrize(
    "n_modes, pixels, total_time, resolution, arrays, copies",
    [
        (4, 5, 1.0, 14, 6, 1),
        (16, 31, 0.05, 13, 6, 1),
        (64, 127, 0.005, 11, 6, 1),
        (256, 511, 1e-4, 7, 7, 1),
        (256, 5, 5e-5, 3, 8, 3),
    ],
    ids=["4-5-1.0-14", "16-31-0.05-13", "64-127-0.005-11", "256-511-0.0001-7", "256-5-5e-05-3"],
)
def test_run_holds_at_most_per_step_arrays_at_once(
    n_modes, pixels, total_time, resolution, arrays, copies
):
    # RunConfig bounds PER_STEP_ARRAYS per-step arrays together, so a run
    # must not hold more: its traced peak stays within ``arrays`` of them,
    # ``copies`` copies of its class blocks and a quarter of one array.  The
    # first four are the shapes RunConfig's bound quotes; all have small
    # class blocks, and the runs peak at 5.44, 5.69, 5.96 and 6.38 arrays,
    # so one array more than a run holds fails at each.  (256, 5) aliases
    # its modes onto two classes of 408 signal indices, so its class blocks
    # dominate; a run that forms no evolved covariance A D A^T or
    # (1 + dt L) D (1 + dt L)^T, and no a x a block in its set-up, peaks at
    # about 2.65 copies of them, 2.4 above the per-step arrays.
    assert arrays <= simulator.PER_STEP_ARRAYS
    config = _config(n_modes=n_modes, Y=pixels, T=total_time, N=resolution, scheme="both")
    model = config.model
    per_step = 8 * (config.steps + 1) * max(model.data_dim, model.signal_dim)
    blocks = 8 * kleingordon.class_block_entries(model)
    tracemalloc.start()
    try:
        simulator.run_ifd(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= arrays * per_step + copies * blocks + per_step // 4


@pytest.mark.parametrize(
    "run",
    [
        lambda: simulator.run_ifd(_config(N=12, scheme="both")),
        lambda: simulator.run_ifd(_config(n_modes=16, Y=31, T=0.05, N=16, scheme="direct")),
        lambda: simulator.convergence_sweep(_config(scheme="both"), (4, 5, 6)),
    ],
    ids=["simulate-small", "direct-long", "sweep"],
)
def test_a_run_makes_no_reference_cycles(run):
    # The process entry of infodyn.cli collects the young generation rarely,
    # which costs nothing only while a run leaves no cyclic garbage: every
    # object it makes is freed by reference counting.
    gc.collect()
    gc.disable()
    try:
        run()
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_initial_data_file_loading(tmp_path):
    model = _config().model
    d0 = list(range(model.data_dim))
    path = tmp_path / "d0.json"
    path.write_text(str(d0))
    config = _config(initial_data=str(path))
    assert_allclose(simulator.resolve_initial_data(config), d0, rtol=1e-15)

    short = tmp_path / "short.json"
    short.write_text("[1, 2, 3]")
    with pytest.raises(ConfigError, match="flat list of length"):
        simulator.resolve_initial_data(_config(initial_data=str(short)))
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2, }")
    with pytest.raises(ConfigError, match="could not read"):
        simulator.resolve_initial_data(_config(initial_data=str(bad)))
    with pytest.raises(ConfigError, match="could not read"):
        simulator.resolve_initial_data(_config(initial_data=str(tmp_path / "no")))
    nonfinite = tmp_path / "inf.json"
    nonfinite.write_text("[" + ", ".join(["1.0"] * (model.data_dim - 1)) + ", Infinity]")
    with pytest.raises(ConfigError, match="non-finite"):
        simulator.resolve_initial_data(_config(initial_data=str(nonfinite)))


def _dense_exact_reference(config, d0=None):
    """The exact reference of a run, from the dense posterior mean of its initial data."""
    model = config.model
    if d0 is None:
        d0 = simulator.resolve_initial_data(config)
    meas = oracles.measurement(model)
    mean = gaussian.posterior(oracles.prior_density(model), meas, d0).mean
    times = config.dt * np.arange(config.steps + 1)
    classes = kleingordon.fourier_classes(model)
    response = kleingordon.response_blocks(model, classes)
    return simulator._exact_reference(model, mean, classes, response, times)


def test_exact_reference_conserves_energy():
    config = _config(N=5)
    reference = _dense_exact_reference(config)
    assert reference.data.shape == (config.steps + 1, config.model.data_dim)
    assert reference.energy_drift < 1e-10


def test_means_overflowing_at_step_1_are_refused_by_kl_step(tmp_path):
    # The run checks no exactly evolved or new posterior mean: either one
    # overflowing makes the offset, and so kl_step, non-finite at its step.
    config = _config(N=6)
    path = tmp_path / "d0.json"
    path.write_text(json.dumps((1e307 * simulator.resolve_initial_data(config)).tolist()))
    with pytest.raises(NonFiniteOutput, match=r"^step 1 of 64: kl_step is not finite"):
        simulator.run_ifd(config.replace(initial_data=str(path)))


def test_trajectory_overflows_no_sooner_than_its_steps(tmp_path):
    # At mu 1e3 and sigma_n2 1e4 a class's scales x differ by about w, so
    # X J X^-1 d(0) is about 1e3 times d(0) and overflows at d(0) near
    # 1e307, though d(0) + dt M' d(0) does not.  The closed form scales each
    # class's d(0) by a power of two first, so data stay finite at step 1,
    # where kl_step overflows; unscaled, data were named there.
    config = _config(mu=1e3, sigma_n2=1e4, T=1e-5, N=6)
    d0 = simulator.resolve_initial_data(config)
    path = tmp_path / "d0.json"
    path.write_text(json.dumps((1e307 / np.max(np.abs(d0)) * d0).tolist()))
    with pytest.raises(NonFiniteOutput, match=r"^step 1 of 64: kl_step is not finite"):
        simulator.run_ifd(config.replace(initial_data=str(path)))


def test_energy_drift_keeps_overflow_nan():
    # Initial data of order 1e200 overflow the field energy; the drift must
    # come out NaN, which the run refuses, not 0.0 from max() dropping NaN.
    config = _config(N=4)
    d0 = 1e200 * simulator.resolve_initial_data(config)
    with np.errstate(over="ignore", invalid="ignore"):
        reference = _dense_exact_reference(config, d0)
    assert np.isnan(reference.energy_drift)


def test_closed_form_reference_matches_repeated_exact_steps():
    config = _config(N=6)
    model = config.model
    d0 = simulator.resolve_initial_data(config)
    reference = _dense_exact_reference(config, d0)
    prior = oracles.prior_density(model)
    meas = oracles.measurement(model)
    mean = gaussian.posterior(prior, meas, d0).mean
    a_step = oracles.exact_step(model, config.dt)
    for i in range(config.steps + 1):
        assert_allclose(reference.data[i], meas.response @ mean, rtol=1e-10)
        mean = a_step @ mean


def test_direct_deviation_uses_last_reference_row():
    both = _run_at(4)
    direct = _run_at(4, scheme=simulator.SCHEME_DIRECT)
    last = _dense_exact_reference(both.config).data[-1]
    assert_allclose(
        direct.final_deviation, np.linalg.norm(direct.final_data - last), rtol=1e-12
    )
    # Scheme 'direct' evaluates the reference at t = 0 and T only, so its
    # drift covers two times, not all 2^N + 1 that scheme 'both' covers.
    assert np.isfinite(direct.reference_energy_drift)
    assert 0.0 <= direct.reference_energy_drift < 1e-10


def test_direct_reference_evaluates_only_the_endpoints(monkeypatch):
    rows = []
    exact_evolve = kleingordon.exact_evolve

    def counting_exact_evolve(model, packed, times):
        rows.append(len(times))
        return exact_evolve(model, packed, times)

    monkeypatch.setattr(kleingordon, "exact_evolve", counting_exact_evolve)

    def run(resolution, scheme):
        rows.clear()
        config = _config(n_modes=16, Y=31, T=0.05, N=resolution, scheme=scheme)
        return simulator.run_ifd(config), sum(rows)

    assert run(10, simulator.SCHEME_DIRECT)[1] == 2
    assert run(10, simulator.SCHEME_BOTH)[1] == 2**10 + 1
    # The endpoint does not depend on N, bit for bit, up to the cap N 20 of Y 31.
    coarse, _ = run(4, simulator.SCHEME_DIRECT)
    fine, _ = run(20, simulator.SCHEME_DIRECT)
    assert np.array_equal(coarse.final_data, fine.final_data)
    assert coarse.final_deviation == fine.final_deviation


def test_batched_diagnostics_match_per_step_oracle(tmp_path):
    # The per-step construction the batched diagnostics replace: fresh
    # dense densities, two KL evaluations and one match problem per step.
    # Besides the small run: (40, 31), where modes alias and the Fourier
    # classes reach 16 dimensions, at a step inside dt ||L|| < 1; (16, 5),
    # whose classes hold many more signal than data indices, which is where
    # the composed maps A W and (1 + dt L) W differ most from applying A
    # and 1 + dt L to the means W u, and whose free modes make classes with
    # no data; a run from zero data, whose means vanish, so the matcher takes
    # its zero branch; and (2, 3) and (3, 5), the smallest models, where the
    # alias class of (3, 5) holds 4 signal and 8 data indices, so the
    # triangular factor of its G W, from which the run takes ||m*||, is
    # wide.  Every set-up cuts a direction of a data Gram, the duplicated
    # conjugate pair's, so no run takes the regular branch.
    zeros = tmp_path / "zeros.json"
    zeros.write_text(json.dumps([0.0] * 14))
    runs = [
        _run_at(4),
        simulator.run_ifd(_config(n_modes=40, Y=31, T=0.005, N=3, scheme="both")),
        simulator.run_ifd(_config(initial_data=str(zeros), scheme="both")),
        simulator.run_ifd(_config(n_modes=16, Y=5, T=0.01, N=3, scheme="both")),
        simulator.run_ifd(_config(n_modes=2, Y=3, N=3, scheme="both")),
        simulator.run_ifd(_config(n_modes=3, Y=5, N=3, scheme="both")),
    ]
    assert max(
        sig.shape[1] + dat.shape[1]
        for sig, dat in kleingordon.fourier_classes(runs[1].config.model)
    ) == 16
    assert min(dat.shape[1] for _, dat in kleingordon.fourier_classes(runs[3].config.model)) == 0
    assert (4, 8) in [
        (sig.shape[1], dat.shape[1]) for sig, dat in kleingordon.fourier_classes(runs[5].config.model)
    ]
    assert runs[2].branch == (matching.BRANCH_ZERO,) * runs[2].config.steps
    for run in runs:
        # The alias class's phi and chi halves each have rank 2 of 4.
        assert _data_gram_cuts(run.config.model) == 4
        _check_against_per_step_oracle(run)


def _data_gram_cuts(model):
    """How many directions the set-up's cut drops from the halves of the class data Grams.

    Each half of each class's R Phi R^T keeps the eigenvalues above
    ``SINGULAR_RTOL`` times its own largest, as :func:`simulator._setup` does.
    """
    classes = kleingordon.fourier_classes(model)
    prior = kleingordon.prior_variances(model)
    cuts = 0
    for (sig, dat), r in zip(classes, kleingordon.response_blocks(model, classes)):
        gram, half = r @ (prior[sig][..., None] * np.swapaxes(r, -1, -2)), dat.shape[1] // 2
        for part in (gram[:, :half, :half], gram[:, half:, half:]):
            s = np.linalg.eigvalsh(part)
            cuts += int(np.sum(s <= matfun.SINGULAR_RTOL * s.max(axis=-1, keepdims=True, initial=0.0)))
    return cuts


@pytest.mark.parametrize(
    "overrides", [{"mu": 5e-6, "T": 1.0, "N": 6}, {"mu": 2e5, "T": 1e-11, "N": 3}]
)
def test_posterior_keeps_directions_measured_in_only_one_field_part(overrides):
    # A class's data Gram R Phi R^T is block diagonal over its phi and chi
    # data, whose prior variances differ by omega^2.  At mu 5e-6, class 0's
    # chi Gram is 4e10 times smaller than its phi Gram; at mu 2e5 every phi
    # Gram is 4e10 times smaller than its chi Gram.  Cut against the largest
    # eigenvalue of the whole class, those measured directions were dropped.
    # The run's Wiener filter, posterior mean, exact deviation and kl_step
    # must match the dense oracle.
    config = _config(scheme="both", **overrides)
    model = config.model
    setup = simulator._setup(config, direct=False)
    prior, meas = oracles.prior_density(model), oracles.measurement(model)
    w = gaussian.wiener_filter(prior, meas)
    filters = np.zeros_like(w)
    for (sig, dat), block in zip(setup.classes, setup.filter):
        filters[sig[:, :, None], dat[:, None, :]] = block
    assert_allclose(filters, w, rtol=0.0, atol=1e-12 * np.abs(w).max())
    mean = w @ setup.initial_data
    assert_allclose(setup.mean, mean, rtol=0.0, atol=1e-12 * np.abs(mean).max())
    run = simulator.run_ifd(config)
    reference = _dense_exact_reference(config)
    assert_allclose(
        run.exact_deviation, np.linalg.norm(run.data - reference.data[1:], axis=1), rtol=1e-10
    )
    d_cov = gaussian.posterior(prior, meas, np.zeros(model.data_dim)).cov
    a_step = oracles.exact_step(model, config.dt)
    exact_cov = a_step @ d_cov @ a_step.T
    u = run.initial_data
    for i, u_next in enumerate(run.data):
        exact = gaussian.GaussianDensity(a_step @ w @ u, exact_cov)
        kl_step = gaussian.kl_divergence(exact, gaussian.GaussianDensity(w @ u_next, d_cov))
        assert_allclose(run.kl_step[i], kl_step, rtol=1e-9)
        u = u_next


def _check_against_per_step_oracle(run):
    model = run.config.model
    dt = run.config.dt
    prior = oracles.prior_density(model)
    meas = oracles.measurement(model)
    w = gaussian.wiener_filter(prior, meas)
    d_cov = gaussian.posterior(prior, meas, np.zeros(model.data_dim)).cov
    g_step = np.eye(model.signal_dim) + dt * oracles.build_generator(model)
    a_step = oracles.exact_step(model, dt)
    exact_cov = a_step @ d_cov @ a_step.T
    linear_cov = g_step @ d_cov @ g_step.T
    inv_cov = gaussian.GaussianDensity(np.zeros(model.signal_dim), linear_cov).inv_cov()
    u = run.initial_data
    for i, u_next in enumerate(run.data):
        mean_prev = w @ u
        u = u_next
        exact = gaussian.GaussianDensity(a_step @ mean_prev, exact_cov)
        kl_step = gaussian.kl_divergence(exact, gaussian.GaussianDensity(w @ u, d_cov))
        kl_evolution = gaussian.kl_divergence(
            exact, gaussian.GaussianDensity(g_step @ mean_prev, linear_cov)
        )
        problem = matching.MatchProblem(
            evolved_mean=g_step @ mean_prev,
            evolved_inv_cov=inv_cov,
            new_prior=prior,
            new_meas=meas,
        )
        assert run.branch[i] == matching.match(problem).branch
        assert_allclose(run.kl_step[i], kl_step, rtol=1e-9)
        assert_allclose(run.kl_evolution[i], kl_evolution, rtol=1e-6)


def _two_class_setup(rng, scales, deficient):
    """A two-class setup, to compare :func:`matfun.branches` fed from class blocks with match().

    Each class has 4 signal and 3 data dimensions; ``scales`` scales the
    response of each, and ``deficient`` measures one data channel twice.
    The run's prior has zero mean, so this one has too, and the prior pull
    vanishes.  Returns a function that maps rows of evolved means to
    (labels from each class's Hessian spectrum, linear terms and bounds,
    formed densely; match() labels), and W and D*^-1 as dense matrices.
    """
    n, y = 4, 3
    prior_cov, response, evolved_w, evolved_v = [], [], [], []
    for scale in scales:
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        prior_cov.append((q * rng.uniform(0.8, 1.2, n)) @ q.T)
        r = scale * rng.standard_normal((y, n))
        if deficient:
            r[-1] = r[-2]
        response.append(r)
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        evolved_w.append(rng.permutation(np.logspace(-1.0, 1.0, n)))
        evolved_v.append(q)
    evolved_w, evolved_v = np.array(evolved_w), np.array(evolved_v)
    prior = gaussian.GaussianDensity(np.zeros(2 * n), scipy.linalg.block_diag(*prior_cov))
    meas = gaussian.LinearMeasurement(
        scipy.linalg.block_diag(*response), np.diag(rng.uniform(0.45, 0.55, 2 * y))
    )
    inv_cov = scipy.linalg.block_diag(*[(v / w) @ v.T for w, v in zip(evolved_w, evolved_v)])
    _, w, _ = gaussian.posterior_operators(prior, meas)
    assert np.all(w[:n, y:] == 0.0) and np.all(w[n:, :y] == 0.0)
    filters = np.array([w[:n, :y], w[n:, y:]])
    pulled = matfun.spectral_inverse(evolved_w, evolved_v) @ filters
    hessian = matfun.symmetric_part(np.swapaxes(filters, -1, -2) @ pulled)
    regular = matfun.nonzero(np.linalg.eigvalsh(hessian).ravel()).all()

    def labels(means):
        columns = means.reshape(-1, 2, n).transpose(1, 2, 0)
        terms = np.sqrt(np.sum((np.swapaxes(pulled, -1, -2) @ columns) ** 2, axis=(0, 1)))
        scales = matfun.norm2(filters) / evolved_w.min() * np.linalg.norm(means, axis=1)
        batched = matfun.branches(regular, terms, scales)
        expected = [
            matching.match(matching.MatchProblem(m, inv_cov, prior, meas)).branch
            for m in means
        ]
        return list(batched), expected

    return labels, w, inv_cov


def test_class_branches_agree_with_match_per_row():
    # The run's branch decision from class blocks, against match() on the
    # dense problem they make up, for each row of evolved means.
    rng = np.random.default_rng(353)
    means = np.vstack([np.zeros(8), rng.standard_normal((3, 8))])
    found = []
    # Regular; regular in each class but not as a whole; deficient.
    for scales, deficient in (((1.0, 1.0), False), ((1.0, 1e-6), False), ((1.0, 1.0), True)):
        labels, w, inv_cov = _two_class_setup(rng, scales, deficient)
        batched, expected = labels(means)
        assert batched == expected
        found += expected
    assert found == [matching.BRANCH_REGULAR] * 4 + (
        [matching.BRANCH_ZERO] + [matching.BRANCH_PROJECTED] * 3
    ) * 2
    # Near the zero-branch threshold of the deficient setup: a large mean
    # whose linear term W^T D*^-1 m vanishes, plus offsets that do not.
    _, _, v_t = np.linalg.svd(w.T @ inv_cov)
    offsets = np.logspace(-12.0, -2.0, 21)
    batched, expected = labels(1e3 * v_t[-1] + offsets[:, None] * v_t[0])
    assert batched == expected
    assert expected[0] == matching.BRANCH_ZERO
    assert expected[-1] == matching.BRANCH_PROJECTED


@pytest.mark.parametrize(
    "n_modes, pixels, total_time, sigma_n2, beta",
    [
        (4, 5, 1.0, 0.01, 1.0),
        (4, 5, 1.0, 1e-8, 1.0),
        (4, 5, 1.0, 100.0, 1.0),
        (40, 31, 0.02, 0.01, 1.0),
        (40, 31, 0.02, 1e-8, 1.0),
        (16, 31, 0.05, 1e-6, 0.1),
    ],
)
def test_matcher_precision_bound_holds_the_dense_norm(
    monkeypatch, n_modes, pixels, total_time, sigma_n2, beta
):
    # The zero branch scales ||W||_2 ||m*|| by a bound on ||D*^-1||_2,
    # D*^-1 = G^-T D^-1 G^-1, that the run takes in closed form: ||G^-1||^2
    # max_c (max 1/phi_c + ||R_c||_1 ||R_c||_inf / sigma_n2).  Read off each
    # step's scale with the dense W and m* = G W u, it must be one number
    # that holds the dense norm, with D^-1 = Phi^-1 + R^T R / sigma_n2 from
    # the oracles, on the alias classes of (4, 5) and (40, 31) and at small
    # sigma_n2, and stays within 4 of ||G^-1||^2 ||D^-1||_2, so that the
    # zero branch does not widen.
    config = _config(
        n_modes=n_modes, Y=pixels, T=total_time, N=5, sigma_n2=sigma_n2, beta=beta
    )
    ((_, _, scales),), run = _captured_branches(monkeypatch, config)
    w, g, info = _dense_matcher_operators(config)
    g_inv = np.linalg.inv(g)
    means = _step_inputs(run) @ (g @ w).T
    bounds = scales / (np.linalg.norm(w, 2) * np.linalg.norm(means, axis=1))
    assert_allclose(bounds, bounds[0], rtol=1e-9)
    assert bounds.min() >= np.linalg.norm(g_inv.T @ info @ g_inv, 2)
    assert bounds.max() <= 4.0 * np.linalg.norm(g_inv, 2) ** 2 * np.linalg.norm(info, 2)


def _captured_branches(monkeypatch, config):
    """The arguments of each :func:`matfun.branches` call in a run of ``config``, and the run."""
    calls = []
    original = matfun.branches

    def captured(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(matfun, "branches", captured)
    return calls, simulator.run_ifd(config)


def _dense_matcher_operators(config):
    """Dense W, G = 1 + dt L and D^-1 = Phi^-1 + R^T R / sigma_n2 of ``config``, from the oracles."""
    model = config.model
    r2 = oracles.lift_response(oracles.build_response(model))
    info = np.diag(1.0 / kleingordon.prior_variances(model)) + r2.T @ r2 / model.sigma_n2
    w = gaussian.wiener_filter(oracles.prior_density(model), oracles.measurement(model))
    return w, np.eye(model.signal_dim) + config.dt * oracles.build_generator(model), info


def _step_inputs(run):
    """The data vector each step of ``run`` starts from, as rows."""
    return np.vstack([run.initial_data, run.data[:-1]])


@pytest.mark.parametrize("n_modes, pixels, total_time", [(4, 5, 1.0), (16, 31, 0.05)])
@pytest.mark.parametrize("sigma_n2", [1e-2, 1e-8])
def test_run_takes_matcher_norms_from_data_space_maps(
    monkeypatch, n_modes, pixels, total_time, sigma_n2
):
    # The run forms no evolved mean m* = G W u: the norm of each step's
    # linear term W^T D*^-1 m* is that of (R G^-1 W)^T u / sigma_n2, and
    # ||m*|| that of T u, with T the triangular factor of each class's G W.
    # Against the dense linear term, with D*^-1 = G^-T D^-1 G^-1 in closed
    # form (inverting G D G^T is itself 8.7e-9 off at (4, 5, sigma_n2
    # 1e-8)), and against ||G W u|| up to the scale's one constant factor,
    # which test_matcher_precision_bound_holds_the_dense_norm pins.
    config = _config(n_modes=n_modes, Y=pixels, T=total_time, N=5, sigma_n2=sigma_n2)
    ((regular, terms, scales),), run = _captured_branches(monkeypatch, config)
    w, g, info = _dense_matcher_operators(config)
    g_inv = np.linalg.inv(g)
    means = _step_inputs(run) @ (g @ w).T
    assert not regular
    assert_allclose(terms, np.linalg.norm(means @ (g_inv.T @ info @ g_inv @ w), axis=1), rtol=1e-9)
    ratios = scales / np.linalg.norm(means, axis=1)
    assert_allclose(ratios, ratios[0], rtol=1e-9)


def test_positive_definiteness_test_spans_all_classes():
    # Two blocks that each pass the test but not together: the smallest
    # eigenvalue of the whole block-diagonal matrix is compared with its
    # largest, as a dense test would, not block by block.
    blocks = [np.array([[1.0, 2.0]]), np.array([[1e-13, 2e-13]])]
    with pytest.raises(NotPositiveDefinite, match=r"smallest eigenvalue .*1e-13.* against largest .*2\.0"):
        matfun.require_pd(blocks, "test matrix")
    matfun.require_pd([np.array([[1.0, 2.0]]), np.array([[1e-11]])], "test matrix")


def test_relative_entropies_never_negative_at_vanishing_step():
    # At T = 1e-300 the evolved and fresh posteriors coincide to roundoff;
    # the covariance term must come out as 0, not as a tiny negative residue.
    run = simulator.run_ifd(_config(T=1e-300, scheme="both"))
    assert np.all(run.kl_step >= 0.0)
    assert np.all(run.kl_evolution >= 0.0)
    assert run.kl_cumulative[-1] >= 0.0


def test_run_records_and_cumulative_sum():
    run = _run_at(4)
    config = run.config
    assert run.data.shape == (config.steps, config.model.data_dim)
    for column in (
        run.kl_step, run.kl_cumulative, run.kl_evolution, run.exact_deviation
    ):
        assert column.shape == (config.steps,)
    assert len(run.branch) == config.steps
    assert_allclose(run.final_data, run.data[-1], rtol=0.0, atol=0.0)
    assert run.final_deviation == run.exact_deviation[-1]
    total = 0.0
    for kl_step, kl_evolution, kl_cumulative in zip(
        run.kl_step, run.kl_evolution, run.kl_cumulative
    ):
        assert kl_step > 0.0
        assert kl_evolution >= 0.0
        total += kl_step
        assert_allclose(kl_cumulative, total, rtol=1e-12)
    cums = run.kl_cumulative.tolist()
    assert all(b > a for a, b in zip(cums, cums[1:]))


def test_every_step_takes_projected_branch_and_warns_once(caplog):
    config = _config(N=4, seed=9)
    with caplog.at_level(logging.WARNING, logger="infodyn.simulator"):
        run = simulator.run_ifd(config)
    assert run.branch == (matching.BRANCH_PROJECTED,) * config.steps
    warnings = [r for r in caplog.records if "minimum-norm" in r.message]
    assert len(warnings) == 1


def test_sweep_warns_once(caplog):
    # Every run of this sweep takes the projected branch; the sweep
    # announces it once, at its first resolution.
    with caplog.at_level(logging.WARNING, logger="infodyn.simulator"):
        simulator.convergence_sweep(_config(seed=9), (4, 5, 6))
    warnings = [r.getMessage() for r in caplog.records if "minimum-norm" in r.message]
    assert len(warnings) == 1
    assert warnings[0].startswith("N = 4, step 1:")


def test_run_factors_each_matrix_once(monkeypatch, caplog):
    # One run builds the class blocks of M' once and computes all its
    # step-invariant algebra Fourier class by Fourier class, so it builds no
    # dense M', generator or exact step, makes no dense posterior call,
    # builds no dense density or measurement and decomposes no dense
    # matrix.  A class holds at most 12 signal and data dimensions here;
    # the largest matrix a factorization sees is the Gram W_c^T W_c whose
    # largest eigenvalue matfun.norm2 takes, for the class of the duplicated
    # conjugate pair: coefficients (Y-1)/2 and (Y+1)/2, real and imaginary,
    # phi and chi, 8 in all.  The trajectory and the direct endpoint factor
    # nothing: both come in closed form from each class core's one
    # frequency.  Nothing is solved.  No 2-norm may take an SVD.  The
    # matcher branches of all steps come from one matfun.branches call, with
    # no match(), and nothing is factored inside it.  The set-up factors the
    # phi and chi blocks of each class's data Gram R Phi R^T, at most 4 x 4,
    # and nothing wider: W and the root of D that whitens the two KL
    # covariance terms come from them.  D^-1
    # is applied in closed form, Phi^-1 + R^T R / sigma_n2, so no run calls
    # spectral_inverse, and the matcher's bound on ||D*^-1|| is in closed
    # form too.  So under scheme 'both' a run's eigh calls are the set-up's
    # alone, one per class group (three at (16, 31) and at (64, 127), of
    # which only the duplicated pair's class is wider than 2 x 2), and its
    # one QR factorization per class group is that of
    # G W, for ||m*||; no evolved covariance and no match Hessian is
    # factored.  At (256, 5) a class holds 408 signal
    # indices, which the KL covariance terms factor, but the set-up does not.
    counts = Counter()
    sizes, setup_sizes, endpoint_sizes = [], [], []
    # Nonempty while simulator._setup, its direct endpoint or matfun.branches runs.
    in_setup, in_endpoint, in_branches = [], [], []
    # np.linalg.norm(x, 2) calls svd by name in the module that defines it.
    linalg_impl = sys.modules[np.linalg.norm.__wrapped__.__globals__["__name__"]]

    def count(owner, name):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            counts[name] += 1
            if name in ("eigh", "eigvalsh", "solve"):
                sizes.append(np.shape(args[0])[-1])
            if name in ("eigh", "eigvalsh") and in_endpoint:
                endpoint_sizes.append(np.shape(args[0])[-1])
            elif name in ("eigh", "eigvalsh") and in_setup:
                setup_sizes.append(np.shape(args[0])[-1])
            if name in ("eigh", "eigvalsh") and np.shape(args[0])[-1] > 2:
                counts["wide " + name] += 1
            if in_branches and owner is np.linalg:
                counts["in branches"] += 1
            return original(*args, **kwargs)

        # By-name imports inside the package are counted too.
        for module in (owner, linalg_impl, gaussian, matching, simulator, kleingordon):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)

    for name in ("eigh", "eigvalsh", "solve", "svd", "qr"):
        count(np.linalg, name)
    count(gaussian, "posterior")
    count(kleingordon, "update_generator_blocks")
    for name in ("update_generator", "build_generator", "exact_step"):
        count(oracles, name)
    count(matfun, "branches")
    count(matfun, "spectral_inverse")
    count(matching, "match")

    def trace(owner, name, flag):
        original = getattr(owner, name)

        def traced(*args, **kwargs):
            flag.append(True)
            try:
                return original(*args, **kwargs)
            finally:
                flag.pop()

        monkeypatch.setattr(owner, name, traced)

    trace(simulator, "_setup", in_setup)
    trace(simulator, "_direct_endpoint", in_endpoint)
    trace(matfun, "branches", in_branches)
    # Counted under one key, "__init__".
    count(gaussian.GaussianDensity, "__init__")
    count(gaussian.LinearMeasurement, "__init__")
    # A verbose run factors what a quiet one does, no more.
    runs = [
        (level, n_modes, pixels, total_time)
        for level in (logging.WARNING, logging.INFO)
        for n_modes, pixels, total_time in ((16, 31, 0.05), (64, 127, 0.005))
    ]
    factored = {}
    for level, n_modes, pixels, total_time in runs:
        caplog.set_level(level, logger="infodyn")
        counts.clear()
        sizes.clear()
        setup_sizes.clear()
        endpoint_sizes.clear()
        model = kleingordon.KGModel(n_modes, pixels, 1.0, 1.0, 0.01)
        classes = kleingordon.fourier_classes(model)
        assert max(sig.shape[1] + dat.shape[1] for sig, dat in classes) == 12
        assert len(classes) == 3
        simulator.run_ifd(
            _config(n_modes=n_modes, Y=pixels, T=total_time, N=5, scheme="both")
        )
        factored[level, n_modes] = (
            counts["eigh"], counts["eigvalsh"], list(setup_sizes), list(endpoint_sizes)
        )
        assert sizes and max(sizes) <= 8
        assert counts["solve"] == 0
        assert counts["svd"] == 0
        assert counts["posterior"] == 0
        assert counts["update_generator_blocks"] == 1
        assert counts["update_generator"] == 0
        assert counts["build_generator"] == 0
        assert counts["exact_step"] == 0
        assert counts["__init__"] == 0
        assert counts["branches"] == 1
        assert counts["spectral_inverse"] == 0
        assert counts["match"] == 0
        assert setup_sizes and max(setup_sizes) <= 4
        assert len(setup_sizes) == 3
        assert endpoint_sizes == []
        assert counts["eigh"] == len(setup_sizes) == 3
        assert counts["wide eigh"] == 1
        assert counts["qr"] == len(classes)
        assert counts["in branches"] == 0
    for n_modes in (16, 64):
        assert factored[logging.INFO, n_modes] == factored[logging.WARNING, n_modes]
    setup_sizes.clear()
    config = _config(n_modes=256, Y=5, T=5e-5, N=3, scheme="both")
    assert max(sig.shape[1] for sig, _ in kleingordon.fourier_classes(config.model)) == 408
    simulator.run_ifd(config)
    assert setup_sizes and max(setup_sizes) <= 4


def test_runs_and_sweeps_build_no_dense_response(monkeypatch, caplog):
    # The run holds the response as class blocks only: the initial draw, the
    # posterior, with the Gram condition numbers it logs once per set-up at
    # INFO, M' and the exact reference all come from kleingordon.response_blocks.
    def refuse(*args, **kwargs):
        raise AssertionError("a dense response was built")

    monkeypatch.setattr(oracles, "build_response", refuse)
    monkeypatch.setattr(oracles, "lift_response", refuse)
    caplog.set_level(logging.INFO, logger="infodyn")
    for scheme in simulator.SCHEMES:
        run = simulator.run_ifd(_config(n_modes=16, Y=31, T=0.05, N=4, scheme=scheme))
        assert np.all(np.isfinite(run.final_data))
    sweep = simulator.convergence_sweep(_config(), (4, 5, 6))
    assert np.all(np.isfinite(sweep.final_deviations))
    assert len([r for r in caplog.records if "Gram condition" in r.message]) == 4


def test_verbose_run_builds_the_fourier_classes_once(monkeypatch, caplog):
    # The Gram condition numbers logged at INFO take the run's own classes.
    original = kleingordon.fourier_classes
    calls = []

    def counted(model):
        calls.append(model)
        return original(model)

    monkeypatch.setattr(kleingordon, "fourier_classes", counted)
    caplog.set_level(logging.INFO, logger="infodyn")
    simulator.run_ifd(_config(scheme="both"))
    assert len([r for r in caplog.records if "Gram condition" in r.message]) == 1
    assert len(calls) == 1


def _mean_error_at_end(resolution, data_map):
    """|W u_T - A(T) m_0| at (16, 31, T 0.05, seed 0), with u_T from ``data_map``."""
    config = _config(n_modes=16, Y=31, T=0.05, N=resolution, seed=0)
    model = config.model
    prior = oracles.prior_density(model)
    meas = oracles.measurement(model)
    d0 = simulator.resolve_initial_data(config)
    w = gaussian.wiener_filter(prior, meas)
    exact_mean = oracles.exact_step(model, config.total_time) @ (w @ d0)
    return np.linalg.norm(w @ data_map(config, prior, meas, w, d0) - exact_mean)


@pytest.mark.xfail(
    strict=True,
    reason="the closed-form update M = 1 + dt M' misses the exact mean on the "
    "duplicated conjugate pair (Y-1)/2; ROADMAP open item 1",
)
def test_closed_form_posterior_mean_converges_at_first_order():
    # Today the error levels off at 1.521, 1.506 and 1.503 (|A(T) m_0| = 9.51).
    def closed_form(config, prior, meas, w, d0):
        return simulator.run_ifd(config.replace(scheme="iterated")).final_data

    dts = 0.05 / 2.0 ** np.array([6, 8, 10])
    errors = [_mean_error_at_end(n, closed_form) for n in (6, 8, 10)]
    assert 0.7 < np.polyfit(np.log(dts), np.log(errors), 1)[0] < 1.3


def test_matcher_map_posterior_mean_converges_at_first_order():
    # The entropic matcher's optimum is the fixed linear map K G W, with
    # K = H^+ W^T D*^-1, H = W^T D*^-1 W and D* = G D G^T; iterated, its
    # posterior mean tracks A(T) m_0 at first order in dt.
    def matcher_map(config, prior, meas, w, d0):
        model = config.model
        g_step = np.eye(model.signal_dim) + config.dt * oracles.build_generator(model)
        d_cov = gaussian.posterior(prior, meas, d0).cov
        inv_cov = gaussian.GaussianDensity(
            np.zeros(model.signal_dim), g_step @ d_cov @ g_step.T
        ).inv_cov()
        problem = matching.MatchProblem(np.zeros(model.signal_dim), inv_cov, prior, meas)
        p, _ = matching.nullspace_projector(problem.hessian())
        k = p.T @ np.linalg.solve(p @ problem.hessian() @ p.T, p @ w.T @ inv_cov)
        step = k @ g_step @ w
        # The map is the matcher's minimizer, as match() computes it.
        first = matching.match(
            matching.MatchProblem(g_step @ (w @ d0), inv_cov, prior, meas)
        )
        assert first.branch == matching.BRANCH_PROJECTED
        assert_allclose(step @ d0, first.data, rtol=1e-9, atol=1e-12)
        u = d0
        for _ in range(config.steps):
            u = step @ u
        return u

    dts = 0.05 / 2.0 ** np.array([6, 8, 10])
    errors = [_mean_error_at_end(n, matcher_map) for n in (6, 8, 10)]
    assert errors[-1] < 2e-3
    assert 0.9 < np.polyfit(np.log(dts), np.log(errors), 1)[0] < 1.1


def _assert_no_steps(run):
    assert run.data.shape == (0, run.config.model.data_dim)
    for column in (
        run.kl_step, run.kl_cumulative, run.kl_evolution, run.exact_deviation
    ):
        assert column.shape == (0,)
    assert run.branch == () and run.branch_counts == {}


def test_loader_refuses_steps_beyond_linearized_region():
    # dt = 1/8 is below 1/w_max but not below 1/w_max^2 = 1/10: the per-step
    # diagnostics linearize the evolution and need dt ||L|| < 1, so the
    # config is refused at load time rather than when it runs.
    for scheme in ("iterated", "both"):
        with pytest.raises(ConfigError, match="validity region dt < "):
            _config(N=3, scheme=scheme)
    # The direct endpoint has no step restriction at all.
    direct = _config(N=3, scheme="direct")
    _assert_no_steps(simulator.run_ifd(direct))
    with pytest.raises(ConfigError, match="validity region dt < "):
        direct.replace(scheme="iterated")


def test_direct_scheme_skips_records():
    run = _run_at(4, scheme=simulator.SCHEME_DIRECT)
    _assert_no_steps(run)
    assert run.direct_gap is None
    assert_allclose(run.final_data, run.direct_data, rtol=0.0, atol=0.0)
    assert run.final_deviation > 0.0


def test_both_scheme_reports_iterated_direct_gap():
    run = _run_at(4)
    direct = _run_at(4, scheme=simulator.SCHEME_DIRECT)
    assert run.direct_gap is not None
    assert_allclose(
        run.direct_gap,
        np.linalg.norm(run.final_data - direct.final_data),
        rtol=1e-12,
    )
    assert run.direct_gap > 0.0


def test_per_step_entropy_decays_faster_than_linearly():
    coarse = _run_at(4)
    fine = _run_at(6)
    # dt shrinks 4x; the one-step entropy should shrink much faster than 4x
    # and the evolution-truncation entropy faster still.
    step_ratio = coarse.kl_step[0] / fine.kl_step[0]
    evolution_ratio = coarse.kl_evolution[0] / fine.kl_evolution[0]
    assert step_ratio > 8.0
    assert evolution_ratio > step_ratio


# kl_step[0] and kl_evolution[0] at (4, 5, T 1, seed 0), by N, in 60-digit
# arithmetic; tests/high_precision.py re-derives them.
KL_STEP_PINS = {12: 3.3120248463301374e-05, 16: 1.293507857146174e-07}
KL_EVOLUTION_PINS = {
    6: 0.00016909289893148863,
    8: 6.651308962520695e-07,
    12: 1.0165652297893865e-11,
    16: 1.5513001198738316e-16,
}


@pytest.mark.parametrize(
    "resolution, expected, rtol",
    [
        (6, KL_EVOLUTION_PINS[6], 1e-14),
        (8, KL_EVOLUTION_PINS[8], 1e-14),
        (12, KL_EVOLUTION_PINS[12], 1e-12),
        (16, KL_EVOLUTION_PINS[16], 1e-11),
    ],
)
def test_kl_evolution_matches_high_precision_values(resolution, expected, rtol):
    # kl_evolution is an O(dt^4) relative entropy between two posteriors
    # whose covariances and means differ by O(dt^2).  The
    # expected values are the first-step entropy evaluated in 60-digit
    # mpmath arithmetic from the run's float64 d(0): the dense response,
    # prior, posterior, A(dt) and 1 + dt L in closed form, then
    # 1/2 [tr(S_q^-1 S_p) - n - log det(S_q^-1 S_p) + dm^T S_q^-1 dm].
    # Subtracting formed evolved covariances loses digits: that form is off
    # by 3.1e-10 and 8.4e-8 at N 12 and 16, outside these tolerances.  So
    # does x - log1p(x) at the small eigenvalues x of the whitened excess,
    # 5.0e-12 and 1.8e-9 off, where its Taylor series is 1.3e-13 and 8.1e-13.
    # At N 6 and 8 the run is 3.5e-15 and 9.6e-16 off, whitened by the root
    # of D from the data Gram; whitened by D's eigenvectors it was 7.2e-14
    # and 6.9e-14 off.
    config = _config(T=1.0, N=resolution, seed=0, scheme="iterated")
    assert_allclose(simulator.run_ifd(config).kl_evolution[0], expected, rtol=rtol)


@pytest.mark.parametrize("resolution, expected", sorted(KL_STEP_PINS.items()))
def test_kl_step_matches_high_precision_values(resolution, expected):
    # kl_step[0] in 60-digit mpmath arithmetic from the run's float64 d(0)
    # and d(dt): the dense response, prior, posterior, W and A(dt) in closed
    # form, then 1/2 [tr(D^-1 A D A^T) - n - log det(D^-1 A D A^T) + dm^T D^-1 dm]
    # with dm = W d(dt) - A W d(0).  dm is O(dt) against O(1) terms; formed
    # as that difference, W's round-off moves kl_step by about eps/dt:
    # 3.0e-14 and 8.3e-13 off here.  From the offsets (A - 1) W d(0) and
    # W (d(dt) - d(0)) it is 9.8e-16 and 9.3e-16 off.
    config = _config(T=1.0, N=resolution, seed=0, scheme="iterated")
    assert_allclose(simulator.run_ifd(config).kl_step[0], expected, rtol=5e-15)


def test_tiny_noise_run_matches_high_precision_values():
    # At sigma_n2 1e-11 the eigenvalues 1 + x of kl_step's whitened evolved
    # covariance span 1.3e-8 to 8.0e7, wider than 1 / PD_RTOL, but all
    # positive, so the run keeps them.  Its first-step entropies match
    # tests/high_precision.py's kl_first_step(6) with CONFIG's sigma_n2 set
    # to 1e-11, 122111019.74516147265 and 168382.41289907526773.
    run = simulator.run_ifd(_config(T=1.0, N=6, seed=0, sigma_n2=1e-11))
    assert_allclose(run.kl_step[0], 122111019.74516147, rtol=1e-8)
    assert_allclose(run.kl_evolution[0], 168382.41289907527, rtol=1e-11)


@pytest.mark.parametrize(
    "overrides",
    [
        {"T": 1.0},
        {"T": 1000.0},
        {"n_modes": 16, "Y": 31},
        {"n_modes": 64, "Y": 127},
        {"n_modes": 16, "Y": 5},
        {"n_modes": 2, "Y": 3, "T": 1e6},
    ],
)
def test_direct_endpoint_keeps_each_class_scaled_norm(overrides):
    # exp(T M'_c) = X_c exp(T K_c) X_c^-1 with K_c antisymmetric, so the
    # endpoint keeps ||X_c^-1 d_c|| for every class c, with
    # X = diag((g + sigma_n2) / sqrt(g)) from the closed-form Gram diagonal
    # g.  (16, 5) has data-free classes.
    config = _config(N=2, seed=0, scheme="direct", **overrides)
    run = simulator.run_ifd(config)
    model = config.model
    g = np.concatenate(
        [kleingordon.rphi_rt_diag(model, part) for part in (kleingordon.PART_PHI, kleingordon.PART_CHI)]
    )
    x = (g + model.sigma_n2) / np.sqrt(g)
    for _, dat in kleingordon.fourier_classes(model):
        for idx in dat:
            before = np.linalg.norm(run.initial_data[idx] / x[idx])
            after = np.linalg.norm(run.direct_data[idx] / x[idx])
            assert abs(after - before) <= 1e-14 * before


def _m_prime(config, setup):
    """The run's float64 class blocks of M'."""
    return kleingordon.update_generator_blocks(
        config.model, setup.classes, setup.response, setup.prior
    )[0]


@pytest.mark.parametrize("overrides, rtol", [({}, 4e-15), ({"mu": 2e5}, 3e-9)])
def test_direct_endpoint_matches_a_high_precision_exponential(overrides, rtol):
    # The endpoint at (4, 5, T 1) against exp(T M') d(0) in 60-digit mpmath
    # arithmetic, from the run's float64 M' class blocks and d(0).  At
    # mu 2e5 the phases turn by T max|w|, about 2e5, so an error of a few
    # eps in w shows as about eps T max|w|.  The run is 7.6e-16 and 4.8e-10
    # off here.
    mpmath = pytest.importorskip("mpmath")
    config = _config(N=2, seed=0, scheme="direct", **overrides)
    setup = simulator._setup(config, direct=True)
    expected = np.empty(config.model.data_dim)
    with mpmath.workdps(60):
        for (_, dat), block in zip(setup.classes, _m_prime(config, setup)):
            for idx, b in zip(dat, block):
                endpoint = mpmath.expm(config.total_time * mpmath.matrix(b.tolist()))
                endpoint *= mpmath.matrix(setup.initial_data[idx].tolist())
                expected[idx] = [float(v) for v in endpoint]
    error = np.linalg.norm(setup.direct_data - expected) / np.linalg.norm(expected)
    assert error <= rtol


@pytest.mark.parametrize(
    "overrides", [{"T": 1.0, "N": 12}, {"n_modes": 16, "Y": 31, "T": 0.05, "N": 16}]
)
def test_trajectory_matches_a_high_precision_power(overrides):
    # The last row of data against (1 + dt M')^(2^N) d(0) in 50-digit mpmath
    # arithmetic, by N squarings of the run's float64 blocks 1 + dt M'_c,
    # whose diagonal is exactly 1, and its d(0).  The closed form is
    # 5.1e-16 and 7.1e-17 off at (4, 5, T 1, N 12) and (16, 31, T 0.05,
    # N 16); float64 squarings, whose error grows with N, are 1.2e-14 and
    # 9.2e-13 off.
    mpmath = pytest.importorskip("mpmath")
    config = _config(seed=0, scheme="iterated", **overrides)
    setup = simulator._setup(config, direct=False)
    last = simulator.run_ifd(config).data[-1]
    expected = np.empty(config.model.data_dim)
    with mpmath.workdps(50):
        for (_, dat), block in zip(setup.classes, _m_prime(config, setup)):
            for idx, b in zip(dat, config.dt * block):
                power = mpmath.matrix((b + np.eye(len(idx))).tolist())
                for _ in range(config.resolution):
                    power *= power
                power *= mpmath.matrix(setup.initial_data[idx].tolist())
                expected[idx] = [float(v) for v in power]
    assert np.linalg.norm(last - expected) <= 1e-14 * np.linalg.norm(expected)


@pytest.mark.parametrize(
    "n_modes, pixels, total_time", [(4, 5, 1.0), (64, 127, 0.005), (16, 31, 0.05)]
)
def test_direct_endpoint_matches_scipy_on_update_generators(n_modes, pixels, total_time):
    # exp(T M') column by column, as the endpoints of the unit vectors,
    # against scipy's exponential of the dense M' that the classes make up;
    # norm-relative, so tiny entries of exp(T M') are not held to their own
    # digits.
    config = _config(n_modes=n_modes, Y=pixels, T=total_time, scheme="direct")
    setup = simulator._setup(config, direct=False)
    m_prime = _m_prime(config, setup)
    result = np.transpose([
        simulator._direct_endpoint(total_time, m_prime, setup.classes, setup.flow, column)
        for column in np.eye(config.model.data_dim)
    ])
    expected = scipy.linalg.expm(total_time * oracles.update_generator(config.model))
    assert np.linalg.norm(result - expected, 1) <= 1e-12 * np.linalg.norm(expected, 1)


def test_high_precision_script_rederives_the_pins():
    # tests/high_precision.py builds every matrix in closed form, with
    # w_k = sqrt(k^2 + mu^2) exact; its values agree at 60 and 90 digits.
    # kl_step's pin is its value rounded.  kl_evolution's N 12 pin is 2 ulp
    # (3.2e-16 relative) above it; with the float64 w_k in place of the
    # exact ones the script lands 1 ulp below the pin.  Either way it is far
    # inside the 1e-12 that the pin's own test allows.
    pytest.importorskip("mpmath")
    import high_precision

    config = simulator.parse_config({**high_precision.CONFIG, "N": 12})
    assert config == _config(T=1.0, N=12, seed=0, scheme="iterated")
    step, evolution = (float(kl) for kl in high_precision.kl_first_step(12))
    assert abs(step - KL_STEP_PINS[12]) <= np.spacing(KL_STEP_PINS[12])
    assert abs(evolution - KL_EVOLUTION_PINS[12]) <= 2 * np.spacing(KL_EVOLUTION_PINS[12])
    # The N 6 and 8 pins are the script's values rounded.
    for resolution in (6, 8):
        _, evolution = high_precision.kl_first_step(resolution)
        assert float(evolution) == KL_EVOLUTION_PINS[resolution]


def test_deviation_floor_decreases_with_resolution():
    deviations = [_run_at(n).final_deviation for n in (4, 5, 6)]
    assert all(b < a for a, b in zip(deviations, deviations[1:]))


def test_csv_layout_and_determinism(tmp_path):
    run = _run_at(4)
    path_a = tmp_path / "a.csv"
    path_b = tmp_path / "b.csv"
    simulator.write_csv(run, path_a)
    simulator.write_csv(simulator.run_ifd(run.config), path_b)
    content = path_a.read_bytes()
    assert content == path_b.read_bytes()

    lines = content.decode().splitlines()
    dim = run.config.model.data_dim
    expected_header = "step,t,kl_step,kl_cumulative,exact_deviation,branch," + ",".join(
        f"data_{j}" for j in range(dim)
    )
    assert lines[0] == expected_header
    assert len(lines) == run.config.steps + 1
    first = lines[1].split(",")
    assert len(first) == 6 + dim
    assert first[0] == "1"
    assert first[5] == matching.BRANCH_PROJECTED
    assert_allclose(float(first[1]), run.config.dt, rtol=1e-16)
    # %.17g survives the float round trip bit for bit.
    assert float(first[6]) == run.data[0][0]
    # The writer numbers the steps and times them; the last is step 2^N at T.
    last = lines[-1].split(",")
    assert last[0] == str(run.config.steps)
    assert_allclose(float(last[1]), run.config.total_time, rtol=1e-12)


def test_report_dict_contents():
    run = _run_at(4)
    report = simulator.report_dict(run)
    assert report["config"] == simulator.config_dict(run.config)
    assert report["steps"] == run.config.steps
    assert report["branch_counts"] == {matching.BRANCH_PROJECTED: run.config.steps}
    assert_allclose(report["kl_total"], run.kl_cumulative[-1], rtol=1e-15)
    assert "direct_gap" in report


def test_report_holds_the_schemes_log_amplification():
    # max_c (2^N/2) log1p(dt^2 w_c^2), the w_c the largest imaginary parts of
    # the eigenvalues of the dense M'; scheme 'direct' steps nothing.
    run = _run_at(4)
    w = np.max(np.abs(np.linalg.eigvals(oracles.update_generator(run.config.model)).imag))
    expected = 0.5 * run.config.steps * np.log1p((run.config.dt * w) ** 2)
    assert_allclose(simulator.report_dict(run)["log_amplification"], expected, rtol=1e-13)
    assert "log_amplification" not in simulator.report_dict(_run_at(4, simulator.SCHEME_DIRECT))


def test_sweep_requires_three_distinct_resolutions():
    config = _config()
    with pytest.raises(InsufficientSweep):
        simulator.convergence_sweep(config, [4, 5])
    with pytest.raises(InsufficientSweep):
        simulator.convergence_sweep(config, [4, 4, 4])
    with pytest.raises(InsufficientSweep, match=r"got \[4, 5\]$"):
        simulator.convergence_sweep(config, [4, 4, 5])


@pytest.mark.parametrize(
    "resolutions, message",
    [
        ([4, 5.9, 6], "config field 'N' must be an integer >= 1, got 5.9"),
        ([4, 5, "6"], "config field 'N' must be an integer >= 1, got '6'"),
        ([True, 4, 5], "config fields 'T', 'N' and 'seed' must not be booleans"),
        ([4, 10**5000], "N = a number of more than"),
    ],
    ids=["float", "string", "boolean", "too-many-digits"],
)
def test_sweep_checks_each_resolution_as_a_configs_n(resolutions, message):
    # RunConfig is the one check of N: nothing converts a resolution first,
    # and every one is checked before the distinct ones are counted.
    with pytest.raises(ConfigError, match=re.escape(message)):
        simulator.convergence_sweep(_config(), resolutions)


def test_sweep_slopes_and_monotonicity():
    sweep = simulator.convergence_sweep(_config(), (4, 5, 6))
    assert sweep.resolutions == (4, 5, 6)
    assert_allclose(sweep.dts, [1.0 / 16.0, 1.0 / 32.0, 1.0 / 64.0], rtol=1e-15)
    # One-step entropy is quadratic in dt, its running sum and the gap to the
    # continuous-limit endpoint are linear; the reference deviation sits on
    # the aliasing floor and barely moves.
    assert 1.5 < sweep.slope_per_step < 2.5
    assert 0.6 < sweep.slope_cumulative < 1.6
    assert 0.6 < sweep.slope_direct_gap < 1.6
    assert abs(sweep.slope_deviation) < 0.4
    assert np.all(np.diff(sweep.per_step_kl) < 0.0)
    assert np.all(sweep.direct_gaps > 0.0)


def test_sweep_rerun_matches_single_runs():
    # The sweep shares one dt-independent setup between its runs; each run
    # is still the single run at its resolution, bit for bit.
    sweep = simulator.convergence_sweep(_config(), (4, 5, 6))
    run = _run_at(5)
    assert sweep.per_step_kl[1] == run.kl_step[0]
    assert sweep.cumulative_kl[1] == run.kl_cumulative[-1]
    assert sweep.final_deviations[1] == run.final_deviation
    assert sweep.direct_gaps[1] == run.direct_gap


def test_sweep_builds_the_dt_independent_setup_once(monkeypatch, caplog):
    # M', exp(T M') d(0), the posterior and the Gram condition numbers do not
    # depend on dt: a sweep builds them once.
    calls = Counter()
    original = kleingordon.update_generator_blocks

    def counted(*args, **kwargs):
        calls["update_generator_blocks"] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(kleingordon, "update_generator_blocks", counted)
    caplog.set_level(logging.INFO, logger="infodyn")
    simulator.convergence_sweep(_config(n_modes=16, Y=31, T=0.05), (4, 5, 6))
    assert calls["update_generator_blocks"] == 1
    assert len([r for r in caplog.records if "Gram condition" in r.message]) == 1


def test_mass_enters_only_squared():
    # mu and -mu give the same run, every field after the config bit for
    # bit: only mu^2 enters the dispersion, the prior and the generator.
    runs = [simulator.run_ifd(_config(mu=mu, N=5, scheme="both")) for mu in (1.3, -1.3)]
    for name in simulator.RunResult._fields[1:]:
        left, right = (getattr(run, name) for run in runs)
        if isinstance(left, np.ndarray):
            assert np.array_equal(left, right), name
        else:
            assert left == right, name


def test_replace_keeps_config_frozen():
    config = _config()
    with pytest.raises(AttributeError):
        config.resolution = 5
    finer = config.replace(resolution=6)
    assert finer.steps == 64 and config.steps == 16
    assert finer == _config(N=6) and finer != config


def test_replace_validates_like_a_new_config():
    config = _config()
    # At (4, 5), N = 20 is the largest whose per-step arrays fit in
    # MAX_PER_STEP_BYTES; past it a replaced config is refused as a new one
    # is.
    assert config.replace(resolution=20).resolution == 20
    with pytest.raises(ConfigError, match="config field 'N' must be at most 20"):
        config.replace(resolution=21)
    with pytest.raises(ConfigError, match="scheme"):
        config.replace(scheme="nope")
    assert config.resolution == 4
