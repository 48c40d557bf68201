"""Run loop, config handling, CSV determinism and convergence slopes."""

import dataclasses
import json
import logging
from collections import Counter

import numpy as np
import pytest
from numpy.testing import assert_allclose

from infodyn import dynamics, gaussian, kleingordon, matching, simulator
from infodyn.errors import ConfigError, InsufficientSweep, StepTooLarge


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
    with pytest.raises(ConfigError, match="'seed' must be an integer"):
        simulator.parse_config(_base_mapping(seed=True))
    with pytest.raises(ConfigError, match="'N' must be an integer"):
        simulator.parse_config(_base_mapping(N=4.0))
    with pytest.raises(ConfigError, match="'mu' must be a number"):
        simulator.parse_config(_base_mapping(mu="1.0"))
    with pytest.raises(ConfigError, match="'scheme' must be one of"):
        simulator.parse_config(_base_mapping(scheme="exact"))
    with pytest.raises(ConfigError, match="'T' must be positive"):
        simulator.parse_config(_base_mapping(T=-1.0))


def test_parse_config_checks_step_against_validity_region():
    with pytest.raises(ConfigError, match="'T' and 'N'"):
        simulator.parse_config(_base_mapping(T=16.0, N=2))


def test_parse_config_wraps_model_errors():
    with pytest.raises(ConfigError, match="odd"):
        simulator.parse_config(_base_mapping(Y=4))
    with pytest.raises(ConfigError, match="mu = 0"):
        simulator.parse_config(_base_mapping(mu=0.0))


def test_generated_initial_data_is_seed_deterministic():
    d_a = simulator.resolve_initial_data(_config())
    d_b = simulator.resolve_initial_data(_config())
    d_c = simulator.resolve_initial_data(_config(seed=124))
    assert_allclose(d_a, d_b, rtol=0.0, atol=0.0)
    assert np.max(np.abs(d_a - d_c)) > 1e-3
    # Signal draw and noise draw come from separate streams: the noise-free
    # part is the response image of a prior sample under the config seed.
    model = _config().model
    s0 = gaussian.sample(kleingordon.prior_density(model), 1, 123)[0]
    residual = d_a - kleingordon.measurement(model).response @ s0
    assert np.max(np.abs(residual)) < 1.0  # noise scale sqrt(0.01)


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


def test_exact_reference_conserves_energy():
    config = _config(N=5)
    reference = simulator.run_exact_reference(config)
    assert reference.data.shape == (config.steps + 1, config.model.data_dim)
    assert reference.times[0] == 0.0
    assert_allclose(reference.times[-1], config.total_time, rtol=1e-12)
    assert reference.energy_drift < 1e-10


def test_energy_drift_keeps_overflow_nan():
    # Initial data of order 1e200 overflow the field energy; the drift must
    # come out NaN, which the run refuses, not 0.0 from max() dropping NaN.
    config = _config(N=4)
    d0 = 1e200 * simulator.resolve_initial_data(config)
    with np.errstate(over="ignore", invalid="ignore"):
        reference = simulator.run_exact_reference(config, d0)
    assert np.isnan(reference.energy_drift)


def test_closed_form_reference_matches_repeated_exact_steps():
    config = _config(N=6)
    model = config.model
    d0 = simulator.resolve_initial_data(config)
    reference = simulator.run_exact_reference(config, d0)
    prior = kleingordon.prior_density(model)
    meas = kleingordon.measurement(model)
    mean = gaussian.posterior(prior, meas, d0).mean
    a_step = kleingordon.exact_step(model, config.dt)
    for i in range(config.steps + 1):
        assert_allclose(reference.data[i], meas.response @ mean, rtol=1e-10)
        mean = a_step @ mean


def test_direct_deviation_uses_last_reference_row():
    both = _run_at(4)
    direct = _run_at(4, scheme=simulator.SCHEME_DIRECT)
    last = simulator.run_exact_reference(both.config).data[-1]
    assert_allclose(
        direct.final_deviation, np.linalg.norm(direct.final_data - last), rtol=1e-12
    )
    assert direct.reference_energy_drift == both.reference_energy_drift


def test_batched_diagnostics_match_per_step_oracle():
    # The per-step construction the batched diagnostics replace: fresh
    # densities, two KL evaluations and one match problem per step.
    run = _run_at(4)
    model = run.config.model
    dt = run.config.dt
    prior = kleingordon.prior_density(model)
    meas = kleingordon.measurement(model)
    w = gaussian.wiener_filter(prior, meas)
    d_cov = gaussian.posterior(prior, meas, np.zeros(model.data_dim)).cov
    g_step = dynamics.AffineDynamics(
        generator=kleingordon.build_generator(model),
        dt=dt,
    ).step_matrix()
    a_step = kleingordon.exact_step(model, dt)
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


def test_run_factors_each_matrix_once(monkeypatch, caplog):
    # One run computes the posterior and the Wiener filter once, hands both
    # to the matcher, and factors no diagonal matrix (the prior, the white
    # noise and, at this model, the posterior covariance).  The eigh calls
    # left are the evolved covariances, the two whitened KL covariance
    # differences, the posterior information matrix and the match Hessian.
    counts = Counter()

    def count(owner, name):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        # By-name imports inside the package are counted too.
        for module in (owner, gaussian, matching, simulator, kleingordon):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)

    count(np.linalg, "eigh")
    count(gaussian, "posterior")
    count(gaussian, "wiener_filter")
    # The Gram condition numbers are factored only when INFO is logged.
    caplog.set_level(logging.WARNING, logger="infodyn")
    simulator.run_ifd(_config(n_modes=16, Y=31, T=0.05, N=5, scheme="both"))
    assert counts == {"eigh": 6, "posterior": 1, "wiener_filter": 1}


def _assert_no_steps(run):
    assert run.data.shape == (0, run.config.model.data_dim)
    for column in (
        run.kl_step, run.kl_cumulative, run.kl_evolution, run.exact_deviation
    ):
        assert column.shape == (0,)
    assert run.branch == () and run.branch_counts == {}


def test_diagnostics_refuse_steps_beyond_linearized_region():
    # dt = 1/8 passes config validation (update matrix needs dt < 1/w_max)
    # but the per-step diagnostics linearize the evolution and need
    # dt ||L|| < 1; the run refuses rather than reporting garbage.
    config = _config(N=3)
    with pytest.raises(StepTooLarge):
        simulator.run_ifd(config)
    # The direct endpoint has no step restriction at all.
    direct = simulator.run_ifd(dataclasses.replace(config, scheme="direct"))
    _assert_no_steps(direct)


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


def test_sweep_requires_three_distinct_resolutions():
    config = _config()
    with pytest.raises(InsufficientSweep):
        simulator.convergence_sweep(config, [4, 5])
    with pytest.raises(InsufficientSweep):
        simulator.convergence_sweep(config, [4, 4, 4])


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
    sweep = simulator.convergence_sweep(_config(), (4, 5, 6))
    run = _run_at(5)
    assert_allclose(sweep.per_step_kl[1], run.kl_step[0], rtol=1e-15)
    assert_allclose(sweep.cumulative_kl[1], run.kl_cumulative[-1], rtol=1e-15)
    assert_allclose(sweep.final_deviations[1], run.final_deviation, rtol=1e-15)


def test_replace_keeps_config_frozen():
    config = _config()
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.resolution = 5
    finer = dataclasses.replace(config, resolution=6)
    assert finer.steps == 64 and config.steps == 16
