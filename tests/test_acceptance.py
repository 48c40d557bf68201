"""Acceptance gate: every shipped guarantee, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines;
each check states its measured number next to the tolerance it is held to.
Oracles here are self-contained on purpose (independent quadrature, Monte
Carlo and descent implementations), at the cost of some duplication with the
per-module tests.
"""

import time

import numpy as np
import pytest
import scipy.integrate

from infodyn import gaussian, kleingordon, matching, simulator
from infodyn.gaussian import GaussianDensity, LinearMeasurement
from infodyn.matching import MatchProblem

import oracles


def _verdict(ok, label):
    print(f"[{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, label


def _spd(rng, n, lo=0.8, hi=1.2):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return (q * rng.uniform(lo, hi, n)) @ q.T


def test_acceptance_1_wiener_representations():
    rng = np.random.default_rng(20260801)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 7))
        y = int(rng.integers(1, 5))
        prior = GaussianDensity(mean=rng.standard_normal(n), cov=_spd(rng, n, 0.5, 2.0))
        meas = LinearMeasurement(
            response=rng.standard_normal((y, n)),
            noise_cov=_spd(rng, y, 0.5, 2.0),
        )
        w_signal = gaussian.wiener_filter(prior, meas, "signal_space")
        w_data = gaussian.wiener_filter(prior, meas, "data_space")
        rel = np.linalg.norm(w_signal - w_data) / np.linalg.norm(w_data)
        worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    _verdict(
        worst <= 1e-10 and elapsed < 5.0,
        "1/9 wiener filter representations: max relative gap "
        f"{worst:.2e} (tol 1e-10) over 100 instances in {elapsed:.2f}s (limit 5s)",
    )


def _independent_log_joint(prior, meas, data):
    # Unnormalized log posterior, written from scratch with plain numpy.
    phi_inv = np.linalg.inv(prior.cov)
    n_inv = np.linalg.inv(meas.noise_cov)

    def log_joint(s):
        ds = s - prior.mean
        res = data - meas.response @ s
        return -0.5 * (ds @ phi_inv @ ds + res @ n_inv @ res)

    return log_joint


def test_acceptance_2_posterior_density_vs_quadrature():
    rng = np.random.default_rng(20260802)
    start = time.perf_counter()
    worst = 0.0
    for n in (1, 2):
        for _ in range(2):
            y = int(rng.integers(1, 3))
            prior = GaussianDensity(
                mean=rng.standard_normal(n), cov=_spd(rng, n, 0.5, 2.0)
            )
            meas = LinearMeasurement(
                response=rng.standard_normal((y, n)),
                noise_cov=np.diag(rng.uniform(0.2, 0.8, y)),
            )
            data = rng.standard_normal(y)
            post = gaussian.posterior(prior, meas, data)
            log_joint = _independent_log_joint(prior, meas, data)
            sigma = np.sqrt(np.max(np.linalg.eigvalsh(post.cov)))
            lo, hi = post.mean - 10.0 * sigma, post.mean + 10.0 * sigma
            peak = log_joint(post.mean)
            if n == 1:
                z, _ = scipy.integrate.quad(
                    lambda s: np.exp(log_joint(np.array([s])) - peak),
                    lo[0], hi[0], epsabs=0.0, epsrel=1e-11, limit=200,
                )
            else:
                z, _ = scipy.integrate.dblquad(
                    lambda s1, s0: np.exp(log_joint(np.array([s0, s1])) - peak),
                    lo[0], hi[0], lo[1], hi[1],
                    epsabs=1e-13, epsrel=1e-11,
                )
            chol = np.linalg.cholesky(post.cov)
            points = post.mean + rng.standard_normal((25, n)) @ chol.T
            for x in points:
                closed = np.exp(post.log_density(x))
                quadrature = np.exp(log_joint(x) - peak) / z
                worst = max(worst, abs(closed - quadrature) / closed)
    elapsed = time.perf_counter() - start
    _verdict(
        worst <= 1e-6 and elapsed < 30.0,
        "2/9 posterior density vs quadrature-normalized prior*likelihood: "
        f"max pointwise relative error {worst:.2e} (tol 1e-6) "
        f"in {elapsed:.2f}s (limit 30s)",
    )


def test_acceptance_3_kl_against_monte_carlo():
    rng = np.random.default_rng(20260803)
    worst_sigmas = 0.0
    for _ in range(10):
        n = int(rng.integers(1, 5))
        p = GaussianDensity(mean=rng.standard_normal(n), cov=_spd(rng, n, 0.5, 2.0))
        q = GaussianDensity(mean=rng.standard_normal(n), cov=_spd(rng, n, 0.5, 2.0))
        closed = gaussian.kl_divergence(p, q)
        # Samples drawn with plain numpy, not the library sampler.
        chol = np.linalg.cholesky(p.cov)
        samples = p.mean + rng.standard_normal((10**6, n)) @ chol.T
        log_ratio = p.log_density(samples) - q.log_density(samples)
        mc = float(np.mean(log_ratio))
        se = float(np.std(log_ratio, ddof=1) / np.sqrt(log_ratio.size))
        worst_sigmas = max(worst_sigmas, abs(closed - mc) / se)
    p = GaussianDensity(mean=np.zeros(3), cov=_spd(rng, 3))
    self_kl = gaussian.kl_divergence(p, p)
    _verdict(
        worst_sigmas <= 3.0 and self_kl < 1e-12,
        "3/9 gaussian relative entropy vs Monte Carlo: worst deviation "
        f"{worst_sigmas:.2f} standard errors (tol 3) over 10 pairs at 1e6 "
        f"samples; KL(p||p) = {self_kl:.2e} (tol 1e-12)",
    )


def _well_conditioned_response(rng, y, n):
    qy, _ = np.linalg.qr(rng.standard_normal((y, y)))
    qn, _ = np.linalg.qr(rng.standard_normal((n, n)))
    s = np.zeros((y, n))
    s[:y, :y] = np.diag(rng.uniform(0.9, 1.1, y))
    return qy @ s @ qn.T


def _random_problem(rng, n, y, deficient=False):
    prior = GaussianDensity(mean=rng.standard_normal(n), cov=_spd(rng, n))
    resp = _well_conditioned_response(rng, y, n)
    if deficient:
        resp[-1] = resp[-2]
    meas = LinearMeasurement(
        response=resp, noise_cov=np.diag(rng.uniform(0.45, 0.55, y))
    )
    return MatchProblem(
        evolved_mean=rng.standard_normal(n),
        evolved_inv_cov=_spd(rng, n),
        new_prior=prior,
        new_meas=meas,
    )


def _descent_minimize(problem, u0, max_iter=20000, grad_tol=3e-8):
    # Armijo gradient descent warm-started at the exact quadratic step;
    # from the origin it stays in the span of the gradients, so it is also
    # a minimum-norm oracle on singular Hessians.
    u = np.asarray(u0, dtype=float).copy()
    f = matching.objective(problem, u)
    for _ in range(max_iter):
        g = oracles.objective_gradient(problem, u)
        gn2 = float(g @ g)
        if np.sqrt(gn2) <= grad_tol:
            break
        curvature = (
            matching.objective(problem, u + g)
            - 2.0 * f
            + matching.objective(problem, u - g)
        )
        alpha = gn2 / curvature if curvature > 0.0 else 1.0
        while alpha > 1e-18:
            trial = u - alpha * g
            ft = matching.objective(problem, trial)
            if ft <= f - 1e-4 * alpha * gn2:
                u, f = trial, ft
                break
            alpha *= 0.5
        else:
            break
    return u


def test_acceptance_4_entropic_matching():
    rng = np.random.default_rng(20260804)
    worst_match = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 6))
        y = int(rng.integers(1, n + 1))
        problem = _random_problem(rng, n, y)
        result = matching.match(problem)
        oracle = _descent_minimize(problem, np.zeros(y))
        scale = max(1.0, np.max(np.abs(result.data)))
        worst_match = max(worst_match, np.max(np.abs(result.data - oracle)) / scale)
        regular = result.branch == matching.BRANCH_REGULAR
        if not regular:
            worst_match = np.inf

    worst_grad = 0.0
    for _ in range(10):
        n = int(rng.integers(2, 6))
        y = int(rng.integers(1, n + 1))
        problem = _random_problem(rng, n, y)
        u = rng.standard_normal(y)
        grad = oracles.objective_gradient(problem, u)
        eps = 1e-6
        for j in range(y):
            e = np.zeros(y)
            e[j] = eps
            numeric = (
                matching.objective(problem, u + e)
                - matching.objective(problem, u - e)
            ) / (2.0 * eps)
            worst_grad = max(
                worst_grad, abs(grad[j] - numeric) / max(1.0, abs(grad[j]))
            )

    worst_null = 0.0
    for _ in range(10):
        n = int(rng.integers(3, 6))
        problem = _random_problem(rng, n, n, deficient=True)
        result = matching.match(problem)
        if result.branch != matching.BRANCH_PROJECTED:
            worst_null = np.inf
            break
        # Minimum norm: the solution carries no component in the Hessian
        # nullspace, and the descent oracle from the origin agrees.
        p, rank = matching.nullspace_projector(problem.hessian())
        assert rank < problem.data_dim
        null_part = result.data - p.T @ (p @ result.data)
        worst_null = max(worst_null, float(np.linalg.norm(null_part)))
        oracle = _descent_minimize(problem, np.zeros(n))
        scale = max(1.0, np.max(np.abs(result.data)))
        worst_null = max(worst_null, np.max(np.abs(result.data - oracle)) / scale)

    _verdict(
        worst_match <= 1e-6 and worst_grad <= 1e-6 and worst_null <= 1e-6,
        "4/9 entropic matching: closed form vs descent oracle "
        f"{worst_match:.2e} (tol 1e-6, 50 regular instances); gradient vs "
        f"central differences {worst_grad:.2e} (tol 1e-6); minimum-norm "
        f"deviation {worst_null:.2e} (tol 1e-6, 10 singular instances)",
    )


def test_acceptance_5_klein_gordon_structure():
    worst_diag = 0.0
    for n, y in ((4, 5), (3, 5), (6, 5), (5, 7), (8, 9)):
        model = kleingordon.KGModel(n_modes=n, pixels=y, mu=1.0, beta=1.0, sigma_n2=0.01)
        r = oracles.build_response(model)
        full = np.diag(oracles.build_prior_cov(model))
        p = model.part_dim
        for part, diag in (
            (kleingordon.PART_PHI, full[:p]),
            (kleingordon.PART_CHI, full[p:]),
        ):
            dense = np.diag(r @ np.diag(diag) @ r.T)
            closed = kleingordon.rphi_rt_diag(model, part)
            worst_diag = max(worst_diag, float(np.max(np.abs(dense - closed))))

    model = kleingordon.KGModel(n_modes=4, pixels=5, mu=1.0, beta=1.0, sigma_n2=0.01)
    rng = np.random.default_rng(20260805)
    state = rng.standard_normal(model.signal_dim)
    e0 = kleingordon.field_energy(model, state)
    a = oracles.exact_step(model, 1.0 / 2**9)
    worst_energy = 0.0
    for _ in range(2**9):
        state = a @ state
        worst_energy = max(
            worst_energy, abs(kleingordon.field_energy(model, state) - e0) / e0
        )

    worst_group = 0.0
    for s, t in ((0.1, 0.25), (0.5, 0.5), (0.3, -0.2), (1.0, 2.0)):
        gap = oracles.exact_step(model, s) @ oracles.exact_step(
            model, t
        ) - oracles.exact_step(model, s + t)
        worst_group = max(worst_group, float(np.max(np.abs(gap))))

    _verdict(
        worst_diag <= 1e-10 and worst_energy <= 1e-10 and worst_group <= 1e-10,
        "5/9 field model closed forms: gram diagonal vs dense "
        f"{worst_diag:.2e}, energy drift {worst_energy:.2e} over 512 steps, "
        f"group law gap {worst_group:.2e} (tol 1e-10 each)",
    )


_SWEEP_STATE = {}


def _sweep():
    if "sweep" not in _SWEEP_STATE:
        config = simulator.parse_config(
            {
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
        )
        start = time.perf_counter()
        _SWEEP_STATE["sweep"] = simulator.convergence_sweep(config, range(4, 10))
        _SWEEP_STATE["elapsed"] = time.perf_counter() - start
    return _SWEEP_STATE["sweep"], _SWEEP_STATE["elapsed"]


def test_acceptance_6_per_step_entropy_order():
    sweep, elapsed = _sweep()
    slope = sweep.slope_per_step
    _verdict(
        abs(slope - 2.0) <= 0.3 and elapsed < 60.0,
        "6/9 per-step relative entropy order: log-log slope "
        f"{slope:+.4f} vs dt (tol 2 +- 0.3, resolutions 4..9) "
        f"in {elapsed:.2f}s (limit 60s)",
    )


def test_acceptance_7_cumulative_entropy_order():
    sweep, _ = _sweep()
    slope = sweep.slope_cumulative
    _verdict(
        abs(slope - 1.0) <= 0.3,
        "7/9 cumulative relative entropy order: log-log slope "
        f"{slope:+.4f} vs dt (tol 1 +- 0.3, resolutions 4..9)",
    )


def test_acceptance_8_iterated_vs_direct_order():
    sweep, _ = _sweep()
    slope = sweep.slope_direct_gap
    _verdict(
        abs(slope - 1.0) <= 0.3,
        "8/9 iterated endpoint vs continuous limit: gap slope "
        f"{slope:+.4f} vs dt (tol 1 +- 0.3, resolutions 4..9)",
    )


def test_acceptance_9_bit_identical_reproducibility(tmp_path):
    config = simulator.parse_config(
        {
            "n_modes": 4,
            "Y": 5,
            "mu": 1.0,
            "beta": 1.0,
            "sigma_n2": 0.01,
            "T": 1.0,
            "N": 6,
            "seed": 123,
            "initial_data": "generate",
            "scheme": "iterated",
        }
    )
    path_a = tmp_path / "a.csv"
    path_b = tmp_path / "b.csv"
    simulator.write_csv(simulator.run_ifd(config), path_a)
    simulator.write_csv(simulator.run_ifd(config), path_b)
    identical = path_a.read_bytes() == path_b.read_bytes()
    _verdict(
        identical,
        "9/9 reproducibility: identical config and seed give bit-identical "
        f"CSV ({path_a.stat().st_size} bytes compared)",
    )
