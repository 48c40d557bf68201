"""Bayesian updating against quadrature, Monte Carlo and closed-form oracles."""

import re

import numpy as np
import pytest
import scipy.stats
from numpy.testing import assert_allclose

from infodyn import gaussian
from infodyn.errors import InvalidInput, NotPositiveDefinite
from infodyn.gaussian import GaussianDensity, LinearMeasurement


def _random_setup(rng, n, y):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    phi = (q * rng.uniform(0.3, 3.0, n)) @ q.T
    prior = GaussianDensity(mean=rng.standard_normal(n), cov=phi)
    response = rng.standard_normal((y, n))
    qn, _ = np.linalg.qr(rng.standard_normal((y, y)))
    noise = (qn * rng.uniform(0.1, 1.0, y)) @ qn.T
    meas = LinearMeasurement(response=response, noise_cov=noise)
    return prior, meas


def test_wiener_representations_agree():
    rng = np.random.default_rng(101)
    for _ in range(100):
        n = int(rng.integers(1, 7))
        y = int(rng.integers(1, 5))
        prior, meas = _random_setup(rng, n, y)
        w_signal = gaussian.wiener_filter(prior, meas, "signal_space")
        w_data = gaussian.wiener_filter(prior, meas, "data_space")
        _, w_post, _ = gaussian.posterior_operators(prior, meas)
        scale = max(1.0, np.max(np.abs(w_signal)))
        assert np.max(np.abs(w_signal - w_data)) < 1e-10 * scale
        assert np.max(np.abs(w_signal - w_post)) < 1e-10 * scale


def test_wiener_unknown_representation():
    rng = np.random.default_rng(5)
    prior, meas = _random_setup(rng, 2, 2)
    with pytest.raises(InvalidInput):
        gaussian.wiener_filter(prior, meas, "spectral")


def test_posterior_operators_refuse_an_information_matrix_that_fails_the_pd_test():
    # The prior passes its own test (smallest variance ratio 1e-11), but
    # D^-1 = diag(1 + 1e3, 1e-11) does not: 1e-11 < PD_RTOL * 1001.
    prior = GaussianDensity(mean=np.zeros(2), cov=np.diag([1.0, 1e11]))
    meas = LinearMeasurement(response=[[1.0, 0.0]], noise_cov=[[1e-3]])
    with pytest.raises(NotPositiveDefinite, match="^posterior information matrix: smallest"):
        gaussian.posterior_operators(prior, meas)
    # A little more prior precision on the second component passes.
    gaussian.posterior_operators(GaussianDensity(np.zeros(2), np.diag([1.0, 1e8])), meas)


def _quadrature_posterior_moments(prior, meas, data, points=400):
    """Posterior mean and covariance by trapezoid quadrature, dims <= 2.

    Integrates exp(log prior + log likelihood) on a box of +-8 prior
    standard deviations per axis; the likelihood only reweights inside that
    box, so the truncation error is far below the comparison tolerance.
    """
    n = prior.dim
    sd = np.sqrt(np.diag(prior.cov))
    axes = [
        np.linspace(prior.mean[i] - 8.0 * sd[i], prior.mean[i] + 8.0 * sd[i], points)
        for i in range(n)
    ]
    mesh = np.meshgrid(*axes, indexing="ij")
    grid = np.stack([m.ravel() for m in mesh], axis=-1)
    noise = GaussianDensity(mean=np.zeros(meas.data_dim), cov=meas.noise_cov)
    log_w = prior.log_density(grid) + noise.log_density(
        data - grid @ meas.response.T
    )
    w = np.exp(log_w - np.max(log_w))
    norm = np.sum(w)
    mean = (w @ grid) / norm
    centered = grid - mean
    cov = (centered.T * w) @ centered / norm
    return mean, cov


def test_posterior_matches_quadrature():
    rng = np.random.default_rng(103)
    for n in (1, 2):
        for _ in range(3):
            y = int(rng.integers(1, 3))
            prior, meas = _random_setup(rng, n, y)
            data = meas.response @ prior.mean + rng.standard_normal(y)
            post = gaussian.posterior(prior, meas, data)
            mean_q, cov_q = _quadrature_posterior_moments(prior, meas, data)
            assert_allclose(post.mean, mean_q, atol=1e-6)
            assert_allclose(post.cov, cov_q, atol=1e-6)


def test_posterior_scalar_frozen():
    # psi = 0, Phi = R = N = 1, d = 2: D = 1/2 and m = 1 by hand.
    prior = GaussianDensity(mean=[0.0], cov=[[1.0]])
    meas = LinearMeasurement(response=[[1.0]], noise_cov=[[1.0]])
    post = gaussian.posterior(prior, meas, [2.0])
    assert_allclose(post.mean, [1.0], rtol=1e-14)
    assert_allclose(post.cov, [[0.5]], rtol=1e-14)


def test_posterior_mean_fixed_at_predicted_data():
    rng = np.random.default_rng(107)
    prior, meas = _random_setup(rng, 4, 3)
    post = gaussian.posterior(prior, meas, meas.response @ prior.mean)
    assert_allclose(post.mean, prior.mean, atol=1e-10)


def test_posterior_covariance_ignores_data():
    rng = np.random.default_rng(109)
    prior, meas = _random_setup(rng, 3, 2)
    post_a = gaussian.posterior(prior, meas, rng.standard_normal(2))
    post_b = gaussian.posterior(prior, meas, rng.standard_normal(2))
    assert_allclose(post_a.cov, post_b.cov, rtol=1e-14)


def test_log_density_matches_scipy():
    rng = np.random.default_rng(113)
    for n in (1, 3, 5):
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        cov = (q * rng.uniform(0.2, 2.0, n)) @ q.T
        mean = rng.standard_normal(n)
        density = GaussianDensity(mean=mean, cov=cov)
        xs = rng.standard_normal((7, n))
        expected = scipy.stats.multivariate_normal(mean, cov).logpdf(xs)
        assert_allclose(density.log_density(xs), expected, rtol=1e-10)
        # Single-point call agrees with the batch call.
        assert_allclose(density.log_density(xs[0]), expected[0], rtol=1e-10)


def test_quadratic_form_of_a_batch():
    # A (2, 3, n) batch gives the (2, 3) forms delta^T Sigma^-1 delta, and
    # one vector gives a scalar.
    rng = np.random.default_rng(127)
    n = 4
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    cov = (q * rng.uniform(0.2, 2.0, n)) @ q.T
    density = GaussianDensity(mean=np.zeros(n), cov=cov)
    deltas = rng.standard_normal((2, 3, n))
    expected = np.einsum("abi,ij,abj->ab", deltas, np.linalg.inv(cov), deltas)
    assert_allclose(density.quadratic_form(deltas), expected, rtol=1e-12)
    single = density.quadratic_form(deltas[1, 2])
    assert np.ndim(single) == 0
    assert_allclose(single, expected[1, 2], rtol=1e-12)


def test_kl_scalar_frozen():
    # D(N(0,2) || N(0,1)) = (2 - 1 - log 2)/2.
    p = GaussianDensity(mean=[0.0], cov=[[2.0]])
    q = GaussianDensity(mean=[0.0], cov=[[1.0]])
    assert_allclose(
        gaussian.kl_divergence(p, q), 0.15342640972002733, rtol=1e-14
    )


def test_kl_of_densities_whose_generalized_spectrum_spreads_widely():
    # Each density passes its own positive definiteness test, but the
    # generalized eigenvalues of (Sigma_p, Sigma_q), 1e-7 and 1e7, spread
    # past 1 / PD_RTOL.  The relative entropy is finite and exact there:
    # 1/2 (1e7 + 1e-7 - 2 - log(1e7 * 1e-7)).
    p = GaussianDensity(mean=np.zeros(2), cov=np.diag([1.0, 1e-7]))
    q = GaussianDensity(mean=np.zeros(2), cov=np.diag([1e-7, 1.0]))
    assert_allclose(gaussian.kl_divergence(p, q), 0.5 * (1e7 + 1e-7 - 2.0), rtol=1e-14)


def test_kl_self_is_zero_and_nonnegative():
    rng = np.random.default_rng(127)
    for _ in range(10):
        n = int(rng.integers(1, 5))
        p, _ = _random_setup(rng, n, 1)
        q, _ = _random_setup(rng, n, 1)
        assert gaussian.kl_divergence(p, p) < 1e-12
        assert gaussian.kl_divergence(p, q) >= 0.0


def test_kl_matches_monte_carlo():
    rng = np.random.default_rng(131)
    for trial in range(10):
        n = int(rng.integers(1, 4))
        p, _ = _random_setup(rng, n, 1)
        q, _ = _random_setup(rng, n, 1)
        xs = gaussian.sample(p, 10**6, seed=1000 + trial)
        values = p.log_density(xs) - q.log_density(xs)
        estimate = float(np.mean(values))
        stderr = float(np.std(values, ddof=1) / np.sqrt(len(values)))
        assert abs(gaussian.kl_divergence(p, q) - estimate) < 3.0 * stderr


def test_evidence_moments():
    rng = np.random.default_rng(149)
    prior, meas = _random_setup(rng, 3, 2)
    ev = gaussian.evidence(prior, meas)
    assert_allclose(ev.mean, meas.response @ prior.mean, rtol=1e-14)
    assert_allclose(
        ev.cov,
        meas.response @ prior.cov @ meas.response.T + meas.noise_cov,
        rtol=1e-13,
    )


def test_info_hamiltonian_identity():
    # -H(d, s) = log posterior(s) + log evidence(d), for any s and d.
    rng = np.random.default_rng(151)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        y = int(rng.integers(1, 4))
        prior, meas = _random_setup(rng, n, y)
        data = rng.standard_normal(y)
        signal = rng.standard_normal(n)
        post = gaussian.posterior(prior, meas, data)
        ev = gaussian.evidence(prior, meas)
        lhs = -gaussian.info_hamiltonian(prior, meas, data, signal)
        rhs = post.log_density(signal) + ev.log_density(data)
        assert_allclose(lhs, rhs, atol=1e-10)


def test_sample_deterministic_and_moments():
    rng = np.random.default_rng(157)
    p, _ = _random_setup(rng, 3, 1)
    a = gaussian.sample(p, 5, seed=42)
    b = gaussian.sample(p, 5, seed=42)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, gaussian.sample(p, 5, seed=43))
    xs = gaussian.sample(p, 200**2, seed=44)
    assert_allclose(np.mean(xs, axis=0), p.mean, atol=0.05)
    assert_allclose(np.cov(xs.T), p.cov, atol=0.1)


def test_sample_count_validation():
    p = GaussianDensity(mean=[0.0], cov=[[1.0]])
    with pytest.raises(InvalidInput):
        gaussian.sample(p, 0, seed=1)
    with pytest.raises(InvalidInput):
        gaussian.sample(p, -3, seed=1)


def test_density_validation():
    with pytest.raises(InvalidInput):
        GaussianDensity(mean=[0.0, 1.0], cov=[[1.0]])
    with pytest.raises(InvalidInput):
        GaussianDensity(mean=[np.inf], cov=[[1.0]])
    with pytest.raises(InvalidInput, match=r"^mean must be one dimensional, got shape \(1, 2\)$"):
        GaussianDensity(mean=[[0.0, 1.0]], cov=np.eye(2))
    with pytest.raises(InvalidInput, match="^dimension mismatch: 2 vs 3$"):
        gaussian.kl_divergence(
            GaussianDensity(mean=np.zeros(2), cov=np.eye(2)),
            GaussianDensity(mean=np.zeros(3), cov=np.eye(3)),
        )
    with pytest.raises(NotPositiveDefinite):
        GaussianDensity(mean=[0.0, 0.0], cov=[[1.0, 0.0], [0.0, -1.0]])


@pytest.mark.parametrize("shape", [(4,), (2,), (1,), (5, 2), ()])
def test_density_evaluations_refuse_points_of_another_dimension(shape):
    # Neither numpy's broadcasting error nor a point of dimension 1
    # broadcast against the mean: the dense library's own InvalidInput.
    density = GaussianDensity(np.zeros(3), np.eye(3))
    for evaluate in (density.log_density, density.quadratic_form):
        with pytest.raises(InvalidInput, match=rf"^points of shape {re.escape(str(shape))} do not have dimension 3$"):
            evaluate(np.ones(shape))


def test_measurement_validation():
    with pytest.raises(InvalidInput, match="response must be a matrix"):
        LinearMeasurement(response=[1.0, 2.0], noise_cov=[[1.0]])
    with pytest.raises(InvalidInput, match="response entries must be finite"):
        LinearMeasurement(response=[[np.nan, 1.0]], noise_cov=[[1.0]])
    with pytest.raises(InvalidInput, match="does not match response rows 2"):
        LinearMeasurement(response=np.ones((2, 3)), noise_cov=np.eye(3))
    # The noise is refused by the density that holds it.
    with pytest.raises(NotPositiveDefinite, match="GaussianDensity"):
        LinearMeasurement(response=np.ones((2, 3)), noise_cov=np.diag([1.0, -1.0]))
    prior = GaussianDensity(mean=np.zeros(3), cov=np.eye(3))
    meas = LinearMeasurement(response=np.ones((2, 3)), noise_cov=np.eye(2))
    with pytest.raises(InvalidInput, match="^response acts on dimension 3 but prior has dimension 2$"):
        gaussian.posterior_operators(GaussianDensity(mean=np.zeros(2), cov=np.eye(2)), meas)
    with pytest.raises(InvalidInput, match="^data has dimension 3, expected 2$"):
        gaussian.posterior(prior, meas, np.zeros(3))
    with pytest.raises(InvalidInput, match="^signal has dimension 2, expected 3$"):
        gaussian.info_hamiltonian(prior, meas, np.zeros(2), np.zeros(2))
    with pytest.raises(InvalidInput, match="^data has dimension 3, expected 2$"):
        gaussian.info_hamiltonian(prior, meas, np.zeros(3), np.zeros(3))
