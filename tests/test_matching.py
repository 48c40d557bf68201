"""Entropic matching: closed form against a descent oracle, all three branches."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from infodyn import gaussian, matching
from infodyn.errors import InvalidInput
from infodyn.gaussian import GaussianDensity, LinearMeasurement
from infodyn.matching import MatchProblem


def _spd(rng, n, lo=0.8, hi=1.2):
    # Random orientation, narrow eigenvalue band: keeps every match Hessian
    # well conditioned so the descent oracle converges in a few hundred
    # steps rather than tens of thousands.
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return (q * rng.uniform(lo, hi, n)) @ q.T


def _well_conditioned_response(rng, y, n):
    qy, _ = np.linalg.qr(rng.standard_normal((y, y)))
    qn, _ = np.linalg.qr(rng.standard_normal((n, n)))
    s = np.zeros((y, n))
    s[:y, :y] = np.diag(rng.uniform(0.9, 1.1, y))
    return qy @ s @ qn.T


def _random_problem(rng, n, y, deficient=False, zero_means=False):
    prior_mean = np.zeros(n) if zero_means else rng.standard_normal(n)
    prior = GaussianDensity(mean=prior_mean, cov=_spd(rng, n))
    resp = _well_conditioned_response(rng, y, n)
    if deficient:
        # Duplicate the last row: one data channel is measured twice, the
        # lifted filter loses a column direction and the Hessian a rank.
        resp[-1] = resp[-2]
    meas = LinearMeasurement(
        response=resp, noise_cov=np.diag(rng.uniform(0.45, 0.55, y))
    )
    evolved_mean = np.zeros(n) if zero_means else rng.standard_normal(n)
    return MatchProblem(
        evolved_mean=evolved_mean,
        evolved_inv_cov=_spd(rng, n),
        new_prior=prior,
        new_meas=meas,
    )


def descent_minimize(problem, u0, max_iter=20000, grad_tol=3e-8):
    """Gradient descent with Armijo backtracking on the match objective.

    The objective is an exact quadratic in u, so the curvature along the
    gradient comes out of one symmetric difference of objective values and
    the backtracking is warm-started at the exact line-search step (which
    the Armijo test then accepts at once).  Starting from the origin the
    iterates stay in the span of the gradients, so on a singular Hessian
    this converges to the norm-minimal minimizer; that makes it an
    independent oracle for both the regular and the projected branch.
    """
    u = np.asarray(u0, dtype=float).copy()
    f = matching.objective(problem, u)
    for _ in range(max_iter):
        g = matching.objective_gradient(problem, u)
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


def test_gradient_matches_central_differences():
    rng = np.random.default_rng(307)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        y = int(rng.integers(1, n + 1))
        problem = _random_problem(rng, n, y)
        u = rng.standard_normal(y)
        grad = matching.objective_gradient(problem, u)
        eps = 1e-6
        for j in range(y):
            e = np.zeros(y)
            e[j] = eps
            numeric = (
                matching.objective(problem, u + e)
                - matching.objective(problem, u - e)
            ) / (2.0 * eps)
            assert abs(grad[j] - numeric) <= 1e-5 * max(1.0, abs(grad[j]))


def test_match_regular_against_descent_oracle():
    rng = np.random.default_rng(311)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        y = int(rng.integers(1, n + 1))
        problem = _random_problem(rng, n, y)
        result = matching.match(problem)
        assert result.branch == matching.BRANCH_REGULAR
        oracle = descent_minimize(problem, np.zeros(y))
        assert np.max(np.abs(result.data - oracle)) <= 1e-6 * max(
            1.0, np.max(np.abs(result.data))
        )


def test_match_is_first_order_minimal():
    rng = np.random.default_rng(313)
    problem = _random_problem(rng, 4, 3)
    result = matching.match(problem)
    f_star = matching.objective(problem, result.data)
    eps = 1e-4
    for _ in range(100):
        v = rng.standard_normal(3)
        v /= np.linalg.norm(v)
        assert matching.objective(problem, result.data + eps * v) >= f_star - 1e-12


def test_match_projected_min_norm():
    rng = np.random.default_rng(317)
    for _ in range(10):
        n = int(rng.integers(3, 6))
        y = int(rng.integers(2, n))
        problem = _random_problem(rng, n, y, deficient=True)
        result = matching.match(problem)
        assert result.branch == matching.BRANCH_PROJECTED
        # Gradient vanishes along the non-null directions.
        h = problem.hessian()
        p, rank = matching.nullspace_projector(h)
        assert rank < y
        residual = p @ matching.objective_gradient(problem, result.data)
        assert np.max(np.abs(residual)) < 1e-8
        # Norm-minimal: no component in the nullspace of H.
        null_proj = np.eye(y) - p.T @ p
        assert np.max(np.abs(null_proj @ result.data)) < 1e-8
        # Shifting along the nullspace keeps the objective, grows the norm.
        z = null_proj @ rng.standard_normal(y)
        if np.linalg.norm(z) > 1e-8:
            f_star = matching.objective(problem, result.data)
            assert abs(matching.objective(problem, result.data + z) - f_star) < 1e-8
            assert np.linalg.norm(result.data + z) > np.linalg.norm(result.data)
        # Independent descent oracle from the origin agrees.
        oracle = descent_minimize(problem, np.zeros(y))
        assert np.max(np.abs(result.data - oracle)) <= 1e-6 * max(
            1.0, np.max(np.abs(result.data))
        )


def test_match_zero_branch():
    rng = np.random.default_rng(331)
    problem = _random_problem(rng, 4, 3, deficient=True, zero_means=True)
    result = matching.match(problem)
    assert result.branch == matching.BRANCH_ZERO
    assert_allclose(result.data, np.zeros(3), atol=1e-15)


def test_match_round_trip_at_fresh_posterior():
    # If the evolved density IS the posterior of data u under the new setup,
    # the regular branch must return exactly that u.
    rng = np.random.default_rng(337)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        y = int(rng.integers(1, n + 1))
        prior = GaussianDensity(mean=rng.standard_normal(n), cov=_spd(rng, n))
        meas = LinearMeasurement(
            response=_well_conditioned_response(rng, y, n),
            noise_cov=np.diag(rng.uniform(0.2, 0.8, y)),
        )
        u = rng.standard_normal(y)
        post = gaussian.posterior(prior, meas, u)
        problem = MatchProblem(
            evolved_mean=post.mean,
            evolved_inv_cov=post.inv_cov(),
            new_prior=prior,
            new_meas=meas,
        )
        result = matching.match(problem)
        assert result.branch == matching.BRANCH_REGULAR
        assert_allclose(result.data, u, atol=1e-8)
        # There the new posterior equals the evolved density: zero entropy.
        assert abs(matching.objective(problem, u)) < 1e-10


def test_branch_stable_against_tiny_perturbation():
    # Round-off sized response noise must not flip a projected problem to
    # regular; a far larger perturbation must.
    rng = np.random.default_rng(347)
    problem = _random_problem(rng, 4, 3, deficient=True)
    resp = problem.new_meas.response.copy()
    for scale, branch in ((1e-13, matching.BRANCH_PROJECTED),
                          (1e-2, matching.BRANCH_REGULAR)):
        noisy = MatchProblem(
            evolved_mean=problem.evolved_mean,
            evolved_inv_cov=problem.evolved_inv_cov,
            new_prior=problem.new_prior,
            new_meas=LinearMeasurement(
                response=resp + scale * rng.standard_normal(resp.shape),
                noise_cov=problem.new_meas.noise_cov,
            ),
        )
        assert matching.match(noisy).branch == branch


def test_nullspace_projector_known_matrix():
    p, rank = matching.nullspace_projector(np.diag([2.0, 1.0, 0.0]))
    assert rank == 2
    assert_allclose(p @ p.T, np.eye(2), atol=1e-14)
    assert_allclose(p.T @ p, np.diag([1.0, 1.0, 0.0]), atol=1e-14)


def test_objective_validates_shape():
    rng = np.random.default_rng(349)
    problem = _random_problem(rng, 3, 2)
    with pytest.raises(InvalidInput):
        matching.objective(problem, np.zeros(3))
    with pytest.raises(InvalidInput):
        matching.objective_gradient(problem, np.zeros(5))


def test_batched_branches_agree_with_match_per_row():
    rng = np.random.default_rng(353)
    for deficient, zero_means in ((False, False), (True, False), (True, True)):
        problem = _random_problem(rng, 4, 3, deficient=deficient, zero_means=zero_means)
        means = np.vstack([np.zeros(4), rng.standard_normal((3, 4))])
        expected = [
            matching.match(
                MatchProblem(
                    evolved_mean=m,
                    evolved_inv_cov=problem.evolved_inv_cov,
                    new_prior=problem.new_prior,
                    new_meas=problem.new_meas,
                )
            ).branch
            for m in means
        ]
        # The new setup's W' and D', built as a simulation run builds them.
        prior, meas = problem.new_prior, problem.new_meas
        batched = matching.branches(
            gaussian.wiener_filter(prior, meas),
            gaussian.posterior(prior, meas, np.zeros(3)).cov,
            prior,
            problem.evolved_density(),
            means,
        )
        assert batched == expected
    # All three branches occur among the cases above.
    assert expected == [matching.BRANCH_ZERO] + [matching.BRANCH_PROJECTED] * 3
