"""Entropic matching: closed form against a descent oracle, all three branches."""

from collections import Counter

import numpy as np
import pytest
from numpy.testing import assert_allclose

from infodyn import gaussian, matching
from infodyn.errors import InvalidInput
from infodyn.gaussian import GaussianDensity, LinearMeasurement
from infodyn.matching import MatchProblem

import oracles


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


def test_gradient_matches_central_differences():
    rng = np.random.default_rng(307)
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
        residual = p @ oracles.objective_gradient(problem, result.data)
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


def test_match_factors_the_hessian_once(monkeypatch):
    # match() takes one eigh of H, which decides the branch and gives the
    # pseudo-inverse; off the regular branch one eigvalsh more is ||W'||_2.
    # Only calls inside match() count, not the problem's construction.
    rng = np.random.default_rng(361)
    cases = (
        (_random_problem(rng, 4, 3), matching.BRANCH_REGULAR, {"eigh": 1}),
        (_random_problem(rng, 5, 4, deficient=True), matching.BRANCH_PROJECTED,
         {"eigh": 1, "eigvalsh": 1}),
        (_random_problem(rng, 4, 3, deficient=True, zero_means=True), matching.BRANCH_ZERO,
         {"eigh": 1, "eigvalsh": 1}),
    )
    counts = Counter()
    for name in ("eigh", "eigvalsh", "solve", "inv", "svd", "lstsq", "pinv"):
        original = getattr(np.linalg, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    for problem, branch, expected in cases:
        counts.clear()
        assert matching.match(problem).branch == branch
        assert counts == Counter(expected)


def test_zero_branch_threshold_counts_the_prior_pull():
    # A rank-deficient setup with a nonzero prior mean.  The linear term
    # W'^T D*^-1 (pull - m*) vanishes at m* = pull, and an offset c along
    # the non-null Hessian direction W' h / lambda gives it norm c.  The
    # threshold is SINGULAR_RTOL ||W'||_2 ||D*^-1||_2 (||pull|| + ||m*||);
    # at m* close to the pull, leaving ||pull|| out would halve it, so 0.7
    # of it takes the zero branch only because the pull is counted.
    rng = np.random.default_rng(359)
    n, y = 4, 3
    prior = GaussianDensity(mean=100.0 * rng.standard_normal(n), cov=_spd(rng, n))
    resp = _well_conditioned_response(rng, y, n)
    resp[-1] = resp[-2]
    meas = LinearMeasurement(response=resp, noise_cov=np.diag(rng.uniform(0.45, 0.55, y)))
    inv_cov = _spd(rng, n)
    _, w, pull = gaussian.posterior_operators(prior, meas)
    assert np.linalg.norm(pull) > 10.0
    h_eval, h_vec = np.linalg.eigh(w.T @ inv_cov @ w)
    assert h_eval[0] < 1e-12 * h_eval[-1]
    direction = w @ h_vec[:, -1] / h_eval[-1]
    threshold = matching.SINGULAR_RTOL * (
        np.linalg.norm(w, 2) * np.linalg.norm(inv_cov, 2) * 2.0 * np.linalg.norm(pull)
    )
    for c, branch in (
        (0.0, matching.BRANCH_ZERO),
        (0.7 * threshold, matching.BRANCH_ZERO),
        (1.5 * threshold, matching.BRANCH_PROJECTED),
    ):
        problem = MatchProblem(pull + c * direction, inv_cov, prior, meas)
        result = matching.match(problem)
        assert result.branch == branch
        if branch == matching.BRANCH_ZERO:
            assert_allclose(result.data, np.zeros(y), atol=1e-15)


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
        oracles.objective_gradient(problem, np.zeros(5))
    prior, meas = problem.new_prior, problem.new_meas
    cases = [
        ((np.zeros((1, 3)), np.eye(3), prior, meas),
         r"^evolved mean must be a vector, got shape \(1, 3\)$"),
        ((np.zeros(3), np.eye(2), prior, meas),
         r"^evolved mean dimension 3 does not match inverse covariance \(2, 2\)$"),
        ((np.zeros(2), np.eye(2), prior, meas),
         "^new prior dimension 3 does not match evolved mean dimension 2$"),
        ((np.zeros(2), np.eye(2), GaussianDensity(np.zeros(2), np.eye(2)), meas),
         "^new measurement signal dimension 3 does not match prior dimension 2$"),
    ]
    for args, message in cases:
        with pytest.raises(InvalidInput, match=message):
            MatchProblem(*args)
