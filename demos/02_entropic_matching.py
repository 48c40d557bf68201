"""Pick the data vector whose fresh posterior best matches an evolved one.

After a posterior has been pushed through some dynamics there is no
guarantee that any data vector reproduces it exactly; entropic matching
minimizes the relative entropy between the fresh posterior N(m'(u), D') and
the evolved density over u.  The minimizer is a linear solve, with two
degenerate branches when the quadratic form is singular.  The last part
asks for the branch of several evolved means at once, from a Wiener filter
W' and posterior covariance D' built beforehand, as a simulation run does.

    python3 demos/02_entropic_matching.py
"""

import numpy as np

from infodyn import gaussian, matching
from infodyn.gaussian import GaussianDensity, LinearMeasurement
from infodyn.matching import MatchProblem

rng = np.random.default_rng(70)

n, y = 5, 4
prior = GaussianDensity(mean=rng.standard_normal(n), cov=np.eye(n))
response = rng.standard_normal((y, n)) / np.sqrt(n)
meas = LinearMeasurement(response=response, noise_cov=0.1 * np.eye(y))

# Pretend the posterior mean drifted and its covariance tightened a little.
evolved_mean = prior.mean + 0.3 * rng.standard_normal(n)
evolved_inv_cov = np.linalg.inv(0.8 * np.eye(n))
problem = MatchProblem(
    evolved_mean=evolved_mean,
    evolved_inv_cov=evolved_inv_cov,
    new_prior=prior,
    new_meas=meas,
)

result = matching.match(problem)
print("branch            :", result.branch)
print("matched data      :", np.array2string(result.data, precision=3))
value = matching.objective(problem, result.data)
print("objective at match:", f"{value:.6f}")

# No direction improves the objective: probe a few random perturbations.
worst = min(
    matching.objective(problem, result.data + 1e-3 * rng.standard_normal(y))
    for _ in range(200)
)
print("best perturbed    :", f"{worst:.6f}  (>= objective at match)")

# Now measure one channel twice.  The duplicated row removes a direction
# from the match Hessian; the minimizer is no longer unique and the solver
# returns the norm-minimal one.
dup = response.copy()
dup[-1] = dup[-2]
problem2 = MatchProblem(
    evolved_mean=evolved_mean,
    evolved_inv_cov=evolved_inv_cov,
    new_prior=prior,
    new_meas=LinearMeasurement(response=dup, noise_cov=0.1 * np.eye(y)),
)
result2 = matching.match(problem2)
print("\nduplicated channel -> branch:", result2.branch)

p, rank = matching.nullspace_projector(problem2.hessian())
print("hessian rank      :", rank, "of", y)
null_direction = np.eye(y)[-1] - p.T @ (p @ np.eye(y)[-1])
null_direction /= np.linalg.norm(null_direction)
shifted = result2.data + 0.5 * null_direction
print("objective drift along nullspace:",
      f"{matching.objective(problem2, shifted) - matching.objective(problem2, result2.data):+.2e}")
print("norm of match     :", f"{np.linalg.norm(result2.data):.4f}")
print("norm of shifted   :", f"{np.linalg.norm(shifted):.4f}  (same objective, larger norm)")

# A simulation run already holds the new setup's Wiener filter W' and
# posterior covariance D', and needs the branch for many evolved means at
# once; matching.branches takes W' and D' from it instead of deriving them.
dup_meas = problem2.new_meas
w_new = gaussian.wiener_filter(prior, dup_meas)
d_new = gaussian.posterior(prior, dup_meas, np.zeros(y)).cov
evolved = GaussianDensity(mean=evolved_mean, cov=0.8 * np.eye(n))
means = np.vstack([evolved_mean, prior.mean + 0.3 * rng.standard_normal((3, n))])
print("\nbatched branches  :", matching.branches(w_new, d_new, prior, evolved, means))
