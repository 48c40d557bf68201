"""Entropic matching: choose new data so the new posterior tracks an evolved one.

After a field evolution step the posterior N(m*, D*) is, in general, not of
the form "posterior of the new measurement setup for any data vector".  The
matching step picks the data vector u' whose posterior N(m'(u'), D') is
closest in relative entropy to the evolved density:

    u' = argmin_u D( N(m'(u), D') || N(m*, D*) ),

with m'(u) = psi' + W'(u - R' psi') and D' the structural posterior
covariance of the new setup.  Only the mean term depends on u, so the
objective is an inhomogeneous quadratic with Hessian H = W'^T D*^-1 W'.

Three branches cover the geometry of H:

``regular``
    H positive definite; unique minimizer.
``zero``
    H singular and the linear term vanishes; every minimizer is a nullspace
    vector and u' = 0 is the norm-minimal one.
``projected``
    H singular with nonvanishing linear term; the minimizer set is an affine
    subspace and the returned u' is its unique norm-minimal element,
    obtained by restricting the normal equations to the span of the
    nonvanishing eigenvalue directions.

:func:`match` and :func:`branches` share the branch decision; the latter
decides it for many evolved means against one covariance and setup, as a
simulation run needs once per step, and takes the setup's W' and D' from
its caller, which has computed them already.
"""

from dataclasses import dataclass, field

import numpy as np

from . import matfun
from .errors import InvalidInput
from .gaussian import GaussianDensity, kl_divergence, posterior, wiener_filter

# Relative eigenvalue threshold deciding which Hessian directions count as
# zero.  Shared by match() and nullspace_projector().
SINGULAR_RTOL = 1e-10

BRANCH_REGULAR = "regular"
BRANCH_ZERO = "zero"
BRANCH_PROJECTED = "projected"


@dataclass(frozen=True)
class MatchProblem:
    """Evolved density (m*, D*^-1) and the measurement setup to match it with.

    Construction checks that D*^-1 is positive definite and derives, once,
    the new setup's Wiener filter W' (:func:`gaussian.wiener_filter`), its
    posterior covariance D' (:func:`gaussian.posterior`) and the prior pull
    D' Phi'^-1 psi'.  A simulation run, which already holds W' and D', asks
    :func:`branches` directly instead of building a problem.
    """

    evolved_mean: np.ndarray
    evolved_inv_cov: np.ndarray
    new_prior: GaussianDensity
    new_meas: "LinearMeasurement"
    # Derived quantities cached at construction.
    _w: np.ndarray = field(init=False, repr=False, compare=False)
    _post_cov: np.ndarray = field(init=False, repr=False, compare=False)
    _prior_pull: np.ndarray = field(init=False, repr=False, compare=False)
    # ||D*^-1||_2, the largest eigenvalue of the positive definite D*^-1.
    _inv_cov_norm: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m_star = np.asarray(self.evolved_mean, dtype=float)
        if m_star.ndim != 1:
            raise InvalidInput(
                f"evolved mean must be a vector, got shape {m_star.shape}"
            )
        inv_cov = matfun.symmetrize(self.evolved_inv_cov)
        w_eval, _ = matfun.spectral_decompose(inv_cov)
        matfun._require_pd(w_eval, "MatchProblem evolved inverse covariance")
        if inv_cov.shape[0] != m_star.shape[0]:
            raise InvalidInput(
                f"evolved mean dimension {m_star.shape[0]} does not match "
                f"inverse covariance {inv_cov.shape}"
            )
        if self.new_prior.dim != m_star.shape[0]:
            raise InvalidInput(
                f"new prior dimension {self.new_prior.dim} does not match "
                f"evolved mean dimension {m_star.shape[0]}"
            )
        if self.new_meas.signal_dim != self.new_prior.dim:
            raise InvalidInput(
                f"new measurement signal dimension {self.new_meas.signal_dim} "
                f"does not match prior dimension {self.new_prior.dim}"
            )
        w = wiener_filter(self.new_prior, self.new_meas)
        # D' does not depend on the data, so any data vector gives it.
        post = posterior(self.new_prior, self.new_meas, np.zeros(self.data_dim))
        m_star.setflags(write=False)
        object.__setattr__(self, "evolved_mean", m_star)
        object.__setattr__(self, "evolved_inv_cov", inv_cov)
        object.__setattr__(self, "_w", w)
        object.__setattr__(self, "_post_cov", post.cov)
        object.__setattr__(self, "_prior_pull", _prior_pull(post.cov, self.new_prior))
        object.__setattr__(self, "_inv_cov_norm", float(w_eval[-1]))

    @property
    def data_dim(self):
        return self.new_meas.data_dim

    def new_posterior_mean(self, u):
        """m'(u) = psi' + W'(u - R' psi') = W' u + D' Phi'^-1 psi'."""
        u = np.asarray(u, dtype=float)
        return self._w @ u + self._prior_pull

    def evolved_density(self):
        w_eval, q = matfun.spectral_decompose(self.evolved_inv_cov)
        matfun._require_pd(w_eval, "MatchProblem evolved inverse covariance")
        return GaussianDensity(mean=self.evolved_mean, cov=(q / w_eval) @ q.T)

    def hessian(self):
        """H = W'^T D*^-1 W', the quadratic form of the objective."""
        return _hessian(self._w, self.evolved_inv_cov)

    def linear_term(self):
        """g = W'^T D*^-1 (D' Phi'^-1 psi' - m*), so grad = H u + g."""
        return self._w.T @ (
            self.evolved_inv_cov @ (self._prior_pull - self.evolved_mean)
        )


def _prior_pull(post_cov, prior):
    """D' Phi'^-1 psi', the part of the new posterior mean that no data vector moves."""
    w, q = prior._spectrum
    return post_cov @ (q @ ((prior.mean @ q) / w))


def _hessian(new_filter, evolved_inv_cov):
    return matfun.symmetrize(new_filter.T @ evolved_inv_cov @ new_filter)


@dataclass(frozen=True)
class MatchResult:
    data: np.ndarray
    branch: str


def objective(problem, u):
    """Full relative entropy D(N(m'(u), D') || N(m*, D*)) at data vector u."""
    u = np.asarray(u, dtype=float)
    if u.shape != (problem.data_dim,):
        raise InvalidInput(
            f"data vector has shape {u.shape}, expected ({problem.data_dim},)"
        )
    new_density = GaussianDensity(
        mean=problem.new_posterior_mean(u), cov=problem._post_cov
    )
    return kl_divergence(new_density, problem.evolved_density())


def objective_gradient(problem, u):
    """Analytic gradient of :func:`objective` with respect to u."""
    u = np.asarray(u, dtype=float)
    if u.shape != (problem.data_dim,):
        raise InvalidInput(
            f"data vector has shape {u.shape}, expected ({problem.data_dim},)"
        )
    return problem.hessian() @ u + problem.linear_term()


def nullspace_projector(matrix, rel_tol=SINGULAR_RTOL):
    """Orthonormal basis of the non-null eigendirections of a symmetric matrix.

    Returns
    -------
    p : (rank, n) ndarray
        Rows form an orthonormal basis of the span of eigenvectors whose
        eigenvalue exceeds ``rel_tol`` times the largest magnitude
        eigenvalue.  ``p.T @ p`` is the orthogonal projector onto the
        complement of the nullspace.
    rank : int
    """
    w, q = matfun.spectral_decompose(matrix)
    scale = float(np.max(np.abs(w))) if w.size else 0.0
    keep = np.abs(w) > rel_tol * scale if scale > 0.0 else np.zeros_like(w, bool)
    p = q[:, keep].T
    return p, int(np.count_nonzero(keep))


def _hessian_is_regular(h, rel_tol):
    w_eval, _ = matfun.spectral_decompose(h)
    return bool(w_eval[0] > rel_tol * max(w_eval[-1], 0.0))


def _linear_term_vanishes(
    new_filter, evolved_inv_cov, inv_cov_norm, prior_pull, evolved_means, rel_tol
):
    """Zero-branch test with each row of ``evolved_means`` as m*.

    Row i of ``g`` is the linear term W'^T D*^-1 (D' Phi'^-1 psi' - m*_i);
    it counts as vanishing relative to the scale of its factors, with
    ``inv_cov_norm`` = ||D*^-1||_2.
    """
    g = (prior_pull - evolved_means) @ (evolved_inv_cov @ new_filter)
    scale = (
        np.linalg.norm(new_filter, 2)
        * inv_cov_norm
        * (np.linalg.norm(prior_pull) + np.linalg.norm(evolved_means, axis=1))
    )
    return np.linalg.norm(g, axis=1) <= rel_tol * np.maximum(scale, 1.0)


def branches(
    new_filter, new_post_cov, new_prior, evolved, evolved_means, rel_tol=SINGULAR_RTOL
):
    """Branch :func:`match` takes with each row of ``evolved_means`` as m*.

    ``new_filter`` and ``new_post_cov`` are the Wiener filter W' and the
    posterior covariance D' of the new setup, as :func:`gaussian.wiener_filter`
    and :func:`gaussian.posterior` give them for ``new_prior`` and the new
    measurement.  ``evolved`` is the evolved density; only its covariance
    D* enters, through its cached spectrum, so neither D*^-1 nor its norm
    takes a factorization here.  The Hessian does not depend on m*, so
    whether the problem is regular is decided once; only the
    zero-versus-projected test runs per row, as one batched product.
    Returns one branch label per row.
    """
    means = np.asarray(evolved_means, dtype=float)
    inv_cov = matfun.symmetrize(evolved.inv_cov())
    if _hessian_is_regular(_hessian(new_filter, inv_cov), rel_tol):
        return [BRANCH_REGULAR] * len(means)
    flat = _linear_term_vanishes(
        new_filter,
        inv_cov,
        1.0 / float(evolved._spectrum[0][0]),
        _prior_pull(new_post_cov, new_prior),
        means,
        rel_tol,
    )
    return [BRANCH_ZERO if f else BRANCH_PROJECTED for f in flat]


def match(problem, rel_tol=SINGULAR_RTOL):
    """Minimize the matching objective in closed form.

    Returns
    -------
    MatchResult
        ``data`` is the minimizing data vector (norm-minimal one whenever the
        minimizer is not unique) and ``branch`` records which geometry case
        applied: ``regular``, ``zero`` or ``projected``.
    """
    h = problem.hessian()
    d_star_inv = problem.evolved_inv_cov
    w_t = problem._w.T
    if _hessian_is_regular(h, rel_tol):
        # Unique minimizer.  Writing the solution against (m* - psi') and
        # adding R' psi' keeps the round trip u' = R' psi' exact when the
        # evolved density equals the fresh prior posterior.
        psi = problem.new_prior.mean
        rhs = w_t @ (d_star_inv @ (problem.evolved_mean - psi))
        u = np.linalg.solve(h, rhs) + problem.new_meas.response @ psi
        return MatchResult(data=u, branch=BRANCH_REGULAR)
    flat = _linear_term_vanishes(
        problem._w,
        d_star_inv,
        problem._inv_cov_norm,
        problem._prior_pull,
        problem.evolved_mean[None, :],
        rel_tol,
    )
    if flat[0]:
        # Objective is constant in the flat directions and the linear term
        # vanishes: the norm-minimal minimizer is the origin.
        return MatchResult(data=np.zeros(problem.data_dim), branch=BRANCH_ZERO)
    p, _rank = nullspace_projector(h, rel_tol)
    rhs = p @ (w_t @ (d_star_inv @ (problem.evolved_mean - problem._prior_pull)))
    reduced = matfun.symmetrize(p @ h @ p.T)
    u = p.T @ np.linalg.solve(reduced, rhs)
    return MatchResult(data=u, branch=BRANCH_PROJECTED)
