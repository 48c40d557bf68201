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

:func:`is_regular` and :func:`linear_term_vanishes` are the two tests that
decide the branch, on the extreme Hessian eigenvalues and on the norm of
the linear term.  :func:`match` applies them to one dense problem; a
simulation run applies them to the reductions over its Fourier-class
blocks.
"""

from typing import NamedTuple

import numpy as np

from . import matfun
from ._frozen import Frozen
from .errors import InvalidInput
from .gaussian import GaussianDensity, kl_divergence, posterior_blocks

# Relative eigenvalue threshold deciding which Hessian directions count as
# zero.  Shared by match(), is_regular(), linear_term_vanishes() and
# nullspace_projector().
SINGULAR_RTOL = 1e-10

BRANCH_REGULAR = "regular"
BRANCH_ZERO = "zero"
BRANCH_PROJECTED = "projected"


class MatchProblem(Frozen):
    """Evolved density (m*, D*^-1) and the measurement setup to match it with.

    Construction factors D*^-1 once, checks that it is positive definite
    and derives, once, the new setup's posterior covariance D' and its
    Wiener filter W' (:func:`gaussian.posterior_blocks`) and the prior pull
    D' Phi'^-1 psi'.
    The factors of D*^-1 give ||D*^-1||_2 and :meth:`evolved_density`.  A
    simulation run builds no problem: it decides the branches from its
    class blocks.
    """

    _fields = ("evolved_mean", "evolved_inv_cov", "new_prior", "new_meas")
    # Derived quantities cached at construction; ``_inv_cov_spectrum`` is
    # the (eigenvalues, eigenvectors) of D*^-1, checked positive definite.
    __slots__ = _fields + ("_w", "_post_cov", "_prior_pull", "_inv_cov_spectrum")

    def __init__(self, evolved_mean, evolved_inv_cov, new_prior, new_meas):
        m_star = np.asarray(evolved_mean, dtype=float)
        if m_star.ndim != 1:
            raise InvalidInput(
                f"evolved mean must be a vector, got shape {m_star.shape}"
            )
        inv_cov = matfun.symmetrize(evolved_inv_cov)
        spectrum = matfun.spectral_decompose(inv_cov)
        matfun.require_pd(spectrum[0], "MatchProblem evolved inverse covariance")
        if inv_cov.shape[0] != m_star.shape[0]:
            raise InvalidInput(
                f"evolved mean dimension {m_star.shape[0]} does not match "
                f"inverse covariance {inv_cov.shape}"
            )
        if new_prior.dim != m_star.shape[0]:
            raise InvalidInput(
                f"new prior dimension {new_prior.dim} does not match "
                f"evolved mean dimension {m_star.shape[0]}"
            )
        if new_meas.signal_dim != new_prior.dim:
            raise InvalidInput(
                f"new measurement signal dimension {new_meas.signal_dim} "
                f"does not match prior dimension {new_prior.dim}"
            )
        r = new_meas.response
        rt_n_inv = r.T @ new_meas.inv_noise_cov()
        phi_inv = new_prior.inv_cov()
        (post_cov,), _, (w,) = posterior_blocks(
            [matfun.symmetrize(phi_inv + rt_n_inv @ r)], [rt_n_inv]
        )
        m_star.setflags(write=False)
        self._set(
            evolved_mean=m_star,
            evolved_inv_cov=inv_cov,
            new_prior=new_prior,
            new_meas=new_meas,
            _w=w,
            _post_cov=post_cov,
            _prior_pull=post_cov @ (phi_inv @ new_prior.mean),
            _inv_cov_spectrum=spectrum,
        )

    @property
    def data_dim(self):
        return self.new_meas.data_dim

    def new_posterior_mean(self, u):
        """m'(u) = psi' + W'(u - R' psi') = W' u + D' Phi'^-1 psi'."""
        u = np.asarray(u, dtype=float)
        return self._w @ u + self._prior_pull

    def evolved_density(self):
        """N(m*, D*), with D* the inverse of D*^-1 through its spectrum."""
        return GaussianDensity(
            mean=self.evolved_mean, cov=matfun.spectral_inverse(*self._inv_cov_spectrum)
        )

    def hessian(self):
        """H = W'^T D*^-1 W', the quadratic form of the objective."""
        return matfun.symmetrize(self._w.T @ self.evolved_inv_cov @ self._w)

    def linear_term(self):
        """g = W'^T D*^-1 (D' Phi'^-1 psi' - m*), so grad = H u + g."""
        return self._w.T @ (
            self.evolved_inv_cov @ (self._prior_pull - self.evolved_mean)
        )


class MatchResult(NamedTuple):
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


def is_regular(smallest, largest):
    """Whether a match Hessian with these extreme eigenvalues counts as positive definite."""
    return bool(smallest > SINGULAR_RTOL * max(largest, 0.0))


def linear_term_vanishes(norms, scales):
    """Whether linear terms of these norms count as zero (the ``zero`` branch).

    Each norm is compared with its scale
    ||W'||_2 ||D*^-1||_2 (||D' Phi'^-1 psi'|| + ||m*||), which bounds it.
    """
    return np.asarray(norms) <= SINGULAR_RTOL * np.maximum(scales, 1.0)


def match(problem):
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
    h_eval, _ = matfun.spectral_decompose(h)
    if is_regular(h_eval[0], h_eval[-1]):
        # Unique minimizer.  Writing the solution against (m* - psi') and
        # adding R' psi' keeps the round trip u' = R' psi' exact when the
        # evolved density equals the fresh prior posterior.
        psi = problem.new_prior.mean
        rhs = w_t @ (d_star_inv @ (problem.evolved_mean - psi))
        u = np.linalg.solve(h, rhs) + problem.new_meas.response @ psi
        return MatchResult(data=u, branch=BRANCH_REGULAR)
    scale = (
        matfun.norm2(problem._w)
        * problem._inv_cov_spectrum[0][-1]
        * (np.linalg.norm(problem._prior_pull) + np.linalg.norm(problem.evolved_mean))
    )
    if linear_term_vanishes(np.linalg.norm(problem.linear_term()), scale):
        # Objective is constant in the flat directions and the linear term
        # vanishes: the norm-minimal minimizer is the origin.
        return MatchResult(data=np.zeros(problem.data_dim), branch=BRANCH_ZERO)
    p, _rank = nullspace_projector(h)
    rhs = p @ (w_t @ (d_star_inv @ (problem.evolved_mean - problem._prior_pull)))
    reduced = matfun.symmetrize(p @ h @ p.T)
    u = p.T @ np.linalg.solve(reduced, rhs)
    return MatchResult(data=u, branch=BRANCH_PROJECTED)
