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
    subspace and the returned u' is its unique norm-minimal element.

:func:`infodyn.matfun.branches` is the one place that decides the branch,
from the regularity of H and the norms of the linear term and its bound;
it factors nothing.  :func:`match` takes them from its one ``eigh`` of H
and applies the pseudo-inverse of H from that one factorization; a
simulation run takes them from its set-up and from per-class maps from
data, and imports nothing of this dense library.
"""

from typing import NamedTuple

import numpy as np

from . import matfun
from ._frozen import Frozen
from .errors import InvalidInput
from .gaussian import GaussianDensity, kl_divergence, posterior_operators
# The labels of MatchResult.branch, public here as well, and the zero cut.
from .matfun import BRANCH_PROJECTED, BRANCH_REGULAR, BRANCH_ZERO, SINGULAR_RTOL


class MatchProblem(Frozen):
    """Evolved density (m*, D*^-1) and the measurement setup to match it with.

    Construction factors D*^-1 once, checks that it is positive definite
    and derives, once, the new setup's posterior covariance D', its Wiener
    filter W' and the prior pull D' Phi'^-1 psi'
    (:func:`gaussian.posterior_operators`).
    The factors of D*^-1 give ||D*^-1||_2 and :meth:`evolved_density`.  A
    simulation run builds no problem and forms no evolved mean.
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
        spectrum = np.linalg.eigh(inv_cov)
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
        post_cov, w, prior_pull = posterior_operators(new_prior, new_meas)
        m_star.setflags(write=False)
        self._set(
            evolved_mean=m_star,
            evolved_inv_cov=inv_cov,
            new_prior=new_prior,
            new_meas=new_meas,
            _w=w,
            _post_cov=post_cov,
            _prior_pull=prior_pull,
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


def nullspace_projector(matrix):
    """Orthonormal basis of the non-null eigendirections of a symmetric matrix.

    Returns
    -------
    p : (rank, n) ndarray
        Rows form an orthonormal basis of the span of eigenvectors whose
        eigenvalue exceeds ``SINGULAR_RTOL`` times the largest magnitude
        eigenvalue.  ``p.T @ p`` is the orthogonal projector onto the
        complement of the nullspace.
    rank : int
    """
    w, q = np.linalg.eigh(matfun.symmetrize(matrix))
    scale = float(np.max(np.abs(w))) if w.size else 0.0
    keep = np.abs(w) > SINGULAR_RTOL * scale if scale > 0.0 else np.zeros_like(w, bool)
    p = q[:, keep].T
    return p, int(np.count_nonzero(keep))


def match(problem):
    """Minimize the matching objective in closed form.

    u' = H^+ W'^T D*^-1 (m* - D' Phi'^-1 psi'), with H^+ over the eigenpairs
    of one ``eigh`` of H that pass the zero cut: on the regular branch, all.
    :func:`infodyn.matfun.branches` decides the branch from them, the norm
    of the linear term and, off the regular branch only, its bound.

    Returns
    -------
    MatchResult
        ``data`` is the minimizing data vector (norm-minimal one whenever the
        minimizer is not unique) and ``branch`` records which geometry case
        applied: ``regular``, ``zero`` or ``projected``.
    """
    pulled = problem.evolved_inv_cov @ problem._w
    w, q = np.linalg.eigh(matfun.symmetric_part(problem._w.T @ pulled))
    keep = matfun.nonzero(w)
    linear = pulled.T @ (problem.evolved_mean - problem._prior_pull)
    scale = 0.0
    if not keep.all():
        scale = (
            matfun.norm2(problem._w)
            * problem._inv_cov_spectrum[0][-1]
            * (np.linalg.norm(problem._prior_pull) + np.linalg.norm(problem.evolved_mean))
        )
    (branch,) = matfun.branches(keep.all(), [np.linalg.norm(linear)], [scale])
    if branch == BRANCH_ZERO:
        # Objective is constant in the flat directions and the linear term
        # vanishes: the norm-minimal minimizer is the origin.
        return MatchResult(data=np.zeros(problem.data_dim), branch=BRANCH_ZERO)
    basis = q[:, keep]
    return MatchResult(data=basis @ (basis.T @ linear / w[keep]), branch=branch)
