"""Functions of symmetric matrices through the spectral theorem.

A symmetric matrix A = Q diag(a_1..a_n) Q^T defines f(A) = Q diag(f(a_k)) Q^T
for any f whose domain contains the spectrum.  Everything here goes through
one eigendecomposition; there is no Cholesky or LU path, so exp, log,
inverse square root, log-determinant and the positive-definiteness test all
share the same numerical behaviour.

Floating-point input is re-symmetrized as (M + M^T)/2 before decomposition,
so mild asymmetry from accumulated round-off is tolerated rather than
rejected.
"""

import numpy as np

from .errors import DomainError, InvalidInput, NotPositiveDefinite, SeriesDiverges

# Relative eigenvalue floor separating "positive definite" from "numerically
# singular": smallest eigenvalue must exceed PD_RTOL times the largest.
PD_RTOL = 1e-12


def symmetrize(matrix):
    """Return the symmetric part (M + M^T)/2 after validating shape and finiteness."""
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidInput(f"expected a square matrix, got shape {a.shape}")
    if a.size and not np.all(np.isfinite(a)):
        raise InvalidInput("matrix entries must be finite")
    if a.shape[0] == 0:
        raise InvalidInput("matrix must be at least 1x1")
    return 0.5 * (a + a.T)


def spectral_decompose(matrix):
    """Eigendecomposition of a symmetric matrix.

    Parameters
    ----------
    matrix : (n, n) array_like
        Symmetric up to round-off; symmetrized internally.

    Returns
    -------
    eigenvalues : (n,) ndarray
        Ascending.
    eigenvectors : (n, n) ndarray
        Orthonormal columns, ``matrix ~ Q @ diag(w) @ Q.T``.
    """
    a = symmetrize(matrix)
    eigenvalues, eigenvectors = np.linalg.eigh(a)
    return eigenvalues, eigenvectors


def apply_spectral_function(matrix, fn, domain=None, fn_name="f"):
    """Apply a scalar function to a symmetric matrix through its spectrum.

    Parameters
    ----------
    matrix : (n, n) array_like
    fn : callable
        Vectorized scalar function evaluated on the eigenvalues.
    domain : callable, optional
        Predicate on eigenvalues; any eigenvalue failing it raises
        :class:`DomainError` naming the offending value.
    fn_name : str
        Used in error messages.
    """
    w, q = spectral_decompose(matrix)
    if domain is not None:
        bad = ~domain(w)
        if np.any(bad):
            offender = w[bad][0]
            raise DomainError(
                f"eigenvalue {offender!r} outside the domain of {fn_name}"
            )
    return (q * fn(w)) @ q.T


def expm_sym(matrix):
    """exp(A) for symmetric A."""
    return apply_spectral_function(matrix, np.exp, fn_name="exp")


def logm_spd(matrix):
    """log(A) for symmetric positive definite A."""
    w, q = spectral_decompose(matrix)
    _require_pd(w, "logm_spd")
    return (q * np.log(w)) @ q.T


def inv_sqrtm_spd(matrix):
    """A^{-1/2} for symmetric positive definite A."""
    w, q = spectral_decompose(matrix)
    _require_pd(w, "inv_sqrtm_spd")
    return (q / np.sqrt(w)) @ q.T


def sqrtm_spd(matrix):
    """A^{1/2} for symmetric positive definite A."""
    w, q = spectral_decompose(matrix)
    _require_pd(w, "sqrtm_spd")
    return (q * np.sqrt(w)) @ q.T


def log_det_spd(matrix):
    """log det(A) as the sum of eigenvalue logs; raises :class:`NotPositiveDefinite`."""
    w, _ = spectral_decompose(matrix)
    _require_pd(w, "log_det_spd")
    return float(np.sum(np.log(w)))


def is_positive_definite(matrix):
    """True when the smallest eigenvalue exceeds ``PD_RTOL`` times the largest."""
    w, _ = spectral_decompose(matrix)
    return bool(w[0] > PD_RTOL * max(w[-1], 0.0))


def _require_pd(eigenvalues, op_name):
    w = eigenvalues
    if not w[0] > PD_RTOL * max(w[-1], 0.0):
        raise NotPositiveDefinite(
            f"{op_name}: smallest eigenvalue {w[0]!r} fails the positive "
            f"definiteness test against largest {w[-1]!r}"
        )


def neumann_inverse(matrix, order):
    """Truncated Neumann series for (1 + M)^{-1}.

    Sums sum_{k=0}^{order} (-M)^k, valid when the spectral norm of M is
    below one.

    Returns
    -------
    approx : (n, n) ndarray
    bound : float
        Truncation error bound ||M||^(order+1) / (1 - ||M||) in spectral norm.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidInput(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InvalidInput("matrix entries must be finite")
    if not isinstance(order, (int, np.integer)) or order < 0:
        raise InvalidInput(f"order must be a nonnegative integer, got {order!r}")
    norm = np.linalg.norm(m, 2)
    if norm >= 1.0:
        raise SeriesDiverges(
            f"Neumann series needs spectral norm < 1, got {norm!r}"
        )
    n = m.shape[0]
    approx = np.eye(n)
    term = np.eye(n)
    for _ in range(order):
        term = term @ (-m)
        approx = approx + term
    bound = norm ** (order + 1) / (1.0 - norm)
    return approx, float(bound)


def expm_general(matrix):
    """Matrix exponential without a symmetry requirement.

    The symmetric spectral path does not apply to non-normal generators, so
    this delegates to scipy's scaling-and-squaring Pade implementation.
    scipy.linalg is imported here, not at module load: it is most of the
    package's import time and only this function needs it.
    """
    import scipy.linalg

    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidInput(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InvalidInput("matrix entries must be finite")
    return scipy.linalg.expm(m)
