"""Functions of symmetric matrices through the spectral theorem.

A symmetric matrix A = Q diag(a_1..a_n) Q^T defines f(A) = Q diag(f(a_k)) Q^T
for any f whose domain contains the spectrum.  Everything symmetric here
goes through one eigendecomposition; there is no Cholesky or LU path, so the
square root, the log-determinant and the positive-definiteness test share
the same numerical behaviour.  The one non-symmetric function,
:func:`expm_general`, delegates to scipy.

Floating-point input is re-symmetrized as (M + M^T)/2 before decomposition,
so mild asymmetry from accumulated round-off is tolerated rather than
rejected.
"""

import numpy as np

from .errors import InvalidInput, NotPositiveDefinite

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


def _require_pd(eigenvalues, op_name):
    w = eigenvalues
    if not w[0] > PD_RTOL * max(w[-1], 0.0):
        raise NotPositiveDefinite(
            f"{op_name}: smallest eigenvalue {w[0]!r} fails the positive "
            f"definiteness test against largest {w[-1]!r}"
        )


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
