"""Functions of symmetric matrices through the spectral theorem.

A symmetric matrix A = Q diag(a_1..a_n) Q^T defines f(A) = Q diag(f(a_k)) Q^T
for any f whose domain contains the spectrum.  Everything symmetric here
goes through one eigendecomposition; there is no Cholesky or LU path, so the
square root, the log-determinant and the positive-definiteness test share
the same numerical behaviour.  A diagonal matrix is not factored: its
spectrum is read off the diagonal, sorted, with permutation eigenvectors.
LAPACK returns exactly these eigenvalues for a diagonal input, so anything
built from them is unchanged, and diagonal covariances such as a thermal
prior or white noise cost no O(n^3) work.  The one non-symmetric function,
:func:`expm_general`, is the Pade [13/13] scaling-and-squaring exponential
of Higham (2005), written with numpy alone.

Floating-point input is re-symmetrized as (M + M^T)/2 before decomposition,
so mild asymmetry from accumulated round-off is tolerated rather than
rejected.
"""

import numpy as np

from .errors import InvalidInput, NotPositiveDefinite

# Relative eigenvalue floor separating "positive definite" from "numerically
# singular": smallest eigenvalue must exceed PD_RTOL times the largest.
PD_RTOL = 1e-12

# Pade [13/13] coefficients b_0..b_13 of exp and the 1-norm up to which that
# approximant is accurate to double precision (Higham 2005).
_PADE_13 = (
    64764752532480000.0,
    32382376266240000.0,
    7771770303897600.0,
    1187353796428800.0,
    129060195264000.0,
    10559470521600.0,
    670442572800.0,
    33522128640.0,
    1323241920.0,
    40840800.0,
    960960.0,
    16380.0,
    182.0,
    1.0,
)
_THETA_13 = 5.371920351148152


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
        Orthonormal columns, ``matrix ~ Q @ diag(w) @ Q.T``.  For a
        diagonal input they are the unit vectors in the order of a stable
        ascending sort of the diagonal, and no eigensolver runs.
    """
    a = symmetrize(matrix)
    if _is_diagonal(a):
        d = np.diag(a)
        order = np.argsort(d, kind="stable")
        return d[order], np.eye(len(d))[:, order]
    return np.linalg.eigh(a)


def _is_diagonal(a):
    return np.count_nonzero(a) == np.count_nonzero(np.diag(a))


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
    this is the fixed-degree Pade [13/13] scaling-and-squaring method of
    N. J. Higham, "The scaling and squaring method for the matrix
    exponential revisited", SIAM J. Matrix Anal. Appl. 26 (2005) 1179-1193:
    scale A by 2^-s until its 1-norm is at most theta_13, evaluate the
    [13/13] Pade approximant r(A) = (V - U)^{-1} (V + U) from A^2, A^4 and
    A^6, then square the result s times.  A diagonal matrix is exponentiated
    entrywise, so the zero matrix gives the identity exactly.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidInput(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InvalidInput("matrix entries must be finite")
    if _is_diagonal(m):
        # The rational approximant would round even exp(0) = 1 here.
        return np.diag(np.exp(np.diag(m)))
    norm = np.linalg.norm(m, 1)
    squarings = int(np.ceil(np.log2(norm / _THETA_13))) if norm > _THETA_13 else 0
    a = np.ldexp(m, -squarings)
    b = _PADE_13
    ident = np.eye(m.shape[0])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a2 @ a4
    u = a @ (
        a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
        + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident
    )
    v = (
        a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
        + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident
    )
    r = np.linalg.solve(v - u, v + u)
    for _ in range(squarings):
        r = r @ r
    return r
