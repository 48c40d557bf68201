"""Functions of symmetric matrices through the spectral theorem.

A symmetric matrix A = Q diag(a_1..a_n) Q^T defines f(A) = Q diag(f(a_k)) Q^T
for any f whose domain contains the spectrum.  Everything symmetric here
goes through one eigendecomposition; there is no Cholesky or LU path, so the
square root, the log-determinant, the spectral norm and the
positive-definiteness test share the same numerical behaviour.  The one
non-symmetric function, :func:`expm_general`, is the Pade [13/13]
scaling-and-squaring exponential of Higham (2005), written with numpy alone.

No function here searches a matrix for block structure.  A caller that
knows its blocks passes them as a stack: :func:`symmetric_part`,
:func:`spectral_inverse`, :func:`norm2` and :func:`expm_general` take a
(k, s, s) stack of blocks as well as one matrix, and :func:`require_pd`
tests a list of such stacks as one block-diagonal matrix.  A Klein-Gordon
run takes its blocks, the Fourier classes, in closed form from
:func:`infodyn.kleingordon.fourier_classes`.

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
    return symmetric_part(a)


def symmetric_part(matrix):
    """(M + M^T)/2 of a matrix or of each block of a stack, unvalidated."""
    return 0.5 * (matrix + np.swapaxes(matrix, -1, -2))


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
    return np.linalg.eigh(symmetrize(matrix))


def sqrtm_spd(matrix):
    """A^{1/2} for symmetric positive definite A."""
    w, q = spectral_decompose(matrix)
    require_pd(w, "sqrtm_spd")
    return (q * np.sqrt(w)) @ q.T


def log_det_spd(matrix):
    """log det(A) as the sum of eigenvalue logs; raises :class:`NotPositiveDefinite`."""
    w, _ = spectral_decompose(matrix)
    require_pd(w, "log_det_spd")
    return float(np.sum(np.log(w)))


def require_pd(eigenvalues, op_name):
    """Positive definiteness test: the smallest eigenvalue must exceed PD_RTOL times the largest.

    ``eigenvalues`` is one spectrum, or a list of the spectra (any shapes)
    of the blocks of a block-diagonal matrix, tested as the whole matrix.
    Raises :class:`NotPositiveDefinite`.
    """
    if isinstance(eigenvalues, list):
        eigenvalues = np.concatenate([np.ravel(w) for w in eigenvalues])
    smallest, largest = np.min(eigenvalues), np.max(eigenvalues)
    if not smallest > PD_RTOL * max(largest, 0.0):
        raise NotPositiveDefinite(
            f"{op_name}: smallest eigenvalue {float(smallest)!r} fails the positive "
            f"definiteness test against largest {float(largest)!r}"
        )


def spectral_inverse(w, q):
    """Q diag(1/w) Q^T from the spectrum (w, Q) of a matrix, or of each block of a stack."""
    return (q / w[..., None, :]) @ np.swapaxes(q, -1, -2)


def norm2(matrix):
    """Spectral norm ||A||_2 = sqrt(lambda_max(A^T A)).

    A stack (k, m, n) of blocks gives the largest norm among them, the norm
    of the block-diagonal matrix they make up.  A is first scaled by a power
    of two, which is exact, so that A^T A cannot overflow while ||A||_2 is
    finite.
    """
    a = np.asarray(matrix, dtype=float)
    peak = np.max(np.abs(a), initial=0.0)
    if peak == 0.0:
        return 0.0
    exponent = int(np.frexp(peak)[1])
    scaled = np.ldexp(a, -exponent)
    top = np.max(np.linalg.eigvalsh(np.swapaxes(scaled, -1, -2) @ scaled))
    return float(np.ldexp(np.sqrt(top), exponent))


def expm_general(matrix):
    """Matrix exponential without a symmetry requirement.

    The symmetric spectral path does not apply to non-normal generators, so
    this is the fixed-degree Pade [13/13] scaling-and-squaring method of
    N. J. Higham, "The scaling and squaring method for the matrix
    exponential revisited", SIAM J. Matrix Anal. Appl. 26 (2005) 1179-1193:
    scale A by 2^-s until its 1-norm is at most theta_13, evaluate the
    [13/13] Pade approximant r(A) = (V - U)^{-1} (V + U) from A^2, A^4 and
    A^6, then square the result s times.  A (k, s, s) stack gives the
    exponential of each matrix in it, each with its own scaling.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim not in (2, 3) or m.shape[-1] != m.shape[-2]:
        raise InvalidInput(
            f"expected a square matrix or a stack of them, got shape {m.shape}"
        )
    if not np.all(np.isfinite(m)):
        raise InvalidInput("matrix entries must be finite")
    if m.shape[-1] == 1:
        # exp of a scalar is correctly rounded; the rational approximant
        # is off by 2e-15 relative at -3 and 3e-15 at 7.
        return np.exp(m)
    stack = m[None] if m.ndim == 2 else m
    norm = np.max(np.sum(np.abs(stack), axis=-2), axis=-1)
    squarings = np.zeros(len(stack), dtype=int)
    large = norm > _THETA_13
    squarings[large] = np.ceil(np.log2(norm[large] / _THETA_13))
    a = np.ldexp(stack, -squarings[:, None, None])
    b = _PADE_13
    ident = np.eye(stack.shape[-1])
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
    for step in range(squarings.max(initial=0)):
        more = squarings > step
        r[more] = r[more] @ r[more]
    return r[0] if m.ndim == 2 else r
