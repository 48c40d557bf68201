"""Functions of symmetric matrices through the spectral theorem.

A symmetric matrix A = Q diag(a_1..a_n) Q^T defines f(A) = Q diag(f(a_k)) Q^T
for any f whose domain contains the spectrum.  Everything symmetric here
goes through an eigendecomposition; there is no Cholesky or LU path.  The
positive-definiteness test :func:`require_pd` reads a spectrum that its
caller has computed: a dense covariance is factored once, by
:class:`infodyn.gaussian.GaussianDensity`, which keeps the spectrum that its
inverse, square root and log-determinant are read from.  The one
non-symmetric function, :func:`expm_general`, is the Pade [13/13]
scaling-and-squaring exponential of Higham (2005), written with numpy alone.

No function here searches a matrix for block structure.  A caller that
knows its blocks passes them as a stack: :func:`symmetric_part`,
:func:`spectral_inverse`, :func:`norm2` and :func:`expm_general` take a
(k, s, s) stack of blocks as well as one matrix, and :func:`require_pd`
tests a list of such stacks as one block-diagonal matrix.  A Klein-Gordon
run takes its blocks, the Fourier classes, in closed form from
:func:`infodyn.kleingordon.fourier_classes`.

A caller re-symmetrizes floating-point input as (M + M^T)/2
(:func:`symmetrize`) before it decomposes it, so mild asymmetry from
accumulated round-off is tolerated rather than rejected.

The block numerics that a simulation run and the dense library
(:mod:`infodyn.gaussian`, :mod:`infodyn.matching`) share live here too, so
that each is computed in one place and a run imports neither: the KL
covariance term with its positive definiteness test
(:func:`kl_covariance_blocks`) and the entropic matcher's branch rule
(:func:`branches`, with :func:`nonzero` and the ``BRANCH_*`` labels).  A
run factors no signal-space block of the posterior, so
:func:`spectral_inverse` serves the dense library alone.
"""

import numpy as np

from .errors import InvalidInput, NotPositiveDefinite

# Relative eigenvalue floor separating "positive definite" from "numerically
# singular": smallest eigenvalue must exceed PD_RTOL times the largest.
PD_RTOL = 1e-12

# Relative threshold below which a match Hessian eigenvalue, a linear term or
# a run's data Gram eigenvalue counts as zero: :func:`nonzero`, :func:`branches`,
# :func:`infodyn.matching.nullspace_projector` and the run's posterior.
SINGULAR_RTOL = 1e-10

BRANCH_REGULAR = "regular"
BRANCH_ZERO = "zero"
BRANCH_PROJECTED = "projected"

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

# x - log1p(x) = x^2 (1/2 - x/3 + x^2/4 - ... + x^8/10) + O(x^11) below
# |x| = 1e-2, where the subtraction would cancel; coefficients from x^0.
_KL_SERIES_BELOW = 1e-2
_KL_SERIES = tuple((-1) ** j / (j + 2) for j in range(9))


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


def require_pd(eigenvalues, op_name, rtol=PD_RTOL):
    """Positive definiteness test: the smallest eigenvalue must exceed ``rtol`` times the largest.

    ``eigenvalues`` is one spectrum, or a list of the spectra (any shapes)
    of the blocks of a block-diagonal matrix, tested as the whole matrix.
    Raises :class:`NotPositiveDefinite`.
    """
    if isinstance(eigenvalues, list):
        eigenvalues = np.concatenate([np.ravel(w) for w in eigenvalues])
    smallest, largest = np.min(eigenvalues), np.max(eigenvalues)
    if not smallest > rtol * max(largest, 0.0):
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


def kl_covariance_blocks(excesses):
    """Mean-independent part of a Gaussian relative entropy, from whitened covariance excesses.

    ``excesses`` iterates over (n, n) matrices or (k, n, n) stacks
    C^-1 (Sigma_p - Sigma_q) C^-T, any C C^T = Sigma_q: for
    Sigma_p = P Sigma_q P^T, E + E^T + E E^T with E = C^-1 (P - 1) C.  The
    term is 1/2 sum_j (x_j - log(1 + x_j)) over their eigenvalues x_j, each
    summand nonnegative in floating point; over the diagonal blocks of
    block-diagonal covariances it sums to the whole term.  Below
    |x| = 1e-2 a summand is its Taylor series through x^10, since
    x - log1p(x) would lose about -log10(|x|) digits there.  The 1 + x_j,
    over all blocks, are the eigenvalues of C^-1 Sigma_p C^-T, the same for
    every root C.  Where one is not positive, its log is not finite, and
    :func:`require_pd` with no relative floor raises
    :class:`NotPositiveDefinite`; a wide positive spread is kept.
    """
    spectra = [np.linalg.eigvalsh(symmetric_part(excess)) for excess in excesses]
    require_pd([1.0 + x for x in spectra], "whitened covariance of a relative entropy", 0.0)
    total = 0.0
    for x in spectra:
        summand = x - np.log1p(x)
        small = np.abs(x) < _KL_SERIES_BELOW
        x = x[small]
        series = _KL_SERIES[-1]
        for c in _KL_SERIES[-2::-1]:
            series = c + x * series
        summand[small] = x * x * series
        total += 0.5 * float(np.sum(summand))
    return total


def nonzero(eigenvalues):
    """Mask of the eigenvalues above ``SINGULAR_RTOL`` times the largest, floored at 0."""
    return eigenvalues > SINGULAR_RTOL * max(eigenvalues.max(), 0.0)


def branches(filters, pulled, inv_cov_norm, means, pulls):
    """The entropic matcher's branch for each column of evolved means m*, and its Hessian's spectra.

    The lists hold (k, n, y) stacks of diagonal blocks: ``filters`` of W',
    ``pulled`` of D*^-1 W', ``means`` of m* (columns) and ``pulls`` of the prior
    pull D' Phi'^-1 psi' (one column); ``inv_cov_norm`` is ||D*^-1||_2 or a
    bound on it.  H = W'^T D*^-1 W' is ``BRANCH_REGULAR`` when every eigenvalue
    over the blocks exceeds ``SINGULAR_RTOL`` times the largest.  If not, a
    column is ``BRANCH_ZERO`` when its linear term W'^T D*^-1 (D' Phi'^-1 psi' - m*)
    is at most ``SINGULAR_RTOL`` times its bound, or 1 if larger, the bound
    ||W'||_2 ||D*^-1||_2 (||D' Phi'^-1 psi'|| + ||m*||), and ``BRANCH_PROJECTED``
    otherwise.  The spectra are the (w, q) of ``eigh`` on each stack of H.
    :mod:`infodyn.matching` documents the three branches.
    """
    spectra = [
        np.linalg.eigh(symmetric_part(np.swapaxes(f, -1, -2) @ p))
        for f, p in zip(filters, pulled)
    ]
    if nonzero(np.concatenate([w.ravel() for w, _ in spectra])).all():
        return (BRANCH_REGULAR,) * means[0].shape[-1], spectra
    # Squared norms of each column, summed over the blocks.
    term = sum(
        np.sum((np.swapaxes(p, -1, -2) @ (m - c)) ** 2, axis=(0, 1))
        for p, m, c in zip(pulled, means, pulls)
    )
    mean = sum(np.sum(m**2, axis=(0, 1)) for m in means)
    pull = sum(np.sum(c**2) for c in pulls)
    scale = max(norm2(f) for f in filters) * inv_cov_norm * (np.sqrt(pull) + np.sqrt(mean))
    flat = np.sqrt(term) <= SINGULAR_RTOL * np.maximum(scale, 1.0)
    return tuple(BRANCH_ZERO if f else BRANCH_PROJECTED for f in flat), spectra
