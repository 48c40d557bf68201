"""Functions of symmetric matrices through the spectral theorem.

A symmetric matrix A = Q diag(a_1..a_n) Q^T defines f(A) = Q diag(f(a_k)) Q^T
for any f whose domain contains the spectrum.  Everything here goes through
an eigendecomposition; there is no Cholesky, LU or other non-normal path.
The positive-definiteness test :func:`require_pd` reads a spectrum that its
caller has computed: a dense covariance is factored once, by
:class:`infodyn.gaussian.GaussianDensity`, which keeps the spectrum that its
inverse, square root and log-determinant are read from.

No function here searches a matrix for block structure.  A caller that
knows its blocks passes them as a stack: :func:`symmetric_part`,
:func:`spectral_inverse` and :func:`norm2` take a
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
(:func:`branches`, with :func:`nonzero` and the ``BRANCH_*`` labels), which
factors nothing: its callers pass the norms it compares.  A run factors no
signal-space block of the posterior, so :func:`spectral_inverse` serves the
dense library alone.
"""

import numpy as np

from .errors import InvalidInput, NotPositiveDefinite

# Relative eigenvalue floor separating "positive definite" from "numerically
# singular": smallest eigenvalue must exceed PD_RTOL times the largest.
PD_RTOL = 1e-12

# Relative threshold below which a match Hessian eigenvalue, a linear term or
# a run's data Gram eigenvalue counts as zero: :func:`nonzero`,
# :func:`branches`, :func:`infodyn.matching.nullspace_projector` and the
# run's posterior.
SINGULAR_RTOL = 1e-10

BRANCH_REGULAR = "regular"
BRANCH_ZERO = "zero"
BRANCH_PROJECTED = "projected"

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


def branches(regular, terms, scales):
    """The entropic matcher's branch for each evolved mean m*, from norms its caller has computed.

    ``regular`` says whether the match Hessian H = W'^T D*^-1 W' is regular,
    every eigenvalue above ``SINGULAR_RTOL`` times the largest: then every
    mean is ``BRANCH_REGULAR``.  If not, a mean is ``BRANCH_ZERO`` when the
    norm in ``terms`` of its linear term W'^T D*^-1 (D' Phi'^-1 psi' - m*) is
    at most ``SINGULAR_RTOL`` times its entry in ``scales``, or 1 if larger,
    the bound ||W'||_2 ||D*^-1||_2 (||D' Phi'^-1 psi'|| + ||m*||), and
    ``BRANCH_PROJECTED`` otherwise.  Nothing is factored here.
    :mod:`infodyn.matching` documents the three branches.
    """
    if regular:
        return (BRANCH_REGULAR,) * len(terms)
    flat = np.asarray(terms) <= SINGULAR_RTOL * np.maximum(scales, 1.0)
    return tuple(BRANCH_ZERO if f else BRANCH_PROJECTED for f in flat)
