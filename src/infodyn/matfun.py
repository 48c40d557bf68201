"""Functions of symmetric matrices through the spectral theorem.

A symmetric matrix A = Q diag(a_1..a_n) Q^T defines f(A) = Q diag(f(a_k)) Q^T
for any f whose domain contains the spectrum.  Everything symmetric here
goes through one eigendecomposition; there is no Cholesky or LU path, so the
square root, the log-determinant, the spectral norm and the
positive-definiteness test share the same numerical behaviour.  The one
non-symmetric function, :func:`expm_general`, is the Pade [13/13]
scaling-and-squaring exponential of Higham (2005), written with numpy alone.

A matrix that is block diagonal up to a permutation is factored block by
block.  The blocks are the connected components of its exact nonzero
pattern (no tolerance), and all blocks of one size go to one stacked call.
A 1x1 block is not factored: its eigenvalue is its entry, so a diagonal
matrix such as a thermal prior or white noise has its spectrum read off,
exactly as LAPACK would return it.  A matrix that is one block is
decomposed whole, by one unstacked eigh call on the matrix itself.

A Klein-Gordon run does not need the pattern search for its Bayesian
layer: it takes the Fourier-class partition in closed form from
:mod:`infodyn.kleingordon` and works on stacks of class blocks directly.
What it still passes through here is dense by design: the diagonal prior
and noise, the initial-data draw and the exponential of the generator M'.

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
        Orthonormal columns, ``matrix ~ Q @ diag(w) @ Q.T``.  Each column is
        supported on one block of the input (see the module docstring); for
        a diagonal input they are unit vectors and no eigensolver runs.
    """
    a = symmetrize(matrix)
    groups = _blocks(a != 0)
    if len(a) > 1 and groups[-1].shape[1] == len(a):
        return np.linalg.eigh(a)
    # Eigenpair j of the block on indices m goes to slot m[j], so the
    # eigenvectors keep the block pattern of the input.
    w = np.empty(len(a))
    q = np.zeros_like(a)
    for members in groups:
        rows, cols = members[:, :, None], members[:, None, :]
        block = a[rows, cols]
        if members.shape[1] == 1:
            w[members], q[rows, cols] = block[:, 0], 1.0
        else:
            w[members], q[rows, cols] = np.linalg.eigh(block)
    order = np.argsort(w, kind="stable")
    return w[order], q[:, order]


def _blocks(pattern):
    """Connected components of a symmetric boolean pattern, grouped by size.

    Returns one (k, s) integer array per component size s, ascending in s,
    so a pattern that is one component gives [arange(n)[None]].  Each row
    lists the indices of one component in ascending order, and the rows are
    ordered by their smallest index.
    """
    n = len(pattern)
    labels = np.arange(n)
    while True:
        # Take the smallest label among the neighbours, then that label's
        # own label.  Labels only fall and stay inside their component, and
        # they stop changing once each component carries its smallest index.
        nearest = np.min(np.where(pattern, labels, n), axis=1, initial=n)
        new = np.minimum(labels, nearest)
        new = new[new]
        if np.array_equal(new, labels):
            break
        labels = new
    sizes = np.bincount(labels, minlength=n)[labels]
    # Stable, so each component's indices stay ascending.
    order = np.argsort(labels, kind="stable")
    first = np.flatnonzero(labels == np.arange(n))
    starts = np.searchsorted(labels[order], first)
    return [
        order[starts[sizes[first] == s][:, None] + np.arange(s)]
        for s in np.flatnonzero(np.bincount(sizes))
    ]


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
    A^6, then square the result s times.  The blocks are those of the
    pattern of |A| + |A^T| (see the module docstring), each with its own
    scaling; a 1x1 block is exponentiated directly, so a diagonal matrix is
    exponentiated entrywise and the zero matrix gives the identity exactly.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidInput(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InvalidInput("matrix entries must be finite")
    r = np.zeros_like(m)
    for members in _blocks((m != 0) | (m.T != 0)):
        rows, cols = members[:, :, None], members[:, None, :]
        block = m[rows, cols]
        # The rational approximant would round even exp(0) = 1 on a 1x1 block.
        r[rows, cols] = np.exp(block) if members.shape[1] == 1 else _pade_expm(block)
    return r


def _pade_expm(stack):
    """exp of each matrix of a (k, s, s) stack, each scaled by its own 1-norm."""
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
    return r
