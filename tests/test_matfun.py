"""Spectral matrix functions against independent oracles.

A dense covariance is factored in one place, :class:`GaussianDensity`; its
spectrum, the square root :func:`gaussian.sample` draws with and its
log-determinant are checked here against a small-matrix eigen oracle,
LAPACK and ``slogdet``.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from infodyn import gaussian, matfun
from infodyn.errors import InvalidInput, NotPositiveDefinite
from infodyn.gaussian import GaussianDensity, LinearMeasurement
from infodyn.kleingordon import KGModel
from infodyn.matching import nullspace_projector

from oracles import build_prior_cov


def _det_small(a):
    """Cofactor determinant for n <= 3, independent of any LAPACK path."""
    n = a.shape[0]
    if n == 1:
        return a[0, 0]
    if n == 2:
        return a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
    return (
        a[0, 0] * (a[1, 1] * a[2, 2] - a[1, 2] * a[2, 1])
        - a[0, 1] * (a[1, 0] * a[2, 2] - a[1, 2] * a[2, 0])
        + a[0, 2] * (a[1, 0] * a[2, 1] - a[1, 1] * a[2, 0])
    )


def charpoly_eigenvalues(a, grid=4001, tol=1e-13):
    """Eigenvalues of a small symmetric matrix by bisecting det(A - x).

    Scans a Gershgorin interval for sign changes of the characteristic
    polynomial and bisects each bracket.  Only suitable for n <= 3 with
    well-separated spectra, which is all the tests need.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    radius = np.max(np.sum(np.abs(a), axis=1)) + 1.0
    xs = np.linspace(-radius, radius, grid)
    vals = np.array([_det_small(a - x * np.eye(n)) for x in xs])
    roots = []
    for i in range(grid - 1):
        lo, hi = xs[i], xs[i + 1]
        flo, fhi = vals[i], vals[i + 1]
        if flo == 0.0:
            roots.append(lo)
            continue
        if flo * fhi >= 0.0:
            continue
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            fmid = _det_small(a - mid * np.eye(n))
            if fmid == 0.0:
                lo = hi = mid
            elif flo * fmid < 0.0:
                hi = mid
            else:
                lo, flo = mid, fmid
        roots.append(0.5 * (lo + hi))
    return np.array(roots)


def _random_separated_symmetric(rng, n):
    # Diagonally dominant draw keeps eigenvalues ~1 apart so the grid scan
    # of the oracle cannot skip a pair.
    base = np.diag(np.arange(1.0, n + 1.0))
    pert = rng.standard_normal((n, n))
    return base + 0.05 * (pert + pert.T)


def _density(cov):
    return GaussianDensity(np.zeros(len(cov)), cov)


def _draws_and_normals(density, count, seed):
    """gaussian.sample's draws and the standard normals z behind them, x = mean + z root."""
    z = np.random.Generator(np.random.PCG64(seed)).standard_normal((count, density.dim))
    return gaussian.sample(density, count, seed), z


def test_density_spectrum_matches_charpoly_oracle():
    rng = np.random.default_rng(7)
    for n in (1, 2, 3):
        for _ in range(20):
            a = _random_separated_symmetric(rng, n)
            w, q = _density(a)._spectrum
            w_oracle = charpoly_eigenvalues(a)
            assert len(w_oracle) == n
            assert_allclose(w, np.sort(w_oracle), atol=1e-9)
            assert_allclose(q @ q.T, np.eye(n), atol=1e-12)
            assert_allclose((q * w) @ q.T, matfun.symmetrize(a), atol=1e-12)


def test_nullspace_projector_keeps_both_directions_of_the_exchange_matrix():
    # The exchange matrix has eigenvalues -1 and 1: neither is null.
    p, rank = nullspace_projector([[0.0, 1.0], [1.0, 0.0]])
    assert rank == 2
    assert_allclose(p @ p.T, np.eye(2), atol=1e-15)
    assert_allclose(p.T @ p, np.eye(2), atol=1e-15)


_PRIOR_16_31 = np.diag(
    build_prior_cov(KGModel(n_modes=16, pixels=31, mu=1.0, beta=1.0, sigma_n2=0.01))
)


@pytest.mark.parametrize(
    "diagonal, refused",
    [
        ([3.0, 1.0, 3.0, 1.0, 2.0], False),
        (_PRIOR_16_31, False),
        ([0.7], False),
        ([2.0, 0.0, 5.0], True),
        ([4.0, -1.0, 4.0, 0.5], True),
        ([1.0, 0.5 * matfun.PD_RTOL, 2.0], True),
    ],
    ids=["tied", "kg-prior", "1x1", "zero", "negative", "below-floor"],
)
def test_diagonal_spectrum_is_read_off_like_eigh(diagonal, refused):
    # The spectrum a density stores for a diagonal covariance, and the
    # inverse, square root and log-determinant read off it, must be what
    # LAPACK gives, and the positive definiteness test must refuse exactly
    # the singular ones, as a density and as a measurement's noise.
    a = np.diag(np.asarray(diagonal, dtype=float))
    if refused:
        for op in (_density, lambda cov: LinearMeasurement(np.eye(len(cov)), cov)):
            with pytest.raises(NotPositiveDefinite):
                op(a)
        return
    w_lapack, q_lapack = np.linalg.eigh(a)
    density = _density(a)
    w, q = density._spectrum
    assert w.tobytes() == w_lapack.tobytes()
    assert np.array_equal(q.T @ q, np.eye(len(w)))
    assert np.array_equal((q * w) @ q.T, a)
    assert np.array_equal(density.inv_cov(), (q_lapack / w_lapack) @ q_lapack.T)
    draws, z = _draws_and_normals(density, 3, seed=0)
    assert np.array_equal(draws, z @ ((q_lapack * np.sqrt(w_lapack)) @ q_lapack.T))
    assert density.log_det_cov() == np.sum(np.log(w_lapack))


def test_symmetrize_rejects_bad_input():
    with pytest.raises(InvalidInput):
        matfun.symmetrize(np.ones((2, 3)))
    with pytest.raises(InvalidInput):
        matfun.symmetrize([[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(InvalidInput):
        matfun.symmetrize(np.ones(3))
    with pytest.raises(InvalidInput, match="^matrix must be at least 1x1$"):
        matfun.symmetrize(np.ones((0, 0)))


def test_log_det_matches_slogdet():
    rng = np.random.default_rng(17)
    for _ in range(10):
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        a = (q * rng.uniform(0.5, 4.0, 4)) @ q.T
        sign, logdet = np.linalg.slogdet(a)
        assert sign == 1.0
        assert_allclose(_density(a).log_det_cov(), logdet, rtol=1e-8)


def test_log_det_frozen_value():
    # diag(2, 8): log det = log 16.
    assert_allclose(_density(np.diag([2.0, 8.0])).log_det_cov(), np.log(16.0), rtol=1e-14)


def test_sqrt_squares_back():
    # The root gaussian.sample draws with, solved from 4 draws of a
    # zero-mean density: x = z root.
    rng = np.random.default_rng(19)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    a = (q * rng.uniform(0.5, 4.0, 4)) @ q.T
    draws, z = _draws_and_normals(_density(a), 4, seed=3)
    root = np.linalg.solve(z, draws)
    assert_allclose(root, root.T, atol=1e-12)
    assert_allclose(root @ root, a, atol=1e-10)


def test_pd_operations_reject_indefinite():
    a = np.diag([1.0, -1.0])
    for op in (_density, lambda cov: LinearMeasurement(np.eye(2), cov)):
        with pytest.raises(NotPositiveDefinite, match="GaussianDensity"):
            op(a)


def test_kl_covariance_term_refuses_only_a_nonpositive_whitened_eigenvalue():
    # The whitened evolved covariance has eigenvalues 1 + x.  A positive
    # spectrum of any spread, here 0.5 to 1e20, gives the finite term
    # 1/2 sum (x - log(1 + x)); a zero or negative 1 + x, whose logarithm is
    # not finite, is refused.
    x = np.array([-0.5, 1e20])
    assert_allclose(
        matfun.kl_covariance_blocks([np.diag(x)]),
        0.5 * np.sum(x - np.log1p(x)),
        rtol=1e-15,
    )
    for smallest in (-1.0, -2.0):
        with pytest.raises(NotPositiveDefinite, match="^whitened covariance of a relative entropy"):
            matfun.kl_covariance_blocks([np.diag([0.5]), np.diag([smallest, 3.0])])


def _permuted_blocks(rng, sizes, make_block):
    """Block diagonal matrix of ``make_block(s)`` blocks, rows and columns permuted.

    Also returns the boolean mask of the entries the blocks may fill.
    """
    n = sum(sizes)
    a = np.zeros((n, n))
    mask = np.zeros((n, n), dtype=bool)
    start = 0
    for s in sizes:
        a[start : start + s, start : start + s] = make_block(s)
        mask[start : start + s, start : start + s] = True
        start += s
    perm = rng.permutation(n)
    return a[np.ix_(perm, perm)], mask[np.ix_(perm, perm)]


def test_norm2_matches_svd_norm():
    rng = np.random.default_rng(43)
    block, _ = _permuted_blocks(rng, [1, 2, 3, 4], lambda s: rng.standard_normal((s, s)))
    for a in (rng.standard_normal((5, 3)), rng.standard_normal((3, 5)), block):
        assert_allclose(matfun.norm2(a), np.linalg.norm(a, 2), rtol=1e-14)
    assert matfun.norm2(np.zeros((3, 2))) == 0.0
    # A stack of blocks has the norm of the block-diagonal matrix they form.
    stack = rng.standard_normal((3, 4, 2)) * np.array([1.0, 3.0, 0.5])[:, None, None]
    assert_allclose(
        matfun.norm2(stack), max(np.linalg.norm(b, 2) for b in stack), rtol=1e-14
    )
    # A^T A of this matrix overflows; its norm does not.
    huge = 1e300 * np.array([[3.0, 0.0], [4.0, 0.0]])
    assert_allclose(matfun.norm2(huge), 5e300, rtol=1e-15)
