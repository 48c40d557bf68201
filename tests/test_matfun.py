"""Spectral matrix functions against an independent small-matrix eigen oracle."""

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from infodyn import matfun
from infodyn.errors import InvalidInput, NotPositiveDefinite
from infodyn.gaussian import GaussianDensity
from infodyn.kleingordon import KGModel, build_prior_cov, update_generator


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


def test_spectral_decompose_matches_charpoly_oracle():
    rng = np.random.default_rng(7)
    for n in (1, 2, 3):
        for _ in range(20):
            a = _random_separated_symmetric(rng, n)
            w, q = matfun.spectral_decompose(a)
            w_oracle = charpoly_eigenvalues(a)
            assert len(w_oracle) == n
            assert_allclose(w, np.sort(w_oracle), atol=1e-9)
            assert_allclose(q @ q.T, np.eye(n), atol=1e-12)
            assert_allclose((q * w) @ q.T, matfun.symmetrize(a), atol=1e-12)


def test_spectral_decompose_exchange_matrix():
    w, q = matfun.spectral_decompose([[0.0, 1.0], [1.0, 0.0]])
    assert_allclose(w, [-1.0, 1.0], atol=1e-15)
    assert_allclose(q.T @ q, np.eye(2), atol=1e-15)


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
def test_diagonal_spectrum_is_read_off_like_eigh(diagonal, refused, monkeypatch):
    # A diagonal input skips the eigensolver.  Its spectrum, and every
    # inverse and square root built from it, must be what LAPACK gives.
    a = np.diag(np.asarray(diagonal, dtype=float))
    w_lapack, q_lapack = np.linalg.eigh(a)

    def no_eigensolver(matrix):
        raise AssertionError("a diagonal input reached np.linalg.eigh")

    monkeypatch.setattr(np.linalg, "eigh", no_eigensolver)
    w, q = matfun.spectral_decompose(a)
    assert w.tobytes() == w_lapack.tobytes()
    assert np.array_equal(q.T @ q, np.eye(len(w)))
    assert np.array_equal((q * w) @ q.T, a)
    if w[0] > 0.0:
        assert np.array_equal((q / w) @ q.T, (q_lapack / w_lapack) @ q_lapack.T)
        root = (q * np.sqrt(w)) @ q.T
        assert np.array_equal(root, (q_lapack * np.sqrt(w_lapack)) @ q_lapack.T)
    if refused:
        for op in (
            matfun.sqrtm_spd,
            matfun.log_det_spd,
            lambda cov: GaussianDensity(np.zeros(len(cov)), cov),
        ):
            with pytest.raises(NotPositiveDefinite):
                op(a)
    else:
        assert np.array_equal(matfun.sqrtm_spd(a), root)
        assert matfun.log_det_spd(a) == np.sum(np.log(w))
        GaussianDensity(np.zeros(len(w)), a)


def test_symmetrize_rejects_bad_input():
    with pytest.raises(InvalidInput):
        matfun.symmetrize(np.ones((2, 3)))
    with pytest.raises(InvalidInput):
        matfun.symmetrize([[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(InvalidInput):
        matfun.symmetrize(np.ones(3))


def test_log_det_matches_slogdet():
    rng = np.random.default_rng(17)
    for _ in range(10):
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        a = (q * rng.uniform(0.5, 4.0, 4)) @ q.T
        sign, logdet = np.linalg.slogdet(a)
        assert sign == 1.0
        assert_allclose(matfun.log_det_spd(a), logdet, rtol=1e-8)


def test_log_det_frozen_value():
    # diag(2, 8): log det = log 16.
    assert_allclose(
        matfun.log_det_spd(np.diag([2.0, 8.0])), np.log(16.0), rtol=1e-14
    )


def test_sqrt_squares_back():
    rng = np.random.default_rng(19)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    a = (q * rng.uniform(0.5, 4.0, 4)) @ q.T
    root = matfun.sqrtm_spd(a)
    assert_allclose(root @ root, a, atol=1e-10)


def test_pd_operations_reject_indefinite():
    a = np.diag([1.0, -1.0])
    for op in (matfun.sqrtm_spd, matfun.log_det_spd):
        with pytest.raises(NotPositiveDefinite):
            op(a)


def test_expm_general_matches_series_and_rejects_nonsquare():
    # Non-normal block: exp([[0, 1], [-w^2, 0]] t) is the oscillator rotation.
    w, t = 2.0, 0.3
    gen = np.array([[0.0, 1.0], [-(w**2), 0.0]])
    expected = np.array(
        [
            [np.cos(w * t), np.sin(w * t) / w],
            [-w * np.sin(w * t), np.cos(w * t)],
        ]
    )
    assert_allclose(matfun.expm_general(t * gen), expected, atol=1e-12)
    with pytest.raises(InvalidInput):
        matfun.expm_general(np.ones((2, 3)))


def _assert_matches_scipy_expm(a):
    # Norm-relative, so tiny entries of exp(A) are not held to their own digits.
    expected = scipy.linalg.expm(a)
    error = np.linalg.norm(matfun.expm_general(a) - expected, 1)
    assert error <= 1e-12 * np.linalg.norm(expected, 1)


def test_expm_general_matches_scipy_on_nonnormal_matrices():
    # 1-norms from 1e-3 (no squaring) to 200 (six squarings).
    rng = np.random.default_rng(29)
    for norm in np.geomspace(1e-3, 200.0, 25):
        a = rng.standard_normal((12, 12)) + np.triu(3.0 * rng.standard_normal((12, 12)), 1)
        _assert_matches_scipy_expm(a * (norm / np.linalg.norm(a, 1)))


def test_expm_general_rotation_at_every_scale():
    # exp(t [[0, 1], [-1, 0]]) is the rotation by t.  Its spectral radius
    # equals its 1-norm, so too few squarings for a norm shows at once.
    for t in np.geomspace(1e-3, 200.0, 25):
        expected = np.array([[np.cos(t), np.sin(t)], [-np.sin(t), np.cos(t)]])
        result = matfun.expm_general([[0.0, t], [-t, 0.0]])
        assert np.linalg.norm(result - expected, 1) <= 1e-12


@pytest.mark.parametrize(
    "n_modes, pixels, total_time", [(4, 5, 1.0), (64, 127, 0.005), (16, 31, 0.05)]
)
def test_expm_general_matches_scipy_on_update_generators(n_modes, pixels, total_time):
    model = KGModel(n_modes=n_modes, pixels=pixels, mu=1.0, beta=1.0, sigma_n2=0.01)
    _assert_matches_scipy_expm(total_time * update_generator(model))


def test_expm_general_zero_and_scalar():
    assert np.array_equal(matfun.expm_general(np.zeros((5, 5))), np.eye(5))
    for x in (-3.0, 0.5, 7.0):
        assert_allclose(matfun.expm_general([[x]]), [[np.exp(x)]], rtol=1e-15)
