"""The linearized step 1 + dt L: moments, order checks and its validity guard."""

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from infodyn import gaussian
from infodyn.dynamics import AffineDynamics
from infodyn.errors import InvalidInput, StepTooLarge
from infodyn.gaussian import GaussianDensity


def _spd(rng, n, lo=0.3, hi=3.0):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return (q * rng.uniform(lo, hi, n)) @ q.T


def test_push_forward_matches_mapped_samples():
    # Samples mapped by the step matrix G have the moments (G m, G D G^T).
    rng = np.random.default_rng(223)
    n = 3
    dyn = AffineDynamics(generator=rng.standard_normal((n, n)), dt=0.05)
    density = GaussianDensity(mean=rng.standard_normal(n), cov=_spd(rng, n))
    g = dyn.step_matrix()
    mapped = gaussian.sample(density, 400**2, seed=9) @ g.T
    assert_allclose(np.mean(mapped, axis=0), g @ density.mean, atol=0.05)
    assert_allclose(np.cov(mapped.T), g @ density.cov @ g.T, atol=0.1)


def test_cov_product_equals_three_term_expansion():
    # (1 + dt L) D (1 + dt L)^T = D + dt (L D + D L^T) + dt^2 L D L^T exactly.
    rng = np.random.default_rng(227)
    n = 4
    gen = rng.standard_normal((n, n))
    cov = _spd(rng, n)
    dt = 0.07
    g = AffineDynamics(generator=gen, dt=dt).step_matrix()
    expanded = (
        cov
        + dt * (gen @ cov + cov @ gen.T)
        + dt**2 * gen @ cov @ gen.T
    )
    assert_allclose(g @ cov @ g.T, expanded, atol=1e-12)


def test_kl_of_truncation_fourth_order_in_dt():
    # The linearly and the exactly evolved densities, N(G m, G D G^T) and
    # N(e^{dt L} m, e^{dt L} D e^{dt L}^T), agree on mean and covariance to
    # O(dt^2); relative entropy is quadratically flat in such perturbations,
    # so the entropy falls off like dt^4.
    rng = np.random.default_rng(233)
    n = 3
    gen = rng.standard_normal((n, n))
    mean = rng.standard_normal(n)
    cov = _spd(rng, n)
    dts = 0.04 * 0.5 ** np.arange(5)
    kls = []
    for dt in dts:
        g = AffineDynamics(generator=gen, dt=dt).step_matrix()
        a = scipy.linalg.expm(dt * gen)
        exact = GaussianDensity(mean=a @ mean, cov=a @ cov @ a.T)
        linear = GaussianDensity(mean=g @ mean, cov=g @ cov @ g.T)
        kls.append(gaussian.kl_divergence(exact, linear))
    slope = np.polyfit(np.log(dts), np.log(kls), 1)[0]
    assert 3.5 < slope < 4.5
    assert all(kl <= dt**2 for kl, dt in zip(kls, dts))


def test_jacobian_det_first_order():
    rng = np.random.default_rng(239)
    n = 4
    gen = rng.standard_normal((n, n))
    for dt in (0.04, 0.02, 0.01):
        det = np.linalg.det(AffineDynamics(generator=gen, dt=dt).step_matrix())
        # Remainder after the linear term is O(dt^2) with a norm constant.
        bound = (dt * np.linalg.norm(gen, 2)) ** 2 * 2.0 ** (n - 1)
        assert abs(det - (1.0 + dt * np.trace(gen))) <= bound


def test_step_too_large_at_construction():
    with pytest.raises(StepTooLarge):
        AffineDynamics(generator=[[10.0]], dt=0.2)
    # A stack of diagonal blocks is refused when its largest block is, and
    # otherwise steps block by block.
    blocks = np.array([[[0.0, 1.0], [-4.0, 0.0]], [[0.0, 1.0], [-10.0, 0.0]]])
    with pytest.raises(StepTooLarge, match=r"\|\|dt L\|\| = 1\.0 "):
        AffineDynamics(generator=blocks, dt=0.1)
    step = AffineDynamics(generator=blocks, dt=0.05).step_matrix()
    assert_allclose(step, np.eye(2) + 0.05 * blocks, rtol=0.0, atol=0.0)


def test_dimension_mismatch():
    with pytest.raises(InvalidInput):
        AffineDynamics(generator=np.zeros((2, 3)), dt=0.1)
    with pytest.raises(InvalidInput):
        AffineDynamics(generator=np.zeros(2), dt=0.1)
    with pytest.raises(InvalidInput):
        AffineDynamics(generator=np.zeros((2, 2, 3)), dt=0.1)
    with pytest.raises(InvalidInput, match="^generator entries must be finite$"):
        AffineDynamics(generator=[[0.0, np.inf], [0.0, 0.0]], dt=0.1)
    for dt in (-0.1, np.nan, np.inf):
        with pytest.raises(InvalidInput, match="^dt must be finite and nonnegative, got "):
            AffineDynamics(generator=np.zeros((2, 2)), dt=dt)
