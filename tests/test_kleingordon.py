"""Klein-Gordon model pieces against quadrature, conservation and closed forms.

The mode convention behind the oracles: a packed signal component is a
coefficient of phi(x) = (1/2pi) sum_k phihat_k exp(-i k x) with
phihat_{-k} = conj(phihat_k), so the basis state "Re phihat_l = 1" is the
field cos(l x)/pi and "Im phihat_l = 1" is sin(l x)/pi.  Data coefficients
are dhat_k = Delta sum_j exp(i k j Delta) d_j of the pixel averages d_j.
"""

import numpy as np
import pytest
import scipy.integrate
import scipy.sparse.csgraph
from numpy.testing import assert_allclose

from infodyn import gaussian
from infodyn import kleingordon as kg
from infodyn import matfun, matching
from infodyn.errors import (
    DegenerateMassError,
    InvalidInput,
    NotPositiveDefinite,
    UnsupportedPixelCount,
)
from infodyn.kleingordon import KGModel

import oracles


def _model(**kw):
    base = dict(n_modes=4, pixels=5, mu=1.0, beta=1.0, sigma_n2=0.01)
    base.update(kw)
    return KGModel(**base)


def _basis_field(model, col):
    """Real-space field of one packed phi-part basis vector."""
    if col == 0:
        return lambda x: 1.0 / (2.0 * np.pi)
    l = (col + 1) // 2
    if col % 2 == 1:
        return lambda x: np.cos(l * x) / np.pi
    return lambda x: np.sin(l * x) / np.pi


def _quadrature_response_column(model, col):
    """Packed data image of one basis vector: integrate pixel averages, DFT."""
    field = _basis_field(model, col)
    y, delta = model.pixels, model.delta
    averages = np.empty(y)
    for j in range(y):
        value, _ = scipy.integrate.quad(field, j * delta, (j + 1) * delta)
        averages[j] = value / delta
    ks = np.arange((y + 1) // 2 + 1)
    coeffs = delta * np.exp(1j * np.outer(ks, np.arange(y)) * delta) @ averages
    packed = np.empty(model.data_part_dim)
    packed[0] = coeffs[0].real
    packed[1::2] = coeffs[1:].real
    packed[2::2] = coeffs[1:].imag
    return packed


@pytest.mark.parametrize("n,y", [(2, 3), (4, 5), (5, 3), (6, 7)])
def test_response_matches_pixel_average_quadrature(n, y):
    model = _model(n_modes=n, pixels=y)
    r = oracles.build_response(model)
    for col in range(model.part_dim):
        assert_allclose(
            r[:, col], _quadrature_response_column(model, col), atol=1e-12
        )


def test_response_frozen_values():
    # Y = 3, l = 1: scale = sinc(pi/3) = 3 sqrt(3)/(2 pi), rotation angle pi/3.
    model = _model(n_modes=2, pixels=3)
    r = oracles.build_response(model)
    scale = 0.8269933431326881
    assert_allclose(r[0, 0], 1.0, rtol=1e-15)
    assert_allclose(
        r[1:3, 1:3],
        scale * np.array([[0.5, np.sqrt(3.0) / 2.0], [-np.sqrt(3.0) / 2.0, 0.5]]),
        atol=1e-14,
    )
    assert_allclose(r[0, 1:], 0.0, atol=1e-15)
    assert_allclose(r[1:, 0], 0.0, atol=1e-15)


def test_response_aliased_mode_block():
    # Mode l = 4 on Y = 3 pixels lands in coefficient k = 1 with a negative
    # sinc factor: aliasing folds it onto the same rows as l = 1.
    model = _model(n_modes=5, pixels=3)
    r = oracles.build_response(model)
    half = 0.5 * model.delta
    scale = np.sin(4.0 * half) / (4.0 * half)
    assert scale < 0.0
    c, s = np.cos(4.0 * half), np.sin(4.0 * half)
    assert_allclose(
        r[1:3, 7:9], scale * np.array([[c, s], [-s, c]]), atol=1e-14
    )


def test_lift_response_block_structure():
    model = _model()
    r = oracles.build_response(model)
    r2 = oracles.lift_response(r)
    zeros = np.zeros_like(r)
    assert_allclose(r2[: r.shape[0], : r.shape[1]], r, rtol=1e-15)
    assert_allclose(r2[r.shape[0] :, r.shape[1] :], r, rtol=1e-15)
    assert_allclose(r2[: r.shape[0], r.shape[1] :], zeros, rtol=1e-15)
    assert_allclose(r2[r.shape[0] :, : r.shape[1]], zeros, rtol=1e-15)


def test_prior_covariance_entries():
    model = _model(mu=2.0, beta=0.5)
    phi = oracles.build_prior_cov(model)
    p = model.part_dim
    assert_allclose(np.diag(phi)[0], 2.0 * np.pi / (0.5 * 4.0), rtol=1e-14)
    assert_allclose(np.diag(phi)[p], 2.0 * np.pi / 0.5, rtol=1e-14)
    for k in range(1, model.n_modes):
        wk2 = k**2 + 4.0
        assert_allclose(phi[2 * k - 1, 2 * k - 1], (np.pi / 0.5) / wk2, rtol=1e-14)
        assert_allclose(phi[2 * k, 2 * k], (np.pi / 0.5) / wk2, rtol=1e-14)
        assert_allclose(phi[p + 2 * k, p + 2 * k], np.pi / 0.5, rtol=1e-14)
    assert_allclose(phi, np.diag(np.diag(phi)), rtol=1e-15)
    # The chi-part diagonal is omega^2 times the phi-part diagonal.
    omegas2 = np.empty(p)
    omegas2[0] = 4.0
    w2 = model.omega(np.arange(1, model.n_modes)) ** 2
    omegas2[1::2] = w2
    omegas2[2::2] = w2
    assert_allclose(np.diag(phi)[p:], omegas2 * np.diag(phi)[:p], rtol=1e-13)


@pytest.mark.parametrize("mu", [1e-8, 4e-6, 4.5e-6, 1.0, 3.0])
def test_prior_variances_are_the_prior_diagonal_and_pass_its_pd_test(mu):
    # The variances are the diagonal of the dense prior bit for bit, and
    # they are refused exactly where the dense prior density is: at n 4 the
    # test's floor lies near mu = sqrt(18e-12) = 4.24e-6.
    model = _model(mu=mu)
    dense = np.diag(
        np.concatenate(
            [kg._part_prior_diag(model, kg.PART_PHI), kg._part_prior_diag(model, kg.PART_CHI)]
        )
    )
    try:
        gaussian.GaussianDensity(np.zeros(model.signal_dim), dense)
    except NotPositiveDefinite:
        with pytest.raises(NotPositiveDefinite, match="thermal prior covariance"):
            kg.prior_variances(model)
        assert mu < 4.24e-6
    else:
        var = kg.prior_variances(model)
        assert var.tobytes() == np.diagonal(dense).tobytes()
        assert var.tobytes() == np.diagonal(oracles.build_prior_cov(model)).tobytes()
        assert mu > 4.24e-6


def test_generator_action():
    model = _model()
    l_mat = oracles.build_generator(model)
    p = model.part_dim
    # d/dt phi = chi.
    assert_allclose(l_mat[:p, p:], np.eye(p), rtol=1e-15)
    # d/dt chi = -omega^2 phi; mu = 1 puts -1 at the zero mode.
    assert_allclose(l_mat[p, 0], -1.0, rtol=1e-15)
    # L^2 acts as -omega^2 on the phi block.
    sq = l_mat @ l_mat
    diag = np.empty(p)
    diag[0] = -1.0
    w2 = model.omega(np.arange(1, model.n_modes)) ** 2
    diag[1::2] = -w2
    diag[2::2] = -w2
    assert_allclose(sq[:p, :p], np.diag(diag), atol=1e-14)


def test_exact_step_group_law_and_inverse():
    model = _model()
    for s, t in ((0.1, 0.25), (0.3, -0.3), (1.0, 2.0)):
        left = oracles.exact_step(model, s) @ oracles.exact_step(model, t)
        assert_allclose(left, oracles.exact_step(model, s + t), atol=1e-10)
    assert_allclose(oracles.exact_step(model, 0.0), np.eye(model.signal_dim), rtol=1e-15)
    assert_allclose(
        oracles.exact_step(model, 0.4) @ oracles.exact_step(model, -0.4),
        np.eye(model.signal_dim),
        atol=1e-13,
    )


def test_exact_step_unit_determinant():
    model = _model()
    for dt in (0.1, 0.7, 3.0):
        assert_allclose(np.linalg.det(oracles.exact_step(model, dt)), 1.0, rtol=1e-12)


def test_exact_step_linearization_remainder():
    # || A(dt) - (1 + dt L) || <= K dt^2 with K below w_max^2 (1 + w_max)/2;
    # the ratio stays put under dt halving.
    model = _model()
    l_mat = oracles.build_generator(model)
    w_max = float(model.omega(model.n_modes - 1))
    bound = w_max**2 * (1.0 + w_max) / 2.0
    ratios = []
    for dt in 0.1 * 0.5 ** np.arange(4):
        gap = np.linalg.norm(
            oracles.exact_step(model, dt) - np.eye(model.signal_dim) - dt * l_mat, 2
        )
        ratios.append(gap / dt**2)
    assert all(r <= bound for r in ratios)
    assert ratios[-1] > 0.1 * ratios[0]


def test_field_energy_frozen_and_conserved():
    model = _model()
    state = np.zeros(model.signal_dim)
    state[0] = 1.0
    assert_allclose(kg.field_energy(model, state), 1.0 / (4.0 * np.pi), rtol=1e-14)

    rng = np.random.default_rng(401)
    state = rng.standard_normal(model.signal_dim)
    e0 = kg.field_energy(model, state)
    a = oracles.exact_step(model, 1.0 / 2**9)
    for _ in range(2**9):
        state = a @ state
        assert abs(kg.field_energy(model, state) - e0) < 1e-10


def test_model_validation():
    with pytest.raises(InvalidInput):
        _model(n_modes=1)
    with pytest.raises(UnsupportedPixelCount):
        _model(pixels=4)
    with pytest.raises(UnsupportedPixelCount):
        _model(pixels=1)
    with pytest.raises(DegenerateMassError):
        _model(mu=0.0)
    with pytest.raises(InvalidInput):
        _model(beta=0.0)
    with pytest.raises(InvalidInput):
        _model(sigma_n2=-1.0)
    # Sizes too long to print are refused by name, not by repr's ValueError.
    huge = 10**5000
    with pytest.raises(InvalidInput, match="^n_modes must be an integer >= 2, got a number"):
        _model(n_modes=-huge)
    with pytest.raises(UnsupportedPixelCount, match="got a number of more than"):
        _model(pixels=huge)
    with pytest.raises(InvalidInput, match="pixels=a number of more than"):
        _model(pixels=huge + 1)


def test_closed_forms_refuse_bad_arguments():
    model = _model(n_modes=4, pixels=5)
    classes = kg.fourier_classes(model)
    with pytest.raises(InvalidInput, match="^unknown part 'psi'$"):
        kg.data_gram_condition(model, classes, "psi")
    with pytest.raises(InvalidInput, match="^unknown part 'psi'$"):
        kg.rphi_rt_diag(model, "psi")
    with pytest.raises(InvalidInput, match="^dt must be finite, got nan$"):
        kg.exact_step_pairs(model, np.nan)
    with pytest.raises(InvalidInput, match=r"^packed field has shape \(13,\), expected \(14,\)$"):
        kg.exact_evolve(model, np.zeros(13), [0.0, 1.0])
    with pytest.raises(InvalidInput, match=r"^packed field has shape \(\), expected \(\.\.\., 14\)$"):
        kg.field_energy(model, 1.0)
    with pytest.raises(InvalidInput, match=r"^packed field has shape \(2, 13\), expected"):
        kg.field_energy(model, np.zeros((2, 13)))


@pytest.mark.parametrize("field", ["n_modes", "pixels", "mu", "beta", "sigma_n2"])
@pytest.mark.parametrize("flag", [True, np.True_])
def test_model_refuses_booleans(field, flag):
    # mu = True was accepted and written back as "mu": true, which
    # parse_config refuses.
    with pytest.raises(InvalidInput, match=f"^{field} must be a number, not a boolean"):
        _model(**{field: flag})


@pytest.mark.parametrize("field", ["mu", "beta", "sigma_n2"])
@pytest.mark.parametrize("value", ["1.0", None, 1j])
def test_model_refuses_scales_that_are_not_real_numbers(field, value):
    with pytest.raises(InvalidInput, match="^mu, beta and sigma_n2 must be real numbers"):
        _model(**{field: value})


@pytest.mark.parametrize(
    "overrides",
    [
        {"mu": 1e-320},  # mu^2 underflows to 0
        {"mu": -1e-170},
        {"mu": 1e200},  # mu^2 overflows
        {"beta": 1e-300, "mu": 1e-20},  # beta mu^2 underflows to 0
        {"beta": 1e300, "mu": 1e10},  # beta mu^2 overflows
        {"sigma_n2": 1e-320},  # 1/sigma_n2 overflows
        # No float holds them: these raised OverflowError.
        {"mu": 10**400},
        {"beta": 10**400},
        {"sigma_n2": 10**400},
    ],
)
def test_model_refuses_scales_that_underflow_or_overflow(overrides):
    with pytest.raises(InvalidInput, match="must be a finite positive float"):
        _model(**overrides)


def test_model_accepts_scales_just_inside_the_float_range():
    # mu^2 and beta mu^2 may be subnormal, 1/sigma_n2 too: all positive and finite.
    for overrides in ({"mu": 1e-160}, {"mu": 1e154}, {"beta": 1e-10, "mu": 1e-154},
                      {"sigma_n2": 1e-308}, {"sigma_n2": 1e308}):
        _model(**overrides)


def test_model_and_density_refuse_assignment():
    model = _model()
    with pytest.raises(AttributeError):
        model.mu = 2.0
    with pytest.raises(AttributeError):
        del model.beta
    density = gaussian.GaussianDensity(mean=np.zeros(2), cov=np.eye(2))
    with pytest.raises(AttributeError):
        density.cov = 2.0 * np.eye(2)
    with pytest.raises(AttributeError):
        density.extra = 1
    assert model.mu == 1.0 and np.array_equal(density.cov, np.eye(2))


def test_dt_limit_frozen():
    assert_allclose(_model().dt_limit, 0.1, rtol=1e-15)


def test_dt_limit_is_the_reciprocal_generator_norm():
    # dt < dt_limit is dt ||L|| < 1: the spectral norm, with SVD as oracle.
    for n_modes in (2, 3, 5, 16, 64):
        for mu in (1e-3, 0.5, 1.0, 30.0, 1e5):
            model = _model(n_modes=n_modes, pixels=3, mu=mu)
            norm = np.linalg.norm(oracles.build_generator(model), 2)
            assert_allclose(1.0 / model.dt_limit, norm, rtol=1e-15)


def _dense_gram(model, part):
    r = oracles.build_response(model)
    full = np.diag(oracles.build_prior_cov(model))
    p = model.part_dim
    diag = full[:p] if part == kg.PART_PHI else full[p:]
    return matfun.symmetrize(r @ np.diag(diag) @ r.T)


@pytest.mark.parametrize("n,y", [(4, 5), (3, 5), (6, 5), (5, 7), (8, 9)])
def test_gram_diagonal_closed_form(n, y):
    model = _model(n_modes=n, pixels=y)
    for part in (kg.PART_PHI, kg.PART_CHI):
        dense = _dense_gram(model, part)
        assert_allclose(np.diag(dense), kg.rphi_rt_diag(model, part), atol=1e-10)


def test_gram_off_diagonal_is_one_alias_coupling():
    # The only off-diagonal content of the dense Gram is the conjugate-alias
    # coupling b_(Y-1)/2 [[1, 0], [0, -1]] between the stored duplicates
    # (Y-1)/2 and (Y+1)/2.
    model = _model()
    y = model.pixels
    k0, k1 = (y - 1) // 2, (y + 1) // 2
    for part in (kg.PART_PHI, kg.PART_CHI):
        dense = _dense_gram(model, part)
        b = kg.rphi_rt_diag(model, part)[2 * k0 - 1]
        expected = np.diag(kg.rphi_rt_diag(model, part))
        coupling = b * np.array([[1.0, 0.0], [0.0, -1.0]])
        expected[2 * k0 - 1 : 2 * k0 + 1, 2 * k1 - 1 : 2 * k1 + 1] = coupling
        expected[2 * k1 - 1 : 2 * k1 + 1, 2 * k0 - 1 : 2 * k0 + 1] = coupling
        assert_allclose(dense, expected, atol=1e-12)


def test_gram_single_mode_per_coefficient_formula():
    # With n - 1 <= (Y-1)/2 each coefficient k is reached by at most the one
    # mode l = k, so b_k collapses to (pi/beta) w(k) sinc^2(k Delta/2).
    model = _model(n_modes=3, pixels=5, beta=2.0)
    diag = kg.rphi_rt_diag(model, kg.PART_PHI)
    for k in (1, 2):
        expected = (
            (np.pi / 2.0)
            / model.omega(k) ** 2
            * np.sinc(k * 0.5 * model.delta / np.pi) ** 2
        )
        assert_allclose(diag[2 * k - 1], expected, rtol=1e-14)
    # Coefficient 3 = (Y+1)/2 duplicates k = 2 by conjugation.
    assert_allclose(diag[5], diag[3], rtol=1e-14)
    assert_allclose(diag[6], diag[4], rtol=1e-14)


def test_gram_diagonal_positive_iff_enough_modes():
    # With n - 1 >= (Y-1)/2 every coefficient is reached; (3, 5) and (4, 7)
    # sit on the boundary.
    for n, y in ((4, 5), (3, 5), (4, 7)):
        for part in (kg.PART_PHI, kg.PART_CHI):
            assert np.all(kg.rphi_rt_diag(_model(n_modes=n, pixels=y), part) > 0.0)
    # With fewer modes some coefficient is reached by no mode and its Gram
    # entry would be 0; the model refuses to be built.
    for n, y in ((2, 7), (3, 7), (4, 9)):
        with pytest.raises(InvalidInput, match="n_modes - 1 >= "):
            _model(n_modes=n, pixels=y)


def test_update_generator_noise_free_limit():
    # Every sigma^2 dependence cancels down to a right division by the Gram
    # diagonal: M' -> (R2 L Phi R2^T) diag(1/b) as sigma^2 -> 0.
    model = _model(sigma_n2=1e-12)
    r2 = oracles.lift_response(oracles.build_response(model))
    sandwich = r2 @ oracles.build_generator(model) @ oracles.build_prior_cov(model) @ r2.T
    diag = np.concatenate(
        [kg.rphi_rt_diag(model, kg.PART_PHI), kg.rphi_rt_diag(model, kg.PART_CHI)]
    )
    assert_allclose(oracles.update_generator(model), sandwich / diag, rtol=1e-8)


def _update_matrix(model, dt):
    """One-step data update M = 1 + dt M', as a run forms it."""
    return np.eye(model.data_dim) + dt * oracles.update_generator(model)


def _alias_coordinates(model):
    y, dp = model.pixels, model.data_part_dim
    k0, k1 = (y - 1) // 2, (y + 1) // 2
    cols = []
    for off in (0, dp):
        cols += [off + 2 * k0 - 1, off + 2 * k0, off + 2 * k1 - 1, off + 2 * k1]
    return cols


def test_update_matches_matcher_except_alias_pair():
    # On data consistent with a field state, the closed-form update agrees
    # with the entropic matcher exactly on every coordinate outside the
    # duplicated conjugate pair; on the pair the gap is first order in dt
    # (the closed form divides by b + sigma^2 where the coupled dense truth
    # requires 2b + sigma^2).
    model = _model()
    prior = oracles.prior_density(model)
    meas = oracles.measurement(model)
    d_cov = gaussian.posterior(prior, meas, np.zeros(model.data_dim)).cov
    w = gaussian.wiener_filter(prior, meas)
    l_mat = oracles.build_generator(model)
    s0 = gaussian.sample(prior, 1, seed=5)[0]
    u = meas.response @ s0
    alias = _alias_coordinates(model)
    non_alias = [i for i in range(model.data_dim) if i not in alias]
    gaps = []
    dts = 0.05 * 0.5 ** np.arange(4)
    for dt in dts:
        m_update = _update_matrix(model, dt)
        g = np.eye(model.signal_dim) + dt * l_mat
        evolved_cov = matfun.symmetrize(g @ d_cov @ g.T)
        problem = matching.MatchProblem(
            evolved_mean=g @ (w @ u),
            evolved_inv_cov=gaussian.GaussianDensity(
                np.zeros(model.signal_dim), evolved_cov
            ).inv_cov(),
            new_prior=prior,
            new_meas=meas,
        )
        result = matching.match(problem)
        assert result.branch == matching.BRANCH_PROJECTED
        deviation = m_update @ u - result.data
        assert np.max(np.abs(deviation[non_alias])) < 1e-12
        gaps.append(np.linalg.norm(deviation[alias]))
    slope = np.polyfit(np.log(dts), np.log(gaps), 1)[0]
    assert 0.8 < slope < 1.2


def test_iterated_approaches_direct_at_first_order():
    model = _model()
    rng = np.random.default_rng(431)
    d0 = rng.standard_normal(model.data_dim)
    t_final = 1.0
    target = matfun.expm_general(t_final * oracles.update_generator(model)) @ d0
    dts, gaps = [], []
    for n in (4, 5, 6, 7):
        steps = 2**n
        m = _update_matrix(model, t_final / steps)
        u = d0.copy()
        for _ in range(steps):
            u = m @ u
        dts.append(t_final / steps)
        gaps.append(np.linalg.norm(u - target))
    slope = np.polyfit(np.log(dts), np.log(gaps), 1)[0]
    assert 0.7 < slope < 1.3


def test_data_norm_stays_below_exponential_envelope():
    model = _model()
    rng = np.random.default_rng(433)
    d0 = rng.standard_normal(model.data_dim)
    t_final = 1.0
    steps = 2**8
    m = _update_matrix(model, t_final / steps)
    envelope = np.exp(
        t_final * np.linalg.norm(oracles.update_generator(model), 2)
    ) * np.linalg.norm(d0)
    u = d0
    for _ in range(steps):
        u = m @ u
        assert np.linalg.norm(u) <= envelope


def _loop_response(model):
    """The response built mode by mode, with a scalar sinc and rotation per mode."""
    n, y = model.n_modes, model.pixels
    k_max = (y + 1) // 2  # the largest stored data coefficient index
    half = 0.5 * model.delta
    r = np.zeros((model.data_part_dim, model.part_dim))
    r[0, 0] = 1.0
    for l in range(1, n):
        scale = float(np.sinc(l * half / np.pi))
        c = np.cos(l * half)
        s = np.sin(l * half)
        cols = (2 * l - 1, 2 * l)
        k_direct = l % y
        if 1 <= k_direct <= k_max:
            rows = (2 * k_direct - 1, 2 * k_direct)
            r[np.ix_(rows, cols)] += scale * np.array([[c, s], [-s, c]])
        k_mirror = (-l) % y
        if 1 <= k_mirror <= k_max:
            rows = (2 * k_mirror - 1, 2 * k_mirror)
            r[np.ix_(rows, cols)] += scale * np.array([[c, s], [s, -c]])
    return r


def _loop_gram_diag(model, part):
    """The closed-form Gram diagonal summed coefficient by coefficient."""
    n, y, beta = model.n_modes, model.pixels, model.beta
    m = np.arange(1, n)
    if part == kg.PART_PHI:
        weight = 1.0 / model.omega(m) ** 2
        zero_entry = 2.0 * np.pi / (beta * model.mu**2)
    else:
        weight = np.ones(n - 1)
        zero_entry = 2.0 * np.pi / beta
    sinc2 = np.sinc(m * 0.5 * model.delta / np.pi) ** 2
    diag = np.empty(model.data_part_dim)
    diag[0] = zero_entry
    residues = m % y
    for k in range(1, (y + 1) // 2 + 1):
        hits = (residues == k) | (residues == (y - k) % y)
        diag[2 * k - 1] = diag[2 * k] = (np.pi / beta) * np.sum(weight[hits] * sinc2[hits])
    return diag


def _dense_chain_update_generator(model):
    """M' as the dense chain (1 + sigma^2 G) R2 L Phi R2^T H, from the loop oracles."""
    r2 = oracles.lift_response(_loop_response(model))
    sandwich = r2 @ oracles.build_generator(model) @ oracles.build_prior_cov(model) @ r2.T
    diag = np.concatenate(
        [_loop_gram_diag(model, kg.PART_PHI), _loop_gram_diag(model, kg.PART_CHI)]
    )
    scaled = sandwich / (diag + model.sigma_n2)
    return scaled + (model.sigma_n2 / diag)[:, None] * scaled


@pytest.mark.parametrize("n, y", [(4, 5), (16, 31), (64, 127)])
def test_builders_equal_the_loop_and_dense_chain_bitwise(n, y):
    model = _model(n_modes=n, pixels=y)
    assert np.array_equal(oracles.build_response(model), _loop_response(model))
    for part in (kg.PART_PHI, kg.PART_CHI):
        assert np.array_equal(kg.rphi_rt_diag(model, part), _loop_gram_diag(model, part))
    assert np.array_equal(oracles.update_generator(model), _dense_chain_update_generator(model))


@pytest.mark.parametrize("n, y", [(256, 511), (8, 5)])
def test_builders_match_the_loop_and_dense_chain_when_sums_reorder(n, y):
    # (8, 5) folds three modes onto each nonzero class; at (256, 511) the
    # dense products may sum a class's terms in another order.
    model = _model(n_modes=n, pixels=y)
    pairs = [(oracles.build_response(model), _loop_response(model))]
    pairs += [
        (kg.rphi_rt_diag(model, part), _loop_gram_diag(model, part))
        for part in (kg.PART_PHI, kg.PART_CHI)
    ]
    pairs.append((oracles.update_generator(model), _dense_chain_update_generator(model)))
    for new, oracle in pairs:
        assert np.max(np.abs(new - oracle)) <= 1e-15 * np.max(np.abs(oracle))


@pytest.mark.parametrize("n, y", [(4, 5), (8, 5), (16, 31), (40, 31), (64, 127)])
def test_apply_pairs_is_the_dense_class_blocks_product(n, y):
    # A class lists its phi components, then their chi partners, so the
    # pair blocks of L and A(dt) act on a class stack as the class blocks
    # gathered from the dense matrices.  The oracle sums the products
    # unfused, as apply_pairs does; BLAS may fuse them.  (40, 31) has the
    # data-free blocks of mode 31.
    model = _model(n_modes=n, pixels=y)
    rng = np.random.default_rng(n + y)
    classes = kg.fourier_classes(model)
    for dense, pairs in (
        (oracles.build_generator(model), kg.generator_pairs(model)),
        (oracles.exact_step(model, 0.3), kg.exact_step_pairs(model, 0.3)),
    ):
        stacks = [rng.standard_normal(sig.shape + (3,)) for sig, _ in classes]
        applied = kg.apply_pairs(pairs, classes, stacks)
        assert len(applied) == len(classes)
        for (sig, _), x, got in zip(classes, stacks, applied):
            gathered = dense[sig[:, :, None], sig[:, None, :]]
            assert np.array_equal(got, np.sum(gathered[..., None] * x[:, None], axis=2))


def _refuse_dense_response(monkeypatch):
    """Make building the dense response, or lifting it, raise."""

    def refuse(*args, **kwargs):
        raise AssertionError("a dense response was built")

    monkeypatch.setattr(oracles, "build_response", refuse)
    monkeypatch.setattr(oracles, "lift_response", refuse)


@pytest.mark.parametrize("n, y", [(4, 5), (8, 5), (16, 31), (40, 31), (64, 127)])
def test_data_gram_condition_matches_the_dense_gram(n, y, monkeypatch):
    # (8, 5) and (40, 31) alias.  The condition number is taken from the
    # response's class blocks, with no dense response.
    model = _model(n_modes=n, pixels=y)
    dense = {}
    for part in (kg.PART_PHI, kg.PART_CHI):
        w = np.linalg.eigvalsh(
            _dense_gram(model, part) + model.sigma_n2 * np.eye(model.data_part_dim)
        )
        dense[part] = w[-1] / w[0]
    _refuse_dense_response(monkeypatch)
    for part in (kg.PART_PHI, kg.PART_CHI):
        assert_allclose(
            kg.data_gram_condition(model, kg.fourier_classes(model), part),
            dense[part],
            rtol=1e-12,
        )


@pytest.mark.parametrize(
    "n, y", [(2, 3), (4, 5), (8, 5), (16, 31), (40, 31), (64, 127), (200, 127)]
)
def test_response_blocks_are_the_lifted_response_gathers_bitwise(n, y, monkeypatch):
    # A run takes the response's class blocks from the closed form; they
    # are the gathers from the dense lifted response, entry for entry.
    model = _model(n_modes=n, pixels=y)
    r2 = oracles.lift_response(oracles.build_response(model))
    classes = kg.fourier_classes(model)
    gathers = [r2[dat[:, :, None], sig[:, None, :]] for sig, dat in classes]
    _refuse_dense_response(monkeypatch)
    blocks = kg.response_blocks(model, classes)
    assert len(blocks) == len(gathers)
    for block, gathered in zip(blocks, gathers):
        assert block.shape == gathered.shape
        assert np.array_equal(block, gathered)


def test_data_gram_condition_sees_alias_redundancy():
    # Noise-free Gram is singular on the duplicated pair; with noise the
    # condition number is the ratio of the largest entry-pair sum to the
    # noise floor, so it grows as sigma^2 shrinks.
    classes = kg.fourier_classes(_model())
    loose = kg.data_gram_condition(_model(), classes, kg.PART_PHI)
    tight = kg.data_gram_condition(_model(sigma_n2=1e-6), classes, kg.PART_PHI)
    assert tight > loose > 1.0


def test_class_block_entries_sum_the_fourier_classes():
    # The closed form that sizes a config at load time sums what
    # fourier_classes builds, at every residue of n - 1 modulo Y.
    for pixels in range(3, 40, 2):
        for n_modes in range((pixels + 1) // 2, 3 * pixels + 3):
            model = _model(n_modes=n_modes, pixels=pixels)
            listed = sum(
                len(sig) * max(sig.shape[1], dat.shape[1]) ** 2
                for sig, dat in kg.fourier_classes(model)
            )
            assert kg.class_block_entries(model) == listed, (n_modes, pixels)


def _fourier_classes_loop(model):
    """The per-mode loop that fourier_classes vectorizes, kept as its oracle."""
    n, y = model.n_modes, model.pixels
    half = (y - 1) // 2
    signal = [[0]] + [[] for _ in range(half)]
    uncoupled = []
    for l in range(1, n):
        r = l % y
        if r:
            signal[min(r, y - r)] += [2 * l - 1, 2 * l]
        else:
            uncoupled += [[2 * l - 1], [2 * l]]
    data = [[0]] + [[2 * c - 1, 2 * c] for c in range(1, half + 1)]
    data[half] += [y, y + 1]
    groups = {}
    for sig, dat in [*zip(signal, data), *((s, []) for s in uncoupled)]:
        sig = sig + [i + model.part_dim for i in sig]
        dat = dat + [i + model.data_part_dim for i in dat]
        rows = groups.setdefault((len(sig), len(dat)), ([], []))
        rows[0].append(sig)
        rows[1].append(dat)
    return [
        (np.array(sig, dtype=int), np.array(dat, dtype=int).reshape(len(sig), b))
        for (_, b), (sig, dat) in sorted(groups.items())
    ]


@pytest.mark.parametrize(
    "n, y", [(4, 5), (8, 5), (16, 31), (40, 31), (64, 127), (1025, 5), (3, 5), (12, 7)]
)
def test_fourier_classes_equal_the_per_mode_loop(n, y):
    model = _model(n_modes=n, pixels=y)
    classes, oracle = kg.fourier_classes(model), _fourier_classes_loop(model)
    assert len(classes) == len(oracle)
    for (sig, dat), (sig_0, dat_0) in zip(classes, oracle):
        for got, want in ((sig, sig_0), (dat, dat_0)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want)


@pytest.mark.parametrize(
    "n, y", [(4, 5), (16, 31), (64, 127), (40, 31), (200, 127)]
)
def test_fourier_classes_are_the_coupling_components(n, y):
    # The closed-form partition equals the connected components of the joint
    # (signal + data) nonzero pattern of the lifted response, the generator
    # and the prior, and the generator M' of the data update couples no two
    # classes.  (40, 31) aliases and has the data-free mode l = 31;
    # (200, 127) has classes of 24 dimensions.
    model = _model(n_modes=n, pixels=y)
    s, d = model.signal_dim, model.data_dim
    r2 = oracles.lift_response(oracles.build_response(model))
    l_mat = oracles.build_generator(model)
    pattern = np.eye(s + d, dtype=bool)
    pattern[:s, :s] |= (l_mat != 0) | (oracles.build_prior_cov(model) != 0)
    pattern[s:, :s] = r2 != 0
    count, labels = scipy.sparse.csgraph.connected_components(pattern, directed=False)
    components = {frozenset(np.flatnonzero(labels == c).tolist()) for c in range(count)}
    classes = kg.fourier_classes(model)
    blocks = [
        np.concatenate([sig_row, s + dat_row])
        for sig, dat in classes
        for sig_row, dat_row in zip(sig, dat)
    ]
    assert {frozenset(b.tolist()) for b in blocks} == components
    assert sum(len(b) for b in blocks) == s + d
    shapes = [(sig.shape[1], dat.shape[1]) for sig, dat in classes]
    assert shapes == sorted(set(shapes))
    for sig, dat in classes:
        assert np.all(np.diff(sig, axis=1) > 0) and np.all(np.diff(dat, axis=1) > 0)
    label = np.empty(d, dtype=int)
    for i, row in enumerate(dat_row for _, dat in classes for dat_row in dat):
        label[row] = i
    m_prime = oracles.update_generator(model)
    assert np.all(m_prime[label[:, None] != label[None, :]] == 0.0)
