"""Gaussian densities and exact Bayesian updating for linear measurements.

The data model is

    d = R s + noise,    noise ~ N(0, N),    s ~ N(psi, Phi),

with everything finite dimensional.  The posterior over s is again Gaussian
with covariance D = (Phi^-1 + R^T N^-1 R)^-1 and mean psi + W (d - R psi),
where W is the generalized Wiener filter.  The filter has two algebraically
equal representations, one inverting in signal space and one in data space;
both are kept because their conditioning differs and their agreement is a
useful internal consistency check.

This is the dense library: densities, measurements and updates as whole
matrices, for one model at a time, as demos 01 and 02 use them.  A
simulation run imports none of it: it takes its posterior class by class,
from the data-space form.  The KL covariance term from whitened covariance
excesses, which both need, is computed in one place,
:func:`infodyn.matfun.kl_covariance_blocks`.

:class:`GaussianDensity` is the one place that factors a dense covariance
and tests it positive definite, so a failure surfaces as
:class:`infodyn.errors.NotPositiveDefinite` with the offending eigenvalue.
A measurement holds its noise N(0, N) as a density, and the data-space
Wiener filter inverts the covariance of the :func:`evidence`; the inverse,
the square root that :func:`sample` draws with and the log-determinant are
read off the spectrum a density stores.
"""

import numpy as np

from . import matfun
from ._frozen import Frozen
from .errors import InvalidInput

LOG_2PI = float(np.log(2.0 * np.pi))


def _vector(x, name):
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise InvalidInput(f"{name} must be one dimensional, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise InvalidInput(f"{name} entries must be finite")
    return v


class GaussianDensity(Frozen):
    """Multivariate normal with validated symmetric positive definite covariance."""

    _fields = ("mean", "cov")
    # ``_spectrum`` caches the (eigenvalues, eigenvectors) of the covariance
    # that every density evaluation shares.
    __slots__ = _fields + ("_spectrum",)

    def __init__(self, mean, cov):
        mean = _vector(mean, "mean")
        cov = matfun.symmetrize(cov)
        if cov.shape[0] != mean.shape[0]:
            raise InvalidInput(
                f"mean has dimension {mean.shape[0]} but covariance is {cov.shape}"
            )
        w, q = np.linalg.eigh(cov)
        matfun.require_pd(w, "GaussianDensity")
        mean.setflags(write=False)
        cov.setflags(write=False)
        self._set(mean=mean, cov=cov, _spectrum=(w, q))

    @property
    def dim(self):
        return self.mean.shape[0]

    def inv_cov(self):
        """Covariance inverse through the spectral decomposition."""
        return matfun.spectral_inverse(*self._spectrum)

    def log_det_cov(self):
        w, _ = self._spectrum
        return float(np.sum(np.log(w)))

    def _points(self, x):
        x = np.asarray(x, dtype=float)
        if x.ndim == 0 or x.shape[-1] != self.dim:
            raise InvalidInput(f"points of shape {x.shape} do not have dimension {self.dim}")
        return x

    def quadratic_form(self, delta):
        """delta^T Sigma^-1 delta from the spectrum, for one vector (n,) or each row of (..., n)."""
        w, q = self._spectrum
        return np.sum((self._points(delta) @ q) ** 2 / w, axis=-1)

    def log_density(self, x):
        """Log density at ``x``; accepts a single point (n,) or a batch (..., n)."""
        quad = self.quadratic_form(self._points(x) - self.mean)
        return -0.5 * (quad + self.dim * LOG_2PI + self.log_det_cov())


class LinearMeasurement(Frozen):
    """Linear response R with additive Gaussian noise N(0, N).

    The noise is held as a :class:`GaussianDensity`, which checks N and
    factors it once; its refusals are the density's.
    """

    _fields = ("response", "noise_cov")
    # ``_noise`` is the density N(0, N), whose spectrum gives N^-1.
    __slots__ = _fields + ("_noise",)

    def __init__(self, response, noise_cov):
        r = np.asarray(response, dtype=float)
        if r.ndim != 2:
            raise InvalidInput(f"response must be a matrix, got shape {r.shape}")
        if not np.all(np.isfinite(r)):
            raise InvalidInput("response entries must be finite")
        if np.shape(noise_cov)[:1] != r.shape[:1]:
            raise InvalidInput(
                f"noise covariance {np.shape(noise_cov)} does not match response "
                f"rows {r.shape[0]}"
            )
        noise = GaussianDensity(np.zeros(r.shape[0]), noise_cov)
        r.setflags(write=False)
        self._set(response=r, noise_cov=noise.cov, _noise=noise)

    @property
    def data_dim(self):
        return self.response.shape[0]

    @property
    def signal_dim(self):
        return self.response.shape[1]


def _check_compatible(prior, measurement):
    if measurement.signal_dim != prior.dim:
        raise InvalidInput(
            f"response acts on dimension {measurement.signal_dim} but prior "
            f"has dimension {prior.dim}"
        )


def wiener_filter(prior, measurement, representation="signal_space"):
    """Generalized Wiener filter W mapping data residuals to mean corrections.

    Parameters
    ----------
    prior : GaussianDensity
        Prior N(psi, Phi); only Phi enters.
    measurement : LinearMeasurement
    representation : {"signal_space", "data_space"}
        ``signal_space`` computes (Phi^-1 + R^T N^-1 R)^-1 R^T N^-1
        (:func:`posterior_operators`), ``data_space`` computes
        Phi R^T (R Phi R^T + N)^-1, the inverse of the :func:`evidence`
        covariance.  The two agree up to round-off.

    Returns
    -------
    (n, Y) ndarray
    """
    if representation == "signal_space":
        return posterior_operators(prior, measurement)[1]
    if representation == "data_space":
        gram_inv = evidence(prior, measurement).inv_cov()
        return prior.cov @ measurement.response.T @ gram_inv
    raise InvalidInput(f"unknown representation {representation!r}")


def posterior(prior, measurement, data):
    """Gaussian posterior N(m, D) for observed data, through :func:`posterior_operators`.

    D = (Phi^-1 + R^T N^-1 R)^-1 and m = psi + W (d - R psi)
    = W d + D Phi^-1 psi; the covariance does not depend on the data.
    """
    cov, w, pull = posterior_operators(prior, measurement)
    d_vec = _vector(data, "data")
    if d_vec.shape[0] != measurement.data_dim:
        raise InvalidInput(
            f"data has dimension {d_vec.shape[0]}, expected {measurement.data_dim}"
        )
    return GaussianDensity(mean=w @ d_vec + pull, cov=cov)


def posterior_operators(prior, measurement):
    """D, W = D R^T N^-1 and the prior pull D Phi^-1 psi of a dense setup.

    All from the spectrum of D^-1 = Phi^-1 + R^T N^-1 R, tested positive definite.
    """
    _check_compatible(prior, measurement)
    r = measurement.response
    rt_n_inv = r.T @ measurement._noise.inv_cov()
    phi_inv = prior.inv_cov()
    w, q = np.linalg.eigh(matfun.symmetrize(phi_inv + rt_n_inv @ r))
    matfun.require_pd(w, "posterior information matrix")
    cov = matfun.spectral_inverse(w, q)
    return cov, q @ ((q.T @ rt_n_inv) / w[:, None]), cov @ (phi_inv @ prior.mean)


def evidence(prior, measurement):
    """Marginal density of the data, N(R psi, R Phi R^T + N)."""
    _check_compatible(prior, measurement)
    r = measurement.response
    return GaussianDensity(
        mean=r @ prior.mean,
        cov=r @ prior.cov @ r.T + measurement.noise_cov,
    )


def kl_covariance_term(p, q):
    """Mean-independent part of D(p || q): 1/2 sum_j (x_j - log(1 + x_j)).

    The x_j are the eigenvalues of the whitened covariance difference
    Sigma_q^-1/2 (Sigma_p - Sigma_q) Sigma_q^-1/2.  This equals
    1/2 [tr(Sigma_q^-1 Sigma_p) - n - log det(Sigma_q^-1 Sigma_p)], but each
    summand is nonnegative in floating point as well (log1p is monotone and
    below the identity), and equal covariances give exactly 0 instead of a
    cancellation residue of either sign.  The 1 + x_j must be positive
    (:func:`infodyn.matfun.kl_covariance_blocks`).
    """
    if p.dim != q.dim:
        raise InvalidInput(f"dimension mismatch: {p.dim} vs {q.dim}")
    whiten = q._spectrum[1] / np.sqrt(q._spectrum[0])
    return matfun.kl_covariance_blocks([whiten.T @ (p.cov - q.cov) @ whiten])


def kl_divergence(p, q):
    """Relative entropy D(p || q) between Gaussian densities.

    Evaluates :func:`kl_covariance_term` + 1/2 dm^T Sigma_q^-1 dm with
    dm = mean_p - mean_q.  Nonnegative, zero exactly at p = q.
    """
    return kl_covariance_term(p, q) + 0.5 * float(q.quadratic_form(p.mean - q.mean))


def info_hamiltonian(prior, measurement, data, signal):
    """Negative log of the joint density of (data, signal).

    H(d, s) = -log P(d | s) P(s), the noise log-density of d - R s plus the
    prior log-density of s, negated.  Consequently -H equals the log
    posterior of s plus the log evidence of d.
    """
    _check_compatible(prior, measurement)
    d_vec = _vector(data, "data")
    s_vec = _vector(signal, "signal")
    if s_vec.shape[0] != prior.dim:
        raise InvalidInput(
            f"signal has dimension {s_vec.shape[0]}, expected {prior.dim}"
        )
    if d_vec.shape[0] != measurement.data_dim:
        raise InvalidInput(
            f"data has dimension {d_vec.shape[0]}, expected {measurement.data_dim}"
        )
    resid = d_vec - measurement.response @ s_vec
    return -float(measurement._noise.log_density(resid) + prior.log_density(s_vec))


def sample(density, count, seed):
    """Draw ``count`` samples, deterministically for a given seed.

    Draws from numpy's PCG64 behind ``numpy.random.Generator``, seeded
    explicitly, and uses the symmetric square root Q diag(w)^1/2 Q^T of the
    covariance, from the spectrum the density stores, so identical
    (density, count, seed) triples give bit-identical output.

    Returns
    -------
    (count, n) ndarray
    """
    if not isinstance(count, (int, np.integer)) or count <= 0:
        raise InvalidInput(f"count must be a positive integer, got {count!r}")
    rng = np.random.Generator(np.random.PCG64(seed))
    z = rng.standard_normal((int(count), density.dim))
    w, q = density._spectrum
    return density.mean + z @ ((q * np.sqrt(w)) @ q.T)
