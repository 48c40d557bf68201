"""Gaussian densities and exact Bayesian updating for linear measurements.

The data model is

    d = R s + noise,    noise ~ N(0, N),    s ~ N(psi, Phi),

with everything finite dimensional.  The posterior over s is again Gaussian
with covariance D = (Phi^-1 + R^T N^-1 R)^-1 and mean psi + W (d - R psi),
where W is the generalized Wiener filter.  The filter has two algebraically
equal representations, one inverting in signal space and one in data space;
both are kept because their conditioning differs and their agreement is a
useful internal consistency check.  A caller that holds the posterior
covariance D already reads W = D R^T N^-1 off it (:func:`posterior_filter`).

All covariance manipulation goes through the spectral helpers in
:mod:`infodyn.matfun`, so positive definiteness failures surface as
:class:`infodyn.errors.NotPositiveDefinite` with the offending eigenvalue.
"""

import numpy as np

from . import matfun
from ._frozen import Frozen
from .errors import InvalidInput

LOG_2PI = float(np.log(2.0 * np.pi))

# Generator identity for all sampling in the package: numpy PCG64 behind
# numpy.random.Generator, seeded explicitly.  Same seed, same stream, on any
# platform numpy supports.
RNG_ALGORITHM = "PCG64"


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
        w, q = matfun.spectral_decompose(cov)
        matfun._require_pd(w, "GaussianDensity")
        mean.setflags(write=False)
        cov.setflags(write=False)
        self._set(mean=mean, cov=cov, _spectrum=(w, q))

    @property
    def dim(self):
        return self.mean.shape[0]

    def inv_cov(self):
        """Covariance inverse through the spectral decomposition."""
        w, q = self._spectrum
        return (q / w) @ q.T

    def log_det_cov(self):
        w, _ = self._spectrum
        return float(np.sum(np.log(w)))

    def quadratic_form(self, delta):
        """delta^T Sigma^-1 delta for one vector (n,) or each row of a batch (..., n)."""
        w, q = self._spectrum
        # Via the spectral basis: ||diag(w^-1/2) Q^T delta||^2.
        proj = np.asarray(delta, dtype=float) @ q
        return np.sum(proj * proj / w, axis=-1)

    def log_density(self, x):
        """Log density at ``x``; accepts a single point (n,) or a batch (..., n)."""
        quad = self.quadratic_form(np.asarray(x, dtype=float) - self.mean)
        return -0.5 * (quad + self.dim * LOG_2PI + self.log_det_cov())


class LinearMeasurement(Frozen):
    """Linear response R with additive Gaussian noise of covariance N."""

    __slots__ = _fields = ("response", "noise_cov")

    def __init__(self, response, noise_cov):
        r = np.asarray(response, dtype=float)
        if r.ndim != 2:
            raise InvalidInput(f"response must be a matrix, got shape {r.shape}")
        if not np.all(np.isfinite(r)):
            raise InvalidInput("response entries must be finite")
        n = matfun.symmetrize(noise_cov)
        w, _ = matfun.spectral_decompose(n)
        matfun._require_pd(w, "LinearMeasurement noise covariance")
        if n.shape[0] != r.shape[0]:
            raise InvalidInput(
                f"noise covariance {n.shape} does not match response rows {r.shape[0]}"
            )
        r.setflags(write=False)
        n.setflags(write=False)
        self._set(response=r, noise_cov=n)

    @property
    def data_dim(self):
        return self.response.shape[0]

    @property
    def signal_dim(self):
        return self.response.shape[1]


def _spd_inv(matrix, context):
    w, q = matfun.spectral_decompose(matrix)
    matfun._require_pd(w, context)
    return (q / w) @ q.T


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
        ``signal_space`` computes (Phi^-1 + R^T N^-1 R)^-1 R^T N^-1,
        ``data_space`` computes Phi R^T (R Phi R^T + N)^-1.  The two agree
        up to round-off.

    Returns
    -------
    (n, Y) ndarray
    """
    _check_compatible(prior, measurement)
    r = measurement.response
    phi = prior.cov
    if representation == "signal_space":
        n_inv = _spd_inv(measurement.noise_cov, "wiener_filter noise covariance")
        d_inv = _spd_inv(phi, "wiener_filter prior covariance") + r.T @ n_inv @ r
        return np.linalg.solve(matfun.symmetrize(d_inv), r.T @ n_inv)
    if representation == "data_space":
        gram = matfun.symmetrize(r @ phi @ r.T + measurement.noise_cov)
        w, q = matfun.spectral_decompose(gram)
        matfun._require_pd(w, "wiener_filter data-space gram")
        return phi @ r.T @ ((q / w) @ q.T)
    raise InvalidInput(f"unknown representation {representation!r}")


def posterior_filter(post_cov, measurement):
    """Wiener filter W = D R^T N^-1, read off the posterior covariance D.

    D must be the posterior covariance of ``measurement`` (as
    :func:`posterior` returns it); W then equals :func:`wiener_filter` for
    the prior D came from, whose signal-space form solves for the same
    matrix, at the cost of products and the inverse of N alone.
    """
    n_inv = _spd_inv(measurement.noise_cov, "posterior_filter noise covariance")
    return post_cov @ (measurement.response.T @ n_inv)


def posterior(prior, measurement, data):
    """Gaussian posterior N(m, D) for observed data.

    D = (Phi^-1 + R^T N^-1 R)^-1 and m = psi + W (d - R psi); the covariance
    does not depend on the data.
    """
    _check_compatible(prior, measurement)
    d_vec = _vector(data, "data")
    if d_vec.shape[0] != measurement.data_dim:
        raise InvalidInput(
            f"data has dimension {d_vec.shape[0]}, expected {measurement.data_dim}"
        )
    r = measurement.response
    n_inv = _spd_inv(measurement.noise_cov, "posterior noise covariance")
    phi_inv = _spd_inv(prior.cov, "posterior prior covariance")
    d_inv = matfun.symmetrize(phi_inv + r.T @ n_inv @ r)
    cov = _spd_inv(d_inv, "posterior information matrix")
    mean = cov @ (r.T @ (n_inv @ d_vec) + phi_inv @ prior.mean)
    return GaussianDensity(mean=mean, cov=cov)


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
    cancellation residue of either sign.
    """
    if p.dim != q.dim:
        raise InvalidInput(f"dimension mismatch: {p.dim} vs {q.dim}")
    return _kl_covariance(p.cov, q.cov, q._spectrum)


def _kl_covariance(p_cov, q_cov, q_spectrum):
    """:func:`kl_covariance_term` from covariance matrices, summed over a stack of blocks.

    ``p_cov`` and ``q_cov`` are (n, n) or stacks (k, n, n), and
    ``q_spectrum`` holds the eigenvalues and eigenvectors of ``q_cov``
    (one stack each).  For the diagonal blocks of two block-diagonal
    covariances the sum over the blocks is the term of the whole matrices.
    """
    w, v = q_spectrum
    whiten = v / np.sqrt(w)[..., None, :]
    diff = np.swapaxes(whiten, -1, -2) @ (p_cov - q_cov) @ whiten
    x = np.linalg.eigvalsh(0.5 * (diff + np.swapaxes(diff, -1, -2)))
    return 0.5 * float(np.sum(x - np.log1p(x)))


def kl_divergence(p, q):
    """Relative entropy D(p || q) between Gaussian densities.

    Evaluates :func:`kl_covariance_term` + 1/2 dm^T Sigma_q^-1 dm with
    dm = mean_p - mean_q.  Nonnegative, zero exactly at p = q.
    """
    return kl_covariance_term(p, q) + 0.5 * float(q.quadratic_form(p.mean - q.mean))


def info_hamiltonian(prior, measurement, data, signal):
    """Negative log of the joint density of (data, signal).

    H(d, s) = 1/2 (d - R s)^T N^-1 (d - R s) + 1/2 (s - psi)^T Phi^-1 (s - psi)
    plus the two Gaussian normalization constants, so that
    exp(-H) = P(d | s) P(s).  Consequently -H equals the log posterior of s
    plus the log evidence of d.
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
    n_inv = _spd_inv(measurement.noise_cov, "info_hamiltonian noise covariance")
    phi_inv = _spd_inv(prior.cov, "info_hamiltonian prior covariance")
    ds = s_vec - prior.mean
    quad = float(resid @ n_inv @ resid) + float(ds @ phi_inv @ ds)
    norm = (
        measurement.data_dim * LOG_2PI
        + matfun.log_det_spd(measurement.noise_cov)
        + prior.dim * LOG_2PI
        + matfun.log_det_spd(prior.cov)
    )
    return 0.5 * (quad + norm)


def sample(density, count, seed):
    """Draw ``count`` samples, deterministically for a given seed.

    Uses the package RNG (:data:`RNG_ALGORITHM`) and the symmetric spectral
    square root of the covariance, so identical (density, count, seed)
    triples give bit-identical output.

    Returns
    -------
    (count, n) ndarray
    """
    if not isinstance(count, (int, np.integer)) or count <= 0:
        raise InvalidInput(f"count must be a positive integer, got {count!r}")
    rng = np.random.Generator(np.random.PCG64(seed))
    z = rng.standard_normal((int(count), density.dim))
    root = matfun.sqrtm_spd(density.cov)
    return density.mean + z @ root
