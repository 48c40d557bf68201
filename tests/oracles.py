"""Dense test oracles: the Klein-Gordon model's matrices and the matcher's gradient.

A run never forms these.  It works on Fourier-class blocks and 2x2 pair
blocks (:mod:`infodyn.kleingordon`); the tests build the whole matrices from
the same closed forms here and compare.
"""

import numpy as np

from infodyn import kleingordon
from infodyn.errors import InvalidInput
from infodyn.gaussian import GaussianDensity, LinearMeasurement


def build_prior_cov(model):
    """Thermal prior covariance, diagonal in the real packing (:func:`kleingordon.prior_variances`).

    The phi and chi blocks are uncorrelated.
    """
    return np.diag(kleingordon.prior_variances(model))


def build_response(model):
    """Pixel-average response of one field part in the packed Fourier bases.

    Shape (Y + 2, 2n - 1): every entry of ``kleingordon._response_entries``.
    """
    return kleingordon._response_entries(
        model, np.arange(model.data_part_dim)[:, None], np.arange(model.part_dim)[None, :]
    )


def lift_response(response):
    """Block diagonal lift acting on (phi part, chi part) jointly."""
    r = np.asarray(response, dtype=float)
    rows, cols = r.shape
    out = np.zeros((2 * rows, 2 * cols))
    out[:rows, :cols] = r
    out[rows:, cols:] = r
    return out


def dense(pairs):
    """The dense matrix whose pair blocks are ``pairs``."""
    return np.block([[np.diag(pairs[:, row, col]) for col in (0, 1)] for row in (0, 1)])


def build_generator(model):
    """Evolution generator L in the packed basis: d_t phi = chi, d_t chi = -w^2 phi."""
    return dense(kleingordon.generator_pairs(model))


def exact_step(model, dt):
    """Exact evolution matrix A(dt) of the packed field (:func:`kleingordon.exact_step_pairs`)."""
    return dense(kleingordon.exact_step_pairs(model, dt))


def update_generator(model):
    """Dense generator M' of the data update, assembled from its class blocks.

    M' = (1 + sigma^2 G) R2 L Phi R2^T H, as
    :func:`kleingordon.update_generator_blocks` documents.
    """
    classes = kleingordon.fourier_classes(model)
    blocks, _, _ = kleingordon.update_generator_blocks(
        model, classes, kleingordon.response_blocks(model, classes),
        kleingordon.prior_variances(model),
    )
    m_prime = np.zeros((model.data_dim, model.data_dim))
    for (_, dat), block in zip(classes, blocks):
        m_prime[dat[:, :, None], dat[:, None, :]] = block
    return m_prime


def prior_density(model):
    """Zero-mean thermal prior as a GaussianDensity."""
    return GaussianDensity(mean=np.zeros(model.signal_dim), cov=build_prior_cov(model))


def measurement(model):
    """Both-part pixel-average measurement with white noise sigma_n2."""
    r2 = lift_response(build_response(model))
    return LinearMeasurement(response=r2, noise_cov=model.sigma_n2 * np.eye(model.data_dim))


def objective_gradient(problem, u):
    """Analytic gradient H u + W'^T D*^-1 (D' Phi'^-1 psi' - m*) of ``matching.objective`` in u."""
    u = np.asarray(u, dtype=float)
    if u.shape != (problem.data_dim,):
        raise InvalidInput(
            f"data vector has shape {u.shape}, expected ({problem.data_dim},)"
        )
    offset = problem.evolved_inv_cov @ (problem._prior_pull - problem.evolved_mean)
    return problem.hessian() @ u + problem._w.T @ offset
