"""Periodic 1-d Klein-Gordon field in a real Fourier packing, with exact solution.

The field phi(x, t) on [0, 2pi) obeys  d^2_t phi = (d^2_x - mu^2) phi.  With
chi = d_t phi and Fourier modes |k| < n the state is the real vector

    (phi_0, Re phi_1, Im phi_1, ..., Re phi_{n-1}, Im phi_{n-1},
     chi_0, Re chi_1, Im chi_1, ..., Re chi_{n-1}, Im chi_{n-1})

of dimension 4n - 2 (mode 0 of a real field is real).  Per mode the equation
decouples into the oscillator  d_t (phi_k, chi_k) = ((0, 1), (-w_k^2, 0))
with w_k = sqrt(k^2 + mu^2), which is solved exactly by the rotation-like
2x2 block of :func:`exact_step`; this is the oracle every approximate update
is measured against.

Data are Y pixel averages (Y odd, > 1) of phi and of chi, stored as Fourier
coefficients k = 0..(Y+1)/2 of the pixel sequence, again packed real:
Y + 2 numbers per field part, 2(Y + 2) in total.  Note that for odd Y the
coefficients (Y-1)/2 and (Y+1)/2 are complex conjugates of each other, so
this packing carries each part twice in those four slots.  The pixel-average
response, the thermal prior, the evolution generator and the per-mode data
Gram diagonal all have closed forms implemented below; the generator M' of
the data update is assembled from those closed forms without inverting any
dense matrix.

The prior is diagonal, the noise white, the generator couples each mode's
phi with its own chi, and the response couples mode l only with the data
coefficients k = +-l (mod Y).  So every matrix of a run is block diagonal
over Fourier classes, and :func:`fourier_classes` reads that partition off
the packing in closed form, once per model.  It is the one place in the
package that decides the blocks.  A run reads the diagonal prior as its
variances (:func:`prior_variances`) and the white noise as sigma_n2, and
builds neither as a dense matrix; :func:`prior_density` and
:func:`measurement` give the dense objects for library use and tests.
"""

from dataclasses import dataclass

import numpy as np

from . import matfun
from .errors import (
    DegenerateMassError,
    InvalidInput,
    UnsupportedPixelCount,
)
from .gaussian import GaussianDensity, LinearMeasurement

PART_PHI = "phi"
PART_CHI = "chi"


def _sinc(x):
    """sin(x)/x with the limit value 1 at x = 0."""
    return np.sinc(np.asarray(x) / np.pi)


@dataclass(frozen=True)
class KGModel:
    """Model parameters: mode cutoff, pixel count, mass, inverse temperature, noise.

    ``n_modes`` counts the nonnegative field modes (so |k| < n_modes),
    ``pixels`` is the odd number Y of measurement bins, ``mu`` the field
    mass, ``beta`` the inverse temperature of the thermal prior and
    ``sigma_n2`` the white noise variance on the packed data coefficients.
    Every data coefficient must be reached by some field mode, which needs
    ``n_modes - 1 >= (pixels - 1)/2``.
    """

    n_modes: int
    pixels: int
    mu: float
    beta: float
    sigma_n2: float

    def __post_init__(self):
        if not isinstance(self.n_modes, (int, np.integer)) or self.n_modes < 2:
            raise InvalidInput(f"n_modes must be an integer >= 2, got {self.n_modes!r}")
        if not isinstance(self.pixels, (int, np.integer)):
            raise InvalidInput(f"pixels must be an integer, got {self.pixels!r}")
        if self.pixels <= 1 or self.pixels % 2 == 0:
            raise UnsupportedPixelCount(
                f"pixel count must be odd and greater than one, got {self.pixels}"
            )
        if 2 * (self.n_modes - 1) < self.pixels - 1:
            raise InvalidInput(
                "every data coefficient must be reached by a field mode, so "
                f"n_modes - 1 >= (pixels - 1)/2; got n_modes={self.n_modes}, "
                f"pixels={self.pixels}"
            )
        if not np.isfinite(self.mu):
            raise InvalidInput(f"mu must be finite, got {self.mu!r}")
        if self.mu == 0.0:
            raise DegenerateMassError(
                "mu = 0 makes the zero-mode prior variance infinite"
            )
        if not (np.isfinite(self.beta) and self.beta > 0.0):
            raise InvalidInput(f"beta must be positive, got {self.beta!r}")
        if not (np.isfinite(self.sigma_n2) and self.sigma_n2 > 0.0):
            raise InvalidInput(f"sigma_n2 must be positive, got {self.sigma_n2!r}")

    @property
    def signal_dim(self):
        """4n - 2 packed reals: phi part then chi part."""
        return 4 * self.n_modes - 2

    @property
    def part_dim(self):
        """2n - 1 packed reals per field part."""
        return 2 * self.n_modes - 1

    @property
    def data_dim(self):
        """2(Y + 2) packed reals: phi-average part then chi-average part."""
        return 2 * (self.pixels + 2)

    @property
    def data_part_dim(self):
        return self.pixels + 2

    @property
    def k_max(self):
        """Largest stored data coefficient index, (Y + 1)/2."""
        return (self.pixels + 1) // 2

    @property
    def delta(self):
        """Pixel width 2 pi / Y."""
        return 2.0 * np.pi / self.pixels

    def omega(self, k):
        """Dispersion w_k = sqrt(k^2 + mu^2)."""
        return np.sqrt(np.asarray(k, dtype=float) ** 2 + self.mu**2)

    @property
    def dt_limit(self):
        """Validity threshold: the update matrix needs dt < 1/w_{n-1}."""
        return 1.0 / float(self.omega(self.n_modes - 1))


def _part_prior_diag(model, part):
    """Diagonal of the thermal prior for one field part in the real packing."""
    n, beta = model.n_modes, model.beta
    diag = np.empty(model.part_dim)
    if part == PART_PHI:
        diag[0] = 2.0 * np.pi / (beta * model.mu**2)
        per_mode = (np.pi / beta) / model.omega(np.arange(1, n)) ** 2
    elif part == PART_CHI:
        diag[0] = 2.0 * np.pi / beta
        per_mode = np.full(n - 1, np.pi / beta)
    else:
        raise InvalidInput(f"unknown part {part!r}")
    diag[1::2] = per_mode
    diag[2::2] = per_mode
    return diag


def prior_variances(model):
    """Variances of the thermal prior, the diagonal of :func:`build_prior_cov`.

    Zero mode variances are 2 pi/(beta mu^2) for phi and 2 pi/beta for chi;
    every k > 0 real component has variance (pi/beta)/w_k^2 respectively
    pi/beta.  They are the prior's eigenvalues, so the positive definiteness
    test of :mod:`infodyn.matfun` runs on their extremes and refuses, with
    :class:`NotPositiveDefinite`, a mass so small against the temperature
    that the covariance is numerically singular.
    """
    var = np.concatenate(
        [_part_prior_diag(model, PART_PHI), _part_prior_diag(model, PART_CHI)]
    )
    matfun._require_pd(np.array([var.min(), var.max()]), "thermal prior covariance")
    return var


def build_prior_cov(model):
    """Thermal prior covariance, diagonal in the real packing (:func:`prior_variances`).

    The phi and chi blocks are uncorrelated.
    """
    return np.diag(prior_variances(model))


def build_response(model):
    """Pixel-average response of one field part in the packed Fourier bases.

    Shape (Y + 2, 2n - 1).  Row block k receives mode l when l is congruent
    to +-k modulo Y; the 2x2 blocks are the half-pixel phase rotation scaled
    by sinc(l Delta / 2).  Entry (0, 0) is exactly 1; the rest of the first
    row and column vanish (modes l = Y, 2Y, ... would land in row 0, but
    there sinc(l Delta / 2) = sinc(pi l / Y) = 0).
    """
    n, y = model.n_modes, model.pixels
    half = 0.5 * model.delta
    r = np.zeros((model.data_part_dim, model.part_dim))
    r[0, 0] = 1.0
    for l in range(1, n):
        scale = float(_sinc(l * half))
        c = np.cos(l * half)
        s = np.sin(l * half)
        cols = (2 * l - 1, 2 * l)
        k_direct = l % y
        if 1 <= k_direct <= model.k_max:
            rows = (2 * k_direct - 1, 2 * k_direct)
            r[np.ix_(rows, cols)] += scale * np.array([[c, s], [-s, c]])
        k_mirror = (-l) % y
        if 1 <= k_mirror <= model.k_max:
            rows = (2 * k_mirror - 1, 2 * k_mirror)
            r[np.ix_(rows, cols)] += scale * np.array([[c, s], [s, -c]])
    return r


def fourier_classes(model):
    """Signal and data indices of each Fourier class, grouped by block shape.

    The prior is diagonal, the noise is white, the generator couples phi_l
    only with chi_l, and :func:`build_response` maps mode l only to the
    data coefficients k = +-l (mod Y).  So every matrix a run builds from
    them is block diagonal over these classes, read off the packing:

    * class 0 holds mode 0 and data coefficient 0;
    * class c = 1..(Y-1)/2 holds each mode l with
      min(l mod Y, Y - l mod Y) = c and data coefficient c; class (Y-1)/2
      also holds coefficient (Y+1)/2, the duplicated conjugate of (Y-1)/2;
    * a mode l = Y, 2Y, ... touches no data, so its real component and its
      imaginary one, each with its chi partner, form two blocks of two
      signal indices and no data index.

    These blocks are the connected components of the joint nonzero pattern
    of the response, the generator and the prior.  Each block lists its
    signal indices, then its data indices, in ascending order.

    Returns
    -------
    list of (signal, data) pairs of integer arrays
        One pair per block shape (a, b), in ascending order: ``signal`` has
        shape (k, a) and ``data`` shape (k, b), one row per block.
    """
    n, y = model.n_modes, model.pixels
    half = (y - 1) // 2
    # Packed components of one field part (phi or chi), per class.
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


def lift_response(response):
    """Block diagonal lift acting on (phi part, chi part) jointly."""
    r = np.asarray(response, dtype=float)
    rows, cols = r.shape
    out = np.zeros((2 * rows, 2 * cols))
    out[:rows, :cols] = r
    out[rows:, cols:] = r
    return out


def build_generator(model):
    """Evolution generator L in the packed basis: d_t phi = chi, d_t chi = -w^2 phi."""
    p = model.part_dim
    l_mat = np.zeros((model.signal_dim, model.signal_dim))
    l_mat[:p, p:] = np.eye(p)
    lower = np.empty(p)
    lower[0] = -model.mu**2
    w2 = model.omega(np.arange(1, model.n_modes)) ** 2
    lower[1::2] = -w2
    lower[2::2] = -w2
    l_mat[p:, :p] = np.diag(lower)
    return l_mat


def _component_omegas(model):
    """w_k for each packed component of one field part: w_0, w_1, w_1, w_2, w_2, ..."""
    return model.omega(np.repeat(np.arange(model.n_modes), 2)[1:])


def exact_step(model, dt):
    """Exact evolution matrix A(dt) of the packed field.

    Per mode the (phi, chi) pair advances by
    ((cos w dt, sin(w dt)/w), (-w sin w dt, cos w dt)); the map has unit
    determinant, satisfies the group law A(s) A(t) = A(s + t) and conserves
    :func:`field_energy`.
    """
    dt = float(dt)
    if not np.isfinite(dt):
        raise InvalidInput(f"dt must be finite, got {dt!r}")
    p = model.part_dim
    w = _component_omegas(model)
    cos, sin = np.cos(w * dt), np.sin(w * dt)
    a = np.zeros((model.signal_dim, model.signal_dim))
    a[:p, :p] = np.diag(cos)
    a[:p, p:] = np.diag(sin / w)
    a[p:, :p] = np.diag(-w * sin)
    a[p:, p:] = np.diag(cos)
    return a


def exact_evolve(model, packed, times):
    """States A(t) x for every t in ``times``, shape (len(times), 4n - 2).

    Applies the per-mode rotation of :func:`exact_step` in closed form at
    each time, so a trajectory costs no matrix products and accumulates no
    round-off from repeated steps.
    """
    x = np.asarray(packed, dtype=float)
    if x.shape != (model.signal_dim,):
        raise InvalidInput(
            f"packed field has shape {x.shape}, expected ({model.signal_dim},)"
        )
    p = model.part_dim
    w = _component_omegas(model)
    phase = np.multiply.outer(np.asarray(times, dtype=float), w)
    cos, sin = np.cos(phase), np.sin(phase)
    phi, chi = x[:p], x[p:]
    out = np.empty((phase.shape[0], model.signal_dim))
    out[:, :p] = cos * phi + sin * (chi / w)
    out[:, p:] = cos * chi - sin * (w * phi)
    return out


def field_energy(model, packed):
    """Energy of a packed state, or of each row of a batch; conserved by :func:`exact_step`.

    H = (|chi_0|^2 + mu^2 |phi_0|^2)/(4 pi)
        + sum_{k>0} (|chi_k|^2 + w_k^2 |phi_k|^2)/(2 pi).
    Returns a float for one state (4n - 2,) and an array for a batch (..., 4n - 2).
    """
    x = np.asarray(packed, dtype=float)
    if x.ndim == 0 or x.shape[-1] != model.signal_dim:
        raise InvalidInput(
            f"packed field has shape {x.shape}, expected (..., {model.signal_dim})"
        )
    p = model.part_dim
    weight = np.full(p, 1.0 / (2.0 * np.pi))
    weight[0] = 1.0 / (4.0 * np.pi)
    w2 = _component_omegas(model) ** 2
    energy = (x[..., p:] ** 2 + w2 * x[..., :p] ** 2) @ weight
    return float(energy) if energy.ndim == 0 else energy


def rphi_rt_diag(model, part):
    """Closed-form diagonal of the data-space prior Gram R Phi_part R^T.

    Entry 0 is 2 pi/(beta mu^2) for phi respectively 2 pi/beta for chi; each
    coefficient k = 1..(Y+1)/2 contributes the pair value

        b_k = (pi/beta) sum_{m=1}^{n-1} w(m) sinc^2(m Delta/2)
              [1(m = k mod Y) + 1(m = Y - k mod Y)]

    with w(m) = 1/w_m^2 for phi and 1 for chi.  Returned as the full
    diagonal vector of length Y + 2.  All entries are positive because
    :class:`KGModel` requires every data coefficient to be reached by some
    mode, i.e. n - 1 >= (Y-1)/2.
    """
    n, y, beta = model.n_modes, model.pixels, model.beta
    m = np.arange(1, n)
    if part == PART_PHI:
        weight = 1.0 / model.omega(m) ** 2
        zero_entry = 2.0 * np.pi / (beta * model.mu**2)
    elif part == PART_CHI:
        weight = np.ones(n - 1)
        zero_entry = 2.0 * np.pi / beta
    else:
        raise InvalidInput(f"unknown part {part!r}")
    sinc2 = _sinc(m * 0.5 * model.delta) ** 2
    diag = np.empty(model.data_part_dim)
    diag[0] = zero_entry
    residues = m % y
    for k in range(1, model.k_max + 1):
        hits = (residues == k) | (residues == (y - k) % y)
        b_k = (np.pi / beta) * np.sum(weight[hits] * sinc2[hits])
        diag[2 * k - 1] = b_k
        diag[2 * k] = b_k
    return diag


def data_gram_condition(model, part):
    """Spectral condition number of the dense noisy Gram R Phi_part R^T + sigma^2.

    The packed data layout stores the conjugate pair ((Y-1)/2, (Y+1)/2)
    twice, which couples those rows in the dense Gram and leaves the noise
    floor as the smallest eigenvalue; this number makes that conditioning
    visible.
    """
    r = build_response(model)
    phi = np.diag(_part_prior_diag(model, part))
    gram = matfun.symmetrize(r @ phi @ r.T) + model.sigma_n2 * np.eye(
        model.data_part_dim
    )
    w, _ = matfun.spectral_decompose(gram)
    return float(w[-1] / w[0])


def update_generator(model):
    """Generator M' of the data update, assembled from closed-form inverses.

    M' = (1 + sigma^2 G) R2 L Phi R2^T H with G the reciprocal of the
    closed-form Gram diagonal, H the reciprocal of (Gram diagonal + sigma^2)
    and R2 the two-part response lift.  Only diagonal reciprocals appear;
    the dense factors enter through matrix products.  One step of length dt
    updates the data by M = 1 + dt M', valid for dt < 1/w_{n-1}
    (:attr:`KGModel.dt_limit`, the Neumann expansion behind the closed
    form), and the continuous-limit endpoint is exp(T M') d(0).
    """
    r2 = lift_response(build_response(model))
    sandwich = r2 @ build_generator(model) @ build_prior_cov(model) @ r2.T
    diag = np.concatenate(
        [rphi_rt_diag(model, PART_PHI), rphi_rt_diag(model, PART_CHI)]
    )
    scaled = sandwich / (diag + model.sigma_n2)  # right-multiply by H
    return scaled + (model.sigma_n2 / diag)[:, None] * scaled  # left (1 + s^2 G)


def prior_density(model):
    """Zero-mean thermal prior as a GaussianDensity."""
    return GaussianDensity(
        mean=np.zeros(model.signal_dim), cov=build_prior_cov(model)
    )


def measurement(model):
    """Both-part pixel-average measurement with white noise sigma_n2."""
    r2 = lift_response(build_response(model))
    return LinearMeasurement(
        response=r2, noise_cov=model.sigma_n2 * np.eye(model.data_dim)
    )
