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
the data update is assembled from those closed forms, one Fourier class at
a time (:func:`update_generator_blocks`), without inverting any matrix.

The prior is diagonal, the noise white, the generator couples each mode's
phi with its own chi, and the response couples mode l only with the data
coefficients k = +-l (mod Y).  So every matrix of a run is block diagonal
over Fourier classes, and :func:`fourier_classes` reads that partition off
the packing in closed form, once per model.  It is the one place in the
package that decides the blocks, and :func:`class_index` the one place that
gathers a matrix's class blocks or scatters them back.  A run reads the
diagonal prior as its variances (:func:`prior_variances`) and the white
noise as sigma_n2, and builds neither as a dense matrix;
:func:`prior_density` and :func:`measurement` give the dense objects for
library use and tests.  The generator L and the exact step A(dt) couple
each phi component only with its chi partner: a run takes their class
blocks (:func:`class_blocks`) from their 2x2 blocks on those pairs
(:func:`generator_pairs`, :func:`exact_step_pairs`), and
:func:`build_generator` and :func:`exact_step` assemble the dense matrices
from the same pairs.
"""

import math

import numpy as np

from . import matfun
from ._frozen import Frozen
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


class KGModel(Frozen):
    """Model parameters: mode cutoff, pixel count, mass, inverse temperature, noise.

    ``n_modes`` counts the nonnegative field modes (so |k| < n_modes),
    ``pixels`` is the odd number Y of measurement bins, ``mu`` the field
    mass, ``beta`` the inverse temperature of the thermal prior and
    ``sigma_n2`` the white noise variance on the packed data coefficients.
    Every data coefficient must be reached by some field mode, which needs
    ``n_modes - 1 >= (pixels - 1)/2``.  The prior and the noise divide by
    mu^2, beta mu^2 and sigma_n2, so each of mu^2, beta mu^2 and
    1/sigma_n2 must be a finite positive float: a mass whose square
    underflows to 0 or overflows, or a noise variance whose reciprocal
    overflows, is refused here with :class:`InvalidInput`.
    """

    __slots__ = _fields = ("n_modes", "pixels", "mu", "beta", "sigma_n2")

    def __init__(self, n_modes, pixels, mu, beta, sigma_n2):
        if not isinstance(n_modes, (int, np.integer)) or n_modes < 2:
            raise InvalidInput(f"n_modes must be an integer >= 2, got {n_modes!r}")
        if not isinstance(pixels, (int, np.integer)):
            raise InvalidInput(f"pixels must be an integer, got {pixels!r}")
        if pixels <= 1 or pixels % 2 == 0:
            raise UnsupportedPixelCount(
                f"pixel count must be odd and greater than one, got {pixels}"
            )
        if 2 * (n_modes - 1) < pixels - 1:
            raise InvalidInput(
                "every data coefficient must be reached by a field mode, so "
                f"n_modes - 1 >= (pixels - 1)/2; got n_modes={n_modes}, "
                f"pixels={pixels}"
            )
        if not np.isfinite(mu):
            raise InvalidInput(f"mu must be finite, got {mu!r}")
        if mu == 0.0:
            raise DegenerateMassError(
                "mu = 0 makes the zero-mode prior variance infinite"
            )
        if not (np.isfinite(beta) and beta > 0.0):
            raise InvalidInput(f"beta must be positive, got {beta!r}")
        if not (np.isfinite(sigma_n2) and sigma_n2 > 0.0):
            raise InvalidInput(f"sigma_n2 must be positive, got {sigma_n2!r}")
        # Python float products and quotients give 0 or inf, not errors or
        # warnings, on underflow and overflow.
        mu2 = float(mu) * float(mu)
        for name, value in (
            ("mu^2", mu2),
            ("beta mu^2", float(beta) * mu2),
            ("1/sigma_n2", 1.0 / float(sigma_n2)),
        ):
            if not 0.0 < value < math.inf:
                raise InvalidInput(
                    f"{name} must be a finite positive float, got {value!r} "
                    f"from mu={mu!r}, beta={beta!r}, sigma_n2={sigma_n2!r}"
                )
        self._set(n_modes=n_modes, pixels=pixels, mu=mu, beta=beta, sigma_n2=sigma_n2)

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
        """Largest step a run may take, exclusive: dt < 1/w_{n-1}^2, i.e. dt ||L|| < 1.

        Each (phi, chi) pair block [[0, 1], [-w^2, 0]] of the generator L
        has singular values w^2 and 1, and w_{n-1}^2 >= 1 + mu^2 is the
        largest w^2, so 1/w_{n-1}^2 is 1/||L|| (spectral norm), with w^2
        taken as :func:`generator_pairs` takes it.
        """
        return 1.0 / float(self.omega(self.n_modes - 1) ** 2)


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
    test :func:`infodyn.matfun.require_pd` runs on them and refuses, with
    :class:`NotPositiveDefinite`, a mass so small against the temperature
    that the covariance is numerically singular.
    """
    var = np.concatenate(
        [_part_prior_diag(model, PART_PHI), _part_prior_diag(model, PART_CHI)]
    )
    matfun.require_pd(var, "thermal prior covariance")
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
    y = model.pixels
    l = np.arange(1, model.n_modes)
    angle = l * (0.5 * model.delta)
    scale, c, s = _sinc(angle), np.cos(angle), np.sin(angle)
    cols = np.stack([2 * l - 1, 2 * l], axis=1)
    r = np.zeros((model.data_part_dim, model.part_dim))
    r[0, 0] = 1.0
    # Mode l lands on coefficient l mod Y, and its conjugate on -l mod Y.
    # Each entry is written once: mode l owns columns 2l - 1 and 2l, and for
    # odd Y its two coefficients differ.
    for k, rotation in ((l % y, [[c, s], [-s, c]]), ((-l) % y, [[c, s], [s, -c]])):
        hit = (k >= 1) & (k <= model.k_max)
        rows = np.stack([2 * k - 1, 2 * k], axis=1)[hit]
        block = scale[:, None, None] * np.moveaxis(np.array(rotation), -1, 0)
        r[rows[:, :, None], cols[hit][:, None, :]] = block[hit]
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


def class_index(rows, cols):
    """Index of the blocks matrix[rows[i]][:, cols[i]], one per class i of a group.

    ``rows`` and ``cols`` are (k, a) and (k, b) index stacks, as
    :func:`fourier_classes` gives them.  ``matrix[class_index(rows, cols)]``
    gathers the (k, a, b) stack of blocks, and assigning to it scatters one.
    """
    return rows[:, :, None], cols[:, None, :]


def lift_response(response):
    """Block diagonal lift acting on (phi part, chi part) jointly."""
    r = np.asarray(response, dtype=float)
    rows, cols = r.shape
    out = np.zeros((2 * rows, 2 * cols))
    out[:rows, :cols] = r
    out[rows:, cols:] = r
    return out


def class_blocks(pairs, signal):
    """Blocks, one per class, of a matrix that couples each phi component only with its chi partner.

    ``pairs`` is the (2n - 1, 2, 2) stack of the matrix on each packed pair
    (phi_i, chi_i), as :func:`generator_pairs` and :func:`exact_step_pairs`
    give it.  ``signal`` is a (k, a) stack of signal indices, each row a
    class's phi components followed by their chi partners, as
    :func:`fourier_classes` lists them.  Returns the (k, a, a) stack of the
    matrix's blocks on those rows; the one row ``arange(4n - 2)`` gives the
    dense matrix.
    """
    k, a = signal.shape
    half = a // 2
    i = np.arange(half)
    on_pairs = pairs[signal[:, :half]]
    blocks = np.zeros((k, a, a))
    for row in (0, 1):
        for col in (0, 1):
            blocks[:, i + row * half, i + col * half] = on_pairs[..., row, col]
    return blocks


def _dense(pairs):
    """The dense matrix whose pair blocks are ``pairs``."""
    return class_blocks(pairs, np.arange(2 * len(pairs))[None])[0]


def generator_pairs(model):
    """Evolution generator L on each packed pair (phi_i, chi_i): [[0, 1], [-w_i^2, 0]]."""
    p = model.part_dim
    lower = np.empty(p)
    lower[0] = -model.mu**2
    w2 = model.omega(np.arange(1, model.n_modes)) ** 2
    lower[1::2] = -w2
    lower[2::2] = -w2
    pairs = np.zeros((p, 2, 2))
    pairs[:, 0, 1] = 1.0
    pairs[:, 1, 0] = lower
    return pairs


def build_generator(model):
    """Evolution generator L in the packed basis: d_t phi = chi, d_t chi = -w^2 phi."""
    return _dense(generator_pairs(model))


def _component_omegas(model):
    """w_k for each packed component of one field part: w_0, w_1, w_1, w_2, w_2, ..."""
    return model.omega(np.repeat(np.arange(model.n_modes), 2)[1:])


def exact_step_pairs(model, dt):
    """Exact evolution A(dt) on each packed pair (phi_i, chi_i), as in :func:`exact_step`."""
    dt = float(dt)
    if not np.isfinite(dt):
        raise InvalidInput(f"dt must be finite, got {dt!r}")
    w = _component_omegas(model)
    cos, sin = np.cos(w * dt), np.sin(w * dt)
    pairs = np.empty((model.part_dim, 2, 2))
    pairs[:, 0, 0] = cos
    pairs[:, 0, 1] = sin / w
    pairs[:, 1, 0] = -w * sin
    pairs[:, 1, 1] = cos
    return pairs


def exact_step(model, dt):
    """Exact evolution matrix A(dt) of the packed field.

    Per mode the (phi, chi) pair advances by
    ((cos w dt, sin(w dt)/w), (-w sin w dt, cos w dt)); the map has unit
    determinant, satisfies the group law A(s) A(t) = A(s + t) and conserves
    :func:`field_energy`.
    """
    return _dense(exact_step_pairs(model, dt))


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
    # Mode m reaches the coefficients of class min(m mod Y, Y - m mod Y);
    # bin 0 collects the modes m = Y, 2Y, ..., which reach none.
    residues = m % y
    b = (np.pi / beta) * np.bincount(
        np.minimum(residues, y - residues), weights=weight * sinc2, minlength=y // 2 + 1
    )[1:]
    diag = np.empty(model.data_part_dim)
    diag[0] = zero_entry
    diag[1:y] = np.repeat(b, 2)
    # Coefficient (Y+1)/2 is the duplicated conjugate of (Y-1)/2.
    diag[y:] = b[-1]
    return diag


def data_gram_condition(model, part):
    """Spectral condition number of the noisy Gram R Phi_part R^T + sigma^2.

    The packed data layout stores the conjugate pair ((Y-1)/2, (Y+1)/2)
    twice, which couples those rows in the Gram and leaves the noise floor
    as the smallest eigenvalue; this number makes that conditioning
    visible.  The Gram is block diagonal over the data indices of the
    Fourier classes, so its extreme eigenvalues are taken over the blocks.
    """
    r = build_response(model)
    var = _part_prior_diag(model, part)
    spectra = []
    for sig, dat in fourier_classes(model):
        # A class's first half of indices is its part of the phi field; the
        # chi part repeats them, shifted.
        sig, dat = sig[:, : sig.shape[1] // 2], dat[:, : dat.shape[1] // 2]
        if dat.shape[1]:
            r_c = r[class_index(dat, sig)]
            gram = (r_c * var[sig][:, None, :]) @ np.swapaxes(r_c, -1, -2)
            diag = np.arange(dat.shape[1])
            gram[:, diag, diag] += model.sigma_n2
            spectra.append(np.linalg.eigvalsh(gram).ravel())
    w = np.concatenate(spectra)
    return float(w.max() / w.min())


def update_generator_blocks(model, classes, response, variances):
    """Blocks of the generator M' of the data update, one stack per class group.

    ``classes`` are the model's :func:`fourier_classes`, ``response`` its
    lifted response and ``variances`` its :func:`prior_variances`.  Per
    class c, with R_c, L_c and Phi_c the class blocks of the lifted
    response, the generator and the prior,

        M'_c = (1 + sigma^2 G_c) ((R_c L_c) Phi_c) R_c^T H_c,

    with G and H as in :func:`update_generator`.  The chain keeps the dense
    matrix's association, so the blocks are those of the dense chain to
    round-off in the order of summation.  Returns a (k, b, b) stack for
    each group of k classes with b data indices each.
    """
    s2 = model.sigma_n2
    diag = np.concatenate(
        [rphi_rt_diag(model, PART_PHI), rphi_rt_diag(model, PART_CHI)]
    )
    l_pairs = generator_pairs(model)
    blocks = []
    for sig, dat in classes:
        r = response[class_index(dat, sig)]
        sandwich = ((r @ class_blocks(l_pairs, sig)) * variances[sig][:, None, :]) @ (
            np.swapaxes(r, -1, -2)
        )
        gram = diag[dat]
        scaled = sandwich / (gram + s2)[:, None, :]  # right-multiply by H
        blocks.append(scaled + (s2 / gram)[:, :, None] * scaled)  # left (1 + s^2 G)
    return blocks


def update_generator(model):
    """Generator M' of the data update, assembled from closed-form inverses.

    M' = (1 + sigma^2 G) R2 L Phi R2^T H with G the reciprocal of the
    closed-form Gram diagonal, H the reciprocal of (Gram diagonal + sigma^2)
    and R2 the two-part response lift.  Only diagonal reciprocals appear;
    the dense factors enter through matrix products.  One step of length dt
    updates the data by M = 1 + dt M', and the continuous-limit endpoint is
    exp(T M') d(0).  M' couples only the data indices of one Fourier class,
    so the dense matrix is assembled from :func:`update_generator_blocks`.
    """
    classes = fourier_classes(model)
    blocks = update_generator_blocks(
        model,
        classes,
        lift_response(build_response(model)),
        prior_variances(model),
    )
    m_prime = np.zeros((model.data_dim, model.data_dim))
    for (_, dat), block in zip(classes, blocks):
        m_prime[class_index(dat, dat)] = block
    return m_prime


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
