"""Periodic 1-d Klein-Gordon field in a real Fourier packing, with exact solution.

The field phi(x, t) on [0, 2pi) obeys  d^2_t phi = (d^2_x - mu^2) phi.  With
chi = d_t phi and Fourier modes |k| < n the state is the real vector

    (phi_0, Re phi_1, Im phi_1, ..., Re phi_{n-1}, Im phi_{n-1},
     chi_0, Re chi_1, Im chi_1, ..., Re chi_{n-1}, Im chi_{n-1})

of dimension 4n - 2 (mode 0 of a real field is real).  Per mode the equation
decouples into the oscillator  d_t (phi_k, chi_k) = ((0, 1), (-w_k^2, 0))
with w_k = sqrt(k^2 + mu^2), which is solved exactly by the rotation-like
2x2 block of :func:`exact_step_pairs`; this is the oracle every approximate
update is measured against.

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
the packing in closed form, once per model: the one place in the package
that decides the blocks.  A run takes the prior as its variances
(:func:`prior_variances`), the noise as sigma_n2, the response as its
class blocks (:func:`response_blocks`, from the closed form per entry of
:func:`_response_entries`), and L and A(dt), which couple each phi component
only with its chi partner, as their 2x2 pair blocks
(:func:`generator_pairs`, :func:`exact_step_pairs`), which
:func:`apply_pairs` applies to class stacks.  No dense matrix of the model
is built here; the tests build them from these closed forms as oracles.
"""

import math
import numbers

import numpy as np

from . import matfun
from ._frozen import Frozen
from .errors import (
    DegenerateMassError,
    InvalidInput,
    UnsupportedPixelCount,
    shown,
)

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
    overflows, is refused here with :class:`InvalidInput`, as is a boolean
    in any field and a scale that is not a real number or is too large for
    a float; :func:`infodyn.simulator.parse_config` leaves these checks to
    this class.  ``n_modes`` and ``pixels`` are stored as Python ints, the
    scales as Python floats.
    """

    __slots__ = _fields = ("n_modes", "pixels", "mu", "beta", "sigma_n2")

    def __init__(self, n_modes, pixels, mu, beta, sigma_n2):
        for name, value in zip(self._fields, (n_modes, pixels, mu, beta, sigma_n2)):
            if isinstance(value, (bool, np.bool_)):
                raise InvalidInput(f"{name} must be a number, not a boolean, got {value!r}")
        if not isinstance(n_modes, (int, np.integer)) or n_modes < 2:
            raise InvalidInput(f"n_modes must be an integer >= 2, got {shown(n_modes)}")
        if not isinstance(pixels, (int, np.integer)):
            raise InvalidInput(f"pixels must be an integer, got {shown(pixels)}")
        n_modes, pixels = int(n_modes), int(pixels)
        if pixels <= 1 or pixels % 2 == 0:
            raise UnsupportedPixelCount(
                f"pixel count must be odd and greater than one, got {shown(pixels)}"
            )
        if 2 * (n_modes - 1) < pixels - 1:
            raise InvalidInput(
                "every data coefficient must be reached by a field mode, so "
                f"n_modes - 1 >= (pixels - 1)/2; got n_modes={shown(n_modes)}, "
                f"pixels={shown(pixels)}"
            )
        if not all(isinstance(v, numbers.Real) for v in (mu, beta, sigma_n2)):
            raise InvalidInput(f"mu, beta and sigma_n2 must be real numbers, got {shown(mu)}, "
                               f"{shown(beta)} and {shown(sigma_n2)}")
        scales = []
        for name, value in (("|mu|", mu), ("beta", beta), ("sigma_n2", sigma_n2)):
            try:
                scales.append(float(value))
            except OverflowError:
                raise InvalidInput(
                    f"{name} must be a finite positive float, got one too large for a float"
                ) from None
        mu, beta, sigma_n2 = scales
        if mu == 0.0:
            raise DegenerateMassError(
                "mu = 0 makes the zero-mode prior variance infinite"
            )
        if not (np.isfinite(beta) and beta > 0.0):
            raise InvalidInput(f"beta must be positive, got {beta!r}")
        if not (np.isfinite(sigma_n2) and sigma_n2 > 0.0):
            raise InvalidInput(f"sigma_n2 must be positive, got {sigma_n2!r}")
        # Python float products and quotients give 0 or inf, not errors or
        # warnings, on underflow and overflow; a mu that is not finite fails too.
        mu2 = mu * mu
        for name, value in (
            ("mu^2", mu2),
            ("beta mu^2", beta * mu2),
            ("1/sigma_n2", 1.0 / sigma_n2),
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
    """Diagonal of the thermal prior in the real packing for PART_PHI, else for PART_CHI."""
    n, beta = model.n_modes, model.beta
    diag = np.empty(model.part_dim)
    if part == PART_PHI:
        diag[0] = 2.0 * np.pi / (beta * model.mu**2)
        per_mode = (np.pi / beta) / model.omega(np.arange(1, n)) ** 2
    else:
        diag[0] = 2.0 * np.pi / beta
        per_mode = np.full(n - 1, np.pi / beta)
    diag[1::2] = per_mode
    diag[2::2] = per_mode
    return diag


def prior_variances(model):
    """Variances of the thermal prior, which is diagonal in the real packing.

    The phi and chi parts are uncorrelated.  Zero mode variances are 2 pi/(beta mu^2) for phi and 2 pi/beta for chi;
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


def _response_entries(model, data, signal):
    """Pixel-average response of one field part at broadcastable arrays of packed indices.

    Index 0 is coefficient or mode 0, and 2k - 1 and 2k the real and
    imaginary parts of coefficient or mode k.  Data coefficient k receives
    mode l when l is congruent to +-k modulo Y; the 2x2 blocks are the
    half-pixel phase rotation [[c, s], [-s, c]] (k = l mod Y) or
    [[c, s], [s, -c]] (k = -l mod Y), with c, s = cos, sin(l Delta / 2),
    scaled by sinc(l Delta / 2).  Entry (0, 0) is exactly 1; the rest of
    coefficient 0 and mode 0 vanish (modes l = Y, 2Y, ... would land in
    coefficient 0, but there sinc(l Delta / 2) = sinc(pi l / Y) = 0).  Each
    entry is computed alone, so it is the same bits whichever indices are
    asked for.
    """
    y = model.pixels
    l = np.arange(1, model.n_modes)
    angle = l * (0.5 * model.delta)
    scale, cos, sin = _sinc(angle), np.cos(angle), np.sin(angle)
    coefficient, mode = (data + 1) // 2, (signal + 1) // 2
    imag_row, imag_col = (data + 1) % 2, (signal + 1) % 2
    direct = (coefficient >= 1) & (coefficient == mode % y)
    mirror = (coefficient >= 1) & (coefficient == (-mode) % y)
    # Mode 0 is neither direct nor mirrored, so what it reads is masked.
    at = np.maximum(mode - 1, 0)
    trig = np.where(imag_row == imag_col, cos[at], sin[at])
    # The direct rotation negates its imaginary-row real-column entry, the
    # mirrored one its imaginary-row imaginary-column entry.
    trig = np.where((imag_row == 1) & (imag_col == mirror), -trig, trig)
    entries = np.where(direct | mirror, scale[at] * trig, 0.0)
    return np.where((coefficient == 0) & (mode == 0), 1.0, entries)


def response_blocks(model, classes):
    """Class blocks of the two-part response, a (k, b, a) stack per group of :func:`fourier_classes`.

    The response acts on the phi and the chi part alike, so each block
    holds the :func:`_response_entries` of its class twice, on the
    diagonal; no dense matrix is built.
    """
    blocks = []
    for sig, dat in classes:
        a, b = sig.shape[1] // 2, dat.shape[1] // 2
        part = _response_entries(model, dat[:, :b, None], sig[:, None, :a])
        block = np.zeros((len(sig), 2 * b, 2 * a))
        block[:, :b, :a] = block[:, b:, a:] = part
        blocks.append(block)
    return blocks


def fourier_classes(model):
    """Signal and data indices of each Fourier class, grouped by block shape.

    The prior is diagonal, the noise is white, the generator couples phi_l
    only with chi_l, and the response maps mode l only to the
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
    modes = np.arange(1, n)
    residue = modes % y
    free = modes[residue == 0]
    cls = np.minimum(residue, y - residue)
    # The modes of classes 1..(Y-1)/2, class by class, ascending within each.
    by_class = modes[np.argsort(cls, kind="stable")][free.size :]
    count = np.bincount(cls, minlength=half + 1)[1:]
    start = np.cumsum(count) - count
    c = np.arange(1, half + 1)
    data = np.stack([2 * c - 1, 2 * c, 0 * c + y, 0 * c + y + 1], axis=1)
    width = np.where(c == half, 4, 2)
    blocks = [(np.zeros((1, 1), dtype=int), np.zeros((1, 1), dtype=int))]
    if free.size:
        sig = np.stack([2 * free - 1, 2 * free], axis=1).reshape(-1, 1)
        blocks.insert(0, (sig, np.zeros((len(sig), 0), dtype=int)))
    for m, w in sorted(set(zip(count.tolist(), width.tolist()))):
        rows = np.flatnonzero((count == m) & (width == w))
        l = by_class[start[rows, None] + np.arange(m)]
        blocks.append((np.stack([2 * l - 1, 2 * l], axis=2).reshape(len(rows), -1), data[rows, :w]))
    return [
        (np.hstack([s, s + model.part_dim]), np.hstack([d, d + model.data_part_dim]))
        for s, d in blocks
    ]


def class_block_entries(model):
    """Sum of max(a, b)^2 over the classes of :func:`fourier_classes`, a signal and b data indices each.

    In closed form, so that a model of any size is sized before anything is
    built.  With n - 1 = qY + s, class c = 1..(Y-1)/2 holds the
    m_c = 2q + [c <= s] + [Y - c <= s] modes of residues c and Y - c, 4
    signal indices each, and 4 data indices, 8 for c = (Y-1)/2; class 0 is
    2 x 2, and each mode l = Y, 2Y, ... gives two blocks of 2 signal indices.
    """
    y = model.pixels
    half = (y - 1) // 2
    q, s = divmod(model.n_modes - 1, y)
    # Of the classes 1..half-1, `low` have c <= s, `high` have Y - c <= s
    # and `both` have both; sum (4 m_c)^2 from these counts.
    low = min(s, half - 1)
    high = max(0, half - max(1, y - s))
    both = max(0, low - max(1, y - s) + 1)
    middle = 16 * ((half - 1) * 4 * q * q + (1 + 4 * q) * (low + high) + 2 * both)
    last = max(4 * (2 * q + (half <= s) + (y - half <= s)), 8) ** 2
    return 4 + 8 * q + middle + last


def apply_pairs(pairs, classes, blocks):
    """P_c X_c per class group, for a P that couples each phi component only with its chi partner.

    ``pairs`` is the (2n - 1, 2, 2) stack of P on each packed pair
    (phi_i, chi_i), as :func:`generator_pairs` and :func:`exact_step_pairs`
    give it.  ``classes`` are the :func:`fourier_classes`, whose signal rows
    list a class's phi components, then their chi partners, and ``blocks``
    a (k, a, m) stack X_c on those rows per group.  P_c has two nonzeros
    per row, so each entry of P_c X_c is a sum of two products.
    """
    out = []
    for (sig, _), x in zip(classes, blocks):
        half = sig.shape[1] // 2
        p = pairs[sig[:, :half], :, :, None]
        phi, chi = x[:, :half], x[:, half:]
        rows = [p[:, :, row, 0] * phi + p[:, :, row, 1] * chi for row in (0, 1)]
        out.append(np.concatenate(rows, axis=1))
    return out


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


def _component_omegas(model):
    """w_k for each packed component of one field part: w_0, w_1, w_1, w_2, w_2, ..."""
    return model.omega(np.repeat(np.arange(model.n_modes), 2)[1:])


def exact_step_pairs(model, dt):
    """Exact evolution A(dt) on each packed pair (phi_i, chi_i).

    Per mode the (phi, chi) pair advances by
    ((cos w dt, sin(w dt)/w), (-w sin w dt, cos w dt)); the map has unit
    determinant, satisfies the group law A(s) A(t) = A(s + t) and conserves
    :func:`field_energy`.
    """
    dt = float(dt)
    if not np.isfinite(dt):
        raise InvalidInput(f"dt must be finite, got {dt!r}")
    w = _component_omegas(model)
    cos, sin = np.cos(w * dt), np.sin(w * dt)
    return np.stack([cos, sin / w, -w * sin, cos], axis=-1).reshape(-1, 2, 2)


def exact_step_offset_pairs(model, dt):
    """A(dt) - 1 on each packed pair, its diagonal cos(w dt) - 1 as -2 sin^2(w dt/2), uncancelled."""
    pairs = exact_step_pairs(model, dt)
    pairs[:, 0, 0] = pairs[:, 1, 1] = -2.0 * np.sin(0.5 * (_component_omegas(model) * dt)) ** 2
    return pairs


def exact_evolve(model, packed, times):
    """States A(t) x for every t in ``times``, shape (len(times), 4n - 2).

    Applies the per-mode rotation of :func:`exact_step_pairs` in closed
    form at each time, so a trajectory costs no matrix products and
    accumulates no round-off from repeated steps.
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
    """Energy of a packed state, or of each row of a batch; conserved by the exact evolution.

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


def update_generator_blocks(model, classes, response, variances):
    """Blocks of the generator M' of the data update, one stack per class group.

    ``classes`` are the model's :func:`fourier_classes`, ``response`` its
    :func:`response_blocks` and ``variances`` its :func:`prior_variances`.
    Per class c, with R_c, L_c and Phi_c the class blocks of the lifted
    response, the generator and the prior,

        M'_c = (1 + sigma^2 G_c) ((R_c L_c) Phi_c) R_c^T H_c,

    with G the reciprocal of the closed-form Gram diagonal
    (:func:`rphi_rt_diag`) and H the reciprocal of (Gram diagonal + sigma^2):
    only diagonal reciprocals appear.  One step of length dt updates the
    data by M = 1 + dt M', and the continuous-limit endpoint is
    exp(T M') d(0).  The chain keeps the association of the dense
    M' = (1 + sigma^2 G) R2 L Phi R2^T H, R2 the two-part response lift, so
    the blocks are those of the dense chain to round-off in the order of
    summation.  Returns a (k, b, b) stack for each group of k classes with b
    data indices each.
    """
    s2 = model.sigma_n2
    diag = np.concatenate(
        [rphi_rt_diag(model, PART_PHI), rphi_rt_diag(model, PART_CHI)]
    )
    # R_c L_c = (L_c^T R_c^T)^T, one product per entry: L has one nonzero per column.
    r_t = [np.swapaxes(r, -1, -2) for r in response]
    l_t = np.swapaxes(generator_pairs(model), -1, -2)
    blocks = []
    for (sig, dat), lt_rt, rt in zip(classes, apply_pairs(l_t, classes, r_t), r_t):
        sandwich = (np.swapaxes(lt_rt, -1, -2) * variances[sig][:, None, :]) @ rt
        gram = diag[dat]
        scaled = sandwich / (gram + s2)[:, None, :]  # right-multiply by H
        blocks.append(scaled + (s2 / gram)[:, :, None] * scaled)  # left (1 + s^2 G)
    return blocks
