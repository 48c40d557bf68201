"""Re-derive the 60-digit KL pins of ``tests/test_simulator.py`` in mpmath.

``test_kl_step_matches_high_precision_values`` and
``test_kl_evolution_matches_high_precision_values`` pin the first-step
entropies ``kl_step[0]`` and ``kl_evolution[0]`` of the run in
:data:`CONFIG`, at N 12 and 16.  :func:`kl_first_step` evaluates them in
60-digit arithmetic from the run's float64 d(0) and d(dt), taken exactly.
The dense two-part response, the prior Phi, the posterior
D = (Phi^-1 + R^T R / sigma_n2)^-1, W = D R^T / sigma_n2, A(dt) and
G = 1 + dt L are each built in closed form, and then

    KL = 1/2 [tr(S_q^-1 S_p) - n - log det(S_q^-1 S_p) + dm^T S_q^-1 dm]

for p = N(A m, A D A^T), m = W d(0), against q = N(W d(dt), D) for
``kl_step`` and q = N(G m, G D G^T) for ``kl_evolution``.  Print the values with
``PYTHONPATH=src python3 tests/high_precision.py [N ...]``, at the given
resolutions or at :data:`RESOLUTIONS`; it takes about a second.  mpmath is
not a dependency of the package.
"""

import sys

import mpmath
from mpmath import mp

from infodyn import simulator

mp.dps = 60

CONFIG = {
    "n_modes": 4,
    "Y": 5,
    "mu": 1.0,
    "beta": 1.0,
    "sigma_n2": 0.01,
    "T": 1.0,
    "seed": 0,
    "initial_data": "generate",
    "scheme": "iterated",
}
RESOLUTIONS = (12, 16)


def _response_part(n_modes, pixels):
    """The pixel-average response of one field part, (Y + 2) x (2n - 1).

    Index 0 is coefficient or mode 0, 2k - 1 and 2k the real and imaginary
    parts of coefficient or mode k.  Coefficient k receives mode l when
    l = k mod Y, by sinc(x) [[c, s], [-s, c]], and when l = -k mod Y, by
    sinc(x) [[c, s], [s, -c]], with c, s = cos x, sin x at x = pi l / Y.
    """
    r = mp.zeros(pixels + 2, 2 * n_modes - 1)
    r[0, 0] = 1
    for k in range(1, (pixels + 1) // 2 + 1):
        for l in range(1, n_modes):
            x = mp.pi * l / pixels
            c, s = mp.cos(x), mp.sin(x)
            if (l - k) % pixels == 0:
                block = ((c, s), (-s, c))
            elif (l + k) % pixels == 0:
                block = ((c, s), (s, -c))
            else:
                continue
            for i in range(2):
                for j in range(2):
                    r[2 * k - 1 + i, 2 * l - 1 + j] = s / x * block[i][j]
    return r


def _pairs(omegas, block):
    """The dense matrix with the 2 x 2 ``block(w)`` on each packed (phi_i, chi_i) pair."""
    size = len(omegas)
    out = mp.zeros(2 * size, 2 * size)
    for i, w in enumerate(omegas):
        for a, row in enumerate(block(w)):
            for b, entry in enumerate(row):
                out[a * size + i, b * size + i] = entry
    return out


def _kl(mean_p, cov_p, mean_q, cov_q):
    """KL(N(mean_p, cov_p) || N(mean_q, cov_q))."""
    precision = mp.inverse(cov_q)
    ratio = precision * cov_p
    dm = mean_p - mean_q
    trace = sum(ratio[i, i] for i in range(ratio.rows))
    return (trace - ratio.rows - mp.log(mp.det(ratio)) + (dm.T * precision * dm)[0, 0]) / 2


def kl_first_step(resolution):
    """(kl_step[0], kl_evolution[0]) of the run of :data:`CONFIG` at N ``resolution``."""
    config = simulator.parse_config({**CONFIG, "N": resolution})
    model = config.model
    run = simulator.run_ifd(config)
    d0, d1 = (mp.matrix([mp.mpf(x) for x in d]) for d in (run.initial_data, run.data[0]))
    mu, beta, sigma2, dt = (mp.mpf(v) for v in (model.mu, model.beta, model.sigma_n2, config.dt))

    part = _response_part(model.n_modes, model.pixels)
    response = mp.zeros(2 * part.rows, 2 * part.cols)
    for i in range(part.rows):
        for j in range(part.cols):
            response[i, j] = response[part.rows + i, part.cols + j] = part[i, j]
    # w_k of each packed component of one part: w_0, w_1, w_1, ..., w_{n-1}.
    omegas = [mp.sqrt(k**2 + mu**2) for k in range(model.n_modes) for _ in (0, 1)][1:]
    phi = [2 * mp.pi / (beta * mu**2)] + [mp.pi / beta / w**2 for w in omegas[1:]]
    chi = [2 * mp.pi / beta] + [mp.pi / beta] * (len(omegas) - 1)

    cov = mp.inverse(mp.diag([1 / v for v in phi + chi]) + response.T * response / sigma2)
    wiener = cov * response.T / sigma2
    mean = wiener * d0
    exact = _pairs(omegas, lambda w: ((mp.cos(w * dt), mp.sin(w * dt) / w),
                                      (-w * mp.sin(w * dt), mp.cos(w * dt))))
    linear = _pairs(omegas, lambda w: ((1, dt), (-(w**2) * dt, 1)))
    evolved_mean, evolved_cov = exact * mean, exact * cov * exact.T
    return (
        _kl(evolved_mean, evolved_cov, wiener * d1, cov),
        _kl(evolved_mean, evolved_cov, linear * mean, linear * cov * linear.T),
    )


if __name__ == "__main__":
    for resolution in [int(arg) for arg in sys.argv[1:]] or RESOLUTIONS:
        step, evolution = kl_first_step(resolution)
        print(
            f"N {resolution}: kl_step[0] {mpmath.nstr(step, 25)} ({float(step)!r}), "
            f"kl_evolution[0] {mpmath.nstr(evolution, 25)} ({float(evolution)!r})"
        )
