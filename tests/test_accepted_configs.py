"""Property: a config the loader accepts runs to finite output or is refused cleanly.

Small models and resolutions, with every float field drawn across the whole
double range, subnormals included.  A run must either finish with finite
output and nonnegative relative entropies, or raise an
:class:`InfodynError`, which ``infodyn.cli.main`` turns into exit status 1
or 2.  That error is never :class:`StepTooLarge`: the step bound is the
loader's to check.  A numpy warning fails the run as well (see
``filterwarnings`` in ``pyproject.toml``).  The runs log at INFO, as under
``infodyn --verbose``, so the verbose path is tested too.  The settings are
fixed, so the examples are the same on every run of the suite.
"""

import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infodyn import simulator
from infodyn.errors import ConfigError, InfodynError, StepTooLarge

# The whole positive double range, subnormals included, and as often values
# between 2^-21 and 2^20, log-uniform, so that a good share of the configs
# passes the loader and runs.
POSITIVE = st.one_of(
    st.floats(
        min_value=0.0,
        exclude_min=True,
        allow_nan=False,
        allow_infinity=False,
        allow_subnormal=True,
    ),
    st.builds(math.ldexp, st.floats(0.5, 1.0), st.integers(-20, 20)),
)


@st.composite
def mappings(draw):
    n_modes = draw(st.integers(2, 5))
    return {
        "n_modes": n_modes,
        "Y": draw(st.sampled_from(range(3, 2 * n_modes, 2))),
        "mu": draw(st.one_of(POSITIVE, POSITIVE.map(lambda x: -x))),
        "beta": draw(POSITIVE),
        "sigma_n2": draw(POSITIVE),
        "T": draw(POSITIVE),
        "N": draw(st.integers(1, 6)),
        "seed": draw(st.integers(0, 2**32)),
        "initial_data": "generate",
        "scheme": draw(st.sampled_from(simulator.SCHEMES)),
    }


@pytest.fixture(scope="module")
def info_log():
    """Log the package at INFO while the module's tests run, then restore the level."""
    logger = logging.getLogger("infodyn")
    level = logger.level
    logger.setLevel(logging.INFO)
    yield
    logger.setLevel(level)


@settings(derandomize=True, max_examples=500, deadline=None, database=None)
@given(mappings())
def test_accepted_config_runs_finite_or_is_refused(info_log, mapping):
    try:
        config = simulator.parse_config(mapping)
    except ConfigError:
        return
    try:
        result = simulator.run_ifd(config)
    except InfodynError as exc:
        assert not isinstance(exc, StepTooLarge), exc
        return
    for name, value in result._asdict().items():
        if isinstance(value, (np.ndarray, float)):
            assert np.all(np.isfinite(value)), name
    for column in (result.kl_step, result.kl_cumulative, result.kl_evolution):
        assert np.all(column >= 0.0)
