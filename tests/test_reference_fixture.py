"""Pinned per-step behaviour of two runs, compared at stated tolerances.

``data/reference_runs.json`` holds the output of :func:`snapshot` for the
configs in :data:`CONFIGS`, captured with the per-step implementation of
``run_ifd`` at commit 90a1033 (regenerate with
``PYTHONPATH=src python3 tests/test_reference_fixture.py``, only when a
behaviour change is intended).  The data trajectory and branch labels must
match exactly; the diagnostics may move in their last digits when the
arithmetic is reordered.  ``kl_evolution`` is an O(dt^4) difference of
O(1) terms, so cancellation leaves it fewer reliable digits.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from infodyn import simulator

FIXTURE = Path(__file__).parent / "data" / "reference_runs.json"

CONFIGS = {
    "small": {"n_modes": 4, "Y": 5, "T": 1.0, "N": 6},
    "wide": {"n_modes": 16, "Y": 31, "T": 0.05, "N": 5},
}
COMMON = {
    "mu": 1.0,
    "beta": 1.0,
    "sigma_n2": 0.01,
    "seed": 123,
    "initial_data": "generate",
    "scheme": "both",
}

RTOL = {
    "kl_step": 1e-9,
    "kl_cumulative": 1e-9,
    "exact_deviation": 1e-9,
    "kl_evolution": 1e-6,
    "direct_gap": 1e-9,
    "final_deviation": 1e-9,
}


def snapshot(name):
    run = simulator.run_ifd(simulator.parse_config({**CONFIGS[name], **COMMON}))
    per_step = {
        field: [getattr(rec, field) for rec in run.records]
        for field in ("kl_step", "kl_cumulative", "kl_evolution", "exact_deviation", "branch")
    }
    per_step["data"] = [[float(x) for x in rec.data] for rec in run.records]
    return {
        **per_step,
        "direct_gap": run.direct_gap,
        "final_deviation": run.final_deviation,
    }


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_run_matches_pinned_reference(name):
    pinned = json.loads(FIXTURE.read_text(encoding="utf-8"))[name]
    actual = snapshot(name)
    assert actual["branch"] == pinned["branch"]
    assert np.array_equal(np.array(actual["data"]), np.array(pinned["data"]))
    for field, rtol in RTOL.items():
        assert_allclose(actual[field], pinned[field], rtol=rtol, atol=0.0, err_msg=field)


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(
        json.dumps({name: snapshot(name) for name in sorted(CONFIGS)}) + "\n",
        encoding="utf-8",
    )
    sys.exit(0)
