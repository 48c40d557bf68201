"""Every demo script runs to completion without a traceback or a numpy warning."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import infodyn

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.name for demo in DEMOS])
def test_demo_runs(demo, tmp_path):
    # A fresh interpreter in tmp_path, so files a demo writes land there.
    src = os.path.dirname(os.path.dirname(infodyn.__file__))
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    result = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0, result.stderr
    # The matcher's logged projected-branch message is expected on stderr;
    # a traceback or a warning (e.g. numpy's RuntimeWarning) is not.
    assert "Traceback" not in result.stderr
    assert "Warning:" not in result.stderr
    if demo.name == "02_entropic_matching.py":
        # The matcher's branch labels and the rank of the deficient Hessian.
        lines = result.stdout.splitlines()
        for line in (
            "branch            : regular",
            "duplicated channel -> branch: projected",
            "hessian rank      : 3 of 4",
        ):
            assert line in lines
