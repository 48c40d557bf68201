"""Every demo script, and the README's library example, runs without a traceback or a numpy warning."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import infodyn

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run_fresh(args, cwd):
    """Run ``python args`` in a fresh interpreter in ``cwd``; check that it ends cleanly."""
    src = os.path.dirname(os.path.dirname(infodyn.__file__))
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    result = subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0, result.stderr
    # The matcher's logged projected-branch message is expected on stderr;
    # a traceback or a warning (e.g. numpy's RuntimeWarning) is not.
    assert "Traceback" not in result.stderr
    assert "Warning:" not in result.stderr
    return result


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.name for demo in DEMOS])
def test_demo_runs(demo, tmp_path):
    # In tmp_path, so files a demo writes land there.
    result = _run_fresh([str(demo)], tmp_path)
    if demo.name == "02_entropic_matching.py":
        # The matcher's branch labels and the rank of the deficient Hessian.
        lines = result.stdout.splitlines()
        for line in (
            "branch            : regular",
            "duplicated channel -> branch: projected",
            "hessian rank      : 3 of 4",
        ):
            assert line in lines


def test_readme_library_example_runs(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## Library example\n\n```python\n(.*?)^```", readme, re.M | re.S)
    assert block, "README.md has no python block under '## Library example'"
    result = _run_fresh(["-c", block.group(1)], tmp_path)
    # Two print() calls: the run's three numbers, then one energy.
    assert [len(line.split()) for line in result.stdout.splitlines()] == [3, 1]
