"""The package object: its version and its lazily resolved exports."""

from pathlib import Path

import pytest

import infodyn

PYPROJECT = Path(infodyn.__file__).parents[2] / "pyproject.toml"


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")
    with open(PYPROJECT, "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert infodyn.__version__ == project["version"]


def test_dir_lists_the_lazy_exports():
    listed = dir(infodyn)
    assert listed == sorted(listed)
    assert set(infodyn.__all__) <= set(listed)
    assert {"RunConfig", "convergence_sweep", "gaussian", "__version__"} <= set(listed)

