from pathlib import Path

import pytest

import isagram

tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11


def test_package_version_matches_pyproject():
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["version"] == isagram.__version__
