import os
import subprocess
import sys
from pathlib import Path

import pytest

import isagram

tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11


def test_package_version_matches_pyproject():
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["version"] == isagram.__version__


def test_import_loads_neither_scipy_nor_numba():
    # importing scipy costs more than a whole `isagram predict` spends on features
    probe = (
        "import sys, isagram\n"
        "print(sorted({m.split('.')[0] for m in sys.modules} & {'scipy', 'numba'}))"
    )
    src = Path(isagram.__file__).resolve().parent.parent
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(src)}, cwd=src,
    ).stdout
    assert out.strip() == "[]"
