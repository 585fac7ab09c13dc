"""The packaging metadata in ``pyproject.toml`` points at code that exists."""

import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_every_project_script_imports():
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    for name, target in project.get("scripts", {}).items():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), name


def test_test_extra_installs_what_the_suite_imports():
    # conftest.py and the property tests import hypothesis at collection
    extra = tomllib.loads(PYPROJECT.read_text())["project"]["optional-dependencies"]["test"]
    names = {req.split(">")[0].split("=")[0].strip() for req in extra}
    assert {"pytest", "hypothesis"} <= names


# NumPy functions first released in 2.x, which the numpy>=1.24 floor excludes
NUMPY2_ONLY = ("vecdot", "matvec", "vecmat", "unstack", "concat", "permute_dims",
               "matrix_transpose", "cumulative_sum", "cumulative_prod", "astype",
               "isdtype", "bitwise_count", "pow", "acos", "asin", "atan", "atan2")


def test_package_keeps_to_its_numpy_floor():
    deps = tomllib.loads(PYPROJECT.read_text())["project"]["dependencies"]
    assert "numpy>=1.24" in deps
    call = re.compile(r"\bnp\.(?:linalg\.)?(%s)\b" % "|".join(NUMPY2_ONLY))
    src = PYPROJECT.parent / "src" / "leggedmpc"
    hits = [f"{path.name}: np.{m.group(1)}" for path in sorted(src.glob("*.py"))
            for m in call.finditer(path.read_text())]
    assert not hits


def test_package_imports_without_a_warning():
    # ``_kernels`` binds numpy's private LAPACK gufuncs and ufuncs; a numpy
    # that moves or deprecates one warns (or fails) at import
    src = str(PYPROJECT.parent / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-W", "error", "-c", "import leggedmpc"],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
