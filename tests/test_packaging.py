"""The packaging metadata in ``pyproject.toml`` points at code that exists,
and the package's public names have a consumer outside the tests."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
ROOT = PYPROJECT.parent


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


# public names that no code outside the tests refers to yet, each with the
# reason it stays
UNCONSUMED = {
    # the stand scenario's builder, kept for the closed loop of ROADMAP item
    # 13, whose first run is a stand
    "schedule.stand",
}


def _referenced_names(paths) -> set:
    """Every name the code at ``paths`` refers to: names, attributes and
    imported names."""
    used = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name.rpartition(".")[2])
    return used


def test_every_public_function_and_class_has_a_consumer():
    # code in src/ or perfbench/ refers to each public module-level function
    # and class of the package; tests do not count as a consumer
    package = ROOT / "src" / "leggedmpc"
    bench = ROOT / "perfbench"
    used = _referenced_names(
        sorted(package.glob("*.py"))
        + sorted(p for p in bench.rglob("*.py")
                 if "tests" not in p.relative_to(bench).parts))
    public = {f"{path.stem}.{node.name}"
              for path in sorted(package.glob("*.py"))
              for node in ast.parse(path.read_text()).body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_")}
    assert UNCONSUMED <= public
    unconsumed = {name for name in public if name.rpartition(".")[2] not in used}
    assert unconsumed == UNCONSUMED


# dataclass fields that no code outside the tests reads yet, each with the
# reason it stays
UNREAD_FIELDS = {
    # the robot's joint-level loop reads the joint targets and the reference
    # state of a command, outside the package
    "ControlCommand.q_joints", "ControlCommand.v_joints", "ControlCommand.x_ref",
    # perfbench sets it; the step scheduling that reads it is ROADMAP item 9's
    "MpcConfig.update_rate",
    # diagnostics for the solve and tick records of ROADMAP item 16(b)
    "BoxQPResult.converged", "HqpSolution.stage_residuals", "HqpSolution.null_dims",
}


def _is_dataclass(node) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and getattr(d.func, "id", None) == "dataclass"
               for d in node.decorator_list)


def test_every_public_dataclass_field_has_a_reader():
    # code in src/ or perfbench/ reads each field of a public dataclass of
    # the package as an attribute; tests do not count as a reader.  The
    # match is by name alone, so a field is hidden when any attribute read
    # of the same name exists elsewhere (``xs`` of one class and another)
    package = ROOT / "src" / "leggedmpc"
    bench = ROOT / "perfbench"
    read = set()
    for path in (sorted(package.glob("*.py"))
                 + sorted(p for p in bench.rglob("*.py")
                          if "tests" not in p.relative_to(bench).parts)):
        read |= {node.attr for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    fields = {f"{node.name}.{item.target.id}"
              for path in sorted(package.glob("*.py"))
              for node in ast.parse(path.read_text()).body
              if isinstance(node, ast.ClassDef) and not node.name.startswith("_")
              and _is_dataclass(node)
              for item in node.body
              if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)}
    assert UNREAD_FIELDS <= fields
    unread = {name for name in fields if name.rpartition(".")[2] not in read}
    assert unread == UNREAD_FIELDS
