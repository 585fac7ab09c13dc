"""The packaging metadata in ``pyproject.toml`` points at code that exists,
and the package's public names have a consumer outside the tests."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
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


def _references(path, package) -> set:
    """The package's ``module.name`` the code at ``path`` refers to: an
    attribute of an imported package module (``pb.build_problem``), a name
    imported from a package module, or, in the package module ``package``
    (None outside the package), a name of its own."""
    tree = ast.parse(path.read_text())
    modules, used = {}, set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and (node.module or "").partition(".")[0] != "leggedmpc":
            continue
        if node.level and package is None:
            continue
        module = (node.module or "").removeprefix("leggedmpc").lstrip(".")
        for alias in node.names:
            if module:
                used.add(f"{module}.{alias.name}")
            else:
                modules[alias.asname or alias.name] = alias.name
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in modules:
            used.add(f"{modules[node.value.id]}.{node.attr}")
        elif isinstance(node, ast.Name) and package is not None:
            used.add(f"{package}.{node.id}")
    return used


def test_every_public_function_and_class_has_a_consumer():
    # code in src/ or perfbench/ refers to each public module-level function
    # and class of the package as ``module.name``, by importing it, or by
    # name in its own module; tests do not count as a consumer, and neither
    # does a method or attribute that shares the name
    package = ROOT / "src" / "leggedmpc"
    bench = ROOT / "perfbench"
    used = set().union(
        *(_references(path, path.stem) for path in sorted(package.glob("*.py"))),
        *(_references(path, None) for path in sorted(bench.rglob("*.py"))
          if "tests" not in path.relative_to(bench).parts))
    public = {f"{path.stem}.{node.name}"
              for path in sorted(package.glob("*.py"))
              for node in ast.parse(path.read_text()).body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_")}
    assert UNCONSUMED <= public
    assert public - used == UNCONSUMED


# dataclass fields that no code outside the tests reads yet, each with the
# reason it stays
UNREAD_FIELDS = {
    # the robot's joint-level loop reads the joint targets, the reference
    # state, the planned contact forces and the planned contact set of a
    # command, outside the package
    "ControlCommand.q_joints", "ControlCommand.v_joints", "ControlCommand.x_ref",
    "ControlCommand.forces_ref", "ControlCommand.contacts",
    # perfbench sets it; the step scheduling that reads it is ROADMAP item 9's
    "MpcConfig.update_rate",
    # diagnostics for the solve and tick records of ROADMAP item 16(b)
    "BoxQPResult.converged", "HqpSolution.stage_residuals", "HqpSolution.null_dims",
    "HqpSolution.iterations",
    # the model's identity, for the records of ROADMAP item 16(b)
    "RobotModel.name",
}

# fields whose name another class defines too, read on their own class only
# on paths the short run of the workloads does not take, each with the file
# that reads it
READ_OFF_THE_RUN = {
    "Body.name": "src/leggedmpc/model.py",          # RobotModel's error messages
    "ContactFrame.name": "src/leggedmpc/model.py",
    "FramePlan.bodies": "src/leggedmpc/dynamics.py",  # frames that share a body
    "BoxQPResult.iterations": "perfbench/spans.py",   # traced runs alone
}


def _is_dataclass(node) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and getattr(d.func, "id", None) == "dataclass"
               for d in node.decorator_list)


def _loaded_attributes(path) -> set:
    """The attribute names the code at ``path`` reads."""
    return {node.attr for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def _class_attributes(paths) -> dict:
    """The attribute names each class at ``paths`` defines, by
    ``module.Class``: the names its body binds (fields and methods too) and
    the names its methods assign on ``self``."""
    out = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ClassDef):
                continue
            names = {item.name for item in node.body if isinstance(item, ast.FunctionDef)}
            names |= {t.id for item in node.body
                      for t in ([item.target] if isinstance(item, ast.AnnAssign)
                                else item.targets if isinstance(item, ast.Assign) else [])
                      if isinstance(t, ast.Name)}
            names |= {sub.attr for sub in ast.walk(node)
                      if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store)
                      and isinstance(sub.value, ast.Name) and sub.value.id == "self"}
            out[f"{path.stem}.{node.name}"] = names
    return out


def _reads_on_own_class(fields, monkeypatch) -> set:
    """Which of ``fields`` (``Class.field`` to its module) code in src/ or
    perfbench/ reads on an instance of that class, over a short run of the
    benchmark's workloads: four trot_mpc steps, one jump_solve iteration and
    two trot_track messages, each with its output checks and digest."""
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench import workloads
    bench = ROOT / "perfbench"
    readers, seen, by_class = {}, set(), {}

    def counted(filename):
        if filename not in readers:
            path = Path(filename).resolve()
            readers[filename] = path.is_relative_to(ROOT / "src") or (
                path.is_relative_to(bench) and "tests" not in path.relative_to(bench).parts)
        return readers[filename]

    for name, module in fields.items():
        owner, _, field = name.partition(".")
        by_class.setdefault((module, owner), set()).add(field)
    for (module, owner), names in by_class.items():
        cls = getattr(importlib.import_module(f"leggedmpc.{module}"), owner)

        def recording(self, attr, _get=cls.__getattribute__, _names=names, _owner=owner):
            if attr in _names and counted(sys._getframe(1).f_code.co_filename):
                seen.add(f"{_owner}.{attr}")
            return _get(self, attr)
        monkeypatch.setattr(cls, "__getattribute__", recording)
    monkeypatch.setattr(workloads, "TROT_STEPS", 4)
    monkeypatch.setattr(workloads, "JUMP_ITERATIONS", 1)
    monkeypatch.setattr(workloads, "load_fixture",
                        lambda load=workloads.load_fixture: load()[:2])
    for workload in workloads.WORKLOADS.values():
        episode = workload.episode(workload.setup(np.random.default_rng(0)),
                                   np.random.default_rng(1))
        episode.run_checks()
        episode.digest()
    return seen


def test_every_public_dataclass_field_has_a_reader(monkeypatch):
    # code in src/ or perfbench/ reads each field of a public dataclass of
    # the package as an attribute; tests do not count as a reader.  A field
    # whose name no other class defines is matched by name.  One whose name
    # another class defines too (``contacts`` of a message, a command and a
    # node) counts only when a short run of the workloads reads it on an
    # instance of its own class
    package = ROOT / "src" / "leggedmpc"
    bench = ROOT / "perfbench"
    paths = (sorted(package.glob("*.py"))
             + sorted(p for p in bench.rglob("*.py")
                      if "tests" not in p.relative_to(bench).parts))
    read = set().union(*map(_loaded_attributes, paths))
    fields = {f"{node.name}.{item.target.id}": path.stem
              for path in sorted(package.glob("*.py"))
              for node in ast.parse(path.read_text()).body
              if isinstance(node, ast.ClassDef) and not node.name.startswith("_")
              and _is_dataclass(node)
              for item in node.body
              if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)}
    assert UNREAD_FIELDS <= fields.keys()
    defined = _class_attributes(paths)
    shared = {name: module for name, module in fields.items()
              if any(name.rpartition(".")[2] in names for cls, names in defined.items()
                     if cls != f"{module}.{name.partition('.')[0]}")}
    off_run = shared.keys() - _reads_on_own_class(shared, monkeypatch)
    assert READ_OFF_THE_RUN.keys() <= off_run
    for name, path in READ_OFF_THE_RUN.items():
        assert name.rpartition(".")[2] in _loaded_attributes(ROOT / path), name
    unread = ({name for name in fields.keys() - shared.keys()
               if name.rpartition(".")[2] not in read}
              | off_run - READ_OFF_THE_RUN.keys())
    assert unread == UNREAD_FIELDS
