import json
import shutil
import subprocess
import sys

import pytest

from perfbench import run, workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every episode so a smoke run takes seconds."""
    monkeypatch.setattr(workloads, "TROT_STEPS", 2)
    monkeypatch.setattr(workloads, "JUMP_ITERATIONS", 1)
    monkeypatch.setattr(workloads, "JUMP_TARGET", 1.0)
    first = workloads.load_fixture()[:1]
    monkeypatch.setattr(workloads, "load_fixture", lambda: first)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_emits_every_named_metric(tiny, capsys, workload, trace):
    rc = run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                   "--trace", str(trace)])
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert rc == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    report = json.loads(lines[-2])["report"]
    assert report["environment"]["OPENBLAS_NUM_THREADS"] == "1"


def test_trace_shows_no_solver_work_on_trot_track(tiny, capsys):
    assert run.main(["--workload", "trot_track", "--seed", "1",
                     "--seconds", "0", "--trace", "1"]) == 0
    metrics = json.loads(capsys.readouterr().out.splitlines()[-1])["metrics"]
    for name in ("contact.derivatives.ms", "contact.impulse_derivatives.ms",
                 "problem.calc.ms", "boxfddp.derivatives.ms",
                 "boxfddp.forward.trials", "mpc.self.ms"):
        assert metrics[name]["value"] == 0
    assert metrics["controllers.stance_tasks.ms"]["value"] > 0
    assert metrics["contact.forward.calls"]["value"] > 0


def test_command_line_run_prints_result_last():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "trot_track",
         "--seed", "2", "--seconds", "1", "--trace", "0"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] <= result["attempted"]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "trot_track",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_every_step_failing_is_reported_not_crashed(tiny, capsys,
                                                   monkeypatch):
    class Broken:
        model, q0, _ = workloads._quadruped()
        bounds = workloads.co.default_bounds(model, q0)

        def step(self, x, t):
            raise ZeroDivisionError("injected")

    monkeypatch.setattr(workloads.TrotMpc, "setup", lambda self, rng: Broken())
    rc = run.main(["--workload", "trot_mpc", "--seed", "1", "--seconds", "0",
                   "--trace", "0"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert rc == 1 and not result["correct"]
    assert result["failed"] == result["attempted"] == workloads.TROT_STEPS
    assert result["metrics"]["ok_ratio"]["value"] == 0.0
