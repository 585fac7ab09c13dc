#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload trot_mpc --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the line
before it is a JSON report with the run environment, every request summary
and, when traced, the per-layer table.  With ``--trace 0`` the metrics are
the end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` the run
first measures episodes untraced, then replays the same episodes traced,
requires identical outputs, and reports the per-layer metrics.  The exit
code is 0 only when every output check passed.

A run's work is fixed by ``--seconds`` and the workload, not by the clock:
it runs ``round(seconds / episode_seconds)`` episodes (at least one), which
take about ``--seconds`` at the reference speed.  The same arguments give
the same requests, so ``attempted`` and ``failed`` repeat exactly.  Every
time is scaled to the reference speed of ``speed.py``.
"""

import os

# pin BLAS to one thread before anything imports numpy
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
PACKAGE_DIR = ROOT / "src" / "leggedmpc"
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.speed import SpeedProbe, kernel_summary  # noqa: E402
from perfbench.stats import Requests, summarize  # noqa: E402

SETUP_REPEATS = 11
TRACED_SHARE = 0.5   # share of --seconds measured untraced before the replay


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


# ----------------------------------------------------------------- episodes

def run_episode(wl, seed: int, index: int, tracer=None):
    """Set up and run one episode, tracing only the episode itself."""
    rng = np.random.default_rng([seed, index])
    state = wl.setup(rng)
    if tracer is None:
        ep = wl.episode(state, rng)
    else:
        with tracer:
            ep = wl.episode(state, rng)
    ep.run_checks()
    return ep


def episode_count(wl, seconds: float) -> int:
    """Episodes that take about ``seconds`` at the reference speed."""
    return max(1, round(seconds / wl.episode_seconds))


def timed_seconds(episode) -> float:
    return sum(sum(r.ref_seconds) for r in episode.requests.values())


def merged(episodes, kind):
    out = Requests()
    for ep in episodes:
        out.extend(ep.requests[kind])
    return out


# ------------------------------------------------------------------ metrics

def end_to_end(wl, episodes, setup_s: float) -> dict:
    primary = merged(episodes, wl.primary)
    latency = summarize(1e3 * s for s in primary.ref_seconds)
    costs = [c for ep in episodes for c in ep.plan_costs]
    return {
        "latency_ms.p50": {"value": latency["p50"], "unit": "ms"},
        "latency_ms.tail": {"value": latency["tail"], "unit": "ms"},
        "ok_ratio": {"value": primary.ok_ratio, "unit": "ratio"},
        "plan_cost.mean": {"value": statistics.fmean(costs) if costs else 0.0,
                           "unit": "cost"},
        "setup_s": {"value": setup_s, "unit": "s"},
    }


# metric -> span whose inclusive time it reports, per unit of work
INCLUSIVE_MS = {
    "contact.derivatives.ms": "contact.contact_dynamics_derivatives",
    "contact.impulse_derivatives.ms": "contact.impulse_dynamics_derivatives",
    "contact.forward.ms": "contact.contact_forward_dynamics",
    "problem.calc.ms": ("problem.RunningNode.calc", "problem.ImpulseNode.calc",
                        "problem.TerminalNode.calc"),
    "problem.calc_diff.stance.ms": "problem.RunningNode.calc_diff.stance",
    "problem.calc_diff.flight.ms": "problem.RunningNode.calc_diff.flight",
    "problem.calc_diff.impulse.ms": "problem.ImpulseNode.calc_diff",
    "problem.update.ms": "problem.update_problem",
    "boxfddp.derivatives.ms": "boxfddp.BoxFddp.compute_derivatives",
    "boxfddp.backward.ms": "boxfddp.BoxFddp.backward_pass",
    "boxfddp.forward.ms": "boxfddp.BoxFddp.forward_pass",
    "mpc.predict.ms": "mpc.predict_initial_state",
    "controllers.stance_tasks.ms": "controllers.stance_tasks",
    "controllers.hqp.ms": "controllers.hqp_solve",
    "controllers.rollout.ms": "controllers.rollout_reference",
    "controllers.riccati.ms": "controllers.RiccatiController.control",
}
# metric -> span whose call count it reports, per unit of work
CALLS = {
    "contact.forward.calls": "contact.contact_forward_dynamics",
    "controllers.nullspace.calls": "controllers.nullspace_basis",
    "kinematics.forward_kinematics.calls": "kinematics.forward_kinematics",
    "dynamics.rnea.calls": "dynamics.rnea",
}
# metric -> layer whose self time it reports, per unit of work
LAYER_SELF_MS = {
    "centroidal.ms": "centroidal",
    "kinematics.ms": "kinematics",
    "dynamics.ms": "dynamics",
}


def per_layer(t, units: int, requests: int, overhead_pct: float) -> dict:
    """Per-layer figures from one traced stretch, per unit of work.

    Counts are per unit of work too, except ``boxfddp.forward.trials`` (per
    solver iteration), ``boxfddp.iterations`` (per request) and the ratios.
    """
    def ms(seconds):
        return {"value": 1e3 * seconds / units, "unit": "ms"}

    def count(n, per=units):
        return {"value": n / per if per else 0.0, "unit": "count"}

    out = {}
    for name, spans_ in INCLUSIVE_MS.items():
        spans_ = (spans_,) if isinstance(spans_, str) else spans_
        out[name] = ms(sum(t.total(span) for span in spans_))
    for name, span in CALLS.items():
        out[name] = count(t.calls(span))
    for name, layer in LAYER_SELF_MS.items():
        out[name] = ms(t.layer_self(layer))
    step = t.stats.get("mpc.Mpc.step")
    out["mpc.self.ms"] = ms(step.self_time if step else 0.0)

    iterations = t.calls("boxfddp.BoxFddp.solve_one_iteration")
    trials = t.calls("boxfddp.BoxFddp.forward_pass")
    out["boxfddp.forward.trials"] = count(trials, iterations)
    out["boxfddp.iterations"] = count(iterations, requests)
    out["boxfddp.accept_ratio"] = {
        "value": t.counters["accepted_steps"] / trials if trials else 0.0,
        "unit": "ratio"}
    out["boxfddp.backward.retries"] = count(
        t.raised("boxfddp.BoxFddp.backward_pass", "NonPDHessian"))
    out["boxfddp.boxqp.iters"] = count(t.counters["boxqp.iters"])
    out["boxfddp.boxqp.clamped"] = count(t.counters["boxqp.clamped"])
    out["contact.rank_deficient"] = count(
        t.raised("contact.contact_forward_dynamics", "RankDeficientContacts")
        + t.raised("contact.impulse_dynamics", "RankDeficientContacts"))
    out["trace.overhead"] = {"value": overhead_pct, "unit": "%"}
    return out


# -------------------------------------------------------------- environment

def git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import scipy
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
        simd = config["SIMD Extensions"].get("found", [])
    except (TypeError, KeyError):
        blas, simd = None, []
    lines = sum(len(p.read_text().splitlines())
                for p in sorted(PACKAGE_DIR.rglob("*.py")))
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": f"{platform.machine()} {' '.join(simd)}".strip(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_commit": git_commit(),
        "leggedmpc_lines": lines,   # informational, not gated
    }


# --------------------------------------------------------------------- main

def main(argv=None) -> int:
    args = parse_args(argv)
    if not (PACKAGE_DIR / "__init__.py").is_file():
        print(f"leggedmpc sources not found under {PACKAGE_DIR.parent}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    from perfbench import spans, workloads

    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    probe, setups = SpeedProbe(), Requests()
    for _ in range(SETUP_REPEATS):
        block = probe.mark()
        t0 = perf_counter()
        wl.setup(np.random.default_rng([args.seed, 0]))
        setups.record(perf_counter() - t0, block=block)
    probe.mark()
    setups.rescale(probe)
    setup_s = statistics.median(setups.ref_seconds)

    seconds = args.seconds * (TRACED_SHARE if args.trace else 1.0)
    episodes = [run_episode(wl, args.seed, i)
                for i in range(episode_count(wl, seconds))]
    problems = [p for ep in episodes for p in ep.problems]
    if not any(ep.plan_costs for ep in episodes):
        problems.append("no request produced a plan")
    report = {
        "workload": wl.name, "seed": args.seed, "trace": args.trace,
        "episodes": len(episodes), "environment": environment(),
        "setup": setups.summary(),
        "speed_kernel": kernel_summary(
            [probe] + [ep.probe for ep in episodes]),
        "requests": {kind: merged(episodes, kind).summary()
                     for kind in episodes[0].requests},
    }

    primary = merged(episodes, wl.primary)
    if args.trace:
        tracer = spans.Tracer()
        traced = [run_episode(wl, args.seed, i, tracer)
                  for i in range(len(episodes))]
        problems += [p for ep in traced for p in ep.problems]
        problems += [f"episode {i}: traced outputs differ"
                     for i, (a, b) in enumerate(zip(episodes, traced))
                     if a.digest() != b.digest()]
        untraced_s = sum(map(timed_seconds, episodes))
        traced_s = sum(map(timed_seconds, traced))
        overhead = 100.0 * (traced_s / untraced_s - 1.0)
        units = sum(ep.units for ep in traced)
        requests = sum(ep.requests[wl.primary].attempted for ep in traced)
        metrics = per_layer(tracer, units, requests, overhead)
        report["traced"] = {
            "units": units, "unit": wl.unit, "overhead_pct": overhead,
            "requests": merged(traced, wl.primary).summary(),
            "layers": tracer.layer_table(),
            "spans": {name: [s.calls, s.total, s.self_time]
                      for name, s in sorted(tracer.stats.items())},
        }
    else:
        metrics = end_to_end(wl, episodes, setup_s)

    correct = not problems
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": correct, "attempted": primary.attempted,
                      "failed": primary.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
