"""The benchmark's workloads on the default planar quadruped (nv = 11).

Each workload builds its inputs from a NumPy generator seeded by the run
seed and the episode index, then runs one episode: a fixed sequence of
requests, each timed on its own.  Output checks and the host-speed probe
(``speed.py``) run outside the timed regions; checks collect every
violation in ``Episode.problems``.

* ``trot_mpc`` -- receding-horizon ``Mpc.step`` over a multi-cycle trot,
  one solver iteration per step.  Exercises derivatives, the short line
  search and node-pool recomposition as contact sets change.
* ``jump_solve`` -- a cold Box-FDDP solve of the N = 30 jump problem with
  flight and impulse nodes.  Exercises the long line search.
* ``trot_track`` -- replays committed trot policy messages through the
  whole-body and Riccati controllers.  Exercises the controller layer and
  bypasses the solver and every derivative routine.
"""

from __future__ import annotations

import gzip
import hashlib
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from time import perf_counter

import numpy as np

from leggedmpc import contact as ct
from leggedmpc import controllers as trk
from leggedmpc import costs as co
from leggedmpc import dynamics
from leggedmpc import kinematics, presets
from leggedmpc import model as mod
from leggedmpc import mpc as rh
from leggedmpc import problem as pb
from leggedmpc import schedule
from leggedmpc.boxfddp import FEAS_TOL, BoxFddp

from .speed import SHORT_SAMPLES, SpeedProbe
from .stats import Requests

DATA = Path(__file__).resolve().parent / "data"
FIXTURE = DATA / "trot_messages.jsonl.gz"
FIXTURE_SHA256 = DATA / "trot_messages.sha256"

NODE_DT = 0.02

# trot_mpc: N = 15 at 50 Hz; one episode is the lead-in plus two gait
# cycles of 12 nodes, so every episode sees the same mix of contact phases
TROT_HORIZON = 0.3
TROT_GAIT = dict(lead_in=0.04, swing=0.08, double_support=0.04, stride=0.05,
                 cycles=8)
TROT_STEPS = 26
TROT_DELAY = 0.01            # expected delay bridged by state prediction
TROT_VEL_NOISE = 0.005       # measurement noise on every velocity, per step

# jump_solve: the solve path is sensitive to the initial state, so the
# seed moves only the initial velocity and by very little; a fixed
# iteration count keeps the work per solve comparable across seeds
JUMP_N = 30
JUMP_ITERATIONS = 4
JUMP_TARGET = 0.95           # a solve must end feasible at or under 0.95 c0
JUMP_VEL_PERTURBATION = 1e-4

# trot_track: eight 400 Hz ticks per 50 Hz message
CONTROL_DT = 1.0 / 400.0
TICKS_PER_MESSAGE = 8
TRACK_Q_NOISE = 0.01         # tangent noise on the measured configuration
TRACK_V_NOISE = 0.1          # and on the measured velocity
FRICTION = 0.7


class FixtureError(RuntimeError):
    """The committed message fixture is missing or does not match its hash."""


@dataclass
class Episode:
    """Everything one episode measured and produced.

    Output checks are queued in ``pending`` and run by the caller after the
    episode, so that they stay out of the traced and timed regions.  The
    workload marks ``probe`` before each group of requests and calls
    ``close`` at the end, which scales every request to reference speed.
    """

    requests: dict                                   # kind -> Requests
    units: int = 0                                   # steps, iterations, ticks
    plan_costs: list = field(default_factory=list)
    outputs: list = field(default_factory=list)      # str, bytes or messages
    pending: list = field(default_factory=list)      # checks still to run
    problems: list = field(default_factory=list)     # failed output checks
    probe: SpeedProbe = field(default_factory=SpeedProbe)

    def close(self):
        self.probe.mark()
        for requests in self.requests.values():
            requests.rescale(self.probe)

    def run_checks(self):
        while self.pending:
            self.problems += self.pending.pop(0)()

    def digest(self) -> str:
        h = hashlib.sha256()
        for item in self.outputs:
            if isinstance(item, rh.PolicyMessage):
                item = item.to_json()
            h.update(item if isinstance(item, bytes) else item.encode())
            h.update(b"\0")
        return h.hexdigest()


def _failure(exc: BaseException) -> str:
    return type(exc).__name__


def _quadruped():
    quad = presets.default_quadruped()
    q0 = presets.nominal_configuration(quad)
    kin = kinematics.forward_kinematics(quad, q0)
    placements = {f: kinematics.frame_position(quad, kin, f)
                  for f in range(len(quad.contact_frames))}
    return quad, q0, placements


# ------------------------------------------------------------ output checks

def _finite(arrays) -> bool:
    return all(np.all(np.isfinite(np.asarray(a, float))) for a in arrays)


def _in_box(u, bounds) -> bool:
    u = np.asarray(u, float)
    return bool(np.all(u >= bounds.u_lb) and np.all(u <= bounds.u_ub))


def check_message(msg: rh.PolicyMessage, bounds) -> list[str]:
    """Finite, exact through JSON, and feed-forward torques inside the box."""
    problems = []
    where = f"message at t={msg.stamp!r}"
    numbers = [msg.stamp, msg.node_times, *msg.xs_ref, *msg.us_ff,
               *msg.K_gains, *msg.forces_ref]
    numbers += [v for v in msg.diagnostics.values()
                if isinstance(v, float)]
    if not _finite(numbers):
        problems.append(f"{where}: non-finite value")
    text = msg.to_json()
    back = rh.PolicyMessage.from_json(text)
    same = (back.to_json() == text
            and back.stamp == msg.stamp
            and back.node_times == [float(t) for t in msg.node_times]
            and back.contacts == [tuple(c) for c in msg.contacts]
            and back.diagnostics == msg.diagnostics)
    for name in ("xs_ref", "us_ff", "K_gains", "forces_ref"):
        a, b = getattr(back, name), getattr(msg, name)
        same = same and len(a) == len(b) and all(
            np.array_equal(x, y) for x, y in zip(a, b))
    if not same:
        problems.append(f"{where}: changed by a JSON round trip")
    if not all(_in_box(u, bounds) for u in msg.us_ff):
        problems.append(f"{where}: us_ff outside the torque box")
    return problems


# ------------------------------------------------------------------ trot_mpc

def trot_schedule(placements):
    return schedule.trot((0, 2), (1, 3), placements, **TROT_GAIT)


class TrotMpc:
    name = "trot_mpc"
    unit = "step"
    primary = "step"
    episode_seconds = 26.0   # one episode at the reference speed

    def setup(self, rng):
        quad, q0, placements = _quadruped()
        cfg = rh.MpcConfig(horizon=TROT_HORIZON, node_dt=NODE_DT,
                           update_rate=1.0 / NODE_DT,
                           expected_delay=TROT_DELAY)
        return rh.Mpc(quad, trot_schedule(placements),
                      co.default_weights(quad, q0),
                      co.default_bounds(quad, q0), cfg,
                      presets.nominal_state(quad))

    def episode(self, ctrl: rh.Mpc, rng) -> Episode:
        quad = ctrl.model
        steps = Requests()
        ep = Episode(requests={"step": steps}, units=TROT_STEPS)
        x_plan = presets.nominal_state(quad)
        for k in range(TROT_STEPS):
            x = np.array(x_plan)
            x[quad.nq:] += TROT_VEL_NOISE * rng.standard_normal(quad.nv)
            block = ep.probe.mark()
            start = perf_counter()
            try:
                msg = ctrl.step(x, k * NODE_DT)
            except Exception as exc:   # counted by type, the loop goes on
                steps.record(perf_counter() - start, _failure(exc), block)
                ep.outputs.append(_failure(exc))
                continue
            elapsed = perf_counter() - start
            steps.record(elapsed,
                         "degraded" if msg.diagnostics["degraded"] else None,
                         block)
            ep.outputs.append(msg)
            ep.plan_costs.append(float(msg.diagnostics["cost"]))
            ep.pending.append(partial(check_message, msg, ctrl.bounds))
            x_plan = np.asarray(msg.xs_ref[1], float)
        ep.close()
        return ep


# ---------------------------------------------------------------- jump_solve

def check_solve(solver: BoxFddp, target: float) -> list[str]:
    """Recompute cost and gaps of the final iterate the solver reports."""
    problems = []
    cost, gaps = solver.problem.calc(solver.xs, solver.us)
    gap = max(float(np.abs(g).max()) if g.size else 0.0 for g in gaps)
    if not gap < FEAS_TOL:
        problems.append(f"jump solve ends infeasible: gap {gap:.3g}")
    if not cost <= target * (1.0 + 1e-12):
        problems.append(
            f"jump solve ends above target: {cost:.6g} > {target:.6g}")
    return problems


def check_controls(solver: BoxFddp) -> list[str]:
    nodes = solver.problem.nodes
    if all(_in_box(u, n) for u, n in zip(solver.us, nodes) if n.nu):
        return []
    return ["jump solve controls outside the torque box"]


class JumpSolve:
    name = "jump_solve"
    unit = "iteration"
    primary = "solve"
    episode_seconds = 7.0   # one episode at the reference speed

    def setup(self, rng):
        quad, q0, placements = _quadruped()
        sched = schedule.jump(range(4), placements, stance=0.2, flight=0.2)
        dx = np.zeros(2 * quad.nv)
        dx[quad.nv:] = JUMP_VEL_PERTURBATION * rng.standard_normal(quad.nv)
        x0 = mod.integrate(quad, presets.nominal_state(quad), dx)
        prob = pb.build_problem(quad, sched, co.default_weights(quad, q0),
                                co.default_bounds(quad, q0), x0,
                                N=JUMP_N, dt=NODE_DT)
        solver = BoxFddp(prob, tol=1e-4)
        # cold candidate: rollout of the torques that hold the nominal
        # stance against gravity (least squares of [S J^T] y = g), zero
        # torque in flight
        S = np.zeros((quad.nv, quad.nu))
        S[quad.nv - quad.nu:] = np.eye(quad.nu)
        J = ct.contact_jacobian_stack(quad, q0, tuple(range(4)))
        y, *_ = np.linalg.lstsq(np.hstack([S, J.T]),
                                dynamics.gravity_torque(quad, q0), rcond=None)
        u_stance = y[:quad.nu]
        solver.set_candidate(us=[
            np.array(u_stance) if node.nu and node.contacts.frames
            else np.zeros(node.nu) for node in prob.nodes])
        return solver

    def episode(self, solver: BoxFddp, rng) -> Episode:
        solves = Requests()
        ep = Episode(requests={"solve": solves})
        target = JUMP_TARGET * solver.cost
        failure, pieces = None, []
        for _ in range(JUMP_ITERATIONS):   # each iteration timed on its own
            ep.units += 1
            block = ep.probe.mark()
            start = perf_counter()
            try:
                done = solver.solve_one_iteration()
            except Exception as exc:   # counted by type
                failure = _failure(exc)
                done = True
            pieces.append((perf_counter() - start, block))
            if done:
                break
        if failure is None and not (solver.feasible and solver.cost <= target):
            failure = "target_missed"
        solves.record_pieces(pieces, failure)
        ep.close()
        ep.plan_costs.append(float(solver.cost))
        ep.outputs += [np.asarray(x).tobytes() for x in solver.xs]
        ep.outputs += [np.asarray(u).tobytes() for u in solver.us]
        if failure is None:
            ep.pending.append(partial(check_solve, solver, target))
        ep.pending.append(partial(check_controls, solver))
        return ep


# ---------------------------------------------------------------- trot_track

def load_fixture() -> list[rh.PolicyMessage]:
    """The committed trot messages, after checking them against their hash."""
    try:
        raw = FIXTURE.read_bytes()
        expected = FIXTURE_SHA256.read_text().split()[0]
    except OSError as exc:
        raise FixtureError(f"message fixture unreadable: {exc}") from exc
    actual = hashlib.sha256(raw).hexdigest()
    if actual != expected:
        raise FixtureError(f"{FIXTURE.name} has sha256 {actual}, "
                           f"expected {expected}")
    lines = gzip.decompress(raw).decode().splitlines()
    return [rh.PolicyMessage.from_json(line) for line in lines]


@dataclass
class Tracking:
    model: object
    bounds: co.Bounds
    messages: list
    wbc: trk.WholeBodyController
    riccati: trk.RiccatiController


def check_command(cmd: trk.ControlCommand, t: float, bounds) -> list[str]:
    if _finite([cmd.u]) and _in_box(cmd.u, bounds):
        return []
    return [f"{cmd.mode} command at t={t!r} non-finite or outside the box"]


class TrotTrack:
    name = "trot_track"
    unit = "tick"
    primary = "wbc_tick"
    episode_seconds = 6.0   # one episode at the reference speed

    def setup(self, rng):
        messages = load_fixture()
        quad = presets.default_quadruped()
        bounds = co.default_bounds(quad, presets.nominal_configuration(quad))
        wbc = trk.WholeBodyController(quad, bounds,
                                      cone=co.FrictionCone(mu=FRICTION),
                                      control_dt=CONTROL_DT)
        riccati = trk.RiccatiController(quad, bounds, control_dt=CONTROL_DT)
        return Tracking(quad, bounds, messages, wbc, riccati)

    def episode(self, s: Tracking, rng) -> Episode:
        quad = s.model
        updates, wbc_ticks, riccati_ticks = Requests(), Requests(), Requests()
        ep = Episode(requests={"wbc_tick": wbc_ticks,
                               "riccati_tick": riccati_ticks,
                               "update_message": updates})
        for msg in s.messages:
            ep.pending.append(partial(check_message, msg, s.bounds))
            ep.plan_costs.append(float(msg.diagnostics["cost"]))
            block = ep.probe.mark()
            for ctrl in (s.wbc, s.riccati):
                start = perf_counter()
                try:
                    ctrl.update_message(msg)
                except Exception as exc:   # counted by type
                    updates.record(perf_counter() - start, _failure(exc),
                                   block)
                    continue
                updates.record(perf_counter() - start, block=block)
            for j in range(TICKS_PER_MESSAGE):
                t = msg.stamp + j * CONTROL_DT
                noise = np.concatenate([
                    TRACK_Q_NOISE * rng.standard_normal(quad.nv),
                    TRACK_V_NOISE * rng.standard_normal(quad.nv)])
                x = mod.integrate(quad, s.wbc.reference_at(t), noise)
                block = ep.probe.mark(SHORT_SAMPLES)
                for ctrl, ticks in ((s.wbc, wbc_ticks),
                                    (s.riccati, riccati_ticks)):
                    start = perf_counter()
                    try:
                        cmd = ctrl.control(x, t)
                    except Exception as exc:   # counted by type
                        ticks.record(perf_counter() - start, _failure(exc),
                                     block)
                        ep.outputs.append(_failure(exc))
                        continue
                    ticks.record(perf_counter() - start,
                                 "degraded" if cmd.degraded else None, block)
                    ep.outputs.append(cmd.u.tobytes() + cmd.mode.encode())
                    ep.pending.append(partial(check_command, cmd, t, s.bounds))
                ep.units += 1
        ep.close()
        return ep


WORKLOADS = {w.name: w for w in (TrotMpc(), JumpSolve(), TrotTrack())}
