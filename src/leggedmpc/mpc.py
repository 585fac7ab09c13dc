"""Receding-horizon predictive control loop.

The loop owns one shooting problem and one solver instance for its whole
lifetime.  Each step predicts the initial state across the expected
communication delay (``contact.predict`` under the schedule's contact set)
and starts the problem window at that predicted time: the first node runs
from it to the next node of the grid, and every later node stays on the
grid.  It maps the previous solution onto the nodes both windows share (the
first node starts from the prediction when it lies inside a slot of the
previous window; a rollout from the previous terminal state fills the
receded tail), runs one solver iteration from one warm regularization, and
emits the policy slice the tracking controller consumes.  The shared nodes
carry their data (their evaluation at the previous iterate, which the
solver keeps beside its states and controls), so only the nodes of new
slots solve dynamics in the shift, and the message reads its contact forces
from the solver's data.  A failed step puts the window and the solver's
states, controls and data back, solving no dynamics.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from . import contact as ct
from . import costs as co
from . import model as mod
from . import problem as pb
from .boxfddp import BoxFddp
from .dynamics import frame_motion, multibody
from .errors import (ConfigError, InvalidMeasurement, NoStepAccepted,
                     RankDeficientContacts, check_setting, check_time)
from .model import RobotModel
from .schedule import ContactSchedule


@dataclass
class MpcConfig:
    horizon: float                  # optimization window, s
    node_dt: float                  # node period, s
    update_rate: float              # MPC step rate, Hz; nothing reads it,
                                    # kept while the benchmark constructs it
    expected_delay: float = 0.0     # communication + computation delay, s;
                                    # the window starts this long after the
                                    # step's wall time

    def __post_init__(self):
        for name in ("horizon", "node_dt", "update_rate", "expected_delay"):
            check_setting(name, getattr(self, name), zero_ok=name == "expected_delay")
        n = self.horizon / self.node_dt
        if abs(n - round(n)) > 1e-6:
            raise ConfigError(
                f"horizon {self.horizon} is not an integer multiple of "
                f"node_dt {self.node_dt}")
        if CONTROL_HORIZON_NODES > round(n):
            raise ConfigError("horizon is shorter than the control horizon")

    @property
    def n_nodes(self) -> int:
        return int(round(self.horizon / self.node_dt))


_MESSAGE_FIELDS = ("stamp", "node_times", "xs_ref", "us_ff", "K_gains",
                   "forces_ref", "contacts", "diagnostics")


def _index_at(times, t: float, n: int) -> int:
    """Index of the last of ``times`` at or before ``t``, clamped to
    ``[0, n - 1]``: a time less than 1e-12 s before a node time belongs to
    that node.  Message intervals and the tracking controllers' reference
    ticks are both looked up by it."""
    i = int(np.searchsorted(times, t + 1e-12, side="right")) - 1
    return min(max(i, 0), n - 1)


@dataclass
class PolicyMessage:
    """One control-horizon slice of the current plan.

    ``xs_ref`` holds ``len(us_ff) + 1`` states: one at each listed node time.
    The first time is the predicted time the plan starts from, so the first
    interval may be shorter than ``node_dt``; the later times are nodes of
    the grid.  Gains map tangent-space state error to torque as
    ``u_ff + K (x_ref - x)``.
    """

    stamp: float
    node_times: list      # absolute times, len(us_ff) + 1
    xs_ref: list          # full states at node_times
    us_ff: list           # feed-forward torques per control interval
    K_gains: list         # feedback gain matrix per control interval
    forces_ref: list      # stacked planar contact forces per interval
    contacts: list        # active contact frames per interval
    diagnostics: dict

    @property
    def validity_end(self) -> float:
        return float(self.node_times[-1])

    def interval_at(self, t: float) -> int:
        """Index of the control interval containing time t (clamped)."""
        return _index_at(self.node_times, t, len(self.us_ff))

    def to_json(self) -> str:
        payload = {
            "stamp": float(self.stamp),
            "node_times": [float(t) for t in self.node_times],
            "xs_ref": [np.asarray(x, float).tolist() for x in self.xs_ref],
            "us_ff": [np.asarray(u, float).tolist() for u in self.us_ff],
            "K_gains": [np.asarray(K, float).tolist() for K in self.K_gains],
            "forces_ref": [np.asarray(f, float).tolist()
                           for f in self.forces_ref],
            "contacts": [[int(f) for f in c] for c in self.contacts],
            "diagnostics": self.diagnostics,
        }
        assert tuple(payload) == _MESSAGE_FIELDS
        return json.dumps(payload)

    @classmethod
    def from_json(cls, text: str) -> "PolicyMessage":
        data = json.loads(text)
        return cls(
            stamp=float(data["stamp"]),
            node_times=[float(t) for t in data["node_times"]],
            xs_ref=[np.asarray(x, float) for x in data["xs_ref"]],
            us_ff=[np.asarray(u, float) for u in data["us_ff"]],
            K_gains=[np.asarray(K, float) for K in data["K_gains"]],
            forces_ref=[np.asarray(f, float) for f in data["forces_ref"]],
            contacts=[tuple(int(f) for f in c) for c in data["contacts"]],
            diagnostics=data["diagnostics"],
        )


# --------------------------------------------------------------- operations

def _static_balance(model: RobotModel, q: np.ndarray, frames):
    """Least squares of the static balance ``[S  J_C^T] y = g(q)``.

    Returns the solution y = (u, lam) and the largest entry of its residual
    relative to max(1, max|g|), which is at rounding level when the contacts
    can hold the posture.
    """
    # at v = 0 the pass's h is g(q)
    mb = multibody(model, q, np.zeros(model.nv))
    g = mb.h
    A = np.hstack([model.S, frame_motion(model, mb, frames)[1].T])
    y, *_ = np.linalg.lstsq(A, g, rcond=None)
    return y, np.abs(A @ y - g).max() / max(1.0, np.abs(g).max())


def quasi_static_start(model: RobotModel, q_nom: np.ndarray,
                       contacts: ct.ContactSet):
    """Torques and contact forces holding the posture against gravity.

    Least-squares solve of ``[S  J_C^T] [u; lam] = g(q_nom)``; raises when
    the contacts cannot realize the gravity load (relative residual > 1e-9).
    """
    if not contacts.frames:
        raise ConfigError("quasi-static start needs at least one contact")
    y, residual = _static_balance(model, q_nom, contacts.frames)
    if residual > 1e-9:
        raise RankDeficientContacts(
            "quasi-static stacked matrix cannot balance gravity "
            f"(relative residual {residual:.3g})")
    return y[:model.nu], y[model.nu:]


# longest substep of the state prediction across the delay, s
_MAX_SUBSTEP = 2.5e-3


def predict_initial_state(model: RobotModel, x0: np.ndarray, u0: np.ndarray,
                          contacts: ct.ContactSet, dt_delay: float) -> np.ndarray:
    """Integrate x0 under constant u0 across the expected delay.

    ``contact.predict`` under the current contact set, in the fewest equal
    steps of at most ``_MAX_SUBSTEP``, so longer delays stay accurate.
    A nan, infinite or negative delay raises ``ConfigError``.
    """
    dt_delay = check_setting("delay", dt_delay, zero_ok=True)
    if dt_delay == 0.0:
        return np.array(x0, float)
    n = max(1, int(math.ceil(dt_delay / _MAX_SUBSTEP - 1e-12)))
    return ct.predict(model, x0, u0, contacts, dt_delay / n, n)[1][-1]


# ---------------------------------------------------------------- main loop

# running nodes each message ships to the tracking controller (``_emit``)
CONTROL_HORIZON_NODES = 4


class Mpc:
    """Predictive controller bound to one schedule, model, and cost set.

    Each ``step`` keeps the nodes of the slots the shifted window shares
    with the previous one and constructs a node for each new slot, one to
    three per step of a trot.
    """

    # regularization every step starts from.  The mu left by the previous
    # step follows that step's accepted length, not how far the shifted
    # warm start is from the new window's local model.  On the trot_mpc
    # benchmark (seeds 1-5), starting from 1 took 1.04-1.15 trial rollouts
    # per step at plan costs of 175-184; 1e-2 took 2.4-2.7 trials at
    # 808-1008, and 10 over-damped the plan (costs 3.3e3 to 5e6)
    _MU_WARM = 1.0

    def __init__(self, model: RobotModel, schedule: ContactSchedule,
                 weights: co.CostWeights, bounds: co.Bounds,
                 config: MpcConfig, x0: np.ndarray):
        self.model = model
        self.schedule = schedule
        self.bounds = bounds
        self.config = config
        q_nom = weights.q_ref
        self.x_nominal = mod.state(model, q_nom, np.zeros(model.nv))
        self.problem = pb.build_problem(model, schedule, weights, bounds, x0,
                                        N=config.n_nodes, dt=config.node_dt)
        self.solver = BoxFddp(self.problem)
        self._q_nom = q_nom
        self._useed_cache: dict[tuple, np.ndarray] = {}
        frames0 = self.problem.nodes[0].contacts.frames
        if frames0:
            # raises unless the first stance holds the nominal posture
            quasi_static_start(model, q_nom, ct.ContactSet(frames=frames0))
        self.k0 = 0
        self.steps = 0
        self.last_message: PolicyMessage | None = None
        self._seed_candidate()

    def _u_seed(self, frames) -> np.ndarray:
        """Gravity-balancing torque guess for one contact configuration.

        Least-squares of the static balance; under-actuated configurations
        (flight, partial support) get the best-effort solution — zero torque
        when nothing touches the ground.
        """
        frames = tuple(frames)
        u = self._useed_cache.get(frames)
        if u is None:
            u = (_static_balance(self.model, self._q_nom, frames)[0][:self.model.nu]
                 if frames else np.zeros(self.model.nu))
            self._useed_cache[frames] = u
        return u.copy()

    def _seed_candidate(self):
        """Startup guess: nominal posture, per-node quasi-static torques."""
        xs = [np.array(self.x_nominal)
              for _ in range(len(self.problem.nodes) + 1)]
        us = [self._u_seed(n.contacts.frames) if n.kind == "running" else np.zeros(0)
              for n in self.problem.nodes]
        self.solver.set_candidate(xs=xs, us=us)

    # -- per-step pieces --------------------------------------------------

    def _feedforward_at(self, t: float) -> np.ndarray:
        """Torque the tracking controller is nominally applying at time t;
        before the first message, the seed's first, quasi-static control."""
        msg = self.last_message
        if msg is None:
            return self.solver.us[0]
        return np.asarray(msg.us_ff[msg.interval_at(t)], float)

    def _shift_candidate(self, old_nodes, old_xs, old_us, old_data, old_k_end: int):
        """Map the previous solution onto the new window by node.

        ``old_nodes`` are the previous window's nodes, which no shift
        changes.  A node both windows hold (one ``set_window`` kept) takes
        its previous state, control and data.  A first node that starts
        between the previous window's nodes starts from the predicted state
        ``problem.x0`` once a plan has been solved.
        Nodes past the previous coverage are rolled out from the previous
        terminal state, reusing the last converged stance control when the
        contact set carries over (quasi-static torques otherwise).  This
        keeps the receded tail dynamically consistent instead of opening a
        gap against the nominal posture; the rollout evaluates the nodes of
        new slots one at a time, and only those.
        """
        dt = self.config.node_dt
        index = {id(node): j for j, node in enumerate(old_nodes)}
        last_u, last_active = None, None
        for j in range(len(old_nodes) - 1, -1, -1):
            if old_nodes[j].kind == "running":
                last_u, last_active = old_us[j], old_nodes[j].contacts.frames
                break
        xs, us, data = [], [], []
        tail_x = None
        for i, node in enumerate(self.problem.nodes):
            kind, t, active = node.kind, node.time, node.contacts.frames
            j = index.get(id(node))
            if j is not None:
                xs.append(old_xs[j])
                us.append(old_us[j])
                data.append(old_data[j])
                tail_x = None
                continue
            cover = None
            if i == 0 and t < old_k_end * dt:
                cover = max((m for m, n in enumerate(old_nodes)
                             if n.kind == "running" and n.time <= t), default=None)
            if cover is not None:
                # the window starts inside the slot of a previous node.  A
                # solved plan goes on from the predicted state, under that
                # node's control.  The start-up seed keeps its own state:
                # the whole mismatch then stays on the initial gap, the one
                # gap whose effect on the cost Box-FDDP's step model
                # predicts to first order
                tail_x = np.array(self.problem.x0 if self.last_message is not None
                                  else old_xs[cover])
            elif tail_x is None:
                tail_x = np.array(old_xs[-1]) if int(round(t / dt)) == old_k_end \
                    else np.array(self.x_nominal)
            if kind != "running":
                u = np.zeros(0)
            elif cover is not None:
                u = np.array(old_us[cover])
            elif active == last_active and last_u is not None:
                # the appended node continues the previous window's last
                # stance: its converged control is a far better guess than
                # the static balance
                u = np.array(last_u)
            else:
                u = self._u_seed(active)
            xs.append(np.array(tail_x))
            us.append(u)
            datum, = pb.evaluate_nodes([node], [tail_x], [u])
            data.append(datum)
            nxt = datum[0].x_next
            tail_x = nxt if np.all(np.isfinite(nxt)) \
                else np.array(self.x_nominal)
        xs.append(np.array(tail_x) if tail_x is not None
                  else np.array(old_xs[-1]))
        self.solver.set_candidate(xs=xs, us=us, data=data)

    def _emit(self, stamp: float, status: str) -> PolicyMessage:
        nodes = self.problem.nodes
        xs, us = self.solver.xs, self.solver.us
        gains = self.solver.policy.K_fb
        sel = [i for i, n in enumerate(nodes)
               if n.kind == "running"][:CONTROL_HORIZON_NODES]
        node_times = [nodes[i].time for i in sel]
        node_times.append(nodes[sel[-1]].time + nodes[sel[-1]].dt)
        # the solver's data hold the contact forces at its iterate
        forces = [np.array(ev.sol.forces if j is None else ev.sol.forces[j])
                  for ev, j in (self.solver.data[i] for i in sel)]
        diag = {
            "status": status,
            "degraded": False,
            "cost": float(self.solver.cost),
            "gap_inf": float(self.solver.gap_norm),
            "qu_norm": float(self.solver.qu_norm),
            "mu": float(self.solver.mu),
            "alpha": float(self.solver.last_alpha),
            "trials": int(self.solver.last_trials),
            "step": int(self.steps),
        }
        return PolicyMessage(
            stamp=float(stamp),
            node_times=node_times,
            xs_ref=[np.array(xs[i]) for i in sel] + [np.array(xs[sel[-1] + 1])],
            us_ff=[np.array(us[i]) for i in sel],
            K_gains=[np.array(gains[i]) for i in sel],
            forces_ref=forces,
            contacts=[nodes[i].contacts.frames for i in sel],
            diagnostics=diag,
        )

    # -- public API --------------------------------------------------------

    def _reissue_degraded(self, wall_time: float) -> PolicyMessage:
        """The previous policy again, restamped and marked degraded."""
        msg = replace(self.last_message, stamp=float(wall_time),
                      diagnostics={**self.last_message.diagnostics,
                                   "degraded": True})
        self.last_message = msg
        self.steps += 1
        return msg

    def step(self, measurement: np.ndarray, wall_time: float) -> PolicyMessage:
        """One MPC update: predict, shift, iterate once, emit the policy.

        The window starts at ``wall_time + expected_delay``, the time of the
        predicted state.

        A measurement with a non-finite value changes nothing: the previous
        policy is re-issued marked degraded, or ``InvalidMeasurement`` is
        raised when there is none yet.  So does a step whose delay
        prediction or new slots' rollout meets a singular contact set (every
        leg straight, say), or whose iteration accepts no step, raising
        ``RankDeficientContacts`` or ``NoStepAccepted``: the window, the
        candidate with its data and ``k0`` stay as they were.  A non-finite
        ``wall_time`` raises ``ConfigError`` before anything else, so no
        message is stamped with it.  A measurement that is not one state
        raises ``DimensionMismatch`` (from the prediction or the window) and
        changes nothing either.
        """
        check_time(wall_time)
        if not np.all(np.isfinite(measurement)):
            if self.last_message is None:
                raise InvalidMeasurement("measurement holds a non-finite value")
            return self._reissue_degraded(wall_time)
        cfg = self.config
        dt = cfg.node_dt
        k_now = int(math.floor(wall_time / dt + 1e-9))
        if k_now < self.k0:
            raise ConfigError("wall time moved backwards across the node grid")

        window = self.problem.window()
        old_nodes, _, old_k0 = window
        old = self.solver.xs, self.solver.us, self.solver.data
        shifted = False
        # a poor measurement may overflow what follows, which handles each
        # non-finite result itself; numpy's warnings stay here
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                u_now = self._feedforward_at(wall_time)
                t_now = min(wall_time,
                            self.schedule.end_time - 1e-12 * max(1.0, dt))
                contacts_now = ct.ContactSet(frames=self.schedule.active_set(t_now))
                x0_pred = predict_initial_state(self.model, measurement,
                                                u_now, contacts_now,
                                                cfg.expected_delay)
                pb.update_problem(self.problem, x0_pred,
                                  t0=wall_time + cfg.expected_delay)
                # a new slot may roll out from a singular state; the
                # solver's candidate is only replaced once the shift is whole
                self._shift_candidate(old_nodes, *old, old_k0 + cfg.n_nodes)
                shifted = True
                self.solver.mu = self._MU_WARM
                converged = self.solver.solve_one_iteration()
            except (RankDeficientContacts, NoStepAccepted):
                # a singular contact set in the prediction or in a new
                # slot's rollout, or no progress at all this step: nothing
                # of the step stays, and the previous policy goes out again,
                # marked degraded, rather than an unimproved warm start
                self.problem.restore_window(window)
                if shifted:
                    self.solver.set_candidate(*old)
                if self.last_message is None:
                    raise
                return self._reissue_degraded(wall_time)

        self.k0 = k_now
        msg = self._emit(wall_time, "converged" if converged else "stepped")
        self.last_message = msg
        self.steps += 1
        return msg
