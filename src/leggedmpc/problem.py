"""Shooting-problem assembly: node action models over a contact schedule.

A problem is an ordered list of action models — running nodes (contact
dynamics integrated over ``dt``), impulse nodes (instantaneous velocity
transitions at touchdowns, ``dt = 0``, no control), and one terminal node
carrying state costs only.  Every node exposes ``calc`` (next state + cost)
and ``calc_diff`` (first-order dynamics and Gauss-Newton cost expansion).

Running and impulse nodes keep their last evaluation: copies of the inputs,
the dynamics solution, the next state and the cost.  ``calc`` at exactly
equal inputs returns the kept outputs, and ``calc_diff`` differentiates at
the kept solution instead of solving the dynamics again (as Crocoddyl's
``calcDiff`` reads the data its ``calc`` left).  The solver evaluates every
node in its line search and again when it takes derivatives at the
accepted iterate, so the second evaluation costs nothing.  ``configure``
drops the kept evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import contact as ct
from . import costs as co
from . import model as mod
from .dynamics import tangent_sweep
from .errors import ScheduleError
from .kinematics import frame_positions, frame_velocities
from .model import RobotModel
from .schedule import ContactSchedule, evaluate_swing

# Incremented whenever a node object is constructed; lets callers assert that
# steady-state problem updates reuse the existing pool instead of rebuilding.
NODE_ALLOCATIONS = 0


@dataclass
class NodeDerivatives:
    fx: np.ndarray
    fu: np.ndarray
    lx: np.ndarray
    lu: np.ndarray
    lxx: np.ndarray
    lxu: np.ndarray
    luu: np.ndarray


@dataclass
class _Evaluation:
    """A node's last evaluation: its inputs (copied) and what they gave."""

    x: np.ndarray
    u: np.ndarray | None
    sol: ct.ContactSolution | ct.ImpulseSolution
    x_next: np.ndarray
    cost: float


@dataclass
class SwingTarget:
    pos: np.ndarray
    vel: np.ndarray
    w_pos: float
    w_vel: float


class _Expansion:
    """Gauss-Newton accumulator for costs of the form sum w_i r_i(x,u)^2."""

    __slots__ = ("value", "lx", "lu", "lxx", "lxu", "luu")

    def __init__(self, ndx, nu):
        self.value = 0.0
        self.lx = np.zeros(ndx)
        self.lu = np.zeros(nu)
        self.lxx = np.zeros((ndx, ndx))
        self.lxu = np.zeros((ndx, nu))
        self.luu = np.zeros((nu, nu))

    def add(self, r, w, Jx=None, Ju=None):
        w = np.asarray(w, float)
        wr = w * r
        self.value += float(r @ wr)
        if Jx is not None:
            self.lx += 2.0 * (Jx.T @ wr)
            WJx = w[:, None] * Jx if w.ndim else w * Jx
            self.lxx += 2.0 * (Jx.T @ WJx)
        if Ju is not None:
            self.lu += 2.0 * (Ju.T @ wr)
            WJu = w[:, None] * Ju if w.ndim else w * Ju
            self.luu += 2.0 * (Ju.T @ WJu)
        if Jx is not None and Ju is not None:
            self.lxu += 2.0 * (Jx.T @ (w[:, None] * Ju if w.ndim else w * Ju))

    def scaled(self, s):
        self.value *= s
        self.lx *= s
        self.lu *= s
        self.lxx *= s
        self.lxu *= s
        self.luu *= s
        return self


def _state_cost(model, q, v, weights, mult, acc, with_jac):
    nv = model.nv
    rq = mod.difference_q(model, q, weights.q_ref)
    if with_jac:
        Jq = np.zeros((nv, 2 * nv))
        Jq[:, :nv] = mod.ddifference_q(model, q, weights.q_ref)
        Jv = np.zeros((nv, 2 * nv))
        Jv[:, nv:] = np.eye(nv)
    else:
        Jq = Jv = None
    acc.add(rq, mult * weights.Q, Jx=Jq)
    acc.add(v, mult * weights.N, Jx=Jv)


def _bounds_cost(model, q, v, weights, bounds, mult, acc, with_jac):
    nv = model.nv
    w = mult * weights.w_statebounds
    if w == 0.0 or bounds is None:
        return
    rq = co.interval_violation(q[3:], bounds.q_lb[3:], bounds.q_ub[3:])
    rv = co.interval_violation(v, bounds.v_lb, bounds.v_ub)
    if with_jac:
        # one-sided penalty: only coordinates outside the box carry slope
        # and curvature, so inactive rows must stay zero
        Jq = np.zeros((nv - 3, 2 * nv))
        Jq[:, 3:nv] = np.diag((rq != 0.0).astype(float))
        Jv = np.zeros((nv, 2 * nv))
        Jv[:, nv:] = np.diag((rv != 0.0).astype(float))
    else:
        Jq = Jv = None
    acc.add(rq, np.full(nv - 3, w), Jx=Jq)
    acc.add(rv, np.full(nv, w), Jx=Jv)


def _swing_vel_dq(model, kin, v, frames):
    """d(foot velocities)/d q-tangent, d(J v)/dq, stacked per frame."""
    return tangent_sweep(model, kin, v, frames=frames).dvel[:, :model.nv]


class RunningNode:
    """One integration step of the contact dynamics with its running cost.

    ``configure`` sets the node's start time, contact set, swing targets
    and period ``dt``.
    """

    kind = "running"

    def __init__(self, model: RobotModel, weights: co.CostWeights,
                 bounds: co.Bounds | None, cone: co.FrictionCone | None):
        global NODE_ALLOCATIONS
        NODE_ALLOCATIONS += 1
        self.model = model
        self.dt = 0.0
        self.weights = weights
        self.bounds = bounds
        self.cone_C, self.cone_c = (co.cone_matrices(cone) if cone is not None
                                    else (None, None))
        self.time = 0.0
        self.contacts = ct.ContactSet()
        self.swing: dict[int, SwingTarget] = {}
        nu = model.nu
        self.u_lb = (bounds.u_lb if bounds is not None
                     else np.full(nu, -np.inf))
        self.u_ub = (bounds.u_ub if bounds is not None
                     else np.full(nu, np.inf))
        self._kept = None

    @property
    def nu(self):
        return self.model.nu

    def configure(self, time: float, contacts: ct.ContactSet,
                  swing: dict[int, SwingTarget], dt: float | None = None):
        """Retarget the node; the period stays as it was unless ``dt`` is given."""
        self.time = time
        self.contacts = contacts
        self.swing = swing
        if dt is not None:
            self.dt = float(dt)
        self._kept = None

    # -- cost pieces shared by calc / calc_diff -----------------------------

    def _costs(self, q, v, u, sol, der, acc):
        model = self.model
        nv, nu = model.nv, model.nu
        with_jac = der is not None
        _state_cost(model, q, v, self.weights, 1.0, acc, with_jac)
        Ju = np.eye(nu) if with_jac else None
        acc.add(u, self.weights.R, Ju=Ju)
        _bounds_cost(model, q, v, self.weights, self.bounds, 1.0, acc, with_jac)

        if self.swing:
            frames = sorted(self.swing)
            kin = sol.kin
            pos = frame_positions(model, kin, frames)
            vel = frame_velocities(model, q, v, frames, kin=kin)
            if with_jac:
                Jp = np.zeros((2 * len(frames), 2 * nv))
                Jp[:, :nv] = ct.contact_jacobian_stack(model, q, frames, kin=kin)
                Jv = np.zeros((2 * len(frames), 2 * nv))
                Jv[:, :nv] = _swing_vel_dq(model, kin, v, frames)
                Jv[:, nv:] = Jp[:, :nv]
            else:
                Jp = Jv = None
            wp = np.concatenate([[self.swing[f].w_pos] * 2 for f in frames])
            wv = np.concatenate([[self.swing[f].w_vel] * 2 for f in frames])
            rp = (pos - np.array([self.swing[f].pos for f in frames])).ravel()
            rv = (vel - np.array([self.swing[f].vel for f in frames])).ravel()
            acc.add(rp, wp, Jx=Jp)
            acc.add(rv, wv, Jx=Jv)

        if self.contacts.nf:
            lam = sol.forces
            nf = self.contacts.nf
            if with_jac:
                Jlx, Jlu = der.dforces_dx, der.dforces_du
            K = np.tile(self.weights.K, len(self.contacts.frames))
            acc.add(lam, K, Jx=Jlx if with_jac else None,
                    Ju=Jlu if with_jac else None)
            if self.weights.w_cone and self.cone_C is not None:
                r, Jr = co.cone_residual(self.cone_C, self.cone_c, lam)
                acc.add(r, self.weights.w_cone,
                        Jx=Jr @ Jlx if with_jac else None,
                        Ju=Jr @ Jlu if with_jac else None)
            if self.weights.w_qstatic:
                lam_map = {f: lam[2 * k: 2 * k + 2]
                           for k, f in enumerate(self.contacts.frames)}
                rqs = co.quasi_static_residual(model, q, u, lam_map)
                J = sol.J
                if with_jac:
                    Jx = np.zeros((nv, 2 * nv))
                    Jx[:, :nv] = co.quasi_static_residual_dq(model, q, lam_map)
                    Jx += J.T @ Jlx
                    Ju2 = model.S + J.T @ Jlu
                    acc.add(rqs, self.weights.w_qstatic * self.weights.N,
                            Jx=Jx, Ju=Ju2)
                else:
                    acc.add(rqs, self.weights.w_qstatic * self.weights.N)

    def _evaluate(self, x, u) -> _Evaluation:
        kept = self._kept
        if (kept is not None and np.array_equal(kept.x, x)
                and np.array_equal(kept.u, u)):
            return kept
        model = self.model
        q, v = mod.split_state(model, x)
        sol = ct.contact_forward_dynamics(model, q, v, u, self.contacts)
        qn, vn = mod.semi_implicit_step(model, q, v, sol.vdot, self.dt)
        acc = _Expansion(2 * model.nv, model.nu)
        self._costs(q, v, u, sol, None, acc)
        self._kept = _Evaluation(np.array(x, dtype=float), np.array(u, dtype=float),
                                 sol, mod.state(model, qn, vn), self.dt * acc.value)
        return self._kept

    # -- public API ----------------------------------------------------------

    def solution(self, x, u) -> ct.ContactSolution:
        """Contact dynamics at (x, u); the kept solution when the inputs match."""
        return self._evaluate(x, u).sol

    def calc(self, x, u):
        ev = self._evaluate(x, u)
        return ev.x_next.copy(), ev.cost

    def calc_diff(self, x, u):
        model = self.model
        nv, nu = model.nv, model.nu
        q, v = mod.split_state(model, x)
        sol = self.solution(x, u)
        der = ct.contact_dynamics_derivatives(model, q, v, u, self.contacts,
                                              sol=sol)
        dt = self.dt
        # semi-implicit chain: v' = v + dt*a(x,u); q' = q (+) dt*v'
        Av = np.hstack([np.zeros((nv, nv)), np.eye(nv)]) + dt * der.dvdot_dx
        Bv = dt * der.dvdot_du
        Jq, Jdq = mod.dintegrate_q(model, dt * (v + dt * sol.vdot))
        fx = np.vstack([
            np.hstack([Jq, np.zeros((nv, nv))]) + Jdq @ (dt * Av),
            Av,
        ])
        fu = np.vstack([Jdq @ (dt * Bv), Bv])
        acc = _Expansion(2 * nv, nu)
        self._costs(q, v, u, sol, der, acc)
        acc.scaled(dt)
        return NodeDerivatives(fx, fu, acc.lx, acc.lu, acc.lxx, acc.lxu,
                               acc.luu)


class ImpulseNode:
    """Instantaneous inelastic velocity transition at a touchdown."""

    kind = "impulse"
    dt = 0.0

    def __init__(self, model: RobotModel, weights: co.CostWeights,
                 restitution: float = 0.0):
        global NODE_ALLOCATIONS
        NODE_ALLOCATIONS += 1
        self.model = model
        self.weights = weights
        self.restitution = restitution
        self.time = 0.0
        self.contacts = ct.ContactSet()
        self.gained: dict[int, np.ndarray] = {}
        self.u_lb = np.zeros(0)
        self.u_ub = np.zeros(0)
        self._kept = None

    nu = 0

    def configure(self, time: float, contacts: ct.ContactSet,
                  gained: dict[int, np.ndarray]):
        self.time = time
        self.contacts = contacts
        self.gained = gained
        self._kept = None

    def _costs(self, q, v, sol, acc, with_jac):
        model = self.model
        nv = model.nv
        _state_cost(model, q, v, self.weights, 1.0, acc, with_jac)
        if self.gained:
            frames = sorted(self.gained)
            kin = sol.kin
            pos = frame_positions(model, kin, frames)
            r = (pos - np.array([self.gained[f] for f in frames])).ravel()
            if with_jac:
                Jp = np.zeros((2 * len(frames), 2 * nv))
                Jp[:, :nv] = ct.contact_jacobian_stack(model, q, frames, kin=kin)
            else:
                Jp = None
            acc.add(r, np.full(2 * len(frames),
                               self.weights.w_placement_terminal), Jx=Jp)

    def _evaluate(self, x) -> _Evaluation:
        kept = self._kept
        if kept is not None and np.array_equal(kept.x, x):
            return kept
        model = self.model
        q, v = mod.split_state(model, x)
        sol = ct.impulse_dynamics(model, q, v, self.contacts, self.restitution)
        acc = _Expansion(2 * model.nv, 0)
        self._costs(q, v, sol, acc, False)
        self._kept = _Evaluation(np.array(x, dtype=float), None, sol,
                                 mod.state(model, q, sol.v_plus), acc.value)
        return self._kept

    def calc(self, x, u=None):
        ev = self._evaluate(x)
        return ev.x_next.copy(), ev.cost

    def calc_diff(self, x, u=None):
        model = self.model
        nv = model.nv
        q, v = mod.split_state(model, x)
        sol = self._evaluate(x).sol
        der = ct.impulse_dynamics_derivatives(model, q, v, self.contacts,
                                              self.restitution, sol=sol)
        fx = np.vstack([
            np.hstack([np.eye(nv), np.zeros((nv, nv))]),
            der.dvdot_dx,
        ])
        fu = np.zeros((2 * nv, 0))
        acc = _Expansion(2 * nv, 0)
        self._costs(q, v, sol, acc, True)
        return NodeDerivatives(fx, fu, acc.lx, acc.lu, acc.lxx, acc.lxu,
                               acc.luu)


class TerminalNode:
    """State costs only; closes the horizon."""

    kind = "terminal"
    dt = 0.0
    nu = 0

    def __init__(self, model: RobotModel, weights: co.CostWeights,
                 bounds: co.Bounds | None):
        global NODE_ALLOCATIONS
        NODE_ALLOCATIONS += 1
        self.model = model
        self.weights = weights
        self.bounds = bounds
        self.time = 0.0

    def configure(self, time: float):
        self.time = time

    def calc(self, x):
        model = self.model
        q, v = mod.split_state(model, x)
        acc = _Expansion(2 * model.nv, 0)
        mult = self.weights.terminal_multiplier
        _state_cost(model, q, v, self.weights, mult, acc, False)
        _bounds_cost(model, q, v, self.weights, self.bounds, mult, acc, False)
        return acc.value

    def calc_diff(self, x):
        model = self.model
        q, v = mod.split_state(model, x)
        acc = _Expansion(2 * model.nv, 0)
        mult = self.weights.terminal_multiplier
        _state_cost(model, q, v, self.weights, mult, acc, True)
        _bounds_cost(model, q, v, self.weights, self.bounds, mult, acc, True)
        return acc.lx, acc.lxx


class ShootingProblem:
    """A window of ``N`` node slots over a contact schedule, as action models.

    Running nodes take their contact set from the schedule at the node time;
    every touchdown instant inside the window becomes one impulse node
    (placed before the running node that starts there), and a terminal node
    closes the window.  The problem keeps what it was built from -- model,
    schedule, weights, bounds, friction cone (mu = 0.7 unless given), node
    period ``dt`` and node count ``N`` -- and its node pools, so
    ``set_window`` (and ``update_problem``) moves the window from a new
    initial state and start time alone.  ``k0`` is the grid slot holding the
    window's start and ``plan`` its per-slot timing plan; the first entry
    carries the start time itself, which may lie inside its slot.
    """

    def __init__(self, model: RobotModel, schedule: ContactSchedule,
                 weights: co.CostWeights, bounds: co.Bounds | None,
                 x0: np.ndarray, N: int, dt: float, t0: float = 0.0,
                 cone: co.FrictionCone | None = None):
        if dt <= 0:
            raise ScheduleError("dt must be positive")
        self.model = model
        self.schedule = schedule
        self.weights = weights
        self.bounds = bounds
        self.cone = cone if cone is not None else co.FrictionCone(mu=0.7)
        self.N = N
        self.dt = dt
        self.nodes = []
        self.terminal = TerminalNode(model, weights, bounds)
        self._pools = {"running": [], "impulse": []}
        self.set_window(x0, t0)

    def set_window(self, x0: np.ndarray, t0: float):
        """Retarget the nodes to the window [t0, (k0 + N)*dt] from state ``x0``.

        ``k0`` is the grid slot holding ``t0`` (a ``t0`` within rounding of
        a grid node is that node).  The first running node starts at ``t0``
        and ends at the next grid node (k0 + 1)*dt, so its period is shorter
        than ``dt`` when ``t0`` lies inside the slot; it keeps the slot's
        contact set, and its swing targets are those at ``t0``.  Every later
        node sits on the grid.  When the node-kind sequence of the new
        window matches the current one, nodes are reconfigured in place;
        otherwise the node list is recomposed from the pools, which
        construct action models only when they run dry (visible through
        ``NODE_ALLOCATIONS``).
        """
        dt = self.dt
        k0 = int(round(t0 / dt))
        if abs(k0 * dt - t0) <= 1e-9 * max(1.0, abs(t0)):
            t0, dt0 = k0 * dt, dt
        else:
            k0 = int(math.floor(t0 / dt))
            dt0 = (k0 + 1) * dt - t0
        plan = _node_schedule(self.schedule, k0, self.N, dt)
        kinds = [p[0] for p in plan]
        if kinds != [n.kind for n in self.nodes]:
            self.reserve(kinds.count("running"), kinds.count("impulse"))
            pools = {kind: iter(pool) for kind, pool in self._pools.items()}
            self.nodes = [next(pools[kind]) for kind in kinds]
        for i, ((kind, t, active, gained), node) in enumerate(zip(plan, self.nodes)):
            start, period = (t0, dt0) if i == 0 else (t, dt)
            _configure_node(node, self.schedule, self.weights, t, active,
                            gained, dt, start, period)
        plan[0] = (plan[0][0], t0, *plan[0][2:])
        self.terminal.configure((k0 + self.N) * dt)
        self.x0 = np.asarray(x0, float)
        self.k0 = k0
        self.plan = plan

    def reserve(self, n_running: int = 0, n_impulse: int = 0):
        """Grow the node pools so later window updates construct nothing.

        Receding-horizon callers size the impulse pool up front (one node per
        touchdown the schedule can ever bring into view); ``set_window``
        then recomposes the node list without allocating.
        """
        pool = self._pools
        while len(pool["running"]) < n_running:
            pool["running"].append(RunningNode(self.model, self.weights,
                                               self.bounds, self.cone))
        while len(pool["impulse"]) < n_impulse:
            pool["impulse"].append(ImpulseNode(self.model, self.weights))

    @property
    def ndx(self):
        return 2 * self.model.nv

    def diff(self, x1, x0):
        return mod.difference(self.model, x1, x0)

    def integrate(self, x, dx):
        return mod.integrate(self.model, x, dx)

    def calc(self, xs, us):
        """Total cost and per-node gaps f(x_k, u_k) (-) x_{k+1}."""
        cost = 0.0
        gaps = [self.diff(self.x0, xs[0])]
        for k, node in enumerate(self.nodes):
            xn, c = node.calc(xs[k], us[k])
            cost += c
            gaps.append(self.diff(xn, xs[k + 1]))
        cost += self.terminal.calc(xs[-1])
        return cost, gaps

    def rollout(self, us, x0=None):
        x = self.x0 if x0 is None else x0
        xs = [np.asarray(x, float)]
        for k, node in enumerate(self.nodes):
            xn, _ = node.calc(xs[-1], us[k])
            xs.append(xn)
        return xs

    def zero_controls(self):
        return [np.zeros(node.nu) for node in self.nodes]


# ------------------------------------------------------------ construction

def _node_schedule(schedule: ContactSchedule, k0: int, N: int, dt: float):
    """Per-slot timing plan: (kind, node_time, contact frames, gained feet).

    Phase membership for slot k is sampled mid-interval at t_k + dt/2, which
    matches the nearest-node snapping of phase boundaries: a boundary within
    half a node period of t_k is treated as happening exactly at t_k.
    """
    t_end = (k0 + N) * dt
    if not schedule.covers(t_end):
        raise ScheduleError(
            f"schedule ends at {schedule.end_time:.6g}s but the horizon "
            f"needs {t_end:.6g}s")
    schedule.check_grid_alignment(dt, t_end=t_end)
    plan = []
    half = 0.5 * dt * (1.0 - 1e-7)
    for k in range(N + 1):
        t = (k0 + k) * dt
        active = schedule.active_set(min(t + half, schedule.end_time - _snap_eps(dt))) \
            if k == N else schedule.active_set(t + half)
        if k > 0:
            gained = [f for (tt, f)
                      in schedule.touchdowns_in(t - half, t + half)]
            if gained:
                plan.append(("impulse", t,
                             tuple(sorted(set(active) | set(gained))),
                             tuple(sorted(gained))))
        if k < N:
            plan.append(("running", t, tuple(active), ()))
    return plan


def _snap_eps(dt: float) -> float:
    return 1e-9 * max(1.0, dt)


def _configure_node(node, schedule: ContactSchedule, weights: co.CostWeights,
                    t: float, active, gained, dt: float, start: float,
                    period: float):
    """Configure ``node`` for the grid slot at ``t``.

    A running node spans [start, start + period] inside the slot: its
    swing phases are those of the slot, evaluated at ``start``.
    """
    contacts = ct.ContactSet(frames=tuple(active))
    half = 0.5 * dt * (1.0 - 1e-7)
    if node.kind == "running":
        swing = {}
        for f in schedule.feet:
            if f in active:
                continue
            ph = schedule.phase_at(f, t + half)
            pos, vel = evaluate_swing(ph, start)
            swing[f] = SwingTarget(pos=pos, vel=vel,
                                   w_pos=weights.w_placement,
                                   w_vel=weights.w_velocity)
        node.configure(start, contacts, swing, period)
    else:
        tq = min(t + half, schedule.end_time - _snap_eps(dt))
        placements = {f: schedule.placement(f, tq) for f in gained}
        node.configure(t, contacts, placements)


def build_problem(model: RobotModel, schedule: ContactSchedule,
                  weights: co.CostWeights, bounds: co.Bounds | None,
                  x0: np.ndarray, N: int, dt: float, t0: float = 0.0,
                  cone: co.FrictionCone | None = None) -> ShootingProblem:
    """The problem over the window [t0, t0 + N*dt] (see ``ShootingProblem``)."""
    return ShootingProblem(model, schedule, weights, bounds, x0, N, dt, t0, cone)


def update_problem(problem: ShootingProblem, x0: np.ndarray,
                   t0: float) -> ShootingProblem:
    """Move ``problem`` to the window starting at ``t0``, reusing its node pool.

    Schedule, weights, bounds, cone, ``N`` and ``dt`` stay those the problem
    was built with; see ``ShootingProblem.set_window``.
    """
    problem.set_window(x0, t0)
    return problem
