"""Shooting-problem assembly: node action models over a contact schedule.

A problem is an ordered list of action models — running nodes (contact
dynamics integrated over ``dt``), impulse nodes (instantaneous velocity
transitions at touchdowns, ``dt = 0``, no control), and one terminal node
carrying state costs only.  ``evaluate_nodes`` (dynamics solutions, next
states and costs) and ``differentiate_nodes`` (first-order dynamics and
Gauss-Newton cost expansion) take any list of running and impulse nodes.
They group the nodes by kind and contact-set size and run each group as one
pass over stacked (B, ...) arrays: the dynamics, one tangent sweep, the
integrator chain rule and the cost expansion.  A node's results do not
depend on the rest of its group, so a node's own ``calc`` is the same pass
on a group of one and gives the same bits; so does a line-search
rollout, one rollout per step length, solved one node at a time
(``ShootingProblem.step``) and costed in one pass per group
(``ShootingProblem.trial_costs``).

A node keeps nothing of its evaluations.  What ``evaluate_nodes`` gives a
node is its data, one ``(evaluation, row)`` pair: the stacked pass of its
group and its row there (None for a lone node).  ``differentiate_nodes``
and ``ShootingProblem.calc`` read the data they are given, evaluating only
the nodes without, and the derivatives are taken at the data's solutions,
gathered by one index per source evaluation, instead of solving the
dynamics again (as Crocoddyl's ``calcDiff`` reads the data its ``calc``
left).  The solver keeps the data of its iterate beside its states and
controls.  A node is constructed with its whole configuration and never
changes.  ``ShootingProblem`` builds each node for a slot: its plan key
(plan entry, start time, period), which fixes the node because a problem's
schedule, weights and ``dt`` never change.  ``set_window`` keeps the node of
a slot the next window holds too and builds one for each new slot.  The
terminal node is built once, with the problem, so a window is ``(nodes, x0,
k0)`` (``ShootingProblem.window``).

The line search steps one state per node, so the single state pays no
batch bookkeeping it does not need: a lone source's solution, or every
row of one source in order, is handed on as it is (``_group_rows``,
``_gather``), and the contact solve and the box QP test their conditions
on Python floats.  A group whose nodes share a contact set, swing feet or
touchdowns passes that frames tuple, which a stack reads by its frame
plan as one state does, and nodes that share a period step with it as a
scalar (``_shared``).  A cost pass sums
the value alone and a derivative pass the gradient and Hessian alone
(``_Expansion``), and a cost pass builds no Jacobian: the swing feet's
positions and velocities, the cone violation and the touchdown positions
are taken without theirs.  The posture residual is computed once for both
its value and its Jacobian.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields, is_dataclass

import numpy as np

from . import _kernels
from . import contact as ct
from . import costs as co
from . import model as mod
from .dynamics import frame_jacobian, frame_velocities, tangent_sweep
from .errors import ConfigError, ScheduleError, check_setting, check_time
from .kinematics import frame_positions
from .model import RobotModel
from .schedule import ContactSchedule, evaluate_swing


@dataclass
class NodeDerivatives:
    fx: np.ndarray
    fu: np.ndarray
    lx: np.ndarray
    lu: np.ndarray
    lxx: np.ndarray
    lxu: np.ndarray
    luu: np.ndarray


@dataclass(eq=False)
class _Evaluation:
    """What one stacked pass over a group gave.

    A node's data is ``(evaluation, row)``, row None for a lone node, whose
    fields have no leading axis; a step is uncosted until ``trial_costs``.
    """

    sol: ct.ContactSolution | ct.ImpulseSolution
    x_next: np.ndarray
    cost: np.ndarray | float


@dataclass
class SwingTarget:
    pos: np.ndarray
    vel: np.ndarray


class _Expansion:
    """Gauss-Newton accumulator for costs of the form scale * sum w_i r_i(x,u)^2.

    A cost pass, ``_Expansion(scale)``, sums the value alone.  A derivative
    pass, ``_Expansion(scale, ndx, nu)``, sums the gradient and the
    Gauss-Newton Hessian alone: nothing reads the value there, and each of
    its terms carries its Jacobian.  Every field has the leading (batch)
    axes of ``scale``; residuals, weights and Jacobians broadcast against
    them.  One state's value adds ``r @ wr``, a 1-D dot with the bits of
    the (1 x n) @ (n x 1) product a stack takes per row.
    """

    __slots__ = ("scale", "value", "lx", "lu", "lxx", "lxu", "luu")

    def __init__(self, scale, ndx=None, nu=0):
        self.scale = np.asarray(scale, float)[..., None]
        self.value = 0.0
        self.lx = None
        if ndx is not None:
            lead = self.scale.shape[:-1]
            self.lx, self.lu = np.zeros(lead + (ndx,)), np.zeros(lead + (nu,))
            self.lxx, self.lxu = np.zeros(lead + (ndx, ndx)), np.zeros(lead + (ndx, nu))
            self.luu = np.zeros(lead + (nu, nu))

    def _add_value(self, r, wr):
        self.value = self.value + (r @ wr if r.ndim == 1 else
                                   (r[..., None, :] @ wr[..., None])[..., 0, 0])

    def add(self, r, w, Jx=None, Ju=None):
        w = self.scale * w
        wr = w * r
        if self.lx is None:
            self._add_value(r, wr)
            return
        if Jx is not None:
            JxT = Jx.swapaxes(-1, -2)
            self.lx += 2.0 * (JxT @ wr[..., None])[..., 0]
            self.lxx += 2.0 * (JxT @ (w[..., None] * Jx))
        if Ju is not None:
            JuT, WJu = Ju.swapaxes(-1, -2), w[..., None] * Ju
            self.lu += 2.0 * (JuT @ wr[..., None])[..., 0]
            self.luu += 2.0 * (JuT @ WJu)
            if Jx is not None:
                self.lxu += 2.0 * (JxT @ WJu)

    def add_selection(self, r, w, x_at=None, u_at=None, one_sided=False):
        """``add`` for a term whose Jacobian selects coordinates: the entries
        of ``r`` are the x coordinates from ``x_at`` on, or the u coordinates
        from ``u_at`` on (a cost pass reads neither).

        Their gradient gains 2 w r and their Hessian diagonal 2 w, the bits
        of ``add`` with the selection matrix, whose products only multiply
        by 1.0 and add +0.0.  ``one_sided`` keeps slope and curvature only
        where ``r`` is nonzero (a penalty outside a box).
        """
        w = self.scale * w
        wr = w * r
        if self.lx is None:
            self._add_value(r, wr)
            return
        if one_sided:
            w = w * (r != 0.0)
        g, H, at = (self.lx, self.lxx, x_at) if u_at is None else (self.lu, self.luu, u_at)
        n, end = H.shape[-1], at + r.shape[-1]
        g[..., at:end] += 2.0 * wr
        # H is a fresh C-ordered array: its diagonal is every (n + 1)-th entry
        H.reshape(H.shape[:-2] + (n * n,))[..., ::n + 1][..., at:end] += 2.0 * w


STATE_BOUND_WEIGHT = 1e3    # joint angles and velocities outside their box


def _state_costs(model, q, v, weights, bounds, acc):
    """Posture and velocity regularization, and the state-bound penalty."""
    nv = model.nv
    r = mod.difference_q(model, q, weights.q_ref)
    Jq = None
    if acc.lx is not None:
        Jq = np.zeros(q.shape[:-1] + (nv, 2 * nv))
        Jq[..., :nv] = mod.ddifference_q_at(model, r)
    acc.add(r, weights.Q, Jx=Jq)
    # the velocity and the joint angles are coordinates of x
    acc.add_selection(v, weights.N, x_at=nv)
    if bounds is None:
        return
    rq = co.interval_violation(q[..., 3:], bounds.q_lb[3:], bounds.q_ub[3:])
    rv = co.interval_violation(v, bounds.v_lb, bounds.v_ub)
    acc.add_selection(rq, STATE_BOUND_WEIGHT, x_at=3, one_sided=True)
    acc.add_selection(rv, STATE_BOUND_WEIGHT, x_at=nv, one_sided=True)


def _stack(rows):
    """Rows of a group stacked along a new leading axis; a lone row as it is.

    A group of one keeps no leading axis: a lone node runs the single-state
    code, which gives the same bits as its row of a stacked pass.
    """
    return rows[0] if len(rows) == 1 else np.array(rows)


def _gather(parts):
    """Rows of group results (arrays, or dataclasses of them), stacked in
    order.  ``parts`` pairs a result with its rows: a list; an int, one row
    alone; or None, all of a lone result (``_stack``), stacked as one row.
    A lone result alone is returned as it is, dataclass and all: its fields
    are the rows, and nothing writes to a gathered result."""
    first, j = parts[0]
    if len(parts) == 1 and j is None:
        return first
    if is_dataclass(first):
        return type(first)(*(_gather([(getattr(obj, f.name), j) for obj, j in parts])
                             for f in fields(first)))
    if len(parts) == 1:
        return first[j]
    if all(j is None for _, j in parts):      # lone results: one copy
        return np.array([obj for obj, _ in parts])
    return np.concatenate([obj[None] if j is None else obj[j] for obj, j in parts])


def _group_rows(evs, *names):
    """Fields ``names`` of the nodes' data ``evs`` ((evaluation, row)
    pairs), stacked by ``_gather``: the consecutive rows of one source share
    one index, made once for every field (a basic slice when they run evenly,
    as a group's rows do), and one node keeps its own row.  Every row of one
    source, in order, is the source as it is."""
    parts = []
    for ev, j in evs:
        if j is not None and parts and parts[-1][0] is ev:
            parts[-1][1].append(j)
        else:
            parts.append((ev, None if j is None else [j]))
    if len(evs) == 1:
        parts = evs
    elif len(parts) == 1 and parts[0][1] == list(range(len(parts[0][0].x_next))):
        parts = [(parts[0][0], None)]
    else:
        parts = [(ev, j if j is None else _kernels.basic_index(j)) for ev, j in parts]
    return [_gather([(getattr(ev, name), j) for ev, j in parts]) for name in names]


def _shared(values):
    """A value of each node of a group: the value itself when every node has
    it (a frames tuple, a period), else the values stacked (``_stack``)."""
    first = values[0]
    return first if all(v == first for v in values) else _stack(values)


def _contacts(nodes) -> ct.ContactSet:
    """The group's contact sets as one: the nodes' own when they share it,
    else with (B, nc) frames."""
    frames = _shared([n.contacts.frames for n in nodes])
    return nodes[0].contacts if type(frames) is tuple else ct.ContactSet(frames=frames)


def _group_key(node):
    """Nodes with equal keys evaluate as one stacked group."""
    return (type(node), id(node.model), id(node.weights), node._group_params(),
            len(node.contacts.frames))


_NO_TARGETS = ((), np.zeros((2, 0, 2)))


def _half(dt):
    """Half a node period, less a rounding margin (see ``_node_schedule``)."""
    return 0.5 * dt * (1.0 - 1e-7)


class _DynamicsNode:
    """What running and impulse nodes share: a fresh evaluation at one
    state, and the line search's uncosted step."""

    def __init__(self, model, weights, time, contacts, slot):
        self.model, self.weights = model, weights
        self.time, self.contacts, self.slot = time, contacts, slot

    def calc(self, x, u=()):
        """(next state, cost) at (x, u), evaluated afresh."""
        (ev, _), = evaluate_nodes([self], [x], [u])
        return ev.x_next.copy(), ev.cost

    def step(self, x, u):
        """The next state at (x, u) and its uncosted evaluation;
        ``RankDeficientContacts`` at a singular contact set."""
        ev = self._step_group([self], np.array(x, dtype=float), np.array(u, dtype=float))
        return ev.x_next, ev


FORCE_WEIGHTS = (1e-4, 1e-4)  # a contact force (tangential, normal)
CONE_WEIGHT = 1e2             # its friction-cone violation
FRICTION_CONE = co.FrictionCone(mu=0.7)     # the ground's, at every contact
_CONE = co.cone_matrices(FRICTION_CONE)     # its rows, read by every node
PLACEMENT_WEIGHT = 1e4        # a swing foot's distance from its target
VELOCITY_WEIGHT = 1e3         # its velocity's distance from the target's


class RunningNode(_DynamicsNode):
    """One integration step of the contact dynamics with its running cost:
    from ``time`` over the period ``dt`` under ``contacts``, tracking the
    targets ``swing`` of the feet in the air, its contact forces held in
    ``FRICTION_CONE``."""

    kind = "running"

    def __init__(self, model: RobotModel, weights: co.CostWeights,
                 bounds: co.Bounds, time: float, contacts: ct.ContactSet,
                 swing: dict[int, SwingTarget], dt: float, slot=None):
        super().__init__(model, weights, time, contacts, slot)
        self.bounds, self.swing = bounds, swing
        self.dt = float(dt)
        self.u_lb, self.u_ub = bounds.u_lb, bounds.u_ub
        self._force_weights = np.tile(FORCE_WEIGHTS, len(contacts.frames))
        # swing frames and their target (positions, velocities)
        targets = [swing[f] for f in sorted(swing)]
        self._targets = _NO_TARGETS if not swing else (
            tuple(int(f) for f in sorted(swing)),
            np.array([[t.pos for t in targets], [t.vel for t in targets]],
                     dtype=float).reshape(2, -1, 2))

    @property
    def nu(self):
        return self.model.nu

    def _group_params(self):
        return id(self.bounds), len(self.swing)

    # -- one group of running nodes, stacked along the leading axis ----------

    @staticmethod
    def _costs(nodes, q, v, u, sol, acc, der=None, tan=None):
        """Running costs of the group; with ``der`` and ``tan`` (the dynamics
        derivatives and the tangent sweep) their Gauss-Newton expansion too."""
        n0 = nodes[0]
        model, weights = n0.model, n0.weights
        nv = model.nv
        with_jac = der is not None
        _state_costs(model, q, v, weights, n0.bounds, acc)
        acc.add_selection(u, weights.R, u_at=0)

        if n0.swing:
            frames = _shared([n._targets[0] for n in nodes])
            ref = _stack([n._targets[1] for n in nodes])
            Jp = Jv = None
            if with_jac:
                # the sweep's last rows are the swing frames; the v block
                # of a frame's velocity tangent is its Jacobian
                Jv = tan.dvel[..., -2 * len(n0.swing):, :]
                Jp = np.zeros_like(Jv)
                Jp[..., :nv] = Jv[..., nv:]
            pos, vel = frame_velocities(model, sol.mb, frames)
            rp = pos - ref[..., 0, :, :]
            rv = vel - ref[..., 1, :, :]
            acc.add(rp.reshape(rp.shape[:-2] + (-1,)), PLACEMENT_WEIGHT, Jx=Jp)
            acc.add(rv.reshape(rv.shape[:-2] + (-1,)), VELOCITY_WEIGHT, Jx=Jv)

        if n0.contacts.frames:
            lam = sol.forces
            Jlx, Jlu = (der.dforces_dx, der.dforces_du) if with_jac else (None, None)
            acc.add(lam, n0._force_weights, Jx=Jlx, Ju=Jlu)
            if with_jac:
                r, Jr = co.cone_residual(_CONE, lam)
                acc.add(r, CONE_WEIGHT, Jx=Jr @ Jlx, Ju=Jr @ Jlu)
            else:
                acc.add(co.cone_violation(_CONE, lam), CONE_WEIGHT)

    @staticmethod
    def _step_group(nodes, x, u):
        dt = np.asarray(_shared([n.dt for n in nodes]))
        (sol,), (x_next,) = ct.predict(nodes[0].model, x, u, _contacts(nodes), dt, 1)
        return _Evaluation(sol, x_next, None)

    @staticmethod
    def _cost_group(nodes, x, u, ev):
        model = nodes[0].model
        q, v = mod.split_state(model, x)
        acc = _Expansion(np.asarray(_stack([n.dt for n in nodes])))
        RunningNode._costs(nodes, q, v, u, ev.sol, acc)
        ev.cost = acc.value
        return ev

    @staticmethod
    def _differentiate_group(nodes, x, u, sol):
        model = nodes[0].model
        nv = model.nv
        q, v = mod.split_state(model, x)
        contacts = _contacts(nodes)
        lam = sol.forces.reshape(x.shape[:-1] + (-1, 2))
        swing = _shared([n._targets[0] for n in nodes])
        # one sweep carries the contact frames and then the swing frames
        if type(contacts.frames) is tuple and type(swing) is tuple:
            frames = contacts.frames + swing
        else:
            frames = np.concatenate([np.broadcast_to(np.asarray(f, dtype=int),
                                                     x.shape[:-1] + np.shape(f)[-1:])
                                     for f in (contacts.frames, swing)], -1)
        tan = tangent_sweep(model, sol.mb.kin, v, sol.vdot, (contacts.frames, lam),
                            frames)
        der = ct.contact_dynamics_derivatives(model, contacts, sol, tan)
        dt = np.asarray(_stack([n.dt for n in nodes]))[..., None, None]
        # semi-implicit chain: v' = v + dt*a(x,u); q' = q (+) dt*v'
        Av = _kernels.eye(nv, 2 * nv, nv) + dt * der.dvdot_dx
        Bv = dt * der.dvdot_du
        Jq, Jdq = mod.dintegrate_q(model, dt[..., 0] * (v + dt[..., 0] * sol.vdot))
        fx = np.concatenate([Jdq @ (dt * Av), Av], -2)
        fx[..., :nv, :nv] += Jq
        fu = np.concatenate([Jdq @ (dt * Bv), Bv], -2)
        acc = _Expansion(dt[..., 0, 0], 2 * nv, model.nu)
        RunningNode._costs(nodes, q, v, u, sol, acc, der, tan)
        return fx, fu, acc


TOUCHDOWN_WEIGHT = 1e6      # a touching-down foot's distance from its placement


class ImpulseNode(_DynamicsNode):
    """Instantaneous inelastic velocity transition at ``time`` into
    ``contacts``: the contact points come to rest (``ct.impulse_dynamics``).
    ``gained`` maps each foot touching down to its placement."""

    kind = "impulse"
    dt = 0.0
    nu = 0
    u_lb = u_ub = np.zeros(0)

    def __init__(self, model: RobotModel, weights: co.CostWeights, time: float,
                 contacts: ct.ContactSet, gained: dict[int, np.ndarray],
                 slot=None):
        super().__init__(model, weights, time, contacts, slot)
        self.gained = gained
        # the touching-down frames and their placements
        feet = sorted(gained)
        self._touchdowns = tuple(int(f) for f in feet), np.array([gained[f] for f in feet])

    def _group_params(self):
        return len(self.gained)

    # -- one group of impulse nodes, stacked along the leading axis ----------

    @staticmethod
    def _costs(nodes, q, v, sol, acc):
        n0 = nodes[0]
        model = n0.model
        nv = model.nv
        _state_costs(model, q, v, n0.weights, None, acc)
        if n0.gained:
            frames = _shared([n._touchdowns[0] for n in nodes])
            target = _stack([n._touchdowns[1] for n in nodes])
            if acc.lx is None:
                pos, J = frame_positions(model, sol.kin, frames), None
            else:
                pos, J = frame_jacobian(model, sol.kin, frames)
            r = (pos - target).reshape(q.shape[:-1] + (-1,))
            Jp = None
            if J is not None:
                Jp = np.zeros(r.shape + (2 * nv,))
                Jp[..., :nv] = J
            acc.add(r, TOUCHDOWN_WEIGHT, Jx=Jp)

    @staticmethod
    def _step_group(nodes, x, u):
        model = nodes[0].model
        q, v = mod.split_state(model, x)
        sol = ct.impulse_dynamics(model, q, v, _contacts(nodes))
        return _Evaluation(sol, mod.state(model, q, sol.v_plus), None)

    @staticmethod
    def _cost_group(nodes, x, u, ev):
        model = nodes[0].model
        q, v = mod.split_state(model, x)
        acc = _Expansion(np.ones(x.shape[:-1]))
        ImpulseNode._costs(nodes, q, v, ev.sol, acc)
        ev.cost = acc.value
        return ev

    @staticmethod
    def _differentiate_group(nodes, x, u, sol):
        model = nodes[0].model
        nv = model.nv
        q, v = mod.split_state(model, x)
        der = ct.impulse_dynamics_derivatives(model, v, _contacts(nodes), sol)
        fx = np.concatenate([np.broadcast_to(_kernels.eye(nv, 2 * nv), der.dvdot_dx.shape),
                             der.dvdot_dx], -2)
        acc = _Expansion(np.ones(x.shape[:-1]), 2 * nv, 0)
        ImpulseNode._costs(nodes, q, v, sol, acc)
        return fx, np.zeros(x.shape[:-1] + (2 * nv, 0)), acc


def _groups(nodes, indices):
    """``indices`` of ``nodes`` split into stackable groups, in order."""
    if len(indices) < 2:
        return [indices] if indices else []
    groups = {}
    for k in indices:
        groups.setdefault(_group_key(nodes[k]), []).append(k)
    return groups.values()


def evaluate_nodes(nodes, xs, us, data=None) -> list:
    """Each node's data ``(evaluation, row)`` at (xs[k], us[k]): ``data[k]``
    where one is given, else a fresh evaluation, one stacked pass per group
    of the nodes without.  A given ``data`` list is filled in place."""
    if data is None:
        data = [None] * len(nodes)
    for ks in _groups(nodes, [k for k, datum in enumerate(data) if datum is None]):
        group = [nodes[k] for k in ks]
        x = _stack([np.array(xs[k], dtype=float) for k in ks])
        u = _stack([np.array(us[k], dtype=float).reshape(-1) for k in ks])
        ev = group[0]._cost_group(group, x, u, group[0]._step_group(group, x, u))
        for j, k in enumerate(ks):
            data[k] = ev, j if len(ks) > 1 else None
    return data


def _row(datum, name):
    """Field ``name`` of a node's data: its row of the evaluation."""
    ev, j = datum
    value = getattr(ev, name)
    return value if j is None else value[j]


def differentiate_nodes(nodes, xs, us, data=None) -> list[NodeDerivatives]:
    """``NodeDerivatives`` of each node at (xs[k], us[k]), one stacked pass per group.

    The derivatives are taken at the dynamics solutions of the nodes' data
    at these inputs (``evaluate_nodes``), each group's rows gathered from
    their source evaluations (``_group_rows``).
    """
    data = evaluate_nodes(nodes, xs, us, data)
    out = [None] * len(nodes)
    for ks in _groups(nodes, range(len(nodes))):
        group = [nodes[k] for k in ks]
        x = _stack([np.asarray(xs[k], float) for k in ks])
        u = _stack([np.asarray(us[k], float).reshape(-1) for k in ks])
        sol, = _group_rows([data[k] for k in ks], "sol")
        fx, fu, acc = type(group[0])._differentiate_group(group, x, u, sol)
        split = list if len(ks) > 1 else (lambda a: [a])
        for k, *row in zip(ks, *map(split, (fx, fu, acc.lx, acc.lu, acc.lxx,
                                             acc.lxu, acc.luu))):
            out[k] = NodeDerivatives(*row)
    return out


TERMINAL_SCALE = 10.0       # terminal state costs per running cost per second


class TerminalNode:
    """State costs only; closes every window of a problem."""

    def __init__(self, model: RobotModel, weights: co.CostWeights,
                 bounds: co.Bounds):
        self.model = model
        self.weights = weights
        self.bounds = bounds

    def _expansion(self, x, with_jac):
        model = self.model
        q, v = mod.split_state(model, x)
        acc = _Expansion(TERMINAL_SCALE, 2 * model.nv if with_jac else None)
        _state_costs(model, q, v, self.weights, self.bounds, acc)
        return acc

    def calc(self, x):
        """The terminal cost at ``x``; at stacked states, one per state."""
        value = self._expansion(x, False).value
        return value if np.ndim(value) else float(value)

    def calc_diff(self, x):
        acc = self._expansion(x, True)
        return acc.lx, acc.lxx


class ShootingProblem:
    """A window of ``N`` node slots over a contact schedule, as action models.

    Running nodes take their contact set from the schedule at the node time;
    every touchdown instant inside the window becomes one impulse node
    (placed before the running node that starts there), and the problem's
    one terminal node, built with it, closes every window.  The problem
    keeps what it was built from -- model, schedule, weights, bounds, node
    period ``dt`` and node count ``N`` -- so ``set_window`` (and
    ``update_problem``) moves the window from a new initial state and start
    time alone.  ``k0`` is the grid slot holding the window's start.
    ``ConfigError`` unless ``N`` is a positive integer, ``dt`` finite and
    positive and every foot of the schedule a contact frame of the model,
    before any node is built.
    """

    def __init__(self, model: RobotModel, schedule: ContactSchedule,
                 weights: co.CostWeights, bounds: co.Bounds,
                 x0: np.ndarray, N: int, dt: float, t0: float = 0.0):
        if not isinstance(N, numbers.Integral) or N < 1:
            raise ConfigError(f"N must be a positive integer, got {N!r}")
        dt = check_setting("dt", dt, zero_ok=False)
        unknown = set(schedule.feet) - set(range(len(model.contact_frames)))
        if unknown:
            raise ConfigError(f"schedule feet {sorted(unknown)} are not contact "
                              f"frames of the model")
        schedule.check_grid_alignment(dt)
        self.model = model
        self.schedule = schedule
        self.weights = weights
        self.bounds = bounds
        self.N = N
        self.dt = dt
        self.terminal = TerminalNode(model, weights, bounds)
        self.nodes, self._read = [], {}
        self.set_window(x0, t0)

    def set_window(self, x0: np.ndarray, t0: float):
        """Move the window to [t0, (k0 + N)*dt], from state ``x0``.

        ``k0`` is the grid slot holding ``t0`` (a ``t0`` within rounding of
        a grid node is that node).  The first running node starts at ``t0``
        and ends at the next grid node (k0 + 1)*dt, so its period is shorter
        than ``dt`` when ``t0`` lies inside the slot; it keeps the slot's
        contact set, and its swing targets are those at ``t0``.  Every later
        node sits on the grid.  A node's slot is its plan key: plan entry,
        start time and period, bit-equal in every window that holds the slot
        (a grid time is always k*dt).  A node whose slot is also in the new
        window stays; each new slot gets a new node
        (``_node``).  ``_read`` is a memo of the schedule's reads by grid
        slot, which are pure: the schedule is read only for the grid slots
        the last call did not read, and no caller puts the memo back.
        ``ConfigError`` for a non-finite ``t0`` and ``DimensionMismatch``
        for an ``x0`` that is not one state, before anything changes.
        """
        check_time(t0)
        x0 = self.model.check_state(x0)
        dt = self.dt
        k0 = int(round(t0 / dt))
        if abs(k0 * dt - t0) <= 1e-9 * max(1.0, abs(t0)):
            t0, dt0 = k0 * dt, dt
        else:
            k0 = int(math.floor(t0 / dt))
            dt0 = (k0 + 1) * dt - t0
        plan, self._read = _node_schedule(self.schedule, k0, self.N, dt, self._read)
        slots = [(entry, *((t0, dt0) if i == 0 else (entry[1], dt)))
                 for i, entry in enumerate(plan)]
        kept = {node.slot: node for node in self.nodes}
        self.nodes = [kept[slot] if slot in kept else self._node(slot)
                      for slot in slots]
        self.x0 = x0
        self.k0 = k0

    def window(self):
        """What ``set_window`` replaces: ``(nodes, x0, k0)``.
        ``restore_window`` puts a window back."""
        return self.nodes, self.x0, self.k0

    def restore_window(self, window):
        self.nodes, self.x0, self.k0 = window

    def _node(self, slot):
        """The node of the plan key ``slot`` (plan entry, start, period).

        A running node spans [start, start + period] inside its grid slot:
        its swing phases are those of the slot, evaluated at ``start``.  An
        impulse node's touchdowns are at their placements.
        """
        (kind, t, active, gained), start, period = slot
        sched, half = self.schedule, _half(self.dt)
        contacts = ct.ContactSet(frames=tuple(active))
        if kind == "impulse":
            tq = min(t + half, sched.end_time - _snap_eps(self.dt))
            return ImpulseNode(self.model, self.weights, t, contacts,
                               {f: sched.placement(f, tq) for f in gained},
                               slot=slot)
        swing = {f: SwingTarget(*evaluate_swing(sched.phase_at(f, t + half), start))
                 for f in sched.feet if f not in active}
        return RunningNode(self.model, self.weights, self.bounds, start,
                           contacts, swing, period, slot=slot)

    @property
    def ndx(self):
        return 2 * self.model.nv

    def diff(self, x1, x0):
        return mod.difference(self.model, x1, x0)

    def integrate(self, x, dx):
        return mod.integrate(self.model, x, dx)

    def calc(self, xs, us, data=None):
        """Total cost and the gaps, one (len(nodes) + 1, ndx) array: row 0 is
        x0 (-) x_0 and row k + 1 is f(x_k, u_k) (-) x_{k+1}.

        They are read from the nodes' ``data`` at (xs, us); the nodes
        without, every node when no ``data`` is given, are evaluated one
        stacked group at a time (``evaluate_nodes``, which fills a given
        list).  The gaps are one stacked ``difference``.
        """
        data = evaluate_nodes(self.nodes, xs, us, data)
        cost = sum(_row(datum, "cost") for datum in data) + self.terminal.calc(xs[-1])
        x_next = [_row(datum, "x_next") for datum in data]
        return cost, self.diff(np.array([self.x0] + x_next), np.array(xs))

    def calc_diff(self, xs, us, data=None) -> list[NodeDerivatives]:
        """Derivatives of every node at (xs, us) and its ``data`` there (see
        ``differentiate_nodes``)."""
        return differentiate_nodes(self.nodes, xs, us, data)

    def step(self, k, x, u):
        """Node ``k`` stepped at (x, u) (``_DynamicsNode.step``)."""
        return self.nodes[k].step(x, u)

    def trial_costs(self, xs, us, steps):
        """The cost of ``(xs, us)``, whose every node was just stepped, and
        the nodes' data: ``steps[k]`` is node k's uncosted evaluation.

        The steps' dynamics solutions are costed in one stacked pass per
        group; a node's data are its row of its group's pass.  Node costs
        add up in node order.
        """
        nodes = self.nodes
        costs, data = [None] * len(nodes), [None] * len(nodes)
        for ks in _groups(nodes, range(len(nodes))):
            group = [nodes[k] for k in ks]
            x, u = (_stack([a[k] for k in ks]) for a in (xs, us))
            ev = group[0]._cost_group(group, x, u, _Evaluation(
                *_group_rows([(steps[k], None) for k in ks], "sol", "x_next"), None))
            for i, k in enumerate(ks):
                data[k] = ev, i if len(ks) > 1 else None
                costs[k] = _row(data[k], "cost")
        total = 0.0
        for cost in costs:
            total = total + cost
        return total + self.terminal.calc(xs[-1]), data

    def rollout(self, us):
        """The states from x0 under ``us`` and the nodes' data along them,
        one node at a time."""
        xs, data = [np.asarray(self.x0, float)], []
        for node, u in zip(self.nodes, us):
            datum, = evaluate_nodes([node], [xs[-1]], [u])
            data.append(datum)
            xs.append(datum[0].x_next.copy())
        return xs, data


# ------------------------------------------------------------ construction

def _node_schedule(schedule: ContactSchedule, k0: int, N: int, dt: float, known):
    """Per-slot timing plan: (kind, node_time, contact frames, gained feet).

    Phase membership for slot k is sampled mid-interval at t_k + dt/2, which
    matches the nearest-node snapping of phase boundaries: a boundary within
    half a node period of t_k is treated as happening exactly at t_k.  Also
    returns each grid slot's contact set and touchdowns by (slot, closing),
    as the closing slot samples clamped to the schedule; the slots in the
    memo ``known`` are not read again.
    """
    t_end = (k0 + N) * dt
    if not schedule.covers(t_end):
        raise ScheduleError(
            f"schedule ends at {schedule.end_time:.6g}s but the horizon "
            f"needs {t_end:.6g}s")
    plan, read = [], {}
    half = _half(dt)
    for k in range(N + 1):
        t = (k0 + k) * dt
        slot = (k0 + k, k == N)
        active, gained = read[slot] = known.get(slot) or (
            schedule.active_set(min(t + half, schedule.end_time - _snap_eps(dt)))
            if k == N else schedule.active_set(t + half),
            [f for (tt, f) in schedule.touchdowns_in(t - half, t + half)])
        if k > 0 and gained:
            plan.append(("impulse", t, tuple(sorted(set(active) | set(gained))),
                         tuple(sorted(gained))))
        if k < N:
            plan.append(("running", t, tuple(active), ()))
    return plan, read


def _snap_eps(dt: float) -> float:
    return 1e-9 * max(1.0, dt)


def build_problem(model: RobotModel, schedule: ContactSchedule,
                  weights: co.CostWeights, bounds: co.Bounds,
                  x0: np.ndarray, N: int, dt: float,
                  t0: float = 0.0) -> ShootingProblem:
    """The problem over the window [t0, t0 + N*dt] (see ``ShootingProblem``)."""
    return ShootingProblem(model, schedule, weights, bounds, x0, N, dt, t0)


def update_problem(problem: ShootingProblem, x0: np.ndarray,
                   t0: float) -> ShootingProblem:
    """Move ``problem`` to the window starting at ``t0``, keeping the nodes of
    the slots both windows hold.

    Schedule, weights, bounds, ``N`` and ``dt`` stay those the problem
    was built with; see ``ShootingProblem.set_window``.
    """
    problem.set_window(x0, t0)
    return problem
