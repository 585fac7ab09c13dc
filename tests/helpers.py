"""Shared fixtures and finite-difference utilities for the test suite."""

from __future__ import annotations

import sys
from unittest import mock

import numpy as np

from leggedmpc import contact as ct
from leggedmpc import controllers as trk
from leggedmpc import dynamics, kinematics, presets, se2
from leggedmpc import model as mod
from leggedmpc import problem as pb
from leggedmpc import boxfddp
from leggedmpc.boxfddp import BoxFddp
from leggedmpc.centroidal import centroidal
from leggedmpc.errors import (MaxIterations, NoStepAccepted, RankDeficientContacts,
                              Stage1Infeasible)
from leggedmpc.model import FLOATING, REVOLUTE, Body, ContactFrame, Joint, RobotModel


# ------------------------------------------------------------- small models

def single_body(mass: float = 1.0, inertia: float = 0.1,
                com=(0.0, 0.0), contact_offset=(0.0, 0.0)) -> RobotModel:
    """Free-floating single body with one contact frame; handy for analytics."""
    return RobotModel(
        name="single_body",
        bodies=[Body("box", mass, tuple(com), inertia)],
        joints=[Joint(FLOATING, -1, (0.0, 0.0, 0.0))],
        contact_frames=[ContactFrame("corner", 0, tuple(contact_offset))],
        torque_limit=np.zeros(0),
    )


def base_pendulum(mass: float = 1.0, length: float = 0.5,
                  base_mass: float = 1.0) -> RobotModel:
    """Floating base carrying a single hanging rod (point mass at distance l)."""
    return RobotModel(
        name="base_pendulum",
        bodies=[
            Body("base", base_mass, (0.0, 0.0), 0.05),
            Body("rod", mass, (0.0, -length), 0.0),
        ],
        joints=[
            Joint(FLOATING, -1, (0.0, 0.0, 0.0)),
            Joint(REVOLUTE, 0, (0.0, 0.0, 0.0)),
        ],
        contact_frames=[ContactFrame("tip", 1, (0.0, -2.0 * length))],
        torque_limit=np.array([50.0]),
    )


def branched_tree() -> RobotModel:
    """A base with three limbs, one of them forked: tree levels whose bodies
    (1, 3, 4 and 2, 5, 6) and parents (1, 4, 4) do not run evenly, so the
    level passes index them by arrays, not slices."""
    parents = [-1, 0, 1, 0, 0, 4, 4]
    return RobotModel(
        name="branched_tree",
        bodies=[Body(f"b{i}", 1.0 + 0.2 * i, (0.03 * i, -0.1), 0.02 + 0.01 * i)
                for i in range(len(parents))],
        joints=[Joint(FLOATING, -1, (0.0, 0.0, 0.0))] + [
            Joint(REVOLUTE, p, (0.1 * i - 0.3, -0.2 + 0.05 * i, 0.1 * i))
            for i, p in enumerate(parents[1:], start=1)],
        contact_frames=[ContactFrame(f"tip{b}", b, (0.02 * b, -0.25))
                        for b in (2, 3, 5, 6)],
        torque_limit=np.full(len(parents) - 1, 40.0),
    )


def straight_legs(model):
    """A standing state with every leg straight: the stance contact set is
    singular there."""
    q = presets.nominal_configuration(model)
    q[3:] = 0.0
    return mod.state(model, q, np.zeros(model.nv))


# --------------------------------------------------- the pass at (q, v)

def frame_motion_at(m, q, v, frames):
    """``dynamics.frame_motion`` on the multibody pass at (q, v): positions,
    Jacobian, velocities and acceleration bias of ``frames``."""
    return dynamics.frame_motion(m, dynamics.multibody(m, q, v), frames)


def centroidal_at(m, q, v):
    """``centroidal`` on the multibody pass at (q, v)."""
    return centroidal(m, dynamics.multibody(m, q, v), v)


def drift_by_rnea(m, q, v):
    """The momentum-matrix drift X_G.T (h - g)[:3] with g(q) from its own
    zero-velocity recursion (``dynamics.gravity_torque``) and the centre of
    mass from the body-by-body sums (``ref_centroidal``)."""
    mb = dynamics.multibody(m, q, v)
    rel = mb.kin.pose[0].copy()
    rel[:2] -= ref_centroidal(m, q)[0]
    return ref_motion_transform(rel).T @ (mb.h - dynamics.gravity_torque(m, q))[:3]


def bias_force_bits(m, q, v):
    """The body accelerations of ``kinematics.bias_accelerations`` at (q, v),
    and h(q, v) from them as the general Newton-Euler pass forms tau at
    a = 0: body accelerations B a + bias, gravity, the body forces, then
    tau = sum_i B_i.T f_i.  The package forms h without the zero product
    B @ a; this keeps it, as the bits oracle of ``dynamics.multibody``'s h
    (``ref_rnea`` agrees with it only to rounding)."""
    kin = kinematics.forward_kinematics(m, m.check_q(q))
    v = m.check_v(v)
    tw, bias = kinematics.bias_accelerations(m, kin, v)
    B, I = kin.B, m.spatial_inertias
    ac = kinematics._matvec(B, np.zeros(v.shape)[..., None, :]) + bias
    ac[..., :2] -= mod.GRAVITY @ kin.R
    mom = kinematics._matvec(I, tw)
    f = kinematics._matvec(I, ac)
    f[..., 0] -= tw[..., 2] * mom[..., 1]
    f[..., 1] += tw[..., 2] * mom[..., 0]
    f[..., 2] += tw[..., 0] * mom[..., 1] - tw[..., 1] * mom[..., 0]
    lead = B.shape[:-3]
    return bias, (f.reshape(lead + (1, -1)) @ B.reshape(lead + (-1, m.nv)))[..., 0, :]


def count_calls(monkeypatch, original):
    """Count calls of a package function, rebinding every imported copy."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "leggedmpc" or name.startswith("leggedmpc."):
            for attr, obj in list(vars(module).items()):
                if obj is original:
                    monkeypatch.setattr(module, attr, counted)
    return calls


def solved_derivatives(m, q, v, u, contacts):
    """The derivatives of the contact dynamics under torque ``u`` at (q, v),
    or of the impulse dynamics from ``v`` when ``u`` is None, by the nodes'
    route: solve, sweep (the contact frames first), then differentiate.
    Stacked states run as one pass."""
    if u is None:
        return ct.impulse_dynamics_derivatives(
            m, v, contacts, ct.impulse_dynamics(m, q, v, contacts))
    sol = ct.contact_forward_dynamics(m, q, v, u, contacts)
    lam = sol.forces.reshape(sol.vdot.shape[:-1] + (-1, 2))
    tan = dynamics.tangent_sweep(m, sol.mb.kin, np.asarray(v, float), sol.vdot,
                                 (contacts.frames, lam), contacts.frames)
    return ct.contact_dynamics_derivatives(m, contacts, sol, tan)


# ------------------------------------------------------ whole-body tick oracle

def rollout_reference(model, msg, control_dt):
    """Predict reference states at the control period across one message,
    every interval at once: the eager oracle of the trackers' reference.

    Each node interval is integrated (``contact.predict``) from its own
    optimal state under the interval's feed-forward torque and planned
    contact set, in equal steps near ``control_dt``; node times snap back to
    the optimal states, so only the in-between ticks are predicted.
    Returns (times, states, sols) with ``times`` sorted and spanning the
    message.  ``sols[j]`` is the ``ContactSolution`` that ``predict``
    solved at ``states[j]`` (the state splits back into the (q, v) it was
    solved at, bit for bit), and None where no step starts: at each
    interval's last state and at the message's final state.
    """
    times, states, sols = [], [], []
    for i, u in enumerate(msg.us_ff):
        t0 = float(msg.node_times[i])
        t1 = float(msg.node_times[i + 1])
        n = max(1, int(round((t1 - t0) / control_dt)))
        h = (t1 - t0) / n
        contacts = ct.ContactSet(frames=tuple(msg.contacts[i]))
        x = np.asarray(msg.xs_ref[i], float)
        steps, xs = ct.predict(model, x, np.asarray(u, float), contacts, h, n - 1)
        times += [t0 + j * h for j in range(n)]
        states += [x, *xs]
        sols += [*steps, None]
    times.append(float(msg.node_times[-1]))
    states.append(np.asarray(msg.xs_ref[-1], float))
    sols.append(None)
    return np.asarray(times), states, sols


def reference_terms(model, x_ref, sol, frames):
    """The reference side of a stance tick at ``x_ref`` from the contact
    dynamics ``sol`` solved there, term by term as a tick once computed it:
    centroidal terms, the momentum rate, and the swing feet's positions,
    velocities and accelerations ``J vdot + bias``."""
    v_d = mod.split_state(model, x_ref)[1]
    cen = centroidal(model, sol.mb, v_d)
    hdot = cen.A_G @ sol.vdot + cen.Adot_v
    swing = tuple(f for f in range(len(model.contact_frames))
                  if f not in tuple(frames))
    if not swing:
        return trk.StanceReference(cen, hdot, None, None, None)
    pos_d, J_d, vel_d, bias_d = dynamics.frame_motion(model, sol.mb, swing)
    return trk.StanceReference(cen, hdot, pos_d.ravel(), vel_d.ravel(),
                               J_d @ sol.vdot + bias_d)


def reference_dynamics(ctrl, t):
    """The contact dynamics at the tick's reference state, solved afresh at
    ``split_state(x_ref)`` under the feed-forward torque and contacts of the
    tick's interval ``msg.interval_at(t)``."""
    msg = ctrl.message
    i = msg.interval_at(t)
    q_d, v_d = mod.split_state(ctrl.model, ctrl.reference_at(t))
    return ct.contact_forward_dynamics(
        ctrl.model, q_d, v_d, np.asarray(msg.us_ff[i], float),
        ct.ContactSet(frames=tuple(msg.contacts[i])))


def wbc_stance_cascade(wbc, x, t):
    """(tasks, rows, seed) of the cascade a stance tick of ``wbc`` at (x, t)
    solves, built anew on ``reference_dynamics`` and ``reference_terms``."""
    model, bounds, msg = wbc.model, wbc.bounds, wbc.message
    i = msg.interval_at(t)
    frames = tuple(msg.contacts[i])
    assert len(frames) >= 2
    ref = reference_terms(model, wbc.reference_at(t),
                          reference_dynamics(wbc, t), frames)
    tasks = trk.stance_tasks(model, x, ref, frames,
                             np.asarray(msg.forces_ref[i], float))
    return (tasks, trk.wbc_inequality_rows(model, bounds, wbc.cone, len(frames)),
            trk.wbc_seed(model, bounds, len(frames)))


def wbc_stance_tick(wbc, x, t, held):
    """(u, mode, degraded) of a stance tick of ``wbc`` at (x, t) that reuses
    nothing: ``reference_dynamics``, and rows and seed built anew.  ``held``
    is the torque a degraded tick re-issues."""
    model, bounds = wbc.model, wbc.bounds
    try:
        y = trk.hqp_solve(*wbc_stance_cascade(wbc, x, t)).y
    except (Stage1Infeasible, MaxIterations):
        return np.clip(held, bounds.u_lb, bounds.u_ub), "wbc", True
    u = y[model.nv:model.nv + model.nu]
    return np.clip(u, bounds.u_lb, bounds.u_ub), "wbc", False


def cold_hqp_solve(tasks, ineq, y0):
    """``hqp_solve`` with every stage QP started from an empty working set."""
    stage_qp = trk._stage_qp

    def cold(G, d, W, lb, ub, warm=()):
        return stage_qp(G, d, W, lb, ub)

    with mock.patch.object(trk, "_stage_qp", cold):
        return trk.hqp_solve(tasks, ineq, y0)


def nullspace_basis(A: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the right null space of A (singular values
    below 1e-10 of the largest count as zero)."""
    A = np.atleast_2d(np.asarray(A, float))
    if A.size == 0:
        return np.eye(A.shape[1])
    _, s, vt = np.linalg.svd(A)
    rank = int(np.sum(s > 1e-10 * s[0]))
    return vt[rank:].T


def fd_jacobian(f, x, eps=1e-6):
    """Central-difference Jacobian of f: R^n -> R^m at x."""
    x = np.asarray(x, dtype=float)
    f0 = np.atleast_1d(np.asarray(f(x), dtype=float))
    J = np.empty((f0.size, x.size))
    for i in range(x.size):
        dx = np.zeros_like(x)
        dx[i] = eps
        fp = np.atleast_1d(np.asarray(f(x + dx), dtype=float))
        fm = np.atleast_1d(np.asarray(f(x - dx), dtype=float))
        J[:, i] = (fp - fm) / (2.0 * eps)
    return J


def fd_config_jacobian(m, f, q, eps=1e-6):
    """Central-difference Jacobian w.r.t. right tangent perturbations of q."""
    f0 = np.atleast_1d(np.asarray(f(q), dtype=float))
    J = np.empty((f0.size, m.nv))
    for i in range(m.nv):
        dq = np.zeros(m.nv)
        dq[i] = eps
        fp = np.atleast_1d(np.asarray(f(mod.integrate_q(m, q, dq)), dtype=float))
        fm = np.atleast_1d(np.asarray(f(mod.integrate_q(m, q, -dq)), dtype=float))
        J[:, i] = (fp - fm) / (2.0 * eps)
    return J


def fd_state_jacobian(m, f, x, eps=1e-6):
    """Central-difference Jacobian w.r.t. the 2*nv state tangent, manifold-aware."""
    f0 = np.atleast_1d(np.asarray(f(x), dtype=float))
    J = np.empty((f0.size, 2 * m.nv))
    for i in range(2 * m.nv):
        dx = np.zeros(2 * m.nv)
        dx[i] = eps
        fp = np.atleast_1d(np.asarray(f(mod.integrate(m, x, dx)), dtype=float))
        fm = np.atleast_1d(np.asarray(f(mod.integrate(m, x, -dx)), dtype=float))
        J[:, i] = (fp - fm) / (2.0 * eps)
    return J


def rel_err(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return np.abs(a - b).max() / max(1.0, np.abs(b).max())


def random_state(m, rng, spread=0.3, base_height=None):
    q = presets.nominal_configuration(m) if m.name == "planar_quadruped" else np.zeros(m.nq)
    q = q + spread * rng.normal(size=m.nq)
    if base_height is not None:
        q[1] = base_height
    v = spread * rng.normal(size=m.nv)
    return np.concatenate([mod.normalize_q(q), v])


# ------------------------------------------------- per-body reference passes
#
# The multibody recursions written one body at a time, as in Featherstone's
# *Rigid Body Dynamics Algorithms* (2008): forward kinematics, RNEA and the
# composite-rigid-body mass matrix.  The package evaluates the same
# quantities one tree depth at a time; these loops are the oracle it is
# checked against.

def boxqp_kkt_violation(H, g, lo, hi, x) -> float:
    """Max violation of the box-QP first-order conditions at x."""
    grad = g + H @ x
    at_lo = x <= lo + 1e-10
    at_hi = ~at_lo & (x >= hi - 1e-10)
    viol = np.where(at_lo, np.maximum(0.0, -grad),
                    np.where(at_hi, np.maximum(0.0, grad), np.abs(grad)))
    return float(viol.max(initial=0.0))


def ref_joint_pose(m, joint, q):
    """Pose of body ``joint`` in its parent's frame (root: in the world)."""
    j = m.joints[joint]
    if j.parent < 0:
        return np.asarray(q[:3], dtype=float)
    return se2.compose(np.asarray(j.placement, dtype=float),
                       np.array([0.0, 0.0, q[3 + joint - 1]]))


def ref_motion_transform(pose):
    RT = se2.rot(pose[2]).T
    X = np.zeros((3, 3))
    X[:2, :2] = RT
    X[:2, 2] = RT @ np.array([-pose[1], pose[0]])
    X[2, 2] = 1.0
    return X


def ref_crm(v):
    vx, vy, w = v
    return np.array([[0.0, -w, vy], [w, 0.0, -vx], [0.0, 0.0, 0.0]])


def ref_crf(v):
    return -ref_crm(v).T


def ref_inertia(body):
    cx, cy = body.com
    mass = body.mass
    return np.array([[mass, 0.0, -mass * cy],
                     [0.0, mass, mass * cx],
                     [-mass * cy, mass * cx,
                      body.inertia + mass * (cx * cx + cy * cy)]])


def ref_forward_kinematics(m, q):
    """(pose, X, B): world poses, parent->body transforms, body Jacobians."""
    nb = m.nbodies
    pose = np.empty((nb, 3))
    X = np.empty((nb, 3, 3))
    B = np.zeros((nb, 3, m.nv))
    for i in range(nb):
        rel = ref_joint_pose(m, i, q)
        X[i] = ref_motion_transform(rel)
        p = m.joints[i].parent
        pose[i] = rel if p < 0 else se2.compose(pose[p], rel)
        if p < 0:
            B[i, :, :3] = np.eye(3)
        else:
            B[i] = X[i] @ B[p]
            B[i, 2, 2 + i] += 1.0
    return pose, X, B


def ref_twists_and_bias(m, q, v):
    """Body twists and body accelerations at zero acceleration, no gravity."""
    _, X, _ = ref_forward_kinematics(m, q)
    nb = m.nbodies
    tw = np.empty((nb, 3))
    acc = np.zeros((nb, 3))
    tw[0] = v[:3]
    for i in range(1, nb):
        p = m.joints[i].parent
        Svj = np.array([0.0, 0.0, v[2 + i]])
        tw[i] = X[i] @ tw[p] + Svj
        acc[i] = X[i] @ acc[p] + ref_crm(tw[i]) @ Svj
    return tw, acc


def ref_rnea(m, q, v, a, contact_forces=None):
    """tau = M a + h - J_C.T lambda, one body at a time."""
    pose, X, _ = ref_forward_kinematics(m, q)
    nb = m.nbodies
    tw = np.empty((nb, 3))
    ac = np.empty((nb, 3))
    tw[0] = v[:3]
    ac[0] = X[0] @ np.array([-mod.GRAVITY[0], -mod.GRAVITY[1], 0.0]) + a[:3]
    for i in range(1, nb):
        p = m.joints[i].parent
        Svj = np.array([0.0, 0.0, v[2 + i]])
        tw[i] = X[i] @ tw[p] + Svj
        ac[i] = (X[i] @ ac[p] + np.array([0.0, 0.0, a[2 + i]])
                 + ref_crm(tw[i]) @ Svj)
    f = np.empty((nb, 3))
    for i in range(nb):
        I = ref_inertia(m.bodies[i])
        f[i] = I @ ac[i] + ref_crf(tw[i]) @ (I @ tw[i])
    for frame, lam in (contact_forces or {}).items():
        c = m.contact_frames[frame]
        fl = se2.rot(pose[c.body, 2]).T @ np.asarray(lam, dtype=float)
        rx, ry = c.offset
        f[c.body, :2] -= fl
        f[c.body, 2] -= rx * fl[1] - ry * fl[0]
    tau = np.zeros(m.nv)
    for i in range(nb - 1, 0, -1):
        tau[2 + i] = f[i, 2]
        f[m.joints[i].parent] += X[i].T @ f[i]
    tau[:3] = f[0]
    return tau


def ref_mass_matrix(m, q):
    """Composite-rigid-body algorithm."""
    _, X, _ = ref_forward_kinematics(m, q)
    nb, nv = m.nbodies, m.nv
    Ic = np.array([ref_inertia(b) for b in m.bodies])
    for i in range(nb - 1, 0, -1):
        Ic[m.joints[i].parent] += X[i].T @ Ic[i] @ X[i]
    M = np.zeros((nv, nv))
    M[:3, :3] = Ic[0]
    for i in range(1, nb):
        F = Ic[i][:, 2].copy()
        row = 2 + i
        M[row, row] = F[2]
        j = i
        while m.joints[j].parent >= 0:
            F = X[j].T @ F
            j = m.joints[j].parent
            if j == 0:
                M[row, :3] = F
                M[:3, row] = F
            else:
                M[row, 2 + j] = F[2]
                M[2 + j, row] = F[2]
    return M


def _ref_perp(u):
    return np.array([-u[1], u[0]])


def ref_frame_motion(m, q, v, frames):
    """Per-frame world position, velocity, acceleration bias and Jacobian rows."""
    pose, _, B = ref_forward_kinematics(m, q)
    tw, acc = ref_twists_and_bias(m, q, v)
    pos, vel, bias, jac = [], [], [], []
    for f in frames:
        c = m.contact_frames[f]
        r = np.asarray(c.offset, dtype=float)
        R = se2.rot(pose[c.body, 2])
        t, a = tw[c.body], acc[c.body]
        pos.append(se2.act(pose[c.body], r))
        vel.append(R @ (t[:2] + t[2] * _ref_perp(r)))
        bias.append(R @ (a[:2] + a[2] * _ref_perp(r)
                         + t[2] * _ref_perp(t[:2] + t[2] * _ref_perp(r))))
        Bb = B[c.body]
        jac.append(R @ (Bb[:2] + np.outer(_ref_perp(r), Bb[2])))
    k = len(frames)
    return (np.array(pos).reshape(k, 2), np.array(vel).reshape(k, 2),
            np.array(bias).reshape(2 * k), np.array(jac).reshape(2 * k, m.nv))


def ref_centroidal(m, q):
    """(p_G, A_G, I_G) summed body by body.

    The momentum of body i in its own frame is I_i B_i v; forces transform
    covariantly, so pushing it into a world-aligned frame at the centre of
    mass uses the transpose of the motion transform CoM frame -> body.
    """
    pose, _, B = ref_forward_kinematics(m, q)
    coms = np.array([se2.act(pose[i], np.asarray(b.com))
                     for i, b in enumerate(m.bodies)])
    masses = np.array([b.mass for b in m.bodies])
    p_G = masses @ coms / masses.sum()
    A_G = np.zeros((3, m.nv))
    I_G = 0.0
    for i, b in enumerate(m.bodies):
        rel = pose[i].copy()
        rel[:2] -= p_G
        A_G += ref_motion_transform(rel).T @ ref_inertia(b) @ B[i]
        d = coms[i] - p_G
        I_G += b.inertia + b.mass * float(d @ d)
    return p_G, A_G, I_G


def fd_centroidal_bias(m, q, v, eps=2.0 ** -17):
    """Momentum-matrix drift (dA_G/dt) v by central differences.

    A_G depends on the configuration only, so the difference of A_G(q) v
    with q flowing along v matches the directional derivative to O(eps^2).
    """
    qp = mod.integrate_q(m, q, eps * v)
    qm = mod.integrate_q(m, q, -eps * v)
    return (ref_centroidal(m, qp)[1] @ v - ref_centroidal(m, qm)[1] @ v) / (2.0 * eps)


# ------------------------------------------------ per-node reference derivatives
#
# The node dynamics, its derivatives and its cost expansion written one node
# and one body at a time.  The package evaluates and differentiates the nodes
# of a window in stacked groups, one tree depth at a time; these functions
# are the oracle it is checked against.

def ref_tangent_sweep(m, kin, v, a=None, contact_forces=None, frames=(),
                      gravity=True):
    """(dtau, dvel, dacc) of ``dynamics.tangent_sweep``, one body at a time."""
    nv, nb = m.nv, m.nbodies
    n = 2 * nv
    dyn = a is not None
    tw = np.empty((nb, 3))
    dtw = np.zeros((nb, 3, n))
    dth = np.zeros((nb, nv))          # world angle tangent, q block only
    tw[0] = v[:3]
    dtw[0, :, nv:nv + 3] = np.eye(3)
    dth[0, 2] = 1.0
    if dyn:
        ac = np.empty((nb, 3))        # gravity-free body accelerations
        dac = np.zeros((nb, 3, n))
        gr = np.empty((nb, 3))        # gravity as an upward body acceleration
        dgr = np.zeros((nb, 3, n))
        g_world = (np.array([-mod.GRAVITY[0], -mod.GRAVITY[1], 0.0])
                   if gravity else np.zeros(3))
        ac[0] = a[:3]
        gr[0] = kin.X[0] @ g_world
        dgr[0, :, :3] = ref_crm(gr[0])
    for i in range(1, nb):
        p = m.joints[i].parent
        X = kin.X[i]
        cq, cv = 2 + i, nv + 2 + i
        vi = v[cq]
        u = X @ tw[p]
        tw[i] = u
        tw[i, 2] += vi
        dtw[i] = X @ dtw[p]
        # -crm(S dq) X tw_p = crm(X tw_p) S dq
        dtw[i, 0, cq] += u[1]
        dtw[i, 1, cq] -= u[0]
        dtw[i, 2, cv] += 1.0
        dth[i] = dth[p]
        dth[i, cq] += 1.0
        if dyn:
            gi = X @ gr[p]
            gr[i] = gi
            dgr[i] = X @ dgr[p]
            dgr[i, 0, cq] += gi[1]
            dgr[i, 1, cq] -= gi[0]
            y = X @ ac[p]
            ac[i] = y + np.array([vi * tw[i, 1], -vi * tw[i, 0], a[cq]])
            dac[i] = X @ dac[p]
            dac[i, 0, cq] += y[1]
            dac[i, 1, cq] -= y[0]
            dac[i, 0] += vi * dtw[i, 1]
            dac[i, 1] -= vi * dtw[i, 0]
            dac[i, 0, cv] += tw[i, 1]
            dac[i, 1, cv] -= tw[i, 0]

    dvel = np.empty((2 * len(frames), n))
    dacc = np.empty((2 * len(frames), n)) if dyn else None
    for k, frame in enumerate(frames):
        c = m.contact_frames[frame]
        b = c.body
        r = np.asarray(c.offset, dtype=float)
        pr = np.array([-r[1], r[0]])
        R = se2.rot(kin.pose[b, 2])
        t, dt_ = tw[b], dtw[b]
        vel = t[:2] + t[2] * pr
        dvl = dt_[:2] + np.outer(pr, dt_[2])
        dvl[:, :nv] += np.outer([-vel[1], vel[0]], dth[b])
        dvel[2 * k: 2 * k + 2] = R @ dvl
        if dyn:
            A, dA = ac[b], dac[b]
            acc = A[:2] + A[2] * pr + t[2] * np.array([-t[1], t[0]]) - t[2] ** 2 * r
            dal = (dA[:2] + np.outer(pr, dA[2]) + np.outer([-t[1], t[0]], dt_[2])
                   + t[2] * np.stack([-dt_[1], dt_[0]])
                   - 2.0 * t[2] * np.outer(r, dt_[2]))
            dal[:, :nv] += np.outer([-acc[1], acc[0]], dth[b])
            dacc[2 * k: 2 * k + 2] = R @ dal
    if not dyn:
        return None, dvel, None

    f = np.empty((nb, 3))
    df = np.empty((nb, 3, n))
    for i in range(nb):
        I = ref_inertia(m.bodies[i])
        h = I @ tw[i]
        f[i] = I @ (ac[i] + gr[i]) + ref_crf(tw[i]) @ h
        # d(crf(tw) h) = crf(dtw) h + crf(tw) I dtw, with crf(x) h = Hm x
        Hm = np.array([[0.0, 0.0, -h[1]], [0.0, 0.0, h[0]], [h[1], -h[0], 0.0]])
        df[i] = I @ (dac[i] + dgr[i]) + (Hm + ref_crf(tw[i]) @ I) @ dtw[i]
    for frame, lam in (contact_forces or {}).items():
        c = m.contact_frames[frame]
        b = c.body
        fl = se2.rot(kin.pose[b, 2]).T @ np.asarray(lam, dtype=float)
        rx, ry = c.offset
        f[b, :2] -= fl
        f[b, 2] -= rx * fl[1] - ry * fl[0]
        dfl = np.outer([fl[1], -fl[0]], dth[b])
        df[b, :2, :nv] -= dfl
        df[b, 2, :nv] -= rx * dfl[1] - ry * dfl[0]

    dtau = np.empty((nv, n))
    for i in range(nb - 1, 0, -1):
        p = m.joints[i].parent
        X = kin.X[i]
        dtau[2 + i] = df[i, 2]
        # d(X.T f) = X.T df + X.T crf(S dq) f
        df[i, 0, 2 + i] -= f[i, 1]
        df[i, 1, 2 + i] += f[i, 0]
        f[p] += X.T @ f[i]
        df[p] += X.T @ df[i]
    dtau[:3] = df[0]
    return dtau, dvel, dacc


def _ref_kkt_apply(M, J, rhs_top, rhs_bot):
    nv, nf = M.shape[0], J.shape[0]
    K = np.zeros((nv + nf, nv + nf))
    K[:nv, :nv] = M
    K[:nv, nv:] = -J.T
    K[nv:, :nv] = J
    sol = np.linalg.solve(K, np.vstack([rhs_top, rhs_bot]))
    return sol[:nv], sol[nv:]


def ref_contact_derivatives(m, q, v, contacts, sol):
    """(dvdot_dx, dvdot_du, dlam_dx, dlam_du) of the contact dynamics at ``sol``."""
    from leggedmpc import contact as ct
    from leggedmpc.kinematics import forward_kinematics
    nv, nu, nf = m.nv, m.nu, contacts.nf
    frames = contacts.frames
    lam_map = {f: sol.forces[2 * k: 2 * k + 2] for k, f in enumerate(frames)}
    kin = forward_kinematics(m, q)
    F1_x, dvel, dacc = ref_tangent_sweep(m, kin, v, sol.vdot, lam_map, frames)
    if nf == 0:
        Minv = np.linalg.inv(sol.mb.M)
        return -Minv @ F1_x, Minv @ m.S, np.zeros((0, 2 * nv)), np.zeros((0, nu))
    F2_x = dacc + ct.BAUMGARTE_GAIN * dvel
    dvdot_dx, dlam_dx = _ref_kkt_apply(sol.mb.M, sol.J, -F1_x, -F2_x)
    dvdot_du, dlam_du = _ref_kkt_apply(sol.mb.M, sol.J, m.S, np.zeros((nf, nu)))
    return dvdot_dx, dvdot_du, dlam_dx, dlam_du


def ref_impulse_derivatives(m, q, v_minus, contacts, sol):
    """(dv+_dx, dimpulses_dx) of the impulse dynamics at ``sol``."""
    from leggedmpc.kinematics import forward_kinematics
    nv, nf = m.nv, contacts.nf
    frames = contacts.frames
    kin = forward_kinematics(m, q)
    lam_map = {f: sol.impulses[2 * k: 2 * k + 2] for k, f in enumerate(frames)}
    F1_x = np.empty((nv, 2 * nv))
    F2_x = np.empty((nf, 2 * nv))
    F1_x[:, :nv] = ref_tangent_sweep(m, kin, np.zeros(nv), sol.v_plus - v_minus,
                                     lam_map, gravity=False)[0][:, :nv]
    F2_x[:, :nv] = ref_tangent_sweep(m, kin, sol.v_plus, frames=frames)[1][:, :nv]
    F1_x[:, nv:] = -sol.M
    F2_x[:, nv:] = 0.0
    return _ref_kkt_apply(sol.M, sol.J, -F1_x, -F2_x)


class RefExpansion:
    """Gauss-Newton accumulator for costs of the form sum w_i r_i(x,u)^2."""

    def __init__(self, ndx, nu):
        self.value = 0.0
        self.lx, self.lu = np.zeros(ndx), np.zeros(nu)
        self.lxx, self.lxu, self.luu = (np.zeros((ndx, ndx)), np.zeros((ndx, nu)),
                                        np.zeros((nu, nu)))

    def add(self, r, w, Jx=None, Ju=None):
        w = np.broadcast_to(np.asarray(w, float), np.shape(r))
        wr = w * r
        self.value += float(r @ wr)
        if Jx is not None:
            self.lx += 2.0 * (Jx.T @ wr)
            self.lxx += 2.0 * (Jx.T @ (w[:, None] * Jx))
        if Ju is not None:
            self.lu += 2.0 * (Ju.T @ wr)
            self.luu += 2.0 * (Ju.T @ (w[:, None] * Ju))
        if Jx is not None and Ju is not None:
            self.lxu += 2.0 * (Jx.T @ (w[:, None] * Ju))


def _ref_state_costs(m, node, q, v, acc, with_jac, bounds=None):
    nv = m.nv
    weights = node.weights
    rq = mod.difference_q(m, q, weights.q_ref)
    Jq = Jv = None
    if with_jac:
        Jq = np.eye(nv, 2 * nv)
        Jq[:3, :3] = np.linalg.inv(se2.right_jacobian(rq[:3]))
        Jv = np.zeros((nv, 2 * nv))
        Jv[:, nv:] = np.eye(nv)
    acc.add(rq, weights.Q, Jx=Jq)
    acc.add(v, weights.N, Jx=Jv)
    if bounds is not None:
        from leggedmpc import costs as co
        w = pb.STATE_BOUND_WEIGHT
        rq = co.interval_violation(q[3:], bounds.q_lb[3:], bounds.q_ub[3:])
        rv = co.interval_violation(v, bounds.v_lb, bounds.v_ub)
        Jq = Jv = None
        if with_jac:
            Jq = np.zeros((nv - 3, 2 * nv))
            Jq[:, 3:nv] = np.diag((rq != 0.0).astype(float))
            Jv = np.zeros((nv, 2 * nv))
            Jv[:, nv:] = np.diag((rv != 0.0).astype(float))
        acc.add(rq, w, Jx=Jq)
        acc.add(rv, w, Jx=Jv)


def ref_running(node, x, u):
    """(x_next, cost, NodeDerivatives) of a running node, from its own data."""
    from leggedmpc import contact as ct
    from leggedmpc import costs as co
    from leggedmpc import kinematics
    from leggedmpc.problem import NodeDerivatives
    m = node.model
    nv, nu = m.nv, m.nu
    weights = node.weights
    q, v = x[:nv], x[nv:]
    sol = ct.contact_forward_dynamics(m, q, v, u, node.contacts)
    dt = node.dt
    v_next = v + dt * sol.vdot
    x_next = np.concatenate([mod.normalize_q(mod.integrate_q(m, q, dt * v_next)),
                             v_next])
    dvdot_dx, dvdot_du, Jlx, Jlu = ref_contact_derivatives(m, q, v, node.contacts,
                                                           sol)
    # semi-implicit chain: v' = v + dt*a(x,u); q' = q (+) dt*v'
    Av = np.hstack([np.zeros((nv, nv)), np.eye(nv)]) + dt * dvdot_dx
    Bv = dt * dvdot_du
    Jq, Jdq = mod.dintegrate_q(m, dt * v_next)
    fx = np.vstack([np.hstack([Jq, np.zeros((nv, nv))]) + Jdq @ (dt * Av), Av])
    fu = np.vstack([Jdq @ (dt * Bv), Bv])

    acc = RefExpansion(2 * nv, nu)
    _ref_state_costs(m, node, q, v, acc, True, node.bounds)
    acc.add(u, weights.R, Ju=np.eye(nu))
    kin = kinematics.forward_kinematics(m, q)
    if node.swing:
        frames = sorted(node.swing)
        pos, vel, _, jac = ref_frame_motion(m, q, v, frames)
        Jp = np.zeros((2 * len(frames), 2 * nv))
        Jp[:, :nv] = jac
        Jv = np.zeros((2 * len(frames), 2 * nv))
        Jv[:, :nv] = ref_tangent_sweep(m, kin, v, frames=frames)[1][:, :nv]
        Jv[:, nv:] = jac
        acc.add((pos - np.array([node.swing[f].pos for f in frames])).ravel(),
                pb.PLACEMENT_WEIGHT, Jx=Jp)
        acc.add((vel - np.array([node.swing[f].vel for f in frames])).ravel(),
                pb.VELOCITY_WEIGHT, Jx=Jv)
    frames = node.contacts.frames
    if frames:
        lam = sol.forces
        acc.add(lam, np.tile(pb.FORCE_WEIGHTS, len(frames)), Jx=Jlx, Ju=Jlu)
        r, Jr = co.cone_residual(co.cone_matrices(pb.FRICTION_CONE), lam)
        acc.add(r, pb.CONE_WEIGHT, Jx=Jr @ Jlx, Ju=Jr @ Jlu)
    der = NodeDerivatives(fx, fu, dt * acc.lx, dt * acc.lu, dt * acc.lxx,
                          dt * acc.lxu, dt * acc.luu)
    return x_next, dt * acc.value, der


def ref_impulse(node, x):
    """(x_next, cost, NodeDerivatives) of an impulse node, from its own data."""
    from leggedmpc import contact as ct
    from leggedmpc.problem import NodeDerivatives
    m = node.model
    nv = m.nv
    q, v = x[:nv], x[nv:]
    sol = ct.impulse_dynamics(m, q, v, node.contacts)
    dvp_dx, _ = ref_impulse_derivatives(m, q, v, node.contacts, sol)
    fx = np.vstack([np.hstack([np.eye(nv), np.zeros((nv, nv))]), dvp_dx])
    acc = RefExpansion(2 * nv, 0)
    _ref_state_costs(m, node, q, v, acc, True)
    if node.gained:
        frames = sorted(node.gained)
        pos, _, _, jac = ref_frame_motion(m, q, v, frames)
        Jp = np.zeros((2 * len(frames), 2 * nv))
        Jp[:, :nv] = jac
        acc.add((pos - np.array([node.gained[f] for f in frames])).ravel(),
                pb.TOUCHDOWN_WEIGHT, Jx=Jp)
    x_next = np.concatenate([mod.normalize_q(q), sol.v_plus])
    der = NodeDerivatives(fx, np.zeros((2 * nv, 0)), acc.lx, acc.lu, acc.lxx,
                          acc.lxu, acc.luu)
    return x_next, acc.value, der


# ------------------------------------------------------------ solve loop

def solve(solver, xs=None, us=None, max_iters=100) -> str:
    """Iterate ``solver`` to convergence from ``(xs, us)``, or from its
    current candidate when it has one and none is given.  Returns the exit
    status: "converged", "no_step" (NoStepAccepted) or "max_iters"."""
    if solver.xs is None or xs is not None or us is not None:
        solver.set_candidate(xs, us)
    for _ in range(max_iters):
        try:
            if solver.solve_one_iteration():
                return "converged"
        except NoStepAccepted:
            return "no_step"
    return "max_iters"


# ------------------------------------------------- sequential line search
#
# Box-FDDP's backtracking line search written one step length at a time, as
# in Mastalli et al., "A feasibility-driven approach to control-limited
# DDP" (Auton. Robots 2022): each trial rolls the nodes out alone, through
# ``node.calc``, and the first trial that passes wins.  The solver rolls the
# step lengths out as the rows of one stacked trajectory; this loop is the
# oracle it is checked against.

class SequentialFddp(BoxFddp):
    """Box-FDDP whose line search tries one step length after another."""

    def trial(self, alpha, min_decrease=None):
        """(xs, us, cost) of the rollout at ``alpha``, or None at a singular
        contact set or a non-finite value and, with ``min_decrease`` given,
        as soon as the running cost shows ``self.cost - cost <
        min_decrease`` (node costs are never negative)."""
        problem = self.problem
        policy = self.policy
        feasible = self.feasible
        xs_try = [None] * len(self.xs)
        us_try = [None] * len(self.us)
        with np.errstate(over="ignore", invalid="ignore"):
            xs_try[0] = problem.integrate(problem.x0, (alpha - 1.0) * self.gaps[0]) \
                if not feasible else np.array(problem.x0, copy=True)
            cost = 0.0
            for k, node in enumerate(problem.nodes):
                dx = problem.diff(xs_try[k], self.xs[k])
                if node.nu:
                    u = self.us[k] + alpha * policy.k_ff[k] - policy.K_fb[k] @ dx
                    u = np.clip(u, node.u_lb, node.u_ub)
                else:
                    u = self.us[k]
                us_try[k] = u
                try:
                    xnext, c = node.calc(xs_try[k], u)
                except RankDeficientContacts:
                    return None
                cost += c
                if not np.isfinite(cost):
                    return None
                if min_decrease is not None and self.cost - cost < min_decrease:
                    return None
                xs_try[k + 1] = xnext if feasible else \
                    problem.integrate(xnext, (alpha - 1.0) * self.gaps[k + 1])
                if not np.all(np.isfinite(xs_try[k + 1])):
                    return None
            cost += problem.terminal.calc(xs_try[-1])
        if not np.isfinite(cost):
            return None
        return xs_try, us_try, cost

    def _line_search(self):
        was_feasible = self.feasible
        for alpha in boxfddp.ALPHAS:
            min_decrease = (self._min_decrease(self.expected_improvement(alpha, None))
                            if was_feasible else None)
            out = self.trial(alpha, min_decrease)
            self.last_trials += 1
            if out is None:
                continue
            xs_try, us_try, cost_try = out
            if not was_feasible:
                min_decrease = self._min_decrease(
                    self.expected_improvement(alpha, xs_try))
            actual = self.cost - cost_try
            if not actual >= min_decrease:
                continue
            if was_feasible and actual < -1e-12:
                continue
            # no data: the next iteration evaluates the accepted trial again
            return alpha, xs_try, us_try, cost_try, [None] * len(us_try)
        return None
